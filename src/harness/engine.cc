#include "harness/engine.hh"

#include "harness/workloads.hh"
#include "jit/artifact.hh"
#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "mipsi/direct.hh"
#include "mipsi/jit.hh"
#include "mipsi/mipsi.hh"
#include "mipsi/threaded.hh"
#include "perlish/interp.hh"
#include "support/logging.hh"
#include "tclish/interp.hh"

namespace interp::harness {

namespace {

mips::Image
specImage(const BenchSpec &spec)
{
    return spec.image ? *spec.image
                      : minic::compileMips(spec.source, spec.name);
}

/** Lang::C — the hand-scheduled native baseline. */
class DirectEngine final : public Engine
{
  public:
    DirectEngine(trace::Execution &exec, vfs::FileSystem &fs)
        : exec(exec), fs(fs)
    {
    }

    EngineResult execute(const BenchSpec &spec) override
    {
        EngineResult res;
        auto image = specImage(spec);
        res.programBytes = image.sizeBytes();
        cpu = std::make_unique<mipsi::DirectCpu>(exec, fs);
        cpu->load(image);
        auto r = cpu->run(spec.maxCommands);
        res.finished = r.exited;
        res.commands = r.instructions;
        return res;
    }

    trace::CommandSet &commandSet() override
    {
        return cpu->commandSet();
    }

  private:
    trace::Execution &exec;
    vfs::FileSystem &fs;
    std::unique_ptr<mipsi::DirectCpu> cpu;
};

/** Lang::Mipsi / MipsiThreaded — switch and threaded MIPS cores. */
class MipsiEngine final : public Engine
{
  public:
    MipsiEngine(trace::Execution &exec, vfs::FileSystem &fs,
                bool threaded)
        : exec(exec), fs(fs), threaded(threaded)
    {
    }

    EngineResult execute(const BenchSpec &spec) override
    {
        EngineResult res;
        auto image = specImage(spec);
        res.programBytes = image.sizeBytes();
        // run() is non-virtual by design (mipsi.hh): dispatch on the
        // concrete type, keep the base pointer only for commandSet().
        mipsi::Mipsi::RunResult r;
        if (threaded) {
            threadedVm = std::make_unique<mipsi::ThreadedMipsi>(exec, fs);
            threadedVm->load(image);
            r = threadedVm->run(spec.maxCommands);
            vm = threadedVm.get();
        } else {
            switchVm = std::make_unique<mipsi::Mipsi>(exec, fs);
            switchVm->load(image);
            r = switchVm->run(spec.maxCommands);
            vm = switchVm.get();
        }
        res.finished = r.exited;
        res.commands = r.commands;
        return res;
    }

    trace::CommandSet &commandSet() override
    {
        return vm->commandSet();
    }

  private:
    trace::Execution &exec;
    vfs::FileSystem &fs;
    bool threaded;
    // The cores have no vtable (mipsi.hh explains why), so each
    // concrete type must be owned — and destroyed — as itself; the
    // base pointer is a non-owning view for commandSet().
    std::unique_ptr<mipsi::Mipsi> switchVm;
    std::unique_ptr<mipsi::ThreadedMipsi> threadedVm;
    mipsi::Mipsi *vm = nullptr;
};

/**
 * Lang::MipsiJit — tier 3. Executes through a published JitArtifact
 * when the spec carries one (the catalog's single-builder aside
 * build), compiling and publishing a fresh one otherwise. A
 * *poisoned* published artifact never reaches enter(): the run drops
 * to the previous tier's VM outright, the same contained-fallback
 * shape as the jvm caches' debugPoisonIc.
 */
class MipsiJitEngine final : public Engine
{
  public:
    MipsiJitEngine(trace::Execution &exec, vfs::FileSystem &fs)
        : exec(exec), fs(fs)
    {
    }

    EngineResult execute(const BenchSpec &spec) override
    {
        EngineResult res;
        auto image = specImage(spec);
        res.programBytes = image.sizeBytes();
        if (spec.jitArtifact && spec.jitArtifact->poisoned()) {
            prevVm = std::make_unique<mipsi::ThreadedMipsi>(exec, fs);
            prevVm->load(image);
            auto r = prevVm->run(spec.maxCommands);
            res.finished = r.exited;
            res.commands = r.commands;
            vm = prevVm.get();
            return res;
        }
        jitVm = std::make_unique<mipsi::JitMipsi>(exec, fs);
        jitVm->load(image);
        if (spec.jitArtifact)
            jitVm->useArtifact(spec.jitArtifact);
        if (spec.publishJitArtifact)
            jitVm->setPublishHook(spec.publishJitArtifact);
        auto r = jitVm->run(spec.maxCommands);
        res.finished = r.exited;
        res.commands = r.commands;
        vm = jitVm.get();
        return res;
    }

    trace::CommandSet &commandSet() override
    {
        return vm->commandSet();
    }

  private:
    trace::Execution &exec;
    vfs::FileSystem &fs;
    // No vtable on the cores: own each concrete type as itself, keep
    // only a non-owning base view for commandSet().
    std::unique_ptr<mipsi::ThreadedMipsi> prevVm;
    std::unique_ptr<mipsi::JitMipsi> jitVm;
    mipsi::Mipsi *vm = nullptr;
};

/** Lang::Java / JavaQuick / JavaTier2 — the jvm's three tiers. */
class JvmEngine final : public Engine
{
  public:
    JvmEngine(trace::Execution &exec, vfs::FileSystem &fs, int tier)
        : exec(exec), fs(fs), tier(tier)
    {
    }

    EngineResult execute(const BenchSpec &spec) override
    {
        switch (tier) {
          case 0: return executeBaseline(spec);
          case 1: return executeQuick(spec);
          default: return executeTier2(spec);
        }
    }

    trace::CommandSet &commandSet() override
    {
        return vm->commandSet();
    }

  private:
    EngineResult executeBaseline(const BenchSpec &spec)
    {
        EngineResult res;
        vm = std::make_unique<jvm::Vm>(exec, fs);
        if (spec.jvmPairSink)
            vm->setPairSink(spec.jvmPairSink);
        if (spec.module) {
            res.programBytes = spec.module->sizeBytes();
            vm->loadShared(spec.module);
        } else {
            auto module = minic::compileBytecode(spec.source, spec.name);
            res.programBytes = module.sizeBytes();
            vm->load(module);
        }
        auto r = vm->run(spec.maxCommands);
        res.finished = r.exited;
        res.commands = r.commands;
        return res;
    }

    EngineResult executeQuick(const BenchSpec &spec)
    {
        EngineResult res;
        vm = std::make_unique<jvm::Vm>(exec, fs, /*quick=*/true);
        if (spec.module) {
            // A catalog-shared module must never be quickened in
            // place; execute through a pre-quickened artifact instead
            // (build one now if the catalog has none published yet).
            res.programBytes = spec.module->sizeBytes();
            auto artifact = spec.jvmArtifact;
            if (!artifact) {
                jvm::TierOptions opts;
                opts.fuse = false;
                opts.inlineCache = false;
                jvm::PairProfile none;
                artifact = jvm::buildTierArtifact(&exec, *spec.module,
                                                  none, opts);
                if (spec.publishJvmArtifact)
                    spec.publishJvmArtifact(artifact);
            }
            vm->useArtifact(std::move(artifact));
        } else {
            auto module = minic::compileBytecode(spec.source, spec.name);
            res.programBytes = module.sizeBytes();
            vm->load(module);
        }
        auto r = vm->run(spec.maxCommands);
        res.finished = r.exited;
        res.commands = r.commands;
        return res;
    }

    EngineResult executeTier2(const BenchSpec &spec)
    {
        EngineResult res;
        std::shared_ptr<const jvm::Module> module = spec.module;
        if (!module)
            module = std::make_shared<const jvm::Module>(
                minic::compileBytecode(spec.source, spec.name));
        res.programBytes = module->sizeBytes();
        auto artifact = spec.jvmArtifact;
        if (!artifact) {
            jvm::PairProfile local;
            const jvm::PairProfile *pairs = spec.jvmPairs.get();
            if (!pairs) {
                // Standalone mode: discover hot pairs with an
                // unmeasured profiling pre-run (interpd feeds the
                // profile from earlier baseline runs instead).
                trace::Execution pexec;
                vfs::FileSystem pfs;
                if (spec.needsInputs)
                    installAllInputs(pfs);
                jvm::Vm pvm(pexec, pfs);
                pvm.setPairSink(&local);
                pvm.loadShared(module);
                pvm.run(spec.maxCommands);
                pairs = &local;
            }
            artifact = jvm::buildTierArtifact(&exec, *module, *pairs);
            if (spec.publishJvmArtifact)
                spec.publishJvmArtifact(artifact);
        }
        vm = std::make_unique<jvm::Vm>(exec, fs, /*quick=*/true);
        vm->useArtifact(std::move(artifact));
        auto r = vm->run(spec.maxCommands);
        res.finished = r.exited;
        res.commands = r.commands;
        return res;
    }

    trace::Execution &exec;
    vfs::FileSystem &fs;
    int tier;
    std::unique_ptr<jvm::Vm> vm;
};

/** Lang::Perl. */
class PerlEngine final : public Engine
{
  public:
    PerlEngine(trace::Execution &exec, vfs::FileSystem &fs)
        : exec(exec), fs(fs)
    {
    }

    EngineResult execute(const BenchSpec &spec) override
    {
        EngineResult res;
        res.programBytes = spec.source.size();
        vm = std::make_unique<perlish::Interp>(exec, fs);
        vm->load(spec.source, spec.name);
        auto r = vm->run(spec.maxCommands);
        res.finished = r.exited;
        res.commands = r.commands;
        return res;
    }

    trace::CommandSet &commandSet() override
    {
        return vm->commandSet();
    }

  private:
    trace::Execution &exec;
    vfs::FileSystem &fs;
    std::unique_ptr<perlish::Interp> vm;
};

/** Lang::Tcl / TclBytecode / TclTier2. */
class TclEngine final : public Engine
{
  public:
    TclEngine(trace::Execution &exec, vfs::FileSystem &fs,
              bool bytecode, bool tier2)
        : exec(exec), fs(fs), bytecode(bytecode), tier2(tier2)
    {
    }

    EngineResult execute(const BenchSpec &spec) override
    {
        EngineResult res;
        res.programBytes = spec.source.size();
        vm = std::make_unique<tclish::TclInterp>(exec, fs, bytecode,
                                                 tier2);
        auto r = vm->run(spec.source, spec.maxCommands);
        res.finished = r.exited;
        res.commands = r.commands;
        return res;
    }

    trace::CommandSet &commandSet() override
    {
        return vm->commandSet();
    }

  private:
    trace::Execution &exec;
    vfs::FileSystem &fs;
    bool bytecode, tier2;
    std::unique_ptr<tclish::TclInterp> vm;
};

} // namespace

std::unique_ptr<Engine>
makeEngine(Lang lang, trace::Execution &exec, vfs::FileSystem &fs)
{
    switch (lang) {
      case Lang::C:
        return std::make_unique<DirectEngine>(exec, fs);
      case Lang::Mipsi:
        return std::make_unique<MipsiEngine>(exec, fs, false);
      case Lang::MipsiThreaded:
        return std::make_unique<MipsiEngine>(exec, fs, true);
      case Lang::MipsiJit:
        return std::make_unique<MipsiJitEngine>(exec, fs);
      case Lang::Java:
        return std::make_unique<JvmEngine>(exec, fs, 0);
      case Lang::JavaQuick:
        return std::make_unique<JvmEngine>(exec, fs, 1);
      case Lang::JavaTier2:
        return std::make_unique<JvmEngine>(exec, fs, 2);
      case Lang::Perl:
        return std::make_unique<PerlEngine>(exec, fs);
      case Lang::Tcl:
        return std::make_unique<TclEngine>(exec, fs, false, false);
      case Lang::TclBytecode:
        return std::make_unique<TclEngine>(exec, fs, true, false);
      case Lang::TclTier2:
        return std::make_unique<TclEngine>(exec, fs, true, true);
    }
    panic("makeEngine: unhandled lang %d", (int)lang);
}

} // namespace interp::harness
