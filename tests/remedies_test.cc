/**
 * @file
 * Golden equivalence tests for the §5 remedy execution modes
 * (threaded MIPSI, quickened JVM, bytecode tclish). Each remedy must
 * be observationally identical to its baseline — same stdout, same
 * virtual commands, byte-identical per-command retired and execute
 * counts — while spending strictly fewer fetch/decode instructions.
 * Also covers the code-mutation guards (a remedy that would rewrite
 * code after its first execution must fatal, containably) and the
 * record/replay composition of the remedy modes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/record_replay.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "mips/asm_builder.hh"
#include "mipsi/mipsi.hh"
#include "mipsi/threaded.hh"
#include "support/logging.hh"
#include "tclish/interp.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"

namespace {

using namespace interp;
using namespace interp::harness;

BenchSpec
macroSpec(Lang lang, const std::string &name)
{
    for (BenchSpec &spec : macroSuite())
        if (spec.lang == lang && spec.name == name)
            return spec;
    ADD_FAILURE() << "no macro benchmark " << langName(lang) << "/"
                  << name;
    return {};
}

/**
 * The golden property: run the spec in baseline and remedy mode and
 * check that everything the program and the execute stage produce is
 * identical, with the whole improvement confined to fetch/decode
 * (plus a one-shot Precompile charge).
 */
void
expectGoldenPair(const BenchSpec &base_spec)
{
    BenchSpec rem_spec = base_spec;
    rem_spec.lang = ladderMode(base_spec.lang, 1);
    ASSERT_NE(rem_spec.lang, base_spec.lang) << "spec has no remedy";

    Measurement base = run(base_spec);
    Measurement rem = run(rem_spec);

    // Program-visible behaviour is identical.
    EXPECT_EQ(base.stdoutText, rem.stdoutText);
    EXPECT_TRUE(base.finished);
    EXPECT_TRUE(rem.finished);
    EXPECT_EQ(base.commands, rem.commands);
    EXPECT_EQ(base.commandNames, rem.commandNames);

    // Execute attribution is byte-identical per virtual command.
    const auto &bc = base.profile.perCommand();
    const auto &rc = rem.profile.perCommand();
    ASSERT_EQ(bc.size(), rc.size());
    uint64_t base_fd = 0;
    uint64_t rem_fd = 0;
    for (size_t i = 0; i < bc.size(); ++i) {
        EXPECT_EQ(bc[i].retired, rc[i].retired) << "command " << i;
        EXPECT_EQ(bc[i].execute, rc[i].execute) << "command " << i;
        EXPECT_EQ(bc[i].nativeLib, rc[i].nativeLib) << "command " << i;
        EXPECT_LE(rc[i].fetchDecode, bc[i].fetchDecode)
            << "command " << i;
        base_fd += bc[i].fetchDecode;
        rem_fd += rc[i].fetchDecode;
    }
    EXPECT_EQ(base.profile.executeInsts(), rem.profile.executeInsts());

    // The delta is entirely in fetch/decode: strictly fewer per-trip
    // f/d instructions, paid for by a one-shot Precompile charge.
    EXPECT_LT(rem_fd, base_fd);
    EXPECT_LT(rem.profile.fetchDecodeInsts(),
              base.profile.fetchDecodeInsts());
    EXPECT_GT(rem.profile.precompileInsts(),
              base.profile.precompileInsts());
}

// --- golden equivalence: micro workloads -------------------------------

TEST(Remedies, MipsiThreadedGoldenMicro)
{
    expectGoldenPair(microBench(Lang::Mipsi, "a=b+c", 60));
    expectGoldenPair(microBench(Lang::Mipsi, "string-split", 40));
}

TEST(Remedies, JavaQuickGoldenMicro)
{
    expectGoldenPair(microBench(Lang::Java, "a=b+c", 60));
    expectGoldenPair(microBench(Lang::Java, "string-split", 40));
}

TEST(Remedies, TclBytecodeGoldenMicro)
{
    expectGoldenPair(microBench(Lang::Tcl, "a=b+c", 60));
    expectGoldenPair(microBench(Lang::Tcl, "if", 30));
}

// --- golden equivalence: one macro workload per remedy -----------------

TEST(Remedies, MipsiThreadedGoldenMacro)
{
    expectGoldenPair(macroSpec(Lang::Mipsi, "des"));
}

TEST(Remedies, JavaQuickGoldenMacro)
{
    expectGoldenPair(macroSpec(Lang::Java, "des"));
}

TEST(Remedies, TclBytecodeGoldenMacro)
{
    expectGoldenPair(macroSpec(Lang::Tcl, "des"));
}

// --- record/replay composition -----------------------------------------

void
roundTrip(BenchSpec spec)
{
    std::string dir =
        ::testing::TempDir() + "/interp_remedies_" + traceFileName(spec);
    TraceIo record;
    record.recordDir = dir;
    TraceIo replay;
    replay.replayDir = dir;
    Measurement live = runOrReplay(spec, record);
    Measurement tape = runOrReplay(spec, replay);
    EXPECT_EQ(live.commands, tape.commands);
    EXPECT_EQ(live.cycles, tape.cycles);
    EXPECT_EQ(live.profile.instructions(), tape.profile.instructions());
    EXPECT_EQ(live.profile.fetchDecodeInsts(),
              tape.profile.fetchDecodeInsts());
    EXPECT_EQ(live.profile.executeInsts(), tape.profile.executeInsts());
    EXPECT_EQ(live.profile.precompileInsts(),
              tape.profile.precompileInsts());
    const auto &lc = live.profile.perCommand();
    const auto &tc = tape.profile.perCommand();
    ASSERT_EQ(lc.size(), tc.size());
    for (size_t i = 0; i < lc.size(); ++i) {
        EXPECT_EQ(lc[i].retired, tc[i].retired) << "command " << i;
        EXPECT_EQ(lc[i].fetchDecode, tc[i].fetchDecode)
            << "command " << i;
        EXPECT_EQ(lc[i].execute, tc[i].execute) << "command " << i;
    }
}

TEST(Remedies, MipsiThreadedRecordReplay)
{
    roundTrip(microBench(Lang::MipsiThreaded, "a=b+c", 60));
}

TEST(Remedies, JavaQuickRecordReplay)
{
    roundTrip(microBench(Lang::JavaQuick, "string-split", 40));
}

TEST(Remedies, TclBytecodeRecordReplay)
{
    roundTrip(microBench(Lang::TclBytecode, "if", 30));
}

// --- mode metadata ------------------------------------------------------

TEST(Remedies, BaselineOfAndIsRemedy)
{
    EXPECT_EQ(baselineOf(Lang::MipsiThreaded), Lang::Mipsi);
    EXPECT_EQ(baselineOf(Lang::JavaQuick), Lang::Java);
    EXPECT_EQ(baselineOf(Lang::TclBytecode), Lang::Tcl);
    EXPECT_EQ(baselineOf(Lang::Perl), Lang::Perl);
    EXPECT_EQ(baselineOf(Lang::C), Lang::C);
    EXPECT_NE(rungOf(Lang::MipsiThreaded), 0);
    EXPECT_NE(rungOf(Lang::JavaQuick), 0);
    EXPECT_NE(rungOf(Lang::TclBytecode), 0);
    EXPECT_EQ(rungOf(Lang::Mipsi), 0);
    EXPECT_EQ(rungOf(Lang::C), 0);
}

TEST(Remedies, WithModesExpandsSuites)
{
    std::vector<BenchSpec> suite = macroSuite();
    std::vector<BenchSpec> base = withModes(suite, ModeSet::Baseline);
    ASSERT_EQ(base.size(), suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(base[i].lang, suite[i].lang);
        EXPECT_EQ(base[i].name, suite[i].name);
    }
    std::vector<BenchSpec> rems = withModes(suite, ModeSet::Remedies);
    for (const BenchSpec &spec : rems)
        EXPECT_NE(rungOf(spec.lang), 0) << spec.name;
    std::vector<BenchSpec> all = withModes(suite, ModeSet::All);
    EXPECT_EQ(all.size(), suite.size() + rems.size());
}

// --- code-mutation guards ----------------------------------------------

TEST(Remedies, JvmRequickeningIsFatal)
{
    trace::Execution exec;
    vfs::FileSystem fs;
    jvm::Vm vm(exec, fs, /*quick=*/true);
    auto module = minic::compileBytecode(
        "int main() { int x = 1; return x; }");
    vm.load(module);
    vm.debugQuicken(0, 0);
    ScopedFatalThrow contain;
    EXPECT_THROW(vm.debugQuicken(0, 0), FatalError)
        << "rewriting an already-quickened bytecode must fatal";
}

TEST(Remedies, TclInvalidatingExecutedScriptIsFatal)
{
    trace::Execution exec;
    vfs::FileSystem fs;
    tclish::TclInterp interp(exec, fs, /*bytecode=*/true);
    const std::string script = "set x 7\nputs $x\n";
    auto result = interp.run(script, 1'000'000);
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(fs.stdoutCapture(), "7\n");
    interp.debugInvalidate("never compiled"); // unknown script: no-op
    ScopedFatalThrow contain;
    EXPECT_THROW(interp.debugInvalidate(script), FatalError)
        << "invalidating an executed compiled script must fatal";
}

TEST(Remedies, MipsiThreadedStoreToTextIsFatal)
{
    using namespace interp::mips;
    // Discover the text base with a throwaway link, then build the
    // real program: store a word over its own text segment.
    uint32_t text_base;
    {
        AsmBuilder probe;
        probe.li(V0, SYS_EXIT);
        probe.syscall();
        text_base = probe.link().textBase;
    }
    AsmBuilder b;
    b.la(T0, text_base);
    Inst sw;
    sw.op = Op::Sw;
    sw.rs = T0;
    sw.rt = ZERO;
    sw.imm = 0;
    b.emit(sw);
    b.li(V0, SYS_EXIT);
    b.syscall();
    Image img = b.link();
    ASSERT_EQ(img.textBase, text_base);

    {
        // The switch core permits self-modifying code.
        trace::Execution exec;
        vfs::FileSystem fs;
        mipsi::Mipsi vm(exec, fs);
        vm.load(img);
        auto result = vm.run(1'000'000);
        EXPECT_TRUE(result.exited);
    }
    {
        // The threaded core must refuse: its predecoded entries would
        // go stale.
        trace::Execution exec;
        vfs::FileSystem fs;
        mipsi::ThreadedMipsi vm(exec, fs);
        vm.load(img);
        ScopedFatalThrow contain;
        EXPECT_THROW(vm.run(1'000'000), FatalError);
    }
}

TEST(Remedies, MipsiThreadedPcOutsideTextIsFatal)
{
    using namespace interp::mips;
    AsmBuilder b;
    b.la(T0, 0x7000'0000); // far outside the text segment
    Inst jr;
    jr.op = Op::Jr;
    jr.rs = T0;
    b.emit(jr);
    Inst nop; // delay slot
    nop.op = Op::Sll;
    b.emit(nop);
    b.li(V0, SYS_EXIT);
    b.syscall();
    trace::Execution exec;
    vfs::FileSystem fs;
    mipsi::ThreadedMipsi vm(exec, fs);
    vm.load(b.link());
    ScopedFatalThrow contain;
    EXPECT_THROW(vm.run(1'000'000), FatalError)
        << "jumping outside the predecoded text must fatal";
}

} // namespace
