/**
 * @file
 * Tier-up suite: golden equivalence for the tier-2 execution modes
 * (jvm superinstructions + field inline caches, tclish command fusion
 * + symbol caches), TierManager
 * promotion-ladder unit tests, and the shared-module safety
 * guarantees the tiering layer rests on — artifacts are immutable,
 * in-place quickening of a shared module is a contained fatal, and
 * one artifact can serve many threads at once.
 *
 * The tier-2 golden contract extends the §5 remedy contract: stdout,
 * command streams, retired and nativeLib attribution stay
 * byte-identical, fetch/decode may only shrink, and the *execute*
 * delta is confined to the §3.3 memory-model subset (CommandStats::
 * memModel) — an inline cache makes an access cheaper, it never
 * changes what the access does.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hh"
#include "jvm/tier2.hh"
#include "jvm/vm.hh"
#include "minic/compile.hh"
#include "support/logging.hh"
#include "tier/tier.hh"
#include "trace/execution.hh"
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

/** Counting-only run: the golden checks compare attribution, not
 *  simulated cycles, so skip the machine model for speed. */
Measurement
runCounting(const BenchSpec &spec)
{
    return run(spec, {}, nullptr, /*with_machine=*/false);
}

/**
 * The tier-2 golden property. Everything the program does is
 * identical; retired and nativeLib are byte-identical per command;
 * execute may differ *only* inside the memory-model subset (and only
 * downward — caches make accesses cheaper, never dearer); fetch/
 * decode may only shrink (superinstructions). When
 * @p expect_mem_reduction the workload is known to contain cacheable
 * sites, so total memModel must strictly drop.
 */
void
expectTier2Golden(const BenchSpec &base_spec, bool expect_mem_reduction,
                  uint64_t *base_mem = nullptr,
                  uint64_t *tier_mem = nullptr)
{
    BenchSpec t2_spec = base_spec;
    t2_spec.lang = ladderMode(base_spec.lang, 2);
    ASSERT_NE(t2_spec.lang, base_spec.lang) << "spec has no tier-2";

    Measurement base = runCounting(base_spec);
    Measurement t2 = runCounting(t2_spec);

    // Program-visible behaviour is identical.
    EXPECT_EQ(base.stdoutText, t2.stdoutText);
    EXPECT_TRUE(base.finished);
    EXPECT_TRUE(t2.finished);
    EXPECT_EQ(base.commands, t2.commands);
    EXPECT_EQ(base.commandNames, t2.commandNames);

    const auto &bc = base.profile.perCommand();
    const auto &tc = t2.profile.perCommand();
    ASSERT_EQ(bc.size(), tc.size());
    uint64_t base_fd = 0;
    uint64_t t2_fd = 0;
    for (size_t i = 0; i < bc.size(); ++i) {
        EXPECT_EQ(bc[i].retired, tc[i].retired) << "command " << i;
        EXPECT_EQ(bc[i].nativeLib, tc[i].nativeLib) << "command " << i;
        // Execute minus its memory-model subset is byte-identical:
        // the caches only ever touch the §3.3 access sequences.
        EXPECT_EQ(bc[i].execute - bc[i].memModel,
                  tc[i].execute - tc[i].memModel)
            << "command " << i;
        // No per-command bound on memModel itself: a miss-heavy
        // command pays its guard probes without compensating hits
        // (the suite-level totals below are the reduction claim).
        EXPECT_LE(tc[i].fetchDecode, bc[i].fetchDecode)
            << "command " << i;
        base_fd += bc[i].fetchDecode;
        t2_fd += tc[i].fetchDecode;
    }
    EXPECT_EQ(base.profile.executeInsts() -
                  base.profile.memModelInsts(),
              t2.profile.executeInsts() - t2.profile.memModelInsts());
    EXPECT_LE(t2_fd, base_fd);

    if (expect_mem_reduction) {
        EXPECT_LT(t2.profile.memModelInsts(),
                  base.profile.memModelInsts())
            << langName(base_spec.lang) << "/" << base_spec.name;
    }
    if (base_mem)
        *base_mem += base.profile.memModelInsts();
    if (tier_mem)
        *tier_mem += t2.profile.memModelInsts();
}

// --- golden equivalence: targeted micro workloads ----------------------

TEST(TierGolden, JavaTier2Micro)
{
    // Globals compile to statics, so a=b+c is dense in GetStatic/
    // PutStatic inline-cache sites *and* hot adjacent pairs.
    expectTier2Golden(microBench(Lang::Java, "a=b+c", 60), true);
    expectTier2Golden(microBench(Lang::Java, "string-split", 40), true);
}

TEST(TierGolden, TclTier2Micro)
{
    // "$sa$sb" / "$str" substitute at compiled-command sites, where
    // the symbol cache is live.
    expectTier2Golden(microBench(Lang::Tcl, "string-concat", 30), true);
    expectTier2Golden(microBench(Lang::Tcl, "string-split", 30), true);
}

TEST(TierGolden, TclTier2NoSitesIsANoop)
{
    // a=b+c reads $b/$c only inside brace-quoted expr arguments —
    // command handlers run with no cache cursor, so tier-2 must not
    // perturb the memory model at all there.
    BenchSpec spec = microBench(Lang::Tcl, "a=b+c", 30);
    Measurement base = runCounting(spec);
    BenchSpec t2 = spec;
    t2.lang = Lang::TclTier2;
    Measurement tier = runCounting(t2);
    EXPECT_EQ(base.profile.memModelInsts(),
              tier.profile.memModelInsts());
    EXPECT_EQ(base.stdoutText, tier.stdoutText);
}

// --- golden equivalence: every guest program ---------------------------

// One sweep over the whole Table 2 macro suite for every language
// with a tier-2 mode. Each program individually satisfies the golden
// contract (with memModel allowed to be merely equal — not every
// program exercises cacheable sites); per language, the suite total
// must strictly shrink, or tier-2 would be dead weight.
TEST(TierGolden, MacroSuiteSweep)
{
    uint64_t base_mem[2] = {0, 0};
    uint64_t tier_mem[2] = {0, 0};
    for (const BenchSpec &spec : macroSuite()) {
        if (spec.lang != Lang::Java && spec.lang != Lang::Tcl)
            continue;
        SCOPED_TRACE(std::string(langName(spec.lang)) + "/" +
                     spec.name);
        int l = spec.lang == Lang::Java ? 0 : 1;
        expectTier2Golden(spec, false, &base_mem[l], &tier_mem[l]);
    }
    EXPECT_LT(tier_mem[0], base_mem[0]) << "jvm suite memModel";
    EXPECT_LT(tier_mem[1], base_mem[1]) << "tcl suite memModel";
}

// The one-shot artifact build is charged to Precompile, exactly like
// the in-place quickening it replaces — never to execute.
TEST(TierGolden, JavaTier2ChargesPrecompile)
{
    BenchSpec spec = microBench(Lang::Java, "a=b+c", 60);
    Measurement base = runCounting(spec);
    BenchSpec t2 = spec;
    t2.lang = Lang::JavaTier2;
    Measurement tier = runCounting(t2);
    EXPECT_GT(tier.profile.precompileInsts(),
              base.profile.precompileInsts());
}

// --- TierManager: the promotion ladder ---------------------------------

tier::TierConfig
testConfig(uint64_t remedy_after, uint64_t tier2_after)
{
    tier::TierConfig cfg;
    cfg.enabled = true;
    cfg.remedyAfter = remedy_after;
    cfg.tier2After = tier2_after;
    cfg.commandsPerPoint = 1'000'000'000; // invocation-driven only
    cfg.decayEvery = 1'000'000;           // effectively off
    return cfg;
}

TEST(TierManager, TclClimbsTheLadder)
{
    tier::TierManager tm(testConfig(3, 5));

    for (int i = 0; i < 2; ++i) {
        tier::TierPlan p = tm.plan(Lang::Tcl, "des");
        EXPECT_EQ(p.lang, Lang::Tcl);
        EXPECT_EQ(p.level, 0);
        EXPECT_FALSE(p.promotedRemedy);
    }
    tier::TierPlan remedy = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(remedy.lang, Lang::TclBytecode);
    EXPECT_EQ(remedy.level, 1);
    EXPECT_TRUE(remedy.promotedRemedy);
    EXPECT_FALSE(remedy.promotedTier2);

    // The crossing fires exactly once.
    tier::TierPlan again = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(again.lang, Lang::TclBytecode);
    EXPECT_FALSE(again.promotedRemedy);

    tier::TierPlan t2 = tm.plan(Lang::Tcl, "des");
    EXPECT_EQ(t2.lang, Lang::TclTier2);
    EXPECT_EQ(t2.level, 2);
    EXPECT_TRUE(t2.promotedTier2);

    tier::TierManager::Snapshot s = tm.snapshot();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.promotedRemedy, 1u);
    EXPECT_EQ(s.promotedTier2, 1u);
}

TEST(TierManager, NoLadderForCOrExplicitRemedies)
{
    tier::TierManager tm(testConfig(1, 1));
    // C and Perl have no ladder; they never leave baseline.
    for (Lang lang : {Lang::C, Lang::Perl}) {
        for (int i = 0; i < 4; ++i) {
            tier::TierPlan p = tm.plan(lang, "des");
            EXPECT_EQ(p.lang, lang);
            EXPECT_EQ(p.level, 0);
            EXPECT_FALSE(p.promotedRemedy);
        }
    }
    // An explicitly-requested remedy mode is honored verbatim — the
    // client asked for it, tiering neither claims nor upgrades it.
    tier::TierPlan p = tm.plan(Lang::TclBytecode, "des");
    EXPECT_EQ(p.lang, Lang::TclBytecode);
    EXPECT_EQ(p.level, 0);
    EXPECT_EQ(tm.snapshot().promotedRemedy, 0u);
}

TEST(TierManager, DisabledIsATotalNoop)
{
    tier::TierConfig cfg = testConfig(1, 1);
    cfg.enabled = false;
    tier::TierManager tm(cfg);
    for (int i = 0; i < 8; ++i) {
        tier::TierPlan p = tm.plan(Lang::Java, "des");
        EXPECT_EQ(p.lang, Lang::Java);
        EXPECT_EQ(p.level, 0);
        EXPECT_FALSE(p.collectPairs);
    }
    EXPECT_EQ(tm.snapshot().entries, 0u);
}

TEST(TierManager, DecayDemandsSustainedHeat)
{
    // decayEvery=4, remedyAfter=4: the 4th invocation reaches 4
    // points and is immediately halved to 2, so the program must keep
    // arriving to cross — deterministically, on the 6th invocation.
    tier::TierConfig cfg = testConfig(4, 100);
    cfg.decayEvery = 4;
    tier::TierManager tm(cfg);
    for (int i = 0; i < 5; ++i) {
        tier::TierPlan p = tm.plan(Lang::Tcl, "hanoi");
        EXPECT_EQ(p.level, 0) << "invocation " << i + 1;
    }
    tier::TierPlan p = tm.plan(Lang::Tcl, "hanoi");
    EXPECT_EQ(p.level, 1);
    EXPECT_TRUE(p.promotedRemedy);
}

TEST(TierManager, CommandsFeedHotnessAsBackedgePoints)
{
    tier::TierConfig cfg = testConfig(5, 100);
    cfg.commandsPerPoint = 100;
    tier::TierManager tm(cfg);
    tier::TierPlan cold = tm.plan(Lang::Tcl, "tcllex");
    EXPECT_EQ(cold.level, 0);
    // 400 commands = 4 points; with the 2nd invocation point the
    // entry reaches the remedy threshold.
    tm.noteRun(Lang::Tcl, "tcllex", 400);
    tier::TierPlan hot = tm.plan(Lang::Tcl, "tcllex");
    EXPECT_EQ(hot.level, 1);
    EXPECT_TRUE(hot.promotedRemedy);
}

TEST(TierManager, ProgramsAreIndependent)
{
    tier::TierManager tm(testConfig(2, 100));
    tm.plan(Lang::Tcl, "des");
    tm.plan(Lang::Tcl, "des");
    tier::TierPlan other = tm.plan(Lang::Tcl, "hanoi");
    EXPECT_EQ(other.level, 0);
    EXPECT_EQ(tm.snapshot().entries, 2u);
    EXPECT_EQ(tm.snapshot().promotedRemedy, 1u);
}

// --- TierManager: jvm artifact builder gating --------------------------

TEST(TierManager, JavaSingleBuilderPerArtifact)
{
    jvm::Module module =
        minic::compileBytecode(microBench(Lang::Java, "a=b+c", 60).source,
                               "a=b+c");
    tier::TierManager tm(testConfig(1, 4));

    // First crossing: this request is the designated remedy builder —
    // it gets the publish hook and no artifact (it builds in-run).
    tier::TierPlan builder = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(builder.lang, Lang::JavaQuick);
    EXPECT_TRUE(builder.promotedRemedy);
    EXPECT_FALSE(builder.artifact);
    ASSERT_TRUE(builder.publish);

    // While the build is outstanding, concurrent requests fall back a
    // tier instead of duplicating the build — and a baseline jvm run
    // doubles as a pair profiler.
    tier::TierPlan waiting = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(waiting.lang, Lang::Java);
    EXPECT_EQ(waiting.level, 0);
    EXPECT_TRUE(waiting.collectPairs);
    EXPECT_FALSE(waiting.publish);

    // Publish lands: the next request picks the artifact up.
    jvm::PairProfile none;
    jvm::TierOptions quick_only;
    quick_only.fuse = false;
    quick_only.inlineCache = false;
    builder.publish(
        jvm::buildTierArtifact(nullptr, module, none, quick_only));
    tier::TierPlan served = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(served.lang, Lang::JavaQuick);
    ASSERT_TRUE(served.artifact);
    EXPECT_GT(served.artifact->quickened, 0u);
    EXPECT_EQ(tm.snapshot().artifactsPublished, 1u);

    // Tier-2 crossing repeats the dance, with the entry's merged pair
    // profile snapshotted for the builder.
    jvm::PairProfile collected;
    collected.counts[7] = 123;
    tm.noteRun(Lang::Java, "micro", 0, &collected);
    tier::TierPlan t2b = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(t2b.lang, Lang::JavaTier2);
    EXPECT_TRUE(t2b.promotedTier2);
    ASSERT_TRUE(t2b.pairs);
    EXPECT_EQ(t2b.pairs->counts[7], 123u);
    ASSERT_TRUE(t2b.publish);

    tier::TierPlan t2wait = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(t2wait.lang, Lang::JavaQuick);
    EXPECT_TRUE(t2wait.artifact);

    t2b.publish(jvm::buildTierArtifact(nullptr, module, *t2b.pairs));
    tier::TierPlan t2served = tm.plan(Lang::Java, "micro");
    EXPECT_EQ(t2served.lang, Lang::JavaTier2);
    EXPECT_TRUE(t2served.artifact);
    EXPECT_EQ(tm.snapshot().artifactsPublished, 2u);
}

// --- jvm artifacts: determinism, immutability, sharing -----------------

jvm::PairProfile
profilePairs(const jvm::Module &module)
{
    trace::Execution exec;
    vfs::FileSystem fs;
    jvm::PairProfile pairs;
    jvm::Vm vm(exec, fs);
    vm.setPairSink(&pairs);
    vm.loadShared(std::make_shared<const jvm::Module>(module));
    vm.run();
    return pairs;
}

TEST(TierArtifact, BuildIsDeterministic)
{
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 60).source, "a=b+c");
    jvm::PairProfile pairs = profilePairs(module);
    auto a = jvm::buildTierArtifact(nullptr, module, pairs);
    auto b = jvm::buildTierArtifact(nullptr, module, pairs);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->fusedPairs, b->fusedPairs);
    EXPECT_EQ(a->quickened, b->quickened);
    EXPECT_EQ(a->fuseSites, b->fuseSites);
    EXPECT_EQ(a->icSites, b->icSites);
    EXPECT_EQ(a->fuse, b->fuse);
    EXPECT_EQ(a->ic, b->ic);
    EXPECT_GT(a->quickened, 0u);
    EXPECT_GT(a->fuseSites, 0u);
    EXPECT_GT(a->icSites, 0u);
}

TEST(TierArtifact, SharedModuleInPlaceQuickenIsFatal)
{
    // The bug this PR fixes: jvm-quick over a *shared* catalog module
    // must never rewrite it in place. Reaching the quickening pass on
    // a shared module is a contained fatal, not a silent mutation.
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 10).source, "a=b+c");
    trace::Execution exec;
    vfs::FileSystem fs;
    jvm::Vm vm(exec, fs, /*quick=*/true);
    vm.loadShared(std::make_shared<const jvm::Module>(module));
    ScopedFatalThrow guard;
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(TierArtifact, PoisonedCachesFallBackContained)
{
    // Force every inline-cache site to miss: behaviour and non-memory
    // attribution must be unchanged — the fallback is the full
    // resolution sequence, charged to the same memory-model subset.
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 40).source, "a=b+c");
    auto shared = std::make_shared<const jvm::Module>(module);
    jvm::PairProfile pairs = profilePairs(module);
    auto artifact = jvm::buildTierArtifact(nullptr, module, pairs);

    auto measure = [&](bool poison) {
        struct Out
        {
            trace::Profile profile;
            jvm::Vm::RunResult r;
        };
        auto out = std::make_unique<Out>();
        trace::Execution exec;
        exec.addSink(&out->profile);
        vfs::FileSystem fs;
        jvm::Vm vm(exec, fs, /*quick=*/true);
        vm.useArtifact(artifact);
        if (poison)
            vm.debugPoisonIc();
        out->r = vm.run();
        exec.flush();
        return out;
    };
    auto hit = measure(false);
    auto miss = measure(true);

    EXPECT_TRUE(hit->r.exited);
    EXPECT_TRUE(miss->r.exited);
    EXPECT_EQ(hit->r.exitCode, miss->r.exitCode);
    EXPECT_EQ(hit->r.commands, miss->r.commands);
    EXPECT_EQ(hit->profile.executeInsts() -
                  hit->profile.memModelInsts(),
              miss->profile.executeInsts() -
                  miss->profile.memModelInsts());
    EXPECT_EQ(hit->profile.fetchDecodeInsts(),
              miss->profile.fetchDecodeInsts());
    // Misses pay the full §3.3 sequence; hits are what tier-2 is for.
    EXPECT_LT(hit->profile.memModelInsts(),
              miss->profile.memModelInsts());
}

TEST(TierArtifact, OneArtifactServesManyThreads)
{
    // The concurrency regression for the shared-mutable-program bug:
    // many VMs execute one published artifact at once. Every thread
    // must finish with identical results and identical attribution —
    // and under the san preset, with no object-lifetime violations.
    jvm::Module module = minic::compileBytecode(
        microBench(Lang::Java, "a=b+c", 40).source, "a=b+c");
    jvm::PairProfile pairs = profilePairs(module);
    auto artifact = jvm::buildTierArtifact(nullptr, module, pairs);

    constexpr int kThreads = 4;
    struct Out
    {
        uint64_t commands = 0;
        int exitCode = -1;
        uint64_t execute = 0;
        uint64_t memModel = 0;
    };
    std::vector<Out> outs(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            trace::Profile profile;
            trace::Execution exec;
            exec.addSink(&profile);
            vfs::FileSystem fs;
            jvm::Vm vm(exec, fs, /*quick=*/true);
            vm.useArtifact(artifact);
            jvm::Vm::RunResult r = vm.run();
            exec.flush();
            outs[t].commands = r.commands;
            outs[t].exitCode = r.exitCode;
            outs[t].execute = profile.executeInsts();
            outs[t].memModel = profile.memModelInsts();
        });
    for (std::thread &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(outs[t].commands, outs[0].commands) << "thread " << t;
        EXPECT_EQ(outs[t].exitCode, outs[0].exitCode) << "thread " << t;
        EXPECT_EQ(outs[t].execute, outs[0].execute) << "thread " << t;
        EXPECT_EQ(outs[t].memModel, outs[0].memModel)
            << "thread " << t;
    }
}

} // namespace
