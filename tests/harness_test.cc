/**
 * @file
 * Tests for the benchmark harness: workload generators, the runner,
 * the micro/macro suites, and cross-mode output agreement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/ladder.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"

namespace {

using namespace interp;
using namespace interp::harness;

// --- workload generators -----------------------------------------------

TEST(Workloads, Deterministic)
{
    EXPECT_EQ(compressInput(3000), compressInput(3000));
    EXPECT_EQ(txt2htmlInput(50), txt2htmlInput(50));
    EXPECT_EQ(plexusInput(10), plexusInput(10));
    EXPECT_EQ(cc1Input(20), cc1Input(20));
}

TEST(Workloads, SizesScale)
{
    EXPECT_GT(compressInput(8000).size(), 7900u);
    EXPECT_LT(compressInput(1000).size(), 1200u);
    EXPECT_GT(weblintInput(200).size(), weblintInput(20).size());
}

TEST(Workloads, ReadFileIsExactly4K)
{
    EXPECT_EQ(readFileInput().size(), 4096u);
}

TEST(Workloads, InstallPutsAllFiles)
{
    vfs::FileSystem fs;
    installAllInputs(fs);
    for (const char *name :
         {"compress.in", "cc1.in", "javac.in", "txt2html.in",
          "weblint.in", "a2ps.in", "requests.in", "tcllex.in",
          "tcltags.in", "read4k.in"})
        EXPECT_TRUE(fs.exists(name)) << name;
}

TEST(Workloads, PlexusInputIsHttpShaped)
{
    std::string log = plexusInput(5);
    EXPECT_NE(log.find("GET "), std::string::npos);
    EXPECT_NE(log.find("HTTP/1.0"), std::string::npos);
    EXPECT_NE(log.find("User-Agent: "), std::string::npos);
}

// --- runner ------------------------------------------------------------

TEST(Runner, LangNames)
{
    EXPECT_STREQ(langName(Lang::C), "C");
    EXPECT_STREQ(langName(Lang::Mipsi), "MIPSI");
    EXPECT_STREQ(langName(Lang::Java), "Java");
    EXPECT_STREQ(langName(Lang::Perl), "Perl");
    EXPECT_STREQ(langName(Lang::Tcl), "Tcl");
}

TEST(Runner, ModeTableNamesEveryModeAndNothingElse)
{
    const char *names[] = {"C",          "MIPSI",        "Java",
                           "Perl",       "Tcl",          "MIPSI-threaded",
                           "Java-quick", "Tcl-bytecode", "Java-tier2",
                           "Tcl-tier2",  "MIPSI-jit"};
    ASSERT_EQ(kNumModes, 11);
    for (int i = 0; i < kNumModes; ++i)
        EXPECT_STREQ(langName((Lang)i), names[i]);
    EXPECT_STREQ(langName((Lang)kNumModes), "?");
    EXPECT_STREQ(langName((Lang)0xff), "?");
    EXPECT_EQ(baselineOf((Lang)0xff), (Lang)0xff);
}

TEST(Runner, LadderTableFoldsMissingRungs)
{
    EXPECT_EQ(ladderMode(Lang::Mipsi, 2), Lang::MipsiThreaded);
    EXPECT_EQ(ladderMode(Lang::Perl, 1), Lang::Perl);
    EXPECT_EQ(ladderMode(Lang::Perl, 3), Lang::Perl);
    EXPECT_EQ(ladderMode(Lang::Java, 3), Lang::JavaTier2);
    EXPECT_EQ(ladderMode(Lang::Tcl, 3), Lang::TclTier2);
    EXPECT_EQ(ladderMode(Lang::C, 3), Lang::C);
    EXPECT_EQ(ladderMode(Lang::TclTier2, 1), Lang::TclTier2);
    // Every higher mode sits on its own baseline's ladder.
    for (const ModeInfo &m : kModeTable) {
        bool found = m.rung == 0;
        for (int r = 1; r < 4; ++r)
            found |= ladderMode(m.baseline, r) == m.lang;
        EXPECT_TRUE(found) << m.name;
    }
}

TEST(Runner, MacroSuiteShape)
{
    auto suite = macroSuite();
    ASSERT_EQ(suite.size(), 37u)
        << "1 C + 11 MIPSI + 9 Java + 8 Perl + 8 Tcl";
    int des_count = 0;
    for (const auto &spec : suite) {
        EXPECT_FALSE(spec.source.empty()) << spec.name;
        if (spec.name == "des")
            ++des_count;
    }
    EXPECT_EQ(des_count, 5) << "des is the common reference point";

    // The legacy Table 2 rows keep their historical positions: the
    // registry's order keys preserve the pre-registry suite prefix.
    EXPECT_EQ(suite[0].name, "des");
    EXPECT_EQ(suite[0].lang, Lang::C);
    EXPECT_EQ(suite[1].name, "des");
    EXPECT_EQ(suite[1].lang, Lang::Mipsi);
    EXPECT_EQ(suite[2].name, "compress");
}

TEST(Runner, MeasurementFieldsPopulated)
{
    BenchSpec spec;
    spec.lang = Lang::Perl;
    spec.name = "tiny";
    spec.source = "$x = 2 + 3; print \"$x\";";
    Measurement m = run(spec);
    EXPECT_TRUE(m.finished);
    EXPECT_EQ(m.stdoutText, "5");
    EXPECT_GT(m.commands, 0u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.profile.instructions(), 0u);
    EXPECT_GT(m.breakdown.busyPct, 0.0);
    EXPECT_FALSE(m.commandNames.empty());
    EXPECT_GT(m.programBytes, 0u);
}

TEST(Runner, BudgetStopsRunaway)
{
    BenchSpec spec;
    spec.lang = Lang::Tcl;
    spec.name = "forever";
    spec.source = "while {1} { set x 1 }";
    spec.maxCommands = 2000;
    Measurement m = run(spec, {}, nullptr, false);
    EXPECT_FALSE(m.finished);
    EXPECT_GE(m.commands, 2000u);
    EXPECT_LT(m.commands, 2100u);
}

TEST(Runner, MachineConfigOverride)
{
    BenchSpec spec = microBench(Lang::Tcl, "a=b+c", 60);
    Measurement base = run(spec);
    sim::MachineConfig big;
    big.icache.sizeBytes = 64 * 1024;
    big.icache.assoc = 4;
    Measurement wide = run(spec, {}, &big);
    EXPECT_LT(wide.cycles, base.cycles)
        << "a big I$ must help a Tcl workload";
}

// --- micro suite -------------------------------------------------------

TEST(Micro, AllOpsRunInAllLanguages)
{
    for (const std::string &op : microOps()) {
        for (Lang lang : {Lang::C, Lang::Mipsi, Lang::Java, Lang::Perl,
                          Lang::Tcl}) {
            BenchSpec spec = microBench(lang, op, 3);
            Measurement m = run(spec, {}, nullptr, false);
            EXPECT_TRUE(m.finished)
                << op << " in " << langName(lang);
            EXPECT_GT(m.commands, 0u) << op << " " << langName(lang);
        }
    }
}

TEST(Micro, ComputeSlowdownOrdering)
{
    // Table 1's compute rows: Tcl >> Perl > MIPSI-or-Java, all >> 1.
    auto per_iter = [](Lang lang) {
        int iters = lang == Lang::Tcl ? 50 : 300;
        Measurement m = run(microBench(lang, "a=b+c", iters));
        return (double)m.cycles / iters;
    };
    double c = per_iter(Lang::C);
    double mipsi = per_iter(Lang::Mipsi);
    double java = per_iter(Lang::Java);
    double perl = per_iter(Lang::Perl);
    double tcl = per_iter(Lang::Tcl);
    EXPECT_GT(mipsi / c, 20.0);
    EXPECT_GT(perl / c, mipsi / c) << "Perl above MIPSI (paper: 770 vs "
                                      "260)";
    EXPECT_GT(tcl / c, 3.0 * (perl / c))
        << "Tcl is the extreme (paper: 6500 vs Perl's 770)";
    EXPECT_GT(java / c, 5.0);
    EXPECT_LT(java / c, mipsi / c) << "Java below MIPSI (paper: 96 vs "
                                      "260)";
}

TEST(Micro, StringOpsInvertTheOrdering)
{
    // Table 1's headline: Perl/Tcl string facilities live in native
    // runtime libraries, so their slowdowns drop below MIPSI/Java.
    auto slowdown = [](Lang lang, const char *op) {
        int iters = lang == Lang::Tcl ? 40 : (lang == Lang::C ? 600
                                                              : 150);
        Measurement m = run(microBench(lang, op, iters));
        return (double)m.cycles / iters;
    };
    double c = slowdown(Lang::C, "string-concat");
    double mipsi = slowdown(Lang::Mipsi, "string-concat") / c;
    double perl = slowdown(Lang::Perl, "string-concat") / c;
    double tcl = slowdown(Lang::Tcl, "string-concat") / c;
    EXPECT_LT(perl, mipsi) << "Perl concat beats MIPSI (19 vs 186)";
    EXPECT_LT(tcl, mipsi) << "Tcl concat beats MIPSI (78 vs 186)";
}

TEST(Micro, ReadIsBarelySlowed)
{
    // Table 1's read row: computation happens in precompiled (kernel)
    // code, so every interpreter's slowdown is small.
    auto per_iter = [](Lang lang) {
        int iters = 25;
        Measurement m = run(microBench(lang, "read", iters));
        return (double)m.cycles / iters;
    };
    double c = per_iter(Lang::C);
    for (Lang lang : {Lang::Mipsi, Lang::Java, Lang::Perl, Lang::Tcl}) {
        double ratio = per_iter(lang) / c;
        EXPECT_LT(ratio, 25.0) << langName(lang);
    }
    EXPECT_GT(per_iter(Lang::Tcl) / c, per_iter(Lang::Java) / c)
        << "Tcl still pays the most for I/O (paper: 15 vs 4.6)";
}

// --- the tier ladder's golden contract ---------------------------------

/** Counting-only run of @p name in @p mode (the contract compares
 *  attribution, not simulated cycles). */
Measurement
runCounting(const std::string &name, Lang mode)
{
    for (BenchSpec spec : macroSuite())
        if (spec.lang == baselineOf(mode) && spec.name == name) {
            spec.lang = mode;
            return run(spec, {}, nullptr, /*with_machine=*/false);
        }
    ADD_FAILURE() << "no macro benchmark " << name;
    return {};
}

/** Charge @p count more instructions to @p m's profile. */
void
addInsts(Measurement &m, trace::Category cat, trace::CommandId command,
         uint64_t count, bool mem_model = false, bool native = false)
{
    trace::Bundle b;
    b.cat = cat;
    b.command = command;
    b.count = (uint32_t)count;
    b.memModel = mem_model;
    b.native = native;
    m.profile.onBundle(b);
}

uint64_t
fdPlusMm(const Measurement &m)
{
    return m.profile.fetchDecodeInsts() + m.profile.memModelInsts();
}

using Clauses = std::vector<std::string>;

TEST(LadderContract, EveryMeasuredRungKeepsIt)
{
    // One program on every distinct rung of every ladder, including
    // Tcl spin's tier 2 and jit, whose memory-model total sits a few
    // dead IC guard probes above the baseline's.
    for (Lang base : {Lang::Mipsi, Lang::Java, Lang::Perl, Lang::Tcl}) {
        Measurement b = runCounting("spin", base);
        for (int r = 1; r < 4; ++r) {
            Lang mode = ladderMode(base, r);
            if (mode == ladderMode(base, r - 1))
                continue; // a folded rung
            EXPECT_EQ(checkLadderContract(b, runCounting("spin", mode)),
                      Clauses{})
                << langName(mode);
        }
    }
}

TEST(LadderContract, EachDoctoredClauseIsNamed)
{
    Measurement base = runCounting("spin", Lang::Tcl);
    Measurement rung1 = runCounting("spin", Lang::TclBytecode);
    Measurement rung2 = runCounting("spin", Lang::TclTier2);
    ASSERT_EQ(checkLadderContract(base, rung1), Clauses{});
    ASSERT_EQ(checkLadderContract(base, rung2), Clauses{});
    const auto &per = rung2.profile.perCommand();
    trace::CommandId cmd = 0;
    while (cmd < per.size() && per[cmd].retired == 0)
        ++cmd;
    ASSERT_LT(cmd, per.size());

    Measurement m = rung2;
    m.stdoutText += "!";
    EXPECT_EQ(checkLadderContract(base, m), Clauses{"stdout"});

    m = rung2;
    ++m.commands;
    EXPECT_EQ(checkLadderContract(base, m), Clauses{"commands"});

    m = rung2;
    m.commandNames.back() += "'";
    EXPECT_EQ(checkLadderContract(base, m), Clauses{"command names"});

    m = rung2;
    m.profile.onCommand(cmd);
    EXPECT_EQ(checkLadderContract(base, m), Clauses{"retired"});

    // A native memory-model instruction keeps execute - memModel.
    m = rung2;
    addInsts(m, trace::Category::Execute, cmd, 1, true, true);
    EXPECT_EQ(checkLadderContract(base, m), Clauses{"nativeLib"});

    // Rung 1 must keep execute itself; rungs 2-3 only execute minus
    // its memory-model slice.
    m = rung1;
    addInsts(m, trace::Category::Execute, cmd, 1);
    EXPECT_EQ(checkLadderContract(base, m), Clauses{"execute"});
    m = rung2;
    addInsts(m, trace::Category::Execute, cmd, 1, true);
    EXPECT_EQ(checkLadderContract(base, m), Clauses{});
    addInsts(m, trace::Category::Execute, cmd, 1);
    EXPECT_EQ(checkLadderContract(base, m), Clauses{"execute-memModel"});

    // Totals, charged outside any command so no per-command clause
    // moves.
    m = rung2;
    addInsts(m, trace::Category::FetchDecode, trace::kNoCommand,
             base.profile.fetchDecodeInsts() -
                 rung2.profile.fetchDecodeInsts() + 1);
    Clauses broken = checkLadderContract(base, m);
    EXPECT_NE(std::find(broken.begin(), broken.end(), "fetch/decode"),
              broken.end());

    m = rung2;
    addInsts(m, trace::Category::Execute, trace::kNoCommand,
             fdPlusMm(base) - fdPlusMm(rung2) + 1, true);
    EXPECT_EQ(checkLadderContract(base, m),
              Clauses{"fetch/decode+memModel"});
}

} // namespace
