/**
 * @file
 * Measures the whole tier ladder on the macro suite: each program's
 * faithful baseline against the mode harness::kLadderTable gives for
 * rungs 1 (§5 remedy), 2 (tier 2) and 3 (jit), the modes interpd's
 * tier-up promotes hot programs to. Each distinct mode runs once; a
 * folded rung repeats the row of the mode it folds onto, and a
 * program whose language has no ladder (C, Perl) shows its baseline
 * alone. Every rung is held to harness::checkLadderContract: a broken
 * clause is named on its row and makes the driver exit nonzero. Jit
 * rows add the stencil region's footprint (Segment::JitCode, which
 * the §4 machine simulates like any interpreter routine). Every row
 * also shows the host milliseconds of the baseline's run and of the
 * rung's: a rung that cuts simulated instructions but not host time
 * is a candidate for deletion.
 *
 * `--json [file]` (default BENCH_remedies.json) writes one
 * whole-ladder row per program (schema in EXPERIMENTS.md); host
 * times stay out of it so the file is deterministic. `--jobs`,
 * `--record`/`--replay` and `--programs=<glob[,glob...]>` behave as
 * in the other drivers; output is byte-identical at any job count.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness/ladder.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "support/strutil.hh"
#include "trace/code_registry.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::harness;

namespace {

/** Instructions and distinct 32-byte lines fetched from the emitted
 *  stencil region (Segment::JitCode) — the Fig 3-revisited numbers.
 *  Lines are marked in a bitmap rather than a hash set so the sink
 *  adds little to the jit rows' host time. */
class JitRegionSink : public trace::Sink
{
  public:
    void
    onBundle(const trace::Bundle &b) override
    {
        if (b.pc < lo_ || b.pc >= hi_)
            return;
        insts_ += b.count;
        uint32_t first = (b.pc - lo_) >> 5;
        uint32_t last = (b.pc - lo_ + 4 * b.count - 1) >> 5;
        for (uint32_t line = first; line <= last; ++line) {
            uint64_t bit = 1ull << (line & 63);
            uint64_t &word = seen_[line >> 6];
            lines_ += !(word & bit);
            word |= bit;
        }
    }

    uint64_t insts() const { return insts_; }
    size_t lines() const { return lines_; }

  private:
    static constexpr uint32_t kSegSpan = 0x04000000;
    uint32_t lo_ =
        trace::CodeRegistry::segmentBase(trace::Segment::JitCode);
    uint32_t hi_ = lo_ + kSegSpan;
    uint64_t insts_ = 0;
    size_t lines_ = 0;
    /** One bit per line of the segment, plus slack for a bundle that
     *  runs past its end. */
    std::vector<uint64_t> seen_ = std::vector<uint64_t>((kSegSpan >> 11) + 2);
};

/** One program's ladder: the suite index of the run behind each
 *  rung (0 is the baseline; a folded rung shares its run). */
struct Ladder
{
    size_t at[4];
};

double
perCommand(uint64_t insts, uint64_t commands)
{
    return commands ? (double)insts / (double)commands : 0.0;
}

/** Percentage by which @p after undercuts @p before. */
double
reductionPct(double before, double after)
{
    return before > 0 ? 100.0 * (1.0 - after / before) : 0.0;
}

double
instsPerCmdReductionPct(const Measurement &base, const Measurement &m)
{
    return reductionPct(
        perCommand(base.profile.userInstructions(), base.commands),
        perCommand(m.profile.userInstructions(), m.commands));
}

uint64_t
fdPlusMm(const Measurement &m)
{
    return m.profile.fetchDecodeInsts() + m.profile.memModelInsts();
}

/** One mode's JSON object; @p base is null for the baseline itself. */
std::string
modeJson(const Measurement &m, const Measurement *base,
         const JitRegionSink *region,
         const std::vector<std::string> &broken)
{
    const trace::Profile &p = m.profile;
    std::string out = format(
        "{\"lang\": \"%s\", \"rung\": %d, \"commands\": %llu, "
        "\"fd_insts\": %llu, \"fd_per_cmd\": %.3f, \"exec_per_cmd\": "
        "%.3f, \"memmodel_insts\": %llu, \"insts\": %llu, \"cycles\": "
        "%llu, \"precompile_insts\": %llu, \"imiss_per_100\": %.3f",
        jsonEscape(langName(m.lang)).c_str(), rungOf(m.lang),
        (unsigned long long)m.commands,
        (unsigned long long)p.fetchDecodeInsts(),
        p.fetchDecodePerCommand(), p.executePerCommand(),
        (unsigned long long)p.memModelInsts(),
        (unsigned long long)p.userInstructions(),
        (unsigned long long)m.cycles,
        (unsigned long long)p.precompileInsts(), m.imissPer100);
    if (region)
        out += format(", \"jit_region_insts\": %llu, "
                      "\"jit_region_lines\": %zu",
                      (unsigned long long)region->insts(),
                      region->lines());
    if (base) {
        out += format(
            ", \"insts_per_cmd_reduction_pct\": %.2f, "
            "\"memmodel_reduction_pct\": %.2f, \"broken\": [",
            instsPerCmdReductionPct(*base, m),
            reductionPct((double)base->profile.memModelInsts(),
                         (double)p.memModelInsts()));
        for (size_t i = 0; i < broken.size(); ++i)
            out += format("%s\"%s\"", i ? ", " : "",
                          jsonEscape(broken[i]).c_str());
        out += "]";
    }
    return out + "}";
}

/** The value of `--json [file]` / `--json=file`; "" when absent. */
std::string
parseJsonPath(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            return i + 1 < argc && argv[i + 1][0] != '-'
                       ? argv[i + 1]
                       : "BENCH_remedies.json";
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return argv[i] + 7;
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    // The JSON names the command that wrote it, before the option
    // parsers consume their arguments.
    std::string command = argv[0];
    command = command.substr(command.find_last_of('/') + 1);
    for (int i = 1; i < argc; ++i)
        command += std::string(" ") + argv[i];
    int jobs = parseJobs(argc, argv);
    TraceIo tio = parseTraceDirs(argc, argv);
    std::string json_path = parseJsonPath(argc, argv);

    // One flat suite holding each distinct mode of each ladder once.
    std::vector<BenchSpec> specs;
    std::vector<Ladder> ladders;
    for (BenchSpec &spec : workloads::filterPrograms(
             macroSuite(), workloads::parseProgramsArg(argc, argv))) {
        Lang base = spec.lang;
        Ladder ladder{};
        for (int r = 0; r < 4; ++r) {
            Lang mode = ladderMode(base, r);
            if (r > 0 && mode == ladderMode(base, r - 1)) {
                ladder.at[r] = ladder.at[r - 1]; // a folded rung
                continue;
            }
            ladder.at[r] = specs.size();
            specs.push_back(spec);
            specs.back().lang = mode;
        }
        ladders.push_back(ladder);
    }

    // The jit runs carry a region sink so the emitted segment's
    // footprint rides the same pass as the Table 3 machine.
    std::vector<std::unique_ptr<JitRegionSink>> regions(specs.size());
    std::vector<double> hostMs(specs.size(), 0.0);
    std::vector<Measurement> results = runSuiteWith(
        specs, jobs, [&](const BenchSpec &spec, size_t i) {
            std::vector<trace::Sink *> sinks;
            if (rungOf(spec.lang) == 3) {
                regions[i] = std::make_unique<JitRegionSink>();
                sinks.push_back(regions[i].get());
            }
            auto t0 = std::chrono::steady_clock::now();
            Measurement m = runOrReplay(spec, tio, sinks);
            hostMs[i] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            return m;
        });

    std::printf("The tier ladder: each rung against its faithful "
                "baseline on the real interpreters\n\n");
    std::printf("%-14s %-10s %4s %9s | %7s %7s | %7s %7s | %9s %7s | "
                "%9s %5s %5s | %8s %8s\n",
                "Mode", "Benchmark", "Rung", "VirtCmds", "fd-base",
                "fd-rung", "mm-base", "mm-rung", "(pre x1k)", "i/cmd-%",
                "jit-insts", "lines", "im%", "ms-base", "ms-rung");
    std::printf("---------------------------------------------------------"
                "-------------------------------------------------------"
                "--------------------\n");

    std::string json = format("{\n  \"schema\": \"interp-ladder-v1\",\n"
                              "  \"command\": \"%s\",\n"
                              "  \"programs\": [\n",
                              jsonEscape(command).c_str());
    bool first_program = true;
    int bad = 0;
    int beats[4] = {0, 0, 0, 0};   // rung r undercuts rung r-1
    int distinct[4] = {0, 0, 0, 0}; // rung r differs from rung r-1
    Lang last = Lang::C;

    for (const Ladder &ladder : ladders) {
        const Measurement &base = results[ladder.at[0]];
        if (!first_program && base.lang != last)
            std::printf("\n");
        last = base.lang;

        const Measurement *failed = nullptr;
        for (size_t at : ladder.at)
            if (results[at].failed && !failed)
                failed = &results[at];
        if (failed) {
            std::printf("%-14s %-10s failed: %s\n", langName(failed->lang),
                        failed->name.c_str(), failed->error.c_str());
            ++bad;
            continue;
        }

        std::string modes = "      " + modeJson(base, nullptr, nullptr, {});
        // A program without a ladder prints its baseline as rung 0.
        bool has_ladder = ladder.at[1] != ladder.at[0];
        for (int r = has_ladder ? 1 : 0; r < (has_ladder ? 4 : 1); ++r) {
            const Measurement &m = results[ladder.at[r]];
            const JitRegionSink *region = regions[ladder.at[r]].get();
            std::vector<std::string> broken;
            if (r > 0) {
                broken = checkLadderContract(base, m);
                if (!broken.empty())
                    ++bad;
                if (ladder.at[r] != ladder.at[r - 1]) {
                    ++distinct[r];
                    if (fdPlusMm(m) < fdPlusMm(results[ladder.at[r - 1]]))
                        ++beats[r];
                    modes +=
                        ",\n      " + modeJson(m, &base, region, broken);
                }
            }

            std::printf(
                "%-14s %-10s %4d %9s | %7.1f %7.1f | %7.2f %7.2f | "
                "%9.1f %6.1f%% | %9s %5s %5.2f | %8.1f %8.1f%s%s%s\n",
                langName(m.lang), m.name.c_str(), r,
                sigThousands((double)m.commands).c_str(),
                base.profile.fetchDecodePerCommand(),
                m.profile.fetchDecodePerCommand(),
                perCommand(base.profile.memModelInsts(), base.commands),
                perCommand(m.profile.memModelInsts(), m.commands),
                m.profile.precompileInsts() / 1000.0,
                instsPerCmdReductionPct(base, m),
                region ? std::to_string(region->insts()).c_str() : "-",
                region ? std::to_string(region->lines()).c_str() : "-",
                m.imissPer100, hostMs[ladder.at[0]], hostMs[ladder.at[r]],
                broken.empty() ? "" : "  [BROKEN: ",
                join(broken, ", ").c_str(), broken.empty() ? "" : "]");
        }

        json += format("%s    {\"bench\": \"%s\", \"baseline\": \"%s\", "
                       "\"ladder\": [\"%s\", \"%s\", \"%s\"],\n"
                       "     \"modes\": [\n%s]}",
                       first_program ? "" : ",\n",
                       jsonEscape(base.name).c_str(),
                       jsonEscape(langName(base.lang)).c_str(),
                       langName(results[ladder.at[1]].lang),
                       langName(results[ladder.at[2]].lang),
                       langName(results[ladder.at[3]].lang),
                       modes.c_str());
        first_program = false;
    }
    json += "\n  ]\n}\n";

    std::printf(
        "\nReading the table: fd and mm are per-command fetch/decode and "
        "memory-model\ninstructions, (pre) the one-shot translation "
        "charged to Precompile, jit-insts\nand lines the stencil "
        "region's retired instructions and distinct 32-byte\ni-cache "
        "lines, im%% the simulated i-miss rate per 100 instructions, "
        "ms the host\nmilliseconds of the baseline's run and the rung's "
        "(wall time, machine model\nincluded; noisy at --jobs > 1).\n\n");
    for (int r = 2; r < 4; ++r)
        std::printf("rung %d undercuts rung %d on fetch/decode+memModel "
                    "in %d/%d programs\n",
                    r, r - 1, beats[r], distinct[r]);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    return bad == 0 ? 0 : 1;
}
