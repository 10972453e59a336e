/**
 * @file
 * Regenerates Table 1: microbenchmark slowdowns of each interpreter
 * relative to the equivalent operation compiled (direct mode).
 *
 * Slowdown = (interpreted cycles per iteration) / (compiled cycles
 * per iteration), with cycles from the Table 3 machine model. The
 * baseline compiler is this repository's non-optimizing MiniC, so
 * absolute slowdowns run lower than the paper's (whose baseline was
 * an optimizing C compiler); the ordering and the orders of magnitude
 * are the reproduction target.
 *
 * `--record <dir>` / `--replay <dir>` capture and replay the whole
 * micro cross product as binary traces (see record_replay.hh).
 * `--modes=baseline|remedies|all` swaps in / adds the §5 remedy
 * modes as extra columns against the same compiled-C baseline.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"

using namespace interp;
using namespace interp::harness;

int
main(int argc, char **argv)
{
    int jobs = parseJobs(argc, argv);
    TraceIo tio = parseTraceDirs(argc, argv);
    ModeSet modes = parseModes(argc, argv);

    // Interpreted columns by mode, in mode-table order; C is always
    // the slowdown baseline.
    std::vector<Lang> interp_langs;
    for (const ModeInfo &m : kModeTable) {
        bool pick = modes == ModeSet::Baseline   ? m.rung == 0
                    : modes == ModeSet::Remedies ? m.rung == 1
                    : modes == ModeSet::All      ? m.rung <= 1
                                                 : m.rung == 3;
        if (pick && m.lang != Lang::C)
            interp_langs.push_back(m.lang);
    }
    std::vector<Lang> all_langs = {Lang::C};
    all_langs.insert(all_langs.end(), interp_langs.begin(),
                     interp_langs.end());

    std::printf("Table 1: microbenchmark slowdowns relative to "
                "compiled C (direct mode)\n\n");
    std::printf("%-14s", "Benchmark");
    for (Lang lang : interp_langs)
        std::printf(" %10s", langName(lang));
    std::printf("\n");
    std::printf("--------------------------------------------------"
                "-------\n");

    // The whole op x lang cross product is one flat parallel suite;
    // results come back in spec order, so row assembly stays simple.
    std::vector<BenchSpec> specs;
    for (const std::string &op : microOps())
        for (Lang lang : all_langs)
            specs.push_back(microBench(lang, op, microIterations(lang)));
    std::vector<Measurement> results = runSuiteWith(
        specs, jobs, [&tio](const BenchSpec &spec, size_t) {
            return runOrReplay(spec, tio);
        });

    size_t next = 0;
    for (const std::string &op : microOps()) {
        std::map<Lang, double> cycles_per_iter;
        for (Lang lang : all_langs) {
            const Measurement &m = results[next++];
            if (m.failed) {
                std::fprintf(stderr, "warn: %s/%s failed: %s\n",
                             langName(lang), op.c_str(),
                             m.error.c_str());
                continue;
            }
            if (!m.finished)
                std::fprintf(stderr, "warn: %s/%s hit budget\n",
                             langName(lang), op.c_str());
            cycles_per_iter[lang] =
                (double)m.cycles / microIterations(lang);
        }
        double base = cycles_per_iter[Lang::C];
        std::printf("%-14s", op.c_str());
        for (Lang lang : interp_langs)
            std::printf(" %10.1f", cycles_per_iter[lang] / base);
        std::printf("\n");
    }

    std::printf("\nPaper reference (Table 1, optimized-C baseline):\n"
                "  a=b+c          260     96      770     6500\n"
                "  if              79     21      190     1500\n"
                "  null-proc       84     84      670      580\n"
                "  string-concat  186    504       19       78\n"
                "  string-split    65    161       13       29\n"
                "  read           3.3    4.6      1.2       15\n");
    return 0;
}
