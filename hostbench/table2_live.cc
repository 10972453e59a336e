/**
 * @file
 * table2-live: the Table 2 measurement pipeline (harness::run: guest
 * interpreter -> trace emission -> Profile + Table 3 Machine), one row
 * after another on one thread, over the macro suite minus the five
 * MIPSI rows that take 7-25 s each.
 *
 * Set-up builds the warm specs: sources, MiniC -> MIPS images and jvm
 * modules. A round runs every row once in a seeded order; the traced
 * run alternates plain rounds with rounds through runTraced().
 */

#include <map>
#include <memory>
#include <numeric>

#include "checks.hh"
#include "common.hh"
#include "jvm/bytecode.hh"
#include "minic/compile.hh"
#include "workloads/registry.hh"

namespace hostbench {

using namespace interp;
using harness::BenchSpec;
using harness::Lang;

namespace {

constexpr int kSetups = 41;
constexpr double kTailQuantile = 0.80; // >= 12 of 64 rows beyond

bool
leftOut(const BenchSpec &spec)
{
    static const char *names[] = {"compress", "eqntott", "espresso",
                                  "compose-spin", "compose-mat"};
    if (spec.lang != Lang::Mipsi)
        return false;
    for (const char *name : names)
        if (spec.name == name)
            return true;
    return false;
}

std::vector<BenchSpec>
buildWarmSpecs()
{
    std::vector<BenchSpec> rows;
    for (BenchSpec &spec : workloads::macroRows()) {
        if (leftOut(spec))
            continue;
        Lang base = harness::baselineOf(spec.lang);
        if (base == Lang::C || base == Lang::Mipsi)
            spec.image = std::make_shared<mips::Image>(
                minic::compileMips(spec.source, spec.name));
        else if (base == Lang::Java)
            spec.module = std::make_shared<const jvm::Module>(
                minic::compileBytecode(spec.source, spec.name));
        rows.push_back(std::move(spec));
    }
    return rows;
}

/** Per-round sums; the identity counts repeat exactly round to round. */
struct Counts
{
    uint64_t insts = 0, commands = 0, mmAccesses = 0, cycles = 0;

    bool operator==(const Counts &) const = default;
};

struct Round
{
    double wallS = 0;
    std::vector<double> rowUs;
    Counts counts;
    // Traced rounds only.
    uint64_t bundles = 0, batches = 0;
    uint64_t engineNs = 0, profileNs = 0, machineNs = 0;
    std::map<Lang, std::pair<uint64_t, uint64_t>> engineByLang; // ns, insts
};

Round
runRound(const std::vector<BenchSpec> &rows, const std::vector<size_t> &order,
         bool traced, Outcome &outcome)
{
    Round round;
    std::vector<RowOutput> outs;
    auto t0 = Clock::now();
    for (size_t i : order) {
        const BenchSpec &spec = rows[i];
        RowOutput out{spec.name, spec.lang, "", ""};
        bool finished = false;
        auto r0 = Clock::now();
        out.failure = contained([&] {
            if (traced) {
                TracedRun r = runTraced(spec, true, nullptr);
                finished = r.finished;
                out.stdoutText = std::move(r.stdoutText);
                round.counts.insts += r.insts;
                round.counts.commands += r.commandEvents;
                round.counts.mmAccesses += r.mmAccesses;
                round.counts.cycles += r.cycles;
                round.bundles += r.bundles;
                round.batches += r.batches;
                round.engineNs += r.engineNs;
                round.profileNs += r.profileNs;
                round.machineNs += r.machineNs;
                auto &lang = round.engineByLang[harness::baselineOf(spec.lang)];
                lang.first += r.engineNs;
                lang.second += r.insts;
            } else {
                harness::Measurement m = harness::run(spec);
                finished = m.finished;
                out.stdoutText = std::move(m.stdoutText);
                round.counts.insts += m.profile.instructions();
                round.counts.commands += m.profile.commands();
                round.counts.mmAccesses += m.profile.memModelAccesses();
                round.counts.cycles += m.cycles;
            }
        });
        round.rowUs.push_back((double)nsBetween(r0, Clock::now()) / 1e3);
        if (out.failure.empty() && !finished)
            out.failure = "command budget exhausted";
        outs.push_back(std::move(out));
    }
    round.wallS = secondsSince(t0);

    for (RowOutput &out : outs)
        if (out.failure.empty())
            out.failure = checkRow(out.name, out.lang, out.stdoutText);
    checkAcrossLanguages(outs);
    for (const RowOutput &out : outs)
        outcome.note(out.name + "/" + harness::langName(out.lang),
                     out.failure);
    return round;
}

} // namespace

Result
runTable2Live(const Options &opt)
{
    Result res;
    Outcome &outcome = res.outcome;

    std::vector<double> setup;
    std::vector<BenchSpec> rows;
    for (int i = 0; i < kSetups; ++i) {
        auto t0 = Clock::now();
        rows = buildWarmSpecs();
        setup.push_back(secondsSince(t0));
    }
    progress("table2-live: %zu rows, set-up %.1f ms (median of %d)",
             rows.size(), median(setup) * 1e3, kSetups);

    Rng rng(opt.seed);
    std::vector<size_t> order(rows.size());
    std::iota(order.begin(), order.end(), 0);

    // Plain rounds until the next would overrun --seconds (at least
    // two, so the row percentiles have samples to stand on); the
    // traced run alternates plain and traced rounds in the same order.
    std::vector<Round> plain, traced;
    SelfUsage u0 = SelfUsage::now();
    auto phase = Clock::now();
    for (;;) {
        rng.shuffle(order);
        plain.push_back(runRound(rows, order, false, outcome));
        double next = plain.back().wallS;
        if (opt.trace) {
            traced.push_back(runRound(rows, order, true, outcome));
            next += traced.back().wallS;
        }
        progress("table2-live: round %zu: %.2f s%s", plain.size(),
                 plain.back().wallS, opt.trace ? " (+ traced)" : "");
        bool enough = opt.trace || plain.size() >= 2;
        if (enough && secondsSince(phase) + next > opt.seconds)
            break;
    }
    SelfUsage u1 = SelfUsage::now();

    for (const Round &r : plain)
        if (!(r.counts == plain.front().counts))
            outcome.wrong("simulated counts differ between rounds");
    for (const Round &r : traced)
        if (!(r.counts == plain.front().counts))
            outcome.wrong("traced counts differ from the untraced run");

    std::vector<double> row_us;
    uint64_t insts_plain = 0;
    for (const Round &r : plain) {
        row_us.insert(row_us.end(), r.rowUs.begin(), r.rowUs.end());
        insts_plain += r.counts.insts;
    }
    res.add("p50_us", median(row_us), "us");
    res.add("tail_us", quantile(row_us, kTailQuantile), "us");

    size_t rounds = plain.size() + traced.size();
    if (!opt.trace) {
        res.add("setup_s", median(setup), "s");
        res.add("wall_s", median(roundWalls(plain)), "s");
        res.add("ns_per_inst",
                (u1.cpuSeconds - u0.cpuSeconds) * 1e9 / insts_plain, "ns");
        res.add("peak_rss_mb", u1.peakRssMb, "MB");
        return res;
    }

    Round sum;
    for (const Round &r : traced) {
        sum.counts.insts += r.counts.insts;
        sum.bundles += r.bundles;
        sum.batches += r.batches;
        sum.engineNs += r.engineNs;
        sum.profileNs += r.profileNs;
        sum.machineNs += r.machineNs;
        for (const auto &[lang, v] : r.engineByLang) {
            sum.engineByLang[lang].first += v.first;
            sum.engineByLang[lang].second += v.second;
        }
    }
    double insts = (double)sum.counts.insts;
    res.add("engine.ns_per_inst", sum.engineNs / insts, "ns");
    for (const auto &[lang, v] : sum.engineByLang)
        res.add(std::string("engine.") + layerLang(lang) + ".ns_per_inst",
                (double)v.first / (double)v.second, "ns");
    res.add("frontend.ms", median(setup) * 1e3, "ms");
    res.add("profile.ns_per_inst", sum.profileNs / insts, "ns");
    res.add("machine.ns_per_inst", sum.machineNs / insts, "ns");
    res.add("trace.bundles_per_batch",
            (double)sum.bundles / (double)sum.batches, "bundles");
    const Round &one = traced.front();
    res.add("trace.insts", (double)one.counts.insts, "count");
    res.add("trace.bundles", (double)one.bundles, "count");
    res.add("trace.commands", (double)one.counts.commands, "count");
    res.add("trace.mm_accesses", (double)one.counts.mmAccesses, "count");
    res.add("sim.cycles", (double)one.counts.cycles, "count");
    res.add("host.ctx_switches",
            (double)(u1.ctxSwitches - u0.ctxSwitches) / rounds, "count");
    res.add("host.minor_faults",
            (double)(u1.minorFaults - u0.minorFaults) / rounds, "count");
    res.add("trace.overhead_pct",
            (median(roundWalls(traced)) / median(roundWalls(plain)) - 1) *
                100,
            "%");
    return res;
}

} // namespace hostbench
