/**
 * @file
 * fig-replay: record a handful of tapes covering all four interpreters
 * (the set-up), then replay each through the sinks behind Table 2,
 * Figure 3 and Figure 4: Profile, the Table 3 Machine and the 12-point
 * CacheSweep. No interpreter runs in the timed phase.
 *
 * The traced run adds, per tape: a recording through runTraced() with
 * the TraceWriter wrapped (encode time), a replay with no sinks
 * (decode time) and replays whose sinks are wrapped in TimedSinks.
 */

#include <filesystem>
#include <map>
#include <memory>
#include <numeric>

#include "checks.hh"
#include "common.hh"
#include "harness/record_replay.hh"
#include "sim/cache_sweep.hh"
#include "sim/machine.hh"
#include "tracefile/reader.hh"
#include "tracefile/writer.hh"
#include "workloads/registry.hh"

namespace hostbench {

using namespace interp;
using harness::BenchSpec;
using harness::Lang;

namespace {

constexpr int kSetups = 3;
constexpr double kTailQuantile = 0.85;
constexpr size_t kMinRounds = 14; // >= 10 replays beyond p85

/** The tapes: all four interpreters, 2-14 M instructions each. */
const std::vector<std::pair<Lang, const char *>> kTapes = {
    {Lang::Mipsi, "des"}, {Lang::Java, "des"}, {Lang::Perl, "des"},
    {Lang::Perl, "txt2html"}, {Lang::Tcl, "hanoi"},
};

/** What the live recording run measured; every replay must match. */
struct Tape
{
    BenchSpec spec;
    std::string path;
    uint64_t bytes = 0;
    uint64_t insts = 0, commands = 0, cycles = 0;
    uint64_t fetchDecode = 0, execute = 0, precompile = 0;
};

std::unique_ptr<sim::CacheSweep>
makeSweep()
{
    // Figure 4's grid: 8-64 KB at 1/2/4-way.
    return std::make_unique<sim::CacheSweep>(
        std::vector<uint32_t>{8, 16, 32, 64},
        std::vector<uint32_t>{1, 2, 4});
}

std::string
compare(const Tape &tape, const trace::Profile &profile,
        const sim::Machine &machine, const sim::CacheSweep &sweep)
{
    if (profile.commands() != tape.commands ||
        profile.fetchDecodeInsts() != tape.fetchDecode ||
        profile.executeInsts() != tape.execute ||
        profile.precompileInsts() != tape.precompile)
        return "replayed Profile differs from the live run";
    if (machine.cycles() != tape.cycles)
        return "replayed cycles differ from the live run";
    // LRU inclusion: at one associativity, doubling the size (and so
    // the set count) never adds a miss.
    std::vector<sim::SweepPoint> points = sweep.results();
    for (size_t i = 1; i < points.size(); ++i)
        if (points[i].config.assoc == points[i - 1].config.assoc &&
            points[i].misses > points[i - 1].misses)
            return "CacheSweep misses rise with cache size";
    return "";
}

/** Record every tape once; the live run's counts become the reference. */
void
recordAll(std::vector<Tape> &tapes, const harness::TraceIo &io,
          Outcome &outcome)
{
    for (Tape &tape : tapes) {
        std::string why = contained([&] {
            harness::Measurement m =
                harness::runOrReplay(tape.spec, io, {}, nullptr, true);
            tape.bytes = std::filesystem::file_size(tape.path);
            tape.insts = m.profile.instructions();
            tape.commands = m.profile.commands();
            tape.cycles = m.cycles;
            tape.fetchDecode = m.profile.fetchDecodeInsts();
            tape.execute = m.profile.executeInsts();
            tape.precompile = m.profile.precompileInsts();
            std::string bad = m.finished ? checkRow(tape.spec.name,
                                                    tape.spec.lang,
                                                    m.stdoutText)
                                         : "command budget exhausted";
            if (!bad.empty())
                fatal("%s", bad.c_str());
        });
        outcome.note("record " + tape.path, why);
    }
}

struct Round
{
    double wallS = 0;
    std::vector<double> replayUs;
    uint64_t insts = 0;
    // Traced rounds only.
    uint64_t profileNs = 0, machineNs = 0, sweepNs = 0;
    uint64_t batches = 0, bundles = 0, commands = 0, mmAccesses = 0,
             cycles = 0;
};

Round
replayRound(const std::vector<Tape> &tapes, const std::vector<size_t> &order,
            bool traced, Outcome &outcome)
{
    Round round;
    auto t0 = Clock::now();
    for (size_t i : order) {
        const Tape &tape = tapes[i];
        trace::Profile profile;
        sim::Machine machine;
        auto sweep = makeSweep();
        TimedSink t_profile(profile, true), t_machine(machine, false),
            t_sweep(*sweep, false);
        std::vector<trace::Sink *> sinks = {&profile, &machine, sweep.get()};
        if (traced)
            sinks = {&t_profile, &t_machine, &t_sweep};
        auto r0 = Clock::now();
        std::string why = contained([&] {
            tracefile::TraceReader reader(tape.path);
            reader.replay(sinks);
        });
        round.replayUs.push_back((double)nsBetween(r0, Clock::now()) / 1e3);
        if (why.empty())
            why = compare(tape, profile, machine, *sweep);
        outcome.note("replay " + tape.path, why);
        round.insts += profile.instructions();
        if (traced) {
            round.profileNs += t_profile.ns;
            round.machineNs += t_machine.ns;
            round.sweepNs += t_sweep.ns;
            round.batches += t_profile.batches;
            round.bundles += t_profile.bundles;
            round.commands += t_profile.commands;
            round.mmAccesses += t_profile.mmAccesses;
            round.cycles += machine.cycles();
        }
    }
    round.wallS = secondsSince(t0);
    return round;
}

} // namespace

Result
runFigReplay(const Options &opt)
{
    Result res;
    Outcome &outcome = res.outcome;

    harness::TraceIo io{opt.workDir, ""};
    std::vector<Tape> tapes;
    for (const auto &[lang, name] : kTapes) {
        Tape tape;
        tape.spec = workloads::specFor(*workloads::find(name), lang);
        tape.path = harness::traceFilePath(io.recordDir, tape.spec);
        tapes.push_back(std::move(tape));
    }

    std::vector<double> setup;
    for (int i = 0; i < kSetups; ++i) {
        auto t0 = Clock::now();
        recordAll(tapes, io, outcome);
        setup.push_back(secondsSince(t0));
    }
    uint64_t tape_bytes = 0, tape_insts = 0;
    for (const Tape &tape : tapes) {
        tape_bytes += tape.bytes;
        tape_insts += tape.insts;
        progress("fig-replay: tape %s/%s: %.1f M insts, %.1f MB",
                 harness::langName(tape.spec.lang), tape.spec.name.c_str(),
                 tape.insts / 1e6, tape.bytes / 1e6);
    }
    progress("fig-replay: %zu tapes, %.1f M insts, %.1f MB, set-up %.2f s "
             "(median of %d)",
             tapes.size(), tape_insts / 1e6, tape_bytes / 1e6, median(setup),
             kSetups);

    Rng rng(opt.seed);
    std::vector<size_t> order(tapes.size());
    std::iota(order.begin(), order.end(), 0);

    std::vector<Round> plain, traced;
    SelfUsage u0 = SelfUsage::now();
    auto phase = Clock::now();
    for (;;) {
        rng.shuffle(order);
        plain.push_back(replayRound(tapes, order, false, outcome));
        double next = plain.back().wallS;
        if (opt.trace) {
            traced.push_back(replayRound(tapes, order, true, outcome));
            next += traced.back().wallS;
        }
        bool enough = opt.trace || plain.size() >= kMinRounds;
        if (enough && secondsSince(phase) + next > opt.seconds)
            break;
    }
    SelfUsage u1 = SelfUsage::now();
    progress("fig-replay: %zu rounds, median %.3f s", plain.size(),
             median(roundWalls(plain)));

    std::vector<double> replay_us;
    uint64_t insts_plain = 0;
    for (const Round &r : plain) {
        replay_us.insert(replay_us.end(), r.replayUs.begin(), r.replayUs.end());
        insts_plain += r.insts;
    }
    res.add("p50_us", median(replay_us), "us");
    res.add("tail_us", quantile(replay_us, kTailQuantile), "us");

    if (!opt.trace) {
        res.add("setup_s", median(setup), "s");
        res.add("wall_s", median(roundWalls(plain)), "s");
        res.add("ns_per_inst",
                (u1.cpuSeconds - u0.cpuSeconds) * 1e9 / insts_plain, "ns");
        res.add("peak_rss_mb", u1.peakRssMb, "MB");
        return res;
    }

    // Encode and engine split: one traced recording per tape.
    uint64_t writer_ns = 0, engine_ns = 0, rec_insts = 0;
    std::map<Lang, std::pair<uint64_t, uint64_t>> engine_by_lang;
    for (Tape &tape : tapes) {
        std::string why = contained([&] {
            std::string path = tape.path + ".traced";
            tracefile::TraceWriter writer(path,
                                          harness::langName(tape.spec.lang),
                                          tape.spec.name);
            TracedRun r = runTraced(tape.spec, true, &writer);
            writer.setRunResult(0, r.commands, r.finished);
            writer.finish();
            std::filesystem::remove(path);
            if (r.insts != tape.insts || r.cycles != tape.cycles)
                fatal("traced recording differs from the untraced one");
            writer_ns += r.extraNs;
            engine_ns += r.engineNs;
            rec_insts += r.insts;
            auto &lang = engine_by_lang[harness::baselineOf(tape.spec.lang)];
            lang.first += r.engineNs;
            lang.second += r.insts;
        });
        outcome.note("traced record " + tape.path, why);
    }
    // Decode alone: replay with no sinks.
    uint64_t decode_ns = 0, decode_insts = 0, decode_bytes = 0;
    for (const Tape &tape : tapes) {
        auto t0 = Clock::now();
        std::string why = contained([&] {
            tracefile::TraceReader reader(tape.path);
            reader.replay({});
        });
        decode_ns += nsBetween(t0, Clock::now());
        decode_insts += tape.insts;
        decode_bytes += tape.bytes;
        outcome.note("decode " + tape.path, why);
    }

    Round sum;
    for (const Round &r : traced) {
        sum.insts += r.insts;
        sum.profileNs += r.profileNs;
        sum.machineNs += r.machineNs;
        sum.sweepNs += r.sweepNs;
        sum.batches += r.batches;
        sum.bundles += r.bundles;
    }
    for (const Round &r : traced)
        if (r.insts != tape_insts || r.cycles != traced.front().cycles)
            outcome.wrong("traced replay counts differ between rounds");
    double insts = (double)sum.insts;
    res.add("engine.ns_per_inst", (double)engine_ns / rec_insts, "ns");
    for (const auto &[lang, v] : engine_by_lang)
        res.add(std::string("engine.") + layerLang(lang) + ".ns_per_inst",
                (double)v.first / (double)v.second, "ns");
    res.add("profile.ns_per_inst", sum.profileNs / insts, "ns");
    res.add("machine.ns_per_inst", sum.machineNs / insts, "ns");
    res.add("cachesweep.ns_per_inst", sum.sweepNs / insts, "ns");
    res.add("tracefile.encode_ns_per_inst", (double)writer_ns / rec_insts,
            "ns");
    res.add("tracefile.decode_ns_per_inst", (double)decode_ns / decode_insts,
            "ns");
    res.add("tape_bytes_per_kinst",
            (double)tape_bytes * 1000.0 / (double)tape_insts, "B");
    res.add("tracefile.decode_mb_per_s",
            (double)decode_bytes / 1e6 / (decode_ns / 1e9), "MB/s");
    res.add("trace.bundles_per_batch",
            (double)sum.bundles / (double)sum.batches, "bundles");
    const Round &one = traced.front();
    res.add("trace.insts", (double)one.insts, "count");
    res.add("trace.bundles", (double)one.bundles, "count");
    res.add("trace.commands", (double)one.commands, "count");
    res.add("trace.mm_accesses", (double)one.mmAccesses, "count");
    res.add("sim.cycles", (double)one.cycles, "count");
    size_t rounds = plain.size() + traced.size();
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
