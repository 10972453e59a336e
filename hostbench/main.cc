/**
 * @file
 * hostbench: the host-cost benchmark of both pipelines.
 *
 *   hostbench --workload table2-live|fig-replay|serve-mix --seed N
 *             --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (README.md lists both). The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The exit
 * status is 0 only when every operation passed its check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "common.hh"

using namespace hostbench;

namespace {

struct Name
{
    const char *name;
    const char *unit;
};

const Name kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"ns_per_inst", "ns"},
    {"peak_rss_mb", "MB"},
};

const Name kPerLayer[] = {
    {"engine.ns_per_inst", "ns"},
    {"engine.mipsi.ns_per_inst", "ns"},
    {"engine.jvm.ns_per_inst", "ns"},
    {"engine.perlish.ns_per_inst", "ns"},
    {"engine.tclish.ns_per_inst", "ns"},
    {"engine.c.ns_per_inst", "ns"},
    {"frontend.ms", "ms"},
    {"profile.ns_per_inst", "ns"},
    {"trace.bundles_per_batch", "bundles"},
    {"trace.insts", "count"},
    {"trace.bundles", "count"},
    {"trace.commands", "count"},
    {"trace.mm_accesses", "count"},
    {"sim.cycles", "count"},
    {"machine.ns_per_inst", "ns"},
    {"cachesweep.ns_per_inst", "ns"},
    {"tracefile.encode_ns_per_inst", "ns"},
    {"tracefile.decode_ns_per_inst", "ns"},
    {"tape_bytes_per_kinst", "B"},
    {"tracefile.decode_mb_per_s", "MB/s"},
    {"req_per_s", "1/s"},
    {"server.queue_us", "us"},
    {"server.interactive.service_us", "us"},
    {"server.batch.service_us", "us"},
    {"server.mipsi.service_us", "us"},
    {"server.jvm.service_us", "us"},
    {"server.perlish.service_us", "us"},
    {"server.tclish.service_us", "us"},
    {"transport.interactive_us", "us"},
    {"proxy.hop_us", "us"},
    {"server.cpu_us_per_req", "us"},
    {"proxy.cpu_us_per_req", "us"},
    {"server.ctx_switches_per_req", "count"},
    {"proxy.ctx_switches_per_req", "count"},
    {"catalog.hit_ratio", "ratio"},
    {"tier.promotions", "count"},
    {"tier.tiered_share", "ratio"},
    {"server.shed", "count"},
    {"server.failed", "count"},
    {"proxy.retries", "count"},
    {"proxy.rerouted", "count"},
    {"host.ctx_switches", "count"},
    {"host.minor_faults", "count"},
    {"trace.overhead_pct", "%"},
    // Operation latency of the plain rounds, median and tail. Not
    // bounded: on a shared VM the serving latencies drift from run to
    // run by more than any bound worth having (README.md).
    {"p50_us", "us"},
    {"tail_us", "us"},
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload table2-live|fig-replay|"
                 "serve-mix --seed N --seconds S --trace 0|1\n"
                 "                 --bin-dir DIR --work-dir DIR\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            opt.workload = value();
        else if (!std::strcmp(argv[i], "--seed")) {
            opt.seed = std::strtoull(value(), nullptr, 10);
            have_seed = true;
        } else if (!std::strcmp(argv[i], "--seconds"))
            opt.seconds = std::atof(value());
        else if (!std::strcmp(argv[i], "--trace"))
            opt.trace = std::atoi(value()) != 0;
        else if (!std::strcmp(argv[i], "--bin-dir"))
            opt.binDir = value();
        else if (!std::strcmp(argv[i], "--work-dir"))
            opt.workDir = value();
        else
            usage();
    }
    if (!have_seed || opt.seconds <= 0 || opt.binDir.empty() ||
        opt.workDir.empty())
        usage();

    Result (*run)(const Options &) = nullptr;
    if (opt.workload == "table2-live")
        run = runTable2Live;
    else if (opt.workload == "fig-replay")
        run = runFigReplay;
    else if (opt.workload == "serve-mix")
        run = runServeMix;
    else
        usage();

    std::printf("hostbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, opt.trace ? 1 : 0);
    std::fflush(stdout);
    Result res = run(opt);

    // Every metric of the mode is printed: a layer that does no work
    // on this workload reads 0 (README.md says which).
    std::set<std::string> known;
    for (const Name &n : kEndToEnd)
        known.insert(n.name);
    for (const Name &n : kPerLayer)
        known.insert(n.name);
    std::string metrics;
    const Name *first =
        opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
    const Name *last = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
    for (const Name *n = first; n != last; ++n) {
        double value = 0;
        for (const Metric &m : res.metrics)
            if (m.name == n->name)
                value = m.value;
        if (!std::isfinite(value))
            value = 0;
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", n->name, value, n->unit);
        metrics += buf;
        std::printf("  %-32s %18.6f %s\n", n->name, value, n->unit);
    }
    for (const Metric &m : res.metrics)
        if (!known.count(m.name))
            res.outcome.wrong("unlisted metric " + m.name);

    const Outcome &oc = res.outcome;
    for (const std::string &why : oc.reasons)
        std::printf("  check: %s\n", why.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                oc.correct ? "true" : "false",
                (unsigned long long)oc.attempted,
                (unsigned long long)oc.failed, metrics.c_str());
    std::fflush(stdout);
    return oc.correct && oc.failed == 0 ? 0 : 1;
}
