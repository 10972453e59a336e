#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "harness/engine.hh"
#include "harness/workloads.hh"
#include "sim/machine.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace hostbench {

void
Outcome::note(const std::string &what, const std::string &why)
{
    ++attempted;
    if (why.empty())
        return;
    ++failed;
    if (reasons.size() < 8)
        reasons.push_back(what + ": " + why);
}

void
Outcome::wrong(const std::string &why)
{
    correct = false;
    if (reasons.size() < 8)
        reasons.push_back(why);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double rank = q * (double)(v.size() - 1);
    size_t lo = (size_t)rank;
    if (lo + 1 >= v.size())
        return v.back();
    double frac = rank - (double)lo;
    return v[lo] + frac * (v[lo + 1] - v[lo]);
}

SelfUsage
SelfUsage::now()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    SelfUsage u;
    u.cpuSeconds = (double)ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
                   (double)ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
    u.ctxSwitches = (uint64_t)(ru.ru_nvcsw + ru.ru_nivcsw);
    u.minorFaults = (uint64_t)ru.ru_minflt;
    u.peakRssMb = procStatusValue("/proc/self/status", "VmHWM:") / 1024.0;
    return u;
}

uint64_t
procStatusValue(const std::string &path, const char *key)
{
    std::ifstream in(path);
    size_t n = std::strlen(key);
    for (std::string line; std::getline(in, line);)
        if (line.compare(0, n, key) == 0)
            return std::stoull(line.substr(n));
    return 0;
}

uint64_t
Rng::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
TimedSink::onBundle(const interp::trace::Bundle &bundle)
{
    if (counting_) {
        ++bundles;
        insts += bundle.count;
    }
    auto t0 = Clock::now();
    inner_.onBundle(bundle);
    ns += nsBetween(t0, Clock::now());
}

void
TimedSink::onBatch(const interp::trace::BundleBatch &batch)
{
    if (counting_) {
        ++batches;
        bundles += batch.size();
        const uint32_t *count = batch.countCol();
        for (uint32_t i = 0; i < batch.size(); ++i)
            insts += count[i];
    }
    auto t0 = Clock::now();
    inner_.onBatch(batch);
    ns += nsBetween(t0, Clock::now());
}

void
TimedSink::onCommand(interp::trace::CommandId command)
{
    if (counting_)
        ++commands;
    inner_.onCommand(command);
}

void
TimedSink::onMemModelAccess()
{
    if (counting_)
        ++mmAccesses;
    inner_.onMemModelAccess();
}

TracedRun
runTraced(const interp::harness::BenchSpec &spec, bool with_machine,
          interp::trace::Sink *extra)
{
    using namespace interp;
    TracedRun r;
    sim::Machine machine;
    TimedSink profile(r.profile, true);
    TimedSink timed_machine(machine, false);
    std::unique_ptr<TimedSink> timed_extra;

    // The sink order of harness::run: Profile, Machine, extra sinks.
    trace::Execution exec;
    exec.addSink(&profile);
    if (with_machine)
        exec.addSink(&timed_machine);
    if (extra) {
        timed_extra = std::make_unique<TimedSink>(*extra, false);
        exec.addSink(timed_extra.get());
    }
    vfs::FileSystem fs;
    if (spec.needsInputs)
        harness::installAllInputs(fs);

    auto t0 = Clock::now();
    auto engine = harness::makeEngine(spec.lang, exec, fs);
    harness::EngineResult er = engine->execute(spec);
    exec.flush();
    r.wallNs = nsBetween(t0, Clock::now());

    r.profileNs = profile.ns;
    r.machineNs = timed_machine.ns;
    r.extraNs = timed_extra ? timed_extra->ns : 0;
    uint64_t sinks = r.profileNs + r.machineNs + r.extraNs;
    r.engineNs = r.wallNs > sinks ? r.wallNs - sinks : 0;
    r.finished = er.finished;
    r.commands = er.commands;
    r.cycles = with_machine ? machine.cycles() : 0;
    r.stdoutText = fs.stdoutCapture();
    r.batches = profile.batches;
    r.bundles = profile.bundles;
    r.insts = profile.insts;
    r.commandEvents = profile.commands;
    r.mmAccesses = profile.mmAccesses;
    return r;
}

const char *
layerLang(interp::harness::Lang base)
{
    using interp::harness::Lang;
    switch (base) {
      case Lang::C: return "c";
      case Lang::Mipsi: return "mipsi";
      case Lang::Java: return "jvm";
      case Lang::Perl: return "perlish";
      case Lang::Tcl: return "tclish";
      default: return "other";
    }
}

void
progress(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace hostbench
