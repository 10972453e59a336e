/**
 * @file
 * Shared pieces of the host benchmark: options, the result every
 * workload returns, timing and resource probes, order statistics, the
 * seeded generator that fixes row/tape/request order, and the
 * forwarding sink the traced runs wrap around each trace::Sink.
 */

#ifndef HOSTBENCH_COMMON_HH
#define HOSTBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "support/logging.hh"
#include "trace/events.hh"

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline uint64_t
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               t1 - t0)
        .count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string binDir;  ///< where interpd / interproxy were built
    std::string workDir; ///< scratch for tapes, sockets and logs
};

/** Operations attempted and failed, with the first few reasons. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** False when a whole-run check (reconciliation, identity) fails. */
    bool correct = true;
    std::vector<std::string> reasons;

    /** Count operation @p what; @p why is empty when it passed. */
    void note(const std::string &what, const std::string &why);
    /** A whole-run check failed. */
    void wrong(const std::string &why);
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    Outcome outcome;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

Result runTable2Live(const Options &opt);
Result runFigReplay(const Options &opt);
Result runServeMix(const Options &opt);

// --- statistics ----------------------------------------------------------

/** Percentile at rank q * (n - 1), linearly interpolated. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** The wallS of each round. */
template <class Round>
std::vector<double>
roundWalls(const std::vector<Round> &rounds)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(r.wallS);
    return v;
}

// --- resource probes -----------------------------------------------------

/** This process's CPU time and counters (getrusage), and its peak
 *  resident set since exec (VmHWM; ru_maxrss would carry over the
 *  launcher's peak across execve). */
struct SelfUsage
{
    double cpuSeconds = 0;
    uint64_t ctxSwitches = 0; ///< voluntary + involuntary
    uint64_t minorFaults = 0;
    double peakRssMb = 0;

    static SelfUsage now();
};

/** The value of line @p key ("VmHWM:") of a /proc status file, in the
 *  file's own unit (kB for sizes); 0 when absent. */
uint64_t procStatusValue(const std::string &path, const char *key);

// --- seeded order --------------------------------------------------------

/** splitmix64: the same seed gives the same sequence everywhere. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t next();
    uint64_t below(uint64_t n) { return next() % n; }

    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state;
};

// --- traced-run sink wrapper ---------------------------------------------

/**
 * Forwards every event to @p inner and times the batch delivery
 * (onBatch / onBundle). With counting on it also tallies the stream
 * itself: deliveries, bundles, instructions, commands and memory-model
 * accesses. Command and memory-model events are forwarded untimed:
 * they are single counter bumps in every sink and timing them would
 * cost more than the work.
 */
class TimedSink : public interp::trace::Sink
{
  public:
    TimedSink(interp::trace::Sink &inner, bool counting)
        : inner_(inner), counting_(counting)
    {
    }

    void onBundle(const interp::trace::Bundle &bundle) override;
    void onBatch(const interp::trace::BundleBatch &batch) override;
    void onCommand(interp::trace::CommandId command) override;
    void onMemModelAccess() override;

    uint64_t ns = 0;
    uint64_t batches = 0;
    uint64_t bundles = 0;
    uint64_t insts = 0;
    uint64_t commands = 0;
    uint64_t mmAccesses = 0;

  private:
    interp::trace::Sink &inner_;
    bool counting_;
};

// --- the measurement pipeline, traced -----------------------------------

/** One program run through the pipeline harness::run builds, from its
 *  public parts, with every sink wrapped in a TimedSink. */
struct TracedRun
{
    std::string stdoutText;
    bool finished = false;
    uint64_t commands = 0; ///< EngineResult::commands
    uint64_t cycles = 0;   ///< Machine cycles (0 without the Machine)
    interp::trace::Profile profile;
    uint64_t wallNs = 0;    ///< makeEngine + execute + flush
    uint64_t engineNs = 0;  ///< wallNs minus time inside the sinks
    uint64_t profileNs = 0; ///< inside Profile::onBatch
    uint64_t machineNs = 0; ///< inside Machine::onBatch
    uint64_t extraNs = 0;   ///< inside the extra sink (a TraceWriter)
    /** Stream tallies, counted at the Profile wrapper. */
    uint64_t batches = 0, bundles = 0, insts = 0, commandEvents = 0,
             mmAccesses = 0;
};

/**
 * Execute @p spec under Profile, the Table 3 Machine when
 * @p with_machine, and @p extra when non-null, in harness::run's sink
 * order. Throws what the engine throws.
 */
TracedRun runTraced(const interp::harness::BenchSpec &spec,
                    bool with_machine, interp::trace::Sink *extra);

/**
 * Run @p fn with fatal() contained; "" on success, else the error.
 * Every operation the benchmark counts goes through here.
 */
template <class F>
std::string
contained(F &&fn)
{
    interp::ScopedFatalThrow contain;
    try {
        fn();
        return "";
    } catch (const std::exception &e) {
        return e.what();
    }
}

/** Layer-metric name of a baseline language: c, mipsi, jvm, perlish or
 *  tclish (the module that implements it). */
const char *layerLang(interp::harness::Lang base);

/** Print a progress line to stderr (stdout ends with the result). */
void progress(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace hostbench

#endif // HOSTBENCH_COMMON_HH
