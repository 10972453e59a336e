/**
 * @file
 * Benchmark registry and runner: the paper's methodology as a
 * library. A BenchSpec names a program, its language and workload;
 * run() executes it under full instrumentation (software Profile +
 * Table 3 machine model, plus any extra sinks) and returns the
 * Measurement every table and figure is derived from.
 */

#ifndef INTERP_HARNESS_RUNNER_HH
#define INTERP_HARNESS_RUNNER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mips/image.hh"
#include "sim/machine.hh"
#include "trace/profile.hh"

namespace interp::jvm {
struct Module;
struct TierArtifact;
struct PairProfile;
} // namespace interp::jvm

namespace interp::jit {
class JitArtifact;
} // namespace interp::jit

namespace interp::harness {

/**
 * The execution modes of the study: the five faithful baselines, the
 * three §5 fetch/decode remedies, and the tier-2 modes (profile-
 * discovered superinstructions + monomorphic inline caches attacking
 * the §3.3 memory-model cost). Each remedy runs the same programs as
 * its baseline with identical per-command execute attribution; tier-2
 * modes additionally shrink the memory-model *subset* of execute
 * (execute minus memModel stays byte-identical), with one-time
 * tiering cost charged to Precompile. The jit mode is the tier-3
 * endpoint: per-opcode stencils concatenated into an executable
 * buffer (src/jit/), with the emitted region registered as synthetic
 * code so §4 simulation still attributes its i-cache behaviour.
 */
enum class Lang : uint8_t
{
    C,     ///< compiled MiniC, direct execution (the baseline)
    Mipsi, ///< MiniC compiled to MIPS, interpreted by MIPSI
    Java,  ///< MiniC compiled to bytecode, run on the JVM-like VM
    Perl,  ///< perlish source
    Tcl,   ///< tclish source
    MipsiThreaded, ///< MIPSI with predecoded direct threading (§5)
    JavaQuick,     ///< JVM with bytecode quickening (§5)
    TclBytecode,   ///< tclish with Tcl 8.0-style compiled scripts (§5)
    JavaTier2,     ///< quickened + superinstructions + field ICs
    TclTier2,      ///< bytecode + command-pair fusion + symbol ICs
    MipsiJit,      ///< threaded + per-opcode stencil region (tier 3)
};

// The mode and ladder tables are header-only so consumers below
// interp_harness in the link order (the workload registry) can read
// them without pulling in the runner's symbols.

/** One row of the mode table. */
struct ModeInfo
{
    Lang lang;
    /** Byte-stable: names trace files, tier entries and STATS keys. */
    const char *name;
    Lang baseline; ///< the faithful mode this one is measured against
    int rung;      ///< 0 baseline, 1 §5 remedy, 2 tier-2, 3 jit
};

/** Every execution mode, in enum order. */
inline constexpr ModeInfo kModeTable[] = {
    {Lang::C, "C", Lang::C, 0},
    {Lang::Mipsi, "MIPSI", Lang::Mipsi, 0},
    {Lang::Java, "Java", Lang::Java, 0},
    {Lang::Perl, "Perl", Lang::Perl, 0},
    {Lang::Tcl, "Tcl", Lang::Tcl, 0},
    {Lang::MipsiThreaded, "MIPSI-threaded", Lang::Mipsi, 1},
    {Lang::JavaQuick, "Java-quick", Lang::Java, 1},
    {Lang::TclBytecode, "Tcl-bytecode", Lang::Tcl, 1},
    {Lang::JavaTier2, "Java-tier2", Lang::Java, 2},
    {Lang::TclTier2, "Tcl-tier2", Lang::Tcl, 2},
    {Lang::MipsiJit, "MIPSI-jit", Lang::Mipsi, 3},
};

inline constexpr int kNumModes =
    (int)(sizeof kModeTable / sizeof kModeTable[0]);

constexpr bool
modeTableInEnumOrder()
{
    for (int i = 0; i < kNumModes; ++i)
        if ((int)kModeTable[i].lang != i)
            return false;
    return true;
}
static_assert(modeTableInEnumOrder(), "kModeTable must follow Lang");

/** The mode's table row, or null for a value outside the table. */
constexpr const ModeInfo *
modeInfo(Lang lang)
{
    return (int)lang < kNumModes ? &kModeTable[(int)lang] : nullptr;
}

inline const char *
langName(Lang lang)
{
    const ModeInfo *m = modeInfo(lang);
    return m ? m->name : "?";
}

/** The baseline a mode is measured against (identity for the five
 *  baseline modes). */
inline Lang
baselineOf(Lang lang)
{
    const ModeInfo *m = modeInfo(lang);
    return m ? m->baseline : lang;
}

/** The mode's own rung: 0 baseline, 1 remedy, 2 tier-2, 3 jit. */
inline int
rungOf(Lang lang)
{
    const ModeInfo *m = modeInfo(lang);
    return m ? m->rung : 0;
}

/**
 * The runtime tier ladder: per baseline, the mode a warm program runs
 * at on rungs 0 (itself) to 3. A rung a language lacks repeats the one
 * below it: MIPSI has no tier 2, and Java and Tcl have no template
 * backend. C and Perl have no ladder and always run at rung 0.
 */
inline constexpr Lang kLadderTable[][4] = {
    {Lang::Mipsi, Lang::MipsiThreaded, Lang::MipsiThreaded, Lang::MipsiJit},
    {Lang::Java, Lang::JavaQuick, Lang::JavaTier2, Lang::JavaTier2},
    {Lang::Tcl, Lang::TclBytecode, Lang::TclTier2, Lang::TclTier2},
};

/** The mode @p base runs at on ladder rung @p rung (0-3); @p base
 *  itself when it has no ladder (C, Perl, or a mode that is not a
 *  baseline). */
inline Lang
ladderMode(Lang base, int rung)
{
    for (const auto &ladder : kLadderTable)
        if (ladder[0] == base)
            return ladder[rung];
    return base;
}

/** One benchmark to run. */
struct BenchSpec
{
    Lang lang;
    std::string name;     ///< benchmark name (des, compress, ...)
    std::string source;   ///< full program text
    /**
     * Pre-linked guest image (C/MIPSI only). When set, `source` is
     * ignored. Used by the microbenchmarks, whose C baselines are
     * hand-scheduled assembly — the paper's baseline was an optimizing
     * C compiler, and MiniC's naive codegen would flatter the
     * interpreters by a constant factor otherwise.
     */
    std::shared_ptr<mips::Image> image;
    bool needsInputs = false; ///< install the standard input files
    uint64_t maxCommands = 400'000'000;

    // --- warm-catalog / tier-up inputs (interpd) ----------------------
    /**
     * Pre-compiled jvm module shared from a warm catalog (Java modes
     * only; `source` is ignored when set). The runner never mutates
     * it: quick/tier-2 execution over a shared module requires a
     * published artifact (below) or builds one in-run.
     */
    std::shared_ptr<const jvm::Module> module;
    /** Published tier-2 artifact to execute with (JavaQuick/JavaTier2
     *  with a shared module). When absent the runner builds one
     *  in-run, charged to Precompile. */
    std::shared_ptr<const jvm::TierArtifact> jvmArtifact;
    /** Pair profile to build the artifact from (skips the standalone
     *  profiling pre-run). */
    std::shared_ptr<const jvm::PairProfile> jvmPairs;
    /** Invoked with the artifact the run built (the tier manager's
     *  atomic-publish hook). */
    std::function<void(std::shared_ptr<const jvm::TierArtifact>)>
        publishJvmArtifact;
    /** When set on a baseline Java run, dynamic adjacent-pair counts
     *  are collected into it (host-side only, zero emission). */
    jvm::PairProfile *jvmPairSink = nullptr;
    /** Published stencil program to execute with (MipsiJit with a
     *  warm catalog). When absent the runner compiles one in-run,
     *  charged to Precompile. A poisoned artifact (debugPoison, or a
     *  build whose emit buffer overflowed) is never executed: the run
     *  falls back to the previous tier, mirroring debugPoisonIc. */
    std::shared_ptr<const jit::JitArtifact> jitArtifact;
    /** Invoked with the stencil program the run compiled (the tier
     *  manager's atomic-publish hook). */
    std::function<void(std::shared_ptr<const jit::JitArtifact>)>
        publishJitArtifact;
};

/** Everything measured from one run. */
struct Measurement
{
    Lang lang;
    std::string name;
    size_t programBytes = 0;
    uint64_t commands = 0;
    uint64_t cycles = 0;
    trace::Profile profile;
    sim::SlotBreakdown breakdown;
    double imissPer100 = 0;
    std::string stdoutText;
    bool finished = false;
    /**
     * The run aborted before producing results (a fatal program error
     * or an exception inside a suite job); `error` says why. Only the
     * parallel/suite helpers set this — a direct run() call propagates
     * the error instead.
     */
    bool failed = false;
    std::string error;
    /** Command names resolved from the interpreter's command set. */
    std::vector<std::string> commandNames;
};

/**
 * Run one benchmark under a Profile and (optionally) the Table 3
 * machine model.
 * @param extra_sinks  additional consumers of the instruction stream
 * @param machine_cfg  machine configuration (null = Table 3 default)
 * @param with_machine simulate timing (disable for counting-only runs)
 */
Measurement run(const BenchSpec &spec,
                const std::vector<trace::Sink *> &extra_sinks = {},
                const sim::MachineConfig *machine_cfg = nullptr,
                bool with_machine = true);

// --- suites ------------------------------------------------------------

/** The Table 2 macro suite (des in all languages + per-language apps). */
std::vector<BenchSpec> macroSuite();

/** One microbenchmark from Table 1, for one language. */
BenchSpec microBench(Lang lang, const std::string &op, int iterations);

/** The Table 1 microbenchmark names. */
std::vector<std::string> microOps();

/** Default per-language iteration counts for the micro suite. */
int microIterations(Lang lang);

} // namespace interp::harness

#endif // INTERP_HARNESS_RUNNER_HH
