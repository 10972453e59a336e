/**
 * @file
 * Deterministic workload inputs for the benchmark suite.
 *
 * The paper's programs consumed real files (C sources, HTML pages,
 * HTTP logs); those are substituted with synthetic generators seeded
 * from a fixed RNG so every run of every benchmark is reproducible.
 */

#ifndef INTERP_HARNESS_WORKLOADS_HH
#define INTERP_HARNESS_WORKLOADS_HH

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "vfs/vfs.hh"

namespace interp::harness {

/** Read a program source from the repository's programs/ directory. */
std::string loadProgram(const std::string &relative_path);

// --- execution-mode selection ------------------------------------------

/** Which execution modes a bench driver should run. */
enum class ModeSet : uint8_t
{
    Baseline, ///< the five faithful modes only (the default)
    Remedies, ///< only the three §5 remedy modes
    All,      ///< baselines first, then the remedy modes
    Jit,      ///< only the tier-3 jit mode (mipsi-jit)
};

/**
 * Parse a `--modes=baseline|remedies|all|jit` argument if present
 * (fatal on an unknown value); other arguments are left alone.
 */
ModeSet parseModes(int argc, char **argv);

/**
 * Expand @p suite for @p mode: Baseline returns it unchanged;
 * Remedies keeps only rows whose language has a §5 remedy, retargeted
 * to the remedy mode; All appends the remedy rows after the
 * baselines; Jit keeps only rows whose language has a template
 * backend, retargeted to the jit mode. Row order within a language is
 * preserved.
 *
 * Takes the suite by value so `withModes(macroSuite(), modes)` in the
 * default Baseline case is a pure move — the driver's allocation
 * sequence (which the deterministic heap, and hence simulated data
 * aliasing at `--jobs 1`, depends on) is exactly what it was without
 * the call.
 */
std::vector<BenchSpec> withModes(std::vector<BenchSpec> suite,
                                 ModeSet mode);

/** Text with word-level redundancy, good for LZW (compress.in). */
std::string compressInput(size_t approx_bytes);

/** Assignment-statement pseudo source for cc1like (cc1.in). */
std::string cc1Input(size_t statements);

/** Method/statement pseudo source for javac (javac.in). */
std::string javacInput(size_t methods);

/** Paragraphs with headings, URLs and emphasis (txt2html.in). */
std::string txt2htmlInput(size_t lines);

/** HTML with seeded nesting errors (weblint.in). */
std::string weblintInput(size_t lines);

/** Plain text with tabs and long lines (a2ps.in). */
std::string a2psInput(size_t lines);

/** HTTP request log, one connection per paragraph (requests.in). */
std::string plexusInput(size_t requests);

/** C-like source to tokenize (tcllex.in). */
std::string tcllexInput(size_t lines);

/** Tcl-like source with proc/set definitions (tcltags.in). */
std::string tcltagsInput(size_t lines);

/** A 4 KB file for the `read` microbenchmark. */
std::string readFileInput();

/** Text lines probed by the rxmatch backtracking-matcher workload. */
std::string rxmatchInput(size_t lines);

/** Install every input file into @p fs under its canonical name. */
void installAllInputs(vfs::FileSystem &fs);

} // namespace interp::harness

#endif // INTERP_HARNESS_WORKLOADS_HH
