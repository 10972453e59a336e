/**
 * @file
 * The golden contract every tier-ladder rung is held to against its
 * faithful baseline. A §5 remedy, a tier-2 mode and a jit mode all
 * run the same program with the same observable behaviour; only the
 * fetch/decode stage and the §3.3 memory-model slice of execute may
 * shrink.
 */

#ifndef INTERP_HARNESS_LADDER_HH
#define INTERP_HARNESS_LADDER_HH

#include <string>
#include <vector>

#include "harness/runner.hh"

namespace interp::harness {

/**
 * The clauses @p rung breaks against @p base (empty when it keeps
 * them all), named:
 *  - "stdout", "commands", "command names": identical;
 *  - "retired", "nativeLib": identical per command;
 *  - "execute": identical per command, for rung-1 modes;
 *  - "execute-memModel": identical per command, for rung-2 and
 *    rung-3 modes, whose inline caches may change only the
 *    memory-model slice;
 *  - "fetch/decode": the total does not rise;
 *  - "fetch/decode+memModel": the total does not rise.
 * The rung is rungOf(rung.lang).
 */
std::vector<std::string> checkLadderContract(const Measurement &base,
                                             const Measurement &rung);

} // namespace interp::harness

#endif // INTERP_HARNESS_LADDER_HH
