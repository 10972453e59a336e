/**
 * @file
 * JitArtifact: an immutable compiled stencil program.
 *
 * The tier-3 template compiler is deliberately minimal (the "fast
 * in-place interpreter" / template-JIT shape): for a program of N
 * steps — guest instructions for MipsiJit — it concatenates N
 * copies of one per-step native stencil
 * into an ExecBuffer. Each stencil calls back into a C++ helper
 * (StepFn) that performs the step's real work *and* emits its full
 * synthetic trace, then either falls through to the next stencil
 * (straight-line execution, no fetch/decode) or returns out of the
 * region (taken control transfer, exhausted budget, exit). The host
 * re-enters at the stencil of the new target, so all control flow is
 * re-checked in C++ and the native region never needs relocations or
 * patching.
 *
 * On hosts without the x86-64 backend (or where executable anonymous
 * memory is refused) enter() walks the same step sequence in C++,
 * calling the same helpers — attribution is byte-identical by
 * construction, only host-native speed differs.
 *
 * Artifacts are immutable after build() and safe to share across
 * threads (the same publish-once discipline as jvm::TierArtifact).
 * debugPoison() marks an artifact unusable — runners must fall back
 * to the previous tier, mirroring jvm::Vm::debugPoisonIc.
 */

#ifndef INTERP_JIT_ARTIFACT_HH
#define INTERP_JIT_ARTIFACT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "jit/exec_buffer.hh"

namespace interp::jit {

/**
 * Per-step helper: executes step @p index against @p ctx. A zero
 * return falls through to the next stencil; nonzero leaves the
 * region (the caller decides whether to re-enter). Must not let
 * exceptions escape — native frames have no unwind tables, so
 * helpers stash and re-raise after enter() returns.
 */
using StepFn = uint8_t (*)(void *ctx, uint32_t index);

class JitArtifact
{
  public:
    /**
     * Compile a stencil program of @p steps steps around @p fn.
     * @p capacity_bytes overrides the emit-buffer size (tests force a
     * too-small buffer to exercise the contained overflow fatal);
     * zero sizes it exactly. Never returns null: when native code
     * cannot be emitted the artifact runs in portable mode.
     */
    static std::shared_ptr<const JitArtifact>
    build(StepFn fn, uint32_t steps, size_t capacity_bytes = 0);

    /**
     * Run the program from step @p start until a helper returns
     * nonzero or the last step falls through. Entering a poisoned
     * artifact is a contained fatal().
     */
    void enter(void *ctx, uint32_t start) const;

    uint32_t numSteps() const { return steps_; }
    /** True when enter() executes emitted machine code. */
    bool native() const { return native_; }
    /** Emitted native bytes (0 in portable mode). */
    size_t codeBytes() const { return native_ ? buf_.used() : 0; }

    /** Test hook: mark the artifact unusable (callers must fall back
     *  one tier — the tier-3 analogue of debugPoisonIc). */
    void debugPoison() const { poisoned_.store(true); }
    bool poisoned() const { return poisoned_.load(); }

    /** Native stencil sizes (x86-64 backend; exposed for tests). */
    static constexpr size_t kEntryBytes = 18;
    static constexpr size_t kStencilBytes = 25;

  private:
    JitArtifact() = default;

    StepFn fn_ = nullptr;
    uint32_t steps_ = 0;
    bool native_ = false;
    ExecBuffer buf_;
    std::vector<uint32_t> offsets_; ///< per-step byte offset in buf_
    mutable std::atomic<bool> poisoned_{false};
};

} // namespace interp::jit

#endif // INTERP_JIT_ARTIFACT_HH
