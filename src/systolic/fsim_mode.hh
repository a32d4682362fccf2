/**
 * @file
 * Matmul-engine selection for the functional simulation of the
 * systolic arrays. The engines differ only in how a matmul tile runs:
 * the cycle-stepped wavefront model (diagonal-batched) is the
 * reference; the fast-forward engine computes the same register file
 * and the same cycle/stall/MAC counters with the GEMM microkernels
 * and closed-form counters (or an O(1)-per-cycle gate replay under
 * starving or non-uniform supply), which is what makes full-model
 * functional runs, fault drills, LUT-accuracy sweeps, and validated DSE
 * routinely affordable. SIMD passes and the drain have one body that
 * every mode runs. Every mode accepts fault injection, ABFT and fill
 * profiles.
 *
 * The mode can be chosen per array / per simulator through the API, or
 * process-wide through the PROSE_FSIM_MODE environment variable
 * ("fast", "stepped", "validate"). `validate` runs BOTH engines on
 * every matmul tile and panics unless the register file, cycle
 * counters, stall counters, and stream-buffer states agree bit-for-bit.
 */

#ifndef PROSE_SYSTOLIC_FSIM_MODE_HH
#define PROSE_SYSTOLIC_FSIM_MODE_HH

namespace prose {

/** Functional-simulation matmul engine. */
enum class FsimMode
{
    Fast,     ///< fast-forward: closed-form / gate-replay counters
    Stepped,  ///< the cycle-stepped reference wavefront machine
    Validate, ///< run both engines, assert bit/cycle/stall equality
};

const char *toString(FsimMode mode);

/**
 * Parse a mode name ("fast" / "stepped" / "validate", case-sensitive).
 * fatal()s on anything else.
 */
FsimMode parseFsimMode(const char *name);

/**
 * Process-wide default: PROSE_FSIM_MODE if set (invalid values warn and
 * fall back), otherwise FsimMode::Fast. Read once and cached.
 */
FsimMode defaultFsimMode();

} // namespace prose

#endif // PROSE_SYSTOLIC_FSIM_MODE_HH
