/**
 * @file
 * Two-level indexed lookup tables for the ProSE special-function units.
 *
 * Section 3.2 / Figures 13-14: GELU and Exp are evaluated in one cycle by
 * a two-level LUT attached to each SIMD ALU. The first level is indexed by
 * the bfloat16 (sign, exponent) pair and selects a 128-entry second-level
 * table indexed by the 7-bit mantissa. The table only stores outputs for a
 * window of exponents; inputs outside the window are handled by cheap
 * boundary policies:
 *
 *  - GELU window [-4, 3]: below the window the output is approximated as
 *    0; above it, GELU(x) ~ x for positive x and ~ 0 for negative x.
 *    8 exponents x 2 signs x 128 mantissas x 2 bytes = 4 KiB.
 *  - Exp window [-6, 5]: below the window exp(x) ~ 1; above it the output
 *    saturates (largest-finite bfloat16 for positive inputs, 0 for
 *    negative). 12 x 2 x 128 x 2 bytes = 6 KiB.
 *
 * These sizes match the paper's "4 KB and 6 KB respectively".
 */

#ifndef PROSE_NUMERICS_LUT_HH
#define PROSE_NUMERICS_LUT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bfloat16.hh"

namespace prose {

/**
 * A hardware-faithful two-level special-function LUT over bfloat16.
 * Construction precomputes every in-window entry by rounding the reference
 * function; lookup() touches exactly one first-level and one second-level
 * entry, modelling the single-cycle indexed read.
 */
class TwoLevelLut
{
  public:
    /** What to produce for inputs whose exponent is outside the window. */
    enum class BoundaryPolicy
    {
        GeluLike, ///< below window -> 0; above -> x if x>0 else 0
        ExpLike,  ///< below window -> 1; above -> saturate (+max / 0)
    };

    /**
     * Build a table for `fn` covering unbiased exponents
     * [exp_lo, exp_hi] for both signs.
     *
     * @param name human-readable unit name ("GELU", "Exp")
     * @param fn reference function the table approximates
     * @param exp_lo lowest unbiased exponent stored
     * @param exp_hi highest unbiased exponent stored
     * @param policy out-of-window behaviour
     */
    TwoLevelLut(std::string name, std::function<float(float)> fn,
                int exp_lo, int exp_hi, BoundaryPolicy policy);

    /** Single-cycle lookup. Denormals and zeros take the below-window
     *  path; NaN propagates. */
    Bfloat16 lookup(Bfloat16 x) const;

    /** Convenience float-in/float-out wrapper (quantizes the input). */
    float lookupFloat(float x) const;

    /** Total second-level storage in bytes (the paper's 4 KB / 6 KB). */
    std::size_t storageBytes() const;

    /**
     * Flatten the two-level lookup into a 65536-entry table mapping
     * every bf16 bit pattern to the fp32 bit pattern of
     * lookup(pattern).toFloat(). Built by evaluating lookup() on each
     * input, so a flat read is bit-exact with the two-level read by
     * construction — including NaNs, denormals, and the boundary
     * policies. Every host-side GELU/Exp sweep reads this form
     * (kernels::KernelSet::lutRow gathers from it): the systolic
     * array's SIMD pass on every engine, from one process-wide table
     * per function, and BertModel, from its settable tables. Only the
     * test oracle's per-cycle rotation still calls lookup() directly.
     */
    std::vector<std::uint32_t> flattenToFloatBits() const;

    /** Number of second-level tables (sign x exponent combinations). */
    std::size_t segmentCount() const { return segments_.size(); }

    const std::string &name() const { return name_; }
    int exponentLow() const { return expLo_; }
    int exponentHigh() const { return expHi_; }

    /** Factory for the paper's GELU unit (window [-4, 3]). */
    static TwoLevelLut makeGelu();

    /** Factory for the paper's Exp unit (window [-6, 5]). */
    static TwoLevelLut makeExp();

  private:
    /** One second-level table: 128 bf16 outputs for a (sign, exp) pair. */
    struct Segment
    {
        std::vector<std::uint16_t> entries; // 128 bf16 bit patterns
    };

    /** First-level index for a (sign, unbiased exponent) pair. */
    std::size_t segmentIndex(int sign_bit, int exponent) const;

    /** Out-of-window result per the boundary policy. */
    Bfloat16 boundaryValue(Bfloat16 x, bool below_window) const;

    std::string name_;
    std::function<float(float)> fn_;
    int expLo_;
    int expHi_;
    BoundaryPolicy policy_;
    std::vector<Segment> segments_;
};

} // namespace prose

#endif // PROSE_NUMERICS_LUT_HH
