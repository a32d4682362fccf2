/**
 * @file
 * Test oracle: the register-accurate scalar PE walk of one ProSE
 * systolic array — the literal machine of Figure 5 that both production
 * engines (diagonal-batched stepped, fast-forward) must reproduce bit
 * for bit.
 *
 * Every matmul cycle shifts the A registers east and the B registers
 * south, latches the skewed, bf16-quantized edge elements, and lets
 * every PE holding two valid operands MAC into its fp32 accumulator —
 * O(dim^2) work per cycle, gated by the same two stream buffers. SIMD
 * passes rotate the live region left through the ALU column one cycle
 * at a time, and the OUTPUT port truncates to bf16. An attached fault
 * injector corrupts the live region once after each matmul tile, the
 * post-tile transform every production engine shares.
 *
 * The oracle mirrors the subset of SystolicArray's interface the
 * differential tests and fuzz_engine_equiv drive, so one templated
 * routine can replay the same op sequence on either.
 */

#ifndef PROSE_TESTS_SYSTOLIC_SCALAR_WALK_ARRAY_HH
#define PROSE_TESTS_SYSTOLIC_SCALAR_WALK_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "numerics/lut.hh"
#include "numerics/matrix.hh"
#include "systolic/array_config.hh"
#include "systolic/stream_buffer.hh"
#include "systolic/systolic_array.hh"

namespace prose {

class FaultInjector;

class ScalarWalkArray
{
  public:
    explicit ScalarWalkArray(const ArrayGeometry &geometry,
                             double a_supply_rate = 1e18,
                             double b_supply_rate = 1e18);

    /** C += A x B by the cycle-by-cycle PE walk; returns cycles. */
    std::uint64_t matmulTile(const Matrix &a, const Matrix &b);
    std::uint64_t simdScalar(SimdOp op, float scalar);
    std::uint64_t simdVector(SimdOp op, const Matrix &operand);
    std::uint64_t simdSpecial(SimdOp op);
    std::uint64_t drain(Matrix &out);

    /** fp32 accumulators of the live region. */
    Matrix accumulators() const;

    void setFaultInjector(FaultInjector *injector, std::string site_id);

    StreamBuffer &aBuffer() { return aBuffer_; }
    StreamBuffer &bBuffer() { return bBuffer_; }
    const StreamBuffer &aBuffer() const { return aBuffer_; }
    const StreamBuffer &bBuffer() const { return bBuffer_; }

    std::uint64_t matmulCycles() const { return matmulCycles_; }
    std::uint64_t simdCycles() const { return simdCycles_; }
    std::uint64_t stallCycles() const { return stallCycles_; }
    std::uint64_t macCount() const { return macCount_; }
    std::uint64_t simdOpCount() const { return simdOpCount_; }

  private:
    /** PE-register state for the matmul wavefront. */
    struct Lane
    {
        std::vector<float> value;
        std::vector<std::uint8_t> valid;
    };

    /** Advance the matmul wavefront by one cycle. */
    void stepMatmulCycle(const Matrix &a, const Matrix &b,
                         std::uint64_t wavefront);

    /** One ALU op on a single element (reads acc bits [31:16]). */
    float applyAlu(SimdOp op, float acc_value, float operand) const;

    /** Rotate the live region left one column; `results` enter on the
     *  east edge. */
    void rotateLeft(const std::vector<float> &results);

    ArrayGeometry geometry_;
    FaultInjector *injector_ = nullptr;
    std::string faultSite_;
    StreamBuffer aBuffer_;
    StreamBuffer bBuffer_;
    TwoLevelLut geluLut_;
    TwoLevelLut expLut_;

    std::vector<float> acc_; ///< n*n fp32 accumulators
    Lane aReg_;              ///< eastward-flowing operand registers
    Lane bReg_;              ///< southward-flowing operand registers
    std::size_t liveRows_ = 0;
    std::size_t liveCols_ = 0;

    std::uint64_t matmulCycles_ = 0;
    std::uint64_t simdCycles_ = 0;
    std::uint64_t stallCycles_ = 0;
    std::uint64_t macCount_ = 0;
    std::uint64_t simdOpCount_ = 0;
};

} // namespace prose

#endif // PROSE_TESTS_SYSTOLIC_SCALAR_WALK_ARRAY_HH
