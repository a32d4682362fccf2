#include "systolic_array.hh"

#include <algorithm>
#include <cstring>

#include "common/arena.hh"
#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"
#include "numerics/float_bits.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "numerics/lut.hh"

namespace prose {
namespace {

/**
 * Process-wide flattened special-function tables for the SIMD column's
 * GELU/Exp pass. Every array instantiates the same fixed GELU/Exp
 * factories, so the 256 KiB flat map (bf16 input bits -> widened fp32
 * output bits) is shared and built once instead of per-array;
 * flattenToFloatBits() evaluates the two-level lookup on every input,
 * so reads are bit-identical to TwoLevelLut::lookup() by construction.
 */
const std::uint32_t *
flatLutTable(SimdOp op)
{
    static const std::vector<std::uint32_t> gelu_table =
        TwoLevelLut::makeGelu().flattenToFloatBits();
    static const std::vector<std::uint32_t> exp_table =
        TwoLevelLut::makeExp().flattenToFloatBits();
    return op == SimdOp::Gelu ? gelu_table.data() : exp_table.data();
}

} // namespace

const char *
toString(SimdOp op)
{
    switch (op) {
      case SimdOp::MulScalar:
        return "MulScalar";
      case SimdOp::AddScalar:
        return "AddScalar";
      case SimdOp::MulVector:
        return "MulVector";
      case SimdOp::AddVector:
        return "AddVector";
      case SimdOp::Gelu:
        return "Gelu";
      case SimdOp::Exp:
        return "Exp";
    }
    return "?";
}

SystolicArray::SystolicArray(const ArrayGeometry &geometry,
                             double a_supply_rate, double b_supply_rate)
    : geometry_(geometry),
      aBuffer_(geometry.bufferDepth, a_supply_rate),
      bBuffer_(geometry.bufferDepth, b_supply_rate)
{
    const std::size_t n = geometry_.dim;
    PROSE_ASSERT(n > 0, "zero-size systolic array");
    acc_.assign(n * n, 0.0f);
}

SystolicArray::EngineState
SystolicArray::captureState() const
{
    return EngineState{ acc_,
                        liveRows_,
                        liveCols_,
                        aBuffer_.state(),
                        bBuffer_.state(),
                        matmulCycles_,
                        simdCycles_,
                        stallCycles_,
                        macCount_,
                        simdOpCount_ };
}

void
SystolicArray::restoreState(const EngineState &state)
{
    acc_ = state.acc;
    liveRows_ = state.liveRows;
    liveCols_ = state.liveCols;
    aBuffer_.restore(state.aBuf);
    bBuffer_.restore(state.bBuf);
    matmulCycles_ = state.matmulCycles;
    simdCycles_ = state.simdCycles;
    stallCycles_ = state.stallCycles;
    macCount_ = state.macCount;
    simdOpCount_ = state.simdOpCount;
}

void
SystolicArray::assertEnginesAgree(const EngineState &stepped,
                                  const EngineState &fast,
                                  std::uint64_t stepped_ret,
                                  std::uint64_t fast_ret) const
{
    const std::size_t n = geometry_.dim;
    if (stepped_ret != fast_ret) {
        panic("validate(matmulTile): cycle returns diverge: stepped=",
              stepped_ret, " fast=", fast_ret);
    }
    if (stepped.liveRows != fast.liveRows ||
        stepped.liveCols != fast.liveCols) {
        panic("validate(matmulTile): live regions diverge: stepped=",
              stepped.liveRows, "x", stepped.liveCols,
              " fast=", fast.liveRows, "x", fast.liveCols);
    }
    const struct
    {
        const char *name;
        std::uint64_t steppedVal, fastVal;
    } counters[] = {
        { "matmulCycles", stepped.matmulCycles, fast.matmulCycles },
        { "simdCycles", stepped.simdCycles, fast.simdCycles },
        { "stallCycles", stepped.stallCycles, fast.stallCycles },
        { "macCount", stepped.macCount, fast.macCount },
        { "simdOpCount", stepped.simdOpCount, fast.simdOpCount },
        { "aBuffer stalls", stepped.aBuf.stalls, fast.aBuf.stalls },
        { "aBuffer consumed", stepped.aBuf.consumed,
          fast.aBuf.consumed },
        { "aBuffer fillTicks", stepped.aBuf.fillTicks,
          fast.aBuf.fillTicks },
        { "bBuffer stalls", stepped.bBuf.stalls, fast.bBuf.stalls },
        { "bBuffer consumed", stepped.bBuf.consumed,
          fast.bBuf.consumed },
        { "bBuffer fillTicks", stepped.bBuf.fillTicks,
          fast.bBuf.fillTicks },
    };
    for (const auto &c : counters) {
        if (c.steppedVal != c.fastVal) {
            panic("validate(matmulTile): ", c.name,
                  " diverges: stepped=", c.steppedVal,
                  " fast=", c.fastVal);
        }
    }
    if (!bitsEqual(stepped.aBuf.occupancy, fast.aBuf.occupancy) ||
        !bitsEqual(stepped.bBuf.occupancy, fast.bBuf.occupancy)) {
        panic("validate(matmulTile): buffer occupancy diverges: a ",
              stepped.aBuf.occupancy, " vs ", fast.aBuf.occupancy,
              ", b ", stepped.bBuf.occupancy, " vs ",
              fast.bBuf.occupancy);
    }
    if (!bitsEqual(stepped.acc.data(), fast.acc.data(),
                   stepped.acc.size())) {
        for (std::size_t idx = 0; idx < stepped.acc.size(); ++idx) {
            if (!bitsEqual(stepped.acc[idx], fast.acc[idx])) {
                panic("validate(matmulTile): accumulator (", idx / n,
                      ",", idx % n, ") diverges: stepped=",
                      stepped.acc[idx], " fast=", fast.acc[idx]);
            }
        }
    }
}

std::uint64_t
SystolicArray::matmulTile(const TileOperand &a, const TileOperand &b)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows;
    const std::size_t cols = b.cols;
    const std::size_t k_depth = a.cols;
    PROSE_ASSERT(rows > 0 && cols > 0 && k_depth > 0,
                 "empty matmul tile");
    PROSE_ASSERT(rows <= n && cols <= n,
                 "tile exceeds the array: ", rows, "x", cols,
                 " on ", n, "x", n);
    PROSE_ASSERT(b.rows == k_depth, "tile inner-dimension mismatch");

    std::uint64_t cycles = 0;
    switch (mode_) {
      case FsimMode::Fast:
        cycles = fastMatmulTile(a, b);
        break;
      case FsimMode::Stepped:
        cycles = steppedMatmulTile(a, b);
        break;
      case FsimMode::Validate: {
        const EngineState pre = captureState();
        const std::uint64_t fast_ret = fastMatmulTile(a, b);
        const EngineState fast_post = captureState();
        restoreState(pre);
        cycles = steppedMatmulTile(a, b);
        assertEnginesAgree(captureState(), fast_post, cycles, fast_ret);
        break;
      }
    }

    // Faults are one post-tile transform. Every engine leaves the same
    // accumulator bits behind (Validate has already compared both runs'
    // pre-corruption state), so corrupting once here gives every mode
    // the identical fault sequence: one injector pass per tile, in
    // schedule order, whatever engine computed the tile.
    if (injector_) {
        injector_->corruptAccumulators(faultSite_, acc_.data(), n,
                                       liveRows_, liveCols_);
    }
    return cycles;
}

std::uint64_t
SystolicArray::matmulTile(const Matrix &a, const Matrix &b)
{
    // Quantize into per-thread arena scratch once, then run the
    // zero-copy view path. External callers (tests, the DSE micro
    // kernels) keep the Matrix interface; the fused fsim pipeline
    // quantizes whole operands up front and builds views itself.
    const kernels::KernelSet &ks = kernels::activeKernels();
    Arena &arena = Arena::threadLocal();
    Arena::Scope scope(arena);
    float *wa = arena.alloc<float>(a.size());
    ks.quantizeRoundtripRow(wa, a.data(), a.size());
    float *wb = arena.alloc<float>(b.size());
    ks.quantizeRoundtripRow(wb, b.data(), b.size());
    return matmulTile(TileOperand{ wa, a.cols(), a.rows(), a.cols() },
                      TileOperand{ wb, b.cols(), b.rows(), b.cols() });
}

std::uint64_t
SystolicArray::steppedMatmulTile(const TileOperand &a, const TileOperand &b)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows;
    const std::size_t cols = b.cols;
    const std::size_t k_depth = a.cols;

    liveRows_ = std::max(liveRows_, rows);
    liveCols_ = std::max(liveCols_, cols);

    // The wavefront machine, re-sorted by anti-diagonal. PE(i, j)
    // latches A(i, k') and B(k', j) together at wavefront w = i + j +
    // k', so the PEs that MAC at any one cycle all sit on the diagonal
    // d = i + j = w - k' and touch disjoint accumulators; evaluating a
    // whole diagonal at once cannot reorder any accumulator's op
    // sequence. Walking d outer and k' inner ascending replays, for
    // every accumulator, exactly the scalar walk's ascending-k' MAC
    // order — each product and sum rounds separately in the kernels
    // (-ffp-contract=off, no FMA), and the widened operand planes hold
    // what the scalar walk's edge latch quantizes, by the TileOperand
    // invariant.
    //
    // Structure-of-arrays planes (per-thread arena scratch) make each
    // (d, k') sweep one contiguous elementwise MAC row:
    //   aT[k'*rows + i]          = A(i, k')                 (k-major)
    //   bR[k'*cols + cols-1-j]   = B(k', j)                 (reversed)
    //   accD[diagBase(d) + t]    = acc(i0(d)+t, d-i0(d)-t)  (diag-major)
    // On diagonal d, element t has i = i0 + t and j = d - i0 - t, so
    // its A value lives at aT offset t and its B value at bR offset t
    // from the slice bases below — all three streams advance together.
    const kernels::KernelSet &ks = kernels::activeKernels();
    Arena &arena = Arena::threadLocal();
    Arena::Scope scope(arena);

    float *aT = arena.alloc<float>(k_depth * rows);
    for (std::size_t k = 0; k < k_depth; ++k) {
        float *dst = aT + k * rows;
        for (std::size_t i = 0; i < rows; ++i)
            dst[i] = a.data[i * a.stride + k];
    }

    float *bR = arena.alloc<float>(k_depth * cols);
    for (std::size_t k = 0; k < k_depth; ++k) {
        float *row = bR + k * cols;
        const float *src = b.data + k * b.stride;
        for (std::size_t j = 0; j < cols; ++j)
            row[cols - 1 - j] = src[j];
    }

    // Gather the tile's accumulators diag-major, sweep, scatter back.
    const std::size_t ndiag = rows + cols - 1;
    float *accD = arena.alloc<float>(rows * cols);
    std::size_t base = 0;
    for (std::size_t d = 0; d < ndiag; ++d) {
        const std::size_t i0 = d >= cols ? d - cols + 1 : 0;
        const std::size_t len = std::min(rows - 1, d) - i0 + 1;
        for (std::size_t t = 0; t < len; ++t)
            accD[base + t] = acc_[(i0 + t) * n + (d - i0 - t)];
        base += len;
    }
    base = 0;
    for (std::size_t d = 0; d < ndiag; ++d) {
        const std::size_t i0 = d >= cols ? d - cols + 1 : 0;
        const std::size_t len = std::min(rows - 1, d) - i0 + 1;
        const std::size_t j0 = d - i0; ///< largest j on the diagonal
        float *adiag = accD + base;
        for (std::size_t k = 0; k < k_depth; ++k) {
            ks.mulAccRowF32(adiag, aT + k * rows + i0,
                            bR + k * cols + (cols - 1 - j0), len);
        }
        base += len;
    }
    base = 0;
    for (std::size_t d = 0; d < ndiag; ++d) {
        const std::size_t i0 = d >= cols ? d - cols + 1 : 0;
        const std::size_t len = std::min(rows - 1, d) - i0 + 1;
        for (std::size_t t = 0; t < len; ++t)
            acc_[(i0 + t) * n + (d - i0 - t)] = accD[base + t];
        base += len;
    }
    macCount_ += static_cast<std::uint64_t>(rows) * cols * k_depth;

    // Idle-cycle elision: every cycle's register shuffling is gone, so
    // only the stream-buffer gating is left to advance the cycle,
    // stall, and consume counters — the same closed-form/replay
    // machinery the fast engine uses, bit-equal to the scalar walk.
    return fastForwardMatmulGating(rows, cols, k_depth);
}

std::uint64_t
SystolicArray::fastMatmulTile(const TileOperand &a, const TileOperand &b)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows;
    const std::size_t cols = b.cols;
    const std::size_t k_depth = a.cols;

    liveRows_ = std::max(liveRows_, rows);
    liveCols_ = std::max(liveCols_, cols);

    // PE(i, j) latches A(i, k') and B(k', j) together at wavefront
    // k' + i + j, so its MACs execute in ascending-k' order — the GEMM
    // microkernel performs the identical sequence of fp32 operations
    // per accumulator (it vectorizes across independent j lanes only),
    // streaming the caller's widened bf16 planes with no per-tile copy
    // or re-quantization; they hold what the stepped edge latch
    // computes, by the TileOperand invariant.
    //
    // The fp32 core runs depth-blocked so the live B panel (kb * cols *
    // 4 B = 32 KiB) stays L1-resident across the core's row groups.
    // Ascending kb preserves the per-accumulator ascending-k' MAC order
    // exactly.
    const kernels::KernelSet &ks = kernels::activeKernels();
    const std::size_t kb_step =
        std::max<std::size_t>(64, (32 * 1024 / sizeof(float)) / cols);
    for (std::size_t kb = 0; kb < k_depth; kb += kb_step) {
        const std::size_t kd = std::min(kb_step, k_depth - kb);
        ks.gemmTileF32(acc_.data(), n, a.data + kb, a.stride,
                       b.data + kb * b.stride, b.stride, rows, cols, kd);
    }
    macCount_ += static_cast<std::uint64_t>(rows) * cols * k_depth;

    return fastForwardMatmulGating(rows, cols, k_depth);
}

std::uint64_t
SystolicArray::fastForwardMatmulGating(std::size_t rows,
                                       std::size_t cols,
                                       std::size_t k_depth)
{
    const std::uint64_t advances = k_depth + rows + cols - 2;
    const std::uint64_t a_inject_end = k_depth + rows - 1;
    const std::uint64_t b_inject_end = k_depth + cols - 1;

    if (aBuffer_.idealSupply() && bBuffer_.idealSupply()) {
        // Availability can never fail, so every cycle advances the
        // wavefront: `advances` cycles, zero stalls, and each side
        // consumes one entry for each of its injection wavefronts.
        aBuffer_.fastForwardIdeal(advances, a_inject_end);
        bBuffer_.fastForwardIdeal(advances, b_inject_end);
        matmulCycles_ += advances;
        return advances;
    }

    // Constant sub-capacity fill rates: replay only the O(1)-per-cycle
    // gate recurrence. The repeated clamped additions are not
    // associative in floating point, so an occupancy = o0 + t * rate
    // closed form would not be bit-equal; replaying the identical
    // sequence of occupancy operations is. The O(dim^2) PE sweep — where
    // virtually all the stepped engine's time goes — is still skipped.
    std::uint64_t cycles = 0;
    std::uint64_t wavefront = 0;
    while (wavefront < advances) {
        ++cycles;
        aBuffer_.fillTick();
        bBuffer_.fillTick();
        const bool need_a = wavefront < a_inject_end;
        const bool need_b = wavefront < b_inject_end;
        if ((need_a && !aBuffer_.available()) ||
            (need_b && !bBuffer_.available())) {
            if (need_a && !aBuffer_.available())
                aBuffer_.noteStall();
            if (need_b && !bBuffer_.available())
                bBuffer_.noteStall();
            ++stallCycles_;
            continue;
        }
        if (need_a)
            aBuffer_.consume();
        if (need_b)
            bBuffer_.consume();
        ++wavefront;
    }
    matmulCycles_ += cycles;
    return cycles;
}

std::uint64_t
SystolicArray::simdScalar(SimdOp op, float scalar)
{
    PROSE_ASSERT(op == SimdOp::MulScalar || op == SimdOp::AddScalar,
                 "simdScalar needs a scalar op");
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    // A full rotation returns the tile to its original orientation and
    // feeds every live element through the ALU exactly once, so the
    // pass is an in-place elementwise map on the SIMD-row kernels (the
    // per-cycle rotation itself is the test oracle's, in
    // tests/systolic/scalar_walk_array.hh). The broadcast operand's
    // bf16 quantization is hoisted out of the loop — the ALU quantizes
    // the same scalar to the same bits every cycle.
    const std::size_t n = geometry_.dim;
    const kernels::KernelSet &ks = kernels::activeKernels();
    const float q = quantizeBf16(scalar);
    for (std::size_t i = 0; i < liveRows_; ++i) {
        float *row = acc_.data() + i * n;
        if (op == SimdOp::MulScalar)
            ks.simdMulScalarRow(row, q, liveCols_);
        else
            ks.simdAddScalarRow(row, q, liveCols_);
    }
    simdOpCount_ += static_cast<std::uint64_t>(liveRows_) * liveCols_;
    simdCycles_ += liveCols_;
    return liveCols_;
}

std::uint64_t
SystolicArray::simdVector(SimdOp op, const TileSpan &operand)
{
    PROSE_ASSERT(op == SimdOp::MulVector || op == SimdOp::AddVector,
                 "simdVector needs a vector op");
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    PROSE_ASSERT((operand.broadcastRow || operand.rows >= liveRows_) &&
                     operand.cols >= liveCols_,
                 "vector operand smaller than the live tile");
    // The rotated tile's column 0 during pass j is original column j,
    // so the in-place map pairs element (i, j) with operand(i, j); each
    // accumulator row runs on the SIMD vector-row kernel against the
    // matching operand row (row 0 throughout when broadcasting).
    const std::size_t n = geometry_.dim;
    const kernels::KernelSet &ks = kernels::activeKernels();
    for (std::size_t i = 0; i < liveRows_; ++i) {
        float *row = acc_.data() + i * n;
        const float *vrow =
            operand.data +
            (operand.broadcastRow ? 0 : i) * operand.stride;
        if (op == SimdOp::MulVector)
            ks.simdMulVectorRow(row, vrow, liveCols_);
        else
            ks.simdAddVectorRow(row, vrow, liveCols_);
    }
    simdOpCount_ += static_cast<std::uint64_t>(liveRows_) * liveCols_;

    if (aBuffer_.idealSupply()) {
        // One operand column consumed per pass, never starving.
        aBuffer_.fastForwardIdeal(liveCols_, liveCols_);
        simdCycles_ += liveCols_;
        return liveCols_;
    }

    // The vector register streams one operand column per pass through
    // the west-edge path, and starving it stalls the rotation. Gate
    // replay (see fastForwardMatmulGating for why this is a replay,
    // not a formula).
    std::uint64_t cycles = 0;
    std::size_t pass = 0;
    while (pass < liveCols_) {
        ++cycles;
        ++simdCycles_;
        aBuffer_.fillTick();
        if (!aBuffer_.available()) {
            aBuffer_.noteStall();
            ++stallCycles_;
            continue;
        }
        aBuffer_.consume();
        ++pass;
    }
    return cycles;
}

std::uint64_t
SystolicArray::simdVector(SimdOp op, const Matrix &operand)
{
    return simdVector(op, TileSpan{ operand.data(), operand.cols(),
                                    operand.rows(), operand.cols(),
                                    false });
}

std::uint64_t
SystolicArray::simdSpecial(SimdOp op)
{
    PROSE_ASSERT(op == SimdOp::Gelu || op == SimdOp::Exp,
                 "simdSpecial needs a special-function op");
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    PROSE_ASSERT(op != SimdOp::Gelu || geometry_.hasGelu,
                 "GELU issued to an array without GELU LUTs (",
                 geometry_.describe(), ")");
    PROSE_ASSERT(op != SimdOp::Exp || geometry_.hasExp,
                 "Exp issued to an array without Exp LUTs (",
                 geometry_.describe(), ")");
    // The ALU reads the accumulator's top 16 bits, so the two-level
    // lookup is a pure function of those bits: one flat-table gather
    // per element.
    const std::size_t n = geometry_.dim;
    const std::uint32_t *table = flatLutTable(op);
    const kernels::KernelSet &ks = kernels::activeKernels();
    for (std::size_t i = 0; i < liveRows_; ++i)
        ks.lutRow(acc_.data() + i * n, table, liveCols_);
    simdOpCount_ += static_cast<std::uint64_t>(liveRows_) * liveCols_;
    simdCycles_ += liveCols_;
    return liveCols_;
}

std::uint64_t
SystolicArray::drainTo(float *dst, std::size_t stride)
{
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0, "drain with no live tile");
    const std::size_t n = geometry_.dim;
    // One column exits through the OUTPUT port per cycle; the port taps
    // accumulator bits [31:16] (truncation to bf16). This is already
    // closed form — one pass over the live region — so both execution
    // engines share it. The sweep runs row-wise on the truncate kernel;
    // each element is an independent bit-mask, so the traversal order
    // is immaterial to the values, and the cycle count stays one per
    // live column.
    const kernels::KernelSet &ks = kernels::activeKernels();
    for (std::size_t i = 0; i < liveRows_; ++i)
        ks.truncateRow(dst + i * stride, acc_.data() + i * n, liveCols_);
    simdCycles_ += liveCols_;
    const std::uint64_t cycles = liveCols_;
    clearAccumulators();
    return cycles;
}

std::uint64_t
SystolicArray::drain(Matrix &out)
{
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0, "drain with no live tile");
    out = Matrix(liveRows_, liveCols_);
    return drainTo(out.data(), out.cols());
}

void
SystolicArray::clearAccumulators()
{
    std::fill(acc_.begin(), acc_.end(), 0.0f);
    liveRows_ = 0;
    liveCols_ = 0;
}

Matrix
SystolicArray::accumulators() const
{
    Matrix out(liveRows_, liveCols_);
    const std::size_t n = geometry_.dim;
    for (std::size_t i = 0; i < liveRows_; ++i)
        for (std::size_t j = 0; j < liveCols_; ++j)
            out(i, j) = acc_[i * n + j];
    return out;
}

void
SystolicArray::overwriteAccumulator(std::size_t row, std::size_t col,
                                    float value)
{
    PROSE_ASSERT(row < liveRows_ && col < liveCols_,
                 "accumulator repair outside the live region: ", row,
                 ",", col);
    acc_[row * geometry_.dim + col] = value;
}

void
SystolicArray::absorbStats(const SystolicArray &other)
{
    matmulCycles_ += other.matmulCycles_;
    simdCycles_ += other.simdCycles_;
    stallCycles_ += other.stallCycles_;
    macCount_ += other.macCount_;
    simdOpCount_ += other.simdOpCount_;
}

void
SystolicArray::setFaultInjector(FaultInjector *injector,
                                std::string site_id)
{
    injector_ = injector;
    faultSite_ = std::move(site_id);
}

double
SystolicArray::elapsedSeconds() const
{
    return static_cast<double>(matmulCycles_) / geometry_.matmulClockHz +
           static_cast<double>(simdCycles_) / geometry_.simdClockHz;
}

} // namespace prose
