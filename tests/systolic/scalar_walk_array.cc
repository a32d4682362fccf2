#include "scalar_walk_array.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"

namespace prose {

ScalarWalkArray::ScalarWalkArray(const ArrayGeometry &geometry,
                                 double a_supply_rate,
                                 double b_supply_rate)
    : geometry_(geometry),
      aBuffer_(geometry.bufferDepth, a_supply_rate),
      bBuffer_(geometry.bufferDepth, b_supply_rate),
      geluLut_(TwoLevelLut::makeGelu()), expLut_(TwoLevelLut::makeExp())
{
    const std::size_t n = geometry_.dim;
    PROSE_ASSERT(n > 0, "zero-size systolic array");
    acc_.assign(n * n, 0.0f);
    aReg_.value.assign(n * n, 0.0f);
    aReg_.valid.assign(n * n, 0);
    bReg_.value.assign(n * n, 0.0f);
    bReg_.valid.assign(n * n, 0);
}

void
ScalarWalkArray::stepMatmulCycle(const Matrix &a, const Matrix &b,
                                 std::uint64_t wavefront)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows();
    const std::size_t cols = b.cols();
    const std::int64_t k_depth = static_cast<std::int64_t>(a.cols());

    // Shift the A registers east: PE(i, j) latches what PE(i, j-1) held.
    for (std::size_t i = 0; i < n; ++i) {
        float *vrow = aReg_.value.data() + i * n;
        std::uint8_t *frow = aReg_.valid.data() + i * n;
        for (std::size_t j = n; j-- > 1;) {
            vrow[j] = vrow[j - 1];
            frow[j] = frow[j - 1];
        }
        // West-edge injection, skewed by row index (delay slots). The
        // edge latch quantizes the incoming fp32 element to bf16.
        const std::int64_t k = static_cast<std::int64_t>(wavefront) -
                               static_cast<std::int64_t>(i);
        if (i < rows && k >= 0 && k < k_depth) {
            vrow[0] = quantizeBf16(a(i, static_cast<std::size_t>(k)));
            frow[0] = 1;
        } else {
            vrow[0] = 0.0f;
            frow[0] = 0;
        }
    }

    // Shift the B registers south: PE(i, j) latches what PE(i-1, j) held.
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = n; i-- > 1;) {
            bReg_.value[i * n + j] = bReg_.value[(i - 1) * n + j];
            bReg_.valid[i * n + j] = bReg_.valid[(i - 1) * n + j];
        }
        const std::int64_t k = static_cast<std::int64_t>(wavefront) -
                               static_cast<std::int64_t>(j);
        if (j < cols && k >= 0 && k < k_depth) {
            bReg_.value[j] = quantizeBf16(b(static_cast<std::size_t>(k), j));
            bReg_.valid[j] = 1;
        } else {
            bReg_.value[j] = 0.0f;
            bReg_.valid[j] = 0;
        }
    }

    // Every PE with two freshly-latched valid operands performs a MAC.
    for (std::size_t idx = 0; idx < n * n; ++idx) {
        if (aReg_.valid[idx] && bReg_.valid[idx]) {
            acc_[idx] += aReg_.value[idx] * bReg_.value[idx];
            ++macCount_;
        }
    }
}

std::uint64_t
ScalarWalkArray::matmulTile(const Matrix &a, const Matrix &b)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows();
    const std::size_t cols = b.cols();
    const std::size_t k_depth = a.cols();
    PROSE_ASSERT(rows > 0 && cols > 0 && k_depth > 0,
                 "empty matmul tile");
    PROSE_ASSERT(rows <= n && cols <= n, "tile exceeds the array");
    PROSE_ASSERT(b.rows() == k_depth, "tile inner-dimension mismatch");

    liveRows_ = std::max(liveRows_, rows);
    liveCols_ = std::max(liveCols_, cols);

    // Clear stale wavefront state from a previous tile.
    std::fill(aReg_.valid.begin(), aReg_.valid.end(), 0);
    std::fill(bReg_.valid.begin(), bReg_.valid.end(), 0);

    // Injections last k + edge - 1 wavefronts per side; the full product
    // finishes after k + rows + cols - 2 advances.
    const std::uint64_t advances = k_depth + rows + cols - 2;
    const std::uint64_t a_inject_end = k_depth + rows - 1;
    const std::uint64_t b_inject_end = k_depth + cols - 1;

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
            // Either edge starving freezes the whole wavefront.
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
        stepMatmulCycle(a, b, wavefront);
        ++wavefront;
    }
    matmulCycles_ += cycles;
    if (injector_) {
        injector_->corruptAccumulators(faultSite_, acc_.data(), n,
                                       liveRows_, liveCols_);
    }
    return cycles;
}

float
ScalarWalkArray::applyAlu(SimdOp op, float acc_value, float operand) const
{
    const float x = truncateBf16(acc_value);
    switch (op) {
      case SimdOp::MulScalar:
      case SimdOp::MulVector:
        return quantizeBf16(x * quantizeBf16(operand));
      case SimdOp::AddScalar:
      case SimdOp::AddVector:
        return quantizeBf16(x + quantizeBf16(operand));
      case SimdOp::Gelu:
        PROSE_ASSERT(geometry_.hasGelu, "GELU on an array without LUTs");
        return geluLut_.lookup(truncateToBf16(acc_value)).toFloat();
      case SimdOp::Exp:
        PROSE_ASSERT(geometry_.hasExp, "Exp on an array without LUTs");
        return expLut_.lookup(truncateToBf16(acc_value)).toFloat();
    }
    panic("unreachable SIMD op");
}

void
ScalarWalkArray::rotateLeft(const std::vector<float> &results)
{
    const std::size_t n = geometry_.dim;
    for (std::size_t i = 0; i < liveRows_; ++i) {
        float *row = acc_.data() + i * n;
        for (std::size_t j = 0; j + 1 < liveCols_; ++j)
            row[j] = row[j + 1];
        row[liveCols_ - 1] = results[i];
    }
}

std::uint64_t
ScalarWalkArray::simdScalar(SimdOp op, float scalar)
{
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    const std::size_t n = geometry_.dim;
    std::vector<float> results(liveRows_);
    for (std::size_t pass = 0; pass < liveCols_; ++pass) {
        for (std::size_t i = 0; i < liveRows_; ++i) {
            results[i] = applyAlu(op, acc_[i * n], scalar);
            ++simdOpCount_;
        }
        rotateLeft(results);
        ++simdCycles_;
    }
    return liveCols_;
}

std::uint64_t
ScalarWalkArray::simdVector(SimdOp op, const Matrix &operand)
{
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    const std::size_t n = geometry_.dim;
    std::vector<float> results(liveRows_);
    std::uint64_t cycles = 0;
    std::size_t pass = 0;
    while (pass < liveCols_) {
        ++cycles;
        ++simdCycles_;
        // The vector register streams one operand column per pass
        // through the west-edge path; starving it stalls the rotation.
        aBuffer_.fillTick();
        if (!aBuffer_.available()) {
            aBuffer_.noteStall();
            ++stallCycles_;
            continue;
        }
        aBuffer_.consume();
        for (std::size_t i = 0; i < liveRows_; ++i) {
            // Column 0 of the rotated tile is original column `pass`.
            results[i] = applyAlu(op, acc_[i * n], operand(i, pass));
            ++simdOpCount_;
        }
        rotateLeft(results);
        ++pass;
    }
    return cycles;
}

std::uint64_t
ScalarWalkArray::simdSpecial(SimdOp op)
{
    return simdScalar(op, 0.0f);
}

std::uint64_t
ScalarWalkArray::drain(Matrix &out)
{
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0, "drain with no live tile");
    const std::size_t n = geometry_.dim;
    // One column leaves through the OUTPUT port per cycle, tapping
    // accumulator bits [31:16].
    out = Matrix(liveRows_, liveCols_);
    for (std::size_t i = 0; i < liveRows_; ++i)
        for (std::size_t j = 0; j < liveCols_; ++j)
            out(i, j) = truncateBf16(acc_[i * n + j]);
    const std::uint64_t cycles = liveCols_;
    simdCycles_ += cycles;
    std::fill(acc_.begin(), acc_.end(), 0.0f);
    liveRows_ = 0;
    liveCols_ = 0;
    return cycles;
}

Matrix
ScalarWalkArray::accumulators() const
{
    Matrix out(liveRows_, liveCols_);
    const std::size_t n = geometry_.dim;
    for (std::size_t i = 0; i < liveRows_; ++i)
        for (std::size_t j = 0; j < liveCols_; ++j)
            out(i, j) = acc_[i * n + j];
    return out;
}

void
ScalarWalkArray::setFaultInjector(FaultInjector *injector,
                                  std::string site_id)
{
    injector_ = injector;
    faultSite_ = std::move(site_id);
}

} // namespace prose
