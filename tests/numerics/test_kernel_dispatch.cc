/**
 * @file
 * The SIMD kernel layer's bit-exactness contract: every compiled tier
 * must produce results bit-identical to the scalar reference for every
 * kernel, on randomized shapes (vector-width tails included), strides,
 * and special values (+-0, +-Inf, NaN payloads, denormals). The
 * denormal cases pin the AVX512-BF16 hardware-convert path, whose raw
 * instruction is DAZ and must fall back to the emulation per chunk.
 *
 * Also covered: PROSE_SIMD spec parsing (strict and lenient flavors)
 * and the pool-dispatch threshold observability counter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "numerics/bfloat16.hh"
#include "numerics/float_bits.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "numerics/matrix.hh"

namespace prose {
namespace {

using kernels::KernelSet;
using kernels::SimdTier;

std::vector<SimdTier>
availableTiers()
{
    std::vector<SimdTier> tiers;
    for (SimdTier tier :
         { SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512 }) {
        if (kernels::simdTierAvailable(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

/** Draw a float mixing normals with the special values the bf16
 *  conversions branch on. */
float
specialValue(Rng &rng)
{
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.70)
        return static_cast<float>(rng.gaussian(0.0, 4.0));
    if (pick < 0.76)
        return 0.0f;
    if (pick < 0.80)
        return -0.0f;
    if (pick < 0.84)
        return std::numeric_limits<float>::infinity();
    if (pick < 0.88)
        return -std::numeric_limits<float>::infinity();
    if (pick < 0.92)
        return std::numeric_limits<float>::quiet_NaN();
    if (pick < 0.96) {
        // Denormal fp32 (the AVX512-BF16 DAZ hazard).
        return static_cast<float>(rng.uniform(0.0, 1.0)) * 1e-41f;
    }
    // Values straddling the bf16 rounding boundary.
    return 1.0f + static_cast<float>(rng.uniform(0.0, 1.0)) * 0x1p-8f;
}

std::vector<float>
specialVector(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = specialValue(rng);
    return v;
}

/** specialVector without the non-finite draws, for deep GEMM shapes:
 *  over hundreds of terms a NaN or Inf product is near certain, so
 *  every accumulator would end as NaN and hide any wrong term. */
std::vector<float>
finiteSpecialVector(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (float &x : v) {
        do {
            x = specialValue(rng);
        } while (!std::isfinite(x));
    }
    return v;
}

std::vector<std::uint16_t>
quantize(const std::vector<float> &v)
{
    std::vector<std::uint16_t> bits(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        bits[i] = Bfloat16::roundFromFloat(v[i]);
    return bits;
}

/**
 * Strict bit equality, except that any NaN matches any NaN: IEEE 754
 * leaves payload selection to the operation (x86 propagates the first
 * NaN *source operand*, and for the scalar tier that order is whatever
 * the compiler emitted), so payload bits are explicitly outside the
 * cross-tier contract. Where the reference makes a NaN, every tier
 * must make a NaN — which NaN is unspecified.
 */
::testing::AssertionResult
bitsIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        if (!bitsEqual(a[i], b[i])) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i]
                   << " (bits " << std::hex << floatBits(a[i]) << " vs "
                   << floatBits(b[i]) << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/** bitsIdentical over two same-shape matrices. */
::testing::AssertionResult
bitsIdentical(const Matrix &a, const Matrix &b)
{
    if (!a.sameShape(b))
        return ::testing::AssertionFailure() << "shape mismatch";
    return bitsIdentical(std::vector<float>(a.data(), a.data() + a.size()),
                         std::vector<float>(b.data(), b.data() + b.size()));
}

/** Shapes chosen to cover full vector chunks, sub-width tails, and the
 *  1-element degenerate case for 8/16-lane kernels. */
constexpr std::size_t kLengths[] = { 1, 2, 7, 8, 9, 15, 16, 17,
                                     31, 33, 64, 100, 257 };

TEST(KernelDispatch, RowKernelsBitIdenticalAcrossTiers)
{
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    for (SimdTier tier : availableTiers()) {
        const KernelSet &ks = kernels::kernelsForTier(tier);
        Rng rng(1234);
        for (std::size_t n : kLengths) {
            const std::vector<float> src = specialVector(rng, n);
            const std::vector<float> acc0 = specialVector(rng, n);
            const std::vector<std::uint16_t> bits = quantize(src);
            const float av = specialValue(rng);

            // mulAccRowF32 (the diagonal-batched wavefront sweep)
            const std::vector<float> src2 = specialVector(rng, n);
            std::vector<float> got = acc0, want = acc0;
            ks.mulAccRowF32(got.data(), src.data(), src2.data(), n);
            ref.mulAccRowF32(want.data(), src.data(), src2.data(), n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " mulAccRowF32 n=" << n;

            // quantizeBitsRow
            std::vector<std::uint16_t> qgot(n), qwant(n);
            ks.quantizeBitsRow(qgot.data(), src.data(), n);
            ref.quantizeBitsRow(qwant.data(), src.data(), n);
            EXPECT_EQ(qgot, qwant) << ks.name << " quantizeBitsRow n=" << n;

            // widenRow
            got.assign(n, 0.0f);
            want.assign(n, 0.0f);
            ks.widenRow(got.data(), bits.data(), n);
            ref.widenRow(want.data(), bits.data(), n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " widenRow n=" << n;

            // quantizeRoundtripRow (out-of-place and in-place)
            got.assign(n, 0.0f);
            want.assign(n, 0.0f);
            ks.quantizeRoundtripRow(got.data(), src.data(), n);
            ref.quantizeRoundtripRow(want.data(), src.data(), n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " quantizeRoundtripRow n=" << n;
            std::vector<float> inplace = src;
            ks.quantizeRoundtripRow(inplace.data(), inplace.data(), n);
            EXPECT_TRUE(bitsIdentical(inplace, want))
                << ks.name << " quantizeRoundtripRow in-place n=" << n;

            // The systolic operand planes are quantizeRoundtripRow
            // output, standing in for widen(quantizeBitsRow(x)): the
            // two must agree on every tier, AVX512-BF16 convert
            // included.
            std::vector<float> widened(n, 0.0f);
            ks.widenRow(widened.data(), qgot.data(), n);
            EXPECT_TRUE(bitsIdentical(got, widened))
                << ks.name << " quantizeRoundtripRow vs widen(quantizeBitsRow)"
                << " n=" << n;

            // truncateRow
            got.assign(n, 0.0f);
            want.assign(n, 0.0f);
            ks.truncateRow(got.data(), src.data(), n);
            ref.truncateRow(want.data(), src.data(), n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " truncateRow n=" << n;

            // SIMD-unit rows (scalar operand pre-quantized per contract)
            const float q = quantizeBf16(av);
            got = acc0;
            want = acc0;
            ks.simdMulScalarRow(got.data(), q, n);
            ref.simdMulScalarRow(want.data(), q, n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " simdMulScalarRow n=" << n;

            got = acc0;
            want = acc0;
            ks.simdAddScalarRow(got.data(), q, n);
            ref.simdAddScalarRow(want.data(), q, n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " simdAddScalarRow n=" << n;

            got = acc0;
            want = acc0;
            ks.simdMulVectorRow(got.data(), src.data(), n);
            ref.simdMulVectorRow(want.data(), src.data(), n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " simdMulVectorRow n=" << n;

            got = acc0;
            want = acc0;
            ks.simdAddVectorRow(got.data(), src.data(), n);
            ref.simdAddVectorRow(want.data(), src.data(), n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " simdAddVectorRow n=" << n;

            // scaleQuantizeRow
            got = src;
            want = src;
            ks.scaleQuantizeRow(got.data(), av, n);
            ref.scaleQuantizeRow(want.data(), av, n);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " scaleQuantizeRow n=" << n;
        }
    }
}

TEST(KernelDispatch, GemmTileF32BitIdenticalAcrossTiersWithStrides)
{
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    struct Shape
    {
        std::size_t rows, cols, depth;
        bool finite; ///< finiteSpecialVector operands, else specialVector
    };
    // Odd row counts exercise the register-blocked kernels' remainder
    // row; tails below/above the 8/16/32/64-lane block widths and
    // strided views exercise the column tails. Each shallow shape runs
    // with the full special-value mix and again with finite operands
    // (the mix leaves most accumulators NaN). The last three run two
    // or more full 6-row groups plus a remainder over several column
    // panels ending in a masked tail, at depths up to 1030, with
    // finite operands only so the accumulators do not all end as NaN.
    const Shape shapes[] = {
        { 1, 1, 1, false },       { 3, 5, 7, false },
        { 4, 16, 8, false },      { 5, 17, 9, false },
        { 8, 33, 16, false },     { 2, 64, 12, false },
        { 3, 65, 5, false },      { 6, 128, 10, false },
        { 7, 100, 23, false },    { 1, 1, 1, true },
        { 3, 5, 7, true },        { 4, 16, 8, true },
        { 5, 17, 9, true },       { 8, 33, 16, true },
        { 2, 64, 12, true },      { 3, 65, 5, true },
        { 6, 128, 10, true },     { 7, 100, 23, true },
        { 13, 130, 300, true },   { 12, 64, 129, true },
        { 17, 200, 1030, true },
    };
    for (SimdTier tier : availableTiers()) {
        const KernelSet &ks = kernels::kernelsForTier(tier);
        Rng rng(1234);
        for (const Shape &s : shapes) {
            const std::size_t aStride = s.depth + 3;
            const std::size_t bStride = s.cols + 5;
            const std::size_t cStride = s.cols + 2;
            const auto operand =
                s.finite ? finiteSpecialVector : specialVector;
            const std::vector<float> a = operand(rng, s.rows * aStride);
            const std::vector<float> b = operand(rng, s.depth * bStride);
            const std::vector<float> c0 =
                specialVector(rng, s.rows * cStride);

            std::vector<float> got = c0, want = c0;
            ks.gemmTileF32(got.data(), cStride, a.data(), aStride,
                           b.data(), bStride, s.rows, s.cols, s.depth);
            ref.gemmTileF32(want.data(), cStride, a.data(), aStride,
                            b.data(), bStride, s.rows, s.cols, s.depth);
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " gemmTileF32 " << s.rows << "x" << s.cols
                << "x" << s.depth << (s.finite ? " finite" : " special");
        }
    }
}

TEST(KernelDispatch, LutRowBitIdenticalAcrossTiers)
{
    // Exhaustive over the index domain: a flat activation table is
    // addressed by the high 16 bits of each accumulator, so feed every
    // one of the 65536 bf16 bit patterns through every tier (plus tail
    // lengths below the gather width) and demand the exact table entry
    // the scalar reference picks. Low-half bits are set nonzero to pin
    // that they never leak into the index.
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    std::vector<std::uint32_t> table(65536);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    std::vector<float> inputs(65536);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::uint32_t bits =
            (static_cast<std::uint32_t>(i) << 16) | 0x1234u;
        std::memcpy(&inputs[i], &bits, sizeof(float));
    }
    auto rawBits = [](const std::vector<float> &v) {
        std::vector<std::uint32_t> bits(v.size());
        std::memcpy(bits.data(), v.data(),
                    v.size() * sizeof(std::uint32_t));
        return bits;
    };
    for (SimdTier tier : availableTiers()) {
        const KernelSet &ks = kernels::kernelsForTier(tier);
        std::vector<float> got = inputs, want = inputs;
        ks.lutRow(got.data(), table.data(), got.size());
        ref.lutRow(want.data(), table.data(), want.size());
        EXPECT_EQ(rawBits(got), rawBits(want))
            << ks.name << " lutRow exhaustive";
        for (std::size_t n : kLengths) {
            got.assign(inputs.begin(),
                       inputs.begin() + static_cast<std::ptrdiff_t>(n));
            want = got;
            ks.lutRow(got.data(), table.data(), n);
            ref.lutRow(want.data(), table.data(), n);
            EXPECT_EQ(rawBits(got), rawBits(want))
                << ks.name << " lutRow n=" << n;
        }
    }
}

TEST(KernelDispatch, GemmTileDoesNotSkipZeroTimesInf)
{
    // The stepped engine MACs every valid element, so 0 * Inf must
    // produce NaN in every tier — no zero-skip shortcuts.
    for (SimdTier tier : availableTiers()) {
        const KernelSet &ks = kernels::kernelsForTier(tier);
        const float zero = 0.0f;
        const float inf = std::numeric_limits<float>::infinity();
        float acc = 0.0f;
        ks.gemmTileF32(&acc, 1, &zero, 1, &inf, 1, 1, 1, 1);
        EXPECT_TRUE(std::isnan(acc)) << ks.name << ": 0 * Inf must be NaN";
    }
}

TEST(KernelDispatch, ActiveTierSwitchAndRestore)
{
    const SimdTier original = kernels::activeSimdTier();
    for (SimdTier tier : availableTiers()) {
        kernels::setActiveSimdTier(tier);
        EXPECT_EQ(kernels::activeSimdTier(), tier);
        EXPECT_STREQ(kernels::activeKernels().name,
                     kernels::toString(tier));
    }
    kernels::setActiveSimdTier(original);
    EXPECT_EQ(kernels::activeSimdTier(), original);
}

TEST(KernelDispatch, MatmulBf16BitIdenticalAcrossTiers)
{
    // End-to-end: the bf16 matmul (arena scratch, per-block operand
    // preparation, fp32 GEMM core), through both the per-call and the
    // cached-weight overload, must agree bit-for-bit across every
    // available tier. 13x300x130 crosses both cache blocks (k 128, j 64)
    // and ends each in a tail that is not a whole vector; the last
    // shape puts a zero A entry against an Inf weight, which must make
    // NaN on every tier.
    struct Shape
    {
        std::size_t m, depth, n;
        bool zeroTimesInf;
    };
    const Shape shapes[] = {
        { 13, 37, 21, false },
        { 13, 300, 130, false },
        { 13, 37, 21, true },
    };
    const SimdTier original = kernels::activeSimdTier();
    Rng rng(7);
    for (const Shape &s : shapes) {
        Matrix a(s.m, s.depth);
        Matrix b(s.depth, s.n);
        a.fillGaussian(rng, 0.0f, 2.0f);
        b.fillGaussian(rng, 0.0f, 2.0f);
        if (s.zeroTimesInf) {
            a.at(2, 3) = 0.0f;
            b.at(3, 4) = std::numeric_limits<float>::infinity();
        }
        kernels::setActiveSimdTier(SimdTier::Scalar);
        const Matrix want = matmulBf16(a, b);
        for (SimdTier tier : availableTiers()) {
            kernels::setActiveSimdTier(tier);
            const QuantizedOperand cached(b);
            for (const Matrix &got : { matmulBf16(a, b),
                                       matmulBf16(a, cached) }) {
                EXPECT_TRUE(bitsIdentical(got, want))
                    << "tier " << kernels::toString(tier) << " " << s.m
                    << "x" << s.depth << "x" << s.n;
                if (s.zeroTimesInf) {
                    EXPECT_TRUE(std::isnan(got(2, 4)))
                        << "tier " << kernels::toString(tier)
                        << ": 0 * Inf must be NaN";
                }
            }
        }
    }
    kernels::setActiveSimdTier(original);
}

TEST(KernelDispatch, MatmulF32BitIdenticalAcrossTiers)
{
    // End-to-end over the rewired fp32 tiled matmul (kKBlock/kJBlock
    // blocking on top of gemmTileF32), including a non-finite B entry
    // so the no-zero-skip contract is exercised through the public API.
    const SimdTier original = kernels::activeSimdTier();
    Rng rng(21);
    Matrix a(13, 37);
    Matrix b(37, 21);
    a.fillGaussian(rng, 0.0f, 2.0f);
    b.fillGaussian(rng, 0.0f, 2.0f);
    a.at(2, 3) = 0.0f;
    b.at(3, 4) = std::numeric_limits<float>::infinity();

    kernels::setActiveSimdTier(SimdTier::Scalar);
    const Matrix want = matmul(a, b);
    for (SimdTier tier : availableTiers()) {
        kernels::setActiveSimdTier(tier);
        EXPECT_TRUE(bitsIdentical(matmul(a, b), want))
            << "tier " << kernels::toString(tier);
    }
    kernels::setActiveSimdTier(original);
}

TEST(KernelDispatchSpec, StrictParseAcceptsKnownTiers)
{
    EXPECT_EQ(kernels::parseSimdTier("scalar"), SimdTier::Scalar);
    EXPECT_EQ(kernels::parseSimdTier("avx2"), SimdTier::Avx2);
    EXPECT_EQ(kernels::parseSimdTier("avx512"), SimdTier::Avx512);
    EXPECT_EQ(kernels::parseSimdTier("auto"), kernels::bestSimdTier());
}

using KernelDispatchSpecDeathTest = ::testing::Test;

TEST(KernelDispatchSpecDeathTest, StrictParseRejectsUnknownTier)
{
    EXPECT_DEATH(kernels::parseSimdTier("sse9"), "unknown SIMD tier");
    EXPECT_DEATH(kernels::parseSimdTier(""), "unknown SIMD tier");
}

TEST(KernelDispatchSpec, LenientSpecFallsBackToAuto)
{
    EXPECT_EQ(kernels::simdTierFromSpec(nullptr),
              kernels::bestSimdTier());
    EXPECT_EQ(kernels::simdTierFromSpec(""), kernels::bestSimdTier());
    EXPECT_EQ(kernels::simdTierFromSpec("auto"),
              kernels::bestSimdTier());
    // Unknown names warn (not fatal) and fall back — environment input
    // must never kill a run.
    EXPECT_EQ(kernels::simdTierFromSpec("turbo9000"),
              kernels::bestSimdTier());
    EXPECT_EQ(kernels::simdTierFromSpec("scalar"), SimdTier::Scalar);
}

TEST(KernelDispatchSpec, TierNamesRoundTrip)
{
    for (SimdTier tier :
         { SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512 })
        EXPECT_EQ(kernels::parseSimdTier(kernels::toString(tier)), tier);
}

TEST(KernelDispatchSpec, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernels::simdTierAvailable(SimdTier::Scalar));
    // bestSimdTier must itself be runnable.
    EXPECT_TRUE(kernels::simdTierAvailable(kernels::bestSimdTier()));
}

TEST(MatmulPoolThreshold, SmallShapesStaySerialLargeShapesDispatch)
{
    // Threshold semantics are observable through the pool's dispatch
    // counter: a 128x768x768 GEMM (75.5M MACs, under the 2^25-per-lane
    // floor on 4 lanes — the bench shape whose pooled twin recorded a
    // loss to serial) must run inline, a 640^3 one (262M MACs, ~65.5M
    // per lane) must fan out when lanes are available. (512^3 would sit
    // exactly on the 4-lane boundary — 134,217,728 == 4 * 2^25 — so the
    // dispatching shape is chosen comfortably above it.)
    ThreadPool pool(4);
    ThreadPool::setGlobalOverride(&pool);

    Rng rng(11);
    Matrix small_a(128, 768), small_b(768, 768);
    small_a.fillGaussian(rng, 0.0f, 1.0f);
    small_b.fillGaussian(rng, 0.0f, 1.0f);
    const std::uint64_t before_small = ThreadPool::dispatchCount();
    matmul(small_a, small_b);
    EXPECT_EQ(ThreadPool::dispatchCount(), before_small)
        << "128x768x768 is below the per-lane MAC floor and must not "
           "pay pool dispatch";

    Matrix big_a(640, 640), big_b(640, 640);
    big_a.fillGaussian(rng, 0.0f, 1.0f);
    big_b.fillGaussian(rng, 0.0f, 1.0f);
    const std::uint64_t before_big = ThreadPool::dispatchCount();
    matmul(big_a, big_b);
    EXPECT_GT(ThreadPool::dispatchCount(), before_big)
        << "640^3 clears the per-lane MAC floor on 4 lanes and must "
           "fan out";

    ThreadPool::setGlobalOverride(nullptr);
}

TEST(MatmulPoolThreshold, SerialPoolNeverDispatches)
{
    // With one lane the threshold is moot: nothing may reach the pool.
    ThreadPool pool(1);
    ThreadPool::setGlobalOverride(&pool);
    Rng rng(12);
    Matrix a(256, 256), b(256, 256);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    const std::uint64_t before = ThreadPool::dispatchCount();
    matmul(a, b);
    matmulBf16(a, b);
    EXPECT_EQ(ThreadPool::dispatchCount(), before);
    ThreadPool::setGlobalOverride(nullptr);
}

} // namespace
} // namespace prose
