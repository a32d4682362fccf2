/**
 * @file
 * Scalar reference kernels. Every other tier is tested bit-for-bit
 * against this table, and this table defers to the inline Bfloat16
 * helpers in numerics/bfloat16.hh, so there is exactly one definition
 * of the numeric semantics in the codebase.
 *
 * Compiled with the baseline ISA and -ffp-contract=off: the mul and add
 * in the MAC rows must round separately (no FMA), because that is what
 * the pre-kernel scalar loops did and what the SIMD tiers replicate.
 */

#include "kernel_tiers.hh"

#include <cstring>

#include "numerics/bfloat16.hh"

namespace prose::kernels {

namespace {

void
mulAccRowF32Scalar(float *c, const float *a, const float *b,
                   std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        c[j] += a[j] * b[j];
}

void
gemmTileF32Scalar(float *acc, std::size_t accStride, const float *a,
                  std::size_t aStride, const float *b,
                  std::size_t bStride, std::size_t rows,
                  std::size_t cols, std::size_t depth)
{
    for (std::size_t i = 0; i < rows; ++i) {
        const float *arow = a + i * aStride;
        float *crow = acc + i * accStride;
        for (std::size_t k = 0; k < depth; ++k) {
            const float av = arow[k];
            const float *brow = b + k * bStride;
            for (std::size_t j = 0; j < cols; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
quantizeBitsRowScalar(std::uint16_t *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = Bfloat16::roundFromFloat(src[j]);
}

void
widenRowScalar(float *dst, const std::uint16_t *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = Bfloat16::fromBits(src[j]).toFloat();
}

void
quantizeRoundtripRowScalar(float *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = quantizeBf16(src[j]);
}

void
truncateRowScalar(float *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = truncateBf16(src[j]);
}

void
simdMulScalarRowScalar(float *acc, float q, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) * q);
}

void
simdAddScalarRowScalar(float *acc, float q, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) + q);
}

void
simdMulVectorRowScalar(float *acc, const float *v, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) * quantizeBf16(v[j]));
}

void
simdAddVectorRowScalar(float *acc, const float *v, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) + quantizeBf16(v[j]));
}

void
scaleQuantizeRowScalar(float *v, float s, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        v[j] = quantizeBf16(v[j] * s);
}

void
lutRowScalar(float *acc, const std::uint32_t *table, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        std::uint32_t bits;
        std::memcpy(&bits, &acc[j], sizeof(bits));
        const std::uint32_t out = table[bits >> 16];
        std::memcpy(&acc[j], &out, sizeof(out));
    }
}

} // namespace

const KernelSet &
scalarKernelSet()
{
    static const KernelSet set = {
        "scalar",
        mulAccRowF32Scalar,
        gemmTileF32Scalar,
        quantizeBitsRowScalar,
        widenRowScalar,
        quantizeRoundtripRowScalar,
        truncateRowScalar,
        simdMulScalarRowScalar,
        simdAddScalarRowScalar,
        simdMulVectorRowScalar,
        simdAddVectorRowScalar,
        scaleQuantizeRowScalar,
        lutRowScalar,
    };
    return set;
}

} // namespace prose::kernels
