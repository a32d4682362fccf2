/**
 * @file
 * AVX2 kernel tier: the vector traits the shared kernel bodies in
 * simd_kernels.hh are instantiated with, 8 fp32 lanes wide. Compiled
 * with -mavx2 (no -mfma: the scalar reference rounds the product and
 * the sum of every MAC separately, so fused contraction would change
 * bits) and -ffp-contract=off for the same reason.
 *
 * Tails are one masked chunk, as on AVX-512: fp32 and int32 lanes use
 * vmaskmovps and the masked gather (dead lanes are neither read nor
 * written, so they cannot fault), and the 16-bit bf16 lanes, which
 * AVX2 cannot mask, go through a zeroed stack chunk.
 */

#include "kernel_tiers.hh"

#include <immintrin.h>

#include <cstring>

#include "simd_kernels.hh"

namespace prose::kernels {

namespace {

// Vector constants are built inside each helper (never at namespace
// scope: a static initializer would execute AVX instructions before
// main() even on CPUs the dispatcher would reject).
struct Avx2
{
    static constexpr std::size_t kLanes = 8;
    // 6 rows x 2 vectors: 12 accumulators + 2 B vectors + 1 broadcast +
    // 1 product temporary fill the 16 ymm registers exactly. Measured
    // against 5x2, 4x2, 4x3, 3x3, 3x4 and 2x4 (docs/PERF.md).
    static constexpr int kBlockRows = 6;
    static constexpr int kBlockVecs = 2;

    using F = __m256;
    using I = __m256i;

    /** A whole chunk: plain unmasked loads and stores, which vmaskmov
     *  and the 16-bit stack chunk would slow down. */
    struct Full
    {
    };

    /** Lane mask for vmaskmov / the masked gather, plus the live count
     *  for the 16-bit lanes. */
    struct Mask
    {
        __m256i lanes;
        std::size_t live;
    };

    static Full full() { return {}; }

    static Mask
    headMask(std::size_t live)
    {
        const __m256i index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        return { _mm256_cmpgt_epi32(
                     _mm256_set1_epi32(static_cast<int>(live)), index),
                 live };
    }

    static F load(const float *p, Full) { return _mm256_loadu_ps(p); }
    static F
    load(const float *p, const Mask &m)
    {
        return _mm256_maskload_ps(p, m.lanes);
    }
    static void store(float *p, F v, Full) { _mm256_storeu_ps(p, v); }
    static void
    store(float *p, F v, const Mask &m)
    {
        _mm256_maskstore_ps(p, m.lanes, v);
    }

    static F set1(float x) { return _mm256_set1_ps(x); }
    static F zero() { return _mm256_setzero_ps(); }
    static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
    static F add(F a, F b) { return _mm256_add_ps(a, b); }

    static I bits(F v) { return _mm256_castps_si256(v); }
    static F fromBits(I v) { return _mm256_castsi256_ps(v); }
    static I
    set1i(std::uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<std::int32_t>(x));
    }
    static I andi(I a, I b) { return _mm256_and_si256(a, b); }
    static I ori(I a, I b) { return _mm256_or_si256(a, b); }
    static I addi(I a, I b) { return _mm256_add_epi32(a, b); }
    static I shr16(I v) { return _mm256_srli_epi32(v, 16); }

    static I
    selectNan(I bits, I normal, I nan)
    {
        // abs(bits) <= 0x7fffffff, so the signed compare is an
        // unsigned one.
        const I is_nan = _mm256_cmpgt_epi32(
            _mm256_and_si256(bits, set1i(0x7fffffff)), set1i(0x7f800000));
        return _mm256_blendv_epi8(normal, nan, is_nan);
    }

    static F
    widen(const std::uint16_t *p, Full)
    {
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm256_castsi256_ps(
            _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16));
    }
    static F
    widen(const std::uint16_t *p, const Mask &m)
    {
        std::uint16_t chunk[kLanes] = {};
        std::memcpy(chunk, p, m.live * sizeof(*p));
        return widen(chunk, Full{});
    }

    static void
    narrow(std::uint16_t *p, I lanes, Full)
    {
        // Every lane holds a value <= 0xffff, so the saturating pack is
        // exact; packus interleaves 128-bit halves and the [0,2]
        // permute restores lane order.
        const __m256i packed = _mm256_packus_epi32(lanes, lanes);
        const __m256i ordered = _mm256_permute4x64_epi64(packed, 0x88);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p),
                         _mm256_castsi256_si128(ordered));
    }
    static void
    narrow(std::uint16_t *p, I lanes, const Mask &m)
    {
        std::uint16_t chunk[kLanes];
        narrow(chunk, lanes, Full{});
        std::memcpy(p, chunk, m.live * sizeof(*p));
    }

    static I
    gather(const std::uint32_t *table, I idx, Full)
    {
        return _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(table), idx, 4);
    }
    static I
    gather(const std::uint32_t *table, I idx, const Mask &m)
    {
        return _mm256_mask_i32gather_epi32(
            _mm256_setzero_si256(), reinterpret_cast<const int *>(table),
            idx, m.lanes, 4);
    }
};

} // namespace

const KernelSet &
avx2KernelSet()
{
    static const KernelSet set = simd::makeKernelSet<Avx2>("avx2");
    return set;
}

} // namespace prose::kernels
