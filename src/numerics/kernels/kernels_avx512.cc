/**
 * @file
 * AVX-512 kernel tier (F+BW+DQ+VL): the vector traits the shared
 * kernel bodies in simd_kernels.hh are instantiated with, 16 fp32
 * lanes wide. Compiled with its own -m flags and -ffp-contract=off,
 * never -mfma — see kernels_avx2.cc for why fused contraction is
 * forbidden.
 *
 * Every lane width has a native mask here and a masked op costs what
 * the unmasked one does, so every op takes an opmask: all-ones for a
 * whole chunk, a partial one for the tail (masked loads/stores
 * fault-suppress the dead lanes).
 *
 * The AVX512-BF16 hardware convert lives in kernels_avx512bf16.cc and
 * is spliced into this table by the dispatcher.
 */

#include "kernel_tiers.hh"

#include <immintrin.h>

#include "simd_kernels.hh"

// GCC PR105593: _mm512_srli_epi32's merge-source is the "undefined"
// self-init idiom (__m512i __Y = __Y) and trips -Wmaybe-uninitialized
// when inlined at -O3, although every lane is overwritten under an
// all-ones mask. Header-level suppression for this TU only.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace prose::kernels {

namespace {

struct Avx512
{
    static constexpr std::size_t kLanes = 16;
    // 6 rows x 4 vectors: 24 accumulators + 4 B vectors + 1 broadcast
    // of the 32 zmm registers.
    static constexpr int kBlockRows = 6;
    static constexpr int kBlockVecs = 4;

    using F = __m512;
    using I = __m512i;
    using Mask = __mmask16;

    /** Mask with the low `live` of 16 lanes set (live <= 16). */
    static Mask
    headMask(std::size_t live)
    {
        return static_cast<Mask>((1u << live) - 1u);
    }

    static Mask full() { return 0xffff; }

    static F
    load(const float *p, Mask m)
    {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void store(float *p, F v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }

    static F set1(float x) { return _mm512_set1_ps(x); }
    static F zero() { return _mm512_setzero_ps(); }
    static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
    static F add(F a, F b) { return _mm512_add_ps(a, b); }

    static I bits(F v) { return _mm512_castps_si512(v); }
    static F fromBits(I v) { return _mm512_castsi512_ps(v); }
    static I
    set1i(std::uint32_t x)
    {
        return _mm512_set1_epi32(static_cast<std::int32_t>(x));
    }
    static I andi(I a, I b) { return _mm512_and_si512(a, b); }
    static I ori(I a, I b) { return _mm512_or_si512(a, b); }
    static I addi(I a, I b) { return _mm512_add_epi32(a, b); }
    static I shr16(I v) { return _mm512_srli_epi32(v, 16); }

    static I
    selectNan(I bits, I normal, I nan)
    {
        const Mask is_nan = _mm512_cmpgt_epi32_mask(
            _mm512_and_si512(bits, set1i(0x7fffffff)), set1i(0x7f800000));
        return _mm512_mask_mov_epi32(normal, is_nan, nan);
    }

    static F
    widen(const std::uint16_t *p, Mask m)
    {
        const __m256i raw = _mm256_maskz_loadu_epi16(m, p);
        return _mm512_castsi512_ps(
            _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
    }

    static void
    narrow(std::uint16_t *p, I lanes, Mask m)
    {
        _mm256_mask_storeu_epi16(p, m, _mm512_cvtepi32_epi16(lanes));
    }

    static I
    gather(const std::uint32_t *table, I idx, Mask m)
    {
        return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, idx,
                                           table, 4);
    }
};

} // namespace

const KernelSet &
avx512KernelSet()
{
    static const KernelSet set = simd::makeKernelSet<Avx512>("avx512");
    return set;
}

} // namespace prose::kernels
