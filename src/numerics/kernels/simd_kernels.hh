/**
 * @file
 * The vector tiers' kernel bodies, written once. Each kernel is a
 * template over a vector-traits type V that a tier TU defines for its
 * ISA (kernels_avx2.cc, kernels_avx512.cc); makeKernelSet<V>() turns
 * the instantiations into that tier's KernelSet. V provides kLanes
 * (fp32 lanes), the GEMM register block kBlockRows x kBlockVecs, the
 * float/int32 vector types F and I, a tail mask Mask built by
 * headMask(live) and full(), the mask of a whole chunk (AVX2 makes it
 * a tag for plain unmasked ops); the fp32 load/store, bf16
 * widen/narrow and gather, taking either mask (dead lanes neither read
 * nor written, so a chunk may end at the last element of a buffer);
 * set1/zero/mul/add, bits/fromBits (bit casts), set1i/andi/ori/addi/
 * shr16 on int32 lanes, and selectNan(bits, normal, nan).
 *
 * Tail rule: full vectors, then ONE masked chunk — no scalar tails.
 * Every operation is per lane, so masking cannot change a live lane's
 * bits. The bf16 conversions are the integer bit manipulations of
 * Bfloat16::roundFromFloat / truncateToBf16, exact for every input.
 *
 * Linkage rule: everything here is a template over V, and each traits
 * type lives in its tier TU's anonymous namespace, so every
 * instantiation has internal linkage: no code compiled with one tier's
 * -m flags is emitted as a weak symbol the linker could pick for a
 * caller built for another ISA. For the same reason the bodies use no
 * std:: inline helpers (std::min, std::vector, ...).
 */

#ifndef PROSE_NUMERICS_KERNELS_SIMD_KERNELS_HH
#define PROSE_NUMERICS_KERNELS_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "kernel_dispatch.hh"

namespace prose::kernels::simd {

/** body(j, m) for each kLanes chunk of [0, n): full chunks get
 *  V::full(), the final partial chunk (if any) gets V::headMask. */
template <class V, class Body>
inline void
forChunks(std::size_t n, Body &&body)
{
    std::size_t j = 0;
    for (; j + V::kLanes <= n; j += V::kLanes)
        body(j, V::full());
    if (j < n)
        body(j, V::headMask(n - j));
}

/** `bits + 0x7fff + ((bits >> 16) & 1)` — the RNE bias add. */
template <class V>
inline typename V::I
rneRounded(typename V::I bits)
{
    const typename V::I lsb = V::andi(V::shr16(bits), V::set1i(1));
    return V::addi(bits, V::addi(lsb, V::set1i(0x7fff)));
}

/** Round-to-nearest-even fp32 -> bf16, widened back to fp32 (the
 *  quantizeBf16 round trip). */
template <class V>
inline typename V::F
quantRoundtrip(typename V::F v)
{
    const typename V::I bits = V::bits(v);
    const typename V::I hi = V::set1i(0xffff0000u);
    const typename V::I normal = V::andi(rneRounded<V>(bits), hi);
    const typename V::I nan =
        V::ori(V::andi(bits, hi), V::set1i(0x00400000));
    return V::fromBits(V::selectNan(bits, normal, nan));
}

/** fp32 -> bf16 bit pattern in the low 16 bits of each int32 lane. */
template <class V>
inline typename V::I
quantBits16(typename V::I bits)
{
    const typename V::I normal = V::shr16(rneRounded<V>(bits));
    const typename V::I nan =
        V::ori(V::shr16(bits), V::set1i(0x0040));
    return V::selectNan(bits, normal, nan);
}

/** truncateBf16: drop the low 16 bits. */
template <class V>
inline typename V::F
truncate(typename V::F v)
{
    return V::fromBits(V::andi(V::bits(v), V::set1i(0xffff0000u)));
}

template <class V>
void
mulAccRowF32(float *c, const float *a, const float *b, std::size_t n)
{
    forChunks<V>(n, [&](std::size_t j, auto m) {
        const typename V::F prod =
            V::mul(V::load(a + j, m), V::load(b + j, m));
        V::store(c + j, V::add(V::load(c + j, m), prod), m);
    });
}

template <class V>
void
quantizeBitsRow(std::uint16_t *dst, const float *src, std::size_t n)
{
    forChunks<V>(n, [&](std::size_t j, auto m) {
        V::narrow(dst + j, quantBits16<V>(V::bits(V::load(src + j, m))),
                  m);
    });
}

template <class V>
void
widenRow(float *dst, const std::uint16_t *src, std::size_t n)
{
    forChunks<V>(n, [&](std::size_t j, auto m) {
        V::store(dst + j, V::widen(src + j, m), m);
    });
}

template <class V>
using UnaryOp = typename V::F (*)(typename V::F);
template <class V>
using BinaryOp = typename V::F (*)(typename V::F, typename V::F);

/** dst[j] = op(src[j]) — quantizeRoundtripRow and truncateRow. */
template <class V, UnaryOp<V> Op>
void
mapRow(float *dst, const float *src, std::size_t n)
{
    forChunks<V>(n, [&](std::size_t j, auto m) {
        V::store(dst + j, Op(V::load(src + j, m)), m);
    });
}

/** acc[j] = quantizeBf16(op(truncateBf16(acc[j]), q)) — the SIMD-unit
 *  MulScalar/AddScalar rows; q is pre-quantized. */
template <class V, BinaryOp<V> Op>
void
simdScalarRow(float *acc, float q, std::size_t n)
{
    const typename V::F qv = V::set1(q);
    forChunks<V>(n, [&](std::size_t j, auto m) {
        const typename V::F x = truncate<V>(V::load(acc + j, m));
        V::store(acc + j, quantRoundtrip<V>(Op(x, qv)), m);
    });
}

/** acc[j] = quantizeBf16(op(truncateBf16(acc[j]), quantizeBf16(v[j])))
 *  — the SIMD-unit MulVector/AddVector rows. */
template <class V, BinaryOp<V> Op>
void
simdVectorRow(float *acc, const float *v, std::size_t n)
{
    forChunks<V>(n, [&](std::size_t j, auto m) {
        const typename V::F x = truncate<V>(V::load(acc + j, m));
        const typename V::F qv = quantRoundtrip<V>(V::load(v + j, m));
        V::store(acc + j, quantRoundtrip<V>(Op(x, qv)), m);
    });
}

template <class V>
void
scaleQuantizeRow(float *v, float s, std::size_t n)
{
    const typename V::F sv = V::set1(s);
    forChunks<V>(n, [&](std::size_t j, auto m) {
        V::store(v + j, quantRoundtrip<V>(V::mul(V::load(v + j, m), sv)),
                 m);
    });
}

template <class V>
void
lutRow(float *acc, const std::uint32_t *table, std::size_t n)
{
    forChunks<V>(n, [&](std::size_t j, auto m) {
        const typename V::I idx = V::shr16(V::bits(V::load(acc + j, m)));
        V::store(acc + j, V::fromBits(V::gather(table, idx, m)), m);
    });
}

/** Every (row, column-vector) cell of the largest block shape any tier
 *  uses; OP is applied to the literal pair so each accumulator is a
 *  distinct named local (see gemmBlock for why it cannot be an array). */
#define PROSE_GEMM_CELLS(OP)                                            \
    OP(0, 0) OP(0, 1) OP(0, 2) OP(0, 3)                                 \
    OP(1, 0) OP(1, 1) OP(1, 2) OP(1, 3)                                 \
    OP(2, 0) OP(2, 1) OP(2, 2) OP(2, 3)                                 \
    OP(3, 0) OP(3, 1) OP(3, 2) OP(3, 3)                                 \
    OP(4, 0) OP(4, 1) OP(4, 2) OP(4, 3)                                 \
    OP(5, 0) OP(5, 1) OP(5, 2) OP(5, 3)

#define PROSE_GEMM_COLS(OP) OP(0) OP(1) OP(2) OP(3)

/**
 * One R-row x (NV * kLanes)-column block of the fp32 GEMM core, both
 * extents known at compile time so the loops fully unroll. The
 * accumulators are macro-expanded NAMED locals, not a local F[R][NV]
 * array: GCC never fully scalarizes the array (even under a raised
 * --param=sra-max-scalarization-size-Ospeed), so it kept the array's
 * stack home live and re-stored every accumulator on every k iteration
 * — on AVX-512, 12+ dead 64-byte stores per iteration saturating the
 * single 512-bit store port, ~2.3x slower than the named form. With
 * named locals the dead cells (guarded out by `if constexpr`) vanish
 * and the live ones provably stay in registers across the whole k
 * loop. The A broadcasts come straight from memory (vbroadcastss, no
 * port-5 shuffle). Each accumulator lane sees its fp32 ops in exactly
 * the scalar ascending-k order; dead lanes of a masked chunk
 * accumulate garbage that the masked store discards. M is the type of
 * V::full() for a whole-width panel and V::Mask otherwise.
 */
template <class V, int R, int NV, class M>
inline void
gemmBlock(float *cj, std::size_t accStride, const float *a,
          std::size_t aStride, const float *bj, std::size_t bStride,
          std::size_t depth, const M *masks)
{
    static_assert(R >= 1 && R <= 6 && NV >= 1 && NV <= 4,
                  "block shape outside PROSE_GEMM_CELLS");
    using F = typename V::F;
    constexpr std::size_t kL = V::kLanes;
#define PROSE_GEMM_DECL(r, v)                                           \
    F c##r##v = V::zero();                                              \
    (void)c##r##v;
    PROSE_GEMM_CELLS(PROSE_GEMM_DECL)
#undef PROSE_GEMM_DECL
#define PROSE_GEMM_LOAD(r, v)                                           \
    if constexpr (r < R && v < NV)                                      \
        c##r##v = V::load(cj + r * accStride + v * kL, masks[v]);
    PROSE_GEMM_CELLS(PROSE_GEMM_LOAD)
#undef PROSE_GEMM_LOAD
    for (std::size_t k = 0; k < depth; ++k) {
        const float *brow = bj + k * bStride;
#define PROSE_GEMM_BLOAD(v)                                             \
        F b##v = V::zero();                                             \
        (void)b##v;                                                     \
        if constexpr (v < NV)                                           \
            b##v = V::load(brow + v * kL, masks[v]);
        PROSE_GEMM_COLS(PROSE_GEMM_BLOAD)
#undef PROSE_GEMM_BLOAD
#define PROSE_GEMM_MAC(r, v)                                            \
        if constexpr (r < R && v < NV)                                  \
            c##r##v = V::add(c##r##v,                                   \
                             V::mul(V::set1(a[r * aStride + k]), b##v));
        PROSE_GEMM_CELLS(PROSE_GEMM_MAC)
#undef PROSE_GEMM_MAC
    }
#define PROSE_GEMM_STORE(r, v)                                          \
    if constexpr (r < R && v < NV)                                      \
        V::store(cj + r * accStride + v * kL, c##r##v, masks[v]);
    PROSE_GEMM_CELLS(PROSE_GEMM_STORE)
#undef PROSE_GEMM_STORE
}

#undef PROSE_GEMM_CELLS
#undef PROSE_GEMM_COLS

/** One column panel: row groups of R = kBlockRows, then the remainder
 *  through the next smaller R — every row runs register-blocked, never
 *  row at a time, which matters for the 16-row E-array tiles. */
template <class V, int NV, class M, int R = V::kBlockRows>
inline void
gemmPanel(float *cj, std::size_t accStride, const float *a,
          std::size_t aStride, const float *bj, std::size_t bStride,
          std::size_t rows, std::size_t depth, const M *masks)
{
    std::size_t i = 0;
    for (; i + R <= rows; i += R)
        gemmBlock<V, R, NV, M>(cj + i * accStride, accStride,
                               a + i * aStride, aStride, bj, bStride,
                               depth, masks);
    if constexpr (R > 1) {
        if (i < rows)
            gemmPanel<V, NV, M, R - 1>(cj + i * accStride, accStride,
                                       a + i * aStride, aStride, bj,
                                       bStride, rows - i, depth, masks);
    }
}

/**
 * The fp32 GEMM tile: whole panels of NV vectors run under V::full();
 * a partial last panel recurses to the smallest NV that covers it, its
 * last vector masked to the live columns.
 */
template <class V, int NV = V::kBlockVecs>
void
gemmTileF32(float *acc, std::size_t accStride, const float *a,
            std::size_t aStride, const float *b, std::size_t bStride,
            std::size_t rows, std::size_t cols, std::size_t depth)
{
    constexpr std::size_t kPanel = NV * V::kLanes;
    constexpr std::size_t kHead = kPanel - V::kLanes;
    using FullMask = decltype(V::full());
    FullMask full[NV];
    for (FullMask &m : full)
        m = V::full();
    std::size_t jb = 0;
    for (; jb + kPanel <= cols; jb += kPanel)
        gemmPanel<V, NV, FullMask>(acc + jb, accStride, a, aStride, b + jb,
                                   bStride, rows, depth, full);
    const std::size_t live = cols - jb;
    if (live == 0)
        return;
    if constexpr (NV > 1) {
        if (live <= kHead) {
            gemmTileF32<V, NV - 1>(acc + jb, accStride, a, aStride, b + jb,
                                   bStride, rows, live, depth);
            return;
        }
    }
    typename V::Mask masks[NV];
    for (int v = 0; v + 1 < NV; ++v)
        masks[v] = V::headMask(V::kLanes);
    masks[NV - 1] = V::headMask(live - kHead);
    gemmPanel<V, NV, typename V::Mask>(acc + jb, accStride, a, aStride,
                                       b + jb, bStride, rows, depth, masks);
}

/** The tier's KernelSet: every entry is an instantiation over V. */
template <class V>
KernelSet
makeKernelSet(const char *name)
{
    return {
        name,
        mulAccRowF32<V>,
        gemmTileF32<V>,
        quantizeBitsRow<V>,
        widenRow<V>,
        mapRow<V, quantRoundtrip<V>>,
        mapRow<V, truncate<V>>,
        simdScalarRow<V, V::mul>,
        simdScalarRow<V, V::add>,
        simdVectorRow<V, V::mul>,
        simdVectorRow<V, V::add>,
        scaleQuantizeRow<V>,
        lutRow<V>,
    };
}

} // namespace prose::kernels::simd

#endif // PROSE_NUMERICS_KERNELS_SIMD_KERNELS_HH
