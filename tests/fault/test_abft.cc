/** @file Tests for the Huang-Abraham ABFT checker. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hh"
#include "fault/abft.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"
#include "numerics/float_bits.hh"

namespace prose {
namespace {

/**
 * The accumulator contents the array produces: bf16 x bf16 products
 * (exact in fp32) accumulated sequentially in fp32 along k.
 */
Matrix
arrayAccumulate(const Matrix &a, const Matrix &b)
{
    Matrix acc(a.rows(), b.cols(), 0.0f);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < b.cols(); ++c) {
            float sum = 0.0f;
            for (std::size_t kk = 0; kk < a.cols(); ++kk)
                sum += quantizeBf16(a(r, kk)) * quantizeBf16(b(kk, c));
            acc(r, c) = sum;
        }
    }
    return acc;
}

struct Workload
{
    Matrix a, b, acc;
};

Workload
makeWorkload(Rng &rng, std::size_t m, std::size_t k, std::size_t n)
{
    Workload w;
    w.a = Matrix(m, k);
    w.b = Matrix(k, n);
    w.a.fillGaussian(rng, 0.0f, 1.0f);
    w.b.fillGaussian(rng, 0.0f, 1.0f);
    w.acc = arrayAccumulate(w.a, w.b);
    return w;
}

AbftChecker
enabledChecker(bool correct = true)
{
    AbftOptions options;
    options.enabled = true;
    options.correct = correct;
    return AbftChecker(options);
}

TEST(Abft, CleanTileIsNotFlagged)
{
    Rng rng(1);
    Workload w = makeWorkload(rng, 64, 512, 64);
    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checker.checkTile(w.a, w.b, w.acc);
    EXPECT_FALSE(result.flagged);
    EXPECT_TRUE(result.suspectRows.empty());
    EXPECT_TRUE(result.suspectCols.empty());
    EXPECT_EQ(checker.stats().tilesChecked, 1u);
    EXPECT_EQ(checker.stats().tilesFlagged, 0u);
}

TEST(Abft, SingleFlipIsLocatedAndCorrected)
{
    Rng rng(2);
    Workload w = makeWorkload(rng, 48, 256, 48);
    const float original = w.acc(17, 31);
    w.acc(17, 31) = flipFloatBit(original, 24);

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checker.checkTile(w.a, w.b, w.acc);
    EXPECT_TRUE(result.flagged);
    ASSERT_EQ(result.located.size(), 1u);
    EXPECT_EQ(result.located[0].first, 17u);
    EXPECT_EQ(result.located[0].second, 31u);
    ASSERT_EQ(result.corrected.size(), 1u);
    EXPECT_NEAR(w.acc(17, 31), original, 0.05f);
    EXPECT_EQ(checker.stats().locatedElements, 1u);
    EXPECT_EQ(checker.stats().correctedElements, 1u);
    EXPECT_EQ(checker.stats().unlocatedTiles, 0u);
}

TEST(Abft, LocateWithoutCorrectLeavesTheCellAlone)
{
    Rng rng(3);
    Workload w = makeWorkload(rng, 32, 128, 32);
    const float flipped = flipFloatBit(w.acc(4, 7), 28);
    w.acc(4, 7) = flipped;

    AbftChecker checker = enabledChecker(/*correct=*/false);
    const AbftTileResult result = checker.checkTile(w.a, w.b, w.acc);
    ASSERT_EQ(result.located.size(), 1u);
    EXPECT_TRUE(result.corrected.empty());
    EXPECT_EQ(w.acc(4, 7), flipped);
}

TEST(Abft, InfCellIsLocatedAndRepaired)
{
    Rng rng(4);
    Workload w = makeWorkload(rng, 32, 128, 32);
    const float original = w.acc(9, 9);
    w.acc(9, 9) = std::numeric_limits<float>::infinity();

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checker.checkTile(w.a, w.b, w.acc);
    ASSERT_EQ(result.located.size(), 1u);
    EXPECT_EQ(result.located[0], (std::pair<std::size_t, std::size_t>{
                                     9u, 9u }));
    EXPECT_TRUE(std::isfinite(w.acc(9, 9)));
    EXPECT_NEAR(w.acc(9, 9), original, 0.05f);
}

TEST(Abft, TwoFlipsInDistinctRowsAndColsBothLocated)
{
    Rng rng(5);
    Workload w = makeWorkload(rng, 48, 192, 48);
    const float orig_a = w.acc(3, 40);
    const float orig_b = w.acc(30, 6);
    w.acc(3, 40) = flipFloatBit(orig_a, 26);
    w.acc(30, 6) = flipFloatBit(orig_b, 29);

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checker.checkTile(w.a, w.b, w.acc);
    ASSERT_EQ(result.located.size(), 2u);
    EXPECT_EQ(result.corrected.size(), 2u);
    EXPECT_NEAR(w.acc(3, 40), orig_a, 0.05f);
    EXPECT_NEAR(w.acc(30, 6), orig_b, 0.05f);
    EXPECT_EQ(checker.stats().ambiguousElements, 0u);
}

TEST(Abft, SameRowFlipsStayAmbiguousAndUncorrected)
{
    Rng rng(6);
    Workload w = makeWorkload(rng, 32, 128, 32);
    w.acc(12, 3) = flipFloatBit(w.acc(12, 3), 27);
    w.acc(12, 20) = flipFloatBit(w.acc(12, 20), 27);

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checker.checkTile(w.a, w.b, w.acc);
    EXPECT_TRUE(result.flagged);
    EXPECT_TRUE(result.corrected.empty());
    EXPECT_GT(checker.stats().ambiguousElements, 0u);
}

TEST(Abft, CoverageOfVisibleFlipsIsAtLeast99Percent)
{
    // The ISSUE acceptance bar: over a seeded campaign of single-bit
    // flips in the architecturally visible window [16, 31], at least
    // 99% must be detected AND located to the exact accumulator.
    Rng rng(2022);
    const int trials = 250;
    int located = 0;
    for (int t = 0; t < trials; ++t) {
        Workload w = makeWorkload(rng, 48, 256, 48);
        const std::size_t r = rng.below(48);
        const std::size_t c = rng.below(48);
        const std::uint32_t bit =
            16 + static_cast<std::uint32_t>(rng.below(16));
        w.acc(r, c) = flipFloatBit(w.acc(r, c), bit);

        AbftChecker checker = enabledChecker();
        const AbftTileResult result = checker.checkTile(w.a, w.b, w.acc);
        if (result.located.size() == 1 && result.located[0].first == r &&
            result.located[0].second == c)
            ++located;
    }
    EXPECT_GE(located, static_cast<int>(trials * 0.99))
        << "located only " << located << "/" << trials;
}

TEST(Abft, StatsAccumulateAcrossTilesAndReset)
{
    Rng rng(8);
    AbftChecker checker = enabledChecker();
    for (int t = 0; t < 3; ++t) {
        Workload w = makeWorkload(rng, 16, 64, 16);
        w.acc(1, 2) = flipFloatBit(w.acc(1, 2), 30);
        checker.checkTile(w.a, w.b, w.acc);
    }
    EXPECT_EQ(checker.stats().tilesChecked, 3u);
    EXPECT_EQ(checker.stats().tilesFlagged, 3u);
    EXPECT_EQ(checker.stats().locatedElements, 3u);
    EXPECT_DOUBLE_EQ(checker.stats().locateRate(), 1.0);
    checker.resetStats();
    EXPECT_EQ(checker.stats().tilesChecked, 0u);
}

/**
 * The in-place form reads strided sub-views of larger planes — a row
 * tile of a quantized A, one column panel of a quantized B, and the
 * top-left corner of an accumulator store — and shares one panel's
 * checksums across row tiles. Its verdicts, repaired values and stats
 * must equal the Matrix form's on every tile.
 */
TEST(Abft, TileViewsMatchTheMatrixForm)
{
    Rng rng(9);
    const std::size_t m = 24, k = 40, n = 30, tile = 12, store = 16;
    Workload w = makeWorkload(rng, m, k, n);
    for (const std::size_t r : { 1, 13, 22 })
        w.acc(r, (r * 7) % n) = flipFloatBit(w.acc(r, (r * 7) % n), 29);
    w.acc(5, 5) = flipFloatBit(w.acc(5, 5), 27);
    w.acc(5, 8) = flipFloatBit(w.acc(5, 8), 28); // same row: ambiguous

    Matrix qa(m, k), qb(k, n);
    for (std::size_t i = 0; i < qa.size(); ++i)
        qa.data()[i] = quantizeBf16(w.a.data()[i]);
    for (std::size_t i = 0; i < qb.size(); ++i)
        qb.data()[i] = quantizeBf16(w.b.data()[i]);

    AbftChecker by_view = enabledChecker();
    AbftChecker by_matrix = enabledChecker();
    std::size_t corrected = 0;
    for (std::size_t tn = 0; tn < n; tn += tile) {
        const std::size_t cols = std::min(tile, n - tn);
        const AbftPlane b_panel{ qb.data() + tn, n };
        const AbftPanelChecksums panel =
            AbftChecker::panelChecksums(b_panel, k, cols);
        for (std::size_t tm = 0; tm < m; tm += tile) {
            const std::size_t rows = std::min(tile, m - tm);
            SCOPED_TRACE(testing::Message() << tm << "," << tn);
            Matrix a_tile(rows, k), b_tile(k, cols), acc_tile(rows, cols);
            std::vector<float> acc_store(store * store, -1.0f);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t kk = 0; kk < k; ++kk)
                    a_tile(i, kk) = w.a(tm + i, kk);
            for (std::size_t kk = 0; kk < k; ++kk)
                for (std::size_t j = 0; j < cols; ++j)
                    b_tile(kk, j) = w.b(kk, tn + j);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    acc_tile(i, j) = acc_store[i * store + j] =
                        w.acc(tm + i, tn + j);

            const AbftTileResult view = by_view.checkTile(
                { qa.row(tm), k }, b_panel, panel, acc_store.data(), store,
                rows, cols, k);
            const AbftTileResult matrix =
                by_matrix.checkTile(a_tile, b_tile, acc_tile);
            EXPECT_EQ(view.flagged, matrix.flagged);
            EXPECT_EQ(view.suspectRows, matrix.suspectRows);
            EXPECT_EQ(view.suspectCols, matrix.suspectCols);
            EXPECT_EQ(view.located, matrix.located);
            ASSERT_EQ(view.corrected, matrix.corrected);
            ASSERT_EQ(view.repaired.size(), view.corrected.size());
            for (std::size_t f = 0; f < view.corrected.size(); ++f) {
                const auto &[r, c] = view.corrected[f];
                EXPECT_EQ(floatBits(view.repaired[f]),
                          floatBits(acc_tile(r, c)));
            }
            corrected += view.corrected.size();
        }
    }
    EXPECT_GT(corrected, 0u);
    EXPECT_GT(by_view.stats().ambiguousElements, 0u);
    EXPECT_EQ(by_view.stats().tilesFlagged, by_matrix.stats().tilesFlagged);
    EXPECT_EQ(by_view.stats().locatedElements,
              by_matrix.stats().locatedElements);
    EXPECT_EQ(by_view.stats().ambiguousElements,
              by_matrix.stats().ambiguousElements);
    EXPECT_EQ(by_view.stats().correctedElements,
              by_matrix.stats().correctedElements);
    EXPECT_EQ(by_view.stats().unlocatedTiles,
              by_matrix.stats().unlocatedTiles);
}

} // namespace
} // namespace prose
