/** @file Cross-validation of the diagonal-batched stepped matmul engine
 *  against the scalar PE walk it replaces (the ScalarWalkArray test
 *  oracle): randomized op sequences, exhaustive edge shapes, mixed-tile
 *  live regions, and supply-limited streams must agree bit-for-bit in
 *  register file, counters, and stream-buffer state. Under fault
 *  campaigns — armed or not for the array's accumulator site — the
 *  deterministic replay (event log: tile order, PE coordinates, bit
 *  positions) must be byte-identical on every engine and the oracle. */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "fault/fault_injector.hh"
#include "numerics/matrix.hh"
#include "scalar_walk_array.hh"
#include "systolic/fsim_mode.hh"
#include "systolic/systolic_array.hh"

namespace prose {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols, float scale)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, scale);
    return m;
}

bool
bitEqual(float x, float y)
{
    return std::memcmp(&x, &y, sizeof(float)) == 0;
}

void
expectBitIdentical(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            ASSERT_TRUE(bitEqual(a(i, j), b(i, j)))
                << what << " (" << i << "," << j << "): " << a(i, j)
                << " vs " << b(i, j);
}

/** Everything observable after an op sequence. */
struct SequenceResult
{
    std::vector<Matrix> drains;
    Matrix finalAcc;
    std::uint64_t matmulCycles = 0;
    std::uint64_t simdCycles = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t macCount = 0;
    std::uint64_t simdOpCount = 0;
    double aOccupancy = 0.0;
    double bOccupancy = 0.0;
    std::uint64_t aStalls = 0;
    std::uint64_t bStalls = 0;
    std::uint64_t aConsumed = 0;
    std::uint64_t bConsumed = 0;
};

template <typename Array>
void
captureStats(const Array &array, SequenceResult &result)
{
    result.matmulCycles = array.matmulCycles();
    result.simdCycles = array.simdCycles();
    result.stallCycles = array.stallCycles();
    result.macCount = array.macCount();
    result.simdOpCount = array.simdOpCount();
    result.aOccupancy = array.aBuffer().occupancy();
    result.bOccupancy = array.bBuffer().occupancy();
    result.aStalls = array.aBuffer().stallCycles();
    result.bStalls = array.bBuffer().stallCycles();
    result.aConsumed = array.aBuffer().consumed();
    result.bConsumed = array.bBuffer().consumed();
}

/**
 * Replay a seed-determined random op sequence on the stepped engine or
 * on the scalar-walk oracle. The rng draws are identical across the
 * two, so both see the same geometry, rates, shapes, data, and op mix;
 * matmuls are deliberately over-weighted relative to the fast-forward
 * sequences because the matmul path is the only one batching touches.
 */
template <typename Array>
SequenceResult
runRandomSequence(std::uint64_t seed, bool ideal_rates)
{
    Rng rng(seed);
    const std::size_t dim = 4 + rng.below(13); // 4..16
    ArrayGeometry geom = ArrayGeometry::gType(dim);
    geom.hasExp = true;
    const double a_rate = ideal_rates ? 1e18 : rng.uniform(0.2, 2.5);
    const double b_rate = ideal_rates ? 1e18 : rng.uniform(0.2, 2.5);
    Array array(geom, a_rate, b_rate);
    if constexpr (std::is_same_v<Array, SystolicArray>)
        array.setMode(FsimMode::Stepped);

    SequenceResult result;
    bool live = false;
    const std::size_t ops = 12;
    for (std::size_t op = 0; op < ops; ++op) {
        // 0..2 are all matmul so most of the sequence exercises the
        // batched sweep; the rest interleave SIMD passes and drains to
        // prove the batched tiles leave the same architectural state
        // behind for them.
        const std::uint64_t kind = live ? rng.below(7) : 0;
        switch (kind) {
          case 0:
          case 1:
          case 2: { // matmul (accumulates into any live tile)
            const std::size_t rows = 1 + rng.below(dim);
            const std::size_t cols = 1 + rng.below(dim);
            const std::size_t k = 1 + rng.below(24);
            const float scale =
                static_cast<float>(rng.uniform(0.2, 4.0));
            const Matrix a = randomMatrix(rng, rows, k, scale);
            const Matrix b = randomMatrix(rng, k, cols, scale);
            array.matmulTile(a, b);
            live = true;
            break;
          }
          case 3:
            array.simdScalar(SimdOp::MulScalar,
                             static_cast<float>(rng.uniform(-2.0, 2.0)));
            break;
          case 4: {
            const SimdOp op_kind =
                rng.below(2) ? SimdOp::MulVector : SimdOp::AddVector;
            array.simdVector(op_kind,
                             randomMatrix(rng, dim, dim, 1.0f));
            break;
          }
          case 5:
            array.simdSpecial(rng.below(2) ? SimdOp::Gelu : SimdOp::Exp);
            break;
          case 6: {
            Matrix out;
            array.drain(out);
            result.drains.push_back(std::move(out));
            live = false;
            break;
          }
        }
    }
    if (live)
        result.finalAcc = array.accumulators();
    captureStats(array, result);
    return result;
}

void
expectSequencesAgree(const SequenceResult &batched,
                     const SequenceResult &scalar)
{
    ASSERT_EQ(batched.drains.size(), scalar.drains.size());
    for (std::size_t d = 0; d < batched.drains.size(); ++d)
        expectBitIdentical(batched.drains[d], scalar.drains[d], "drain");
    expectBitIdentical(batched.finalAcc, scalar.finalAcc,
                       "accumulators");
    EXPECT_EQ(batched.matmulCycles, scalar.matmulCycles);
    EXPECT_EQ(batched.simdCycles, scalar.simdCycles);
    EXPECT_EQ(batched.stallCycles, scalar.stallCycles);
    EXPECT_EQ(batched.macCount, scalar.macCount);
    EXPECT_EQ(batched.simdOpCount, scalar.simdOpCount);
    EXPECT_EQ(batched.aStalls, scalar.aStalls);
    EXPECT_EQ(batched.bStalls, scalar.bStalls);
    EXPECT_EQ(batched.aConsumed, scalar.aConsumed);
    EXPECT_EQ(batched.bConsumed, scalar.bConsumed);
    EXPECT_TRUE(std::memcmp(&batched.aOccupancy, &scalar.aOccupancy,
                            sizeof(double)) == 0)
        << batched.aOccupancy << " vs " << scalar.aOccupancy;
    EXPECT_TRUE(std::memcmp(&batched.bOccupancy, &scalar.bOccupancy,
                            sizeof(double)) == 0)
        << batched.bOccupancy << " vs " << scalar.bOccupancy;
}

TEST(DiagonalBatching, MatchesScalarWalkOnRandomSequencesIdealSupply)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        expectSequencesAgree(runRandomSequence<SystolicArray>(seed, true),
                             runRandomSequence<ScalarWalkArray>(seed, true));
    }
}

TEST(DiagonalBatching, MatchesScalarWalkOnRandomSequencesFractionalSupply)
{
    bool saw_stalls = false;
    for (std::uint64_t seed = 100; seed <= 112; ++seed) {
        SCOPED_TRACE(seed);
        const SequenceResult batched =
            runRandomSequence<SystolicArray>(seed, false);
        expectSequencesAgree(
            batched, runRandomSequence<ScalarWalkArray>(seed, false));
        saw_stalls = saw_stalls || batched.stallCycles > 0;
    }
    // The sweep must actually exercise the gate-replay elision (the
    // non-closed-form branch of fastForwardMatmulGating).
    EXPECT_TRUE(saw_stalls);
}

/**
 * Exhaustive sweep of the degenerate wavefront geometries: single-row /
 * single-column tiles (every diagonal has length 1), full-dim tiles
 * (the center diagonal spans the whole array), and depth-1 products
 * (one MAC per accumulator). Each shape is checked in isolation so a
 * failure names the exact (rows, cols, k) triple.
 */
TEST(DiagonalBatching, EdgeShapeSweepMatchesScalarWalk)
{
    const std::size_t dim = 8;
    const std::size_t extents[] = { 1, 2, 3, dim - 1, dim };
    const std::size_t depths[] = { 1, 2, 5, 33 };
    Rng rng(2024);
    for (const std::size_t rows : extents) {
        for (const std::size_t cols : extents) {
            for (const std::size_t k : depths) {
                SCOPED_TRACE(testing::Message()
                             << rows << "x" << k << " * " << k << "x"
                             << cols);
                const Matrix a = randomMatrix(rng, rows, k, 2.0f);
                const Matrix b = randomMatrix(rng, k, cols, 2.0f);

                SystolicArray batched(ArrayGeometry::mType(dim));
                batched.setMode(FsimMode::Stepped);
                ScalarWalkArray scalar(ArrayGeometry::mType(dim));

                const std::uint64_t bc = batched.matmulTile(a, b);
                const std::uint64_t sc = scalar.matmulTile(a, b);
                EXPECT_EQ(bc, sc);
                expectBitIdentical(batched.accumulators(),
                                   scalar.accumulators(), "acc");
                EXPECT_EQ(batched.macCount(), scalar.macCount());
                EXPECT_EQ(batched.matmulCycles(),
                          scalar.matmulCycles());
            }
        }
    }
}

/**
 * Mixed tile sizes: the live region is the bounding-box union of every
 * tile since the last drain (docs/MICROARCHITECTURE.md, "Live-region
 * semantics"), and the batched path must grow it — and accumulate into
 * partially-stale unions — exactly like the scalar walk.
 */
TEST(DiagonalBatching, LiveRegionBoundingBoxUnionMatchesScalarWalk)
{
    Rng rng(11);
    SystolicArray batched(ArrayGeometry::mType(8));
    batched.setMode(FsimMode::Stepped);
    ScalarWalkArray scalar(ArrayGeometry::mType(8));

    // Wide-then-tall, tall-then-wide, then a strict-subset tile: every
    // union transition the bounding box can make.
    const std::size_t shapes[][3] = {
        { 5, 3, 4 }, { 2, 7, 6 }, { 1, 4, 2 }, { 8, 2, 8 }, { 3, 9, 3 }
    };
    for (const auto &shape : shapes) {
        const Matrix a = randomMatrix(rng, shape[0], shape[1], 1.0f);
        const Matrix b = randomMatrix(rng, shape[1], shape[2], 1.0f);
        batched.matmulTile(a, b);
        scalar.matmulTile(a, b);
        expectBitIdentical(batched.accumulators(), scalar.accumulators(),
                           "union acc");
    }
    Matrix batched_out, scalar_out;
    EXPECT_EQ(batched.drain(batched_out), scalar.drain(scalar_out));
    expectBitIdentical(batched_out, scalar_out, "union drain");
}

TEST(DiagonalBatchingFallback, NonUniformFillProfileTakesScalarWalk)
{
    Rng rng(3);
    const Matrix a = randomMatrix(rng, 6, 9, 1.0f);
    const Matrix b = randomMatrix(rng, 9, 5, 1.0f);

    // Bursty host: nothing on even fill ticks, two entries on odd. The
    // batched engine replays the gate recurrence tick by tick, so it
    // must agree with the scalar walk — and stall.
    SystolicArray batched(ArrayGeometry::mType(8), 1.0, 1.0);
    batched.setMode(FsimMode::Stepped);
    batched.aBuffer().setFillProfile({ 0.0, 2.0 });
    ScalarWalkArray scalar(ArrayGeometry::mType(8), 1.0, 1.0);
    scalar.aBuffer().setFillProfile({ 0.0, 2.0 });

    EXPECT_EQ(batched.matmulTile(a, b), scalar.matmulTile(a, b));
    expectBitIdentical(batched.accumulators(), scalar.accumulators(),
                       "profile acc");
    EXPECT_EQ(batched.stallCycles(), scalar.stallCycles());
    EXPECT_GT(batched.stallCycles(), 0u);
}

/** A fixed tile list replayed on one engine under a fault campaign. */
struct FaultReplay
{
    Matrix acc;
    std::string log;
    std::size_t events = 0;
    std::uint64_t matmulCycles = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t macCount = 0;
};

using Tile = std::pair<Matrix, Matrix>;

template <typename Array>
FaultReplay
replayUnderCampaign(Array &array, const CampaignSpec &spec,
                    const std::string &site, const std::vector<Tile> &tiles)
{
    FaultInjector injector(spec);
    array.setFaultInjector(&injector, site);
    for (const auto &[a, b] : tiles)
        array.matmulTile(a, b);
    array.setFaultInjector(nullptr, "");
    FaultReplay replay;
    replay.acc = array.accumulators();
    replay.log = injector.eventLogText();
    replay.events = injector.events().size();
    replay.matmulCycles = array.matmulCycles();
    replay.stallCycles = array.stallCycles();
    replay.macCount = array.macCount();
    return replay;
}

/**
 * Replay `tiles` under `spec` at `site` on the stepped, fast and
 * validate engines and on the scalar-walk oracle; every engine must
 * leave the oracle's accumulator bits, counters and byte-identical
 * event log. Returns the oracle's replay.
 */
FaultReplay
expectEveryEngineMatchesOracle(const CampaignSpec &spec,
                               const std::string &site,
                               const std::vector<Tile> &tiles,
                               double a_rate = 1e18, double b_rate = 1e18)
{
    ScalarWalkArray oracle(ArrayGeometry::mType(8), a_rate, b_rate);
    const FaultReplay want = replayUnderCampaign(oracle, spec, site, tiles);
    for (const FsimMode mode :
         { FsimMode::Stepped, FsimMode::Fast, FsimMode::Validate }) {
        SCOPED_TRACE(toString(mode));
        SystolicArray array(ArrayGeometry::mType(8), a_rate, b_rate);
        array.setMode(mode);
        const FaultReplay got =
            replayUnderCampaign(array, spec, site, tiles);
        expectBitIdentical(got.acc, want.acc, "fault acc");
        EXPECT_EQ(got.log, want.log);
        EXPECT_EQ(got.matmulCycles, want.matmulCycles);
        EXPECT_EQ(got.stallCycles, want.stallCycles);
        EXPECT_EQ(got.macCount, want.macCount);
    }
    return want;
}

/**
 * Fault-campaign replay with transient accumulator flips under
 * supply-limited streams: which tiles are visited in which order, which
 * PE coordinates and bit positions flip, must be byte-identical in the
 * deterministic event log on every engine and the scalar walk.
 */
TEST(DiagonalBatchingFallback, ArmedInjectorReplayIsByteIdentical)
{
    CampaignSpec spec;
    spec.seed = 77;
    spec.accFlipRate = 0.05;

    Rng rng(5);
    std::vector<Tile> tiles;
    for (int tile = 0; tile < 4; ++tile) {
        Matrix a = randomMatrix(rng, 7, 6, 1.0f);
        Matrix b = randomMatrix(rng, 6, 8, 1.0f);
        tiles.emplace_back(std::move(a), std::move(b));
    }
    const FaultReplay oracle =
        expectEveryEngineMatchesOracle(spec, "M0", tiles, 0.6, 1.3);
    EXPECT_GT(oracle.events, 0u);
    EXPECT_GT(oracle.stallCycles, 0u);
}

/**
 * An attached injector whose campaign cannot touch this array's
 * accumulators — stuck bits pinned to a different site, link-only
 * faults — corrupts nothing and logs nothing, on every engine.
 */
TEST(DiagonalBatchingFallback, UnarmedSiteKeepsBatchingAndReplay)
{
    CampaignSpec spec;
    spec.seed = 31;
    spec.linkErrorRate = 0.5; // never sampled by the systolic array
    StuckBitFault stuck;
    stuck.site = "M0";
    stuck.row = 2;
    stuck.col = 3;
    stuck.bit = 30;
    stuck.stuckHigh = true;
    spec.stuckBits.push_back(stuck);

    Rng rng(13);
    std::vector<Tile> tiles;
    for (int tile = 0; tile < 3; ++tile) {
        Matrix a = randomMatrix(rng, 6, 5, 1.0f);
        Matrix b = randomMatrix(rng, 5, 7, 1.0f);
        tiles.emplace_back(std::move(a), std::move(b));
    }
    const FaultReplay oracle =
        expectEveryEngineMatchesOracle(spec, "E0", tiles);
    EXPECT_EQ(oracle.events, 0u);
}

/**
 * The same stuck-bit campaign attached at its own site pins the bit on
 * the exact same PE on every engine.
 */
TEST(DiagonalBatchingFallback, StuckBitAtArmedSiteReplaysIdentically)
{
    CampaignSpec spec;
    spec.seed = 31;
    StuckBitFault stuck;
    stuck.site = "M0";
    stuck.row = 2;
    stuck.col = 3;
    stuck.bit = 30;
    stuck.stuckHigh = true;
    spec.stuckBits.push_back(stuck);

    Rng rng(13);
    const Matrix a = randomMatrix(rng, 6, 5, 1.0f);
    const Matrix b = randomMatrix(rng, 5, 7, 1.0f);
    const std::vector<Tile> tiles{ Tile(a, b) };
    const FaultReplay oracle =
        expectEveryEngineMatchesOracle(spec, "M0", tiles);
    // The stuck bit really fired on the armed site.
    EXPECT_GT(oracle.events, 0u);
}

/**
 * Validate mode cross-checks the fast engine against the (batched)
 * stepped engine inside dispatch() and panics on divergence; its
 * results must still equal the scalar walk, closing the triangle
 * fast == batched == scalar walk.
 */
TEST(DiagonalBatching, ValidateModeClosesTheEngineTriangle)
{
    for (std::uint64_t seed = 200; seed <= 204; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const std::size_t dim = 4 + rng.below(13);
        const Matrix a = randomMatrix(rng, 1 + rng.below(dim),
                                      1 + rng.below(24), 1.0f);
        const Matrix b = randomMatrix(rng, a.cols(),
                                      1 + rng.below(dim), 1.0f);

        SystolicArray validate(ArrayGeometry::mType(dim));
        validate.setMode(FsimMode::Validate);
        ScalarWalkArray scalar(ArrayGeometry::mType(dim));

        EXPECT_EQ(validate.matmulTile(a, b), scalar.matmulTile(a, b));
        expectBitIdentical(validate.accumulators(),
                           scalar.accumulators(), "validate acc");
        EXPECT_EQ(validate.matmulCycles(), scalar.matmulCycles());
        EXPECT_EQ(validate.macCount(), scalar.macCount());
    }
}

} // namespace
} // namespace prose
