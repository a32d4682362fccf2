/** @file Cross-validation of the fast-forward execution engine against
 *  the cycle-stepped engine: randomized geometries, tile shapes, supply
 *  rates, and op mixes must agree bit-for-bit in register file,
 *  cycle/stall/MAC counters, and stream-buffer state. Fault campaigns,
 *  ABFT, and non-uniform fill profiles run on every engine and must
 *  leave byte-identical fault logs, bit-identical outputs, and equal
 *  counters on fast, stepped, validate and the scalar-walk oracle. Also
 *  pins down the live-region (bounding-box union) semantics with mixed
 *  tile sizes. */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"
#include "numerics/matrix.hh"
#include "scalar_walk_array.hh"
#include "systolic/fsim_mode.hh"
#include "systolic/functional_sim.hh"
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
    std::string faultLog;
};

/** What every engine of one comparison runs under, identically. */
struct Conditions
{
    std::optional<CampaignSpec> campaign; ///< attached at site "G0"
    std::vector<double> aFillProfile;     ///< empty = uniform
};

/**
 * Replay a seed-determined random op sequence on one array: a
 * SystolicArray on the given engine, or the scalar-walk oracle. The rng
 * draws are identical across engines, so two calls with the same seed
 * see the same geometry, rates, shapes, data, and op mix.
 */
template <typename Array = SystolicArray>
SequenceResult
runRandomSequence(FsimMode mode, std::uint64_t seed, bool ideal_rates,
                  const Conditions &conditions = {})
{
    Rng rng(seed);
    const std::size_t dim = 4 + rng.below(13); // 4..16
    ArrayGeometry geom = ArrayGeometry::gType(dim);
    geom.hasExp = true; // exercise both LUT kinds on one array
    const double a_rate = ideal_rates ? 1e18 : rng.uniform(0.2, 2.5);
    const double b_rate = ideal_rates ? 1e18 : rng.uniform(0.2, 2.5);
    Array array(geom, a_rate, b_rate);
    if constexpr (std::is_same_v<Array, SystolicArray>)
        array.setMode(mode);
    if (!conditions.aFillProfile.empty())
        array.aBuffer().setFillProfile(conditions.aFillProfile);
    std::optional<FaultInjector> injector;
    if (conditions.campaign) {
        injector.emplace(*conditions.campaign);
        array.setFaultInjector(&*injector, "G0");
    }

    SequenceResult result;
    bool live = false;
    const std::size_t ops = 12;
    for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t kind = live ? rng.below(6) : 0;
        switch (kind) {
          case 0: { // matmul (accumulates into any live tile)
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
          case 1:
            array.simdScalar(SimdOp::MulScalar,
                             static_cast<float>(rng.uniform(-2.0, 2.0)));
            break;
          case 2:
            array.simdScalar(SimdOp::AddScalar,
                             static_cast<float>(rng.uniform(-2.0, 2.0)));
            break;
          case 3: {
            const SimdOp op_kind =
                rng.below(2) ? SimdOp::MulVector : SimdOp::AddVector;
            array.simdVector(op_kind,
                             randomMatrix(rng, dim, dim, 1.0f));
            break;
          }
          case 4:
            array.simdSpecial(rng.below(2) ? SimdOp::Gelu : SimdOp::Exp);
            break;
          case 5: {
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
    if (injector)
        result.faultLog = injector->eventLogText();
    return result;
}

void
expectSequencesAgree(const SequenceResult &fast,
                     const SequenceResult &stepped)
{
    ASSERT_EQ(fast.drains.size(), stepped.drains.size());
    for (std::size_t d = 0; d < fast.drains.size(); ++d)
        expectBitIdentical(fast.drains[d], stepped.drains[d], "drain");
    expectBitIdentical(fast.finalAcc, stepped.finalAcc, "accumulators");
    EXPECT_EQ(fast.matmulCycles, stepped.matmulCycles);
    EXPECT_EQ(fast.simdCycles, stepped.simdCycles);
    EXPECT_EQ(fast.stallCycles, stepped.stallCycles);
    EXPECT_EQ(fast.macCount, stepped.macCount);
    EXPECT_EQ(fast.simdOpCount, stepped.simdOpCount);
    EXPECT_EQ(fast.aStalls, stepped.aStalls);
    EXPECT_EQ(fast.bStalls, stepped.bStalls);
    EXPECT_EQ(fast.aConsumed, stepped.aConsumed);
    EXPECT_EQ(fast.bConsumed, stepped.bConsumed);
    EXPECT_TRUE(std::memcmp(&fast.aOccupancy, &stepped.aOccupancy,
                            sizeof(double)) == 0)
        << fast.aOccupancy << " vs " << stepped.aOccupancy;
    EXPECT_TRUE(std::memcmp(&fast.bOccupancy, &stepped.bOccupancy,
                            sizeof(double)) == 0)
        << fast.bOccupancy << " vs " << stepped.bOccupancy;
    EXPECT_EQ(fast.faultLog, stepped.faultLog);
}

TEST(FastForward, MatchesSteppedOnRandomSequencesIdealSupply)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        expectSequencesAgree(
            runRandomSequence(FsimMode::Fast, seed, true),
            runRandomSequence(FsimMode::Stepped, seed, true));
    }
}

TEST(FastForward, MatchesSteppedOnRandomSequencesFractionalSupply)
{
    bool saw_stalls = false;
    for (std::uint64_t seed = 100; seed <= 112; ++seed) {
        SCOPED_TRACE(seed);
        const SequenceResult fast =
            runRandomSequence(FsimMode::Fast, seed, false);
        expectSequencesAgree(
            fast, runRandomSequence(FsimMode::Stepped, seed, false));
        saw_stalls = saw_stalls || fast.stallCycles > 0;
    }
    // The sweep must actually exercise the stall-gating replay.
    EXPECT_TRUE(saw_stalls);
}

TEST(FastForward, ValidateModeRunsBothEnginesAndAgrees)
{
    // Validate panics on any engine divergence; it must also produce
    // exactly the stepped results.
    for (std::uint64_t seed = 200; seed <= 206; ++seed) {
        SCOPED_TRACE(seed);
        expectSequencesAgree(
            runRandomSequence(FsimMode::Validate, seed, true),
            runRandomSequence(FsimMode::Stepped, seed, true));
        expectSequencesAgree(
            runRandomSequence(FsimMode::Validate, seed, false),
            runRandomSequence(FsimMode::Stepped, seed, false));
    }
}

TEST(FastForward, AlphaAndAddendVariantsThroughFunctionalSim)
{
    Rng rng(42);
    const Matrix a = randomMatrix(rng, 37, 29, 1.0f);
    const Matrix b = randomMatrix(rng, 29, 41, 1.0f);
    const Matrix bias = randomMatrix(rng, 1, 41, 1.0f);
    const Matrix residual = randomMatrix(rng, 37, 41, 1.0f);
    const float alphas[] = { 1.0f, 0.125f, -1.75f };
    const Matrix *addends[] = { nullptr, &bias, &residual };

    for (const float alpha : alphas) {
        for (const Matrix *addend : addends) {
            FunctionalSimulator fast_sim(ArrayGeometry::mType(16),
                                         ArrayGeometry::gType(16),
                                         ArrayGeometry::eType(16));
            FunctionalSimulator stepped_sim(ArrayGeometry::mType(16),
                                            ArrayGeometry::gType(16),
                                            ArrayGeometry::eType(16));
            fast_sim.setMode(FsimMode::Fast);
            stepped_sim.setMode(FsimMode::Stepped);
            expectBitIdentical(fast_sim.dataflow1(a, b, alpha, addend),
                               stepped_sim.dataflow1(a, b, alpha, addend),
                               "dataflow1");
            expectBitIdentical(fast_sim.dataflow2(a, b, alpha, addend),
                               stepped_sim.dataflow2(a, b, alpha, addend),
                               "dataflow2");
            EXPECT_EQ(fast_sim.matmulCycles(),
                      stepped_sim.matmulCycles());
            EXPECT_EQ(fast_sim.simdCycles(), stepped_sim.simdCycles());
            EXPECT_EQ(fast_sim.macCount(), stepped_sim.macCount());
        }
    }
}

TEST(FastForward, Dataflow3BatchParallelClonesInheritTheEngine)
{
    Rng rng(7);
    std::vector<Matrix> q, k, v;
    for (int batch = 0; batch < 4; ++batch) {
        q.push_back(randomMatrix(rng, 20, 12, 1.0f));
        k.push_back(randomMatrix(rng, 20, 12, 1.0f));
        v.push_back(randomMatrix(rng, 20, 12, 1.0f));
    }
    FunctionalSimulator fast_sim;
    FunctionalSimulator stepped_sim;
    fast_sim.setMode(FsimMode::Fast);
    stepped_sim.setMode(FsimMode::Stepped);
    const std::vector<Matrix> fast_ctx =
        fast_sim.dataflow3(q, k, v, 0.288675f);
    const std::vector<Matrix> stepped_ctx =
        stepped_sim.dataflow3(q, k, v, 0.288675f);
    ASSERT_EQ(fast_ctx.size(), stepped_ctx.size());
    for (std::size_t batch = 0; batch < fast_ctx.size(); ++batch)
        expectBitIdentical(fast_ctx[batch], stepped_ctx[batch],
                           "dataflow3 context");
    EXPECT_EQ(fast_sim.matmulCycles(), stepped_sim.matmulCycles());
    EXPECT_EQ(fast_sim.simdCycles(), stepped_sim.simdCycles());
    EXPECT_EQ(fast_sim.macCount(), stepped_sim.macCount());
}

/**
 * Live-region semantics (see docs/MICROARCHITECTURE.md): the live
 * region is the bounding-box UNION of all tiles since the last
 * drain/clear, because a smaller tile leaves the larger tile's stale
 * accumulators physically in place and the rotation/OUTPUT sweeps must
 * cover them.
 */
TEST(LiveRegion, MixedTileSizesKeepTheBoundingBoxUnion)
{
    Rng rng(11);
    SystolicArray array(ArrayGeometry::mType(8));
    array.setMode(FsimMode::Validate);

    const Matrix a1 = randomMatrix(rng, 5, 3, 1.0f);
    const Matrix b1 = randomMatrix(rng, 3, 4, 1.0f);
    array.matmulTile(a1, b1);
    EXPECT_EQ(array.accumulators().rows(), 5u);
    EXPECT_EQ(array.accumulators().cols(), 4u);

    // A smaller tile does NOT shrink the live region...
    const Matrix a2 = randomMatrix(rng, 2, 7, 1.0f);
    const Matrix b2 = randomMatrix(rng, 7, 6, 1.0f);
    array.matmulTile(a2, b2);
    const Matrix acc = array.accumulators();
    ASSERT_EQ(acc.rows(), 5u);
    ASSERT_EQ(acc.cols(), 6u);

    // ...and the union holds both products, zero elsewhere.
    const Matrix p1 = matmulBf16(a1, b1);
    const Matrix p2 = matmulBf16(a2, b2);
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 6; ++j) {
            float expected = 0.0f;
            if (i < p1.rows() && j < p1.cols())
                expected += p1(i, j);
            if (i < p2.rows() && j < p2.cols())
                expected += p2(i, j);
            ASSERT_TRUE(bitEqual(acc(i, j), expected))
                << i << "," << j;
        }
    }

    // SIMD passes and the OUTPUT port sweep the whole union: one cycle
    // per live column.
    EXPECT_EQ(array.simdScalar(SimdOp::MulScalar, 1.0f), 6u);
    Matrix out;
    EXPECT_EQ(array.drain(out), 6u);
    EXPECT_EQ(out.rows(), 5u);
    EXPECT_EQ(out.cols(), 6u);

    // drain() clears the region, so a following small tile starts a
    // fresh bounding box.
    array.matmulTile(a2, b2);
    EXPECT_EQ(array.accumulators().rows(), 2u);
    EXPECT_EQ(array.accumulators().cols(), 6u);
}

TEST(FastForwardFallback, NonUniformFillProfileForcesStepped)
{
    Rng rng(3);
    const Matrix a = randomMatrix(rng, 6, 9, 1.0f);
    const Matrix b = randomMatrix(rng, 9, 5, 1.0f);

    // Bursty host: nothing on even fill ticks, two entries on odd. The
    // profile no longer forces the stepped engine: the fast engine stays
    // selected and must land on the stepped machine's cycles, bits and
    // stalls.
    SystolicArray fast_array(ArrayGeometry::mType(8), 1.0, 1.0);
    fast_array.setMode(FsimMode::Fast);
    fast_array.aBuffer().setFillProfile({ 0.0, 2.0 });
    SystolicArray stepped_array(ArrayGeometry::mType(8), 1.0, 1.0);
    stepped_array.setMode(FsimMode::Stepped);
    stepped_array.aBuffer().setFillProfile({ 0.0, 2.0 });

    EXPECT_EQ(fast_array.matmulTile(a, b),
              stepped_array.matmulTile(a, b));
    EXPECT_EQ(fast_array.mode(), FsimMode::Fast);
    expectBitIdentical(fast_array.accumulators(),
                       stepped_array.accumulators(), "profile acc");
    EXPECT_EQ(fast_array.stallCycles(), stepped_array.stallCycles());
    EXPECT_GT(fast_array.stallCycles(), 0u);

    // Restoring the uniform profile mid-run keeps the engines in step.
    fast_array.aBuffer().setFillProfile({});
    stepped_array.aBuffer().setFillProfile({});
    EXPECT_EQ(fast_array.matmulTile(a, b),
              stepped_array.matmulTile(a, b));
    expectBitIdentical(fast_array.accumulators(),
                       stepped_array.accumulators(), "uniform acc");
    EXPECT_EQ(fast_array.stallCycles(), stepped_array.stallCycles());
}

constexpr FsimMode kEngines[] = { FsimMode::Fast, FsimMode::Stepped,
                                  FsimMode::Validate };

/**
 * Random op sequences (seeds lo..hi) under `conditions`: fast, stepped
 * and validate must each leave exactly the scalar-walk oracle's state —
 * drains, accumulators, counters, buffer state and fault log. Returns
 * the oracle's results.
 */
std::vector<SequenceResult>
expectEnginesMatchOracle(std::uint64_t lo, std::uint64_t hi,
                         bool ideal_rates, const Conditions &conditions)
{
    std::vector<SequenceResult> oracles;
    for (std::uint64_t seed = lo; seed <= hi; ++seed) {
        SCOPED_TRACE(seed);
        oracles.push_back(runRandomSequence<ScalarWalkArray>(
            FsimMode::Stepped, seed, ideal_rates, conditions));
        for (const FsimMode mode : kEngines) {
            SCOPED_TRACE(toString(mode));
            expectSequencesAgree(
                runRandomSequence(mode, seed, ideal_rates, conditions),
                oracles.back());
        }
    }
    return oracles;
}

TEST(EngineEquivalence, NonUniformFillProfileMatchesOnEveryEngine)
{
    // Bursty host: nothing on even fill ticks, two entries on odd. The
    // fast engine replays the gate recurrence tick by tick, reading the
    // profile exactly like the stepped machine.
    Rng rng(3);
    const Matrix a = randomMatrix(rng, 6, 9, 1.0f);
    const Matrix b = randomMatrix(rng, 9, 5, 1.0f);
    ScalarWalkArray oracle(ArrayGeometry::mType(8), 1.0, 1.0);
    oracle.aBuffer().setFillProfile({ 0.0, 2.0 });
    const std::uint64_t want = oracle.matmulTile(a, b);
    EXPECT_GT(oracle.stallCycles(), 0u);
    for (const FsimMode mode : kEngines) {
        SCOPED_TRACE(toString(mode));
        SystolicArray array(ArrayGeometry::mType(8), 1.0, 1.0);
        array.setMode(mode);
        array.aBuffer().setFillProfile({ 0.0, 2.0 });
        EXPECT_EQ(array.matmulTile(a, b), want);
        expectBitIdentical(array.accumulators(), oracle.accumulators(),
                           "profile acc");
        EXPECT_EQ(array.stallCycles(), oracle.stallCycles());
        EXPECT_EQ(array.aBuffer().fillTicks(),
                  oracle.aBuffer().fillTicks());
    }

    // Whole op sequences, SIMD vector passes included (they stream
    // through the profiled west-edge buffer too).
    Conditions bursty;
    bursty.aFillProfile = { 0.0, 2.0 };
    expectEnginesMatchOracle(300, 305, false, bursty);
    Conditions uneven;
    uneven.aFillProfile = { 1.5, 0.0, 0.25, 0.5 };
    expectEnginesMatchOracle(310, 315, true, uneven);
}

TEST(EngineEquivalence, InjectorReplayMatchesOnEveryEngine)
{
    // Transient flips plus a stuck bit at the array's own site: the
    // injector corrupts each tile once, after whichever engine computed
    // it, so every engine draws the identical RNG sequence and the SIMD
    // passes and drains see identical corrupted cells.
    Conditions faulty;
    faulty.campaign.emplace();
    faulty.campaign->seed = 77;
    faulty.campaign->accFlipRate = 0.02;
    StuckBitFault stuck;
    stuck.site = "G0";
    stuck.row = 1;
    stuck.col = 2;
    stuck.bit = 29;
    stuck.stuckHigh = true;
    faulty.campaign->stuckBits.push_back(stuck);

    bool logged = false;
    for (const SequenceResult &oracle :
         expectEnginesMatchOracle(400, 407, true, faulty))
        logged = logged || !oracle.faultLog.empty();
    EXPECT_TRUE(logged);

    // The same campaign under supply-limited streams and a bursty
    // profile: faults, stalls and fill profiles compose.
    faulty.aFillProfile = { 0.0, 2.0 };
    expectEnginesMatchOracle(410, 413, false, faulty);
}

/** Everything a FunctionalSimulator run exposes. */
struct SimRun
{
    std::vector<Matrix> outputs;
    AbftStats abft;
    std::string faultLog;
    std::uint64_t matmulCycles = 0;
    std::uint64_t simdCycles = 0;
    std::uint64_t macCount = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t aStalls = 0;
    std::uint64_t aFillTicks = 0;
};

SimRun
runAbftDataflows(FsimMode mode, const CampaignSpec &spec)
{
    Rng rng(9);
    const Matrix a = randomMatrix(rng, 40, 24, 1.0f);
    const Matrix b = randomMatrix(rng, 24, 36, 1.0f);
    const Matrix residual = randomMatrix(rng, 40, 36, 1.0f);
    const Matrix bias = randomMatrix(rng, 1, 36, 1.0f);
    std::vector<Matrix> q, k, v;
    for (int batch = 0; batch < 2; ++batch) {
        q.push_back(randomMatrix(rng, 20, 16, 1.0f));
        k.push_back(randomMatrix(rng, 20, 16, 1.0f));
        v.push_back(randomMatrix(rng, 20, 16, 1.0f));
    }

    AbftOptions abft;
    abft.enabled = true;
    abft.correct = true;
    FaultInjector injector(spec);
    FunctionalSimulator sim;
    sim.setMode(mode);
    sim.setAbft(abft);
    sim.setFaultInjector(&injector);
    sim.mArray().aBuffer().setFillProfile({ 0.0, 2.0 });

    SimRun run;
    run.outputs.push_back(sim.dataflow1(a, b, 0.5f, &residual));
    run.outputs.push_back(sim.dataflow2(a, b, 1.0f, &bias));
    for (Matrix &context : sim.dataflow3(q, k, v, 0.25f))
        run.outputs.push_back(std::move(context));
    run.abft = sim.abftStats();
    run.faultLog = injector.eventLogText();
    run.matmulCycles = sim.matmulCycles();
    run.simdCycles = sim.simdCycles();
    run.macCount = sim.macCount();
    run.stallCycles = sim.mArray().stallCycles();
    run.aStalls = sim.mArray().aBuffer().stallCycles();
    run.aFillTicks = sim.mArray().aBuffer().fillTicks();
    return run;
}

TEST(EngineEquivalence, AbftDetectionMatchesOnEveryEngine)
{
    // The checker reads each tile's accumulators after matmulTile,
    // which leaves the same (corrupted) bits on every engine, so
    // detection, location, repair and everything downstream of it must
    // not depend on the engine.
    CampaignSpec spec;
    spec.seed = 123;
    spec.accFlipRate = 0.01;
    StuckBitFault stuck;
    stuck.site = "M0";
    stuck.row = 3;
    stuck.col = 5;
    stuck.bit = 30;
    stuck.stuckHigh = true;
    spec.stuckBits.push_back(stuck);

    const SimRun want = runAbftDataflows(FsimMode::Stepped, spec);
    EXPECT_GT(want.abft.tilesFlagged, 0u);
    EXPECT_GT(want.abft.correctedElements, 0u);
    EXPECT_GT(want.stallCycles, 0u);
    for (const FsimMode mode : { FsimMode::Fast, FsimMode::Validate }) {
        SCOPED_TRACE(toString(mode));
        const SimRun got = runAbftDataflows(mode, spec);
        ASSERT_EQ(got.outputs.size(), want.outputs.size());
        for (std::size_t i = 0; i < got.outputs.size(); ++i)
            expectBitIdentical(got.outputs[i], want.outputs[i],
                               "abft dataflow output");
        EXPECT_EQ(got.faultLog, want.faultLog);
        EXPECT_EQ(got.abft.tilesChecked, want.abft.tilesChecked);
        EXPECT_EQ(got.abft.tilesFlagged, want.abft.tilesFlagged);
        EXPECT_EQ(got.abft.locatedElements, want.abft.locatedElements);
        EXPECT_EQ(got.abft.ambiguousElements,
                  want.abft.ambiguousElements);
        EXPECT_EQ(got.abft.correctedElements,
                  want.abft.correctedElements);
        EXPECT_EQ(got.abft.unlocatedTiles, want.abft.unlocatedTiles);
        EXPECT_EQ(got.matmulCycles, want.matmulCycles);
        EXPECT_EQ(got.simdCycles, want.simdCycles);
        EXPECT_EQ(got.macCount, want.macCount);
        EXPECT_EQ(got.stallCycles, want.stallCycles);
        EXPECT_EQ(got.aStalls, want.aStalls);
        EXPECT_EQ(got.aFillTicks, want.aFillTicks);
    }
}

TEST(FsimModeTest, ParseAndToStringRoundTrip)
{
    EXPECT_EQ(parseFsimMode("fast"), FsimMode::Fast);
    EXPECT_EQ(parseFsimMode("stepped"), FsimMode::Stepped);
    EXPECT_EQ(parseFsimMode("validate"), FsimMode::Validate);
    EXPECT_STREQ(toString(FsimMode::Fast), "fast");
    EXPECT_STREQ(toString(FsimMode::Stepped), "stepped");
    EXPECT_STREQ(toString(FsimMode::Validate), "validate");
    EXPECT_EXIT(parseFsimMode("bogus"),
                ::testing::ExitedWithCode(1),
                "unknown functional-sim mode");
}

} // namespace
} // namespace prose
