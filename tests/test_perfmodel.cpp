/**
 * @file
 * Behavioural tests of the runtime oracle: the analytical machine model
 * must reproduce the qualitative effects the paper attributes speedups to
 * (Table 6, Figure 14) and be deterministic.
 */
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <thread>

#include "data/generators.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/linear_counter.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

SparseMatrix
uniformRandom(u32 rows, u32 cols, u32 nnz, u64 seed)
{
    Rng rng(seed);
    std::vector<Triplet> t;
    for (u32 n = 0; n < nnz; ++n) {
        t.push_back({static_cast<u32>(rng.index(rows)),
                     static_cast<u32>(rng.index(cols)), 1.0f});
    }
    return SparseMatrix(rows, cols, t);
}

/** Rows with wildly skewed nonzero counts (power-law-ish). */
SparseMatrix
skewedRows(u32 rows, u32 cols, u64 seed)
{
    Rng rng(seed);
    std::vector<Triplet> t;
    for (u32 r = 0; r < rows; ++r) {
        u32 count = r < rows / 50 ? cols / 2 : 2; // 2% heavy rows
        for (u32 n = 0; n < count; ++n) {
            t.push_back({r, static_cast<u32>(rng.index(cols)), 1.0f});
        }
    }
    return SparseMatrix(rows, cols, t);
}

/** Matrix made of fully dense b x b blocks on a block diagonal. */
SparseMatrix
blockDiagonal(u32 rows, u32 b)
{
    std::vector<Triplet> t;
    for (u32 r = 0; r < rows; ++r) {
        u32 blk = r / b;
        for (u32 c = blk * b; c < std::min(rows, (blk + 1) * b); ++c)
            t.push_back({r, c, 1.0f});
    }
    return SparseMatrix(rows, rows, t);
}

class PerfModelTest : public ::testing::Test
{
  protected:
    RuntimeOracle oracle{MachineConfig::intel24()};
};

TEST_F(PerfModelTest, Deterministic)
{
    auto m = uniformRandom(500, 500, 4000, 1);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 500, 500, 32);
    auto s = defaultSchedule(shape);
    auto a = oracle.measure(m, shape, s);
    auto b = oracle.measure(m, shape, s);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_TRUE(a.valid);
    EXPECT_GT(a.seconds, 0.0);
}

TEST_F(PerfModelTest, MoreWorkTakesLonger)
{
    auto small = uniformRandom(400, 400, 2000, 2);
    auto large = uniformRandom(400, 400, 20000, 2);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 400, 400);
    auto s = defaultSchedule(shape);
    EXPECT_LT(oracle.measure(small, shape, s).seconds,
              oracle.measure(large, shape, s).seconds);
}

TEST_F(PerfModelTest, WiderDenseOperandTakesLonger)
{
    auto m = uniformRandom(400, 400, 4000, 3);
    auto s32 = ProblemShape::forMatrix(Algorithm::SpMM, 400, 400, 32);
    auto s256 = ProblemShape::forMatrix(Algorithm::SpMM, 400, 400, 256);
    EXPECT_LT(oracle.measure(m, s32, defaultSchedule(s32)).seconds,
              oracle.measure(m, s256, defaultSchedule(s256)).seconds);
}

TEST_F(PerfModelTest, OversizedFormatIsInvalid)
{
    RuntimeOracle tight(MachineConfig::intel24(), 1024 * 1024);
    SparseMatrix m(60000, 60000, {{0, 0, 1.f}, {59999, 59999, 1.f}});
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 60000, 60000);
    auto s = defaultSchedule(shape);
    // Force a dense format through the level formats.
    for (auto& f : s.sparseLevelFormats)
        f = LevelFormat::Uncompressed;
    auto r = tight.measure(m, shape, s);
    EXPECT_FALSE(r.valid);
    EXPECT_TRUE(std::isinf(r.seconds));
}

TEST_F(PerfModelTest, SimdCliffAtBlockSixteen)
{
    // Figure 14: with the UCU format, icc only vectorizes the inner dense
    // block loop once b >= 16. Crossing the threshold must show a visible
    // per-flop improvement even though the padded work grows.
    auto m = blockDiagonal(4096, 16);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 4096, 4096);
    SuperSchedule s = defaultSchedule(shape);
    s.splits[1] = 8; // UCU with b = 8: below the icc threshold
    s.sparseLevelOrder = {outerSlot(0), outerSlot(1), innerSlot(1),
                          innerSlot(0)};
    s.sparseLevelFormats = {LevelFormat::Uncompressed, LevelFormat::Compressed,
                            LevelFormat::Uncompressed, LevelFormat::Compressed};
    s.loopOrder = {outerSlot(0), innerSlot(0), outerSlot(1), innerSlot(1)};
    auto below = oracle.measure(m, shape, s);
    ASSERT_TRUE(below.valid);
    EXPECT_FALSE(below.simdUsed);

    s.splits[1] = 16;
    auto at = oracle.measure(m, shape, s);
    ASSERT_TRUE(at.valid);
    EXPECT_TRUE(at.simdUsed);
}

TEST_F(PerfModelTest, SkewPrefersSmallChunks)
{
    auto m = skewedRows(4096, 4096, 5);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 4096, 4096, 256);
    auto fine = defaultSchedule(shape, 1);
    auto coarse = defaultSchedule(shape, 256);
    auto mf = oracle.measure(m, shape, fine);
    auto mcm = oracle.measure(m, shape, coarse);
    // Dynamic scheduling with giant chunks on skewed rows loses to fine
    // chunks (Table 6's dominant factor).
    EXPECT_LT(mf.seconds, mcm.seconds);
    EXPECT_GT(mcm.imbalance, mf.imbalance);
}

TEST_F(PerfModelTest, UniformToleratesCoarseChunks)
{
    auto m = uniformRandom(4096, 4096, 80000, 6);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 4096, 4096);
    auto fine = defaultSchedule(shape, 1);
    auto coarse = defaultSchedule(shape, 64);
    // With uniform rows, tiny chunks pay dispatch overhead for nothing.
    EXPECT_GT(oracle.measure(m, shape, fine).seconds,
              oracle.measure(m, shape, coarse).seconds);
}

TEST_F(PerfModelTest, DiscordantLoopOrderIsPenalized)
{
    auto m = uniformRandom(2048, 2048, 40000, 7);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 2048, 2048);
    auto s = defaultSchedule(shape);
    auto concordant = oracle.measure(m, shape, s);
    auto d = s;
    // k before i while A is stored row-major: searches required.
    d.loopOrder = {outerSlot(1), innerSlot(1), outerSlot(0), innerSlot(0)};
    auto discordant = oracle.measure(m, shape, d);
    EXPECT_GT(discordant.seconds, concordant.seconds * 1.5);
}

TEST_F(PerfModelTest, MachinesDisagreeOnOptimalSchedules)
{
    // The same (pattern, schedule) pair gets different times on the two
    // machine presets — the premise of the Table 7 experiment.
    auto m = uniformRandom(1024, 1024, 30000, 8);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 1024, 1024, 64);
    auto s = defaultSchedule(shape);
    RuntimeOracle amd(MachineConfig::amd8());
    EXPECT_NE(oracle.measure(m, shape, s).seconds,
              amd.measure(m, shape, s).seconds);
}

TEST_F(PerfModelTest, ConversionCostGrowsWithNnz)
{
    EXPECT_LT(oracle.conversionSeconds(1000, 1000),
              oracle.conversionSeconds(1000000, 1000000));
}

TEST_F(PerfModelTest, MttkrpMeasurable)
{
    Rng rng(9);
    std::vector<Quad> q;
    for (int n = 0; n < 3000; ++n) {
        q.push_back({static_cast<u32>(rng.index(300)),
                     static_cast<u32>(rng.index(200)),
                     static_cast<u32>(rng.index(100)), 1.0f});
    }
    Sparse3Tensor t(300, 200, 100, q);
    auto shape = ProblemShape::forTensor3(Algorithm::MTTKRP, 300, 200, 100);
    auto r = RuntimeOracle(MachineConfig::intel24())
                 .measure(t, shape, defaultSchedule(shape));
    EXPECT_TRUE(r.valid);
    EXPECT_GT(r.seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Parallel pattern scan. Registered under the `tsan` ctest label too
// (tests/CMakeLists.txt). Inputs with nnz >= 1<<16 fan the oracle's
// linear-counting scan out over the global pool; every participant must OR
// into the calling thread's bitmap, so the result cannot depend on which
// thread measures, how chunks fall across workers, or how many hardware
// threads the host has.
// ---------------------------------------------------------------------------

void
expectBitwiseEqual(const Measurement& want, const Measurement& got,
                   const char* what)
{
    EXPECT_EQ(std::bit_cast<u64>(want.seconds), std::bit_cast<u64>(got.seconds))
        << what;
    EXPECT_EQ(std::bit_cast<u64>(want.missBytes),
              std::bit_cast<u64>(got.missBytes))
        << what;
    EXPECT_EQ(std::bit_cast<u64>(want.computeSeconds),
              std::bit_cast<u64>(got.computeSeconds))
        << what;
    EXPECT_EQ(std::bit_cast<u64>(want.memorySeconds),
              std::bit_cast<u64>(got.memorySeconds))
        << what;
    EXPECT_EQ(std::bit_cast<u64>(want.imbalance),
              std::bit_cast<u64>(got.imbalance))
        << what;
    EXPECT_EQ(std::bit_cast<u64>(want.serialSeconds),
              std::bit_cast<u64>(got.serialSeconds))
        << what;
    EXPECT_EQ(want.valid, got.valid) << what;
    EXPECT_EQ(want.simdUsed, got.simdUsed) << what;
    EXPECT_EQ(want.storedValues, got.storedValues) << what;
    EXPECT_EQ(want.formatBytes, got.formatBytes) << what;
}

/** @p m measured by a fresh oracle on a fresh thread, whose linear-counting
 *  bitmap has never been used. */
Measurement
freshMeasure(const SparseMatrix& m, const ProblemShape& shape,
             const SuperSchedule& s)
{
    Measurement out;
    std::thread t([&] {
        out = RuntimeOracle(MachineConfig::intel24()).measure(m, shape, s);
    });
    t.join();
    return out;
}

TEST(OracleScanTsan, ParallelScanIsThreadIndependent)
{
    auto m = uniformRandom(4096, 4096, 80000, 11);
    ASSERT_GE(m.nnz(), 1u << 16) << "input must take the parallel scan";
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 4096, 4096, 64);
    auto s = defaultSchedule(shape);
    RuntimeOracle oracle(MachineConfig::intel24());

    auto first = oracle.measure(m, shape, s);
    ASSERT_TRUE(first.valid);
    ASSERT_GT(first.missBytes, 0.0);
    // Repeats on the main thread: a lost insert would show up as a run-to-
    // run difference, since dynamic chunk claiming varies between runs.
    for (int run = 1; run < 5; ++run)
        expectBitwiseEqual(first, oracle.measure(m, shape, s), "main thread");

    // A fresh thread starts with its own, newly constructed bitmap.
    Measurement fresh;
    std::thread t([&] { fresh = oracle.measure(m, shape, s); });
    t.join();
    expectBitwiseEqual(first, fresh, "fresh thread");
}

// ---------------------------------------------------------------------------
// Touched-word bookkeeping of the bitmap. Serial scans clear only the words
// they set, parallel scans mark the whole bitmap dirty; a measurement must
// never see bits left by the one before it on the same thread. The
// parallel-then-serial case also runs under the `tsan` ctest label.
// ---------------------------------------------------------------------------

TEST(OracleTouchedWords, MeasureAfterHugeFootprintMatchesFresh)
{
    // A serial scan (nnz just under the parallel threshold) that touches a
    // large share of the bitmap, over a heavily padded format.
    auto big = uniformRandom(8192, 8192, 60000, 21);
    ASSERT_LT(big.nnz(), 1u << 16);
    auto big_shape = ProblemShape::forMatrix(Algorithm::SpMM, 8192, 8192, 64);
    SuperSchedule padded = defaultSchedule(big_shape);
    padded.splits[1] = 64;
    padded.sparseLevelOrder = {outerSlot(0), outerSlot(1), innerSlot(1),
                               innerSlot(0)};
    padded.sparseLevelFormats = {LevelFormat::Uncompressed,
                                 LevelFormat::Compressed,
                                 LevelFormat::Uncompressed,
                                 LevelFormat::Compressed};
    padded.loopOrder = {outerSlot(0), innerSlot(0), outerSlot(1),
                        innerSlot(1), outerSlot(2), innerSlot(2)};

    auto small = uniformRandom(300, 300, 900, 22);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 300, 300, 64);
    auto s = defaultSchedule(shape);

    RuntimeOracle oracle(MachineConfig::intel24());
    auto huge = oracle.measure(big, big_shape, padded);
    ASSERT_TRUE(huge.valid) << huge.invalidReason;
    ASSERT_GT(huge.formatBytes, 100ull * big.nnz());
    expectBitwiseEqual(freshMeasure(small, shape, s),
                       oracle.measure(small, shape, s), "after huge");
    expectBitwiseEqual(freshMeasure(big, big_shape, padded), huge, "huge");
}

TEST(OracleTouchedWords, SerialAfterParallelScanMatchesFresh)
{
    auto big = uniformRandom(4096, 4096, 80000, 23);
    ASSERT_GE(big.nnz(), 1u << 16) << "input must take the parallel scan";
    auto big_shape = ProblemShape::forMatrix(Algorithm::SpMM, 4096, 4096, 64);
    auto small = uniformRandom(500, 500, 4000, 24);
    auto shape = ProblemShape::forMatrix(Algorithm::SDDMM, 500, 500, 32);
    auto s = defaultSchedule(shape);

    RuntimeOracle oracle(MachineConfig::intel24());
    ASSERT_TRUE(oracle.measure(big, big_shape, defaultSchedule(big_shape)).valid);
    auto after = oracle.measure(small, shape, s);
    ASSERT_TRUE(after.valid);
    ASSERT_GT(after.missBytes, 0.0);
    expectBitwiseEqual(freshMeasure(small, shape, s), after,
                       "serial after parallel");
}

void
insertRange(LinearCounter& c, u64 first, u64 n)
{
    for (u64 h = first; h < first + n; ++h)
        c.insert(h);
}

double
freshEstimate(u64 first, u64 n)
{
    LinearCounter c;
    insertRange(c, first, n);
    return c.estimate();
}

TEST(OracleTouchedWords, CounterResetClearsEveryTouchedWord)
{
    LinearCounter c;
    insertRange(c, 0, 200000); // sets bits in most words
    insertRange(c, 0, 200000); // repeats count once
    EXPECT_EQ(c.estimate(), freshEstimate(0, 200000));
    c.reset();
    EXPECT_EQ(c.estimate(), 0.0);
    // Every one of these bits was set before the reset.
    insertRange(c, 1000, 5000);
    EXPECT_EQ(c.estimate(), freshEstimate(1000, 5000));
}

TEST(OracleTouchedWords, CounterSetBitCountEqualsSweep)
{
    LinearCounter counted, swept;
    swept.markAllDirty();
    for (u64 h = 0; h < 300000; ++h) {
        counted.insert(h * 7919);
        swept.insertAtomic(h * 7919);
    }
    EXPECT_EQ(counted.estimate(), swept.estimate());
    EXPECT_GT(counted.estimate(), 250000.0);
}

TEST(OracleTouchedWords, CounterSerialAfterAtomicBatchStartsClean)
{
    LinearCounter c;
    c.markAllDirty();
    for (u64 h = 0; h < 100000; ++h)
        c.insertAtomic(h);
    c.reset();
    insertRange(c, 0, 3000);
    EXPECT_EQ(c.estimate(), freshEstimate(0, 3000));
}

// ---------------------------------------------------------------------------
// The layout pass (what the oracle sizes formats with) against a full
// build(): same level sizes, stored values and footprint, and the same
// FormatTooLarge verdict, over sampled schedules of every algorithm.
// ---------------------------------------------------------------------------

/** Footprint recomputed from a built tensor's arrays. */
u64
arrayBytes(const HierSparseTensor& t)
{
    u64 entries = t.values().size();
    for (const BuiltLevel& bl : t.levels()) {
        entries += bl.fmt == LevelFormat::Uncompressed
                       ? 1
                       : bl.pos.size() + bl.crd.size();
    }
    return 4 * entries;
}

TEST(OracleLayout, LayoutPassMatchesBuild)
{
    Rng rng(31);
    auto m = genUniform(96, 80, 700, rng);
    auto t3 = genTensor3(30, 20, 16, 500, rng);
    const u64 budget = 12 * 1024; // tight enough that some schedules throw
    u32 built = 0, too_large = 0;
    for (Algorithm alg : allAlgorithms()) {
        bool is3d = alg == Algorithm::MTTKRP;
        auto shape = is3d ? ProblemShape::forTensor3(alg, 30, 20, 16)
                          : ProblemShape::forMatrix(alg, 96, 80);
        SuperScheduleSpace space(alg, shape);
        Rng srng(40 + static_cast<u64>(alg));
        for (int k = 0; k < 40; ++k) {
            SuperSchedule s = space.sample(srng);
            FormatDescriptor desc = formatOf(s, shape);
            auto coords = is3d ? HierSparseTensor::coordsOf(desc, t3)
                               : HierSparseTensor::coordsOf(desc, m);
            std::optional<FormatLayout> lay;
            std::string lay_err, build_err;
            try {
                lay = HierSparseTensor::layout(desc, coords, budget);
            } catch (const FormatTooLarge& e) {
                lay_err = e.what();
            }
            std::optional<HierSparseTensor> t;
            try {
                t = is3d ? HierSparseTensor::build(desc, t3, budget)
                         : HierSparseTensor::build(desc, m, budget);
            } catch (const FormatTooLarge& e) {
                build_err = e.what();
            }
            ASSERT_EQ(lay.has_value(), t.has_value()) << s.key();
            EXPECT_EQ(lay_err, build_err) << s.key();
            if (!t) {
                ++too_large;
                continue;
            }
            ++built;
            ASSERT_EQ(lay->levels.size(), t->levels().size()) << s.key();
            u64 parent = 1;
            for (std::size_t l = 0; l < lay->levels.size(); ++l) {
                const LevelLayout& ll = lay->levels[l];
                const BuiltLevel& bl = t->levels()[l];
                EXPECT_EQ(ll.fmt, bl.fmt) << s.key();
                EXPECT_EQ(ll.extent, bl.extent) << s.key();
                EXPECT_EQ(ll.numPositions, bl.numPositions) << s.key();
                if (bl.fmt == LevelFormat::Compressed) {
                    EXPECT_EQ(ll.numPositions, bl.crd.size()) << s.key();
                    EXPECT_EQ(parent + 1, bl.pos.size()) << s.key();
                    EXPECT_EQ(bl.crd.size(), bl.pos.back()) << s.key();
                }
                parent = ll.numPositions;
            }
            EXPECT_EQ(lay->storedValues, t->values().size()) << s.key();
            EXPECT_EQ(lay->storedValues, t->storedValues()) << s.key();
            EXPECT_EQ(lay->bytes, arrayBytes(*t)) << s.key();
            EXPECT_EQ(lay->bytes, t->bytes()) << s.key();
        }
    }
    EXPECT_GT(built, 50u);
    EXPECT_GT(too_large, 20u);
}

TEST(OracleLayout, ThrowsAtEveryBudgetCheckOfBuild)
{
    // 4x6, seven nonzeros over all four rows.
    SparseMatrix m(4, 6,
                   {{0, 0, 1.f}, {0, 1, 2.f}, {1, 0, 3.f}, {1, 1, 4.f},
                    {2, 4, 5.f}, {3, 2, 6.f}, {3, 5, 7.f}});
    struct Case
    {
        FormatDescriptor desc;
        u64 maxBytes;
        const char* reason;
    };
    const Case cases[] = {
        // Each budget is one 4-byte entry short of passing its check.
        // Four row positions fit; the C level's five pos entries do not.
        {FormatDescriptor::csr(4, 6), 16, "compressed pos array"},
        // 23 of the 24 positions of the second U level.
        {FormatDescriptor::dense2d(4, 6), 92, "uncompressed level"},
        // Both pos arrays fit (2 and 5 entries); seven values do not.
        {FormatDescriptor::coo2d(4, 6), 24, "value array"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.desc.name());
        auto coords = HierSparseTensor::coordsOf(c.desc, m);
        std::string lay_err, build_err;
        try {
            HierSparseTensor::layout(c.desc, coords, c.maxBytes);
        } catch (const FormatTooLarge& e) {
            lay_err = e.what();
        }
        try {
            HierSparseTensor::build(c.desc, m, c.maxBytes);
        } catch (const FormatTooLarge& e) {
            build_err = e.what();
        }
        EXPECT_NE(lay_err.find(c.reason), std::string::npos) << lay_err;
        EXPECT_EQ(lay_err, build_err);
        // One entry more and this check passes; a later one may throw.
        std::string wider_err;
        try {
            HierSparseTensor::layout(c.desc, coords, c.maxBytes + 4);
        } catch (const FormatTooLarge& e) {
            wider_err = e.what();
        }
        EXPECT_EQ(wider_err.find(c.reason), std::string::npos) << wider_err;
    }
}

} // namespace
} // namespace waco
