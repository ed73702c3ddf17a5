/**
 * @file
 * Behavioural tests of the runtime oracle: the analytical machine model
 * must reproduce the qualitative effects the paper attributes speedups to
 * (Table 6, Figure 14) and be deterministic.
 */
#include <gtest/gtest.h>

#include <bit>
#include <thread>

#include "perfmodel/cost_model.hpp"
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

} // namespace
} // namespace waco
