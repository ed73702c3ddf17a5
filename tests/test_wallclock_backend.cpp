/**
 * @file
 * WallclockMeasurer over the interpreter backend, for all five
 * algorithms: storage fields of a valid result match a built tensor,
 * over-budget formats come back invalid with their reason, every call is
 * counted, and the synthesized dense operands are deterministic and
 * integer-valued.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "codegen/kernel_backend.hpp"
#include "data/generators.hpp"
#include "perfmodel/wallclock_backend.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

/** Forwards to the interpreter and records every operand value it sees. */
class RecordingBackend final : public KernelBackend
{
  public:
    std::string name() const override { return "recording"; }

    LoopNestResult
    execute(const LoopNest& nest, const LoopNestArgs& args,
            const ParallelConfig& par) override
    {
        ++executions;
        std::vector<float> seen;
        if (args.vecB)
            append(seen, args.vecB->data());
        for (const DenseMatrix* d : {args.matB, args.matC, args.matF}) {
            if (d)
                append(seen, d->data());
        }
        operands.push_back(std::move(seen));
        return interpreterBackend().execute(nest, args, par);
    }

    u64 executions = 0;
    std::vector<std::vector<float>> operands;

  private:
    static void
    append(std::vector<float>& out, const std::vector<float>& data)
    {
        out.insert(out.end(), data.begin(), data.end());
    }
};

struct Inputs
{
    Inputs()
    {
        Rng rng(5);
        m = genUniform(48, 40, 300, rng);
        t3 = genTensor3(16, 12, 10, 200, rng);
    }

    ProblemShape
    shape(Algorithm alg) const
    {
        return alg == Algorithm::MTTKRP
                   ? ProblemShape::forTensor3(alg, 16, 12, 10, 8)
                   : ProblemShape::forMatrix(alg, 48, 40, 8);
    }

    Measurement
    measure(const MeasurementBackend& b, const ProblemShape& shape,
            const SuperSchedule& s) const
    {
        return shape.alg == Algorithm::MTTKRP ? b.measure(t3, shape, s)
                                              : b.measure(m, shape, s);
    }

    HierSparseTensor
    build(const ProblemShape& shape, const SuperSchedule& s) const
    {
        FormatDescriptor desc = formatOf(s, shape);
        return shape.alg == Algorithm::MTTKRP
                   ? HierSparseTensor::build(desc, t3)
                   : HierSparseTensor::build(desc, m);
    }

    SparseMatrix m;
    Sparse3Tensor t3;
};

WallclockOptions
smallOptions()
{
    WallclockOptions opt;
    opt.rounds = 1;
    opt.maxThreads = 2;
    return opt;
}

TEST(WallclockMeasurer, ValidResultMatchesBuiltTensor)
{
    Inputs in;
    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        auto shape = in.shape(alg);
        auto s = defaultSchedule(shape);
        WallclockMeasurer wm(interpreterBackend(), smallOptions());
        Measurement r = in.measure(wm, shape, s);
        ASSERT_TRUE(r.valid) << r.invalidReason;
        EXPECT_TRUE(std::isfinite(r.seconds));
        EXPECT_GE(r.seconds, 0.0);
        HierSparseTensor t = in.build(shape, s);
        EXPECT_EQ(r.storedValues, t.storedValues());
        EXPECT_EQ(r.formatBytes, t.bytes());
    }
}

TEST(WallclockMeasurer, FormatTooLargeIsInvalidWithReason)
{
    Inputs in;
    WallclockOptions opt = smallOptions();
    opt.maxFormatBytes = 64;
    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        auto shape = in.shape(alg);
        WallclockMeasurer wm(interpreterBackend(), opt);
        Measurement r = in.measure(wm, shape, defaultSchedule(shape));
        EXPECT_FALSE(r.valid);
        EXPECT_TRUE(std::isinf(r.seconds));
        EXPECT_NE(r.invalidReason.find("exceeds budget"), std::string::npos)
            << r.invalidReason;
    }
}

TEST(WallclockMeasurer, CountsEveryCall)
{
    Inputs in;
    WallclockOptions tiny = smallOptions();
    tiny.maxFormatBytes = 64;
    WallclockMeasurer wm(interpreterBackend(), smallOptions());
    WallclockMeasurer rejecting(interpreterBackend(), tiny);
    u64 calls = 0;
    for (Algorithm alg : allAlgorithms()) {
        auto shape = in.shape(alg);
        auto s = defaultSchedule(shape);
        for (int k = 0; k < 2; ++k) {
            in.measure(wm, shape, s);
            in.measure(rejecting, shape, s);
            ++calls;
            EXPECT_EQ(wm.measurementCount(), calls);
            EXPECT_EQ(rejecting.measurementCount(), calls);
        }
    }
}

TEST(WallclockMeasurer, OperandsAreDeterministicOnesAndTwos)
{
    Inputs in;
    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        auto shape = in.shape(alg);
        auto s = defaultSchedule(shape);
        RecordingBackend rec;
        WallclockOptions opt = smallOptions();
        opt.rounds = 2;
        WallclockMeasurer wm(rec, opt);
        ASSERT_TRUE(in.measure(wm, shape, s).valid);
        ASSERT_TRUE(in.measure(wm, shape, s).valid);
        // One warm-up plus the timed rounds per measure().
        ASSERT_EQ(rec.executions, 2u * (1 + opt.rounds));
        const std::vector<float>& first = rec.operands.front();
        ASSERT_FALSE(first.empty());
        u64 ones = 0, twos = 0;
        for (float v : first) {
            ones += v == 1.0f;
            twos += v == 2.0f;
        }
        EXPECT_EQ(ones + twos, first.size());
        EXPECT_GT(ones, 0u);
        EXPECT_GT(twos, 0u);
        for (const auto& seen : rec.operands)
            EXPECT_EQ(seen, first);
    }
}

} // namespace
} // namespace waco
