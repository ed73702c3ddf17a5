/**
 * @file
 * End-to-end benchmark of the WACO tuner, driven only through the public
 * API: WacoTuner, TunerService, WallclockMeasurer, the KernelBackend seam
 * (compiledBackend(), CompiledBackend, interpreterBackend()) and the dense
 * reference kernels.
 *
 *   waco_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--work-dir DIR]
 *
 * Workloads (README.md explains why each exists):
 *   tune-small    tune()/tune3d() on small inputs of all five algorithms
 *   serve-repeat  one closed-loop client against a TunerService whose
 *                 result cache is journaled to disk; inputs recur
 *   tune-jit      tune() measured by WallclockMeasurer over a compiled
 *                 backend, one cold and one warm pass per round; candidates
 *                 are pre-screened by the analytic oracle (BudgetGuard)
 *
 * A run sets the tuner up (timed from process start: setup_s), then runs
 * whole rounds of the workload until --seconds have passed. A round
 * generates fresh inputs, tunes (or serves) them, then times the picked
 * kernel of every input through the compiled backend and checks its
 * output. The last line of stdout is one
 * JSON object {correct, attempted, failed, metrics}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "analysis/asymptotic_cost.hpp"
#include "analysis/schedule_verifier.hpp"
#include "codegen/kernel_backend.hpp"
#include "core/dataset.hpp"
#include "core/trainer.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "exec/reference.hpp"
#include "ir/loopnest.hpp"
#include "perfmodel/wallclock_backend.hpp"
#include "service/result_cache.hpp"
#include "service/tuner_service.hpp"
#include "tensor/pattern_stats.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace {

using namespace waco;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ options

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";
};

/** Model scale of the repository's benches (bench/common.cpp
 *  benchOptions): 8-layer 16-channel WACONet, 64-d features, top-10.
 *  The training corpus and epoch count are smaller, so that one cold
 *  set-up fits in a few seconds per algorithm. */
WacoOptions
tunerOptions()
{
    WacoOptions opt;
    opt.extractorConfig.channels = 16;
    opt.extractorConfig.numLayers = 8;
    opt.extractorConfig.featureDim = 64;
    opt.schedulesPerMatrix = 12;
    opt.train.epochs = 2;
    opt.train.batchSchedules = 16;
    opt.topK = 10;
    opt.efSearch = 32;
    opt.seed = 424242;
    return opt;
}

MachineConfig
machine()
{
    return MachineConfig::intel24();
}

// ------------------------------------------------------------------- inputs

/** Pattern families of the held-out inputs (data/generators.hpp). */
enum class Family { Uniform, PowerLaw, Banded, DenseBlocks, HotColumns,
                    Diagonalish };

/** One input slot: a fixed family and size; the seed picks the pattern. */
struct Slot
{
    Family family;
    u32 rows;
    u32 cols;
    u64 nnz;
};

/** One 3D input slot (MTTKRP). */
struct Slot3
{
    u32 di, dk, dl;
    u64 nnz;
};

/** Nonzero values and dense operands are small integers (1 or 2), so
 *  every partial sum of every kernel is an integer far below 2^24 and the
 *  kernels' float results are exact whatever their summation order: a
 *  picked kernel must equal the dense reference bit for bit. */
float
smallInt(Rng& rng)
{
    return static_cast<float>(rng.uniformInt(1, 2));
}

SparseMatrix
makeMatrix(const Slot& s, Rng& rng)
{
    SparseMatrix m;
    switch (s.family) {
      case Family::Uniform:
        m = genUniform(s.rows, s.cols, s.nnz, rng);
        break;
      case Family::PowerLaw:
        m = genPowerLawRows(s.rows, s.cols, s.nnz, 1.2, rng);
        break;
      case Family::Banded: {
        // nnz ~ rows * (2 * bw + 1) * fill at fill 0.4.
        u32 bw = static_cast<u32>(
            std::max<u64>(1, s.nnz * 5 / (4 * u64{s.rows})));
        m = genBanded(s.rows, s.cols, bw, 0.4, rng);
        break;
      }
      case Family::DenseBlocks:
        m = genDenseBlocks(s.rows, s.cols, 8,
                           static_cast<u32>(std::max<u64>(1, s.nnz / 58)),
                           0.9, rng);
        break;
      case Family::HotColumns:
        m = genHotColumns(s.rows, s.cols, s.nnz,
                          std::max<u32>(1, s.cols / 64), rng);
        break;
      case Family::Diagonalish:
        m = genDiagonalish(s.rows,
                           static_cast<u32>(std::max<u64>(
                               1, s.nnz / s.rows - 1)),
                           rng);
        break;
    }
    for (auto& v : m.values())
        v = smallInt(rng);
    return m;
}

Sparse3Tensor
makeTensor(const Slot3& s, Rng& rng)
{
    Sparse3Tensor raw = genTensor3(s.di, s.dk, s.dl, s.nnz, rng);
    std::vector<Quad> q(raw.nnz());
    for (u64 n = 0; n < raw.nnz(); ++n)
        q[n] = {raw.iIndices()[n], raw.kIndices()[n], raw.lIndices()[n],
                smallInt(rng)};
    return Sparse3Tensor(s.di, s.dk, s.dl, std::move(q), raw.name());
}

/** One held-out input of one algorithm. */
struct Input
{
    Algorithm alg = Algorithm::SpMV;
    SparseMatrix m;   ///< 2D algorithms.
    Sparse3Tensor t;  ///< MTTKRP.

    bool is3d() const { return alg == Algorithm::MTTKRP; }

    ProblemShape
    shape() const
    {
        return is3d() ? ProblemShape::forTensor3(alg, t.dimI(), t.dimK(),
                                                 t.dimL())
                      : ProblemShape::forMatrix(alg, m.rows(), m.cols());
    }

    u64 nnz() const { return is3d() ? t.nnz() : m.nnz(); }
};

/** Small 2D slots: nnz 4k-16k over three square sizes, six families. */
const std::vector<Slot> kSmallSlots = {
    {Family::Uniform, 2048, 2048, 8000},
    {Family::PowerLaw, 4096, 4096, 16000},
    {Family::Banded, 2048, 2048, 12000},
    {Family::DenseBlocks, 4096, 4096, 16000},
    {Family::HotColumns, 1024, 1024, 4000},
    {Family::Diagonalish, 4096, 4096, 12000},
};

const std::vector<Slot3> kSmallSlots3 = {
    {512, 512, 512, 4000},  {512, 512, 512, 8000},  {512, 512, 512, 12000},
    {1024, 256, 256, 4000}, {1024, 256, 256, 8000}, {1024, 256, 256, 12000},
};

/** tune-jit slots: small enough that one compiled measurement is cheap. */
const std::vector<Slot> kJitSlots = {
    {Family::Uniform, 1024, 1024, 4000},
    {Family::Banded, 2048, 2048, 6000},
};

/** Seed of the input stream of (run seed, round, algorithm). */
u64
streamSeed(u64 seed, u32 round, Algorithm alg)
{
    return seed * 1000003ull + round * 7919ull +
           static_cast<u64>(alg) * 104729ull + 17;
}

std::vector<Input>
makeInputs(const std::vector<Algorithm>& algs, const std::vector<Slot>& slots,
           u64 seed, u32 round)
{
    std::vector<Input> out;
    for (Algorithm alg : algs) {
        Rng rng(streamSeed(seed, round, alg));
        if (alg == Algorithm::MTTKRP) {
            for (const auto& s : kSmallSlots3)
                out.push_back({alg, {}, makeTensor(s, rng)});
        } else {
            for (const auto& s : slots)
                out.push_back({alg, makeMatrix(s, rng), {}});
        }
    }
    // Interleave algorithms so that a round's first inputs are not all one
    // algorithm (the order is the same in every round).
    std::vector<Input> mixed;
    std::size_t per = out.size() / algs.size();
    for (std::size_t i = 0; i < per; ++i)
        for (std::size_t a = 0; a < algs.size(); ++a)
            mixed.push_back(std::move(out[a * per + i]));
    return mixed;
}

// ------------------------------------------------------------------ samples

struct Samples
{
    std::vector<double> v;
    void add(double x) { v.push_back(x); }
    double p(double q) const { return v.empty() ? 0.0 : percentile(v, q); }
    double p50() const { return p(50.0); }
    double sum() const { return std::accumulate(v.begin(), v.end(), 0.0); }
};

/** A MeasurementBackend decorator that times every measure() call. */
class TimedMeasurer final : public MeasurementBackend
{
  public:
    explicit TimedMeasurer(const MeasurementBackend& inner) : inner_(inner) {}

    Measurement
    measure(const SparseMatrix& m, const ProblemShape& shape,
            const SuperSchedule& s) const override
    {
        if (!on)
            return inner_.measure(m, shape, s);
        auto t0 = Clock::now();
        Measurement r = inner_.measure(m, shape, s);
        record(since(t0));
        return r;
    }

    Measurement
    measure(const Sparse3Tensor& t, const ProblemShape& shape,
            const SuperSchedule& s) const override
    {
        if (!on)
            return inner_.measure(t, shape, s);
        auto t0 = Clock::now();
        Measurement r = inner_.measure(t, shape, s);
        record(since(t0));
        return r;
    }

    u64 measurementCount() const override { return inner_.measurementCount(); }

    /** False: pass calls straight through, untimed (untraced rounds). */
    std::atomic<bool> on{true};

    /** Milliseconds of every timed measure() so far. */
    std::vector<double>
    millis() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return ms_;
    }

    std::size_t
    count() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return ms_.size();
    }

    /** Sum of the milliseconds of the measure() calls after @p mark. */
    double
    sumFrom(std::size_t mark) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return std::accumulate(ms_.begin() + static_cast<long>(mark),
                               ms_.end(), 0.0);
    }

  private:
    void
    record(double s) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        ms_.push_back(s * 1e3);
    }

    const MeasurementBackend& inner_;
    mutable std::mutex mu_;
    mutable std::vector<double> ms_;
};

/** A KernelBackend decorator over a CompiledBackend: each execute() that
 *  raised the compile counter is a compile sample, every other one is a
 *  launch sample. */
class TimedKernelBackend final : public KernelBackend
{
  public:
    explicit TimedKernelBackend(CompiledBackend& inner) : inner_(inner) {}

    std::string name() const override { return "timed-" + inner_.name(); }

    LoopNestResult
    execute(const LoopNest& nest, const LoopNestArgs& args,
            const ParallelConfig& par) override
    {
        if (!on)
            return inner_.execute(nest, args, par);
        u64 before = inner_.stats().compiles;
        auto t0 = Clock::now();
        LoopNestResult r = inner_.execute(nest, args, par);
        double s = since(t0);
        if (inner_.stats().compiles > before)
            compileMs.add(s * 1e3);
        else
            launchUs.add(s * 1e6);
        return r;
    }

    /** False: pass calls straight through, untimed (untraced rounds). */
    bool on = true;
    Samples compileMs;
    Samples launchUs;

  private:
    CompiledBackend& inner_;
};

/**
 * Keeps WallclockMeasurer from running a candidate that the analytic
 * oracle estimates at more than kBudgetFactor times the CSR default on the
 * same input: the measurer has no time budget of its own, and one such
 * candidate in a top-k runs for minutes (see CHANGES.md). A skipped
 * candidate comes back invalid, as one over the storage budget does, and
 * is counted once per tune however often the tuner's RobustMeasurer
 * retries it. The guard's own oracle calls are timed apart, so that tune
 * latency can exclude them.
 */
class BudgetGuard final : public MeasurementBackend
{
  public:
    static constexpr double kBudgetFactor = 10.0;

    explicit BudgetGuard(const MeasurementBackend& inner) : inner_(inner) {}

    Measurement
    measure(const SparseMatrix& m, const ProblemShape& shape,
            const SuperSchedule& s) const override
    {
        auto t0 = Clock::now();
        if (&m != input_) {
            input_ = &m;
            budget_ = kBudgetFactor *
                      oracle_.measure(m, shape, defaultSchedule(shape))
                          .seconds;
        }
        std::string key = s.key();
        auto it = overBudget_.find(key);
        if (it == overBudget_.end()) {
            Measurement est = oracle_.measure(m, shape, s);
            it = overBudget_
                     .emplace(std::move(key),
                              !est.valid || est.seconds > budget_)
                     .first;
        }
        seconds_ += since(t0);
        if (it->second) {
            Measurement r;
            r.valid = false;
            r.seconds = std::numeric_limits<double>::infinity();
            r.invalidReason = "oracle estimate over the run budget";
            return r;
        }
        return inner_.measure(m, shape, s);
    }

    Measurement
    measure(const Sparse3Tensor& t, const ProblemShape& shape,
            const SuperSchedule& s) const override
    {
        return inner_.measure(t, shape, s);
    }

    u64 measurementCount() const override { return inner_.measurementCount(); }

    /** Starts a new tune: forgets the input and its verdicts. */
    void
    restart()
    {
        input_ = nullptr;
        overBudget_.clear();
        seconds_ = 0.0;
    }

    /** Seconds the guard spent since restart(). */
    double seconds() const { return seconds_; }

    /** Distinct candidates skipped since restart(). */
    u64
    skipped() const
    {
        u64 n = 0;
        for (const auto& [key, over] : overBudget_)
            n += over ? 1 : 0;
        return n;
    }

  private:
    const MeasurementBackend& inner_;
    RuntimeOracle oracle_{machine()};
    mutable const SparseMatrix* input_ = nullptr;
    mutable double budget_ = 0.0;
    mutable double seconds_ = 0.0;
    /** Schedule key -> estimated over budget, for the current tune. */
    mutable std::map<std::string, bool> overBudget_;
};

// ------------------------------------------------------------------ results

/** Everything a run measured or checked. */
struct Report
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> problems;

    // End-to-end.
    double setupSeconds = 0.0;
    Samples opMs;          ///< Latency of the workload's operation.
    double opCount = 0.0;  ///< Operations behind ops_per_s.
    double opWall = 0.0;   ///< Wall seconds behind ops_per_s.
    double peakRssMb = 0.0; ///< Max RSS after the first two rounds.
    std::vector<double> pickedUs;

    // Report-only end-to-end detail.
    Samples tuneMs;        ///< Every tune(), all passes.
    Samples coldTuneMs;    ///< tune-jit first pass.
    Samples hitMs, fullMs; ///< serve-repeat by rung.
    Samples untracedMs, tracedMs; ///< Trace overhead, traced runs only.

    // Per-layer (traced runs).
    double labelS = 0.0, fitS = 0.0, graphS = 0.0;
    Samples extractMs, walkMs, filterMs, costEvals, measuredRatio;
    Samples unaccountedMs, tuneWallMs, accountedMs;
    Samples programFeatureMs, programSearchMs, programMeasureMs;
    Samples fingerprintMs, formatBuildMs, defaultUs;
    Samples oracleMs, wallclockMs, compileMs, launchUs;
    double oracleMeasuresInTunes = 0.0;
    double tunesTraced = 0.0;
    u64 roundsTraced = 0;
    u64 compiles = 0, kernelHits = 0, kernelMisses = 0;
    // tune-jit's BudgetGuard, over every tune of the run (report line) and
    // over traced tunes (per-layer metric).
    u64 guardSkipped = 0, guardTunes = 0;
    u64 guardSkippedTraced = 0, guardTunesTraced = 0;

    void
    fail(const std::string& why)
    {
        if (problems.size() < 20)
            problems.push_back(why);
        correct = false;
    }
};

// -------------------------------------------------------------------- setup

/** Seed-independent training corpora: the tuner is the system under test,
 *  the held-out inputs are the workload. */
std::vector<SparseMatrix>
trainingCorpus()
{
    CorpusOptions opt;
    opt.count = 6;
    opt.minDim = 512;
    opt.maxDim = 4096;
    opt.minNnz = 2000;
    opt.maxNnz = 16000;
    return makeCorpus(opt, 801);
}

std::vector<Sparse3Tensor>
trainingCorpus3d()
{
    CorpusOptions opt;
    opt.count = 6;
    opt.minDim = 256;
    opt.maxDim = 1024;
    opt.minNnz = 2000;
    opt.maxNnz = 12000;
    return makeCorpus3d(opt, 802);
}

/** Label, fit and index one tuner, each step timed from outside. The
 *  label pass measures through @p labeler (the tuner's oracle, or a timing
 *  decorator over it in traced runs). */
std::unique_ptr<WacoTuner>
standUpTuner(Algorithm alg, const MeasurementBackend* labeler, Report& rep)
{
    WacoOptions opt = tunerOptions();
    auto tuner = std::make_unique<WacoTuner>(alg, machine(), opt);
    const MeasurementBackend& lab = labeler ? *labeler : tuner->oracle();

    auto t0 = Clock::now();
    CostDataset ds =
        alg == Algorithm::MTTKRP
            ? buildDataset3d(alg, trainingCorpus3d(), lab,
                             opt.schedulesPerMatrix, opt.seed)
            : buildDataset(alg, trainingCorpus(), lab, opt.schedulesPerMatrix,
                           opt.seed);
    rep.labelS += since(t0);

    t0 = Clock::now();
    trainCostModel(tuner->model(), ds, opt.train);
    rep.fitS += since(t0);

    t0 = Clock::now();
    tuner->attachDataset(ds);
    rep.graphS += since(t0);
    return tuner;
}

// --------------------------------------------------------- per-tune replay

/**
 * Replays the layers tune() runs without a public seam (extract, walk,
 * filter) on the same input, timing each. Extraction runs on a second
 * model with the tuner's weights: each extractor caches rulebooks per
 * coordinate set, so replaying on the tuner's own model would reuse the
 * rulebooks the timed tune() just built.
 */
class LayerReplay
{
  public:
    explicit LayerReplay(WacoTuner& tuner) : tuner_(tuner)
    {
        WacoOptions opt = tunerOptions();
        replay_ = std::make_unique<WacoCostModel>(
            tuner.algorithm(), opt.extractor, opt.extractorConfig, opt.seed);
        replay_->restoreParams(tuner.model().snapshotParams());
    }

    /** What one replay measured and counted. */
    struct Result
    {
        double ms = 0.0;     ///< extract + walk + filter.
        u64 evals = 0;       ///< Cost evaluations of the walk.
        u64 cleanHits = 0;   ///< Top-k hits the verifier accepts.
        u64 survivors = 0;   ///< Of those, the ones no kept hit prunes.
    };

    /** Replays the three layers and records their times. With @p record
     *  false it only warms the replay model's rulebook cache, as an
     *  earlier tune() of the same input warmed the tuner's. */
    Result
    run(const Input& in, Report& rep, bool record = true)
    {
        WacoOptions opt = tunerOptions();
        PatternInput pattern = in.is3d() ? PatternInput::fromTensor3(in.t)
                                         : PatternInput::fromMatrix(in.m);
        ProblemShape shape = in.shape();

        auto t0 = Clock::now();
        nn::Mat feature = replay_->extractFeature(pattern);
        double extract = since(t0) * 1e3;

        t0 = Clock::now();
        WacoCostModel& model = tuner_.model();
        auto query = model.beginQuery(feature);
        Hnsw::BatchScoreFn score = [&](const u32* ids, u32 count,
                                       double* dst) {
            nn::Mat pred = model.scoreEmbeddings(
                query, tuner_.nodeEmbeddings(), ids, count);
            for (u32 i = 0; i < count; ++i)
                dst[i] = static_cast<double>(pred.at(i, 0));
        };
        u64 evals = 0;
        auto hits = tuner_.graph().searchGenericBatched(
            score, opt.topK, std::max(opt.efSearch, opt.topK), &evals);
        double walk = since(t0) * 1e3;

        // The two filters tune() applies to its top-k: the asymptotic
        // Pareto pass, then the measurement loop's verify + canonical key
        // of each survivor (the second verify repeats tune()'s).
        t0 = Clock::now();
        Result r;
        r.evals = evals;
        std::vector<analysis::AsymptoticBounds> kept;
        for (const auto& hit : hits) {
            const SuperSchedule& s = tuner_.graphSchedules()[hit.id];
            if (analysis::verifySchedule(s, shape).hasErrors())
                continue;
            ++r.cleanHits;
            auto b = analysis::asymptoticBounds(s, shape);
            bool dominated = false;
            for (const auto& k : kept)
                dominated = dominated || analysis::prunes(k, b);
            if (dominated)
                continue;
            kept.push_back(std::move(b));
            (void)analysis::verifySchedule(s, shape);
            (void)analysis::canonicalKey(s);
            ++r.survivors;
        }
        double filter = since(t0) * 1e3;

        if (record) {
            rep.extractMs.add(extract);
            rep.walkMs.add(walk);
            rep.filterMs.add(filter);
        }
        r.ms = extract + walk + filter;
        return r;
    }

  private:
    WacoTuner& tuner_;
    std::unique_ptr<WacoCostModel> replay_;
};

// ------------------------------------------------------------ tune checks

/** Checks one TuneOutcome; returns false when the tune counts as failed. */
bool
checkTune(const Input& in, const TuneOutcome& out, bool oracle_backed,
          Report& rep)
{
    if (out.fellBack || out.modelOnly || out.truncated)
        return false;
    if (!out.bestMeasured.valid) {
        rep.fail("winner has no valid measurement");
        return true;
    }
    // Argmin: the winner is the fastest valid top-k measurement.
    bool found = false;
    for (std::size_t i = 0; i < out.topK.size(); ++i) {
        const Measurement& m = out.topKMeasured[i];
        if (m.valid && m.seconds < out.bestMeasured.seconds)
            rep.fail("winner is not the argmin of its top-k on " +
                     algorithmName(in.alg));
        if (out.topK[i].key() == out.best.key())
            found = true;
    }
    if (!found)
        rep.fail("winner is not among its measured top-k");
    if (oracle_backed) {
        // A fresh oracle must reproduce the winner's measurement exactly.
        RuntimeOracle fresh(machine());
        Measurement again = in.is3d()
                                ? fresh.measure(in.t, in.shape(), out.best)
                                : fresh.measure(in.m, in.shape(), out.best);
        if (!again.valid || again.seconds != out.bestMeasured.seconds)
            rep.fail("fresh oracle measure differs from bestMeasured");
    }
    return true;
}

// ---------------------------------------------------------- kernel phase

bool
operandRowMajor(const SuperSchedule& s, std::size_t op)
{
    const DenseOperand& d = algorithmInfo(s.alg).denseOperands[op];
    if (d.layoutFixed || s.denseRowMajor.size() <= op)
        return d.rowMajorDefault;
    return s.denseRowMajor[op];
}

DenseMatrix
operand(u64 rows, u64 cols, bool row_major, Rng& rng)
{
    DenseMatrix m(rows, cols, row_major ? Layout::RowMajor : Layout::ColMajor);
    for (auto& x : m.data())
        x = smallInt(rng);
    return m;
}

bool
sameDense(const DenseMatrix& x, const DenseMatrix& y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           maxAbsDiff(x, y) == 0.0;
}

bool
sameSparse(const SparseMatrix& x, const SparseMatrix& y)
{
    return x.rowIndices() == y.rowIndices() &&
           x.colIndices() == y.colIndices() && x.values() == y.values();
}

bool
bitwiseEqual(const LoopNestResult& a, const LoopNestResult& b)
{
    return a.vec.data() == b.vec.data() && a.mat.data() == b.mat.data() &&
           a.sparse.values() == b.sparse.values();
}

/**
 * Executes schedule @p s on @p in through @p kb with small-integer
 * operands and compares against the dense reference computed from the
 * COO input. With @p interp_too, the interpreter's output must also equal
 * the compiled one bit for bit.
 */
bool
kernelMatchesReference(const Input& in, const SuperSchedule& s,
                       KernelBackend& kb, bool interp_too)
{
    ProblemShape shape = in.shape();
    const auto& ext = shape.indexExtent;
    HierSparseTensor fmt =
        in.is3d() ? HierSparseTensor::build(formatOf(s, shape), in.t)
                  : HierSparseTensor::build(formatOf(s, shape), in.m);
    LoopNest nest = lower(s, shape);
    Rng rng(0xbe11c0de ^ in.nnz());
    LoopNestArgs args;
    args.a = &fmt;
    DenseVector vb;
    DenseMatrix b, c, f;
    switch (s.alg) {
      case Algorithm::SpMV:
        vb = DenseVector(ext[1]);
        for (auto& x : vb.data())
            x = smallInt(rng);
        args.vecB = &vb;
        break;
      case Algorithm::SpMM:
        b = operand(ext[1], ext[2], operandRowMajor(s, 0), rng);
        args.matB = &b;
        break;
      case Algorithm::SDDMM:
        b = operand(ext[0], ext[2], operandRowMajor(s, 0), rng);
        c = operand(ext[2], ext[1], operandRowMajor(s, 1), rng);
        args.matB = &b;
        args.matC = &c;
        break;
      case Algorithm::MTTKRP:
        b = operand(ext[1], ext[3], operandRowMajor(s, 0), rng);
        c = operand(ext[2], ext[3], operandRowMajor(s, 1), rng);
        args.matB = &b;
        args.matC = &c;
        break;
      case Algorithm::FusedSDDMMSpMM:
        b = operand(ext[0], ext[2], operandRowMajor(s, 0), rng);
        c = operand(ext[2], ext[1], operandRowMajor(s, 1), rng);
        f = operand(ext[1], ext[3], operandRowMajor(s, 2), rng);
        args.matB = &b;
        args.matC = &c;
        args.matF = &f;
        break;
    }
    u32 hw = std::max(1u, std::thread::hardware_concurrency());
    ParallelConfig par{std::min(std::max(1u, s.numThreads), hw),
                       std::max(1u, s.ompChunk)};
    LoopNestResult got = kb.execute(nest, args, par);
    if (interp_too &&
        !bitwiseEqual(got, interpreterBackend().execute(nest, args, par)))
        return false;

    switch (s.alg) {
      case Algorithm::SpMV:
        return got.vec.data() == spmvReference(in.m, vb).data();
      case Algorithm::SpMM:
        return sameDense(got.mat, spmmReference(in.m, b));
      case Algorithm::SDDMM:
        return sameSparse(got.sparse, sddmmReference(in.m, b, c));
      case Algorithm::MTTKRP:
        return sameDense(got.mat, mttkrpReference(in.t, b, c));
      case Algorithm::FusedSDDMMSpMM:
        return sameDense(got.mat, fusedSddmmSpmmReference(in.m, b, c, f));
    }
    return false;
}

/**
 * The picked kernels of one round (every successful tune or full search):
 * each one's real wall time
 * through the compiled backend (median of rounds, WallclockMeasurer),
 * its output against the dense reference, and in traced rounds the CSR
 * default's time, the format build and the pattern fingerprint.
 */
void
kernelPhase(const std::vector<Input>& inputs,
            const std::vector<SuperSchedule>& picks, bool traced,
            bool interp_too, Report& rep)
{
    CompiledBackend& cb = compiledBackend();
    const bool compiled = cb.compilerAvailable();
    KernelBackend& raw = compiled ? static_cast<KernelBackend&>(cb)
                                  : interpreterBackend();
    std::unique_ptr<TimedKernelBackend> timed;
    if (traced && compiled)
        timed = std::make_unique<TimedKernelBackend>(cb);
    KernelBackend& kb = timed ? static_cast<KernelBackend&>(*timed) : raw;

    WallclockOptions wopt;
    wopt.rounds = 25;
    WallclockMeasurer wall(kb, wopt);
    TimedMeasurer timedWall(wall);
    const MeasurementBackend& meter =
        traced ? static_cast<const MeasurementBackend&>(timedWall) : wall;

    auto stats0 = cb.stats();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Input& in = inputs[i];
        const SuperSchedule& s = picks[i];
        ProblemShape shape = in.shape();
        auto time_us = [&](const SuperSchedule& sched) {
            Measurement m = in.is3d() ? meter.measure(in.t, shape, sched)
                                      : meter.measure(in.m, shape, sched);
            return m.valid ? m.seconds * 1e6 : 0.0;
        };
        double us = time_us(s);
        ++rep.attempted;
        if (us <= 0.0 || !kernelMatchesReference(in, s, kb, interp_too)) {
            ++rep.failed;
            continue;
        }
        rep.pickedUs.push_back(us);
        if (!traced)
            continue;
        rep.defaultUs.add(time_us(defaultSchedule(shape)));
        auto t0 = Clock::now();
        if (in.is3d())
            (void)HierSparseTensor::build(formatOf(s, shape), in.t);
        else
            (void)HierSparseTensor::build(formatOf(s, shape), in.m);
        rep.formatBuildMs.add(since(t0) * 1e3);
        if (!in.is3d()) {
            t0 = Clock::now();
            (void)patternFingerprint(computePatternStats(in.m));
            rep.fingerprintMs.add(since(t0) * 1e3);
        }
    }
    auto stats1 = cb.stats();
    if (compiled && stats1.fallbacks != stats0.fallbacks)
        rep.fail("compiled backend fell back to the interpreter");
    if (!traced)
        return;
    rep.compiles += stats1.compiles - stats0.compiles;
    rep.kernelHits += stats1.cacheHits - stats0.cacheHits;
    rep.kernelMisses += stats1.cacheMisses - stats0.cacheMisses;
    if (timed) {
        for (double x : timed->compileMs.v)
            rep.compileMs.add(x);
        for (double x : timed->launchUs.v)
            rep.launchUs.add(x);
    }
    for (double x : timedWall.millis())
        rep.wallclockMs.add(x);
}

// ---------------------------------------------------------------- workloads

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** State shared by every workload of one run. */
struct Run
{
    Args args;
    Report rep;
    /** Oracle used for labeling and, in traced runs, behind the timing
     *  decorator every tuner measures through. */
    RuntimeOracle oracle{machine()};
    TimedMeasurer timedOracle{oracle};

    /** Rounds to run: whole rounds until --seconds have passed, and two
     *  at least (traced runs alternate untraced and traced rounds). */
    bool
    moreRounds(u32 round, Clock::time_point start) const
    {
        return round < 2 || since(start) < args.seconds;
    }

    bool tracedRound(u32 round) const { return args.trace && round % 2 == 1; }

    /** Call at the end of each round: records peak_rss_mb once the two
     *  rounds every run makes are done, so that it does not depend on how
     *  many more rounds fit in --seconds. */
    void
    endRound(u32 round)
    {
        if (round == 1)
            rep.peakRssMb = peakRssMb();
    }
};

/** Records one operation latency (ms), split by traced/untraced round in
 *  traced runs for the tracing overhead. */
void
recordOp(Run& run, u32 round, double ms)
{
    run.rep.opMs.add(ms);
    if (run.args.trace)
        (run.tracedRound(round) ? run.rep.tracedMs : run.rep.untracedMs)
            .add(ms);
}

/** The per-tune layer accounting of a traced round. */
void
traceTune(Run& run, LayerReplay& replay, const Input& in,
          const TuneOutcome& out, double wall_ms, double measure_ms,
          u64 oracle_measures)
{
    Report& rep = run.rep;
    double layers = replay.run(in, rep).ms + measure_ms;
    // The program's own counts: predictor calls of the walk, and the
    // candidates measured out of the verifier-clean top-k hits.
    rep.costEvals.add(static_cast<double>(out.costEvaluations));
    u64 screened = out.asymKept + out.asymRejected;
    if (screened > 0)
        rep.measuredRatio.add(static_cast<double>(out.topK.size()) /
                              static_cast<double>(screened));
    rep.tuneWallMs.add(wall_ms);
    rep.accountedMs.add(layers);
    rep.unaccountedMs.add(wall_ms - layers);
    rep.programFeatureMs.add(out.featureSeconds * 1e3);
    rep.programSearchMs.add(out.searchSeconds * 1e3);
    rep.programMeasureMs.add(out.remeasureSeconds * 1e3);
    rep.oracleMeasuresInTunes += static_cast<double>(oracle_measures);
    rep.tunesTraced += 1.0;
}

/** tune-small: whole rounds of tune() over fresh inputs. */
void
runTune(Run& run, const std::vector<Algorithm>& algs,
        const std::vector<Slot>& slots)
{
    Report& rep = run.rep;
    const bool trace = run.args.trace;
    std::map<Algorithm, std::unique_ptr<WacoTuner>> tuners;
    for (Algorithm alg : algs) {
        tuners[alg] = standUpTuner(alg, trace ? &run.timedOracle : nullptr,
                                   rep);
        if (trace)
            tuners[alg]->setMeasurementBackend(run.timedOracle);
    }
    rep.setupSeconds = since(g_process_start);
    std::map<Algorithm, std::unique_ptr<LayerReplay>> replays;
    if (trace)
        for (Algorithm alg : algs)
            replays[alg] = std::make_unique<LayerReplay>(*tuners[alg]);

    auto start = Clock::now();
    for (u32 round = 0; run.moreRounds(round, start); ++round) {
        std::vector<Input> kernelInputs;
        std::vector<SuperSchedule> picks;
        std::vector<Input> inputs = makeInputs(algs, slots, run.args.seed,
                                               round);
        const bool traced = run.tracedRound(round);
        rep.roundsTraced += traced ? 1 : 0;
        run.timedOracle.on = traced;
        for (const Input& in : inputs) {
            WacoTuner& tuner = *tuners[in.alg];
            ++rep.attempted;
            std::size_t mark = run.timedOracle.count();
            TuneOutcome out;
            double ms = 0.0;
            try {
                auto t0 = Clock::now();
                out = in.is3d() ? tuner.tune3d(in.t) : tuner.tune(in.m);
                ms = since(t0) * 1e3;
            } catch (const std::exception& e) {
                ++rep.failed;
                continue;
            }
            if (!checkTune(in, out, true, rep)) {
                ++rep.failed;
                continue;
            }
            rep.tuneMs.add(ms);
            recordOp(run, round, ms);
            rep.opCount += 1.0;
            rep.opWall += ms / 1e3;
            kernelInputs.push_back(in);
            picks.push_back(out.best);
            if (traced)
                traceTune(run, *replays[in.alg], in, out, ms,
                          run.timedOracle.sumFrom(mark),
                          run.timedOracle.count() - mark);
        }
        kernelPhase(kernelInputs, picks, traced, false, rep);
        run.endRound(round);
    }
    run.timedOracle.on = true;
}

/** tune-jit: per round, a fresh CompiledBackend, then two passes of
 *  tune() over the same inputs, every candidate the BudgetGuard lets
 *  through measured by WallclockMeasurer through it. The first pass
 *  compiles; the second must find every kernel cached. */
void
runJit(Run& run)
{
    Report& rep = run.rep;
    const bool trace = run.args.trace;
    const std::vector<Algorithm> algs = {Algorithm::SpMM, Algorithm::SDDMM};
    std::map<Algorithm, std::unique_ptr<WacoTuner>> tuners;
    for (Algorithm alg : algs)
        tuners[alg] = standUpTuner(alg, trace ? &run.timedOracle : nullptr,
                                   rep);
    rep.setupSeconds = since(g_process_start);
    std::map<Algorithm, std::unique_ptr<LayerReplay>> replays;
    if (trace)
        for (Algorithm alg : algs)
            replays[alg] = std::make_unique<LayerReplay>(*tuners[alg]);

    auto start = Clock::now();
    for (u32 round = 0; run.moreRounds(round, start); ++round) {
        std::vector<Input> kernelInputs;
        std::vector<SuperSchedule> picks;
        std::vector<Input> inputs = makeInputs(algs, kJitSlots, run.args.seed,
                                               round);
        const bool traced = run.tracedRound(round);
        rep.roundsTraced += traced ? 1 : 0;
        CompiledBackendOptions copt;
        copt.tempDir = run.args.workDir + "/jit-round-" +
                       std::to_string(round);
        {
            CompiledBackend cb(copt);
            if (!cb.compilerAvailable())
                rep.fail("tune-jit needs a system C compiler");
            TimedKernelBackend timedCb(cb);
            timedCb.on = traced;
            WallclockMeasurer wall(timedCb);
            TimedMeasurer timedWall(wall);
            timedWall.on = traced;
            BudgetGuard guard(timedWall);
            for (Algorithm alg : algs)
                tuners[alg]->setMeasurementBackend(guard);

            for (u32 pass = 0; pass < 2; ++pass) {
                auto before = cb.stats();
                for (const Input& in : inputs) {
                    WacoTuner& tuner = *tuners[in.alg];
                    ++rep.attempted;
                    std::size_t mark = timedWall.count();
                    TuneOutcome out;
                    double ms = 0.0;
                    try {
                        guard.restart();
                        auto t0 = Clock::now();
                        out = tuner.tune(in.m);
                        ms = (since(t0) - guard.seconds()) * 1e3;
                    } catch (const std::exception& e) {
                        ++rep.failed;
                        continue;
                    }
                    rep.guardSkipped += guard.skipped();
                    rep.guardTunes += 1;
                    if (traced) {
                        rep.guardSkippedTraced += guard.skipped();
                        rep.guardTunesTraced += 1;
                    }
                    if (!checkTune(in, out, false, rep)) {
                        ++rep.failed;
                        continue;
                    }
                    rep.tuneMs.add(ms);
                    rep.opCount += 1.0;
                    rep.opWall += ms / 1e3;
                    if (pass == 0) {
                        rep.coldTuneMs.add(ms);
                        if (traced)
                            replays[in.alg]->run(in, rep, false);
                    } else {
                        recordOp(run, round, ms);
                        kernelInputs.push_back(in);
                        picks.push_back(out.best);
                        if (traced)
                            traceTune(run, *replays[in.alg], in, out, ms,
                                      timedWall.sumFrom(mark), 0);
                    }
                }
                auto after = cb.stats();
                if (pass == 1 && after.compiles != before.compiles)
                    rep.fail("tune-jit second pass compiled a kernel");
                if (after.fallbacks != 0)
                    rep.fail("tune-jit compiled backend fell back");
            }
            if (traced) {
                auto st = cb.stats();
                rep.compiles += st.compiles;
                rep.kernelHits += st.cacheHits;
                rep.kernelMisses += st.cacheMisses;
            }
            for (double x : timedCb.compileMs.v)
                rep.compileMs.add(x);
            for (double x : timedCb.launchUs.v)
                rep.launchUs.add(x);
            for (double x : timedWall.millis())
                rep.wallclockMs.add(x);
        }
        std::error_code ec;
        std::filesystem::remove_all(copt.tempDir, ec);
        kernelPhase(kernelInputs, picks, traced, true, rep);
        run.endRound(round);
    }
}

/** serve-repeat slots: the small ladder four times over (24 inputs). */
std::vector<Slot>
serveSlots()
{
    std::vector<Slot> out;
    for (int copy = 0; copy < 4; ++copy)
        out.insert(out.end(), kSmallSlots.begin(), kSmallSlots.end());
    return out;
}

/** Each input of a round's pool is requested this many times. */
constexpr u32 kRecurrences = 8;

/** serve-repeat: one closed-loop client against a TunerService with a
 *  journaled result cache. Each round requests a fresh pool; an input's
 *  first request is a full search, its later ones are cache hits. */
void
runServe(Run& run)
{
    Report& rep = run.rep;
    const bool trace = run.args.trace;
    auto tuner = standUpTuner(Algorithm::SpMM,
                              trace ? &run.timedOracle : nullptr, rep);
    if (trace)
        tuner->setMeasurementBackend(run.timedOracle);
    const std::string journal = run.args.workDir + "/serve-cache.wjr";
    std::filesystem::remove(journal);
    service::ServiceConfig cfg;
    cfg.cacheJournalPath = journal;
    service::TunerService svc(*tuner, cfg);
    rep.setupSeconds = since(g_process_start);
    std::unique_ptr<LayerReplay> replay;
    if (trace)
        replay = std::make_unique<LayerReplay>(*tuner);

    const std::vector<Slot> slots = serveSlots();
    std::vector<std::pair<u64, std::string>> cached; // fingerprint, key
    u64 requests = 0, okRequests = 0;
    auto start = Clock::now();
    for (u32 round = 0; run.moreRounds(round, start); ++round) {
        std::vector<Input> pool =
            makeInputs({Algorithm::SpMM}, slots, run.args.seed, round);
        std::vector<u32> order;
        for (u32 r = 0; r < kRecurrences; ++r)
            for (u32 i = 0; i < pool.size(); ++i)
                order.push_back(i);
        Rng shuffle(streamSeed(run.args.seed, round, Algorithm::SpMM) ^ 0x5e);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<std::size_t>(
                          shuffle.uniformInt(0, static_cast<i64>(i - 1)))]);

        const bool traced = run.tracedRound(round);
        rep.roundsTraced += traced ? 1 : 0;
        run.timedOracle.on = traced;
        std::vector<std::string> keys(pool.size());
        auto round_start = Clock::now();
        double replay_s = 0.0;
        for (u32 idx : order) {
            const Input& in = pool[idx];
            ++requests;
            ++rep.attempted;
            std::size_t mark = run.timedOracle.count();
            auto t0 = Clock::now();
            auto ticket = svc.submit(in.m);
            const service::TuneResponse& resp = ticket->wait();
            double ms = since(t0) * 1e3;
            if (resp.status != service::ServiceStatus::Ok) {
                ++rep.failed;
                continue;
            }
            ++okRequests;
            const bool full = keys[idx].empty();
            recordOp(run, round, ms);
            if (full) {
                keys[idx] = resp.scheduleKey;
                rep.fullMs.add(ms);
                if (resp.rung != service::DegradationRung::FullSearch)
                    rep.fail("first request of an input was not a full "
                             "search");
                // A fresh oracle must reproduce the served measurement.
                SuperSchedule s = SuperSchedule::parseKey(resp.scheduleKey);
                Measurement again = RuntimeOracle(machine()).measure(
                    in.m, in.shape(), s);
                if (!resp.measured || again.seconds != resp.expectedSeconds)
                    rep.fail("fresh oracle measure differs from the served "
                             "measurement");
            } else {
                rep.hitMs.add(ms);
                if (resp.rung != service::DegradationRung::CacheHit)
                    rep.fail("repeated request was not a cache hit");
                if (resp.scheduleKey != keys[idx])
                    rep.fail("cache hit returned another key than the full "
                             "search");
            }
            if (traced && full) {
                auto r0 = Clock::now();
                auto f0 = Clock::now();
                (void)patternFingerprint(computePatternStats(in.m));
                double fp_ms = since(f0) * 1e3;
                rep.fingerprintMs.add(fp_ms);
                // The service does not expose the TuneOutcome, so the
                // counts come from the replay of the same walk and filters.
                LayerReplay::Result lr = replay->run(in, rep);
                rep.costEvals.add(static_cast<double>(lr.evals));
                if (lr.cleanHits > 0)
                    rep.measuredRatio.add(
                        static_cast<double>(lr.survivors) /
                        static_cast<double>(lr.cleanHits));
                double layers = lr.ms + fp_ms + run.timedOracle.sumFrom(mark);
                rep.tuneWallMs.add(ms);
                rep.accountedMs.add(layers);
                rep.unaccountedMs.add(ms - layers);
                rep.oracleMeasuresInTunes += static_cast<double>(
                    run.timedOracle.count() - mark);
                rep.tunesTraced += 1.0;
                replay_s += since(r0);
            }
        }
        // Replay work of traced rounds is not the client's wait.
        rep.opWall += since(round_start) - replay_s;
        rep.opCount += static_cast<double>(order.size());
        for (u32 i = 0; i < pool.size(); ++i)
            if (!keys[i].empty())
                cached.emplace_back(
                    patternFingerprint(computePatternStats(pool[i].m)),
                    keys[i]);
        std::vector<Input> kernelInputs;
        std::vector<SuperSchedule> picks;
        for (u32 i = 0; i < pool.size(); ++i) {
            if (keys[i].empty())
                continue;
            kernelInputs.push_back(std::move(pool[i]));
            picks.push_back(SuperSchedule::parseKey(keys[i]));
        }
        kernelPhase(kernelInputs, picks, traced, false, rep);
        run.endRound(round);
    }
    run.timedOracle.on = true;

    // One client, no deadlines: one full search per distinct input, every
    // other request a hit.
    service::ServiceStats st = svc.stats();
    if (okRequests == requests) {
        if (st.cacheMisses != cached.size() ||
            st.cacheHits != requests - cached.size())
            rep.fail("service hit/miss counts disagree with the request "
                     "sequence");
    }
    svc.shutdown();
    // The journal must recover exactly what the live service cached.
    service::ResultCache recovered(journal);
    if (recovered.size() != svc.cache().size() ||
        recovered.size() != cached.size())
        rep.fail("recovered cache size differs from the live cache");
    for (const auto& [fp, key] : cached) {
        service::CachedResult a, b;
        if (!recovered.lookup(fp, Algorithm::SpMM, &a) ||
            !svc.cache().lookup(fp, Algorithm::SpMM, &b) ||
            a.scheduleKey != key || b.scheduleKey != key)
            rep.fail("recovered cache entry differs from the served key");
    }
}

// ------------------------------------------------------------------- output

double
geomeanOr0(const std::vector<double>& xs)
{
    return xs.empty() ? 0.0 : geomean(xs);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<Metric>
endToEnd(const Report& r)
{
    return {
        {"setup_s", r.setupSeconds, "s"},
        {"latency_ms_gmean", geomeanOr0(r.opMs.v), "ms"},
        {"ops_per_s", r.opWall > 0 ? r.opCount / r.opWall : 0.0, "1/s"},
        {"picked_kernel_us", geomeanOr0(r.pickedUs), "us"},
        {"peak_rss_mb", r.peakRssMb, "MB"},
    };
}

std::vector<Metric>
perLayer(const Report& r)
{
    u64 lookups = r.kernelHits + r.kernelMisses;
    double untraced = r.untracedMs.p50();
    return {
        {"setup.label_s", r.labelS, "s"},
        {"setup.fit_s", r.fitS, "s"},
        {"setup.graph_s", r.graphS, "s"},
        {"model.extract_ms_p50", r.extractMs.p50(), "ms"},
        {"search.walk_ms_p50", r.walkMs.p50(), "ms"},
        {"search.cost_evals", r.costEvals.p50(), "count/tune"},
        {"analysis.filter_ms_p50", r.filterMs.p50(), "ms"},
        {"analysis.measured_ratio", r.measuredRatio.v.empty()
                                        ? 0.0
                                        : mean(r.measuredRatio.v),
         "ratio"},
        {"oracle.measure_ms_p50", r.oracleMs.p50(), "ms"},
        {"oracle.measures_per_tune",
         r.tunesTraced > 0 ? r.oracleMeasuresInTunes / r.tunesTraced : 0.0,
         "count"},
        {"wallclock.measure_ms_p50", r.wallclockMs.p50(), "ms"},
        {"codegen.compiles",
         r.roundsTraced ? static_cast<double>(r.compiles) /
                              static_cast<double>(r.roundsTraced)
                        : 0.0,
         "count/round"},
        {"codegen.compile_ms_p50", r.compileMs.p50(), "ms"},
        {"codegen.cache_hit_ratio",
         lookups ? static_cast<double>(r.kernelHits) /
                       static_cast<double>(lookups)
                 : 0.0,
         "ratio"},
        {"exec.launch_us_p50", r.launchUs.p50(), "us"},
        {"exec.default_kernel_us", geomeanOr0(r.defaultUs.v), "us"},
        {"tensor.format_build_ms_p50", r.formatBuildMs.p50(), "ms"},
        {"service.fingerprint_ms_p50", r.fingerprintMs.p50(), "ms"},
        {"tune.unaccounted_ms_p50", r.unaccountedMs.p50(), "ms"},
        {"guard.skipped_per_tune",
         r.guardTunesTraced ? static_cast<double>(r.guardSkippedTraced) /
                                  static_cast<double>(r.guardTunesTraced)
                            : 0.0,
         "count"},
        {"trace.overhead_pct",
         untraced > 0 ? (r.tracedMs.p50() / untraced - 1.0) * 100.0 : 0.0,
         "%"},
    };
}

/** Share of tune() wall time the outside-timed layers may leave
 *  unexplained, either way (README.md, "Traced run"). */
constexpr double kAccountingShare = 0.25;

void
printReport(const Run& run)
{
    const Report& r = run.rep;
    std::printf("workload %s seed %llu: %llu attempted, %llu failed\n",
                run.args.workload.c_str(),
                static_cast<unsigned long long>(run.args.seed),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::printf("  tunes %zu: p50 %.3f ms, p90 %.3f ms (tune-jit cold pass "
                "%zu: p50 %.3f ms)\n",
                r.tuneMs.v.size(), r.tuneMs.p50(), r.tuneMs.p(90.0),
                r.coldTuneMs.v.size(), r.coldTuneMs.p50());
    std::printf("  served: hits %zu p50 %.3f ms, full searches %zu p50 "
                "%.3f ms\n",
                r.hitMs.v.size(), r.hitMs.p50(), r.fullMs.v.size(),
                r.fullMs.p50());
    std::printf("  picked kernels %zu: geomean %.3f us\n", r.pickedUs.size(),
                geomeanOr0(r.pickedUs));
    if (r.guardTunes)
        std::printf("  budget guard: %llu candidates skipped over %llu "
                    "tunes\n",
                    static_cast<unsigned long long>(r.guardSkipped),
                    static_cast<unsigned long long>(r.guardTunes));
    if (run.args.trace) {
        std::printf("  traced tunes %zu: wall p50 %.3f ms, layers p50 %.3f "
                    "ms; program's own view: feature %.3f, search %.3f, "
                    "measure %.3f ms (p50)\n",
                    r.tuneWallMs.v.size(), r.tuneWallMs.p50(),
                    r.accountedMs.p50(), r.programFeatureMs.p50(),
                    r.programSearchMs.p50(), r.programMeasureMs.p50());
        std::printf("  latency p50 untraced rounds %.3f ms, traced rounds "
                    "%.3f ms\n",
                    r.untracedMs.p50(), r.tracedMs.p50());
    }
    for (const auto& p : r.problems)
        std::printf("  CHECK FAILED: %s\n", p.c_str());
}

void
printJson(const Run& run, const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                run.rep.correct ? "true" : "false",
                static_cast<unsigned long long>(run.rep.attempted),
                static_cast<unsigned long long>(run.rep.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: waco_perfbench --workload "
                 "{tune-small|serve-repeat|tune-jit} --seed N "
                 "--seconds S --trace {0|1} [--work-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Run run;
    Args& a = run.args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work-dir")
            a.workDir = v;
        else
            return usage();
    }
    if (argc % 2 == 0)
        return usage();
    setLogLevel(LogLevel::Warn);
    std::filesystem::create_directories(a.workDir);

    if (a.workload == "tune-small")
        runTune(run, {Algorithm::SpMV, Algorithm::SpMM, Algorithm::SDDMM,
                      Algorithm::MTTKRP, Algorithm::FusedSDDMMSpMM},
                kSmallSlots);
    else if (a.workload == "serve-repeat")
        runServe(run);
    else if (a.workload == "tune-jit")
        runJit(run);
    else
        return usage();

    Report& r = run.rep;
    for (double x : run.timedOracle.millis())
        r.oracleMs.add(x);
    if (a.trace && r.tuneWallMs.sum() > 0) {
        double share = r.unaccountedMs.p50() / r.tuneWallMs.p50();
        if (std::abs(share) > kAccountingShare)
            r.fail("layer times leave " + std::to_string(share * 100.0) +
                   "% of tune wall time unexplained");
    }
    printReport(run);
    std::fflush(stdout);
    printJson(run, a.trace ? perLayer(r) : endToEnd(r));
    return 0;
}
