// Tests for the scheduling language, problems/measurement, and both
// autotuners.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <set>

#include "treu/core/rng.hpp"
#include "treu/sched/autotune.hpp"
#include "treu/sched/problem.hpp"
#include "treu/sched/schedule.hpp"
#include "treu/tensor/cpu_features.hpp"
#include "treu/tensor/kernels.hpp"

namespace ts = treu::sched;
namespace tt = treu::tensor;
using treu::parallel::ThreadPool;

namespace {

ThreadPool &pool() {
  static ThreadPool p(1);
  return p;
}

const std::vector<ts::KernelKind> kAllKernels = {
    ts::KernelKind::MatVec, ts::KernelKind::Conv1D, ts::KernelKind::Conv2D,
    ts::KernelKind::MatMul, ts::KernelKind::MatMulTransposed};

// Pin TREU_FORCE_ISA for one test and restore whatever was there before, so
// these tests behave the same inside a forced-scalar CI job.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(const char *value) {
    const char *old = std::getenv("TREU_FORCE_ISA");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::setenv("TREU_FORCE_ISA", value, 1);
    tt::refresh_forced_isa_for_testing();
  }
  ~ScopedForceIsa() {
    if (had_) {
      ::setenv("TREU_FORCE_ISA", saved_.c_str(), 1);
    } else {
      ::unsetenv("TREU_FORCE_ISA");
    }
    tt::refresh_forced_isa_for_testing();
  }

 private:
  std::string saved_;
  bool had_ = false;
};

ts::ProblemSize small_size(ts::KernelKind kind) {
  switch (kind) {
    case ts::KernelKind::MatVec: return {48, 40, 0};
    case ts::KernelKind::Conv1D: return {0, 512, 16};
    case ts::KernelKind::Conv2D: return {24, 26, 5};
    case ts::KernelKind::MatMul: return {20, 22, 18};
    case ts::KernelKind::MatMulTransposed: return {20, 22, 18};
  }
  return {};
}

}  // namespace

TEST(Schedule, BaselineIsValidForEveryKernel) {
  for (const auto kind : kAllKernels) {
    const ts::Schedule s = ts::ScheduleSpace::baseline(kind);
    EXPECT_TRUE(s.valid()) << tt::to_string(kind);
    EXPECT_EQ(s.kernel, kind);
    EXPECT_FALSE(s.params.parallel);
  }
}

TEST(Schedule, ToStringMentionsKernelAndKnobs) {
  ts::Schedule s = ts::ScheduleSpace::baseline(ts::KernelKind::MatMul);
  s.params.tile_i = 64;
  s.params.unroll = 4;
  s.params.parallel = true;
  const std::string text = s.to_string();
  EXPECT_NE(text.find("matmul"), std::string::npos);
  EXPECT_NE(text.find("tile(i=64"), std::string::npos);
  EXPECT_NE(text.find("unroll(4)"), std::string::npos);
  EXPECT_NE(text.find("parallel"), std::string::npos);
}

TEST(Schedule, InvalidUnrollDetected) {
  ts::Schedule s = ts::ScheduleSpace::baseline(ts::KernelKind::MatVec);
  s.params.unroll = 3;
  EXPECT_FALSE(s.valid());
}

TEST(ScheduleSpace, RandomSchedulesAreValidAndInSpace) {
  ts::ScheduleSpace space;
  treu::core::Rng rng(1);
  for (const auto kind : kAllKernels) {
    for (int i = 0; i < 50; ++i) {
      const ts::Schedule s = space.random_schedule(kind, rng);
      EXPECT_TRUE(s.valid());
      EXPECT_EQ(s.kernel, kind);
      EXPECT_NE(std::find(space.tile_candidates.begin(),
                          space.tile_candidates.end(), s.params.tile_i),
                space.tile_candidates.end());
    }
  }
}

TEST(ScheduleSpace, MutationChangesAtMostOneKnob) {
  ts::ScheduleSpace space;
  treu::core::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const ts::Schedule s = space.random_schedule(ts::KernelKind::MatMul, rng);
    const ts::Schedule m = space.mutate(s, rng);
    int changed = 0;
    if (m.params.tile_i != s.params.tile_i) ++changed;
    if (m.params.tile_j != s.params.tile_j) ++changed;
    if (m.params.tile_k != s.params.tile_k) ++changed;
    if (m.params.unroll != s.params.unroll) ++changed;
    if (m.params.parallel != s.params.parallel) ++changed;
    if (m.params.order != s.params.order) ++changed;
    if (m.params.isa != s.params.isa) ++changed;
    if (m.params.rtile_m != s.params.rtile_m ||
        m.params.rtile_n != s.params.rtile_n) {
      ++changed;  // the register-tile shape mutates as one knob
    }
    EXPECT_LE(changed, 1);
    EXPECT_TRUE(m.valid());
  }
}

TEST(ScheduleSpace, CrossoverKnobsComeFromAParent) {
  ts::ScheduleSpace space;
  treu::core::Rng rng(3);
  const ts::Schedule a = space.random_schedule(ts::KernelKind::MatMul, rng);
  const ts::Schedule b = space.random_schedule(ts::KernelKind::MatMul, rng);
  for (int i = 0; i < 50; ++i) {
    const ts::Schedule c = space.crossover(a, b, rng);
    EXPECT_TRUE(c.params.tile_i == a.params.tile_i ||
                c.params.tile_i == b.params.tile_i);
    EXPECT_TRUE(c.params.unroll == a.params.unroll ||
                c.params.unroll == b.params.unroll);
  }
}

TEST(ScheduleSpace, CardinalityMatchesKnobCount) {
  ts::ScheduleSpace space;
  const std::size_t t = space.tile_candidates.size();
  const std::size_t u = space.unroll_candidates.size();
  const std::size_t v = space.isa_candidates.size();
  const std::size_t r = space.rtile_candidates.size();
  EXPECT_EQ(space.cardinality(ts::KernelKind::MatVec), t * u * 2 * v);
  EXPECT_EQ(space.cardinality(ts::KernelKind::MatMul),
            space.order_candidates.size() * t * t * t * u * 2 * v * r);
}

TEST(Problem, EveryKernelExecutesBaselineCorrectly) {
  treu::core::Rng rng(4);
  for (const auto kind : kAllKernels) {
    ts::Problem problem(kind, small_size(kind), rng);
    const auto m =
        problem.measure(ts::ScheduleSpace::baseline(kind), pool(), 1);
    EXPECT_TRUE(m.output_matches_reference) << tt::to_string(kind);
    EXPECT_GT(m.gflops, 0.0);
    EXPECT_GT(problem.flops(), 0.0);
    EXPECT_GT(problem.intensity(), 0.0);
  }
}

TEST(Problem, ReferenceIsBitwiseTheBaselineSchedule) {
  // reference() is the baseline schedule run through the typed Kernel
  // entry points, so the two agree bit for bit on every kernel.
  treu::core::Rng rng(9);
  for (const auto kind : kAllKernels) {
    ts::Problem problem(kind, small_size(kind), rng);
    const std::vector<double> out =
        problem.execute(ts::ScheduleSpace::baseline(kind), pool());
    const std::vector<double> &ref = problem.reference();
    ASSERT_EQ(out.size(), ref.size()) << tt::to_string(kind);
    ASSERT_FALSE(ref.empty()) << tt::to_string(kind);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(out[i] == ref[i]) << tt::to_string(kind) << " at " << i;
    }
  }
}

TEST(Problem, RandomSchedulesAlwaysMatchReference) {
  // The semantic contract behind the whole autotuning experiment.
  ts::ScheduleSpace space;
  treu::core::Rng rng(5);
  for (const auto kind : kAllKernels) {
    ts::Problem problem(kind, small_size(kind), rng);
    for (int i = 0; i < 12; ++i) {
      const ts::Schedule s = space.random_schedule(kind, rng);
      const auto m = problem.measure(s, pool(), 1);
      EXPECT_TRUE(m.output_matches_reference)
          << tt::to_string(kind) << " " << s.to_string();
    }
  }
}

TEST(Problem, ScheduleKernelMismatchThrows) {
  treu::core::Rng rng(6);
  ts::Problem problem(ts::KernelKind::MatVec,
                      small_size(ts::KernelKind::MatVec), rng);
  EXPECT_THROW(
      (void)problem.execute(ts::ScheduleSpace::baseline(ts::KernelKind::MatMul),
                            pool()),
      std::invalid_argument);
}

TEST(Problem, OutputDigestStableAcrossRepeats) {
  treu::core::Rng rng(7);
  ts::Problem problem(ts::KernelKind::MatMul,
                      small_size(ts::KernelKind::MatMul), rng);
  const auto s = ts::ScheduleSpace::baseline(ts::KernelKind::MatMul);
  const auto m1 = problem.measure(s, pool(), 1);
  const auto m2 = problem.measure(s, pool(), 1);
  EXPECT_EQ(m1.output_digest, m2.output_digest);
}

TEST(Autotune, GeneticBudgetAndValidityDeterministic) {
  // The *candidate stream* is seed-deterministic; the selected winner may
  // differ between runs because candidate costs are wall-clock
  // measurements. What must hold every run: exact evaluation budget, a
  // valid winner, and zero correctness rejections.
  treu::core::Rng rng(8);
  ts::Problem problem(ts::KernelKind::MatMul,
                      small_size(ts::KernelKind::MatMul), rng);
  ts::TuneConfig config;
  config.population = 6;
  config.generations = 3;
  config.repeats = 1;
  config.seed = 99;
  const auto r1 = ts::genetic_autotune(problem, config, pool());
  const auto r2 = ts::genetic_autotune(problem, config, pool());
  // Budget: initial population (6) + per later generation the non-elite
  // children (6 - 2 elites = 4) over 2 more generations.
  EXPECT_EQ(r1.evaluations, 14u);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  EXPECT_EQ(r1.rejected_incorrect, 0u);
  EXPECT_TRUE(r1.best.schedule.valid());
  EXPECT_TRUE(r2.best.schedule.valid());
}

TEST(Autotune, GeneticNeverWorseThanBaseline) {
  treu::core::Rng rng(9);
  ts::Problem problem(ts::KernelKind::MatMul, {48, 48, 48}, rng);
  ts::TuneConfig config;
  config.population = 6;
  config.generations = 3;
  config.repeats = 2;
  config.seed = 5;
  const auto result = ts::genetic_autotune(problem, config, pool());
  const auto baseline = ts::replay(
      problem, ts::ScheduleSpace::baseline(ts::KernelKind::MatMul), pool(), 2);
  // The GA seeds its population with the baseline, so the winner can only
  // be at least as fast up to timing noise; allow 50% slack.
  EXPECT_LE(result.best.cost(), baseline.measurement.seconds * 1.5);
  EXPECT_TRUE(result.best.measurement.output_matches_reference);
}

TEST(Autotune, ConvergenceCurveMonotoneNonIncreasing) {
  treu::core::Rng rng(10);
  ts::Problem problem(ts::KernelKind::Conv1D,
                      small_size(ts::KernelKind::Conv1D), rng);
  ts::TuneConfig config;
  config.population = 5;
  config.generations = 4;
  config.repeats = 1;
  const auto result = ts::genetic_autotune(problem, config, pool());
  ASSERT_EQ(result.best_cost_per_generation.size(), 4u);
  for (std::size_t g = 1; g < result.best_cost_per_generation.size(); ++g) {
    // Elitism: best cost can only improve between generations (timing noise
    // does not re-enter because elites carry their measured cost).
    EXPECT_LE(result.best_cost_per_generation[g],
              result.best_cost_per_generation[g - 1] + 1e-12);
  }
}

TEST(Autotune, RandomSearchSpendsFullBudget) {
  treu::core::Rng rng(11);
  ts::Problem problem(ts::KernelKind::MatVec,
                      small_size(ts::KernelKind::MatVec), rng);
  ts::TuneConfig config;
  config.population = 4;
  config.generations = 5;
  config.repeats = 1;
  const auto result = ts::random_search(problem, config, pool());
  EXPECT_EQ(result.evaluations, 20u);
  EXPECT_TRUE(result.best.measurement.output_matches_reference);
}

TEST(Autotune, ReplayMeasuresGivenSchedule) {
  treu::core::Rng rng(12);
  ts::Problem problem(ts::KernelKind::Conv2D,
                      small_size(ts::KernelKind::Conv2D), rng);
  ts::Schedule s = ts::ScheduleSpace::baseline(ts::KernelKind::Conv2D);
  s.params.tile_i = 8;
  s.params.unroll = 4;
  const auto e = ts::replay(problem, s, pool(), 1);
  EXPECT_EQ(e.schedule, s);
  EXPECT_TRUE(e.measurement.output_matches_reference);
}

TEST(DefaultSizes, AreNonDegenerate) {
  for (const auto kind : kAllKernels) {
    const auto size = ts::default_size(kind);
    treu::core::Rng rng(13);
    ts::Problem problem(kind, size, rng);
    EXPECT_GT(problem.flops(), 1e4) << tt::to_string(kind);
  }
}

// --- Schedules as code (parse / round trip) ------------------------------------

TEST(ScheduleParse, RoundTripsEveryRandomSchedule) {
  ts::ScheduleSpace space;
  treu::core::Rng rng(40);
  for (const auto kind : kAllKernels) {
    for (int i = 0; i < 40; ++i) {
      const ts::Schedule original = space.random_schedule(kind, rng);
      const auto parsed = ts::Schedule::parse(original.to_string());
      ASSERT_TRUE(parsed.has_value()) << original.to_string();
      EXPECT_EQ(*parsed, original) << original.to_string();
    }
  }
}

TEST(ScheduleParse, AcceptsHandWrittenSchedule) {
  const auto s =
      ts::Schedule::parse("matmul: order(ikj).tile(i=64,j=32,k=16).unroll(4).parallel");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kernel, ts::KernelKind::MatMul);
  EXPECT_EQ(s->params.order, treu::tensor::LoopOrder::IKJ);
  EXPECT_EQ(s->params.tile_i, 64u);
  EXPECT_EQ(s->params.tile_k, 16u);
  EXPECT_EQ(s->params.unroll, 4u);
  EXPECT_TRUE(s->params.parallel);
}

TEST(ScheduleParse, RejectsMalformedInput) {
  EXPECT_FALSE(ts::Schedule::parse("").has_value());
  EXPECT_FALSE(ts::Schedule::parse("gemm: tile(i=1,j=1).unroll(1)").has_value());
  EXPECT_FALSE(ts::Schedule::parse("matmul: tile(i=1)").has_value());
  EXPECT_FALSE(ts::Schedule::parse("matvec: tile(i=1,j=0).unroll(3)").has_value());
  EXPECT_FALSE(
      ts::Schedule::parse("matvec: tile(i=1,j=0).unroll(2)trailing").has_value());
}

TEST(ScheduleParse, ParsedScheduleExecutesCorrectly) {
  // The full "schedules as code" loop: print, parse, run, verify output.
  treu::core::Rng rng(41);
  ts::Problem problem(ts::KernelKind::Conv2D,
                      small_size(ts::KernelKind::Conv2D), rng);
  const auto schedule =
      ts::Schedule::parse("conv2d: tile(i=8,j=8).unroll(4)");
  ASSERT_TRUE(schedule.has_value());
  const auto m = problem.measure(*schedule, pool(), 1);
  EXPECT_TRUE(m.output_matches_reference);
}

TEST(ScheduleParse, IsaAndRtileRoundTrip) {
  const auto s = ts::Schedule::parse(
      "matmul: order(ikj).tile(i=64,j=64,k=32).unroll(4).isa(avx2).rtile(4x8).parallel");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->params.isa, tt::Isa::Avx2);
  EXPECT_EQ(s->params.rtile_m, 4u);
  EXPECT_EQ(s->params.rtile_n, 8u);
  EXPECT_TRUE(s->params.parallel);
  // render(parse(text)) == text for every canonical string.
  for (const char *text :
       {"matmul: order(ikj).tile(i=64,j=64,k=32).unroll(4).isa(avx2).rtile(4x8).parallel",
        "matmul: order(ijk).tile(i=0,j=0,k=0).unroll(1)",
        "matvec: tile(i=32,j=0).unroll(2).isa(avx2)",
        "conv1d: tile(i=16,j=0).unroll(8).isa(avx2).parallel",
        "conv2d: tile(i=8,j=8).unroll(4).rtile(2x8)",
        "matmul_t: order(ikj).tile(i=8,j=16,k=0).unroll(1).isa(avx2)"}) {
    const auto parsed = ts::Schedule::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->to_string(), text);
  }
  // Pre-SIMD schedule strings still parse to the scalar default, and render
  // without the new suffixes — published schedules stay canonical.
  const auto old = ts::Schedule::parse("matmul: order(ikj).tile(i=8,j=8,k=8).unroll(2)");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->params.isa, tt::Isa::Scalar);
  EXPECT_EQ(old->params.rtile_m, 0u);
  EXPECT_EQ(old->to_string(), "matmul: order(ikj).tile(i=8,j=8,k=8).unroll(2)");
  // Malformed isa/rtile are rejected, not guessed at.
  EXPECT_FALSE(ts::Schedule::parse(
      "matmul: order(ikj).tile(i=0,j=0,k=0).unroll(1).isa(neon)").has_value());
  EXPECT_FALSE(ts::Schedule::parse(
      "matmul: order(ikj).tile(i=0,j=0,k=0).unroll(1).rtile(4)").has_value());
  EXPECT_FALSE(ts::Schedule::parse(
      "matmul: order(ikj).tile(i=0,j=0,k=0).unroll(1).rtile(16x8)").has_value());
}

TEST(ScheduleExec, UnavailableIsaFallsBackWithMetricInsteadOfThrowing) {
  // Pin the process to scalar so an avx2-naming schedule is guaranteed to
  // be "from another machine", whatever host runs the tests.
  ScopedForceIsa pin("scalar");
  treu::core::Rng rng(60);
  ts::Problem problem(ts::KernelKind::MatMul,
                      small_size(ts::KernelKind::MatMul), rng);
  const auto schedule = ts::Schedule::parse(
      "matmul: order(ikj).tile(i=0,j=0,k=0).unroll(1).isa(avx2).rtile(4x8)");
  ASSERT_TRUE(schedule.has_value());
  const std::uint64_t before = tt::Kernel::isa_fallbacks();
  ts::Measurement m;
  EXPECT_NO_THROW(m = problem.measure(*schedule, pool(), 1));
  EXPECT_TRUE(m.output_matches_reference);
  EXPECT_GT(tt::Kernel::isa_fallbacks(), before);
}

TEST(Autotune, PureEvaluatorMakesWinnerByteIdentical) {
  // With a pure cost oracle the whole GA run is replayable: same seed +
  // same detected ISA => byte-identical winning schedule. Wall-clock
  // measurement cannot promise this; the injectable evaluator can.
  treu::core::Rng rng(61);
  ts::Problem problem(ts::KernelKind::MatMul,
                      small_size(ts::KernelKind::MatMul), rng);
  ts::TuneConfig config;
  config.population = 8;
  config.generations = 4;
  config.seed = 123;
  config.evaluator = [](const ts::Problem &, const ts::Schedule &s,
                        ThreadPool &, std::size_t) {
    ts::Measurement m;
    // Deterministic pseudo-cost from the schedule text alone.
    double cost = 1.0;
    for (const char c : s.to_string()) {
      cost = cost * 31.0 + static_cast<double>(c);
      cost = std::fmod(cost, 1e6) + 1.0;
    }
    m.seconds = cost;
    m.output_matches_reference = true;
    return m;
  };
  const auto r1 = ts::genetic_autotune(problem, config, pool());
  const auto r2 = ts::genetic_autotune(problem, config, pool());
  EXPECT_EQ(r1.best.schedule, r2.best.schedule);
  EXPECT_EQ(r1.best.schedule.to_string(), r2.best.schedule.to_string());
  EXPECT_EQ(r1.best_cost_per_generation, r2.best_cost_per_generation);
  // The winner never names an ISA this host cannot execute: requests are
  // normalized through Kernel::effective() before entering the population.
  EXPECT_TRUE(tt::Kernel::available(r1.best.schedule.params.isa));
}

TEST(Autotune, WinnerIsaIsAlwaysAvailableUnderForcedScalar) {
  ScopedForceIsa pin("scalar");
  treu::core::Rng rng(62);
  ts::Problem problem(ts::KernelKind::MatMul,
                      small_size(ts::KernelKind::MatMul), rng);
  ts::TuneConfig config;
  config.population = 6;
  config.generations = 2;
  config.repeats = 1;
  config.seed = 17;
  const auto result = ts::genetic_autotune(problem, config, pool());
  EXPECT_EQ(result.best.schedule.params.isa, tt::Isa::Scalar);
  EXPECT_TRUE(result.best.measurement.output_matches_reference);
}
