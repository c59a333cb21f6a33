// Experiment E2.5b — the roofline model (§2.5 lesson): measure this
// machine's compute and bandwidth ceilings, place each kernel by arithmetic
// intensity, and report achieved-vs-attainable efficiency *per ISA*: the
// same schedule run through the scalar backend and (when the host has it)
// the AVX2+FMA microkernels. A second section times matmul at sizes >= 256
// against the best scalar schedule, which is where the register-tiled SIMD
// path has to earn its keep: the binary exits 1 when that speedup is below
// 2x. matmul_transposed, which packs B^T onto the same microkernel, is
// timed beside it (printed, not gated).

#include <benchmark/benchmark.h>

#include "common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "treu/core/manifest.hpp"
#include "treu/core/rng.hpp"
#include "treu/obs/obs.hpp"
#include "treu/obs/report.hpp"
#include "treu/parallel/thread_pool.hpp"
#include "treu/sched/problem.hpp"
#include "treu/sched/roofline.hpp"
#include "treu/tensor/cpu_features.hpp"
#include "treu/tensor/kernels.hpp"

namespace ts = treu::sched;
namespace tt = treu::tensor;

namespace {

ts::RooflineModel measure_model() {
  TREU_OBS_SPAN(phase, "phase.measure_roofline");
  return ts::measure_roofline();
}

ts::Schedule tuned_schedule(ts::KernelKind kind, tt::Isa isa) {
  ts::Schedule schedule = ts::ScheduleSpace::baseline(kind);
  schedule.params.tile_i = 32;
  schedule.params.unroll = 4;
  if (kind == ts::KernelKind::MatMul) {
    schedule.params.order = treu::tensor::LoopOrder::IKJ;
    schedule.params.tile_j = 64;
    schedule.params.tile_k = 32;
  }
  schedule.params.isa = isa;
  if (isa != tt::Isa::Scalar && (kind == ts::KernelKind::MatMul ||
                                 kind == ts::KernelKind::MatMulTransposed)) {
    // The wide 6x16 register tile measures fastest on AVX2; cache tiling
    // only slows the microkernel down at these sizes, so drop it.
    schedule.params.tile_i = 0;
    schedule.params.tile_j = 0;
    schedule.params.tile_k = 0;
    schedule.params.rtile_m = 6;
    schedule.params.rtile_n = 16;
  }
  return schedule;
}

/// Scalar-vs-AVX2 time ratio of `kind` on an n^3 problem, best schedules.
double simd_speedup(ts::KernelKind kind, std::size_t n,
                    treu::parallel::ThreadPool &pool, const char *label) {
  treu::core::Rng rng(11);
  ts::Problem problem(kind, {n, n, n}, rng);
  const ts::Measurement ms =
      problem.measure(tuned_schedule(kind, tt::Isa::Scalar), pool, 5);
  const ts::Measurement mv =
      problem.measure(tuned_schedule(kind, tt::Isa::Avx2), pool, 5);
  const double speedup = mv.seconds > 0.0 ? ms.seconds / mv.seconds : 0.0;
  std::printf("    %-17s n=%zu  scalar %.2f GF  avx2 %.2f GF  speedup %.2fx",
              label, n, ms.gflops, mv.gflops, speedup);
  return speedup;
}

/// Prints the report; false when the gated matmul SIMD speedup is below 2x.
bool print_report(treu::core::Manifest &manifest) {
  std::printf("== E2.5b: roofline model of this host (§2.5 lesson) ==\n");
  const ts::RooflineModel model = measure_model();
  std::printf("  %s\n", model.describe().c_str());

  std::vector<tt::Isa> isas = {tt::Isa::Scalar};
  if (tt::Kernel::available(tt::Isa::Avx2)) isas.push_back(tt::Isa::Avx2);
  std::printf("  detected ISA: %s (forced: %s)\n",
              tt::to_string(tt::Kernel::best()),
              tt::forced_isa() ? tt::to_string(*tt::forced_isa()) : "no");
  std::printf("  %-10s %-6s %14s %12s %14s %10s\n", "kernel", "isa",
              "intensity", "achieved", "attainable", "%of-peak");

  treu::parallel::ThreadPool pool(0);
  for (const auto kind :
       {ts::KernelKind::MatVec, ts::KernelKind::Conv1D, ts::KernelKind::Conv2D,
        ts::KernelKind::MatMul, ts::KernelKind::MatMulTransposed}) {
    treu::core::Rng rng(11);
    ts::Problem problem(kind, ts::default_size(kind), rng);
    const double intensity = problem.intensity();
    for (const tt::Isa isa : isas) {
      const ts::Schedule schedule = tuned_schedule(kind, isa);
      ts::Measurement m;
      {
        TREU_OBS_SPAN(phase, std::string("phase.measure.") +
                                 tt::to_string(kind) + "." +
                                 tt::to_string(isa));
        m = problem.measure(schedule, pool, 3);
      }
      const double pct = 100.0 * model.efficiency(intensity, m.gflops);
      std::printf("  %-10s %-6s %8.2f f/B %s %7.2f GF %10.2f GF %8.0f%%\n",
                  tt::to_string(kind), tt::to_string(isa), intensity,
                  model.memory_bound(intensity) ? "(mem) " : "(comp)",
                  m.gflops, model.attainable_gflops(intensity), pct);
      TREU_OBS_COUNTER_EVENT(
          std::string("roofline.pct_of_peak.") + tt::to_string(kind) + "." +
              tt::to_string(isa),
          pct);
      manifest.set(std::string("pct_of_peak.") + tt::to_string(kind) + "." +
                       tt::to_string(isa),
                   pct);
    }
  }
  std::printf("\n");

  // SIMD speedup at the sizes the acceptance gate cares about: matmul at
  // n >= 256, AVX2 microkernels vs the best scalar schedule.
  bool gate_ok = true;
  if (isas.size() > 1) {
    std::printf("  SIMD speedup vs best scalar schedule (matmul gated >= 2x):\n");
    for (const std::size_t n : {std::size_t{256}, std::size_t{384}}) {
      const double speedup =
          simd_speedup(ts::KernelKind::MatMul, n, pool, "matmul");
      std::printf(" %s\n", speedup >= 2.0 ? "(>=2x OK)" : "(below 2x: FAIL)");
      gate_ok = gate_ok && speedup >= 2.0;
      TREU_OBS_COUNTER_EVENT("roofline.simd_speedup.matmul_" +
                                 std::to_string(n),
                             speedup);
      manifest.set("simd_speedup.matmul_" + std::to_string(n), speedup);

      const double t_speedup = simd_speedup(ts::KernelKind::MatMulTransposed,
                                            n, pool, "matmul_transposed");
      std::printf("\n");
      manifest.set("simd_speedup.matmul_transposed_" + std::to_string(n),
                   t_speedup);
    }
    std::printf("\n");
  } else {
    std::printf("  (no SIMD backend on this host/build: speedup section skipped)\n\n");
  }
  return gate_ok;
}

void BM_PeakFlopsProbe(benchmark::State &state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts::measure_peak_gflops(std::size_t{1} << 22, 1));
  }
}
BENCHMARK(BM_PeakFlopsProbe)->Unit(benchmark::kMillisecond);

void BM_BandwidthProbe(benchmark::State &state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts::measure_peak_bandwidth_gbs(std::size_t{1} << 22, 1));
  }
}
BENCHMARK(BM_BandwidthProbe)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char **argv) {
  const treu::bench::CommonFlags flags =
      treu::bench::parse_common_flags(argc, argv, /*default_seed=*/11);

  treu::core::Manifest manifest;
  manifest.name = "bench_roofline";
  manifest.description =
      "E2.5b: measured roofline model + per-ISA kernel placement";
  manifest.set("repeats", std::int64_t{3});
  manifest.set("isa_detected", tt::to_string(tt::Kernel::best()));

  const bool gate_ok = print_report(manifest);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  treu::bench::finish(flags, manifest);
  if (!gate_ok) {
    std::fprintf(stderr, "bench_roofline: matmul SIMD speedup below 2x\n");
    return 1;
  }
  return 0;
}
