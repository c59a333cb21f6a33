#pragma once

// A miniature scheduling language over the five §2.5 kernels.
//
// In TVM or MLIR's transform dialect, a *schedule* is data that describes
// how to rewrite a kernel's loop nest without changing its semantics. We
// model the same idea: `Schedule` carries the transformation knobs (loop
// order, tiling, unrolling, parallelization, vector ISA, register-tile
// shape), `validate` is the legality check, and applying a schedule means
// one typed `tensor::Kernel::` dispatch with those knobs. The semantic
// contract — any valid schedule computes the same function as the naive
// kernel — is enforced by property tests across the whole space.
//
// The isa/rtile knobs select among *compiled backends* rather than loop
// rewrites: `.isa(avx2)` requests the AVX2+FMA microkernels and
// `.rtile(4x8)` sets their register-tile shape. A schedule that names an
// ISA the running host cannot execute still runs — dispatch falls back to
// Scalar and records the `sched.isa_fallback` metric — so schedules tuned
// on one machine remain portable data.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "treu/core/rng.hpp"
#include "treu/tensor/kernels.hpp"

namespace treu::sched {

/// The schedulable kernels are exactly the dispatchable ops: one enum,
/// owned by tensor so sched and the dispatcher cannot disagree.
using KernelKind = tensor::KernelOp;

/// Problem shape. Interpretation by kernel:
///  MatVec: (m x n) * n          Conv1D: input n, taps k
///  Conv2D: (m x n) image, (k x k) kernel
///  MatMul / MatMulTransposed: (m x k) * (k x n)
struct ProblemSize {
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
};

/// Register-tile shape candidate: m rows by n columns of accumulators.
/// {0, 0} means "no register tiling" (the legacy scalar loop nest).
struct RTile {
  std::size_t m = 0;
  std::size_t n = 0;
  friend bool operator==(const RTile &, const RTile &) = default;
};

/// One point in the schedule space.
struct Schedule {
  KernelKind kernel = KernelKind::MatMul;
  tensor::KernelParams params;

  /// TVM-style textual form, e.g.
  /// "matmul: order(ikj).tile(i=64,j=64,k=32).unroll(4).isa(avx2).rtile(4x8).parallel".
  /// isa/rtile render only when set off their defaults, so pre-SIMD
  /// schedule strings are still the canonical form of what they named.
  [[nodiscard]] std::string to_string() const;

  /// Parse the textual form back into a schedule — "schedules as code",
  /// the property the students used to port Ansor schedules into MLIR's
  /// transform dialect. Round-trips with to_string(). Returns nullopt on
  /// malformed input.
  [[nodiscard]] static std::optional<Schedule> parse(std::string_view text);

  /// Legality: unroll in {1,2,4,8}; register-tile rows at most 8;
  /// order/tile_k only meaningful for matmul-family kernels.
  [[nodiscard]] bool valid() const noexcept;

  friend bool operator==(const Schedule &, const Schedule &) = default;
};

/// The discrete candidate sets the tuners search over (what Ansor calls the
/// sketch + annotation space).
struct ScheduleSpace {
  std::vector<std::size_t> tile_candidates = {0, 8, 16, 32, 64, 128, 256};
  std::vector<std::size_t> unroll_candidates = {1, 2, 4, 8};
  std::vector<tensor::LoopOrder> order_candidates = {
      tensor::LoopOrder::IJK, tensor::LoopOrder::IKJ, tensor::LoopOrder::JIK,
      tensor::LoopOrder::JKI, tensor::LoopOrder::KIJ, tensor::LoopOrder::KJI};
  /// Backends to search over; requests for an ISA the host lacks are
  /// normalized to Scalar at evaluation time, never selected as winners.
  std::vector<tensor::Isa> isa_candidates = {tensor::Isa::Scalar,
                                             tensor::Isa::Avx2};
  /// Register-tile shapes (matmul only; {0,0} keeps the legacy nest).
  std::vector<RTile> rtile_candidates = {
      {0, 0}, {2, 8}, {4, 8}, {6, 8}, {4, 16}, {6, 16}};
  bool allow_parallel = true;

  /// Number of distinct schedules for `kind` (used in coverage reporting).
  [[nodiscard]] std::size_t cardinality(KernelKind kind) const noexcept;

  /// Uniform random schedule for `kind`.
  [[nodiscard]] Schedule random_schedule(KernelKind kind, core::Rng &rng) const;

  /// Mutate one knob of `s` (resampling it from the candidate set).
  [[nodiscard]] Schedule mutate(const Schedule &s, core::Rng &rng) const;

  /// Uniform knob-wise crossover.
  [[nodiscard]] Schedule crossover(const Schedule &a, const Schedule &b,
                                   core::Rng &rng) const;

  /// Default naive-equivalent schedule (no tiling, no unroll, serial,
  /// scalar ISA, no register tile).
  [[nodiscard]] static Schedule baseline(KernelKind kind) noexcept;
};

}  // namespace treu::sched
