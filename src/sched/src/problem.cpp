#include "treu/sched/problem.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "treu/core/timer.hpp"

namespace treu::sched {

Problem::Problem(KernelKind kind, ProblemSize size, core::Rng &rng)
    : kind_(kind), size_(size) {
  switch (kind_) {
    case KernelKind::MatVec:
      a_ = tensor::Matrix::random_uniform(size_.m, size_.n, rng, -1.0, 1.0);
      x_.resize(size_.n);
      for (auto &v : x_) v = rng.uniform(-1.0, 1.0);
      break;
    case KernelKind::Conv1D:
      x_.resize(size_.n);
      for (auto &v : x_) v = rng.uniform(-1.0, 1.0);
      w_.resize(size_.k);
      for (auto &v : w_) v = rng.uniform(-1.0, 1.0);
      break;
    case KernelKind::Conv2D:
      a_ = tensor::Matrix::random_uniform(size_.m, size_.n, rng, -1.0, 1.0);
      b_ = tensor::Matrix::random_uniform(size_.k, size_.k, rng, -1.0, 1.0);
      break;
    case KernelKind::MatMul:
      a_ = tensor::Matrix::random_uniform(size_.m, size_.k, rng, -1.0, 1.0);
      b_ = tensor::Matrix::random_uniform(size_.k, size_.n, rng, -1.0, 1.0);
      break;
    case KernelKind::MatMulTransposed:
      a_ = tensor::Matrix::random_uniform(size_.m, size_.k, rng, -1.0, 1.0);
      b_ = tensor::Matrix::random_uniform(size_.n, size_.k, rng, -1.0, 1.0);
      break;
  }
}

double Problem::flops() const noexcept {
  switch (kind_) {
    case KernelKind::MatVec: return tensor::matvec_flops(size_.m, size_.n);
    case KernelKind::Conv1D: return tensor::conv1d_flops(size_.n, size_.k);
    case KernelKind::Conv2D:
      return tensor::conv2d_flops(size_.m, size_.n, size_.k, size_.k);
    case KernelKind::MatMul:
    case KernelKind::MatMulTransposed:
      return tensor::matmul_flops(size_.m, size_.n, size_.k);
  }
  return 0.0;
}

double Problem::bytes() const noexcept {
  switch (kind_) {
    case KernelKind::MatVec: return tensor::matvec_bytes(size_.m, size_.n);
    case KernelKind::Conv1D: return tensor::conv1d_bytes(size_.n, size_.k);
    case KernelKind::Conv2D:
      return tensor::conv2d_bytes(size_.m, size_.n, size_.k, size_.k);
    case KernelKind::MatMul:
    case KernelKind::MatMulTransposed:
      return tensor::matmul_bytes(size_.m, size_.n, size_.k);
  }
  return 0.0;
}

double Problem::intensity() const noexcept {
  const double b = bytes();
  return b > 0.0 ? flops() / b : 0.0;
}

std::vector<double> Problem::execute(const Schedule &schedule,
                                     parallel::ThreadPool &pool) const {
  if (schedule.kernel != kind_) {
    throw std::invalid_argument("Problem::execute: schedule kernel mismatch");
  }
  // The schedule's knobs pick the route inside each Kernel entry point: pure
  // interchange schedules run the naive nest in `order` so loop-order
  // differences stay observable, tiled scalar schedules run the legacy nest
  // bit-for-bit, isa/rtile schedules run the microkernels.
  using tensor::Kernel;
  const tensor::KernelParams &p = schedule.params;
  tensor::Matrix out;
  switch (kind_) {
    case KernelKind::MatVec: return Kernel::matvec(a_, x_, p, pool);
    case KernelKind::Conv1D: return Kernel::conv1d(x_, w_, p, pool);
    case KernelKind::Conv2D: out = Kernel::conv2d(a_, b_, p, pool); break;
    case KernelKind::MatMul: out = Kernel::matmul(a_, b_, p, pool); break;
    case KernelKind::MatMulTransposed:
      out = Kernel::matmul_transposed(a_, b_, p, pool);
      break;
  }
  return {out.flat().begin(), out.flat().end()};
}

const std::vector<double> &Problem::reference() const {
  if (!reference_ready_) {
    // The baseline schedule (IJK, no knobs, Scalar) is the naive nest of
    // each kernel; only matmul reads `order`.
    reference_ =
        execute(ScheduleSpace::baseline(kind_), tensor::Kernel::default_pool());
    reference_ready_ = true;
  }
  return reference_;
}

Measurement Problem::measure(const Schedule &schedule,
                             parallel::ThreadPool &pool,
                             std::size_t repeats) const {
  Measurement m;
  m.seconds = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  for (std::size_t r = 0; r < std::max<std::size_t>(repeats, 1); ++r) {
    core::WallTimer timer;
    out = execute(schedule, pool);
    m.seconds = std::min(m.seconds, timer.elapsed_seconds());
  }
  m.gflops = m.seconds > 0.0 ? flops() / m.seconds / 1e9 : 0.0;
  m.output_digest = core::sha256_doubles(out);

  const auto &ref = reference();
  m.output_matches_reference = out.size() == ref.size();
  if (m.output_matches_reference) {
    // Different summation orders legitimately change low bits; accept a
    // tolerance proportional to the reduction length.
    const double tol = 1e-9 * static_cast<double>(std::max<std::size_t>(size_.k ? size_.k : size_.n, 1));
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (std::fabs(out[i] - ref[i]) > tol * std::max(1.0, std::fabs(ref[i]))) {
        m.output_matches_reference = false;
        break;
      }
    }
  }
  return m;
}

ProblemSize default_size(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::MatVec: return {512, 512, 0};
    case KernelKind::Conv1D: return {0, 1 << 15, 64};
    case KernelKind::Conv2D: return {192, 192, 7};
    case KernelKind::MatMul: return {192, 192, 192};
    case KernelKind::MatMulTransposed: return {192, 192, 192};
  }
  return {};
}

}  // namespace treu::sched
