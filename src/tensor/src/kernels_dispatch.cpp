// The Kernel dispatch surface: ISA resolution, backend selection and the
// five typed entry points.
//
// Routing invariant: a Scalar-ISA request with no register tile runs the
// legacy loop nests (kernels.cpp) and is bitwise-identical to the pre-SIMD
// library — published schedules and golden digests stay valid. Anything
// that names a register tile or a vector ISA runs the microkernel
// templates (kernels_micro.hpp) through the Backend table for the
// effective ISA.

#include <atomic>
#include <stdexcept>

#include "kernels_legacy.hpp"
#include "kernels_micro.hpp"
#include "treu/obs/obs.hpp"
#include "treu/tensor/kernels.hpp"

namespace treu::tensor {
namespace {

std::atomic<std::uint64_t> g_isa_fallbacks{0};

/// No tile, unroll or parallel knob: the request runs the naive legacy
/// nest, which keeps its exact accumulation pattern.
bool pure_default(const KernelParams &p) noexcept {
  return p.tile_i == 0 && p.tile_j == 0 && p.tile_k == 0 && p.unroll <= 1 &&
         !p.parallel;
}

const detail::Backend &backend_for(Isa isa) noexcept {
  if (isa == Isa::Avx2) {
    if (const detail::Backend *b = detail::avx2_backend()) return *b;
  }
  return detail::scalar_backend();
}

void count_fallback(Isa requested, Isa effective) {
  if (requested == Isa::Avx2 && effective == Isa::Scalar) {
    g_isa_fallbacks.fetch_add(1, std::memory_order_relaxed);
    TREU_OBS_COUNTER_ADD("sched.isa_fallback", 1);
  }
}

/// The microkernel backend `params` routes to, or nullptr when it runs the
/// legacy nests (Scalar ISA, no register tile). Counts an ISA fallback.
const detail::Backend *micro_backend(const KernelParams &params) {
  const Isa isa = Kernel::effective(params.isa);
  count_fallback(params.isa, isa);
  if (isa == Isa::Scalar && params.rtile_m == 0 && params.rtile_n == 0) {
    return nullptr;
  }
  return &backend_for(isa);
}

}  // namespace

namespace detail {

const Backend &scalar_backend() noexcept {
  static const Backend kScalar = micro::make_backend<micro::ScalarVec>();
  return kScalar;
}

}  // namespace detail

bool Kernel::available(Isa isa) {
  if (const auto pin = forced_isa()) return isa == *pin;
  if (isa == Isa::Scalar) return true;
  return cpu_supports(Isa::Avx2) && avx2_backend_compiled();
}

Isa Kernel::best() { return available(Isa::Avx2) ? Isa::Avx2 : Isa::Scalar; }

Isa Kernel::effective(Isa requested) {
  if (const auto pin = forced_isa()) return *pin;
  if (requested == Isa::Avx2 &&
      !(cpu_supports(Isa::Avx2) && avx2_backend_compiled())) {
    return Isa::Scalar;
  }
  return requested;
}

KernelParams Kernel::fast_params() {
  KernelParams p;
  p.isa = best();
  // 6x16 measured fastest across sizes on AVX2 (the wide tile amortizes B
  // loads even though 24 accumulators spill); matmul results are bitwise
  // invariant to the register-tile shape, so this is a pure speed knob.
  p.rtile_m = 6;
  p.rtile_n = 16;
  return p;
}

parallel::ThreadPool &Kernel::default_pool() {
  static parallel::ThreadPool pool{std::size_t{0}};
  return pool;
}

std::uint64_t Kernel::isa_fallbacks() noexcept {
  return g_isa_fallbacks.load(std::memory_order_relaxed);
}

std::vector<double> Kernel::matvec(const Matrix &a, std::span<const double> x,
                                   const KernelParams &params,
                                   parallel::ThreadPool &pool) {
  const detail::Backend *micro = micro_backend(params);
  if (a.cols() != x.size()) {
    throw std::invalid_argument("matvec: dimension mismatch");
  }
  if (micro != nullptr) return micro->matvec(a, x, params, pool);
  if (pure_default(params)) return detail::legacy_matvec(a, x);
  return detail::legacy_matvec_opt(a, x, params, pool);
}

Matrix Kernel::matmul(const Matrix &a, const Matrix &b,
                      const KernelParams &params, parallel::ThreadPool &pool) {
  const detail::Backend *micro = micro_backend(params);
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimensions differ");
  }
  if (micro != nullptr) return micro->matmul(a, b, params, pool);
  if (pure_default(params)) {
    return detail::legacy_matmul_ordered(a, b, params.order);
  }
  return detail::legacy_matmul_opt(a, b, params, pool);
}

Matrix Kernel::matmul_transposed(const Matrix &a, const Matrix &b,
                                 const KernelParams &params,
                                 parallel::ThreadPool &pool) {
  const detail::Backend *micro = micro_backend(params);
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transposed: inner dimensions differ");
  }
  if (micro != nullptr) return micro->matmul_transposed(a, b, params, pool);
  if (pure_default(params)) return detail::legacy_matmul_transposed(a, b);
  return detail::legacy_matmul_transposed_opt(a, b, params, pool);
}

std::vector<double> Kernel::conv1d(std::span<const double> input,
                                   std::span<const double> weights,
                                   const KernelParams &params,
                                   parallel::ThreadPool &pool) {
  const detail::Backend *micro = micro_backend(params);
  if (weights.empty() || input.size() < weights.size()) return {};
  if (micro != nullptr) return micro->conv1d(input, weights, params, pool);
  if (pure_default(params)) return detail::legacy_conv1d(input, weights);
  return detail::legacy_conv1d_opt(input, weights, params, pool);
}

Matrix Kernel::conv2d(const Matrix &input, const Matrix &kernel,
                      const KernelParams &params, parallel::ThreadPool &pool) {
  const detail::Backend *micro = micro_backend(params);
  if (kernel.rows() == 0 || kernel.cols() == 0 ||
      input.rows() < kernel.rows() || input.cols() < kernel.cols()) {
    return Matrix{};
  }
  if (micro != nullptr) return micro->conv2d(input, kernel, params, pool);
  if (pure_default(params)) return detail::legacy_conv2d(input, kernel);
  return detail::legacy_conv2d_opt(input, kernel, params, pool);
}

}  // namespace treu::tensor
