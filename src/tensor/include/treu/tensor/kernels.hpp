#pragma once

// The five kernels from the compiler-optimization project (§2.5) — matrix-
// vector multiply, 1D convolution, 2D convolution, matrix-matrix multiply,
// and transposed matrix-matrix multiply — behind one dispatch surface.
//
// The five typed `Kernel::` entry points are the only way in: each
// resolves the requested instruction set (`KernelParams::isa`) against what
// the host CPU, the build, and the TREU_FORCE_ISA pin allow, then executes
// either the legacy scalar loop nests (whose knobs — loop order, tile
// sizes, unroll factor, parallelization — are exactly the scheduling-
// language primitives exposed by treu::sched) or the register-tiled
// microkernel backends: a portable scalar instantiation and an AVX2+FMA
// instantiation compiled from the same template. This mirrors the TVM/MLIR
// structure the students worked with — the *schedule* (now including vector
// ISA and register-tile shape) is data, the kernel semantics never change.
//
// Parity contract: every backend computes the same function as the naive
// reference up to summation-order effects (FMA contraction, matvec's
// lane-split reduction), which kernels_test bounds in ULPs. On the
// microkernel path matmul, matmul_transposed, conv1d and conv2d are
// moreover bitwise invariant across ISA, register tile and thread
// partition (see kernels_micro.hpp). When the requested ISA is
// unavailable, dispatch falls back to Scalar and records it (the
// `sched.isa_fallback` metric and Kernel::isa_fallbacks()) instead of
// throwing — a schedule tuned on another host must still run here.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "treu/parallel/thread_pool.hpp"
#include "treu/tensor/cpu_features.hpp"
#include "treu/tensor/matrix.hpp"

namespace treu::tensor {

/// Loop order for the matmul triple loop (honored by the scalar
/// interchange/tiled paths; the register-tiled backends fix their own
/// micro-order).
enum class LoopOrder { IJK, IKJ, JIK, JKI, KIJ, KJI };

[[nodiscard]] const char *to_string(LoopOrder order) noexcept;

/// The five dispatchable kernels.
enum class KernelOp { MatVec, Conv1D, Conv2D, MatMul, MatMulTransposed };

[[nodiscard]] const char *to_string(KernelOp op) noexcept;

/// Knobs shared by every kernel backend. A default-constructed value
/// reproduces the pre-SIMD blocked scalar implementation bit-for-bit; tile
/// values of 0 mean "no tiling in that dimension", rtile values of 0 mean
/// "backend default register tile".
struct KernelParams {
  LoopOrder order = LoopOrder::IKJ;
  std::size_t tile_i = 0;
  std::size_t tile_j = 0;
  std::size_t tile_k = 0;
  std::size_t unroll = 1;   // inner-loop unroll factor: 1, 2, 4 or 8
  bool parallel = false;    // parallelize the outermost loop on the pool
  Isa isa = Isa::Scalar;    // which compiled backend to dispatch to
  std::size_t rtile_m = 0;  // register-tile rows (matmul microkernel)
  std::size_t rtile_n = 0;  // register-tile cols, multiple of the vector width
  // Skip the rank-1 update when a(i,k) == 0 (matmul only). Post-ReLU
  // activations and n-gram presence features are mostly zeros; skipping
  // them never changes a finite result because each skipped contribution
  // is exactly +-0.0.
  bool skip_zero_a = false;

  friend bool operator==(const KernelParams &, const KernelParams &) = default;
};

/// The one dispatch surface over the kernel zoo.
class Kernel {
 public:
  // The five entry points route alike on params.isa (clamped to
  // availability, see effective()):
  //   vector ISA or register tile set      -> microkernel backend
  //   else no tile, unroll or parallel     -> naive legacy nest (matmul
  //                                           honors `order`; the others
  //                                           have one loop order)
  //   else                                 -> tiled legacy nest
  // Shape errors throw std::invalid_argument; conv1d/conv2d return an
  // empty result when the kernel is empty or larger than the input.
  [[nodiscard]] static std::vector<double> matvec(const Matrix &a,
                                                  std::span<const double> x,
                                                  const KernelParams &params,
                                                  parallel::ThreadPool &pool);
  [[nodiscard]] static Matrix matmul(const Matrix &a, const Matrix &b,
                                     const KernelParams &params,
                                     parallel::ThreadPool &pool);
  [[nodiscard]] static Matrix matmul_transposed(const Matrix &a,
                                                const Matrix &b,
                                                const KernelParams &params,
                                                parallel::ThreadPool &pool);
  [[nodiscard]] static std::vector<double> conv1d(std::span<const double> input,
                                                  std::span<const double> weights,
                                                  const KernelParams &params,
                                                  parallel::ThreadPool &pool);
  [[nodiscard]] static Matrix conv2d(const Matrix &input, const Matrix &kernel,
                                     const KernelParams &params,
                                     parallel::ThreadPool &pool);

  /// True when `isa` can be dispatched right now: CPU + build support it and
  /// TREU_FORCE_ISA does not pin it away. Scalar is always available unless
  /// TREU_FORCE_ISA itself is invalid (which throws).
  [[nodiscard]] static bool available(Isa isa);

  /// Fastest available ISA.
  [[nodiscard]] static Isa best();

  /// The ISA `requested` actually dispatches to (Scalar when the request is
  /// unavailable). Pure availability clamp — does not count a fallback.
  [[nodiscard]] static Isa effective(Isa requested);

  /// "Make it fast, keep the semantics": best() ISA with the default
  /// register tile. What the nn forward and backward passes use, so every
  /// trained and served model rides the fastest compiled backend for free.
  [[nodiscard]] static KernelParams fast_params();

  /// Lazily-constructed serial pool for callers without one of their own
  /// (nn, graph, sched, pca and the shape atlas). Never spun up unless a
  /// parallel schedule actually needs it.
  [[nodiscard]] static parallel::ThreadPool &default_pool();

  /// Process-wide count of dispatches whose requested ISA was unavailable
  /// (mirrors the sched.isa_fallback metric for obs-off builds).
  [[nodiscard]] static std::uint64_t isa_fallbacks() noexcept;
};

/// Flatten the width-row windows of a row-major (seq x d) matrix:
/// row t of the result is rows [first+t, first+t+width) of `x` laid end to
/// end, for t in [0, count). Pure data movement — the conv lowering shared
/// by nn::Conv1dSeq and the graph's Im2Row turns a valid-mode sequence
/// convolution into one (count x width*d) @ (width*d x filters) matmul.
/// Throws std::invalid_argument when a window runs past the end of `x`.
[[nodiscard]] Matrix im2row(const Matrix &x, std::size_t width,
                            std::size_t first, std::size_t count);

/// Every window: im2row(x, width, 0, x.rows() - width + 1).
[[nodiscard]] Matrix im2row(const Matrix &x, std::size_t width);

/// FLOP counts for the roofline model (multiply-add counted as 2 flops).
[[nodiscard]] double matvec_flops(std::size_t m, std::size_t n) noexcept;
[[nodiscard]] double matmul_flops(std::size_t m, std::size_t n,
                                  std::size_t k) noexcept;
[[nodiscard]] double conv1d_flops(std::size_t n, std::size_t k) noexcept;
[[nodiscard]] double conv2d_flops(std::size_t h, std::size_t w, std::size_t kh,
                                  std::size_t kw) noexcept;

/// Minimum bytes moved (compulsory traffic): inputs read once + output
/// written once. Used for arithmetic-intensity estimates.
[[nodiscard]] double matvec_bytes(std::size_t m, std::size_t n) noexcept;
[[nodiscard]] double matmul_bytes(std::size_t m, std::size_t n,
                                  std::size_t k) noexcept;
[[nodiscard]] double conv1d_bytes(std::size_t n, std::size_t k) noexcept;
[[nodiscard]] double conv2d_bytes(std::size_t h, std::size_t w, std::size_t kh,
                                  std::size_t kw) noexcept;

namespace detail {

/// One compiled backend: the five ops instantiated from the shared
/// microkernel template (kernels_micro.hpp) for a concrete vector ISA.
struct Backend {
  Matrix (*matmul)(const Matrix &, const Matrix &, const KernelParams &,
                   parallel::ThreadPool &);
  Matrix (*matmul_transposed)(const Matrix &, const Matrix &,
                              const KernelParams &, parallel::ThreadPool &);
  std::vector<double> (*matvec)(const Matrix &, std::span<const double>,
                                const KernelParams &, parallel::ThreadPool &);
  std::vector<double> (*conv1d)(std::span<const double>,
                                std::span<const double>, const KernelParams &,
                                parallel::ThreadPool &);
  Matrix (*conv2d)(const Matrix &, const Matrix &, const KernelParams &,
                   parallel::ThreadPool &);
};

/// Portable scalar instantiation (always present).
[[nodiscard]] const Backend &scalar_backend() noexcept;

/// AVX2+FMA instantiation; nullptr when not compiled into this binary.
[[nodiscard]] const Backend *avx2_backend() noexcept;

}  // namespace detail

}  // namespace treu::tensor
