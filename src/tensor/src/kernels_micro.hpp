#pragma once

// Register-tiled microkernel templates shared by every vector backend.
//
// Each backend is one `V` policy type (ScalarVec below; Avx2Vec in
// kernels_simd.cpp) describing a register of V::kWidth doubles and the six
// primitive ops the kernels need. The five kernel bodies are templates over
// V, so the portable build and the AVX2 build are literally the same code —
// a backend cannot drift semantically from the fallback because there is
// nothing to drift.
//
// Determinism rules the templates obey (kernels_test relies on them):
//  - Every output element accumulates its k (or tap) contributions in
//    ascending index order via fused multiply-add, regardless of the
//    register-tile shape, the row batch the element sits in, or the
//    parallel partition. A row computed alone is bitwise-identical to the
//    same row inside a batch (serve's batched-vs-per-sample guarantee).
//  - Whether an output column is handled by vector lanes or the scalar
//    remainder loop depends only on the column index and the extent, never
//    on block or chunk boundaries: parallel chunking cannot change results.
//  - ScalarVec::fma is std::fma (single rounding), so scalar and vector
//    lanes round identically: for matmul, matmul_transposed and conv the
//    scalar and AVX2 backends agree bitwise, not just within ULP bounds.
//  - matmul_transposed packs B^T once and runs the matmul body, so it
//    inherits every one of the guarantees above.
//
// matvec alone is dot-style: it splits the reduction across `unroll` lane
// accumulators and horizontal-sums at the end, which changes the summation
// tree vs the naive reference — the one ULP-bounded (not bitwise) parity
// case.
//
// This header is internal to src/tensor; only the Backend tables built in
// kernels_dispatch.cpp / kernels_simd.cpp escape it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "treu/parallel/thread_pool.hpp"
#include "treu/tensor/kernels.hpp"

namespace treu::tensor::micro {

/// Portable one-double "vector": the scalar backend's policy type.
struct ScalarVec {
  using Reg = double;
  static constexpr std::size_t kWidth = 1;
  static Reg zero() noexcept { return 0.0; }
  static Reg load(const double *p) noexcept { return *p; }
  static Reg broadcast(double v) noexcept { return v; }
  static Reg fma(Reg a, Reg b, Reg c) noexcept { return std::fma(a, b, c); }
  static void store(double *p, Reg v) noexcept { *p = v; }
  static double hsum(Reg v) noexcept { return v; }
};

// --- knob clamps ------------------------------------------------------------

/// Register-tile rows: 0 means backend default (4), otherwise clamp to the
/// instantiated range.
inline std::size_t clamp_rtile_m(std::size_t rtile_m) noexcept {
  if (rtile_m == 0) return 4;
  return std::min<std::size_t>(rtile_m, 8);
}

/// Vectors per register-tile row, derived from the requested tile width in
/// columns. 0 means backend default (2 vectors).
template <class V>
std::size_t clamp_rtile_nv(std::size_t rtile_n) noexcept {
  const std::size_t nv = rtile_n / V::kWidth;
  if (rtile_n == 0) return 2;
  if (nv >= 8) return 8;
  if (nv >= 4) return 4;
  if (nv >= 2) return 2;
  return 1;
}

/// Lane-accumulator count for the dot-style matvec, from the unroll knob.
inline std::size_t clamp_acc(std::size_t unroll) noexcept {
  if (unroll >= 8) return 8;
  if (unroll >= 4) return 4;
  if (unroll >= 2) return 2;
  return 1;
}

// --- matmul microkernel -----------------------------------------------------

/// C[0..MR)x[0..NV*W) += A[0..MR)x[k0..k1) * B[k0..k1)x[0..NV*W).
/// `a` points at the tile's first row of A (stride lda), `b` at column 0 of
/// the tile's B panel (stride ldb; rows indexed by absolute k), `c` at the
/// tile's top-left output element (stride ldc). All loads/stores unaligned.
template <class V, int MR, int NV>
void matmul_micro(const double *a, std::size_t lda, const double *b,
                  std::size_t ldb, double *c, std::size_t ldc, std::size_t k0,
                  std::size_t k1, bool skip_zero_a) noexcept {
  using Reg = typename V::Reg;
  constexpr std::size_t W = V::kWidth;
  Reg acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = V::load(c + static_cast<std::size_t>(r) * ldc + v * W);
  for (std::size_t k = k0; k < k1; ++k) {
    Reg bv[NV];
    const double *brow = b + k * ldb;
    for (int v = 0; v < NV; ++v) bv[v] = V::load(brow + v * W);
    for (int r = 0; r < MR; ++r) {
      const double av = a[static_cast<std::size_t>(r) * lda + k];
      if (skip_zero_a && av == 0.0) continue;
      const Reg ar = V::broadcast(av);
      for (int v = 0; v < NV; ++v) acc[r][v] = V::fma(ar, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      V::store(c + static_cast<std::size_t>(r) * ldc + v * W, acc[r][v]);
}

using MicroFn = void (*)(const double *, std::size_t, const double *,
                         std::size_t, double *, std::size_t, std::size_t,
                         std::size_t, bool);

template <class V, int NV>
MicroFn micro_rows(std::size_t mr) noexcept {
  switch (mr) {
    case 1: return &matmul_micro<V, 1, NV>;
    case 2: return &matmul_micro<V, 2, NV>;
    case 3: return &matmul_micro<V, 3, NV>;
    case 4: return &matmul_micro<V, 4, NV>;
    case 5: return &matmul_micro<V, 5, NV>;
    case 6: return &matmul_micro<V, 6, NV>;
    case 7: return &matmul_micro<V, 7, NV>;
    default: return &matmul_micro<V, 8, NV>;
  }
}

/// Runtime (rows, vectors) -> instantiated microkernel.
template <class V>
MicroFn micro_fn(std::size_t mr, std::size_t nv) noexcept {
  switch (nv) {
    case 8: return micro_rows<V, 8>(mr);
    case 4: return micro_rows<V, 4>(mr);
    case 2: return micro_rows<V, 2>(mr);
    default: return micro_rows<V, 1>(mr);
  }
}

// --- dot product with lane accumulators -------------------------------------

/// sum_i x[i]*y[i] with NACC vector accumulators. Reduction order is fully
/// determined by (n, W, NACC): lane tree first, then the scalar tail.
template <class V, int NACC>
double dot_vec(const double *x, const double *y, std::size_t n) noexcept {
  using Reg = typename V::Reg;
  constexpr std::size_t W = V::kWidth;
  Reg acc[NACC];
  for (int v = 0; v < NACC; ++v) acc[v] = V::zero();
  std::size_t i = 0;
  for (; i + W * NACC <= n; i += W * NACC)
    for (int v = 0; v < NACC; ++v)
      acc[v] = V::fma(V::load(x + i + v * W), V::load(y + i + v * W), acc[v]);
  for (; i + W <= n; i += W)
    acc[0] = V::fma(V::load(x + i), V::load(y + i), acc[0]);
  double s = 0.0;
  for (int v = 0; v < NACC; ++v) s += V::hsum(acc[v]);
  for (; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

template <class V>
double dot_acc(const double *x, const double *y, std::size_t n,
               std::size_t nacc) noexcept {
  switch (nacc) {
    case 8: return dot_vec<V, 8>(x, y, n);
    case 4: return dot_vec<V, 4>(x, y, n);
    case 2: return dot_vec<V, 2>(x, y, n);
    default: return dot_vec<V, 1>(x, y, n);
  }
}

// --- shared block helpers ---------------------------------------------------

inline std::size_t tile_or(std::size_t tile, std::size_t extent) noexcept {
  return tile == 0 ? extent : std::min(tile, extent);
}

/// Round `tile` up to a multiple of `quantum` (tile==0 keeps "whole extent").
inline std::size_t round_tile_up(std::size_t tile,
                                 std::size_t quantum) noexcept {
  if (tile == 0) return 0;
  return ((tile + quantum - 1) / quantum) * quantum;
}

/// Run `body(i0, i1)` over [0, extent) in blocks of `tile` (0 = one block),
/// on the pool when `parallel`. Blocks are row ranges; every kernel here is
/// row-independent so the partition never affects results.
template <class Body>
void for_row_blocks(std::size_t extent, std::size_t tile, bool parallel,
                    parallel::ThreadPool &pool, const Body &body) {
  const std::size_t ti = tile_or(tile, extent == 0 ? 1 : extent);
  const std::size_t blocks = extent == 0 ? 0 : (extent + ti - 1) / ti;
  const auto block_body = [&](std::size_t blk) {
    const std::size_t i0 = blk * ti;
    body(i0, std::min(i0 + ti, extent));
  };
  if (parallel) {
    pool.parallel_for(0, blocks, block_body, 1);
  } else {
    for (std::size_t blk = 0; blk < blocks; ++blk) block_body(blk);
  }
}

// --- kernel bodies ----------------------------------------------------------

/// C = A(m x k) * B(k x n). Cache blocking from tile_i/j/k, register tiling
/// from rtile_m/rtile_n, optional zero-skip on A. The `unroll` and `order`
/// knobs are legacy-path-only and ignored here.
template <class V>
Matrix matmul_tmpl(const Matrix &a, const Matrix &b, const KernelParams &p,
                   parallel::ThreadPool &pool) {
  constexpr std::size_t W = V::kWidth;
  const std::size_t m = a.rows(), n = b.cols(), kk = a.cols();
  Matrix c(m, n, 0.0);
  if (m == 0 || n == 0 || kk == 0) return c;

  const std::size_t mr = clamp_rtile_m(p.rtile_m);
  const std::size_t nv = clamp_rtile_nv<V>(p.rtile_n);
  const std::size_t colw = nv * W;
  const std::size_t n_vec = n - n % W;  // lane/tail split: depends on n only
  const std::size_t tk = tile_or(p.tile_k, kk);
  const std::size_t tj = tile_or(round_tile_up(p.tile_j, colw), n_vec);
  const MicroFn full = micro_fn<V>(mr, nv);
  const MicroFn full1 = micro_fn<V>(mr, 1);

  const auto body = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t k0 = 0; k0 < kk; k0 += tk) {
      const std::size_t k1 = std::min(k0 + tk, kk);
      for (std::size_t j0 = 0; j0 < n_vec; j0 += tj) {
        const std::size_t j1 = std::min(j0 + tj, n_vec);
        for (std::size_t i = i0; i < i1; i += mr) {
          const std::size_t rows = std::min(mr, i1 - i);
          const double *arow = a.data() + i * kk;
          double *crow = c.data() + i * n;
          const MicroFn fn = rows == mr ? full : micro_fn<V>(rows, nv);
          const MicroFn fn1 = rows == mr ? full1 : micro_fn<V>(rows, 1);
          std::size_t j = j0;
          for (; j + colw <= j1; j += colw)
            fn(arow, kk, b.data() + j, n, crow + j, n, k0, k1, p.skip_zero_a);
          for (; j + W <= j1; j += W)
            fn1(arow, kk, b.data() + j, n, crow + j, n, k0, k1, p.skip_zero_a);
        }
      }
      for (std::size_t i = i0; i < i1 && n_vec < n; ++i) {
        for (std::size_t j = n_vec; j < n; ++j) {
          double s = c(i, j);
          for (std::size_t k = k0; k < k1; ++k) {
            const double av = a(i, k);
            if (p.skip_zero_a && av == 0.0) continue;
            s = std::fma(av, b(k, j), s);
          }
          c(i, j) = s;
        }
      }
    }
  };
  for_row_blocks(m, p.tile_i, p.parallel, pool, body);
  return c;
}

/// C = A(m x k) * B(n x k)^T. B is transposed into a (k x n) panel once and
/// the product runs on matmul_tmpl: O(nk) packing buys the register-tiled
/// ascending-k FMA path, so the result is bitwise the same as
/// matmul(a, b.transposed()) under every ISA, tile and partition.
template <class V>
Matrix matmul_t_tmpl(const Matrix &a, const Matrix &b, const KernelParams &p,
                     parallel::ThreadPool &pool) {
  return matmul_tmpl<V>(a, b.transposed(), p, pool);
}

/// y = A(m x n) * x.
template <class V>
std::vector<double> matvec_tmpl(const Matrix &a, std::span<const double> x,
                                const KernelParams &p,
                                parallel::ThreadPool &pool) {
  const std::size_t m = a.rows(), n = a.cols();
  std::vector<double> y(m, 0.0);
  const std::size_t nacc = clamp_acc(p.unroll);
  const auto body = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      y[i] = dot_acc<V>(a.row(i).data(), x.data(), n, nacc);
  };
  for_row_blocks(m, p.tile_i, p.parallel, pool, body);
  return y;
}

/// Valid-mode 1D convolution, vectorized over output positions: each tap is
/// broadcast and FMA'd against a sliding window of the input. Per element
/// the taps accumulate in ascending order, matching the naive loop.
template <class V>
std::vector<double> conv1d_tmpl(std::span<const double> input,
                                std::span<const double> weights,
                                const KernelParams &p,
                                parallel::ThreadPool &pool) {
  constexpr std::size_t W = V::kWidth;
  using Reg = typename V::Reg;
  const std::size_t kn = weights.size();
  const std::size_t out_n = input.size() - kn + 1;
  std::vector<double> out(out_n, 0.0);
  const std::size_t n_vec = out_n - out_n % W;
  // W-aligned chunk boundaries keep the lane/tail split a function of out_n.
  const std::size_t ti = tile_or(round_tile_up(p.tile_i, W), out_n);
  const auto body = [&](std::size_t i0, std::size_t i1) {
    std::size_t i = i0;
    const std::size_t vec_hi = std::min(i1, n_vec);
    for (; i + W <= vec_hi; i += W) {
      Reg acc = V::zero();
      for (std::size_t k = 0; k < kn; ++k)
        acc = V::fma(V::broadcast(weights[k]), V::load(input.data() + i + k),
                     acc);
      V::store(out.data() + i, acc);
    }
    for (; i < i1; ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k < kn; ++k)
        s = std::fma(input[i + k], weights[k], s);
      out[i] = s;
    }
  };
  for_row_blocks(out_n, ti, p.parallel, pool, body);
  return out;
}

/// Valid-mode 2D convolution, vectorized over output columns; rows are
/// independent so the parallel partition is over output rows.
template <class V>
Matrix conv2d_tmpl(const Matrix &input, const Matrix &kernel,
                   const KernelParams &p, parallel::ThreadPool &pool) {
  constexpr std::size_t W = V::kWidth;
  using Reg = typename V::Reg;
  const std::size_t kh = kernel.rows(), kw = kernel.cols();
  const std::size_t oh = input.rows() - kh + 1;
  const std::size_t ow = input.cols() - kw + 1;
  Matrix out(oh, ow, 0.0);
  const std::size_t w_vec = ow - ow % W;
  const std::size_t tj = tile_or(round_tile_up(p.tile_j, W), ow);
  const auto body = [&](std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      double *orow = out.row(y).data();
      for (std::size_t x0 = 0; x0 < ow; x0 += tj) {
        const std::size_t x1 = std::min(x0 + tj, ow);
        std::size_t x = x0;
        const std::size_t vhi = std::min(x1, w_vec);
        for (; x + W <= vhi; x += W) {
          Reg acc = V::zero();
          for (std::size_t ky = 0; ky < kh; ++ky) {
            const double *irow = input.row(y + ky).data() + x;
            const double *krow = kernel.row(ky).data();
            for (std::size_t kx = 0; kx < kw; ++kx)
              acc = V::fma(V::broadcast(krow[kx]), V::load(irow + kx), acc);
          }
          V::store(orow + x, acc);
        }
        for (; x < x1; ++x) {
          double s = 0.0;
          for (std::size_t ky = 0; ky < kh; ++ky) {
            const double *irow = input.row(y + ky).data() + x;
            const double *krow = kernel.row(ky).data();
            for (std::size_t kx = 0; kx < kw; ++kx)
              s = std::fma(irow[kx], krow[kx], s);
          }
          orow[x] = s;
        }
      }
    }
  };
  for_row_blocks(oh, p.tile_i, p.parallel, pool, body);
  return out;
}

/// The Backend table for one policy type.
template <class V>
detail::Backend make_backend() noexcept {
  return detail::Backend{&matmul_tmpl<V>, &matmul_t_tmpl<V>, &matvec_tmpl<V>,
                         &conv1d_tmpl<V>, &conv2d_tmpl<V>};
}

}  // namespace treu::tensor::micro
