// Legacy scalar kernel bodies (see kernels_legacy.hpp for why they are kept
// verbatim) plus the kernel-agnostic pieces: im2row and the flop/byte-count
// helpers. The public free functions and the Kernel dispatch surface live
// in kernels_dispatch.cpp.

#include <algorithm>
#include <stdexcept>

#include "kernels_legacy.hpp"
#include "treu/tensor/kernels.hpp"

namespace treu::tensor {
namespace {

void check_matmul_shapes(const Matrix &a, const Matrix &b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimensions differ");
  }
}

std::size_t tile_or(std::size_t tile, std::size_t extent) noexcept {
  return tile == 0 ? extent : std::min(tile, extent);
}

// Unrolled compensated-free dot product over [0, n).
inline double dot_unrolled(const double *x, const double *y, std::size_t n,
                           std::size_t unroll) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  switch (unroll) {
    case 8:
    case 4:
      for (; i + 4 <= n; i += 4) {
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
      }
      break;
    case 2:
      for (; i + 2 <= n; i += 2) {
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
      }
      break;
    default:
      break;
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

// One (it, jt, kt) tile of C += A B with an ikj micro-loop.
inline void matmul_tile(const Matrix &a, const Matrix &b, Matrix &c,
                        std::size_t i0, std::size_t i1, std::size_t j0,
                        std::size_t j1, std::size_t k0, std::size_t k1,
                        std::size_t unroll) noexcept {
  for (std::size_t i = i0; i < i1; ++i) {
    double *crow = c.row(i).data();
    for (std::size_t k = k0; k < k1; ++k) {
      const double aik = a(i, k);
      const double *brow = b.row(k).data();
      std::size_t j = j0;
      if (unroll >= 4) {
        for (; j + 4 <= j1; j += 4) {
          crow[j] += aik * brow[j];
          crow[j + 1] += aik * brow[j + 1];
          crow[j + 2] += aik * brow[j + 2];
          crow[j + 3] += aik * brow[j + 3];
        }
      } else if (unroll == 2) {
        for (; j + 2 <= j1; j += 2) {
          crow[j] += aik * brow[j];
          crow[j + 1] += aik * brow[j + 1];
        }
      }
      for (; j < j1; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace

const char *to_string(LoopOrder order) noexcept {
  switch (order) {
    case LoopOrder::IJK: return "ijk";
    case LoopOrder::IKJ: return "ikj";
    case LoopOrder::JIK: return "jik";
    case LoopOrder::JKI: return "jki";
    case LoopOrder::KIJ: return "kij";
    case LoopOrder::KJI: return "kji";
  }
  return "?";
}

const char *to_string(KernelOp op) noexcept {
  switch (op) {
    case KernelOp::MatVec: return "matvec";
    case KernelOp::Conv1D: return "conv1d";
    case KernelOp::Conv2D: return "conv2d";
    case KernelOp::MatMul: return "matmul";
    case KernelOp::MatMulTransposed: return "matmul_transposed";
  }
  return "?";
}

namespace detail {

std::vector<double> legacy_matvec(const Matrix &a, std::span<const double> x) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("matvec: dimension mismatch");
  }
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    const auto row = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

std::vector<double> legacy_matvec_opt(const Matrix &a,
                                      std::span<const double> x,
                                      const KernelParams &params,
                                      parallel::ThreadPool &pool) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("matvec_opt: dimension mismatch");
  }
  std::vector<double> y(a.rows(), 0.0);
  const std::size_t ti = tile_or(params.tile_i, a.rows());
  const auto body = [&](std::size_t block) {
    const std::size_t i0 = block * ti;
    const std::size_t i1 = std::min(i0 + ti, a.rows());
    for (std::size_t i = i0; i < i1; ++i) {
      y[i] = dot_unrolled(a.row(i).data(), x.data(), a.cols(), params.unroll);
    }
  };
  const std::size_t blocks = (a.rows() + ti - 1) / ti;
  if (params.parallel) {
    pool.parallel_for(0, blocks, body, 1);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) body(b);
  }
  return y;
}

Matrix legacy_matmul_ordered(const Matrix &a, const Matrix &b,
                             LoopOrder order) {
  check_matmul_shapes(a, b);
  const std::size_t m = a.rows(), n = b.cols(), kk = a.cols();
  Matrix c(m, n, 0.0);
  // Each ordering is written out explicitly so the loop structure (and its
  // access pattern) is exactly what the schedule says — no hidden
  // normalization.
  switch (order) {
    case LoopOrder::IJK:
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          double s = 0.0;
          for (std::size_t k = 0; k < kk; ++k) s += a(i, k) * b(k, j);
          c(i, j) = s;
        }
      break;
    case LoopOrder::IKJ:
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t k = 0; k < kk; ++k) {
          const double aik = a(i, k);
          for (std::size_t j = 0; j < n; ++j) c(i, j) += aik * b(k, j);
        }
      break;
    case LoopOrder::JIK:
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < m; ++i) {
          double s = 0.0;
          for (std::size_t k = 0; k < kk; ++k) s += a(i, k) * b(k, j);
          c(i, j) = s;
        }
      break;
    case LoopOrder::JKI:
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t k = 0; k < kk; ++k) {
          const double bkj = b(k, j);
          for (std::size_t i = 0; i < m; ++i) c(i, j) += a(i, k) * bkj;
        }
      break;
    case LoopOrder::KIJ:
      for (std::size_t k = 0; k < kk; ++k)
        for (std::size_t i = 0; i < m; ++i) {
          const double aik = a(i, k);
          for (std::size_t j = 0; j < n; ++j) c(i, j) += aik * b(k, j);
        }
      break;
    case LoopOrder::KJI:
      for (std::size_t k = 0; k < kk; ++k)
        for (std::size_t j = 0; j < n; ++j) {
          const double bkj = b(k, j);
          for (std::size_t i = 0; i < m; ++i) c(i, j) += a(i, k) * bkj;
        }
      break;
  }
  return c;
}

Matrix legacy_matmul_opt(const Matrix &a, const Matrix &b,
                         const KernelParams &params,
                         parallel::ThreadPool &pool) {
  check_matmul_shapes(a, b);
  const std::size_t m = a.rows(), n = b.cols(), kk = a.cols();
  Matrix c(m, n, 0.0);
  const std::size_t ti = tile_or(params.tile_i, m);
  const std::size_t tj = tile_or(params.tile_j, n);
  const std::size_t tk = tile_or(params.tile_k, kk);
  const std::size_t iblocks = (m + ti - 1) / ti;

  const auto body = [&](std::size_t ib) {
    const std::size_t i0 = ib * ti;
    const std::size_t i1 = std::min(i0 + ti, m);
    for (std::size_t k0 = 0; k0 < kk; k0 += tk) {
      const std::size_t k1 = std::min(k0 + tk, kk);
      for (std::size_t j0 = 0; j0 < n; j0 += tj) {
        const std::size_t j1 = std::min(j0 + tj, n);
        matmul_tile(a, b, c, i0, i1, j0, j1, k0, k1, params.unroll);
      }
    }
  };
  if (params.parallel) {
    pool.parallel_for(0, iblocks, body, 1);
  } else {
    for (std::size_t ib = 0; ib < iblocks; ++ib) body(ib);
  }
  return c;
}

Matrix legacy_matmul_transposed(const Matrix &a, const Matrix &b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transposed: inner dimensions differ");
  }
  const std::size_t m = a.rows(), n = b.rows(), kk = a.cols();
  Matrix c(m, n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < kk; ++k) s += a(i, k) * b(j, k);
      c(i, j) = s;
    }
  }
  return c;
}

Matrix legacy_matmul_transposed_opt(const Matrix &a, const Matrix &b,
                                    const KernelParams &params,
                                    parallel::ThreadPool &pool) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transposed_opt: inner dimensions differ");
  }
  const std::size_t m = a.rows(), n = b.rows(), kk = a.cols();
  Matrix c(m, n, 0.0);
  const std::size_t ti = tile_or(params.tile_i, m);
  const std::size_t tj = tile_or(params.tile_j, n);
  const std::size_t iblocks = (m + ti - 1) / ti;
  const auto body = [&](std::size_t ib) {
    const std::size_t i0 = ib * ti;
    const std::size_t i1 = std::min(i0 + ti, m);
    for (std::size_t j0 = 0; j0 < n; j0 += tj) {
      const std::size_t j1 = std::min(j0 + tj, n);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) {
          c(i, j) =
              dot_unrolled(a.row(i).data(), b.row(j).data(), kk, params.unroll);
        }
      }
    }
  };
  if (params.parallel) {
    pool.parallel_for(0, iblocks, body, 1);
  } else {
    for (std::size_t ib = 0; ib < iblocks; ++ib) body(ib);
  }
  return c;
}

std::vector<double> legacy_conv1d(std::span<const double> input,
                                  std::span<const double> weights) {
  if (weights.empty() || input.size() < weights.size()) return {};
  const std::size_t out_n = input.size() - weights.size() + 1;
  std::vector<double> out(out_n, 0.0);
  for (std::size_t i = 0; i < out_n; ++i) {
    double s = 0.0;
    for (std::size_t k = 0; k < weights.size(); ++k) s += input[i + k] * weights[k];
    out[i] = s;
  }
  return out;
}

std::vector<double> legacy_conv1d_opt(std::span<const double> input,
                                      std::span<const double> weights,
                                      const KernelParams &params,
                                      parallel::ThreadPool &pool) {
  if (weights.empty() || input.size() < weights.size()) return {};
  const std::size_t out_n = input.size() - weights.size() + 1;
  std::vector<double> out(out_n, 0.0);
  const std::size_t ti = tile_or(params.tile_i, out_n);
  const std::size_t blocks = (out_n + ti - 1) / ti;
  const auto body = [&](std::size_t blk) {
    const std::size_t i0 = blk * ti;
    const std::size_t i1 = std::min(i0 + ti, out_n);
    for (std::size_t i = i0; i < i1; ++i) {
      out[i] = dot_unrolled(input.data() + i, weights.data(), weights.size(),
                            params.unroll);
    }
  };
  if (params.parallel) {
    pool.parallel_for(0, blocks, body, 1);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) body(b);
  }
  return out;
}

Matrix legacy_conv2d(const Matrix &input, const Matrix &kernel) {
  if (kernel.rows() == 0 || kernel.cols() == 0 ||
      input.rows() < kernel.rows() || input.cols() < kernel.cols()) {
    return {};
  }
  const std::size_t oh = input.rows() - kernel.rows() + 1;
  const std::size_t ow = input.cols() - kernel.cols() + 1;
  Matrix out(oh, ow, 0.0);
  for (std::size_t y = 0; y < oh; ++y) {
    for (std::size_t x = 0; x < ow; ++x) {
      double s = 0.0;
      for (std::size_t ky = 0; ky < kernel.rows(); ++ky) {
        for (std::size_t kx = 0; kx < kernel.cols(); ++kx) {
          s += input(y + ky, x + kx) * kernel(ky, kx);
        }
      }
      out(y, x) = s;
    }
  }
  return out;
}

Matrix legacy_conv2d_opt(const Matrix &input, const Matrix &kernel,
                         const KernelParams &params,
                         parallel::ThreadPool &pool) {
  if (kernel.rows() == 0 || kernel.cols() == 0 ||
      input.rows() < kernel.rows() || input.cols() < kernel.cols()) {
    return {};
  }
  const std::size_t oh = input.rows() - kernel.rows() + 1;
  const std::size_t ow = input.cols() - kernel.cols() + 1;
  Matrix out(oh, ow, 0.0);
  const std::size_t ti = tile_or(params.tile_i, oh);
  const std::size_t tj = tile_or(params.tile_j, ow);
  const std::size_t yblocks = (oh + ti - 1) / ti;
  const auto body = [&](std::size_t yb) {
    const std::size_t y0 = yb * ti;
    const std::size_t y1 = std::min(y0 + ti, oh);
    for (std::size_t x0 = 0; x0 < ow; x0 += tj) {
      const std::size_t x1 = std::min(x0 + tj, ow);
      for (std::size_t y = y0; y < y1; ++y) {
        for (std::size_t x = x0; x < x1; ++x) {
          double s = 0.0;
          for (std::size_t ky = 0; ky < kernel.rows(); ++ky) {
            // Rows of the input are contiguous: inner product per kernel row.
            s += dot_unrolled(input.row(y + ky).data() + x,
                              kernel.row(ky).data(), kernel.cols(),
                              params.unroll);
          }
          out(y, x) = s;
        }
      }
    }
  };
  if (params.parallel) {
    pool.parallel_for(0, yblocks, body, 1);
  } else {
    for (std::size_t yb = 0; yb < yblocks; ++yb) body(yb);
  }
  return out;
}

}  // namespace detail

Matrix im2row(const Matrix &x, std::size_t width, std::size_t first,
              std::size_t count) {
  if (width == 0 || first + count + width - 1 > x.rows()) {
    throw std::invalid_argument("im2row: window exceeds the sequence");
  }
  const std::size_t span = width * x.cols();
  Matrix out(count, span);
  for (std::size_t t = 0; t < count; ++t) {
    std::copy_n(x.row(first + t).data(), span, out.row(t).data());
  }
  return out;
}

Matrix im2row(const Matrix &x, std::size_t width) {
  if (width == 0 || x.rows() < width) {
    throw std::invalid_argument("im2row: window exceeds the sequence");
  }
  return im2row(x, width, 0, x.rows() - width + 1);
}

double matvec_flops(std::size_t m, std::size_t n) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n);
}

double matmul_flops(std::size_t m, std::size_t n, std::size_t k) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

double conv1d_flops(std::size_t n, std::size_t k) noexcept {
  if (n < k) return 0.0;
  return 2.0 * static_cast<double>(n - k + 1) * static_cast<double>(k);
}

double conv2d_flops(std::size_t h, std::size_t w, std::size_t kh,
                    std::size_t kw) noexcept {
  if (h < kh || w < kw) return 0.0;
  return 2.0 * static_cast<double>(h - kh + 1) * static_cast<double>(w - kw + 1) *
         static_cast<double>(kh) * static_cast<double>(kw);
}

double matvec_bytes(std::size_t m, std::size_t n) noexcept {
  return 8.0 * (static_cast<double>(m) * static_cast<double>(n) +
                static_cast<double>(n) + static_cast<double>(m));
}

double matmul_bytes(std::size_t m, std::size_t n, std::size_t k) noexcept {
  return 8.0 * (static_cast<double>(m) * static_cast<double>(k) +
                static_cast<double>(k) * static_cast<double>(n) +
                static_cast<double>(m) * static_cast<double>(n));
}

double conv1d_bytes(std::size_t n, std::size_t k) noexcept {
  if (n < k) return 0.0;
  return 8.0 * (static_cast<double>(n) + static_cast<double>(k) +
                static_cast<double>(n - k + 1));
}

double conv2d_bytes(std::size_t h, std::size_t w, std::size_t kh,
                    std::size_t kw) noexcept {
  if (h < kh || w < kw) return 0.0;
  return 8.0 * (static_cast<double>(h) * static_cast<double>(w) +
                static_cast<double>(kh) * static_cast<double>(kw) +
                static_cast<double>(h - kh + 1) * static_cast<double>(w - kw + 1));
}

}  // namespace treu::tensor
