#include "treu/nn/conv.hpp"

#include <cmath>
#include <stdexcept>

#include "treu/tensor/kernels.hpp"

namespace treu::nn {

Conv1dSeq::Conv1dSeq(std::size_t in_dim, std::size_t filters,
                     std::size_t width, core::Rng &rng)
    : in_dim_(in_dim),
      filters_(filters),
      width_(width),
      w_(tensor::Matrix::random_normal(
          filters, width * in_dim, rng,
          std::sqrt(2.0 / static_cast<double>(width * in_dim)))),
      b_(tensor::Matrix(1, filters, 0.0)) {
  if (width == 0 || in_dim == 0 || filters == 0) {
    throw std::invalid_argument("Conv1dSeq: zero-sized configuration");
  }
}

tensor::Matrix Conv1dSeq::forward(const tensor::Matrix &x) {
  if (x.cols() != in_dim_ || x.rows() < width_) {
    throw std::invalid_argument("Conv1dSeq::forward: bad input shape");
  }
  // The graph's lowering (builder.cpp capture_conv): im2row, then one
  // (out_len x width*in) @ (width*in x filters) micro matmul, then the bias
  // row — so this layer and its captured plan agree bitwise.
  input_ = x;
  tensor::Matrix y = tensor::Kernel::matmul(
      tensor::im2row(x, width_), w_.value.transposed(),
      tensor::Kernel::fast_params(), tensor::Kernel::default_pool());
  const auto brow = b_.value.row(0);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    auto yrow = y.row(r);
    for (std::size_t c = 0; c < yrow.size(); ++c) yrow[c] += brow[c];
  }
  return y;
}

tensor::Matrix Conv1dSeq::backward(const tensor::Matrix &grad_out) {
  // dW += G^T patches ; db += sum_rows G ; dpatches = G W. Patch t is input
  // rows [t, t+width), contiguous in row-major storage, so it is read from
  // input_ and its gradient added straight into dx.row(t). Behind
  // GlobalMaxPool and ReLU, G has at most one nonzero per filter, so both
  // products run as rank-1 updates over the nonzeros alone: measured
  // cheaper than the zero-skipping micro matmul, which walks every row of G.
  const std::size_t out_len = grad_out.rows();
  tensor::Matrix dx(input_.rows(), in_dim_, 0.0);
  for (std::size_t t = 0; t < out_len; ++t) {
    const double *window = input_.row(t).data();
    double *dwindow = dx.row(t).data();
    for (std::size_t f = 0; f < filters_; ++f) {
      const double g = grad_out(t, f);
      if (g == 0.0) continue;
      const double *wf = w_.value.row(f).data();
      double *dwf = w_.grad.row(f).data();
      for (std::size_t i = 0; i < width_ * in_dim_; ++i) {
        dwf[i] += g * window[i];
        dwindow[i] += g * wf[i];
      }
      b_.grad(0, f) += g;
    }
  }
  return dx;
}

tensor::Matrix GlobalMaxPool::forward(const tensor::Matrix &x) {
  rows_ = x.rows();
  argmax_.assign(x.cols(), 0);
  tensor::Matrix y(1, x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) {
    double best = x(0, c);
    std::size_t arg = 0;
    for (std::size_t r = 1; r < x.rows(); ++r) {
      if (x(r, c) > best) {
        best = x(r, c);
        arg = r;
      }
    }
    y(0, c) = best;
    argmax_[c] = arg;
  }
  return y;
}

tensor::Matrix GlobalMaxPool::backward(const tensor::Matrix &grad_out) {
  tensor::Matrix g(rows_, grad_out.cols(), 0.0);
  for (std::size_t c = 0; c < grad_out.cols(); ++c) {
    g(argmax_[c], c) = grad_out(0, c);
  }
  return g;
}

}  // namespace treu::nn
