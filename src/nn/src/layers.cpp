#include "treu/nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "backward_matmul.hpp"
#include "treu/tensor/kernels.hpp"

namespace treu::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, core::Rng &rng)
    : w_(tensor::Matrix::random_normal(
          in_features, out_features, rng,
          std::sqrt(2.0 / static_cast<double>(in_features)))),
      b_(tensor::Matrix(1, out_features, 0.0)) {}

tensor::Matrix Dense::forward(const tensor::Matrix &x) {
  if (x.cols() != w_.value.rows()) {
    throw std::invalid_argument("Dense::forward: feature dim mismatch");
  }
  input_ = x;
  // x @ W through the dispatch surface, with the zero-skip retained:
  // post-ReLU activations and sparse presence features (the n-gram
  // classifier) are mostly zeros, and skipping them turns a dense
  // O(in*out) row into O(nnz*out).
  tensor::KernelParams p = tensor::Kernel::fast_params();
  p.skip_zero_a = true;
  tensor::Matrix y =
      tensor::Kernel::matmul(x, w_.value, p, tensor::Kernel::default_pool());
  const auto brow = b_.value.row(0);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    auto yrow = y.row(r);
    for (std::size_t c = 0; c < yrow.size(); ++c) yrow[c] += brow[c];
  }
  return y;
}

tensor::Matrix Dense::backward(const tensor::Matrix &grad_out) {
  // dW += x^T g ; db += sum_rows g ; dx = g W^T — both products on the
  // register-tiled micro matmul, like the forward pass.
  w_.grad += detail::matmul_tn(input_, grad_out);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    for (std::size_t c = 0; c < grad_out.cols(); ++c) {
      b_.grad(0, c) += grad_out(r, c);
    }
  }
  return tensor::Kernel::matmul_transposed(grad_out, w_.value,
                                           tensor::Kernel::fast_params(),
                                           tensor::Kernel::default_pool());
}

tensor::Matrix ReLU::forward(const tensor::Matrix &x) {
  input_ = x;
  tensor::Matrix y = x;
  for (auto &v : y.flat()) v = v > 0.0 ? v : 0.0;
  return y;
}

tensor::Matrix ReLU::backward(const tensor::Matrix &grad_out) {
  tensor::Matrix g = grad_out;
  auto gi = g.flat();
  const auto xi = input_.flat();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    if (xi[i] <= 0.0) gi[i] = 0.0;
  }
  return g;
}

tensor::Matrix Tanh::forward(const tensor::Matrix &x) {
  output_ = x;
  for (auto &v : output_.flat()) v = std::tanh(v);
  return output_;
}

tensor::Matrix Tanh::backward(const tensor::Matrix &grad_out) {
  tensor::Matrix g = grad_out;
  auto gi = g.flat();
  const auto yi = output_.flat();
  for (std::size_t i = 0; i < gi.size(); ++i) gi[i] *= 1.0 - yi[i] * yi[i];
  return g;
}

tensor::Matrix Sigmoid::forward(const tensor::Matrix &x) {
  output_ = x;
  for (auto &v : output_.flat()) v = 1.0 / (1.0 + std::exp(-v));
  return output_;
}

tensor::Matrix Sigmoid::backward(const tensor::Matrix &grad_out) {
  tensor::Matrix g = grad_out;
  auto gi = g.flat();
  const auto yi = output_.flat();
  for (std::size_t i = 0; i < gi.size(); ++i) gi[i] *= yi[i] * (1.0 - yi[i]);
  return g;
}

Dropout::Dropout(double rate, core::Rng &rng)
    : rate_(rate), rng_(rng.split(0xD20)) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

tensor::Matrix Dropout::forward(const tensor::Matrix &x) {
  if (!training_ || rate_ == 0.0) {
    mask_ = tensor::Matrix();
    return x;
  }
  mask_ = tensor::Matrix(x.rows(), x.cols());
  tensor::Matrix y = x;
  auto mi = mask_.flat();
  auto yi = y.flat();
  const double scale = 1.0 / (1.0 - rate_);
  for (std::size_t i = 0; i < yi.size(); ++i) {
    const bool keep = !rng_.bernoulli(rate_);
    mi[i] = keep ? scale : 0.0;
    yi[i] *= mi[i];
  }
  return y;
}

tensor::Matrix Dropout::backward(const tensor::Matrix &grad_out) {
  if (mask_.empty()) return grad_out;
  tensor::Matrix g = grad_out;
  auto gi = g.flat();
  const auto mi = mask_.flat();
  for (std::size_t i = 0; i < gi.size(); ++i) gi[i] *= mi[i];
  return g;
}

LayerNorm::LayerNorm(std::size_t features, double eps)
    : eps_(eps),
      gain_(tensor::Matrix(1, features, 1.0)),
      bias_(tensor::Matrix(1, features, 0.0)) {}

tensor::Matrix LayerNorm::forward(const tensor::Matrix &x) {
  const std::size_t d = x.cols();
  if (d != gain_.value.cols()) {
    throw std::invalid_argument("LayerNorm::forward: feature dim mismatch");
  }
  normalized_ = tensor::Matrix(x.rows(), d);
  inv_std_.assign(x.rows(), 0.0);
  tensor::Matrix y(x.rows(), d);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    double mean = 0.0;
    for (double v : row) mean += v;
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (double v : row) var += (v - mean) * (v - mean);
    var /= static_cast<double>(d);
    const double inv = 1.0 / std::sqrt(var + eps_);
    inv_std_[r] = inv;
    for (std::size_t c = 0; c < d; ++c) {
      normalized_(r, c) = (row[c] - mean) * inv;
      y(r, c) = normalized_(r, c) * gain_.value(0, c) + bias_.value(0, c);
    }
  }
  return y;
}

tensor::Matrix LayerNorm::backward(const tensor::Matrix &grad_out) {
  const std::size_t d = grad_out.cols();
  tensor::Matrix dx(grad_out.rows(), d);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    // dgamma/dbeta accumulation.
    for (std::size_t c = 0; c < d; ++c) {
      gain_.grad(0, c) += grad_out(r, c) * normalized_(r, c);
      bias_.grad(0, c) += grad_out(r, c);
    }
    // dxhat = g * gamma; dx = inv_std * (dxhat - mean(dxhat)
    //         - xhat * mean(dxhat * xhat)).
    double mean_dxhat = 0.0;
    double mean_dxhat_xhat = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double dxhat = grad_out(r, c) * gain_.value(0, c);
      mean_dxhat += dxhat;
      mean_dxhat_xhat += dxhat * normalized_(r, c);
    }
    mean_dxhat /= static_cast<double>(d);
    mean_dxhat_xhat /= static_cast<double>(d);
    for (std::size_t c = 0; c < d; ++c) {
      const double dxhat = grad_out(r, c) * gain_.value(0, c);
      dx(r, c) = inv_std_[r] *
                 (dxhat - mean_dxhat - normalized_(r, c) * mean_dxhat_xhat);
    }
  }
  return dx;
}

tensor::Matrix MeanPool::forward(const tensor::Matrix &x) {
  rows_ = x.rows();
  tensor::Matrix y(1, x.cols(), 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) y(0, c) += x(r, c);
  }
  if (rows_ > 0) y *= 1.0 / static_cast<double>(rows_);
  return y;
}

tensor::Matrix MeanPool::backward(const tensor::Matrix &grad_out) {
  tensor::Matrix g(rows_, grad_out.cols());
  const double scale = rows_ > 0 ? 1.0 / static_cast<double>(rows_) : 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < grad_out.cols(); ++c) {
      g(r, c) = grad_out(0, c) * scale;
    }
  }
  return g;
}

PositionalEncoding::PositionalEncoding(std::size_t max_len, std::size_t dim)
    : table_(max_len, dim) {
  for (std::size_t pos = 0; pos < max_len; ++pos) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double exponent =
          static_cast<double>(2 * (i / 2)) / static_cast<double>(dim);
      const double angle =
          static_cast<double>(pos) / std::pow(10000.0, exponent);
      table_(pos, i) = (i % 2 == 0) ? std::sin(angle) : std::cos(angle);
    }
  }
}

tensor::Matrix PositionalEncoding::forward(const tensor::Matrix &x) {
  if (x.rows() > table_.rows() || x.cols() != table_.cols()) {
    throw std::invalid_argument("PositionalEncoding: shape exceeds table");
  }
  tensor::Matrix y = x;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) y(r, c) += table_(r, c);
  }
  return y;
}

tensor::Matrix PositionalEncoding::backward(const tensor::Matrix &grad_out) {
  return grad_out;  // additive constant
}

}  // namespace treu::nn
