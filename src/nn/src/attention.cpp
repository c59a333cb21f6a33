#include "treu/nn/attention.hpp"

#include <cmath>
#include <stdexcept>

#include "backward_matmul.hpp"
#include "treu/tensor/kernels.hpp"

namespace treu::nn {
namespace {

// Extract head h columns [h*hd, (h+1)*hd) as an (n x hd) matrix.
tensor::Matrix head_slice(const tensor::Matrix &m, std::size_t h,
                          std::size_t hd) {
  tensor::Matrix out(m.rows(), hd);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < hd; ++c) out(r, c) = m(r, h * hd + c);
  }
  return out;
}

void head_write(tensor::Matrix &dst, const tensor::Matrix &src, std::size_t h,
                std::size_t hd) {
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t c = 0; c < hd; ++c) dst(r, h * hd + c) = src(r, c);
  }
}

void head_add(tensor::Matrix &dst, const tensor::Matrix &src, std::size_t h,
              std::size_t hd) {
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t c = 0; c < hd; ++c) dst(r, h * hd + c) += src(r, c);
  }
}

void softmax_rows(tensor::Matrix &m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    double mx = row[0];
    for (double v : row) mx = std::max(mx, v);
    double sum = 0.0;
    for (auto &v : row) {
      v = std::exp(v - mx);
      sum += v;
    }
    for (auto &v : row) v /= sum;
  }
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(std::size_t model_dim,
                                       std::size_t heads, core::Rng &rng)
    : model_dim_(model_dim),
      heads_(heads),
      head_dim_(heads == 0 ? 0 : model_dim / heads),
      wq_(tensor::Matrix::random_normal(model_dim, model_dim, rng,
                                        std::sqrt(1.0 / static_cast<double>(model_dim)))),
      wk_(tensor::Matrix::random_normal(model_dim, model_dim, rng,
                                        std::sqrt(1.0 / static_cast<double>(model_dim)))),
      wv_(tensor::Matrix::random_normal(model_dim, model_dim, rng,
                                        std::sqrt(1.0 / static_cast<double>(model_dim)))),
      wo_(tensor::Matrix::random_normal(model_dim, model_dim, rng,
                                        std::sqrt(1.0 / static_cast<double>(model_dim)))) {
  if (heads == 0 || model_dim % heads != 0) {
    throw std::invalid_argument("MultiHeadAttention: heads must divide dim");
  }
}

tensor::Matrix MultiHeadAttention::forward(const tensor::Matrix &x) {
  if (x.cols() != model_dim_) {
    throw std::invalid_argument("MultiHeadAttention::forward: dim mismatch");
  }
  x_ = x;
  const tensor::KernelParams p = tensor::Kernel::fast_params();
  auto &pool = tensor::Kernel::default_pool();
  q_ = tensor::Kernel::matmul(x, wq_.value, p, pool);
  k_ = tensor::Kernel::matmul(x, wk_.value, p, pool);
  v_ = tensor::Kernel::matmul(x, wv_.value, p, pool);
  const std::size_t n = x.rows();
  concat_ = tensor::Matrix(n, model_dim_, 0.0);
  attn_.assign(heads_, tensor::Matrix());
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  for (std::size_t h = 0; h < heads_; ++h) {
    const tensor::Matrix qh = head_slice(q_, h, head_dim_);
    const tensor::Matrix kh = head_slice(k_, h, head_dim_);
    const tensor::Matrix vh = head_slice(v_, h, head_dim_);
    tensor::Matrix scores =
        tensor::Kernel::matmul_transposed(qh, kh, p, pool);  // n x n
    scores *= scale;
    softmax_rows(scores);
    attn_[h] = scores;
    const tensor::Matrix oh =
        tensor::Kernel::matmul(scores, vh, p, pool);  // n x hd
    head_write(concat_, oh, h, head_dim_);
  }
  return tensor::Kernel::matmul(concat_, wo_.value, p, pool);
}

tensor::Matrix MultiHeadAttention::backward(const tensor::Matrix &grad_out) {
  const std::size_t n = x_.rows();
  const tensor::KernelParams p = tensor::Kernel::fast_params();
  auto &pool = tensor::Kernel::default_pool();
  // Every product runs on the micro matmul: A^T B through matmul_tn, A B^T
  // through matmul_transposed.
  const auto abt = [&](const tensor::Matrix &a, const tensor::Matrix &b) {
    return tensor::Kernel::matmul_transposed(a, b, p, pool);
  };
  // Output projection.
  wo_.grad += detail::matmul_tn(concat_, grad_out);
  const tensor::Matrix dconcat = abt(grad_out, wo_.value);

  tensor::Matrix dq(n, model_dim_, 0.0);
  tensor::Matrix dk(n, model_dim_, 0.0);
  tensor::Matrix dv(n, model_dim_, 0.0);
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));

  for (std::size_t h = 0; h < heads_; ++h) {
    const tensor::Matrix qh = head_slice(q_, h, head_dim_);
    const tensor::Matrix kh = head_slice(k_, h, head_dim_);
    const tensor::Matrix vh = head_slice(v_, h, head_dim_);
    const tensor::Matrix doh = head_slice(dconcat, h, head_dim_);
    const tensor::Matrix &a = attn_[h];

    // dV_h = A^T dO_h.
    const tensor::Matrix dvh = detail::matmul_tn(a, doh);
    // dA = dO_h V_h^T.
    const tensor::Matrix da = abt(doh, vh);
    // Softmax backward per row: dS = A ∘ (dA - sum(dA ∘ A)).
    tensor::Matrix ds(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      double dot = 0.0;
      for (std::size_t c = 0; c < n; ++c) dot += da(r, c) * a(r, c);
      for (std::size_t c = 0; c < n; ++c) {
        ds(r, c) = a(r, c) * (da(r, c) - dot);
      }
    }
    ds *= scale;
    // dQ_h = dS K_h ; dK_h = dS^T Q_h.
    const tensor::Matrix dqh = tensor::Kernel::matmul(ds, kh, p, pool);
    const tensor::Matrix dkh = detail::matmul_tn(ds, qh);
    head_add(dq, dqh, h, head_dim_);
    head_add(dk, dkh, h, head_dim_);
    head_add(dv, dvh, h, head_dim_);
  }

  wq_.grad += detail::matmul_tn(x_, dq);
  wk_.grad += detail::matmul_tn(x_, dk);
  wv_.grad += detail::matmul_tn(x_, dv);

  tensor::Matrix dx = abt(dq, wq_.value);
  dx += abt(dk, wk_.value);
  dx += abt(dv, wv_.value);
  return dx;
}

TransformerBlock::TransformerBlock(std::size_t model_dim, std::size_t heads,
                                   std::size_t ff_dim, core::Rng &rng)
    : ln1_(model_dim),
      mha_(model_dim, heads, rng),
      ln2_(model_dim),
      ff1_(model_dim, ff_dim, rng),
      ff2_(ff_dim, model_dim, rng) {}

tensor::Matrix TransformerBlock::forward(const tensor::Matrix &x) {
  tensor::Matrix h = x + mha_.forward(ln1_.forward(x));
  tensor::Matrix y = h + ff2_.forward(relu_.forward(ff1_.forward(ln2_.forward(h))));
  return y;
}

tensor::Matrix TransformerBlock::backward(const tensor::Matrix &grad_out) {
  // y = h + FFN(LN2(h)).
  tensor::Matrix dh =
      grad_out +
      ln2_.backward(ff1_.backward(relu_.backward(ff2_.backward(grad_out))));
  // h = x + MHA(LN1(x)).
  tensor::Matrix dx = dh + ln1_.backward(mha_.backward(dh));
  return dx;
}

std::vector<Param *> TransformerBlock::params() {
  std::vector<Param *> out;
  for (Param *p : mha_.params()) out.push_back(p);
  for (Param *p : ln1_.params()) out.push_back(p);
  for (Param *p : ln2_.params()) out.push_back(p);
  for (Param *p : ff1_.params()) out.push_back(p);
  for (Param *p : ff2_.params()) out.push_back(p);
  return out;
}

}  // namespace treu::nn
