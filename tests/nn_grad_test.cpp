// Finite-difference gradient verification for every layer with a hand-
// written backward pass. The scalar loss is sum_ij c_ij * out_ij with fixed
// pseudo-random coefficients, which exercises every output coordinate.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "treu/core/rng.hpp"
#include "treu/nn/attention.hpp"
#include "treu/nn/conv.hpp"
#include "treu/nn/embedding.hpp"
#include "treu/nn/layers.hpp"
#include "treu/nn/loss.hpp"
#include "treu/nn/spatial.hpp"

namespace nn = treu::nn;
namespace tt = treu::tensor;

namespace {

constexpr double kEps = 1e-6;
constexpr double kTol = 1e-4;

tt::Matrix coefficients(std::size_t rows, std::size_t cols) {
  tt::Matrix c(rows, cols);
  treu::core::Rng rng(4242);
  for (auto &v : c.flat()) v = rng.uniform(-1.0, 1.0);
  return c;
}

double weighted_sum(const tt::Matrix &out, const tt::Matrix &c) {
  double s = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    s += out.flat()[i] * c.flat()[i];
  }
  return s;
}

// Check analytic parameter gradients of `layer` against finite differences.
void check_layer_gradients(nn::Layer &layer, const tt::Matrix &input,
                           double tol = kTol) {
  tt::Matrix out = layer.forward(input);
  const tt::Matrix c = coefficients(out.rows(), out.cols());

  for (nn::Param *p : layer.params()) p->zero_grad();
  const tt::Matrix dx = layer.backward(c);

  // Parameter gradients.
  for (nn::Param *p : layer.params()) {
    auto values = p->value.flat();
    const auto grads = p->grad.flat();
    for (std::size_t j = 0; j < values.size();
         j += std::max<std::size_t>(1, values.size() / 17)) {
      const double saved = values[j];
      values[j] = saved + kEps;
      const double up = weighted_sum(layer.forward(input), c);
      values[j] = saved - kEps;
      const double down = weighted_sum(layer.forward(input), c);
      values[j] = saved;
      const double numeric = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(grads[j], numeric, tol * std::max(1.0, std::fabs(numeric)))
          << "param grad at " << j;
    }
  }

  // Input gradients.
  tt::Matrix probe = input;
  for (std::size_t j = 0; j < probe.size();
       j += std::max<std::size_t>(1, probe.size() / 13)) {
    const double saved = probe.flat()[j];
    probe.flat()[j] = saved + kEps;
    const double up = weighted_sum(layer.forward(probe), c);
    probe.flat()[j] = saved - kEps;
    const double down = weighted_sum(layer.forward(probe), c);
    probe.flat()[j] = saved;
    const double numeric = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(dx.flat()[j], numeric, kTol * std::max(1.0, std::fabs(numeric)))
        << "input grad at " << j;
  }
}

tt::Matrix smooth_input(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  // Inputs kept away from ReLU kinks (finite differences across a kink are
  // meaningless); magnitudes ~0.5.
  treu::core::Rng rng(seed);
  tt::Matrix x(rows, cols);
  for (auto &v : x.flat()) {
    v = rng.uniform(0.1, 1.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  return x;
}

}  // namespace

TEST(GradCheck, Dense) {
  treu::core::Rng rng(1);
  nn::Dense layer(5, 4, rng);
  check_layer_gradients(layer, smooth_input(3, 5, 11));
}

TEST(GradCheck, Tanh) {
  nn::Tanh layer;
  check_layer_gradients(layer, smooth_input(4, 6, 12));
}

TEST(GradCheck, Sigmoid) {
  nn::Sigmoid layer;
  check_layer_gradients(layer, smooth_input(4, 6, 13));
}

TEST(GradCheck, LayerNorm) {
  nn::LayerNorm layer(6);
  check_layer_gradients(layer, smooth_input(3, 6, 14));
}

TEST(GradCheck, MeanPool) {
  nn::MeanPool layer;
  check_layer_gradients(layer, smooth_input(5, 4, 15));
}

TEST(GradCheck, PositionalEncodingPassThrough) {
  nn::PositionalEncoding layer(8, 6);
  check_layer_gradients(layer, smooth_input(5, 6, 16));
}

TEST(GradCheck, MultiHeadAttention) {
  treu::core::Rng rng(2);
  nn::MultiHeadAttention layer(6, 2, rng);
  check_layer_gradients(layer, smooth_input(4, 6, 17), 5e-4);
}

TEST(GradCheck, TransformerBlock) {
  treu::core::Rng rng(3);
  nn::TransformerBlock layer(6, 2, 10, rng);
  check_layer_gradients(layer, smooth_input(4, 6, 18), 2e-3);
}

TEST(GradCheck, Conv1dSeq) {
  treu::core::Rng rng(4);
  nn::Conv1dSeq layer(3, 4, 3, rng);
  check_layer_gradients(layer, smooth_input(9, 3, 19));
}

TEST(GradCheck, Conv1dSeqReluGlobalMaxPoolChain) {
  // Behind ReLU and GlobalMaxPool the gradient reaching Conv1dSeq has at
  // most one nonzero per filter, which drives its zero-skipping backward.
  treu::core::Rng rng(7);
  nn::Sequential net;
  net.emplace<nn::Conv1dSeq>(3, 5, 3, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::GlobalMaxPool>();
  check_layer_gradients(net, smooth_input(11, 3, 23));
}

TEST(GradCheck, SequentialComposition) {
  treu::core::Rng rng(5);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 6, rng);
  net.emplace<nn::Tanh>();
  net.emplace<nn::Dense>(6, 3, rng);
  check_layer_gradients(net, smooth_input(2, 4, 20));
}

namespace {

// Two forward/backward calls without zero_grad in between must leave every
// Param::grad at the sum of the two single-call gradients.
void check_gradients_accumulate(nn::Layer &layer, const tt::Matrix &x1,
                                const tt::Matrix &x2) {
  const auto grads_of = [&](const tt::Matrix &x) {
    for (nn::Param *p : layer.params()) p->zero_grad();
    const tt::Matrix out = layer.forward(x);
    (void)layer.backward(coefficients(out.rows(), out.cols()));
    std::vector<tt::Matrix> g;
    for (nn::Param *p : layer.params()) g.push_back(p->grad);
    return g;
  };
  const std::vector<tt::Matrix> g1 = grads_of(x1);
  const std::vector<tt::Matrix> g2 = grads_of(x2);

  for (nn::Param *p : layer.params()) p->zero_grad();
  for (const tt::Matrix *x : {&x1, &x2}) {
    const tt::Matrix out = layer.forward(*x);
    (void)layer.backward(coefficients(out.rows(), out.cols()));
  }
  const auto params = layer.params();
  ASSERT_EQ(params.size(), g1.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_LT(params[i]->grad.max_abs_diff(g1[i] + g2[i]), 1e-12)
        << "param " << i;
  }
}

}  // namespace

TEST(GradAccumulation, DenseSumsTwoBackwardCalls) {
  treu::core::Rng rng(8);
  nn::Dense layer(6, 5, rng);
  check_gradients_accumulate(layer, smooth_input(4, 6, 24),
                             smooth_input(3, 6, 25));
}

TEST(GradAccumulation, Conv1dSeqSumsTwoBackwardCalls) {
  treu::core::Rng rng(9);
  nn::Conv1dSeq layer(3, 4, 3, rng);
  check_gradients_accumulate(layer, smooth_input(9, 3, 26),
                             smooth_input(7, 3, 27));
}

TEST(GradAccumulation, MultiHeadAttentionSumsTwoBackwardCalls) {
  treu::core::Rng rng(10);
  nn::MultiHeadAttention layer(6, 2, rng);
  check_gradients_accumulate(layer, smooth_input(4, 6, 28),
                             smooth_input(5, 6, 29));
}

TEST(GradCheck, EmbeddingAccumulatesRowGradients) {
  treu::core::Rng rng(6);
  nn::Embedding emb(10, 4, rng);
  const std::vector<std::uint32_t> tokens{3, 7, 3};  // token 3 used twice
  tt::Matrix out = emb.forward(tokens);
  const tt::Matrix c = coefficients(out.rows(), out.cols());
  for (nn::Param *p : emb.params()) p->zero_grad();
  emb.backward(c);

  nn::Param *table = emb.params()[0];
  for (std::size_t col = 0; col < 4; ++col) {
    // Row 3 receives gradient from positions 0 and 2.
    EXPECT_NEAR(table->grad(3, col), c(0, col) + c(2, col), 1e-12);
    EXPECT_NEAR(table->grad(7, col), c(1, col), 1e-12);
    EXPECT_DOUBLE_EQ(table->grad(0, col), 0.0);  // unused row untouched
  }
}

TEST(GradCheck, SoftmaxCrossEntropyGradient) {
  // d(loss)/d(logit) == softmax - onehot, check vs finite differences.
  treu::core::Rng rng(7);
  tt::Matrix logits = tt::Matrix::random_normal(3, 4, rng);
  const std::vector<std::size_t> labels{1, 3, 0};
  const nn::LossResult res = nn::softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double saved = logits.flat()[i];
    logits.flat()[i] = saved + kEps;
    const double up = nn::softmax_cross_entropy(logits, labels).loss;
    logits.flat()[i] = saved - kEps;
    const double down = nn::softmax_cross_entropy(logits, labels).loss;
    logits.flat()[i] = saved;
    EXPECT_NEAR(res.grad.flat()[i], (up - down) / (2.0 * kEps), 1e-6);
  }
}

TEST(GradCheck, MseGradient) {
  treu::core::Rng rng(8);
  tt::Matrix pred = tt::Matrix::random_normal(2, 3, rng);
  const tt::Matrix target = tt::Matrix::random_normal(2, 3, rng);
  const nn::LossResult res = nn::mse(pred, target);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double saved = pred.flat()[i];
    pred.flat()[i] = saved + kEps;
    const double up = nn::mse(pred, target).loss;
    pred.flat()[i] = saved - kEps;
    const double down = nn::mse(pred, target).loss;
    pred.flat()[i] = saved;
    EXPECT_NEAR(res.grad.flat()[i], (up - down) / (2.0 * kEps), 1e-6);
  }
}

// --- Spatial (Tensor3) layers ------------------------------------------------

namespace {

tt::Tensor3 smooth_tensor(std::size_t c, std::size_t h, std::size_t w,
                          std::uint64_t seed) {
  treu::core::Rng rng(seed);
  tt::Tensor3 x(c, h, w);
  for (auto &v : x.flat()) {
    v = rng.uniform(0.1, 1.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  return x;
}

double weighted_sum3(const tt::Tensor3 &out, const std::vector<double> &c) {
  double s = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) s += out.flat()[i] * c[i];
  return s;
}

}  // namespace

TEST(GradCheck, Conv2d3ParamsAndInput) {
  treu::core::Rng rng(9);
  nn::Conv2d3 conv(2, 3, 3, rng);
  const tt::Tensor3 x = smooth_tensor(2, 5, 6, 21);
  tt::Tensor3 out = conv.forward(x);
  std::vector<double> c(out.size());
  treu::core::Rng crng(77);
  for (auto &v : c) v = crng.uniform(-1.0, 1.0);

  for (nn::Param *p : conv.params()) p->zero_grad();
  tt::Tensor3 grad_out(out.channels(), out.height(), out.width());
  for (std::size_t i = 0; i < c.size(); ++i) grad_out.flat()[i] = c[i];
  const tt::Tensor3 dx = conv.backward(grad_out);

  for (nn::Param *p : conv.params()) {
    auto values = p->value.flat();
    const auto grads = p->grad.flat();
    for (std::size_t j = 0; j < values.size();
         j += std::max<std::size_t>(1, values.size() / 11)) {
      const double saved = values[j];
      values[j] = saved + kEps;
      const double up = weighted_sum3(conv.forward(x), c);
      values[j] = saved - kEps;
      const double down = weighted_sum3(conv.forward(x), c);
      values[j] = saved;
      EXPECT_NEAR(grads[j], (up - down) / (2.0 * kEps), kTol);
    }
  }
  tt::Tensor3 probe = x;
  for (std::size_t j = 0; j < probe.size();
       j += std::max<std::size_t>(1, probe.size() / 9)) {
    const double saved = probe.flat()[j];
    probe.flat()[j] = saved + kEps;
    const double up = weighted_sum3(conv.forward(probe), c);
    probe.flat()[j] = saved - kEps;
    const double down = weighted_sum3(conv.forward(probe), c);
    probe.flat()[j] = saved;
    EXPECT_NEAR(dx.flat()[j], (up - down) / (2.0 * kEps), kTol);
  }
}

TEST(GradCheck, MaxPoolRoutesGradientToArgmax) {
  nn::MaxPool2x2 pool;
  tt::Tensor3 x(1, 4, 4, 0.0);
  x(0, 1, 1) = 5.0;  // argmax of the top-left 2x2 window
  x(0, 2, 3) = 4.0;  // argmax of the bottom-right window
  const tt::Tensor3 out = pool.forward(x);
  tt::Tensor3 g(1, 2, 2, 1.0);
  const tt::Tensor3 dx = pool.backward(g);
  EXPECT_DOUBLE_EQ(dx(0, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(dx(0, 2, 3), 1.0);
  EXPECT_DOUBLE_EQ(dx(0, 0, 0), 0.0);
}

TEST(GradCheck, UpsampleBackwardSumsQuad) {
  nn::Upsample2x up;
  const tt::Tensor3 x = smooth_tensor(1, 2, 2, 22);
  (void)up.forward(x);
  tt::Tensor3 g(1, 4, 4, 1.0);
  const tt::Tensor3 dx = up.backward(g);
  for (std::size_t i = 0; i < dx.size(); ++i) {
    EXPECT_DOUBLE_EQ(dx.flat()[i], 4.0);
  }
}
