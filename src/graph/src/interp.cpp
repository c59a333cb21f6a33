#include "treu/graph/interp.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "treu/graph/ops.hpp"

namespace treu::graph {
namespace {

using tensor::Kernel;
using tensor::KernelParams;
using tensor::Matrix;

[[noreturn]] void fail(const Node &node, const std::string &why) {
  throw std::invalid_argument(std::string("eval ") + op_info(node.op).name +
                              " %" + std::to_string(node.id) + ": " + why);
}

/// y += broadcast bias row — the exact loop Dense::forward runs after its
/// matmul, so fused and unfused bias adds are the same instruction sequence.
void add_row_bias(Matrix &y, const Matrix &bias) {
  const auto brow = bias.row(0);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    auto yrow = y.row(r);
    for (std::size_t c = 0; c < yrow.size(); ++c) yrow[c] += brow[c];
  }
}

void apply_act(Matrix &y, Act act) {
  switch (act) {
    case Act::None:
      break;
    case Act::Relu:
      for (auto &v : y.flat()) v = v > 0.0 ? v : 0.0;
      break;
    case Act::Tanh:
      for (auto &v : y.flat()) v = std::tanh(v);
      break;
    case Act::Sigmoid:
      for (auto &v : y.flat()) v = 1.0 / (1.0 + std::exp(-v));
      break;
  }
}

/// attention.cpp's softmax_rows, verbatim: max-subtracted exp then one
/// divide per element.
void softmax_rows(Matrix &m) {
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

/// Column-wise running max over a block of rows, first-max-wins (strict >),
/// matching GlobalMaxPool::forward's scan order.
void colmax_update(Matrix &best, const Matrix &block, bool &seeded) {
  for (std::size_t c = 0; c < block.cols(); ++c) {
    std::size_t r0 = 0;
    if (!seeded) best(0, c) = block(0, c);
    if (!seeded) r0 = 1;
    for (std::size_t r = r0; r < block.rows(); ++r) {
      if (block(r, c) > best(0, c)) best(0, c) = block(r, c);
    }
  }
  seeded = true;
}

Matrix eval_fused_conv(const Node &node, const Matrix &x, const Matrix &wt,
                       const Matrix &bias, const KernelParams &kp,
                       parallel::ThreadPool &pool) {
  const std::size_t width = node.attrs.width;
  if (x.rows() < width) fail(node, "sequence shorter than window");
  const std::size_t total = x.rows() - width + 1;
  // Process the output positions in ascending blocks. Each block's im2row +
  // matmul + bias + relu is bitwise identical to the same rows of the
  // unfused chain (the micro matmul computes every output element
  // independently with ascending-k FMA, so row partitioning is invisible),
  // and the running column max visits rows in the same order with the same
  // strict-> comparison as GlobalMaxPool. Fusion buys peak-memory: the
  // (seq x width*d) patch matrix never exists, only one block of it.
  constexpr std::size_t kBlock = 64;
  Matrix best(1, wt.cols());
  bool seeded = false;
  for (std::size_t t0 = 0; t0 < total; t0 += kBlock) {
    const std::size_t rows = std::min(kBlock, total - t0);
    Matrix z = Kernel::matmul(tensor::im2row(x, width, t0, rows), wt, kp, pool);
    add_row_bias(z, bias);
    apply_act(z, Act::Relu);
    colmax_update(best, z, seeded);
  }
  return best;
}

}  // namespace

KernelParams reference_params() noexcept {
  KernelParams p;
  p.isa = tensor::Isa::Scalar;
  p.rtile_m = 4;
  p.rtile_n = 8;
  return p;
}

KernelParams normalize_micro(KernelParams p) noexcept {
  if (p.isa == tensor::Isa::Scalar && p.rtile_m == 0 && p.rtile_n == 0) {
    const KernelParams ref = reference_params();
    p.rtile_m = ref.rtile_m;
    p.rtile_n = ref.rtile_n;
  }
  return p;
}

Matrix eval_node(const Node &node, std::span<const Matrix *const> in,
                 const KernelParams &kp, parallel::ThreadPool &pool) {
  const OpInfo &info = op_info(node.op);
  if (in.size() != node.inputs.size()) fail(node, "operand count mismatch");
  for (const Matrix *m : in) {
    if (m == nullptr) fail(node, "null operand");
  }
  (void)info;
  switch (node.op) {
    case OpKind::Input:
    case OpKind::Const:
      fail(node, "source nodes are not evaluated");

    case OpKind::MatMul:
      return Kernel::matmul(*in[0], *in[1], kp, pool);

    case OpKind::Transpose:
      return in[0]->transposed();

    case OpKind::RowBias: {
      Matrix y = *in[0];
      if (in[1]->rows() != 1 || in[1]->cols() != y.cols()) {
        fail(node, "bias shape mismatch");
      }
      add_row_bias(y, *in[1]);
      return y;
    }

    case OpKind::Add: {
      Matrix y = *in[0];
      y += *in[1];  // Matrix::operator+= shape-checks
      return y;
    }

    case OpKind::Relu:
    case OpKind::Tanh:
    case OpKind::Sigmoid: {
      Matrix y = *in[0];
      apply_act(y, node.op == OpKind::Relu    ? Act::Relu
                : node.op == OpKind::Tanh     ? Act::Tanh
                                              : Act::Sigmoid);
      return y;
    }

    case OpKind::Softmax: {
      Matrix y = *in[0];
      if (y.cols() == 0) fail(node, "empty rows");
      softmax_rows(y);
      return y;
    }

    case OpKind::Scale: {
      Matrix y = *in[0];
      y *= node.attrs.scale;
      return y;
    }

    case OpKind::Im2Row:
      if (node.attrs.width == 0 || in[0]->rows() < node.attrs.width) {
        fail(node, "sequence shorter than window");
      }
      return tensor::im2row(*in[0], node.attrs.width);

    case OpKind::MeanPool: {
      // nn::MeanPool::forward verbatim: column sums then one *= 1/rows.
      const Matrix &x = *in[0];
      Matrix y(1, x.cols(), 0.0);
      for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) y(0, c) += x(r, c);
      }
      if (x.rows() > 0) y *= 1.0 / static_cast<double>(x.rows());
      return y;
    }

    case OpKind::GlobalMaxPool: {
      const Matrix &x = *in[0];
      if (x.rows() == 0) fail(node, "empty input");
      Matrix y(1, x.cols());
      bool seeded = false;
      colmax_update(y, x, seeded);
      return y;
    }

    case OpKind::LayerNorm: {
      // LayerNorm::forward verbatim (ascending-index mean/variance sums).
      const Matrix &x = *in[0];
      const Matrix &gain = *in[1];
      const Matrix &bias = *in[2];
      const std::size_t d = x.cols();
      if (gain.cols() != d || bias.cols() != d) {
        fail(node, "gain/bias shape mismatch");
      }
      Matrix y(x.rows(), d);
      for (std::size_t r = 0; r < x.rows(); ++r) {
        const auto row = x.row(r);
        double mean = 0.0;
        for (double v : row) mean += v;
        mean /= static_cast<double>(d);
        double var = 0.0;
        for (double v : row) var += (v - mean) * (v - mean);
        var /= static_cast<double>(d);
        const double inv = 1.0 / std::sqrt(var + node.attrs.eps);
        for (std::size_t c = 0; c < d; ++c) {
          y(r, c) = (row[c] - mean) * inv * gain(0, c) + bias(0, c);
        }
      }
      return y;
    }

    case OpKind::ColSlice: {
      const Matrix &x = *in[0];
      if (node.attrs.begin >= node.attrs.end || node.attrs.end > x.cols()) {
        fail(node, "column range out of bounds");
      }
      Matrix y(x.rows(), node.attrs.end - node.attrs.begin);
      for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < y.cols(); ++c) {
          y(r, c) = x(r, node.attrs.begin + c);
        }
      }
      return y;
    }

    case OpKind::Concat: {
      std::size_t cols = 0;
      for (const Matrix *m : in) {
        if (m->rows() != in[0]->rows()) fail(node, "row counts differ");
        cols += m->cols();
      }
      Matrix y(in[0]->rows(), cols);
      std::size_t base = 0;
      for (const Matrix *m : in) {
        for (std::size_t r = 0; r < m->rows(); ++r) {
          for (std::size_t c = 0; c < m->cols(); ++c) {
            y(r, base + c) = (*m)(r, c);
          }
        }
        base += m->cols();
      }
      return y;
    }

    case OpKind::FusedMatMulBiasAct: {
      Matrix y = Kernel::matmul(*in[0], *in[1], kp, pool);
      if (in[2]->rows() != 1 || in[2]->cols() != y.cols()) {
        fail(node, "bias shape mismatch");
      }
      add_row_bias(y, *in[2]);
      apply_act(y, node.attrs.act);
      return y;
    }

    case OpKind::FusedConvReluPool:
      return eval_fused_conv(node, *in[0], *in[1], *in[2], kp, pool);
  }
  fail(node, "unknown op kind");
}

Interpreter::Interpreter(const Graph &graph) : graph_(graph) {
  if (graph.inputs().size() != 1) {
    throw std::invalid_argument("Interpreter: graph must have exactly one input");
  }
  (void)graph.output();  // throws if unset
}

tensor::Matrix Interpreter::run(const tensor::Matrix &input) const {
  const Node &in_node = graph_.node(graph_.inputs()[0]);
  if (input.cols() != in_node.shape.cols) {
    throw std::invalid_argument("Interpreter: input column count mismatch");
  }
  if (!in_node.shape.rows.dynamic &&
      input.rows() != in_node.shape.rows.fixed) {
    throw std::invalid_argument("Interpreter: input row count mismatch");
  }
  const std::size_t dyn = input.rows();
  const KernelParams kp = reference_params();
  auto &pool = Kernel::default_pool();

  std::vector<Matrix> vals(graph_.size());
  for (const Node &node : graph_.nodes()) {
    if (node.op == OpKind::Input) {
      vals[node.id] = input;
      continue;
    }
    if (node.op == OpKind::Const) {
      vals[node.id] = node.value;
      continue;
    }
    std::vector<const Matrix *> operands;
    operands.reserve(node.inputs.size());
    for (const NodeId id : node.inputs) operands.push_back(&vals[id]);
    vals[node.id] = eval_node(node, operands, kp, pool);
    // Oracle-side sanity: the value realizes the inferred shape.
    if (vals[node.id].rows() != node.shape.rows.resolve(dyn) ||
        vals[node.id].cols() != node.shape.cols) {
      throw std::logic_error(std::string("Interpreter: ") +
                             op_info(node.op).name + " %" +
                             std::to_string(node.id) +
                             " result shape disagrees with inference");
    }
  }
  return vals[graph_.output()];
}

}  // namespace treu::graph
