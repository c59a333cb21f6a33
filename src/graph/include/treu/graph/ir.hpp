#pragma once

// treu::graph — a small dataflow graph IR over the repo's matrix ops.
//
// The hand-written nn forward passes (Dense / Conv1dSeq / MultiHeadAttention
// stacks) are lifted into this IR by the builders (builder.hpp), optimized by
// a pass pipeline (passes.hpp: constant folding, operator fusion, layout
// selection), and lowered to `tensor::Kernel` dispatches by compile()
// (plan.hpp). A reference interpreter (interp.hpp) executes the unoptimized
// graph and serves as the *bitwise oracle*: every pass is differential-tested
// against it (tests/compiler_test.cpp fuzzes random graphs across ISA /
// register-tile / batch sweeps).
//
// Bit-exactness ground rules, which every op's semantics are chosen around:
//  - All matmul-shaped work lowers to the register-tiled microkernel family
//    (ascending-k FMA accumulation), which is bitwise identical across ISA,
//    register-tile shape, cache tiling, row batching, and parallel
//    partition. The dot-style matvec is only ULP-bounded across ISAs, so
//    the IR never uses it: convolution is expressed as Im2Row + MatMul (the
//    lowering nn::Conv1dSeq shares through tensor::im2row), attention
//    scores as MatMul(Q, Transpose(K)).
//  - Everything else (activations, bias adds, pools, normalization, softmax)
//    is a fixed-order elementwise or per-row loop replicated exactly from the
//    nn layer implementations.
//  Consequence: compiled plans produce the same bits for any legal pass /
//  schedule / ISA choice, which is what makes differential testing against
//  the interpreter a sound gate rather than a tolerance game.
//
// Structural invariants (enforced by check_invariants in passes.hpp):
//  - Nodes are stored in a vector indexed by NodeId; every node's inputs have
//    strictly smaller ids, so the storage order IS a topological order and it
//    is stable across runs by construction.
//  - Shapes are (rows x cols) with cols always static; rows may be "dynamic"
//    (the batch / sequence extent, resolved at run time) carrying a constant
//    offset — Im2Row of a dynamic-length sequence has rows = dyn - width + 1.
//    A graph has at most one dynamic extent.
//  - Graph::add runs the op registry's shape inference immediately and throws
//    std::invalid_argument on any mismatch, so an ill-shaped graph cannot be
//    constructed through the public API (tests use node_mut to break graphs
//    deliberately).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "treu/tensor/kernels.hpp"
#include "treu/tensor/matrix.hpp"

namespace treu::graph {

using NodeId = std::size_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// One matrix dimension: either a static extent or "the graph's dynamic
/// extent plus a constant offset" (offset is never positive in practice:
/// valid-mode convolution shrinks the sequence axis).
struct Dim {
  bool dynamic = false;
  std::ptrdiff_t offset = 0;  // dynamic only: extent = dyn_extent + offset
  std::size_t fixed = 0;      // static only

  [[nodiscard]] static Dim dyn(std::ptrdiff_t off = 0) noexcept {
    Dim d;
    d.dynamic = true;
    d.offset = off;
    return d;
  }
  [[nodiscard]] static Dim of(std::size_t n) noexcept {
    Dim d;
    d.fixed = n;
    return d;
  }

  /// Concrete extent given the graph's dynamic extent; throws
  /// std::invalid_argument when dyn_extent + offset underflows to < 1.
  [[nodiscard]] std::size_t resolve(std::size_t dyn_extent) const;

  [[nodiscard]] std::string str() const;

  friend bool operator==(const Dim &, const Dim &) = default;
};

struct Shape {
  Dim rows;
  std::size_t cols = 0;

  [[nodiscard]] std::string str() const;

  friend bool operator==(const Shape &, const Shape &) = default;
};

/// The op vocabulary. Primitive ops come out of the builders; Fused* ops are
/// introduced only by the fusion passes and never by capture.
enum class OpKind {
  Input,          // placeholder for the graph's runtime operand
  Const,          // captured weight / bias / folded constant
  MatMul,         // a (r x k) @ b (k x n); lowers to the micro matmul family
  Transpose,      // static shapes only (a dynamic axis cannot become cols)
  RowBias,        // x + broadcast of a (1 x c) bias row
  Add,            // elementwise; shapes must match exactly
  Relu,           // max(v, 0), exactly as nn::ReLU
  Tanh,           // std::tanh elementwise
  Sigmoid,        // 1 / (1 + exp(-v)) elementwise
  Softmax,        // row-wise, max-subtracted (attention's softmax_rows)
  Scale,          // x * attrs.scale (Matrix::operator*= order)
  Im2Row,         // (seq x d) -> (seq - width + 1 x width * d) window flatten
  MeanPool,       // (seq x d) -> (1 x d) row mean, nn::MeanPool order
  GlobalMaxPool,  // (seq x d) -> (1 x d) column max, first-max-wins
  LayerNorm,      // x, gain (1 x c), bias (1 x c); attrs.eps
  ColSlice,       // columns [attrs.begin, attrs.end)
  Concat,         // column-wise concat of >= 1 inputs with equal row dims
  FusedMatMulBiasAct,  // x @ w + b then optional activation, one pass
  FusedConvReluPool,   // im2row + matmul + bias + relu + colmax, blockwise
};

inline constexpr std::size_t kOpKindCount =
    static_cast<std::size_t>(OpKind::FusedConvReluPool) + 1;

[[nodiscard]] const char *to_string(OpKind op) noexcept;

/// Activation selector for FusedMatMulBiasAct.
enum class Act : std::uint8_t { None = 0, Relu, Tanh, Sigmoid };

[[nodiscard]] const char *to_string(Act act) noexcept;

/// Per-node attributes; which fields matter depends on the op.
struct Attrs {
  double scale = 1.0;     // Scale
  double eps = 1e-5;      // LayerNorm
  std::size_t width = 0;  // Im2Row / FusedConvReluPool window width
  std::size_t begin = 0;  // ColSlice [begin, end)
  std::size_t end = 0;
  Act act = Act::None;  // FusedMatMulBiasAct

  /// Kernel dispatch knobs chosen by the layout-selection pass for
  /// matmul-backed ops. Only honored when kernel_set; the interpreter
  /// always ignores it (reference semantics).
  tensor::KernelParams kernel{};
  bool kernel_set = false;

  friend bool operator==(const Attrs &, const Attrs &) = default;
};

struct Node {
  NodeId id = 0;
  OpKind op = OpKind::Input;
  std::vector<NodeId> inputs;
  Attrs attrs;
  Shape shape;
  tensor::Matrix value;  // Const only
  std::string label;     // optional, for dumps and debugging
};

class Graph {
 public:
  /// Add the runtime input placeholder. `rows` defaults to the dynamic
  /// extent (batch rows / sequence length).
  NodeId add_input(std::size_t cols, Dim rows = Dim::dyn());

  /// Add a captured constant (weight, bias, folded value).
  NodeId add_const(tensor::Matrix value, std::string label = {});

  /// Add a compute node; inputs must be earlier node ids. Shape inference
  /// runs immediately (op registry) and throws std::invalid_argument on
  /// arity or shape violations.
  NodeId add(OpKind op, std::vector<NodeId> inputs, Attrs attrs = {},
             std::string label = {});

  void set_output(NodeId id);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node &node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::span<const NodeId> inputs() const noexcept {
    return input_ids_;
  }
  [[nodiscard]] bool has_output() const noexcept { return output_ != kNoNode; }
  [[nodiscard]] NodeId output() const;

  /// Mutable node access — for passes (layout selection rewrites attrs,
  /// weight reload swaps Const values) and for tests that deliberately
  /// corrupt a graph to exercise the invariant checker. Mutations bypass
  /// shape inference; run check_invariants afterwards.
  [[nodiscard]] Node &node_mut(NodeId id) { return nodes_.at(id); }

  /// Number of nodes with the given op.
  [[nodiscard]] std::size_t count(OpKind op) const noexcept;

  /// Stable textual dump, one line per node in id (= topological) order.
  /// Two structurally identical graphs produce identical strings — the
  /// determinism oracle for "pass output is stable across runs".
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Node> nodes_;
  std::vector<NodeId> input_ids_;
  NodeId output_ = kNoNode;
};

}  // namespace treu::graph
