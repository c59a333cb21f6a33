#pragma once

// Builders: capture the hand-written nn forward passes as graphs.
//
// capture_sequential walks a Sequential layer by layer (dynamic_cast over
// the concrete layer types) and emits the primitive-op dataflow each layer
// computes at inference time. The captured graph, run through the reference
// interpreter, is bitwise identical to the hand-written forward: Dense,
// Conv1dSeq and attention all run on the register-tiled micro matmul, and
// the graph lowers them the same way — Conv1dSeq as Im2Row + MatMul (the
// shared tensor::im2row), attention scores as MatMul(Q, Transpose(K)),
// which is what Kernel::matmul_transposed computes after packing K^T. Every
// other op replicates the nn layer's loop exactly, so the agreement holds
// for whole MLP, conv and transformer stacks (compiler_test's Capture
// suite).
//
// Captured weights become Const nodes; their ids are returned in the exact
// order the model's params() lists them, so a captured graph's weight set
// digests identically to the source model's (nn::weight_digest order) and
// hot-reload flows can address weights positionally.

#include <vector>

#include "treu/graph/ir.hpp"
#include "treu/nn/layer.hpp"
#include "treu/nn/mlp.hpp"

namespace treu::graph {

struct Captured {
  Graph graph;
  /// Const node ids of the captured parameters, in params() order (one per
  /// nn::Param: Dense contributes {W, b}, LayerNorm {gain, bias}, ...).
  std::vector<NodeId> params;
};

/// Capture a Sequential taking (rows x input_cols) activations. Dynamic rows
/// (the default) captures batch/sequence-length polymorphic graphs; layers
/// that need a static sequence length (MultiHeadAttention, TransformerBlock,
/// PositionalEncoding) require `input_rows` to be static and throw
/// std::invalid_argument otherwise. Unsupported layers throw with the layer
/// name in the message. Dropout captures as identity (inference semantics).
[[nodiscard]] Captured capture_sequential(nn::Sequential &net,
                                          std::size_t input_cols,
                                          Dim input_rows = Dim::dyn());

/// Capture an MlpClassifier's Dense/ReLU stack with a dynamic batch axis.
[[nodiscard]] Captured capture_mlp(nn::MlpClassifier &model);

}  // namespace treu::graph
