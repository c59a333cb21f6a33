#include "treu/graph/builder.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "treu/nn/attention.hpp"
#include "treu/nn/conv.hpp"
#include "treu/nn/layers.hpp"

namespace treu::graph {
namespace {

using tensor::Matrix;

[[noreturn]] void unsupported(const nn::Layer &layer, const std::string &why) {
  throw std::invalid_argument("capture: layer '" + layer.name() + "': " + why);
}

std::size_t static_rows(const Graph &g, NodeId id, const nn::Layer &layer) {
  const Shape &s = g.node(id).shape;
  if (s.rows.dynamic) {
    unsupported(layer, "requires a static sequence length");
  }
  return s.rows.fixed;
}

/// y = x W + b as primitive nodes; Const ids appended in Dense::params()
/// order {W, b}.
NodeId capture_dense(Graph &g, NodeId x, nn::Dense &dense,
                     std::vector<NodeId> &params) {
  const NodeId w = g.add_const(dense.weight().value, "dense.w");
  const NodeId b = g.add_const(dense.bias().value, "dense.b");
  params.push_back(w);
  params.push_back(b);
  const NodeId mm = g.add(OpKind::MatMul, {x, w});
  return g.add(OpKind::RowBias, {mm, b});
}

NodeId capture_layernorm(Graph &g, NodeId x, nn::LayerNorm &ln,
                         std::vector<NodeId> &params) {
  const NodeId gain = g.add_const(ln.params()[0]->value, "ln.gain");
  const NodeId bias = g.add_const(ln.params()[1]->value, "ln.bias");
  params.push_back(gain);
  params.push_back(bias);
  Attrs attrs;
  attrs.eps = ln.eps();
  return g.add(OpKind::LayerNorm, {x, gain, bias}, attrs);
}

/// Conv1dSeq as Im2Row + MatMul against the *transposed* filter bank — the
/// lowering Conv1dSeq::forward itself runs: (patches x width*in) @
/// (width*in x filters) on the bitwise-invariant micro matmul. The
/// Transpose sits on the Const weight and folds away at compile time. The
/// captured Const keeps the layer's own (filters x width*in) layout so
/// weight digests and positional reloads match the source model.
NodeId capture_conv(Graph &g, NodeId x, nn::Conv1dSeq &conv,
                    std::vector<NodeId> &params) {
  const NodeId w = g.add_const(conv.params()[0]->value, "conv.w");
  const NodeId b = g.add_const(conv.params()[1]->value, "conv.b");
  params.push_back(w);
  params.push_back(b);
  const NodeId wt = g.add(OpKind::Transpose, {w});
  Attrs i2r;
  i2r.width = conv.width();
  const NodeId patches = g.add(OpKind::Im2Row, {x}, i2r);
  const NodeId mm = g.add(OpKind::MatMul, {patches, wt});
  return g.add(OpKind::RowBias, {mm, b});
}

/// Multi-head attention over a static-length sequence. Scores are
/// MatMul(Q_h, Transpose(K_h)): the same bits as the layer's
/// Kernel::matmul_transposed, which packs K_h^T and runs the micro matmul,
/// while keeping the transpose visible to the graph's passes.
NodeId capture_mha(Graph &g, NodeId x, nn::MultiHeadAttention &mha,
                   std::vector<NodeId> &params) {
  (void)static_rows(g, x, mha);  // Transpose(K_h) needs static rows
  const auto mha_params = mha.params();  // {wq, wk, wv, wo}
  const NodeId wq = g.add_const(mha_params[0]->value, "mha.wq");
  const NodeId wk = g.add_const(mha_params[1]->value, "mha.wk");
  const NodeId wv = g.add_const(mha_params[2]->value, "mha.wv");
  const NodeId wo = g.add_const(mha_params[3]->value, "mha.wo");
  for (const NodeId id : {wq, wk, wv, wo}) params.push_back(id);

  const std::size_t model_dim = mha_params[0]->value.cols();
  const std::size_t heads = mha.heads();
  const std::size_t head_dim = model_dim / heads;

  const NodeId q = g.add(OpKind::MatMul, {x, wq});
  const NodeId k = g.add(OpKind::MatMul, {x, wk});
  const NodeId v = g.add(OpKind::MatMul, {x, wv});

  std::vector<NodeId> head_outputs;
  head_outputs.reserve(heads);
  Attrs scale;
  scale.scale = 1.0 / std::sqrt(static_cast<double>(head_dim));
  for (std::size_t h = 0; h < heads; ++h) {
    Attrs cols;
    cols.begin = h * head_dim;
    cols.end = (h + 1) * head_dim;
    const NodeId qh = g.add(OpKind::ColSlice, {q}, cols);
    const NodeId kh = g.add(OpKind::ColSlice, {k}, cols);
    const NodeId vh = g.add(OpKind::ColSlice, {v}, cols);
    const NodeId kt = g.add(OpKind::Transpose, {kh});
    const NodeId scores = g.add(OpKind::MatMul, {qh, kt});
    const NodeId scaled = g.add(OpKind::Scale, {scores}, scale);
    const NodeId attn = g.add(OpKind::Softmax, {scaled});
    head_outputs.push_back(g.add(OpKind::MatMul, {attn, vh}));
  }
  const NodeId concat = g.add(OpKind::Concat, std::move(head_outputs));
  return g.add(OpKind::MatMul, {concat, wo});
}

/// Pre-norm transformer block: h = x + MHA(LN1(x)); y = h + FFN(LN2(h)).
/// Const creation follows TransformerBlock::params() order (mha, ln1, ln2,
/// ff1, ff2) even though the dataflow consumes ln1 first.
NodeId capture_transformer(Graph &g, NodeId x, nn::TransformerBlock &block,
                           std::vector<NodeId> &params) {
  (void)static_rows(g, x, block);
  std::vector<NodeId> mha_ids, ln1_ids, ln2_ids, ff1_ids, ff2_ids;
  const auto add_params = [&](std::vector<NodeId> &ids, nn::Layer &layer,
                              const char *tag) {
    for (nn::Param *p : layer.params()) {
      ids.push_back(g.add_const(p->value, tag));
    }
  };
  add_params(mha_ids, block.mha(), "tf.mha");
  add_params(ln1_ids, block.ln1(), "tf.ln1");
  add_params(ln2_ids, block.ln2(), "tf.ln2");
  add_params(ff1_ids, block.ff1(), "tf.ff1");
  add_params(ff2_ids, block.ff2(), "tf.ff2");
  for (const auto *ids : {&mha_ids, &ln1_ids, &ln2_ids, &ff1_ids, &ff2_ids}) {
    params.insert(params.end(), ids->begin(), ids->end());
  }

  const auto layernorm = [&](NodeId in, const std::vector<NodeId> &ids,
                             nn::LayerNorm &ln) {
    Attrs attrs;
    attrs.eps = ln.eps();
    return g.add(OpKind::LayerNorm, {in, ids[0], ids[1]}, attrs);
  };
  const auto dense = [&](NodeId in, const std::vector<NodeId> &ids) {
    const NodeId mm = g.add(OpKind::MatMul, {in, ids[0]});
    return g.add(OpKind::RowBias, {mm, ids[1]});
  };

  // Rebuild the attention dataflow on the pre-made consts. capture_mha owns
  // const creation, so inline the compute here against mha_ids.
  const NodeId ln1_out = layernorm(x, ln1_ids, block.ln1());
  nn::MultiHeadAttention &mha = block.mha();
  const std::size_t model_dim = mha.params()[0]->value.cols();
  const std::size_t heads = mha.heads();
  const std::size_t head_dim = model_dim / heads;
  const NodeId q = g.add(OpKind::MatMul, {ln1_out, mha_ids[0]});
  const NodeId k = g.add(OpKind::MatMul, {ln1_out, mha_ids[1]});
  const NodeId v = g.add(OpKind::MatMul, {ln1_out, mha_ids[2]});
  std::vector<NodeId> head_outputs;
  head_outputs.reserve(heads);
  Attrs scale;
  scale.scale = 1.0 / std::sqrt(static_cast<double>(head_dim));
  for (std::size_t h = 0; h < heads; ++h) {
    Attrs cols;
    cols.begin = h * head_dim;
    cols.end = (h + 1) * head_dim;
    const NodeId qh = g.add(OpKind::ColSlice, {q}, cols);
    const NodeId kh = g.add(OpKind::ColSlice, {k}, cols);
    const NodeId vh = g.add(OpKind::ColSlice, {v}, cols);
    const NodeId kt = g.add(OpKind::Transpose, {kh});
    const NodeId scores = g.add(OpKind::MatMul, {qh, kt});
    const NodeId scaled = g.add(OpKind::Scale, {scores}, scale);
    const NodeId attn = g.add(OpKind::Softmax, {scaled});
    head_outputs.push_back(g.add(OpKind::MatMul, {attn, vh}));
  }
  const NodeId concat = g.add(OpKind::Concat, std::move(head_outputs));
  const NodeId mha_out = g.add(OpKind::MatMul, {concat, mha_ids[3]});

  const NodeId h = g.add(OpKind::Add, {x, mha_out});
  const NodeId ln2_out = layernorm(h, ln2_ids, block.ln2());
  const NodeId ff1_out = dense(ln2_out, ff1_ids);
  const NodeId relu = g.add(OpKind::Relu, {ff1_out});
  const NodeId ff2_out = dense(relu, ff2_ids);
  return g.add(OpKind::Add, {h, ff2_out});
}

NodeId capture_posenc(Graph &g, NodeId x, nn::PositionalEncoding &pe,
                      std::vector<NodeId> &params) {
  (void)params;  // the table is a fixed function, not a trainable Param
  const std::size_t rows = static_rows(g, x, pe);
  const Matrix &table = pe.table();
  if (rows > table.rows() || g.node(x).shape.cols != table.cols()) {
    unsupported(pe, "activation shape exceeds the encoding table");
  }
  Matrix slice(rows, table.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < table.cols(); ++c) slice(r, c) = table(r, c);
  }
  const NodeId t = g.add_const(std::move(slice), "posenc.table");
  return g.add(OpKind::Add, {x, t});
}

NodeId capture_layer(Graph &g, NodeId cur, nn::Layer &layer,
                     std::vector<NodeId> &params);

NodeId capture_stack(Graph &g, NodeId cur, nn::Sequential &net,
                     std::vector<NodeId> &params) {
  for (std::size_t i = 0; i < net.depth(); ++i) {
    cur = capture_layer(g, cur, net.layer(i), params);
  }
  return cur;
}

NodeId capture_layer(Graph &g, NodeId cur, nn::Layer &layer,
                     std::vector<NodeId> &params) {
  if (auto *d = dynamic_cast<nn::Dense *>(&layer)) {
    return capture_dense(g, cur, *d, params);
  }
  if (dynamic_cast<nn::ReLU *>(&layer) != nullptr) {
    return g.add(OpKind::Relu, {cur});
  }
  if (dynamic_cast<nn::Tanh *>(&layer) != nullptr) {
    return g.add(OpKind::Tanh, {cur});
  }
  if (dynamic_cast<nn::Sigmoid *>(&layer) != nullptr) {
    return g.add(OpKind::Sigmoid, {cur});
  }
  if (dynamic_cast<nn::Dropout *>(&layer) != nullptr) {
    return cur;  // inference-time identity
  }
  if (auto *ln = dynamic_cast<nn::LayerNorm *>(&layer)) {
    return capture_layernorm(g, cur, *ln, params);
  }
  if (dynamic_cast<nn::MeanPool *>(&layer) != nullptr) {
    return g.add(OpKind::MeanPool, {cur});
  }
  if (dynamic_cast<nn::GlobalMaxPool *>(&layer) != nullptr) {
    return g.add(OpKind::GlobalMaxPool, {cur});
  }
  if (auto *conv = dynamic_cast<nn::Conv1dSeq *>(&layer)) {
    return capture_conv(g, cur, *conv, params);
  }
  if (auto *mha = dynamic_cast<nn::MultiHeadAttention *>(&layer)) {
    return capture_mha(g, cur, *mha, params);
  }
  if (auto *block = dynamic_cast<nn::TransformerBlock *>(&layer)) {
    return capture_transformer(g, cur, *block, params);
  }
  if (auto *pe = dynamic_cast<nn::PositionalEncoding *>(&layer)) {
    return capture_posenc(g, cur, *pe, params);
  }
  if (auto *seq = dynamic_cast<nn::Sequential *>(&layer)) {
    return capture_stack(g, cur, *seq, params);
  }
  unsupported(layer, "no capture rule for this layer type");
}

}  // namespace

Captured capture_sequential(nn::Sequential &net, std::size_t input_cols,
                            Dim input_rows) {
  Captured captured;
  const NodeId input = captured.graph.add_input(input_cols, input_rows);
  const NodeId out =
      capture_stack(captured.graph, input, net, captured.params);
  captured.graph.set_output(out);
  return captured;
}

Captured capture_mlp(nn::MlpClassifier &model) {
  nn::Sequential &net = model.network();
  for (std::size_t i = 0; i < net.depth(); ++i) {
    if (auto *d = dynamic_cast<nn::Dense *>(&net.layer(i))) {
      return capture_sequential(net, d->weight().value.rows(), Dim::dyn());
    }
  }
  throw std::invalid_argument("capture_mlp: model has no Dense layer");
}

}  // namespace treu::graph
