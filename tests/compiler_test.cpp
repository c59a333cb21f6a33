// Differential-testing harness for the graph compiler (treu::graph).
//
// The oracle is the reference Interpreter on the *unoptimized* graph; the
// contract under test is that every pass — alone and in pipeline order —
// and every compiled Plan produce bitwise-identical outputs across ISA,
// register-tile, and batch sweeps. A seeded graph fuzzer holds that line
// over >= 1000 random graphs per run (replayable via TREU_FUZZ_SEED); the
// invariant checker is exercised on deliberately corrupted graphs; capture
// parity pins compiled plans against the hand-written nn forward passes;
// and a compiled PlanPredictor is served through serve::BatchServer with
// digest-validated hot reload.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "treu/core/rng.hpp"
#include "treu/graph/builder.hpp"
#include "treu/graph/interp.hpp"
#include "treu/graph/ir.hpp"
#include "treu/graph/ops.hpp"
#include "treu/graph/passes.hpp"
#include "treu/graph/plan.hpp"
#include "treu/graph/plan_predictor.hpp"
#include "treu/nn/attention.hpp"
#include "treu/nn/conv.hpp"
#include "treu/nn/layers.hpp"
#include "treu/nn/mlp.hpp"
#include "treu/nn/param.hpp"
#include "treu/sched/schedule.hpp"
#include "treu/serve/batch_server.hpp"
#include "treu/tensor/kernels.hpp"
#include "treu/tensor/matrix.hpp"

namespace tg = treu::graph;
namespace tt = treu::tensor;
namespace tn = treu::nn;

namespace {

tt::Matrix rand_matrix(treu::core::Rng &rng, std::size_t rows,
                       std::size_t cols) {
  return tt::Matrix::random_uniform(rows, cols, rng, -1.0, 1.0);
}

/// Bitwise equality: same dims, same bytes (distinguishes -0.0 from +0.0,
/// which double operator== does not).
::testing::AssertionResult bitwise_equal(const tt::Matrix &a,
                                         const tt::Matrix &b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "first bit difference at flat index " << i << " (of "
             << a.rows() << "x" << a.cols() << "): " << a.data()[i] << " vs "
             << b.data()[i];
    }
  }
  return ::testing::AssertionFailure() << "byte difference without element "
                                          "difference (padding?)";
}

::testing::AssertionResult bits_equal(const std::vector<double> &a,
                                      const std::vector<double> &b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (a.empty() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "logit bits differ";
}

/// ULP-scale closeness, for compiled-vs-hand-written parity of whole
/// stacks. conv (Im2Row + matmul) and attention (matmul_transposed) run on
/// bitwise-invariant kernels, and those layers alone match the oracle bit
/// for bit (the Capture.*BitwiseIdentical* tests); this check predates them.
void expect_close(const tt::Matrix &a, const tt::Matrix &b,
                  const char *what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const double scale =
          std::max({1.0, std::abs(a(r, c)), std::abs(b(r, c))});
      EXPECT_NEAR(a(r, c), b(r, c), 1e-9 * scale)
          << what << " at (" << r << ", " << c << ")";
    }
  }
}

/// Tiny dense graph: input -> matmul -> rowbias -> relu, for invariant and
/// pass tests. Output is the relu.
tg::Graph small_dense_graph(treu::core::Rng &rng) {
  tg::Graph g;
  const tg::NodeId x = g.add_input(4);
  const tg::NodeId w = g.add_const(rand_matrix(rng, 4, 3), "w");
  const tg::NodeId b = g.add_const(rand_matrix(rng, 1, 3), "b");
  const tg::NodeId mm = g.add(tg::OpKind::MatMul, {x, w});
  const tg::NodeId rb = g.add(tg::OpKind::RowBias, {mm, b});
  g.set_output(g.add(tg::OpKind::Relu, {rb}));
  return g;
}

/// Kernel-parameter sweep the fuzzer compiles under: scalar micro tiles,
/// a parallel partition, and (when the host has it) AVX2 tiles. Under
/// TREU_FORCE_ISA=scalar the AVX2 entries vanish and dispatch pins the
/// rest — the parity assertions are identical either way, which is what
/// the forced-scalar CI job re-runs.
std::vector<tt::KernelParams> sweep_configs() {
  std::vector<tt::KernelParams> configs;
  tt::KernelParams p;
  p.isa = tt::Isa::Scalar;
  p.rtile_m = 4;
  p.rtile_n = 8;
  configs.push_back(p);
  p.rtile_m = 6;
  p.rtile_n = 16;
  configs.push_back(p);
  p.rtile_m = 2;
  p.rtile_n = 8;
  p.parallel = true;
  configs.push_back(p);
  if (tt::Kernel::available(tt::Isa::Avx2)) {
    tt::KernelParams q;
    q.isa = tt::Isa::Avx2;
    q.rtile_m = 6;
    q.rtile_n = 16;
    configs.push_back(q);
    q.rtile_m = 4;
    q.rtile_n = 8;
    q.parallel = true;
    configs.push_back(q);
  }
  return configs;
}

}  // namespace

// --- Op registry and shape inference ----------------------------------------

TEST(OpRegistry, NamesAndArities) {
  EXPECT_STREQ(tg::op_info(tg::OpKind::MatMul).name, "matmul");
  EXPECT_EQ(tg::op_info(tg::OpKind::MatMul).min_arity, 2u);
  EXPECT_EQ(tg::op_info(tg::OpKind::MatMul).max_arity, 2u);
  EXPECT_EQ(tg::op_info(tg::OpKind::LayerNorm).min_arity, 3u);
  EXPECT_EQ(tg::op_info(tg::OpKind::Concat).min_arity, 1u);
  EXPECT_TRUE(tg::op_info(tg::OpKind::Input).source);
  EXPECT_TRUE(tg::op_info(tg::OpKind::Const).source);
  EXPECT_FALSE(tg::op_info(tg::OpKind::FusedConvReluPool).source);
  // Every op kind has a registered, distinct-looking name.
  for (std::size_t i = 0; i < tg::kOpKindCount; ++i) {
    EXPECT_NE(tg::to_string(static_cast<tg::OpKind>(i)), nullptr);
  }
}

TEST(ShapeInference, RejectsIllFormedConstruction) {
  treu::core::Rng rng(1);
  tg::Graph g;
  const tg::NodeId x = g.add_input(4);
  const tg::NodeId w = g.add_const(rand_matrix(rng, 4, 3));
  const tg::NodeId b = g.add_const(rand_matrix(rng, 1, 3));

  // Arity outside registry bounds.
  EXPECT_THROW((void)g.add(tg::OpKind::MatMul, {x}), std::invalid_argument);
  EXPECT_THROW((void)g.add(tg::OpKind::Relu, {x, w}), std::invalid_argument);
  // Inner-dimension mismatch and dynamic rhs.
  EXPECT_THROW((void)g.add(tg::OpKind::MatMul, {x, b}),
               std::invalid_argument);
  EXPECT_THROW((void)g.add(tg::OpKind::MatMul, {x, x}),
               std::invalid_argument);
  // Transpose of a dynamic-row operand cannot become static columns.
  EXPECT_THROW((void)g.add(tg::OpKind::Transpose, {x}),
               std::invalid_argument);
  // RowBias wants a (1 x cols) bias.
  EXPECT_THROW((void)g.add(tg::OpKind::RowBias, {x, w}),
               std::invalid_argument);
  // Add wants identical shapes.
  EXPECT_THROW((void)g.add(tg::OpKind::Add, {x, w}), std::invalid_argument);
  // Im2Row wants a nonzero window that fits a static sequence.
  tg::Attrs zero_w;
  zero_w.width = 0;
  EXPECT_THROW((void)g.add(tg::OpKind::Im2Row, {x}, zero_w),
               std::invalid_argument);
  tg::Attrs wide;
  wide.width = 9;  // w is 4 rows
  EXPECT_THROW((void)g.add(tg::OpKind::Im2Row, {w}, wide),
               std::invalid_argument);
  // ColSlice bounds.
  tg::Attrs bad_slice;
  bad_slice.begin = 2;
  bad_slice.end = 2;
  EXPECT_THROW((void)g.add(tg::OpKind::ColSlice, {x}, bad_slice),
               std::invalid_argument);
  bad_slice.end = 7;
  EXPECT_THROW((void)g.add(tg::OpKind::ColSlice, {x}, bad_slice),
               std::invalid_argument);
  // LayerNorm needs positive eps and (1 x cols) params.
  const tg::NodeId gain = g.add_const(rand_matrix(rng, 1, 4));
  const tg::NodeId bias = g.add_const(rand_matrix(rng, 1, 4));
  tg::Attrs ln;
  ln.eps = 0.0;
  EXPECT_THROW((void)g.add(tg::OpKind::LayerNorm, {x, gain, bias}, ln),
               std::invalid_argument);
  // Concat needs matching row dims.
  EXPECT_THROW((void)g.add(tg::OpKind::Concat, {x, w}),
               std::invalid_argument);
  // Out-of-range producer id.
  EXPECT_THROW((void)g.add(tg::OpKind::Relu, {g.size() + 7}),
               std::invalid_argument);
  // Nothing above should have been inserted.
  EXPECT_EQ(g.size(), 5u);
}

TEST(ShapeInference, DynamicRowsPropagateThroughIm2Row) {
  tg::Graph g;
  const tg::NodeId x = g.add_input(3);  // N x 3
  tg::Attrs w;
  w.width = 3;
  const tg::NodeId patches = g.add(tg::OpKind::Im2Row, {x}, w);
  const tg::Shape &s = g.node(patches).shape;
  EXPECT_TRUE(s.rows.dynamic);
  EXPECT_EQ(s.rows.offset, -2);
  EXPECT_EQ(s.cols, 9u);
  EXPECT_EQ(s.rows.resolve(10), 8u);
  EXPECT_EQ(s.rows.resolve(3), 1u);
  EXPECT_THROW((void)s.rows.resolve(2), std::invalid_argument);
  EXPECT_EQ(s.rows.str(), "N-2");
}

// --- Invariant checker on deliberately broken graphs ------------------------

TEST(Invariants, AcceptsWellFormedAndCompiledGraphs) {
  treu::core::Rng rng(2);
  tg::Graph g = small_dense_graph(rng);
  EXPECT_NO_THROW(tg::check_invariants(g));
  const tg::Plan plan = tg::compile(g, {});
  EXPECT_NO_THROW(tg::check_invariants(plan.graph()));
}

TEST(Invariants, CatchesDanglingProducer) {
  treu::core::Rng rng(3);
  tg::Graph g = small_dense_graph(rng);
  g.node_mut(3).inputs[0] = 99;  // matmul now reads a node that doesn't exist
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
}

TEST(Invariants, CatchesTopologicalOrderViolation) {
  treu::core::Rng rng(4);
  tg::Graph g = small_dense_graph(rng);
  g.node_mut(3).inputs[0] = 4;  // matmul reads the later rowbias
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
  g.node_mut(3).inputs[0] = 3;  // self-loop
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
}

TEST(Invariants, CatchesCorruptedStoredShape) {
  treu::core::Rng rng(5);
  tg::Graph g = small_dense_graph(rng);
  g.node_mut(4).shape.cols = 17;  // rowbias claims a shape inference rejects
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
}

TEST(Invariants, CatchesConstValueShapeMismatch) {
  treu::core::Rng rng(6);
  tg::Graph g = small_dense_graph(rng);
  g.node_mut(1).value = rand_matrix(rng, 2, 2);  // w no longer 4x3
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
}

TEST(Invariants, CatchesBadAttributes) {
  tg::Graph g;
  const tg::NodeId x = g.add_input(4);
  tg::Attrs slice;
  slice.begin = 1;
  slice.end = 3;
  const tg::NodeId s = g.add(tg::OpKind::ColSlice, {x}, slice);
  g.set_output(s);
  EXPECT_NO_THROW(tg::check_invariants(g));
  g.node_mut(s).attrs.end = 9;  // past the operand's columns
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);

  tg::Graph h;
  const tg::NodeId y = h.add_input(3);
  tg::Attrs w;
  w.width = 2;
  const tg::NodeId p = h.add(tg::OpKind::Im2Row, {y}, w);
  h.set_output(p);
  h.node_mut(p).attrs.width = 0;
  EXPECT_THROW(tg::check_invariants(h), tg::GraphInvariantError);
}

TEST(Invariants, CatchesArityViolation) {
  treu::core::Rng rng(7);
  tg::Graph g = small_dense_graph(rng);
  g.node_mut(5).inputs.push_back(0);  // relu with two operands
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
  g.node_mut(5).inputs.clear();  // relu with none
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
}

TEST(Invariants, CatchesUnregisteredInputNode) {
  treu::core::Rng rng(8);
  tg::Graph g = small_dense_graph(rng);
  // Turn the relu into a second Input the graph never registered.
  g.node_mut(5).op = tg::OpKind::Input;
  g.node_mut(5).inputs.clear();
  EXPECT_THROW(tg::check_invariants(g), tg::GraphInvariantError);
}

// --- Individual passes ------------------------------------------------------

TEST(Passes, ConstantFoldingCascades) {
  treu::core::Rng rng(9);
  tg::Graph g;
  const tg::NodeId x = g.add_input(3);
  const tg::NodeId c = g.add_const(rand_matrix(rng, 5, 3), "w");
  const tg::NodeId ct = g.add(tg::OpKind::Transpose, {c});
  tg::Attrs half;
  half.scale = 0.5;
  const tg::NodeId cs = g.add(tg::OpKind::Scale, {ct}, half);
  const tg::NodeId mm = g.add(tg::OpKind::MatMul, {x, cs});
  g.set_output(mm);

  std::size_t folded = 0;
  const tg::Graph out = tg::fold_constants(g, &folded);
  tg::check_invariants(out);
  // Transpose folds to a Const, which lets the Scale fold too.
  EXPECT_EQ(folded, 2u);
  EXPECT_EQ(out.count(tg::OpKind::Transpose), 0u);
  EXPECT_EQ(out.count(tg::OpKind::Scale), 0u);

  const tt::Matrix in = rand_matrix(rng, 6, 3);
  EXPECT_TRUE(bitwise_equal(tg::Interpreter(g).run(in),
                            tg::Interpreter(out).run(in)));
}

TEST(Passes, DenseFusionClaimsActivationChains) {
  treu::core::Rng rng(10);
  tg::Graph g = small_dense_graph(rng);
  std::size_t fused = 0;
  const tg::Graph out = tg::fuse_dense(g, &fused);
  tg::check_invariants(out);
  EXPECT_EQ(fused, 1u);
  EXPECT_EQ(out.count(tg::OpKind::FusedMatMulBiasAct), 1u);
  EXPECT_EQ(out.count(tg::OpKind::MatMul), 0u);
  EXPECT_EQ(out.count(tg::OpKind::RowBias), 0u);
  EXPECT_EQ(out.count(tg::OpKind::Relu), 0u);

  const tt::Matrix in = rand_matrix(rng, 7, 4);
  EXPECT_TRUE(bitwise_equal(tg::Interpreter(g).run(in),
                            tg::Interpreter(out).run(in)));
}

TEST(Passes, FusionRespectsMultiUseProducers) {
  treu::core::Rng rng(11);
  tg::Graph g;
  const tg::NodeId x = g.add_input(4);
  const tg::NodeId w = g.add_const(rand_matrix(rng, 4, 4), "w");
  const tg::NodeId b = g.add_const(rand_matrix(rng, 1, 4), "b");
  const tg::NodeId mm = g.add(tg::OpKind::MatMul, {x, w});
  const tg::NodeId rb = g.add(tg::OpKind::RowBias, {mm, b});
  // The matmul has a second consumer, so the chain must not fuse.
  g.set_output(g.add(tg::OpKind::Add, {rb, mm}));

  std::size_t fused = 0;
  const tg::Graph out = tg::fuse_dense(g, &fused);
  tg::check_invariants(out);
  EXPECT_EQ(fused, 0u);
  EXPECT_EQ(out.count(tg::OpKind::MatMul), 1u);

  const tt::Matrix in = rand_matrix(rng, 5, 4);
  EXPECT_TRUE(bitwise_equal(tg::Interpreter(g).run(in),
                            tg::Interpreter(out).run(in)));
}

TEST(Passes, FusionNeverConsumesTheGraphOutput) {
  treu::core::Rng rng(12);
  tg::Graph g;
  const tg::NodeId x = g.add_input(4);
  const tg::NodeId w = g.add_const(rand_matrix(rng, 4, 3), "w");
  const tg::NodeId b = g.add_const(rand_matrix(rng, 1, 3), "b");
  const tg::NodeId mm = g.add(tg::OpKind::MatMul, {x, w});
  const tg::NodeId rb = g.add(tg::OpKind::RowBias, {mm, b});
  (void)g.add(tg::OpKind::Relu, {rb});  // dead relu over the output
  g.set_output(rb);

  std::size_t fused = 0;
  const tg::Graph out = tg::fuse_dense(g, &fused);
  tg::check_invariants(out);
  // The relu cannot claim the chain (rowbias is also the output), but the
  // bare rowbias anchor still collapses it with act=None.
  EXPECT_EQ(fused, 1u);
  const tg::Node &o = out.node(out.output());
  EXPECT_EQ(o.op, tg::OpKind::FusedMatMulBiasAct);
  EXPECT_EQ(o.attrs.act, tg::Act::None);

  const tt::Matrix in = rand_matrix(rng, 6, 4);
  EXPECT_TRUE(bitwise_equal(tg::Interpreter(g).run(in),
                            tg::Interpreter(out).run(in)));
}

TEST(Passes, DeadCodeEliminationKeepsInputs) {
  treu::core::Rng rng(13);
  tg::Graph g;
  const tg::NodeId x = g.add_input(3);
  const tg::NodeId c = g.add_const(rand_matrix(rng, 1, 3), "c");
  (void)g.add(tg::OpKind::Relu, {x});     // dead
  (void)g.add(tg::OpKind::Softmax, {c});  // dead
  g.set_output(c);

  std::size_t removed = 0;
  const tg::Graph out = tg::eliminate_dead(g, &removed);
  tg::check_invariants(out);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(out.inputs().size(), 1u);  // calling convention survives

  // A plan that ignores its input still accepts one.
  const tg::Plan plan = tg::compile(g, {});
  const tt::Matrix in = rand_matrix(rng, 4, 3);
  EXPECT_TRUE(bitwise_equal(plan.run(in), g.node(c).value));
}

TEST(Passes, LayoutSelectionEnablesZeroSkipOnlyAfterRelu) {
  treu::core::Rng rng(14);
  tg::Graph g;
  const tg::NodeId x = g.add_input(4);
  const tg::NodeId w1 = g.add_const(rand_matrix(rng, 4, 5), "w1");
  const tg::NodeId w2 = g.add_const(rand_matrix(rng, 5, 3), "w2");
  const tg::NodeId mm1 = g.add(tg::OpKind::MatMul, {x, w1});
  const tg::NodeId act = g.add(tg::OpKind::Relu, {mm1});
  const tg::NodeId mm2 = g.add(tg::OpKind::MatMul, {act, w2});
  g.set_output(mm2);

  tt::KernelParams base;  // Scalar with no register tile
  tg::select_layout(g, base);
  tg::check_invariants(g);
  const tg::Node &n1 = g.node(mm1);
  const tg::Node &n2 = g.node(mm2);
  ASSERT_TRUE(n1.attrs.kernel_set);
  ASSERT_TRUE(n2.attrs.kernel_set);
  // Normalized onto the micro path: a scalar request never keeps the legacy
  // (non-FMA) nests that would break the bitwise contract.
  EXPECT_NE(n1.attrs.kernel.rtile_m, 0u);
  EXPECT_NE(n1.attrs.kernel.rtile_n, 0u);
  EXPECT_FALSE(n1.attrs.kernel.skip_zero_a);  // fed by the raw input
  EXPECT_TRUE(n2.attrs.kernel.skip_zero_a);   // fed by the relu
}

TEST(Passes, PipelineOutputIsDeterministic) {
  treu::core::Rng rng(15);
  tn::MlpClassifier model(6, {10, 8}, 4, rng);
  const tg::Plan a = tg::compile(tg::capture_mlp(model).graph, {});
  const tg::Plan b = tg::compile(tg::capture_mlp(model).graph, {});
  EXPECT_EQ(a.graph().to_string(), b.graph().to_string());
  EXPECT_FALSE(a.graph().to_string().empty());
}

// --- compile() pipeline and Plan execution ----------------------------------

TEST(Compile, RejectsUnusableGraphs) {
  tg::Graph no_output;
  (void)no_output.add_input(3);
  EXPECT_THROW((void)tg::compile(no_output, {}), std::logic_error);

  tg::Graph two_inputs;
  const tg::NodeId a = two_inputs.add_input(3);
  (void)two_inputs.add_input(3);
  two_inputs.set_output(a);
  EXPECT_THROW((void)tg::compile(two_inputs, {}), std::invalid_argument);
}

TEST(Compile, ReportAccountsForEveryPass) {
  treu::core::Rng rng(16);
  tn::MlpClassifier model(6, {12, 8}, 3, rng);
  const tg::Plan plan = tg::compile(tg::capture_mlp(model).graph, {});
  const tg::CompileReport &r = plan.report();
  // Three Dense layers -> three fused matmuls, nothing left unfused.
  EXPECT_EQ(r.dense_fused, 3u);
  EXPECT_EQ(plan.graph().count(tg::OpKind::FusedMatMulBiasAct), 3u);
  EXPECT_EQ(plan.graph().count(tg::OpKind::MatMul), 0u);
  EXPECT_EQ(plan.graph().count(tg::OpKind::RowBias), 0u);
  EXPECT_EQ(plan.graph().count(tg::OpKind::Relu), 0u);
  EXPECT_LT(r.nodes_after, r.nodes_before);
  EXPECT_EQ(r.pass_log.size(), 5u);
  EXPECT_GE(r.compile_seconds, 0.0);
}

TEST(Compile, PlanValidatesItsInput) {
  treu::core::Rng rng(17);
  const tg::Plan plan = tg::compile(small_dense_graph(rng), {});
  EXPECT_THROW((void)plan.run(rand_matrix(rng, 3, 7)),
               std::invalid_argument);
  EXPECT_NO_THROW((void)plan.run(rand_matrix(rng, 3, 4)));
}

TEST(Compile, RuntimeSequenceShorterThanWindowThrows) {
  treu::core::Rng rng(18);
  tg::Graph g;
  const tg::NodeId x = g.add_input(3);
  tg::Attrs w;
  w.width = 4;
  g.set_output(g.add(tg::OpKind::Im2Row, {x}, w));
  const tg::Interpreter interp(g);
  EXPECT_NO_THROW((void)interp.run(rand_matrix(rng, 4, 3)));
  EXPECT_THROW((void)interp.run(rand_matrix(rng, 2, 3)),
               std::invalid_argument);
}

TEST(Compile, ScheduleDrivesLowering) {
  treu::core::Rng rng(19);
  // An autotuned-style schedule string naming .isa(avx2).rtile(6x16): the
  // round-trip through sched::Schedule::parse is the "schedules as code"
  // path the autotuner persists its winners through.
  treu::sched::Schedule want;
  want.kernel = treu::sched::KernelKind::MatMul;
  want.params.isa = tt::Isa::Avx2;
  want.params.rtile_m = 6;
  want.params.rtile_n = 16;
  const std::string text = want.to_string();
  EXPECT_NE(text.find(".isa(avx2)"), std::string::npos);
  EXPECT_NE(text.find(".rtile(6x16)"), std::string::npos);
  const auto parsed = treu::sched::Schedule::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, want);

  tg::CompileOptions opts;
  opts.schedule = *parsed;
  tg::Graph g = small_dense_graph(rng);
  const tg::Plan plan = tg::compile(g, opts);
  bool saw_annotated = false;
  for (const tg::Node &n : plan.graph().nodes()) {
    if (!n.attrs.kernel_set) continue;
    saw_annotated = true;
    // The annotation records the *requested* backend; the availability
    // clamp (and any TREU_FORCE_ISA pin) lives in dispatch, so the same
    // compiled plan is portable across hosts.
    EXPECT_EQ(n.attrs.kernel.isa, tt::Isa::Avx2);
    EXPECT_EQ(n.attrs.kernel.rtile_m, 6u);
    EXPECT_EQ(n.attrs.kernel.rtile_n, 16u);
  }
  EXPECT_TRUE(saw_annotated);

  // Whatever the host clamps the request to, output is bitwise the oracle's.
  const tt::Matrix in = rand_matrix(rng, 9, 4);
  EXPECT_TRUE(bitwise_equal(tg::Interpreter(g).run(in), plan.run(in)));
}

// --- Capture parity against the hand-written forward passes -----------------

TEST(Capture, MlpPlanIsBitwiseIdenticalToHandWrittenForward) {
  treu::core::Rng rng(20);
  tn::MlpClassifier model(7, {16, 12}, 5, rng);
  tg::Captured captured = tg::capture_mlp(model);
  const tg::Plan plan = tg::compile(captured.graph, {});

  for (const std::size_t batch : {1u, 3u, 17u}) {
    const tt::Matrix x = rand_matrix(rng, batch, 7);
    const tt::Matrix hand = model.logits(x);
    EXPECT_TRUE(bitwise_equal(hand, plan.run(x))) << "batch " << batch;
    EXPECT_TRUE(bitwise_equal(hand, tg::Interpreter(captured.graph).run(x)))
        << "batch " << batch;
  }
}

TEST(Capture, ConvStackMatchesOracleBitwiseAndHandWrittenToUlp) {
  treu::core::Rng rng(21);
  tn::Sequential net;
  net.emplace<tn::Conv1dSeq>(4, 6, 3, rng);
  net.emplace<tn::ReLU>();
  net.emplace<tn::GlobalMaxPool>();
  net.emplace<tn::Dense>(6, 3, rng);
  tg::Captured captured = tg::capture_sequential(net, 4);

  const tg::Plan plan = tg::compile(captured.graph, {});
  EXPECT_EQ(plan.report().conv_fused, 1u);
  EXPECT_EQ(plan.graph().count(tg::OpKind::FusedConvReluPool), 1u);
  // The Transpose on the conv filter bank folded into a Const.
  EXPECT_GE(plan.report().folded, 1u);
  EXPECT_EQ(plan.graph().count(tg::OpKind::Transpose), 0u);

  const tg::Interpreter interp(captured.graph);
  for (const std::size_t seq : {3u, 9u, 24u}) {
    const tt::Matrix x = rand_matrix(rng, seq, 4);
    // The graph's own semantics are bitwise stable...
    EXPECT_TRUE(bitwise_equal(interp.run(x), plan.run(x))) << "seq " << seq;
    // ...and ULP-close to the hand-written stack. Its conv runs on the
    // same Im2Row + matmul and alone is bitwise equal to the oracle (see
    // Conv1dSeqForwardIsBitwiseIdenticalToOracleAndFusedPlan).
    expect_close(net.forward(x), plan.run(x), "conv stack");
  }
}

TEST(Capture, Conv1dSeqForwardIsBitwiseIdenticalToOracleAndFusedPlan) {
  // Conv1dSeq::forward and the graph share one lowering (im2row + micro
  // matmul + bias row), so the hand-written layer, the interpreter and the
  // compiled plan agree to the last bit — alone and inside the
  // conv -> relu -> maxpool chain that fuse_conv collapses.
  treu::core::Rng rng(24);
  tn::Sequential conv_only;
  conv_only.emplace<tn::Conv1dSeq>(5, 7, 3, rng);
  tg::Captured single = tg::capture_sequential(conv_only, 5);
  const tg::Plan single_plan = tg::compile(single.graph, {});
  const tg::Interpreter single_interp(single.graph);

  tn::Sequential chain;
  chain.emplace<tn::Conv1dSeq>(5, 7, 3, rng);
  chain.emplace<tn::ReLU>();
  chain.emplace<tn::GlobalMaxPool>();
  tg::Captured fused = tg::capture_sequential(chain, 5);
  tg::CompileOptions opts;
  opts.fuse_conv = true;
  const tg::Plan fused_plan = tg::compile(fused.graph, opts);
  ASSERT_EQ(fused_plan.report().conv_fused, 1u);
  const tg::Interpreter fused_interp(fused.graph);

  for (const std::size_t seq : {3u, 10u, 70u}) {  // 70 spans two fused blocks
    const tt::Matrix x = rand_matrix(rng, seq, 5);
    const tt::Matrix hand = conv_only.forward(x);
    EXPECT_TRUE(bitwise_equal(hand, single_interp.run(x))) << "seq " << seq;
    EXPECT_TRUE(bitwise_equal(hand, single_plan.run(x))) << "seq " << seq;
    const tt::Matrix pooled = chain.forward(x);
    EXPECT_TRUE(bitwise_equal(pooled, fused_interp.run(x))) << "seq " << seq;
    EXPECT_TRUE(bitwise_equal(pooled, fused_plan.run(x))) << "seq " << seq;
  }
}

TEST(Capture, AttentionForwardIsBitwiseIdenticalToOracle) {
  // attention's scores run on matmul_transposed, which packs K^T onto the
  // micro matmul — the graph's MatMul(Q, Transpose(K)) bit for bit.
  treu::core::Rng rng(25);
  const std::size_t seq = 7;
  tn::Sequential mha;
  mha.emplace<tn::MultiHeadAttention>(8, 2, rng);
  tn::Sequential block;
  block.emplace<tn::TransformerBlock>(8, 2, 16, rng);
  for (tn::Sequential *net : {&mha, &block}) {
    tg::Captured captured = tg::capture_sequential(*net, 8, tg::Dim::of(seq));
    const tg::Plan plan = tg::compile(captured.graph, {});
    const tt::Matrix x = rand_matrix(rng, seq, 8);
    const tt::Matrix hand = net->forward(x);
    EXPECT_TRUE(bitwise_equal(hand, tg::Interpreter(captured.graph).run(x)));
    EXPECT_TRUE(bitwise_equal(hand, plan.run(x)));
  }
}

TEST(Capture, TransformerBlockMatchesOracleBitwiseAndHandWrittenToUlp) {
  treu::core::Rng rng(22);
  const std::size_t seq = 5;
  tn::Sequential net;
  net.emplace<tn::TransformerBlock>(8, 2, 16, rng);
  tg::Captured captured = tg::capture_sequential(net, 8, tg::Dim::of(seq));

  const tg::Plan plan = tg::compile(captured.graph, {});
  const tt::Matrix x = rand_matrix(rng, seq, 8);
  EXPECT_TRUE(bitwise_equal(tg::Interpreter(captured.graph).run(x),
                            plan.run(x)));
  expect_close(net.forward(x), plan.run(x), "transformer block");
}

TEST(Capture, StaticSequenceLayersRejectDynamicRows) {
  treu::core::Rng rng(23);
  tn::Sequential net;
  net.emplace<tn::MultiHeadAttention>(8, 2, rng);
  EXPECT_THROW((void)tg::capture_sequential(net, 8), std::invalid_argument);
  EXPECT_NO_THROW((void)tg::capture_sequential(net, 8, tg::Dim::of(4)));
}

TEST(Capture, ParamOrderMatchesModelDigest) {
  treu::core::Rng rng(24);
  tn::MlpClassifier model(5, {9}, 3, rng);
  tg::PlanPredictor compiled(tg::capture_mlp(model));
  EXPECT_EQ(compiled.weight_hash(), model.weight_hash());

  const auto model_params = model.params();
  EXPECT_EQ(compiled.save_weights(), tn::save_weights(model_params));
}

TEST(Capture, PlanPredictorRequiresDynamicBatchAxis) {
  treu::core::Rng rng(25);
  tn::Sequential net;
  net.emplace<tn::Dense>(4, 2, rng);
  tg::Captured fixed_rows = tg::capture_sequential(net, 4, tg::Dim::of(3));
  EXPECT_THROW((void)tg::PlanPredictor(std::move(fixed_rows)),
               std::invalid_argument);
}

// --- Randomized graph fuzzer ------------------------------------------------

namespace {

std::uint64_t fuzz_seed() {
  if (const char *env = std::getenv("TREU_FUZZ_SEED")) {
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return v;
  }
  return 20260808ull;
}

/// Random valid graph over one dynamic-row input, drawn from the shapes the
/// project's model families actually use (small feature dims, windows <= 3,
/// pooled heads, layernorm). Every candidate op checks its own
/// preconditions and falls back to an activation, so generation never
/// throws and never strays outside the dynamic-extent budget the runner's
/// batch sizes (>= 6 rows) can resolve.
tg::Graph random_graph(treu::core::Rng &rng, std::size_t &input_cols) {
  tg::Graph g;
  input_cols = 2 + rng.uniform_index(4);  // 2..5
  const tg::NodeId input = g.add_input(input_cols);
  std::vector<tg::NodeId> live{input};

  const auto pick = [&]() { return live[rng.uniform_index(live.size())]; };
  const auto activation = [&](tg::NodeId v) {
    switch (rng.uniform_index(3)) {
      case 0:
        return g.add(tg::OpKind::Relu, {v});
      case 1:
        return g.add(tg::OpKind::Tanh, {v});
      default:
        return g.add(tg::OpKind::Sigmoid, {v});
    }
  };

  const std::size_t steps = 4 + rng.uniform_index(7);  // 4..10
  for (std::size_t step = 0; step < steps; ++step) {
    const tg::NodeId v = pick();
    const tg::Shape s = g.node(v).shape;
    tg::NodeId made = tg::kNoNode;
    switch (rng.uniform_index(12)) {
      case 0:
      case 1:
      case 2: {  // dense block, sometimes through a foldable Transpose
        const std::size_t k = 1 + rng.uniform_index(4);
        tg::NodeId w;
        if (rng.bernoulli(0.3)) {
          const tg::NodeId c = g.add_const(rand_matrix(rng, k, s.cols));
          w = g.add(tg::OpKind::Transpose, {c});
        } else {
          w = g.add_const(rand_matrix(rng, s.cols, k));
        }
        const tg::NodeId b = g.add_const(rand_matrix(rng, 1, k));
        const tg::NodeId mm = g.add(tg::OpKind::MatMul, {v, w});
        made = g.add(tg::OpKind::RowBias, {mm, b});
        if (rng.bernoulli(0.5)) made = activation(made);
        break;
      }
      case 3:
        made = activation(v);
        break;
      case 4:
        made = g.add(tg::OpKind::Softmax, {v});
        break;
      case 5: {
        tg::Attrs a;
        a.scale = rng.uniform(-2.0, 2.0);
        made = g.add(tg::OpKind::Scale, {v}, a);
        break;
      }
      case 6: {  // layernorm
        const tg::NodeId gain = g.add_const(rand_matrix(rng, 1, s.cols));
        const tg::NodeId bias = g.add_const(rand_matrix(rng, 1, s.cols));
        made = g.add(tg::OpKind::LayerNorm, {v, gain, bias});
        break;
      }
      case 7: {  // add with a same-shaped partner (possibly itself)
        tg::NodeId other = v;
        for (const tg::NodeId u : live) {
          if (u != v && g.node(u).shape == s) other = u;
        }
        made = g.add(tg::OpKind::Add, {v, other});
        break;
      }
      case 8: {  // im2row, budgeted so 6-row batches still resolve
        const std::size_t width = 2 + rng.uniform_index(2);  // 2..3
        const bool dyn_ok = s.rows.dynamic && s.rows.offset >= -2;
        const bool static_ok = !s.rows.dynamic && s.rows.fixed >= width;
        if ((dyn_ok || static_ok) && s.cols * width <= 24) {
          tg::Attrs a;
          a.width = width;
          made = g.add(tg::OpKind::Im2Row, {v}, a);
        } else {
          made = activation(v);
        }
        break;
      }
      case 9:
        made = rng.bernoulli(0.5) ? g.add(tg::OpKind::MeanPool, {v})
                                  : g.add(tg::OpKind::GlobalMaxPool, {v});
        break;
      case 10: {  // colslice
        if (s.cols >= 2) {
          tg::Attrs a;
          a.begin = rng.uniform_index(s.cols);
          a.end = a.begin + 1 + rng.uniform_index(s.cols - a.begin);
          made = g.add(tg::OpKind::ColSlice, {v}, a);
        } else {
          made = activation(v);
        }
        break;
      }
      default: {  // concat with itself, or transpose of a static node
        if (!s.rows.dynamic && s.rows.fixed <= 8 && rng.bernoulli(0.5)) {
          made = g.add(tg::OpKind::Transpose, {v});
        } else if (s.cols * 2 <= 24) {
          made = g.add(tg::OpKind::Concat, {v, v});
        } else {
          made = activation(v);
        }
        break;
      }
    }
    live.push_back(made);
  }
  g.set_output(live.back());
  return g;
}

}  // namespace

TEST(Fuzzer, CompiledPlansMatchTheOracleBitwiseAcrossSweeps) {
  const std::uint64_t seed = fuzz_seed();
  const std::size_t kGraphs = 1000;
  const std::vector<tt::KernelParams> configs = sweep_configs();
  std::size_t total_nodes = 0;

  for (std::size_t i = 0; i < kGraphs; ++i) {
    treu::core::Rng rng(seed, /*stream=*/i + 1);
    std::size_t cols = 0;
    const tg::Graph g = random_graph(rng, cols);
    SCOPED_TRACE("fuzz graph #" + std::to_string(i) +
                 " — replay with TREU_FUZZ_SEED=" + std::to_string(seed) +
                 "\n" + g.to_string());
    ASSERT_NO_THROW(tg::check_invariants(g));
    total_nodes += g.size();

    // One compiled plan per kernel configuration, plus one per single pass.
    std::vector<tg::Plan> plans;
    for (const tt::KernelParams &kp : configs) {
      tg::CompileOptions opts;
      opts.kernel = kp;
      plans.push_back(tg::compile(g, opts));
    }
    const tg::Graph folded = tg::fold_constants(g);
    const tg::Graph conv_fused = tg::fuse_conv(g);
    const tg::Graph dense_fused = tg::fuse_dense(g);
    const tg::Graph pruned = tg::eliminate_dead(g);
    for (const tg::Graph *passed :
         {&folded, &conv_fused, &dense_fused, &pruned}) {
      ASSERT_NO_THROW(tg::check_invariants(*passed));
    }

    const tg::Interpreter oracle(g);
    for (const std::size_t rows : {std::size_t{6}, std::size_t{11}}) {
      const tt::Matrix x = rand_matrix(rng, rows, cols);
      const tt::Matrix ref = oracle.run(x);
      // Per-pass differential: each rewrite alone preserves the bits.
      EXPECT_TRUE(bitwise_equal(ref, tg::Interpreter(folded).run(x)))
          << "fold_constants, batch " << rows;
      EXPECT_TRUE(bitwise_equal(ref, tg::Interpreter(conv_fused).run(x)))
          << "fuse_conv, batch " << rows;
      EXPECT_TRUE(bitwise_equal(ref, tg::Interpreter(dense_fused).run(x)))
          << "fuse_dense, batch " << rows;
      EXPECT_TRUE(bitwise_equal(ref, tg::Interpreter(pruned).run(x)))
          << "eliminate_dead, batch " << rows;
      // Full pipeline across the ISA / register-tile sweep.
      for (std::size_t c = 0; c < plans.size(); ++c) {
        EXPECT_TRUE(bitwise_equal(ref, plans[c].run(x)))
            << "config " << c << ", batch " << rows;
      }
    }
    if (HasFailure()) {
      FAIL() << "first mismatch at fuzz graph #" << i
             << "; replay with TREU_FUZZ_SEED=" << seed;
    }
  }
  // The generator actually produced substantial graphs, not degenerate ones.
  EXPECT_GT(total_nodes, kGraphs * 5);
}

// --- Serving a compiled Plan ------------------------------------------------

using PlanServer = treu::serve::BatchServer<std::vector<double>,
                                            tn::ClassScores>;

namespace {

std::vector<std::vector<double>> random_features(treu::core::Rng &rng,
                                                 std::size_t n,
                                                 std::size_t dim) {
  std::vector<std::vector<double>> rows(n);
  for (auto &row : rows) {
    row.resize(dim);
    for (auto &v : row) v = rng.uniform(-1.0, 1.0);
  }
  return rows;
}

}  // namespace

TEST(Serving, BatchedEqualsPerSampleBitwise) {
  treu::core::Rng rng(26);
  tn::MlpClassifier model(6, {12, 8}, 3, rng);
  tg::PlanPredictor compiled(tg::capture_mlp(model));

  const auto inputs = random_features(rng, 24, 6);
  const auto batched =
      compiled.predict_batch(std::span<const std::vector<double>>(inputs));
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const tn::ClassScores one = compiled.predict_one(inputs[i]);
    EXPECT_TRUE(bits_equal(batched[i].logits, one.logits)) << "sample " << i;
    EXPECT_EQ(batched[i].label, one.label) << "sample " << i;
    // ...and both are the hand-written model's bits.
    const tn::ClassScores hand = model.predict_one(inputs[i]);
    EXPECT_TRUE(bits_equal(batched[i].logits, hand.logits)) << "sample " << i;
    EXPECT_EQ(batched[i].label, hand.label) << "sample " << i;
  }
}

TEST(Serving, CompiledPlanServesThroughBatchServer) {
  treu::core::Rng rng(27);
  tn::MlpClassifier model(6, {12, 8}, 3, rng);
  tg::PlanPredictor rep_a(tg::capture_mlp(model));
  tg::PlanPredictor rep_b(tg::capture_mlp(model));
  ASSERT_EQ(rep_a.weight_hash(), model.weight_hash());

  treu::serve::ServeConfig cfg;
  cfg.max_batch_size = 8;
  PlanServer server({&rep_a, &rep_b}, cfg);

  const auto inputs = random_features(rng, 32, 6);
  auto futs =
      server.submit_many(std::span<const std::vector<double>>(inputs));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto served = futs[i].get();
    const tn::ClassScores hand = model.predict_one(inputs[i]);
    EXPECT_TRUE(bits_equal(served.output.logits, hand.logits))
        << "request " << i;
    EXPECT_EQ(served.output.label, hand.label) << "request " << i;
    EXPECT_EQ(served.weight_hash, model.weight_hash()) << "request " << i;
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, inputs.size());
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Serving, HotReloadSwapsWeightsWithDigestValidation) {
  treu::core::Rng rng(28);
  treu::core::Rng target_rng(29);
  tn::MlpClassifier model(5, {10}, 3, rng);
  tn::MlpClassifier target(5, {10}, 3, target_rng);
  tg::PlanPredictor rep_a(tg::capture_mlp(model));
  tg::PlanPredictor rep_b(tg::capture_mlp(model));
  ASSERT_NE(model.weight_hash(), target.weight_hash());

  treu::serve::ServeConfig cfg;
  cfg.max_batch_size = 4;
  PlanServer server({&rep_a, &rep_b}, cfg);

  const auto target_params = target.params();
  const std::vector<double> new_flat = tn::save_weights(target_params);
  const std::vector<double> old_flat = rep_a.save_weights();
  const auto apply = [&](PlanServer::Model &m) {
    static_cast<tg::PlanPredictor &>(m).load_weights(new_flat);
  };
  const auto rollback = [&](PlanServer::Model &m) {
    static_cast<tg::PlanPredictor &>(m).load_weights(old_flat);
  };

  // Wrong digest: the standby validation rolls the whole fleet back and
  // traffic keeps serving the old weights under the old hash.
  const auto bad =
      server.reload_weights(apply, std::string(64, 'f'), rollback);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("hash mismatch"), std::string::npos);
  EXPECT_EQ(bad.replicas_updated, 0u);
  EXPECT_EQ(server.stats().reload_rollbacks, 1u);

  const auto inputs = random_features(rng, 8, 5);
  auto futs =
      server.submit_many(std::span<const std::vector<double>>(inputs));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto served = futs[i].get();
    const tn::ClassScores hand = model.predict_one(inputs[i]);
    EXPECT_TRUE(bits_equal(served.output.logits, hand.logits));
    EXPECT_EQ(served.weight_hash, model.weight_hash());
  }

  // Right digest: the fleet converges on the new weights and every answer
  // is attributable to — and bitwise identical with — the target model.
  const auto good =
      server.reload_weights(apply, target.weight_hash(), rollback);
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.replicas_updated, 2u);
  EXPECT_EQ(good.previous_hash, model.weight_hash());
  EXPECT_EQ(good.new_hash, target.weight_hash());
  EXPECT_EQ(server.stats().reloads, 1u);

  auto futs2 =
      server.submit_many(std::span<const std::vector<double>>(inputs));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto served = futs2[i].get();
    const tn::ClassScores hand = target.predict_one(inputs[i]);
    EXPECT_TRUE(bits_equal(served.output.logits, hand.logits));
    EXPECT_EQ(served.output.label, hand.label);
    EXPECT_EQ(served.weight_hash, target.weight_hash());
  }
  server.shutdown();
}
