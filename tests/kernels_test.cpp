// Tests for the five §2.5 kernels: reference semantics and the central
// schedule-correctness property — every (order, tile, unroll, parallel)
// combination computes the same function as the naive kernel.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include <cstdint>

#include "treu/core/compare.hpp"
#include "treu/core/rng.hpp"
#include "treu/parallel/thread_pool.hpp"
#include "treu/sched/schedule.hpp"
#include "treu/tensor/cpu_features.hpp"
#include "treu/tensor/kernels.hpp"

namespace tt = treu::tensor;
using treu::parallel::ThreadPool;

namespace {

ThreadPool &pool() {
  static ThreadPool p(2);
  return p;
}

// The naive nests: knob-free params on the serial default pool, matmul in
// IJK order.
tt::Matrix naive_matmul(const tt::Matrix &a, const tt::Matrix &b) {
  tt::KernelParams ijk;
  ijk.order = tt::LoopOrder::IJK;
  return tt::Kernel::matmul(a, b, ijk, tt::Kernel::default_pool());
}

tt::Matrix naive_matmul_transposed(const tt::Matrix &a, const tt::Matrix &b) {
  return tt::Kernel::matmul_transposed(a, b, tt::KernelParams{},
                                       tt::Kernel::default_pool());
}

std::vector<double> naive_matvec(const tt::Matrix &a,
                                 std::span<const double> x) {
  return tt::Kernel::matvec(a, x, tt::KernelParams{},
                            tt::Kernel::default_pool());
}

std::vector<double> naive_conv1d(std::span<const double> input,
                                 std::span<const double> w) {
  return tt::Kernel::conv1d(input, w, tt::KernelParams{},
                            tt::Kernel::default_pool());
}

tt::Matrix naive_conv2d(const tt::Matrix &input, const tt::Matrix &kernel) {
  return tt::Kernel::conv2d(input, kernel, tt::KernelParams{},
                            tt::Kernel::default_pool());
}

}  // namespace

TEST(MatVec, HandComputed) {
  const tt::Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<double> x{10.0, 1.0};
  const auto y = naive_matvec(a, x);
  EXPECT_EQ(y, (std::vector<double>{12.0, 34.0, 56.0}));
}

TEST(MatVec, DimensionMismatchThrows) {
  const tt::Matrix a(2, 3);
  const std::vector<double> x(4, 0.0);
  EXPECT_THROW((void)naive_matvec(a, x), std::invalid_argument);
}

TEST(MatMul, HandComputed) {
  const tt::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const tt::Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const tt::Matrix c = naive_matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatMul, InnerDimensionMismatchThrows) {
  EXPECT_THROW((void)naive_matmul(tt::Matrix(2, 3), tt::Matrix(4, 2)),
               std::invalid_argument);
}

TEST(MatMul, IdentityIsNeutral) {
  treu::core::Rng rng(1);
  const tt::Matrix a = tt::Matrix::random_normal(5, 5, rng);
  EXPECT_LT(naive_matmul(a, tt::Matrix::identity(5)).max_abs_diff(a), 1e-12);
  EXPECT_LT(naive_matmul(tt::Matrix::identity(5), a).max_abs_diff(a), 1e-12);
}

TEST(MatMulOrdered, AllSixOrdersAgree) {
  treu::core::Rng rng(2);
  const tt::Matrix a = tt::Matrix::random_normal(13, 9, rng);
  const tt::Matrix b = tt::Matrix::random_normal(9, 11, rng);
  const tt::Matrix ref = naive_matmul(a, b);
  for (const auto order :
       {tt::LoopOrder::IKJ, tt::LoopOrder::JIK, tt::LoopOrder::JKI,
        tt::LoopOrder::KIJ, tt::LoopOrder::KJI}) {
    tt::KernelParams params;
    params.order = order;
    const tt::Matrix c =
        tt::Kernel::matmul(a, b, params, tt::Kernel::default_pool());
    EXPECT_LT(c.max_abs_diff(ref), 1e-10) << tt::to_string(order);
  }
}

TEST(MatMulTransposed, MatchesMatmulOfTranspose) {
  treu::core::Rng rng(3);
  const tt::Matrix a = tt::Matrix::random_normal(6, 4, rng);
  const tt::Matrix b = tt::Matrix::random_normal(5, 4, rng);  // B^T is 4x5
  const tt::Matrix direct = naive_matmul_transposed(a, b);
  const tt::Matrix viaT = naive_matmul(a, b.transposed());
  EXPECT_LT(direct.max_abs_diff(viaT), 1e-12);
}

TEST(Conv1d, HandComputed) {
  const std::vector<double> input{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> w{1.0, -1.0};
  const auto out = naive_conv1d(input, w);
  EXPECT_EQ(out, (std::vector<double>{-1.0, -1.0, -1.0}));
}

TEST(Conv1d, KernelLongerThanInputIsEmpty) {
  const std::vector<double> input{1.0};
  const std::vector<double> w{1.0, 2.0};
  EXPECT_TRUE(naive_conv1d(input, w).empty());
}

TEST(Conv2d, HandComputed) {
  const tt::Matrix input{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  const tt::Matrix kernel{{1.0, 0.0}, {0.0, 1.0}};
  const tt::Matrix out = naive_conv2d(input, kernel);
  ASSERT_EQ(out.rows(), 2u);
  ASSERT_EQ(out.cols(), 2u);
  EXPECT_DOUBLE_EQ(out(0, 0), 6.0);   // 1 + 5
  EXPECT_DOUBLE_EQ(out(1, 1), 14.0);  // 5 + 9
}

TEST(Conv2d, EmptyWhenKernelTooBig) {
  EXPECT_TRUE(
      naive_conv2d(tt::Matrix(2, 2, 1.0), tt::Matrix(3, 3, 1.0)).empty());
}

// --- Schedule-correctness property sweeps ------------------------------------

struct OptCase {
  std::size_t tile_i, tile_j, tile_k, unroll;
  bool parallel;
};

class MatmulOptCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t, std::size_t, bool>> {};

TEST_P(MatmulOptCorrectness, MatchesNaive) {
  const auto [ti, tj, tk, unroll, par] = GetParam();
  treu::core::Rng rng(17);
  const tt::Matrix a = tt::Matrix::random_uniform(33, 29, rng, -1.0, 1.0);
  const tt::Matrix b = tt::Matrix::random_uniform(29, 31, rng, -1.0, 1.0);
  const tt::Matrix ref = naive_matmul(a, b);

  tt::KernelParams params;
  params.tile_i = ti;
  params.tile_j = tj;
  params.tile_k = tk;
  params.unroll = unroll;
  params.parallel = par;
  const tt::Matrix c = tt::Kernel::matmul(a, b, params, pool());
  EXPECT_LT(c.max_abs_diff(ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    TileUnrollSweep, MatmulOptCorrectness,
    ::testing::Combine(::testing::Values(0, 8, 16),  // tile_i
                       ::testing::Values(0, 8),      // tile_j
                       ::testing::Values(0, 16),     // tile_k
                       ::testing::Values(1, 2, 4),   // unroll
                       ::testing::Bool()));          // parallel

class MatvecOptCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, bool>> {};

TEST_P(MatvecOptCorrectness, MatchesNaive) {
  const auto [tile, unroll, par] = GetParam();
  treu::core::Rng rng(18);
  const tt::Matrix a = tt::Matrix::random_uniform(41, 37, rng, -1.0, 1.0);
  std::vector<double> x(37);
  for (auto &v : x) v = rng.uniform(-1.0, 1.0);
  const auto ref = naive_matvec(a, x);

  tt::KernelParams params;
  params.tile_i = tile;
  params.unroll = unroll;
  params.parallel = par;
  const auto y = tt::Kernel::matvec(a, x, params, pool());
  ASSERT_EQ(y.size(), ref.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(TileUnrollSweep, MatvecOptCorrectness,
                         ::testing::Combine(::testing::Values(0, 8, 64),
                                            ::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

class Conv1dOptCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, bool>> {};

TEST_P(Conv1dOptCorrectness, MatchesNaive) {
  const auto [tile, unroll, par] = GetParam();
  treu::core::Rng rng(19);
  std::vector<double> input(257), w(17);
  for (auto &v : input) v = rng.uniform(-1.0, 1.0);
  for (auto &v : w) v = rng.uniform(-1.0, 1.0);
  const auto ref = naive_conv1d(input, w);

  tt::KernelParams params;
  params.tile_i = tile;
  params.unroll = unroll;
  params.parallel = par;
  const auto out = tt::Kernel::conv1d(input, w, params, pool());
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(TileUnrollSweep, Conv1dOptCorrectness,
                         ::testing::Combine(::testing::Values(0, 16, 64),
                                            ::testing::Values(1, 4),
                                            ::testing::Bool()));

class Conv2dOptCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t, bool>> {};

TEST_P(Conv2dOptCorrectness, MatchesNaive) {
  const auto [ti, tj, unroll, par] = GetParam();
  treu::core::Rng rng(20);
  const tt::Matrix input = tt::Matrix::random_uniform(25, 27, rng, -1.0, 1.0);
  const tt::Matrix kernel = tt::Matrix::random_uniform(5, 5, rng, -1.0, 1.0);
  const tt::Matrix ref = naive_conv2d(input, kernel);

  tt::KernelParams params;
  params.tile_i = ti;
  params.tile_j = tj;
  params.unroll = unroll;
  params.parallel = par;
  const tt::Matrix out = tt::Kernel::conv2d(input, kernel, params, pool());
  EXPECT_LT(out.max_abs_diff(ref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(TileUnrollSweep, Conv2dOptCorrectness,
                         ::testing::Combine(::testing::Values(0, 8),
                                            ::testing::Values(0, 8),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Bool()));

class MatmulTransposedOptCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t, bool>> {};

TEST_P(MatmulTransposedOptCorrectness, MatchesNaive) {
  const auto [ti, tj, unroll, par] = GetParam();
  treu::core::Rng rng(21);
  const tt::Matrix a = tt::Matrix::random_uniform(19, 23, rng, -1.0, 1.0);
  const tt::Matrix b = tt::Matrix::random_uniform(17, 23, rng, -1.0, 1.0);
  const tt::Matrix ref = naive_matmul_transposed(a, b);

  tt::KernelParams params;
  params.tile_i = ti;
  params.tile_j = tj;
  params.unroll = unroll;
  params.parallel = par;
  const tt::Matrix out = tt::Kernel::matmul_transposed(a, b, params, pool());
  EXPECT_LT(out.max_abs_diff(ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(TileUnrollSweep, MatmulTransposedOptCorrectness,
                         ::testing::Combine(::testing::Values(0, 8),
                                            ::testing::Values(0, 16),
                                            ::testing::Values(1, 4, 8),
                                            ::testing::Bool()));

TEST(KernelAccounting, FlopFormulas) {
  EXPECT_DOUBLE_EQ(tt::matvec_flops(10, 20), 400.0);
  EXPECT_DOUBLE_EQ(tt::matmul_flops(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(tt::conv1d_flops(10, 3), 48.0);  // 8 outputs * 3 taps * 2
  EXPECT_DOUBLE_EQ(tt::conv2d_flops(4, 4, 3, 3), 2.0 * 4.0 * 9.0);
  EXPECT_DOUBLE_EQ(tt::conv1d_flops(2, 5), 0.0);  // degenerate
}

TEST(KernelAccounting, ByteFormulasArePositive) {
  EXPECT_GT(tt::matvec_bytes(16, 16), 0.0);
  EXPECT_GT(tt::matmul_bytes(16, 16, 16), 0.0);
  EXPECT_GT(tt::conv1d_bytes(128, 8), 0.0);
  EXPECT_GT(tt::conv2d_bytes(32, 32, 3, 3), 0.0);
}

// A^T B, the dense-layer weight gradient, on the dispatch surface: the
// transposed activation times the gradient through fast_params().
namespace {

tt::Matrix atb(const tt::Matrix &a, const tt::Matrix &b) {
  return tt::Kernel::matmul(a.transposed(), b, tt::Kernel::fast_params(),
                            pool());
}

}  // namespace

TEST(MatmulAtb, MatchesTransposeThenMultiply) {
  treu::core::Rng rng(30);
  const tt::Matrix a = tt::Matrix::random_normal(13, 7, rng);
  const tt::Matrix b = tt::Matrix::random_normal(13, 5, rng);
  const tt::Matrix direct = atb(a, b);
  const tt::Matrix reference = naive_matmul(a.transposed(), b);
  EXPECT_LT(direct.max_abs_diff(reference), 1e-12);
}

TEST(MatmulAtb, RowMismatchThrows) {
  EXPECT_THROW((void)atb(tt::Matrix(3, 2), tt::Matrix(4, 2)),
               std::invalid_argument);
}

TEST(MatmulAtb, SparseInputFastPathIsExact) {
  treu::core::Rng rng(31);
  tt::Matrix a = tt::Matrix::random_normal(20, 9, rng);
  for (auto &v : a.flat()) {
    if (rng.bernoulli(0.7)) v = 0.0;  // mostly zeros: exercises the skip
  }
  const tt::Matrix b = tt::Matrix::random_normal(20, 4, rng);
  EXPECT_LT(atb(a, b).max_abs_diff(naive_matmul(a.transposed(), b)), 1e-12);
}

// --- The Kernel dispatch surface: ISA x shape x register-tile parity ---------

namespace {

// Parity gate between backends and the naive reference: bitwise where the
// accumulation order is preserved, ULP-bounded where lane-split reductions
// legitimately reorder the sum. The absolute escape covers results near zero
// where ULP distance explodes.
void expect_ulp_close(double ref, double got, const char *what,
                      std::uint64_t max_ulps = 512) {
  if (ref == got) return;
  if (std::fabs(ref - got) <= 1e-12) return;
  EXPECT_LE(treu::core::ulp_distance(ref, got), max_ulps)
      << what << ": ref=" << ref << " got=" << got;
}

std::vector<tt::Isa> testable_isas() {
  std::vector<tt::Isa> isas = {tt::Isa::Scalar};
  if (tt::Kernel::available(tt::Isa::Avx2)) isas.push_back(tt::Isa::Avx2);
  return isas;
}

}  // namespace

TEST(KernelDispatch, MatmulParityAcrossIsaShapeAndRtile) {
  treu::core::Rng rng(50);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1}, {3, 7, 5}, {8, 8, 8}, {13, 9, 1}, {33, 31, 29}, {64, 64, 64}};
  const std::vector<std::pair<std::size_t, std::size_t>> rtiles = {
      {0, 0}, {2, 8}, {4, 8}, {6, 16}, {8, 4}, {4, 32}};
  for (const auto &[m, n, k] : shapes) {
    const tt::Matrix a = tt::Matrix::random_uniform(m, k, rng, -1.0, 1.0);
    const tt::Matrix b = tt::Matrix::random_uniform(k, n, rng, -1.0, 1.0);
    const tt::Matrix ref = naive_matmul(a, b);
    for (const tt::Isa isa : testable_isas()) {
      for (const auto &[rm, rn] : rtiles) {
        for (const bool par : {false, true}) {
          tt::KernelParams p;
          p.isa = isa;
          p.rtile_m = rm;
          p.rtile_n = rn;
          p.parallel = par;
          const tt::Matrix c = tt::Kernel::matmul(a, b, p, pool());
          ASSERT_EQ(c.rows(), ref.rows());
          ASSERT_EQ(c.cols(), ref.cols());
          for (std::size_t r = 0; r < c.rows(); ++r) {
            for (std::size_t col = 0; col < c.cols(); ++col) {
              expect_ulp_close(ref(r, col), c(r, col), "matmul");
            }
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, MatmulTransposedAndMatvecParityAcrossIsa) {
  treu::core::Rng rng(51);
  const tt::Matrix a = tt::Matrix::random_uniform(19, 23, rng, -1.0, 1.0);
  const tt::Matrix bt = tt::Matrix::random_uniform(17, 23, rng, -1.0, 1.0);
  const tt::Matrix mt_ref = naive_matmul_transposed(a, bt);
  std::vector<double> x(23);
  for (auto &v : x) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> mv_ref = naive_matvec(a, x);
  for (const tt::Isa isa : testable_isas()) {
    for (const std::size_t unroll : {1, 4}) {
      for (const bool par : {false, true}) {
        tt::KernelParams p;
        p.isa = isa;
        p.unroll = unroll;
        p.parallel = par;
        p.rtile_m = 4;  // force the micro path even for Scalar
        const tt::Matrix mt = tt::Kernel::matmul_transposed(a, bt, p, pool());
        for (std::size_t r = 0; r < mt.rows(); ++r) {
          for (std::size_t c = 0; c < mt.cols(); ++c) {
            expect_ulp_close(mt_ref(r, c), mt(r, c), "matmul_t");
          }
        }
        const std::vector<double> mv = tt::Kernel::matvec(a, x, p, pool());
        ASSERT_EQ(mv.size(), mv_ref.size());
        for (std::size_t i = 0; i < mv.size(); ++i) {
          expect_ulp_close(mv_ref[i], mv[i], "matvec");
        }
      }
    }
  }
}

TEST(KernelDispatch, ConvParityAcrossIsaAndOddShapes) {
  treu::core::Rng rng(52);
  std::vector<double> input(259), w(17);  // deliberately not multiples of 4
  for (auto &v : input) v = rng.uniform(-1.0, 1.0);
  for (auto &v : w) v = rng.uniform(-1.0, 1.0);
  const auto c1_ref = naive_conv1d(input, w);
  const tt::Matrix img = tt::Matrix::random_uniform(25, 27, rng, -1.0, 1.0);
  const tt::Matrix ker = tt::Matrix::random_uniform(5, 5, rng, -1.0, 1.0);
  const tt::Matrix c2_ref = naive_conv2d(img, ker);
  for (const tt::Isa isa : testable_isas()) {
    for (const bool par : {false, true}) {
      tt::KernelParams p;
      p.isa = isa;
      p.parallel = par;
      p.rtile_n = 8;  // force the micro path even for Scalar
      const auto c1 = tt::Kernel::conv1d(input, w, p, pool());
      ASSERT_EQ(c1.size(), c1_ref.size());
      for (std::size_t i = 0; i < c1.size(); ++i) {
        expect_ulp_close(c1_ref[i], c1[i], "conv1d");
      }
      const tt::Matrix c2 = tt::Kernel::conv2d(img, ker, p, pool());
      ASSERT_EQ(c2.rows(), c2_ref.rows());
      for (std::size_t r = 0; r < c2.rows(); ++r) {
        for (std::size_t c = 0; c < c2.cols(); ++c) {
          expect_ulp_close(c2_ref(r, c), c2(r, c), "conv2d");
        }
      }
    }
  }
}

TEST(KernelDispatch, ScalarAndAvx2BitwiseAgreeOnFmaKernels) {
  // matmul/conv1d/conv2d accumulate per-element in ascending k with fma in
  // both microkernel instantiations, so the backends must agree *bitwise*.
  // (matmul_t packs B^T onto the same matmul body and is bitwise too, see
  // MatmulTransposedIsBitwiseInvariantAcrossIsaRtileAndPartition; matvec,
  // the one dot-style kernel left, is ULP-bounded and covered above.)
  if (!tt::Kernel::available(tt::Isa::Avx2)) GTEST_SKIP() << "no AVX2 here";
  treu::core::Rng rng(53);
  const tt::Matrix a = tt::Matrix::random_uniform(22, 18, rng, -1.0, 1.0);
  const tt::Matrix b = tt::Matrix::random_uniform(18, 21, rng, -1.0, 1.0);
  std::vector<double> sig(131), taps(9);
  for (auto &v : sig) v = rng.uniform(-1.0, 1.0);
  for (auto &v : taps) v = rng.uniform(-1.0, 1.0);
  tt::KernelParams scalar;
  scalar.isa = tt::Isa::Scalar;
  scalar.rtile_m = 4;
  scalar.rtile_n = 8;
  tt::KernelParams avx2 = scalar;
  avx2.isa = tt::Isa::Avx2;

  const tt::Matrix ms = tt::Kernel::matmul(a, b, scalar, pool());
  const tt::Matrix mv = tt::Kernel::matmul(a, b, avx2, pool());
  for (std::size_t r = 0; r < ms.rows(); ++r) {
    for (std::size_t c = 0; c < ms.cols(); ++c) {
      EXPECT_EQ(ms(r, c), mv(r, c)) << "matmul differs at " << r << "," << c;
    }
  }
  EXPECT_EQ(tt::Kernel::conv1d(sig, taps, scalar, pool()),
            tt::Kernel::conv1d(sig, taps, avx2, pool()));
  const tt::Matrix c2s = tt::Kernel::conv2d(a, tt::Matrix(3, 3, 0.5), scalar, pool());
  const tt::Matrix c2v = tt::Kernel::conv2d(a, tt::Matrix(3, 3, 0.5), avx2, pool());
  for (std::size_t r = 0; r < c2s.rows(); ++r) {
    for (std::size_t c = 0; c < c2s.cols(); ++c) {
      EXPECT_EQ(c2s(r, c), c2v(r, c)) << "conv2d differs at " << r << "," << c;
    }
  }
}

TEST(KernelDispatch, SkipZeroAIsBitwiseExactOnMicroPath) {
  treu::core::Rng rng(55);
  tt::Matrix a = tt::Matrix::random_uniform(17, 13, rng, -1.0, 1.0);
  for (auto &v : a.flat()) {
    if (rng.bernoulli(0.8)) v = 0.0;  // sparse activations
  }
  const tt::Matrix b = tt::Matrix::random_uniform(13, 10, rng, -1.0, 1.0);
  tt::KernelParams p = tt::Kernel::fast_params();
  p.skip_zero_a = false;
  const tt::Matrix dense = tt::Kernel::matmul(a, b, p, pool());
  p.skip_zero_a = true;
  const tt::Matrix sparse = tt::Kernel::matmul(a, b, p, pool());
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      EXPECT_EQ(dense(r, c), sparse(r, c));
    }
  }
}

TEST(KernelDispatch, MatmulTransposedIsBitwiseInvariantAcrossIsaRtileAndPartition) {
  // matmul_transposed packs B^T and runs the matmul microkernel, so like
  // matmul it must not depend on the ISA, the register tile or the thread
  // partition — and it must equal matmul against the explicit transpose.
  treu::core::Rng rng(57);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1}, {3, 7, 5}, {13, 9, 1}, {19, 17, 23}, {33, 31, 29}, {7, 21, 37}};
  const std::vector<std::pair<std::size_t, std::size_t>> rtiles = {{4, 8},
                                                                   {6, 16}};
  for (const auto &[m, n, k] : shapes) {
    const tt::Matrix a = tt::Matrix::random_uniform(m, k, rng, -1.0, 1.0);
    const tt::Matrix bt = tt::Matrix::random_uniform(n, k, rng, -1.0, 1.0);
    tt::KernelParams ref_p;
    ref_p.rtile_m = 4;
    ref_p.rtile_n = 8;
    const tt::Matrix ref = tt::Kernel::matmul_transposed(a, bt, ref_p, pool());
    const tt::Matrix via_t =
        tt::Kernel::matmul(a, bt.transposed(), ref_p, pool());
    ASSERT_EQ(ref.rows(), m);
    ASSERT_EQ(ref.cols(), n);
    EXPECT_EQ(std::memcmp(ref.data(), via_t.data(), ref.size() * sizeof(double)),
              0)
        << m << "x" << n << "x" << k << " vs matmul of the transpose";
    for (const tt::Isa isa : testable_isas()) {
      for (const auto &[rm, rn] : rtiles) {
        for (const bool par : {false, true}) {
          tt::KernelParams p;
          p.isa = isa;
          p.rtile_m = rm;
          p.rtile_n = rn;
          p.parallel = par;
          p.tile_i = par ? 5 : 0;  // several row blocks on the pool
          const tt::Matrix c = tt::Kernel::matmul_transposed(a, bt, p, pool());
          ASSERT_EQ(c.rows(), m);
          ASSERT_EQ(c.cols(), n);
          EXPECT_EQ(std::memcmp(ref.data(), c.data(), c.size() * sizeof(double)),
                    0)
              << m << "x" << n << "x" << k << " isa=" << tt::to_string(isa)
              << " rtile=" << rm << "x" << rn << " parallel=" << par;
        }
      }
    }
  }
}

// --- CPU features and the TREU_FORCE_ISA pin ---------------------------------

namespace {

// RAII guard: set/unset TREU_FORCE_ISA and drop the cached decision, restoring
// the previous state on scope exit so test order cannot leak pins.
class ForcedIsaGuard {
 public:
  explicit ForcedIsaGuard(const char *value) {
    const char *old = std::getenv("TREU_FORCE_ISA");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("TREU_FORCE_ISA", value, 1);
    } else {
      ::unsetenv("TREU_FORCE_ISA");
    }
    tt::refresh_forced_isa_for_testing();
  }
  ~ForcedIsaGuard() {
    if (had_value_) {
      ::setenv("TREU_FORCE_ISA", saved_.c_str(), 1);
    } else {
      ::unsetenv("TREU_FORCE_ISA");
    }
    tt::refresh_forced_isa_for_testing();
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

}  // namespace

TEST(CpuFeatures, ResolveForcedIsaRefusalLogic) {
  EXPECT_EQ(tt::detail::resolve_forced_isa("scalar", false), tt::Isa::Scalar);
  EXPECT_EQ(tt::detail::resolve_forced_isa("scalar", true), tt::Isa::Scalar);
  EXPECT_EQ(tt::detail::resolve_forced_isa("avx2", true), tt::Isa::Avx2);
  EXPECT_THROW((void)tt::detail::resolve_forced_isa("avx2", false),
               std::runtime_error);
  EXPECT_THROW((void)tt::detail::resolve_forced_isa("neon", true),
               std::runtime_error);
  EXPECT_THROW((void)tt::detail::resolve_forced_isa("AVX2", true),
               std::runtime_error);  // spellings are exact, lowercase
}

TEST(CpuFeatures, ForcedScalarPinOverridesEveryDispatch) {
  ForcedIsaGuard guard("scalar");
  ASSERT_EQ(tt::forced_isa(), tt::Isa::Scalar);
  EXPECT_EQ(tt::Kernel::best(), tt::Isa::Scalar);
  EXPECT_FALSE(tt::Kernel::available(tt::Isa::Avx2));
  EXPECT_EQ(tt::Kernel::effective(tt::Isa::Avx2), tt::Isa::Scalar);

  // A dispatch requesting AVX2 under the pin falls back, still computes
  // the right answer, and is counted.
  treu::core::Rng rng(56);
  const tt::Matrix a = tt::Matrix::random_uniform(9, 7, rng, -1.0, 1.0);
  const tt::Matrix b = tt::Matrix::random_uniform(7, 8, rng, -1.0, 1.0);
  const tt::Matrix ref = naive_matmul(a, b);
  tt::KernelParams p;
  p.isa = tt::Isa::Avx2;
  p.rtile_m = 4;
  p.rtile_n = 8;
  const std::uint64_t before = tt::Kernel::isa_fallbacks();
  const tt::Matrix c = tt::Kernel::matmul(a, b, p, pool());
  EXPECT_EQ(tt::Kernel::isa_fallbacks(), before + 1);
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t col = 0; col < c.cols(); ++col) {
      expect_ulp_close(ref(r, col), c(r, col), "forced-scalar matmul");
    }
  }
}

TEST(CpuFeatures, ForcedScalarPinBeatsScheduleIsaRequest) {
  // Regression: an autotuned schedule string naming .isa(avx2) must not be
  // able to out-vote the operator's TREU_FORCE_ISA=scalar pin. The pin wins
  // deterministically, the run lands on the scalar microkernel (bitwise
  // identical to an explicit scalar request of the same register tile), and
  // the override is counted in sched.isa_fallback.
  ForcedIsaGuard guard("scalar");
  const auto schedule = treu::sched::Schedule::parse(
      "matmul: order(ikj).tile(i=0,j=0,k=0).unroll(1).isa(avx2).rtile(6x16)");
  ASSERT_TRUE(schedule.has_value());
  ASSERT_EQ(schedule->params.isa, tt::Isa::Avx2);
  EXPECT_EQ(tt::Kernel::effective(schedule->params.isa), tt::Isa::Scalar);

  treu::core::Rng rng(57);
  const tt::Matrix a = tt::Matrix::random_uniform(11, 9, rng, -1.0, 1.0);
  const tt::Matrix b = tt::Matrix::random_uniform(9, 20, rng, -1.0, 1.0);
  const std::uint64_t before = tt::Kernel::isa_fallbacks();
  const tt::Matrix pinned = tt::Kernel::matmul(a, b, schedule->params, pool());
  EXPECT_EQ(tt::Kernel::isa_fallbacks(), before + 1);

  tt::KernelParams scalar = schedule->params;
  scalar.isa = tt::Isa::Scalar;
  const tt::Matrix explicit_scalar = tt::Kernel::matmul(a, b, scalar, pool());
  EXPECT_EQ(tt::Kernel::isa_fallbacks(), before + 1);  // no second fallback
  for (std::size_t r = 0; r < pinned.rows(); ++r) {
    for (std::size_t c = 0; c < pinned.cols(); ++c) {
      EXPECT_EQ(pinned(r, c), explicit_scalar(r, c))
          << "pinned dispatch diverged from the scalar microkernel at (" << r
          << ", " << c << ")";
    }
  }
}

TEST(CpuFeatures, UnknownForcedIsaThrowsOnUse) {
  ForcedIsaGuard guard("sse9");
  EXPECT_THROW((void)tt::forced_isa(), std::runtime_error);
  // The invalid pin re-throws on every query; it cannot be shrugged off.
  EXPECT_THROW((void)tt::Kernel::best(), std::runtime_error);
}

TEST(CpuFeatures, DetectionIsConsistentWithBackendPresence) {
  // Whatever this host is, the invariants hold: Scalar always works, and
  // Avx2 availability implies both CPUID support and compiled object code.
  ForcedIsaGuard guard(nullptr);  // make sure no pin interferes
  EXPECT_TRUE(tt::Kernel::available(tt::Isa::Scalar));
  EXPECT_TRUE(tt::cpu_supports(tt::Isa::Scalar));
  if (tt::Kernel::available(tt::Isa::Avx2)) {
    EXPECT_TRUE(tt::cpu_supports(tt::Isa::Avx2));
    EXPECT_TRUE(tt::avx2_backend_compiled());
    EXPECT_NE(tt::detail::avx2_backend(), nullptr);
    EXPECT_EQ(tt::Kernel::best(), tt::Isa::Avx2);
  } else {
    EXPECT_EQ(tt::Kernel::best(), tt::Isa::Scalar);
  }
  EXPECT_STREQ(tt::to_string(tt::Isa::Avx2), "avx2");
  EXPECT_EQ(tt::parse_isa("avx2"), tt::Isa::Avx2);
  EXPECT_EQ(tt::parse_isa("scalar"), tt::Isa::Scalar);
  EXPECT_FALSE(tt::parse_isa("mmx").has_value());
}
