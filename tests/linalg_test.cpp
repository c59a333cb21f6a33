// Tests for the dense linear algebra: Jacobi eigen, one-sided Jacobi SVD,
// Cholesky, general solve, covariance, power iteration.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "treu/core/rng.hpp"
#include "treu/tensor/kernels.hpp"
#include "treu/tensor/linalg.hpp"

namespace tt = treu::tensor;

namespace {

// The naive IJK matmul on the serial default pool.
tt::Matrix naive_matmul(const tt::Matrix &a, const tt::Matrix &b) {
  tt::KernelParams ijk;
  ijk.order = tt::LoopOrder::IJK;
  return tt::Kernel::matmul(a, b, ijk, tt::Kernel::default_pool());
}

// A random symmetric matrix with known spectrum: A = Q diag(vals) Q^T where
// Q comes from orthonormalizing a random matrix via its SVD.
tt::Matrix symmetric_with_spectrum(const std::vector<double> &vals,
                                   treu::core::Rng &rng) {
  const std::size_t n = vals.size();
  const tt::Matrix g = tt::Matrix::random_normal(n, n, rng);
  const tt::SvdResult s = tt::svd(g);
  tt::Matrix d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = vals[i];
  return naive_matmul(naive_matmul(s.u, d), s.u.transposed());
}

}  // namespace

TEST(Eigen, DiagonalMatrixIsItsOwnSpectrum) {
  tt::Matrix d(3, 3, 0.0);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  const tt::EigenResult e = tt::eigen_symmetric(d);
  EXPECT_NEAR(e.values[0], 5.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
  EXPECT_NEAR(e.values[2], 1.0, 1e-12);
}

TEST(Eigen, ReconstructsMatrix) {
  treu::core::Rng rng(2);
  const tt::Matrix a = symmetric_with_spectrum({4.0, 2.5, 1.0, 0.25}, rng);
  const tt::EigenResult e = tt::eigen_symmetric(a);
  // A == V diag(lambda) V^T.
  tt::Matrix d(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) d(i, i) = e.values[i];
  const tt::Matrix recon =
      naive_matmul(naive_matmul(e.vectors, d), e.vectors.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-9);
}

TEST(Eigen, EigenvectorsAreOrthonormal) {
  treu::core::Rng rng(3);
  const tt::Matrix a = symmetric_with_spectrum({3.0, 2.0, 1.0}, rng);
  const tt::EigenResult e = tt::eigen_symmetric(a);
  const tt::Matrix vtv = naive_matmul(e.vectors.transposed(), e.vectors);
  EXPECT_LT(vtv.max_abs_diff(tt::Matrix::identity(3)), 1e-9);
}

TEST(Eigen, NegativeEigenvaluesHandled) {
  treu::core::Rng rng(4);
  const tt::Matrix a = symmetric_with_spectrum({2.0, -1.0, -3.0}, rng);
  const tt::EigenResult e = tt::eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 2.0, 1e-9);
  EXPECT_NEAR(e.values[2], -3.0, 1e-9);
}

TEST(Eigen, RejectsNonSquareAndNonSymmetric) {
  EXPECT_THROW((void)tt::eigen_symmetric(tt::Matrix(2, 3)),
               std::invalid_argument);
  tt::Matrix asym(2, 2, 0.0);
  asym(0, 1) = 1.0;  // a(1,0) stays 0
  EXPECT_THROW((void)tt::eigen_symmetric(asym), std::invalid_argument);
}

TEST(Svd, SingularValuesOfDiagonal) {
  tt::Matrix a(3, 3, 0.0);
  a(0, 0) = 2.0;
  a(1, 1) = -5.0;  // singular value is |.|
  a(2, 2) = 1.0;
  const tt::SvdResult s = tt::svd(a);
  EXPECT_NEAR(s.singular[0], 5.0, 1e-10);
  EXPECT_NEAR(s.singular[1], 2.0, 1e-10);
  EXPECT_NEAR(s.singular[2], 1.0, 1e-10);
}

TEST(Svd, ReconstructsRectangularTall) {
  treu::core::Rng rng(5);
  const tt::Matrix a = tt::Matrix::random_normal(8, 4, rng);
  const tt::SvdResult s = tt::svd(a);
  tt::Matrix d(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) d(i, i) = s.singular[i];
  const tt::Matrix recon = naive_matmul(naive_matmul(s.u, d), s.v.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-9);
}

TEST(Svd, ReconstructsRectangularWide) {
  treu::core::Rng rng(6);
  const tt::Matrix a = tt::Matrix::random_normal(3, 7, rng);
  const tt::SvdResult s = tt::svd(a);
  tt::Matrix d(s.singular.size(), s.singular.size(), 0.0);
  for (std::size_t i = 0; i < s.singular.size(); ++i) d(i, i) = s.singular[i];
  const tt::Matrix recon = naive_matmul(naive_matmul(s.u, d), s.v.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-9);
}

TEST(Svd, SingularValuesSortedAndNonNegative) {
  treu::core::Rng rng(7);
  const tt::Matrix a = tt::Matrix::random_normal(6, 6, rng);
  const tt::SvdResult s = tt::svd(a);
  for (std::size_t i = 0; i < s.singular.size(); ++i) {
    EXPECT_GE(s.singular[i], 0.0);
    if (i > 0) {
      EXPECT_LE(s.singular[i], s.singular[i - 1]);
    }
  }
}

TEST(Svd, FrobeniusNormIdentity) {
  treu::core::Rng rng(8);
  const tt::Matrix a = tt::Matrix::random_normal(5, 5, rng);
  const tt::SvdResult s = tt::svd(a);
  double sq = 0.0;
  for (double v : s.singular) sq += v * v;
  EXPECT_NEAR(std::sqrt(sq), a.frobenius_norm(), 1e-9);
}

TEST(Cholesky, FactorReconstructs) {
  // SPD matrix via A = B B^T + n I.
  treu::core::Rng rng(9);
  const tt::Matrix b = tt::Matrix::random_normal(4, 4, rng);
  tt::Matrix a = naive_matmul(b, b.transposed());
  for (std::size_t i = 0; i < 4; ++i) a(i, i) += 4.0;
  const tt::Matrix l = tt::cholesky(a);
  const tt::Matrix recon = naive_matmul(l, l.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-10);
  // Upper triangle of L must be zero.
  EXPECT_DOUBLE_EQ(l(0, 3), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  tt::Matrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_THROW((void)tt::cholesky(a), std::invalid_argument);
}

TEST(SolveSpd, SolvesKnownSystem) {
  const tt::Matrix a{{4.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b{1.0, 2.0};
  const auto x = tt::solve_spd(a, b);
  EXPECT_NEAR(4.0 * x[0] + 1.0 * x[1], 1.0, 1e-12);
  EXPECT_NEAR(1.0 * x[0] + 3.0 * x[1], 2.0, 1e-12);
}

TEST(Solve, GaussianEliminationWithPivoting) {
  // Requires pivoting: zero on the leading diagonal.
  const tt::Matrix a{{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}};
  const std::vector<double> b{-8.0, 0.0, 3.0};
  const auto x = tt::solve(a, b);
  // Verify residual.
  for (std::size_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) s += a(i, j) * x[j];
    EXPECT_NEAR(s, b[i], 1e-10);
  }
}

TEST(Solve, SingularThrows) {
  const tt::Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW((void)tt::solve(a, {1.0, 2.0}), std::invalid_argument);
}

TEST(Covariance, MatchesHandComputation) {
  const tt::Matrix obs{{1.0, 2.0}, {3.0, 6.0}, {5.0, 10.0}};
  const auto [cov, means] = tt::covariance(obs);
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[1], 6.0);
  EXPECT_NEAR(cov(0, 0), 4.0, 1e-12);   // var of {1,3,5}
  EXPECT_NEAR(cov(1, 1), 16.0, 1e-12);  // var of {2,6,10}
  EXPECT_NEAR(cov(0, 1), 8.0, 1e-12);   // perfectly correlated
  EXPECT_DOUBLE_EQ(cov(0, 1), cov(1, 0));
}

TEST(Covariance, SingleObservationIsZero) {
  const tt::Matrix obs{{1.0, 2.0, 3.0}};
  const auto [cov, means] = tt::covariance(obs);
  EXPECT_DOUBLE_EQ(cov.frobenius_norm(), 0.0);
  EXPECT_DOUBLE_EQ(means[2], 3.0);
}

TEST(PowerIteration, FindsTopEigenpair) {
  treu::core::Rng rng(10);
  const tt::Matrix a = symmetric_with_spectrum({7.0, 2.0, 1.0, 0.5}, rng);
  const tt::TopEigen top = tt::power_iteration(a);
  EXPECT_NEAR(top.value, 7.0, 1e-6);
  // A v == lambda v.
  for (std::size_t i = 0; i < 4; ++i) {
    double av = 0.0;
    for (std::size_t j = 0; j < 4; ++j) av += a(i, j) * top.vector[j];
    EXPECT_NEAR(av, top.value * top.vector[i], 1e-5);
  }
}

TEST(PowerIteration, AgreesWithJacobiOnRandomMatrix) {
  treu::core::Rng rng(11);
  const tt::Matrix b = tt::Matrix::random_normal(6, 6, rng);
  const tt::Matrix a = naive_matmul(b, b.transposed());
  const double jacobi_top = tt::eigen_symmetric(a).values[0];
  const double power_top = tt::power_iteration(a).value;
  EXPECT_NEAR(power_top, jacobi_top, 1e-6 * jacobi_top);
}

TEST(PowerIteration, ZeroMatrix) {
  const tt::Matrix a(3, 3, 0.0);
  const tt::TopEigen top = tt::power_iteration(a);
  EXPECT_NEAR(top.value, 0.0, 1e-12);
}
