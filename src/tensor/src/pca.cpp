#include "treu/tensor/pca.hpp"

#include <cmath>
#include <stdexcept>

#include "treu/tensor/kernels.hpp"
#include "treu/tensor/linalg.hpp"

namespace treu::tensor {

namespace {

// Sign normalization: make the largest-magnitude coordinate positive so
// component directions are stable across eigen backends and reruns.
void normalize_sign(Matrix &components) {
  for (std::size_t k = 0; k < components.rows(); ++k) {
    auto row = components.row(k);
    std::size_t arg = 0;
    for (std::size_t j = 1; j < row.size(); ++j) {
      if (std::fabs(row[j]) > std::fabs(row[arg])) arg = j;
    }
    if (row[arg] < 0.0) {
      for (auto &v : row) v = -v;
    }
  }
}

}  // namespace

Pca Pca::fit(const Matrix &observations, std::size_t max_components) {
  Pca pca;
  const std::size_t n = observations.rows();
  const std::size_t d = observations.cols();
  if (d == 0 || n < 2) {
    auto [cov_empty, means_empty] = covariance(observations);
    pca.mean_ = std::move(means_empty);
    pca.components_ = Matrix(0, d);
    return pca;
  }

  if (d <= n) {
    // Primal: eigendecompose the d x d covariance.
    auto [cov, means] = covariance(observations);
    pca.mean_ = std::move(means);
    EigenResult eig = eigen_symmetric(cov);
    std::size_t keep = d;
    if (max_components != 0) keep = std::min(keep, max_components);
    // Covariance eigenvalues can go slightly negative from roundoff; clamp.
    pca.eigenvalues_.assign(eig.values.begin(), eig.values.begin() + keep);
    for (auto &v : pca.eigenvalues_) v = std::max(v, 0.0);
    pca.components_ = Matrix(keep, d);
    for (std::size_t k = 0; k < keep; ++k) {
      for (std::size_t j = 0; j < d; ++j) {
        pca.components_(k, j) = eig.vectors(j, k);
      }
    }
  } else {
    // Dual (Gram) trick for the wide case (few samples, many features —
    // shape atlases live here): the nonzero spectrum of X^T X / (n-1)
    // equals that of the n x n Gram matrix X X^T / (n-1), and components
    // recover as X^T u / sqrt((n-1) lambda). Jacobi on n x n instead of
    // d x d turns minutes into microseconds when d >> n.
    pca.mean_.assign(d, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = observations.row(i);
      for (std::size_t j = 0; j < d; ++j) pca.mean_[j] += row[j];
    }
    for (auto &m : pca.mean_) m /= static_cast<double>(n);
    Matrix centered(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = observations.row(i);
      auto dst = centered.row(i);
      for (std::size_t j = 0; j < d; ++j) dst[j] = src[j] - pca.mean_[j];
    }
    Matrix gram = Kernel::matmul_transposed(centered, centered, KernelParams{},
                                            Kernel::default_pool());
    gram *= 1.0 / static_cast<double>(n - 1);
    EigenResult eig = eigen_symmetric(gram);
    std::size_t keep = n;  // at most n nonzero modes (n-1 after centering)
    if (max_components != 0) keep = std::min(keep, max_components);
    pca.eigenvalues_.assign(eig.values.begin(), eig.values.begin() + keep);
    for (auto &v : pca.eigenvalues_) v = std::max(v, 0.0);
    pca.components_ = Matrix(keep, d);
    for (std::size_t k = 0; k < keep; ++k) {
      const double lambda = pca.eigenvalues_[k];
      if (lambda <= 1e-14) continue;  // null direction: leave as zero row
      const double scale =
          1.0 / std::sqrt(static_cast<double>(n - 1) * lambda);
      for (std::size_t j = 0; j < d; ++j) {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          s += centered(i, j) * eig.vectors(i, k);
        }
        pca.components_(k, j) = s * scale;
      }
    }
  }
  normalize_sign(pca.components_);
  return pca;
}

double Pca::explained_variance_ratio(std::size_t k) const {
  double total = 0.0;
  for (double v : eigenvalues_) total += v;
  if (total <= 0.0) return k >= eigenvalues_.size() ? 1.0 : 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < std::min(k, eigenvalues_.size()); ++i) {
    acc += eigenvalues_[i];
  }
  return acc / total;
}

std::size_t Pca::modes_for_variance(double fraction) const {
  for (std::size_t k = 0; k <= eigenvalues_.size(); ++k) {
    if (explained_variance_ratio(k) >= fraction) return k;
  }
  return eigenvalues_.size();
}

std::vector<double> Pca::transform(std::span<const double> x) const {
  if (x.size() != mean_.size()) {
    throw std::invalid_argument("Pca::transform: dimension mismatch");
  }
  std::vector<double> scores(n_components(), 0.0);
  for (std::size_t k = 0; k < n_components(); ++k) {
    double s = 0.0;
    const auto comp = components_.row(k);
    for (std::size_t j = 0; j < x.size(); ++j) s += comp[j] * (x[j] - mean_[j]);
    scores[k] = s;
  }
  return scores;
}

Matrix Pca::transform(const Matrix &observations) const {
  Matrix out(observations.rows(), n_components());
  for (std::size_t i = 0; i < observations.rows(); ++i) {
    const auto scores = transform(observations.row(i));
    for (std::size_t k = 0; k < scores.size(); ++k) out(i, k) = scores[k];
  }
  return out;
}

std::vector<double> Pca::inverse_transform(
    std::span<const double> scores) const {
  std::vector<double> x = mean_;
  const std::size_t k_max = std::min(scores.size(), n_components());
  for (std::size_t k = 0; k < k_max; ++k) {
    const auto comp = components_.row(k);
    for (std::size_t j = 0; j < x.size(); ++j) x[j] += scores[k] * comp[j];
  }
  return x;
}

std::vector<double> Pca::mode_sample(std::size_t k, double stddevs) const {
  if (k >= n_components()) {
    throw std::out_of_range("Pca::mode_sample: component index");
  }
  std::vector<double> scores(n_components(), 0.0);
  scores[k] = stddevs * std::sqrt(eigenvalues_[k]);
  return inverse_transform(scores);
}

}  // namespace treu::tensor
