#include "treu/shape/atlas.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "treu/tensor/kernels.hpp"
#include "treu/tensor/linalg.hpp"

namespace treu::shape {
namespace {

Vec3 centroid(const std::vector<Vec3> &shape) {
  Vec3 c;
  for (const Vec3 &p : shape) c = c + p;
  const double inv = shape.empty() ? 0.0 : 1.0 / static_cast<double>(shape.size());
  return c * inv;
}

double rms_radius(const std::vector<Vec3> &shape) {
  double s = 0.0;
  for (const Vec3 &p : shape) s += dot(p, p);
  return std::sqrt(s / static_cast<double>(shape.size()));
}

// Kabsch: optimal rotation taking `from` onto `to` (both centered).
// Returns a row-major 3x3 rotation matrix.
std::array<double, 9> kabsch(const std::vector<Vec3> &from,
                             const std::vector<Vec3> &to) {
  // Cross-covariance H = sum from_i to_i^T.
  tensor::Matrix h(3, 3, 0.0);
  for (std::size_t i = 0; i < from.size(); ++i) {
    const double f[3] = {from[i].x, from[i].y, from[i].z};
    const double t[3] = {to[i].x, to[i].y, to[i].z};
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) h(r, c) += f[r] * t[c];
    }
  }
  const tensor::SvdResult s = tensor::svd(h);
  // R = V diag(1,1,d) U^T with d = sign(det(V U^T)), on the naive scalar
  // nests (IJK for the plain matmuls).
  using tensor::Kernel;
  parallel::ThreadPool &pool = Kernel::default_pool();
  tensor::KernelParams ijk;
  ijk.order = tensor::LoopOrder::IJK;
  tensor::Matrix vut =
      Kernel::matmul_transposed(s.v, s.u, tensor::KernelParams{}, pool);
  const double det =
      vut(0, 0) * (vut(1, 1) * vut(2, 2) - vut(1, 2) * vut(2, 1)) -
      vut(0, 1) * (vut(1, 0) * vut(2, 2) - vut(1, 2) * vut(2, 0)) +
      vut(0, 2) * (vut(1, 0) * vut(2, 1) - vut(1, 1) * vut(2, 0));
  tensor::Matrix d3 = tensor::Matrix::identity(3);
  if (det < 0.0) d3(2, 2) = -1.0;
  const tensor::Matrix r = Kernel::matmul(Kernel::matmul(s.v, d3, ijk, pool),
                                          s.u.transposed(), ijk, pool);
  return {r(0, 0), r(0, 1), r(0, 2), r(1, 0), r(1, 1),
          r(1, 2), r(2, 0), r(2, 1), r(2, 2)};
}

Vec3 rotate(const std::array<double, 9> &r, const Vec3 &p) {
  return {r[0] * p.x + r[1] * p.y + r[2] * p.z,
          r[3] * p.x + r[4] * p.y + r[5] * p.z,
          r[6] * p.x + r[7] * p.y + r[8] * p.z};
}

std::vector<Vec3> mean_of(const std::vector<std::vector<Vec3>> &shapes) {
  std::vector<Vec3> mean(shapes.front().size());
  for (const auto &s : shapes) {
    for (std::size_t i = 0; i < s.size(); ++i) mean[i] = mean[i] + s[i];
  }
  const double inv = 1.0 / static_cast<double>(shapes.size());
  for (auto &p : mean) p = p * inv;
  return mean;
}

}  // namespace

std::vector<double> flatten(const std::vector<Vec3> &shape) {
  std::vector<double> out;
  out.reserve(shape.size() * 3);
  for (const Vec3 &p : shape) {
    out.push_back(p.x);
    out.push_back(p.y);
    out.push_back(p.z);
  }
  return out;
}

std::vector<Vec3> unflatten(std::span<const double> row) {
  if (row.size() % 3 != 0) {
    throw std::invalid_argument("unflatten: length not a multiple of 3");
  }
  std::vector<Vec3> out(row.size() / 3);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {row[3 * i], row[3 * i + 1], row[3 * i + 2]};
  }
  return out;
}

tensor::Matrix procrustes_align(const std::vector<std::vector<Vec3>> &shapes,
                                const ProcrustesOptions &options) {
  if (shapes.empty()) {
    throw std::invalid_argument("procrustes_align: no shapes");
  }
  const std::size_t n_particles = shapes.front().size();
  for (const auto &s : shapes) {
    if (s.size() != n_particles) {
      throw std::invalid_argument("procrustes_align: particle count differs");
    }
  }
  std::vector<std::vector<Vec3>> work = shapes;
  for (auto &s : work) {
    if (options.with_translation) {
      const Vec3 c = centroid(s);
      for (auto &p : s) p = p - c;
    }
    if (options.with_scale) {
      const double r = rms_radius(s);
      if (r > 0.0) {
        for (auto &p : s) p = p * (1.0 / r);
      }
    }
  }
  if (options.with_rotation) {
    for (std::size_t round = 0; round < options.iterations; ++round) {
      const std::vector<Vec3> mean = mean_of(work);
      for (auto &s : work) {
        const auto r = kabsch(s, mean);
        for (auto &p : s) p = rotate(r, p);
      }
    }
  }
  tensor::Matrix out(work.size(), n_particles * 3);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const std::vector<double> row = flatten(work[i]);
    for (std::size_t j = 0; j < row.size(); ++j) out(i, j) = row[j];
  }
  return out;
}

ShapeAtlas ShapeAtlas::build(const Population &population,
                             const ProcrustesOptions &options,
                             double variance_keep, std::size_t max_modes) {
  ShapeAtlas atlas;
  atlas.aligned_ = procrustes_align(population.shapes, options);
  tensor::Pca full = tensor::Pca::fit(atlas.aligned_, max_modes);
  const std::size_t keep =
      std::max<std::size_t>(1, full.modes_for_variance(variance_keep));
  atlas.pca_ = tensor::Pca::fit(atlas.aligned_, std::min(keep, max_modes));
  return atlas;
}

std::vector<Vec3> ShapeAtlas::mean_shape() const {
  return unflatten(pca_.mean());
}

std::vector<Vec3> ShapeAtlas::mode_shape(std::size_t k, double stddevs) const {
  return unflatten(pca_.mode_sample(k, stddevs));
}

double ShapeAtlas::shape_distance(const std::vector<Vec3> &a,
                                  const std::vector<Vec3> &b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("shape_distance: particle count differs");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Vec3 d = a[i] - b[i];
    s += dot(d, d);
  }
  return std::sqrt(s / static_cast<double>(a.size()));
}

double generalization_error(const Population &population, std::size_t modes,
                            const ProcrustesOptions &options) {
  const tensor::Matrix aligned = procrustes_align(population.shapes, options);
  const std::size_t n = aligned.rows();
  if (n < 3) return 0.0;
  double total = 0.0;
  for (std::size_t held = 0; held < n; ++held) {
    tensor::Matrix train(n - 1, aligned.cols());
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == held) continue;
      for (std::size_t j = 0; j < aligned.cols(); ++j) {
        train(r, j) = aligned(i, j);
      }
      ++r;
    }
    const tensor::Pca pca = tensor::Pca::fit(train, modes);
    const auto scores = pca.transform(aligned.row(held));
    const auto recon = pca.inverse_transform(scores);
    double s = 0.0;
    for (std::size_t j = 0; j < recon.size(); ++j) {
      s += (recon[j] - aligned(held, j)) * (recon[j] - aligned(held, j));
    }
    total += std::sqrt(s / static_cast<double>(recon.size() / 3));
  }
  return total / static_cast<double>(n);
}

double specificity(const ShapeAtlas &atlas, const Population &population,
                   std::size_t samples, core::Rng &rng) {
  (void)population;
  const tensor::Matrix &aligned = atlas.aligned();
  double total = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    std::vector<double> scores(atlas.pca().n_components());
    for (std::size_t k = 0; k < scores.size(); ++k) {
      scores[k] = rng.normal() * std::sqrt(atlas.pca().eigenvalues()[k]);
    }
    const auto sampled = atlas.pca().inverse_transform(scores);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < aligned.rows(); ++i) {
      double d = 0.0;
      const auto row = aligned.row(i);
      for (std::size_t j = 0; j < row.size(); ++j) {
        d += (sampled[j] - row[j]) * (sampled[j] - row[j]);
      }
      best = std::min(best, std::sqrt(d / static_cast<double>(row.size() / 3)));
    }
    total += best;
  }
  return samples > 0 ? total / static_cast<double>(samples) : 0.0;
}

std::vector<AblationRow> particle_count_ablation(
    const ShapeFamily &family, std::size_t n_shapes,
    const std::vector<std::size_t> &particle_counts, core::Rng &rng) {
  std::vector<AblationRow> rows;
  rows.reserve(particle_counts.size());
  for (std::size_t count : particle_counts) {
    core::Rng local = rng.split(count);  // same population law per count
    const Population pop = sample_population(family, n_shapes, count, local);
    const ShapeAtlas atlas = ShapeAtlas::build(pop);
    AblationRow row;
    row.particles = count;
    row.modes_for_95 = atlas.compact_modes(0.95);
    const auto &eig = atlas.pca().eigenvalues();
    double total = 0.0;
    for (double e : eig) total += e;
    row.top_mode_ratio = total > 0.0 ? eig[0] / total : 0.0;
    row.generalization = generalization_error(pop, family.n_modes());
    rows.push_back(row);
  }
  return rows;
}

}  // namespace treu::shape
