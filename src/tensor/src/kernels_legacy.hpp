#pragma once

// The pre-SIMD scalar kernel implementations, kept verbatim behind internal
// names. The Kernel entry points route Scalar-ISA schedules with no register
// tile here so every schedule that existed before the dispatch redesign —
// including the plain naive ones — still produces bitwise-identical results.
// Internal to src/tensor; the public surface is kernels.hpp.

#include <span>
#include <vector>

#include "treu/parallel/thread_pool.hpp"
#include "treu/tensor/kernels.hpp"

namespace treu::tensor::detail {

[[nodiscard]] std::vector<double> legacy_matvec(const Matrix &a,
                                                std::span<const double> x);
[[nodiscard]] std::vector<double> legacy_matvec_opt(const Matrix &a,
                                                    std::span<const double> x,
                                                    const KernelParams &params,
                                                    parallel::ThreadPool &pool);
[[nodiscard]] Matrix legacy_matmul_ordered(const Matrix &a, const Matrix &b,
                                           LoopOrder order);
[[nodiscard]] Matrix legacy_matmul_opt(const Matrix &a, const Matrix &b,
                                       const KernelParams &params,
                                       parallel::ThreadPool &pool);
[[nodiscard]] Matrix legacy_matmul_transposed(const Matrix &a, const Matrix &b);
[[nodiscard]] Matrix legacy_matmul_transposed_opt(const Matrix &a,
                                                  const Matrix &b,
                                                  const KernelParams &params,
                                                  parallel::ThreadPool &pool);
[[nodiscard]] std::vector<double> legacy_conv1d(std::span<const double> input,
                                                std::span<const double> weights);
[[nodiscard]] std::vector<double> legacy_conv1d_opt(
    std::span<const double> input, std::span<const double> weights,
    const KernelParams &params, parallel::ThreadPool &pool);
[[nodiscard]] Matrix legacy_conv2d(const Matrix &input, const Matrix &kernel);
[[nodiscard]] Matrix legacy_conv2d_opt(const Matrix &input,
                                       const Matrix &kernel,
                                       const KernelParams &params,
                                       parallel::ThreadPool &pool);

}  // namespace treu::tensor::detail
