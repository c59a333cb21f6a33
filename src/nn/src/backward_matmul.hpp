#pragma once

// A^T B for the backward passes (weight gradients dW = X^T G), on the
// register-tiled micro matmul. Internal to src/nn.
//
// matmul(A^T, B) and matmul(B^T, A)^T are the same bits: the micro matmul
// accumulates each element from 0.0 over the shared row index in ascending
// order with one fused multiply-add per term, and fma(x, y, s) ==
// fma(y, x, s). So the orientation is a pure cost choice — transpose
// whichever side moves less data. A wide sparse input (the 65536-bucket
// n-gram presence features feeding a 2-class Dense) takes the second form:
// transposing X would copy the whole batch and leave a 2-column product on
// the scalar remainder loop.

#include "treu/tensor/kernels.hpp"

namespace treu::nn::detail {

/// A (r x m), B (r x n) -> A^T B (m x n) under Kernel::fast_params().
inline tensor::Matrix matmul_tn(const tensor::Matrix &a,
                                const tensor::Matrix &b) {
  const tensor::KernelParams p = tensor::Kernel::fast_params();
  auto &pool = tensor::Kernel::default_pool();
  const std::size_t r = a.rows(), m = a.cols(), n = b.cols();
  if (r * n + m * n < r * m) {
    return tensor::Kernel::matmul(b.transposed(), a, p, pool).transposed();
  }
  return tensor::Kernel::matmul(a.transposed(), b, p, pool);
}

}  // namespace treu::nn::detail
