#pragma once

// TrainingCheckpoint — everything a bitwise-exact resume needs.
//
// "Resume from step k reproduces the uninterrupted run" is a much stronger
// contract than "the weights round-trip": the optimizer's moment estimates
// and the RNG stream position steer every subsequent update, so they are
// checkpointed alongside the parameters. Four sections:
//
//   meta       step, epoch, optimizer kind
//   params     every parameter matrix (shape + raw doubles, list order)
//   optimizer  the optimizer's save_state() vector
//   rng        the training stream's core::RngState
//
// Each section rides in the checksummed container of format.hpp.
// `weight_digest()` recomputes nn::weight_digest's exact encoding over the
// *stored* matrices, so a checkpoint's identity is directly comparable to
// a live model's weight_hash() — that equality is what BatchServer's hot
// reload verifies before swapping replicas.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "treu/ckpt/format.hpp"
#include "treu/core/rng.hpp"
#include "treu/core/sha256.hpp"
#include "treu/nn/optimizer.hpp"
#include "treu/nn/param.hpp"
#include "treu/tensor/matrix.hpp"

namespace treu::ckpt {

struct TrainingCheckpoint {
  std::uint64_t step = 0;
  std::uint64_t epoch = 0;
  std::vector<tensor::Matrix> params;  // parameter values, list order
  std::string optimizer_kind;          // "" when captured without one
  std::vector<double> optimizer_state;
  core::RngState rng;

  /// Snapshot live training objects. `opt` and `rng` may be null when the
  /// caller has none (weights-only checkpoint, e.g. for serving).
  [[nodiscard]] static TrainingCheckpoint capture(
      std::span<nn::Param *const> params, const nn::Optimizer *opt,
      const core::Rng *rng, std::uint64_t step, std::uint64_t epoch = 0);

  /// Restore into live objects. Parameter count and shapes must match
  /// exactly; `opt` (when given) must be the same kind the checkpoint
  /// captured. Throws std::invalid_argument on any mismatch, leaving the
  /// targets untouched. `opt` / `rng` may be null to skip those parts.
  void restore(std::span<nn::Param *const> params, nn::Optimizer *opt,
               core::Rng *rng_out) const;

  /// nn::weight_digest of the stored parameters (identical encoding), the
  /// hash a correctly reloaded model's weight_hash() must equal.
  [[nodiscard]] core::Digest weight_digest() const;

  [[nodiscard]] std::size_t parameter_count() const noexcept;

  /// Serialize into the checksummed container format.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
};

/// Decode outcome; `failure` distinguishes torn from corrupt for the
/// recovery scan (DecodeFailure::None with no checkpoint never happens).
struct LoadResult {
  std::optional<TrainingCheckpoint> checkpoint;
  DecodeFailure failure = DecodeFailure::None;
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return checkpoint.has_value(); }
};

/// Parse and verify an encoded checkpoint. Never throws on bad input; a
/// structurally valid container with missing/malformed sections is Torn.
[[nodiscard]] LoadResult decode_checkpoint(
    std::span<const std::uint8_t> bytes);

/// Write a checkpoint atomically (ckpt.save_us / ckpt.writes_total /
/// ckpt.bytes_written telemetry). See atomic_write_file for `injector`.
/// When `file_digest` is set it receives the SHA-256 of the encoded
/// container, i.e. of the bytes intended for `path` (also when the write
/// failed or was faulted), so a caller recording the file's digest neither
/// encodes nor hashes the checkpoint a second time.
[[nodiscard]] AtomicWriteResult save_checkpoint_file(
    const std::string &path, const TrainingCheckpoint &ckpt,
    fault::FileInjector *injector = nullptr,
    core::Digest *file_digest = nullptr);

/// Read + decode one checkpoint file. A missing/unreadable file is Torn.
[[nodiscard]] LoadResult load_checkpoint_file(const std::string &path);

}  // namespace treu::ckpt
