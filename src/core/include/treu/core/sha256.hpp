#pragma once

// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The reproducibility kernel uses SHA-256 to fingerprint artifacts: input
// datasets, model weights, result tables, and the experiment manifests
// themselves. A digest mismatch is the toolkit's primitive notion of "this
// is not the computation you ran before".
//
// Two compression functions sit behind the one hasher. On x86 hosts whose
// CPU has the SHA extensions (and builds whose compiler accepts -msha), a
// SHA-NI kernel (sha256rnds2 / sha256msg1 / sha256msg2, sha256_shani.cpp)
// runs; everywhere else the portable loop in sha256.cpp does. The choice is
// made once per process by a CPUID probe. Both compute the FIPS 180-4
// function, so a digest never depends on which one ran.
//
// update() hands every whole run of 64-byte blocks to the compression
// function in one call, so only a partial leading/trailing block is copied
// through the internal buffer.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace treu::core {

namespace detail {

/// A SHA-256 compression function: absorbs `nblocks` consecutive 64-byte
/// blocks starting at `blocks` into the eight-word `state`.
using Sha256Compress = void (*)(std::uint32_t *state,
                                const std::uint8_t *blocks,
                                std::size_t nblocks) noexcept;

/// The portable compression loop; always available.
[[nodiscard]] Sha256Compress sha256_portable_compress() noexcept;

/// The SHA-NI compression function, or nullptr when this build lacks it or
/// this CPU lacks SHA / SSE4.1 / SSSE3.
[[nodiscard]] Sha256Compress sha256_shani_compress() noexcept;

/// The compression function every default-constructed Sha256 uses: SHA-NI
/// when usable, otherwise portable. Fixed on first call.
[[nodiscard]] Sha256Compress sha256_compress() noexcept;

}  // namespace detail

/// 32-byte SHA-256 digest.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  /// Lower-case hex representation (64 chars).
  [[nodiscard]] std::string hex() const;

  /// Parse from hex; throws std::invalid_argument on malformed input.
  [[nodiscard]] static Digest from_hex(std::string_view hex);

  friend bool operator==(const Digest &, const Digest &) = default;
};

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept;

  /// Hash through a specific compression function (the two-path parity
  /// tests); production code uses the default constructor.
  explicit Sha256(detail::Sha256Compress compress) noexcept;

  /// Absorb bytes. May be called any number of times.
  Sha256 &update(std::span<const std::uint8_t> data) noexcept;
  Sha256 &update(std::string_view text) noexcept;

  /// Absorb the raw little-endian bytes of a trivially copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Sha256 &update_value(const T &v) noexcept {
    return update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(&v), sizeof(T)));
  }

  /// Finalize and return the digest. The hasher must not be reused after.
  [[nodiscard]] Digest finish() noexcept;

 private:
  detail::Sha256Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// One-shot digest of a byte span.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data) noexcept;

/// One-shot digest of a string.
[[nodiscard]] Digest sha256(std::string_view text) noexcept;

/// Digest of a vector<double> viewed as raw bytes (bit-exact fingerprint of
/// numeric results).
[[nodiscard]] Digest sha256_doubles(std::span<const double> xs) noexcept;

/// One hash-chain step: SHA256(prev.bytes || item.bytes). Every chained
/// record in the toolkit (core::Journal, ckpt::DurableLog) links this way.
[[nodiscard]] Digest chain_next(const Digest &prev, const Digest &item) noexcept;

}  // namespace treu::core
