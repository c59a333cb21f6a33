#include "treu/core/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "sha256_k.hpp"

namespace treu::core {
namespace {

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

// One block of the portable compression function (FIPS 180-4 §6.2.2).
void process_block(std::uint32_t *state, const std::uint8_t *block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  for (int t = 16; t < 64; ++t) {
    const std::uint32_t s0 =
        rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int t = 0; t < 64; ++t) {
    const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + S1 + ch + detail::kSha256K[t] + w[t];
    const std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = S0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void compress_portable(std::uint32_t *state, const std::uint8_t *blocks,
                       std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, blocks += 64) process_block(state, blocks);
}

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Digest::hex() const {
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

Digest Digest::from_hex(std::string_view hex) {
  if (hex.size() != 64) {
    throw std::invalid_argument("Digest::from_hex: expected 64 hex chars");
  }
  Digest d;
  for (std::size_t i = 0; i < 32; ++i) {
    const int hi = hex_value(hex[2 * i]);
    const int lo = hex_value(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("Digest::from_hex: non-hex character");
    }
    d.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return d;
}

namespace detail {

Sha256Compress sha256_portable_compress() noexcept { return compress_portable; }

Sha256Compress sha256_compress() noexcept {
  static const Sha256Compress chosen = [] {
    const Sha256Compress shani = sha256_shani_compress();
    return shani != nullptr ? shani : compress_portable;
  }();
  return chosen;
}

}  // namespace detail

Sha256::Sha256() noexcept : Sha256(detail::sha256_compress()) {}

Sha256::Sha256(detail::Sha256Compress compress) noexcept
    : compress_(compress), state_(kInit) {}

Sha256 &Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return *this;
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  const std::uint8_t *p = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    left -= take;
    if (buffer_len_ < 64) return *this;
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (const std::size_t nblocks = left / 64; nblocks > 0) {
    compress_(state_.data(), p, nblocks);
    p += nblocks * 64;
    left -= nblocks * 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), p, left);
    buffer_len_ = left;
  }
  return *this;
}

Sha256 &Sha256::update(std::string_view text) noexcept {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t *>(text.data()), text.size()));
}

Digest Sha256::finish() noexcept {
  // Padding (FIPS 180-4 §5.1.1): 0x80, zeros up to 56 mod 64, then the
  // message length in bits, big-endian. One or two final blocks.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  }
  compress_(state_.data(), buffer_.data(), 1);

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

Digest sha256(std::span<const std::uint8_t> data) noexcept {
  return Sha256().update(data).finish();
}

Digest sha256(std::string_view text) noexcept {
  return Sha256().update(text).finish();
}

Digest sha256_doubles(std::span<const double> xs) noexcept {
  return Sha256()
      .update(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t *>(xs.data()),
          xs.size() * sizeof(double)))
      .finish();
}

Digest chain_next(const Digest &prev, const Digest &item) noexcept {
  return Sha256().update(prev.bytes).update(item.bytes).finish();
}

}  // namespace treu::core
