#include "treu/core/sha256.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace treu::core {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
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

Sha256::Sha256() noexcept : state_(kInit) {}

Sha256 &Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
  return *this;
}

Sha256 &Sha256::update(std::string_view text) noexcept {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t *>(text.data()), text.size()));
}

Digest Sha256::finish() noexcept {
  const std::uint64_t bits = total_bits_;
  const std::uint8_t pad = 0x80;
  update(std::span<const std::uint8_t>(&pad, 1));
  const std::uint8_t zero = 0x00;
  while (buffer_len_ != 56) {
    update(std::span<const std::uint8_t>(&zero, 1));
  }
  std::array<std::uint8_t, 8> len{};
  for (int i = 0; i < 8; ++i) {
    len[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(len.data(), len.size()));

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

void Sha256::process_block(const std::uint8_t *block) noexcept {
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

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int t = 0; t < 64; ++t) {
    const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + S1 + ch + kK[t] + w[t];
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
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
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
