#include "treu/ckpt/format.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "file_io.hpp"
#include "treu/core/sha256.hpp"

namespace treu::ckpt {
namespace {

core::Digest digest_of(std::span<const std::uint8_t> bytes) {
  return core::sha256(bytes);
}

}  // namespace

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t *>(s.data()), s.size()));
}

std::optional<std::uint32_t> ByteReader::u32() noexcept {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> ByteReader::u64() noexcept {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::optional<double> ByteReader::f64() noexcept {
  const auto bits = u64();
  if (!bits) return std::nullopt;
  double v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

std::optional<std::span<const std::uint8_t>> ByteReader::bytes(
    std::size_t n) noexcept {
  if (remaining() < n) return std::nullopt;
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::optional<std::string> ByteReader::str() noexcept {
  const auto len = u32();
  if (!len) return std::nullopt;
  const auto raw = bytes(*len);
  if (!raw) return std::nullopt;
  return std::string(reinterpret_cast<const char *>(raw->data()),
                     raw->size());
}

std::vector<std::uint8_t> encode_sections(std::span<const Section> sections) {
  ByteWriter w;
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t *>(kMagic), sizeof(kMagic)));
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const Section &s : sections) {
    w.str(s.name);
    w.u64(s.payload.size());
    const core::Digest d = digest_of(s.payload);
    w.bytes(d.bytes);
    w.bytes(s.payload);
  }
  const core::Digest whole = digest_of(w.data());
  w.bytes(whole.bytes);
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t *>(kTrailer), sizeof(kTrailer)));
  return w.take();
}

DecodeResult decode_sections(std::span<const std::uint8_t> bytes) {
  DecodeResult result;
  const auto torn = [&](std::string why) {
    result.failure = DecodeFailure::Torn;
    result.error = std::move(why);
    result.sections.clear();
    return result;
  };
  const auto corrupt = [&](std::string why) {
    result.failure = DecodeFailure::Corrupt;
    result.error = std::move(why);
    result.sections.clear();
    return result;
  };

  constexpr std::size_t kFooter = 32 + sizeof(kTrailer);
  if (bytes.size() < sizeof(kMagic) + 8 + kFooter) {
    return torn("file shorter than header + footer");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return torn("bad magic");
  }
  if (std::memcmp(bytes.data() + bytes.size() - sizeof(kTrailer), kTrailer,
                  sizeof(kTrailer)) != 0) {
    return torn("missing trailer (truncated write)");
  }

  // The whole-file digest covers [0, size - footer).
  const auto body = bytes.first(bytes.size() - kFooter);
  core::Digest recorded;
  std::memcpy(recorded.bytes.data(), bytes.data() + body.size(), 32);
  if (digest_of(body) != recorded) {
    return corrupt("whole-file digest mismatch");
  }

  ByteReader r(body.subspan(sizeof(kMagic)));
  const auto version = r.u32();
  if (!version) return torn("truncated version");
  if (*version != kFormatVersion) {
    return torn("unsupported format version " + std::to_string(*version));
  }
  const auto count = r.u32();
  if (!count) return torn("truncated section count");
  for (std::uint32_t i = 0; i < *count; ++i) {
    Section s;
    auto name = r.str();
    if (!name) return torn("truncated section name");
    s.name = std::move(*name);
    const auto len = r.u64();
    if (!len) return torn("truncated section length: " + s.name);
    const auto digest_raw = r.bytes(32);
    if (!digest_raw) return torn("truncated section digest: " + s.name);
    core::Digest want;
    std::memcpy(want.bytes.data(), digest_raw->data(), 32);
    const auto payload = r.bytes(static_cast<std::size_t>(*len));
    if (!payload) return torn("truncated section payload: " + s.name);
    if (digest_of(*payload) != want) {
      return corrupt("section digest mismatch: " + s.name);
    }
    s.payload.assign(payload->begin(), payload->end());
    result.sections.push_back(std::move(s));
  }
  if (r.remaining() != 0) return torn("trailing bytes after sections");
  return result;
}

namespace detail {

void fsync_parent_dir(const std::string &path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace detail

AtomicWriteResult atomic_write_file(const std::string &path,
                                    std::span<const std::uint8_t> bytes,
                                    fault::FileInjector *injector) {
  AtomicWriteResult result;
  fault::FileFaultDecision decision;
  if (injector != nullptr) decision = injector->decide_write(bytes.size());
  result.injected = decision.kind;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    result.error = "cannot open " + tmp + ": " + std::strerror(errno);
    return result;
  }

  // A Truncate fault is a crash mid-write: only the first `truncate_at`
  // bytes make it to the temp file and the rename never happens.
  const auto payload =
      decision.kind == fault::FileFaultKind::Truncate
          ? bytes.first(static_cast<std::size_t>(decision.truncate_at))
          : bytes;
  if (!detail::write_all(fd, payload)) {
    result.error = "write failed: " + tmp + ": " + std::strerror(errno);
    (void)::close(fd);
    (void)std::remove(tmp.c_str());
    return result;
  }
  if (::fsync(fd) != 0) {
    result.error = "fsync failed: " + tmp + ": " + std::strerror(errno);
    (void)::close(fd);
    (void)std::remove(tmp.c_str());
    return result;
  }
  if (::close(fd) != 0) {
    result.error = "close failed: " + tmp + ": " + std::strerror(errno);
    (void)std::remove(tmp.c_str());
    return result;
  }

  if (decision.kind == fault::FileFaultKind::Truncate ||
      decision.kind == fault::FileFaultKind::CrashBeforeRename) {
    // Crash simulated: the stranded temp file stays for the recovery scan
    // to clean up; the final file is untouched.
    return result;
  }

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    result.error = "rename failed: " + path + ": " + std::strerror(errno);
    (void)std::remove(tmp.c_str());
    return result;
  }
  detail::fsync_parent_dir(path);
  result.committed = true;

  if (decision.kind == fault::FileFaultKind::FlipBit) {
    // At-rest bit rot on the committed file: the write protocol succeeded,
    // the medium lied afterwards. Only checksums catch this.
    const int rot = ::open(path.c_str(), O_RDWR);
    if (rot >= 0) {
      const auto byte_off = static_cast<off_t>(decision.flip_bit / 8);
      std::uint8_t b = 0;
      if (::pread(rot, &b, 1, byte_off) == 1) {
        b ^= static_cast<std::uint8_t>(1u << (decision.flip_bit % 8));
        (void)::pwrite(rot, &b, 1, byte_off);
      }
      (void)::close(rot);
    }
  }
  return result;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string &path) {
  std::FILE *f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.insert(out.end(), buf, buf + n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  (void)std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

}  // namespace treu::ckpt
