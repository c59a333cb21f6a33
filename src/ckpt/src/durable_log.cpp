#include "treu/ckpt/durable_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <utility>

#include "file_io.hpp"
#include "treu/ckpt/format.hpp"

namespace treu::ckpt {
namespace {

constexpr std::string_view kDigestSep = " d=";
constexpr std::size_t kHexLen = 64;
constexpr std::size_t kSuffixLen = 3 + kHexLen;  // " d=<64hex>"

std::atomic<bool> g_fail_repairs{false};

std::string_view as_text(const std::vector<std::uint8_t> &bytes) {
  return {reinterpret_cast<const char *>(bytes.data()), bytes.size()};
}

// Newline-terminated lines plus a dangling final fragment, if any.
std::size_t count_lines(std::string_view text) {
  const auto n =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return n + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

bool has_header(std::string_view text, std::string_view header) {
  return text.starts_with(header) && text.size() > header.size() &&
         text[header.size()] == '\n';
}

// Verify the record lines after the header, chaining from `prev`.
DurableLog::Scan verify(std::string_view body, core::Digest prev) {
  DurableLog::Scan scan;
  while (!body.empty()) {
    const std::size_t nl = body.find('\n');
    if (nl == std::string_view::npos) {
      ++scan.torn;  // dangling fragment: a crash mid-append
      break;
    }
    const std::string_view line = body.substr(0, nl);
    body.remove_prefix(nl + 1);
    if (line.size() < kSuffixLen ||
        line.substr(line.size() - kSuffixLen, kDigestSep.size()) !=
            kDigestSep) {
      ++scan.torn;  // complete line, malformed framing
      scan.dropped = count_lines(body);
      break;
    }
    const std::string_view payload = line.substr(0, line.size() - kSuffixLen);
    const core::Digest d = core::chain_next(prev, core::sha256(payload));
    if (d.hex() != line.substr(line.size() - kHexLen)) {
      ++scan.corrupt;
      scan.dropped = count_lines(body);
      break;
    }
    scan.records.push_back({std::string(payload), d});
    prev = d;
  }
  return scan;
}

}  // namespace

DurableLog::DurableLog(std::string path, std::string header)
    : path_(std::move(path)), header_(std::move(header)), head_(genesis()) {}

core::Digest DurableLog::genesis() const { return core::sha256(header_); }

DurableLog::Scan DurableLog::scan() const {
  Scan scan;
  const auto raw = read_file(path_);
  if (!raw) {
    scan.missing = true;
    return scan;
  }
  const std::string_view text = as_text(*raw);
  if (!has_header(text, header_)) {
    scan.torn = count_lines(text);  // no chain anchor: every line orphaned
    return scan;
  }
  return verify(text.substr(header_.size() + 1), genesis());
}

std::size_t DurableLog::repair(std::size_t keep, std::string *error) {
  repair_error_.clear();
  core::Digest head = genesis();
  const auto raw = read_file(path_);
  if (!raw) {
    head_ = head;
    return 0;
  }
  const std::string_view text = as_text(*raw);
  std::size_t end = 0;  // a damaged header orphans every line: remove them
  if (has_header(text, header_)) {
    const Scan scan = verify(text.substr(header_.size() + 1), head);
    end = header_.size() + 1;
    for (std::size_t i = 0; i < std::min(keep, scan.records.size()); ++i) {
      end += scan.records[i].payload.size() + kSuffixLen + 1;
      head = scan.records[i].digest;
    }
  }
  std::error_code ec;
  if (end < text.size() && g_fail_repairs.load()) {
    ec = std::make_error_code(std::errc::operation_not_permitted);
  } else if (end == 0) {
    std::filesystem::remove(path_, ec);
  } else if (end < text.size()) {
    std::filesystem::resize_file(path_, end, ec);
  }
  if (ec) {
    repair_error_ = std::string(end == 0 ? "remove" : "truncate") +
                    " failed: " + path_ + ": " + ec.message();
    if (error != nullptr) *error = repair_error_;
  } else {
    head_ = head;
  }
  return count_lines(text.substr(end));
}

void DurableLog::fail_repairs_for_testing(bool fail) noexcept {
  g_fail_repairs.store(fail);
}

bool DurableLog::append(std::string_view payload, std::string *error) {
  return write_record(payload, /*tear=*/false, error);
}

void DurableLog::append_torn(std::string_view payload) {
  (void)write_record(payload, /*tear=*/true, nullptr);
}

bool DurableLog::write_record(std::string_view payload, bool tear,
                              std::string *error) {
  const auto fail = [&](const char *what) {
    if (error != nullptr) {
      *error = std::string(what) + " failed: " + path_ + ": " +
               std::strerror(errno);
    }
    return false;
  };
  if (!repair_error_.empty()) {
    if (error != nullptr) *error = "log left unrepaired: " + repair_error_;
    return false;
  }
  if (payload.find('\n') != std::string_view::npos) {
    if (error != nullptr) *error = "log payload spans lines: " + path_;
    return false;
  }
  const core::Digest d = core::chain_next(head_, core::sha256(payload));
  const std::string line =
      std::string(payload).append(kDigestSep).append(d.hex()) + '\n';

  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return fail("open");
  struct stat st {};
  const bool created = ::fstat(fd, &st) == 0 && st.st_size == 0;
  std::string bytes = created ? header_ + "\n" : std::string();
  bytes.append(line, 0, tear ? line.size() / 2 : line.size());
  // fail() records errno's message and yields false.
  const bool ok =
      (detail::write_all(
           fd, std::span(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                         bytes.size())) ||
       fail("write")) &&
      (::fsync(fd) == 0 || fail("fsync"));
  (void)::close(fd);
  if (created) detail::fsync_parent_dir(path_);
  if (ok && !tear) head_ = d;
  return ok;
}

}  // namespace treu::ckpt
