#pragma once

// DurableLog — an append-only, hash-chained, newline-framed text log, the
// one record format under registry.log and the rollout journal:
//
//   <header>
//   <payload> d=<64hex>        d = chain_next(prev_d, SHA-256(payload))
//
// The first record's prev_d is the genesis digest, SHA-256 of the header
// line, so each `d` commits to the header and every record before it.
// append() is an O_APPEND write plus fsync; the append that creates the
// file writes the header too and fsyncs the parent directory. scan() never
// throws on damage; it returns the verified prefix and classifies the first
// bad line as torn (a dangling fragment, a line without the ` d=<64>`
// framing, or a damaged header, which orphans every line) or corrupt (a
// framed, complete line whose digest fails), and counts the lines after it
// as dropped.
//
// repair(keep) is the open step: it truncates to the header plus the first
// `keep` verified records and moves the head there (until it runs, appends
// chain onto genesis). A missing log is left missing: nothing is written
// or fsynced before the first append. When the cut itself fails, the log
// keeps its head and refuses appends until a repair succeeds, since a
// record chained after the lines left on disk would be dropped by the next
// scan.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "treu/core/sha256.hpp"

namespace treu::ckpt {

class DurableLog {
 public:
  struct Record {
    std::string payload;  // the line without its ` d=<64hex>` suffix
    core::Digest digest;  // its `d`
  };

  struct Scan {
    std::vector<Record> records;  // verified prefix, in order
    bool missing = false;         // no file at the path
    std::size_t torn = 0;
    std::size_t corrupt = 0;
    std::size_t dropped = 0;
  };

  /// No I/O. `header` is the file's first line, without the newline.
  DurableLog(std::string path, std::string header);

  [[nodiscard]] Scan scan() const;

  /// Cut to the header plus min(keep, verified) records and move the head
  /// there; a damaged header removes the file. Returns the lines cut. If
  /// the cut or the removal fails, sets `error`, keeps the head, and every
  /// append fails until a later repair() succeeds.
  std::size_t repair(std::size_t keep, std::string *error = nullptr);

  /// Durably append one record chained onto head(); `payload` must be one
  /// line. On failure returns false, sets `error`, and keeps the head.
  bool append(std::string_view payload, std::string *error = nullptr);

  /// Simulated crash mid-append: half the record line reaches the file.
  void append_torn(std::string_view payload);

  /// Test hook: while set, every repair() in the process fails its cut or
  /// removal as a filesystem refusing it would (EPERM), touching nothing.
  static void fail_repairs_for_testing(bool fail) noexcept;

  [[nodiscard]] core::Digest genesis() const;
  [[nodiscard]] const core::Digest &head() const noexcept { return head_; }
  [[nodiscard]] const std::string &path() const noexcept { return path_; }

 private:
  bool write_record(std::string_view payload, bool tear, std::string *error);

  std::string path_;
  std::string header_;
  core::Digest head_;
  std::string repair_error_;  // non-empty: the last repair() failed
};

}  // namespace treu::ckpt
