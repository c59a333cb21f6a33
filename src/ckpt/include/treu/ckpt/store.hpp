#pragma once

// CheckpointStore — a directory of checkpoints with crash-safe recovery.
//
// Layout:
//   <dir>/ckpt-<step, zero-padded>.treu   one container per checkpoint
//   <dir>/last-good                       tiny text manifest: the newest
//                                         committed file + its SHA-256
//   <dir>/*.tmp                           stranded atomic-write temps
//                                         (crash debris; recover() sweeps)
//
// Every write — checkpoint and manifest alike — goes through the atomic
// protocol, and both are subject to the store's FileInjector, so a
// simulated crash can strand either. recover() therefore trusts nothing:
//
//   1. sweep *.tmp debris — with one exception: a stranded last-good.tmp
//      that parses as a manifest, names the newest candidate on disk, and
//      whose named file hashes to the recorded digest is the footprint of
//      a crash *between* the manifest temp's fsync and its rename. The
//      write provably reached durable storage, so recovery completes the
//      interrupted rename (roll-forward) instead of deleting the evidence;
//   2. try the last-good manifest: if it parses, and the file it names
//      exists, and the file's bytes hash to the recorded digest, and the
//      container decodes clean — restore it (the fast path);
//   3. otherwise scan every ckpt-*.treu newest-step-first and restore the
//      first one that decodes clean, counting torn and corrupt skips.
//
// The scan never throws on damaged files: torn and corrupt checkpoints are
// bookkept and skipped. Only an empty or fully corrupt store yields "no
// checkpoint", and the caller decides whether that is fatal.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "treu/ckpt/checkpoint.hpp"
#include "treu/fault/file_fault.hpp"

namespace treu::ckpt {

class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if missing. `injector` (not owned, may be
  /// null, must outlive the store) faults every subsequent write.
  explicit CheckpointStore(std::string dir,
                           fault::FileInjector *injector = nullptr);

  struct WriteReport {
    bool checkpoint_committed = false;
    bool manifest_committed = false;
    std::string path;  // final checkpoint path (whether or not committed)
    /// SHA-256 of the encoded container: the bytes intended for `path`,
    /// as recorded in the last-good manifest.
    core::Digest file_digest;
    fault::FileFaultKind checkpoint_fault = fault::FileFaultKind::None;
    fault::FileFaultKind manifest_fault = fault::FileFaultKind::None;
    std::string error;  // non-injected I/O failure, empty otherwise
  };

  /// Atomically persist `ckpt` as ckpt-<step>.treu, then atomically update
  /// the last-good manifest to point at it. A faulted checkpoint write
  /// skips the manifest update (a real crash would too).
  WriteReport write(const TrainingCheckpoint &ckpt);

  struct RecoverReport {
    std::optional<TrainingCheckpoint> checkpoint;
    std::string path;            // file the checkpoint was restored from
    bool used_manifest = false;  // fast path: last-good was valid
    std::size_t scanned = 0;     // checkpoint files examined
    std::size_t torn = 0;        // skipped: structural damage
    std::size_t corrupt = 0;     // skipped: checksum mismatch
    std::size_t tmp_cleaned = 0;  // stranded .tmp files removed
    /// Stranded last-good.tmp manifests whose interrupted rename recovery
    /// completed (the crash landed between temp fsync and rename).
    std::size_t manifest_tmp_completed = 0;

    [[nodiscard]] bool ok() const noexcept { return checkpoint.has_value(); }
  };

  /// The recovery scan described above (ckpt.recover_us / ckpt.recover.*
  /// telemetry). Side effects: sweeps *.tmp debris and rolls forward a
  /// verifiable stranded manifest temp; touches nothing else.
  RecoverReport recover();

  /// Steps of the checkpoint files currently present, ascending. Lists
  /// whatever is on disk — including files a recover() would reject.
  [[nodiscard]] std::vector<std::uint64_t> steps() const;

  /// Delete committed checkpoints, oldest first, until at most `keep_last`
  /// remain — except the checkpoint the last-good manifest points at, which
  /// is never deleted (it is the recovery fast path; a stale manifest may
  /// name a file older than the keep window). Returns how many files were
  /// removed; the survivor count can exceed keep_last by one when the
  /// manifest target falls outside the window.
  std::size_t prune(std::size_t keep_last);

  [[nodiscard]] const std::string &dir() const noexcept { return dir_; }

  [[nodiscard]] static std::string filename_for_step(std::uint64_t step);
  [[nodiscard]] static std::optional<std::uint64_t> step_of_filename(
      const std::string &filename);

 private:
  [[nodiscard]] std::string manifest_path() const;

  std::string dir_;
  fault::FileInjector *injector_;
};

}  // namespace treu::ckpt
