#pragma once

// ModelRegistry — a versioned, tamper-evident publication log on top of
// ckpt::CheckpointStore.
//
// Publishing a checkpoint is two durable steps:
//
//   1. the checkpoint container commits through the store's atomic
//      tmp+fsync+rename protocol (ckpt-<step>.treu);
//   2. one record is appended to <dir>/registry.log, a ckpt::DurableLog
//      (O_APPEND write, then fsync):
//        entry v=<n> step=<n> file=<name> weights=<hex> bytes=<hex> d=<hex>
//
// The log owns the hash chain (each `d` covers its predecessor's; genesis
// = SHA-256 of the header line), so truncating, reordering, or editing any
// record breaks verification from that point on — the nonrepudiation
// property the paper's trust theme asks for. scan() never throws: it
// classifies damage (torn vs corrupt), keeps the verified prefix, and
// reports what it dropped; a record that verifies but does not parse as
// the next `entry` counts as torn. Construction cuts the log back to that
// prefix so the next append starts on a record boundary.
//
// A chain-verified record is necessary but not sufficient to serve from:
// the checkpoint *file* can rot independently of the log. An entry is
// `vetted` only when the bytes on disk still hash to the recorded file
// digest — that check is what stands between a PublishCorrupt fault and
// production traffic.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "treu/ckpt/checkpoint.hpp"
#include "treu/ckpt/durable_log.hpp"
#include "treu/ckpt/store.hpp"

namespace treu::pipeline {

/// One publication record, as stored in (or parsed from) registry.log.
struct RegistryEntry {
  std::uint64_t version = 0;  // 1-based publication index
  std::uint64_t step = 0;     // training step of the checkpoint
  std::string filename;       // checkpoint file inside the registry dir
  std::string weight_digest;  // hex digest of the checkpoint's parameters
  std::string file_digest;    // hex SHA-256 of the committed container
  std::string prev_digest;    // predecessor's entry_digest (genesis for v1)
  std::string entry_digest;   // the record's chain digest (its `d=`)
  /// Filled by scan(): the on-disk file still hashes to file_digest, so
  /// these exact bytes may be loaded and served.
  bool vetted = false;
};

/// Simulated publish-time faults (driven by fault::FaultPlan decisions;
/// see RolloutController). Both default off.
struct PublishFaults {
  /// Flip one bit of the committed checkpoint file after the digest was
  /// recorded — at-rest rot between publish and verification.
  bool corrupt_file = false;
  /// Crash mid log-append: only a prefix of the record reaches the log and
  /// the in-memory registry must be discarded, exactly as if the process
  /// died. The caller treats the publish as never having happened.
  bool tear_log = false;
};

class ModelRegistry {
 public:
  /// Opens (creating the directory if needed) the registry at `dir`. Runs a
  /// scan and cuts the log back to its verified prefix, so appends resume
  /// on a record boundary after any crash; a missing log is not created.
  /// Throws std::runtime_error when that cut fails (the log would chain new
  /// records after unverifiable bytes). `injector` (not owned, may be null)
  /// faults the
  /// checkpoint writes, same as CheckpointStore.
  explicit ModelRegistry(std::string dir,
                         fault::FileInjector *injector = nullptr);

  struct PublishReport {
    bool committed = false;  // checkpoint file reached disk
    bool logged = false;     // registry record durably appended
    bool vetted = false;     // post-publish verification passed
    bool torn_log = false;   // tear_log fault fired (treat as a crash)
    RegistryEntry entry;
    std::string error;
  };

  /// Publish one checkpoint: atomic container write, then chained log
  /// append, then read-back verification. Never throws on I/O failure —
  /// the report says how far the publish got.
  PublishReport publish(const ckpt::TrainingCheckpoint &ckpt,
                        const PublishFaults &faults = {});

  struct ScanReport {
    std::vector<RegistryEntry> entries;  // verified chain prefix, in order
    bool log_missing = false;
    std::size_t torn = 0;     // structurally damaged records (incl. tail)
    std::size_t corrupt = 0;  // records whose digest/chain check failed
    std::size_t dropped = 0;  // records after the first bad one, unclassified
    std::size_t unvetted = 0; // chain-valid entries whose file rotted
  };

  /// Classified, never-throw read of the on-disk log: chain-verify every
  /// record, stop at the first bad one, then vet each surviving entry's
  /// checkpoint file against its recorded digest.
  [[nodiscard]] ScanReport scan() const;

  /// Newest chain-verified entry whose file still verifies, if any: the
  /// newest vetted entry of scan(). Vets newest-first and stops at the
  /// first file that verifies, so it usually hashes one checkpoint.
  [[nodiscard]] std::optional<RegistryEntry> latest_vetted() const;

  /// Chain-verified entry with this version, if any.
  [[nodiscard]] std::optional<RegistryEntry> entry_for_version(
      std::uint64_t version) const;

  /// Re-check one entry's checkpoint file against its recorded digest.
  [[nodiscard]] bool verify_entry(const RegistryEntry &entry) const;

  /// Decode the entry's checkpoint file (classified; never throws).
  [[nodiscard]] ckpt::LoadResult load(const RegistryEntry &entry) const;

  /// Digest the next record must chain onto.
  [[nodiscard]] std::string head_digest() const;

  /// Versions currently in the verified chain (in-memory view).
  [[nodiscard]] std::uint64_t head_version() const;

  [[nodiscard]] const std::string &dir() const noexcept { return dir_; }
  [[nodiscard]] std::string log_path() const { return dir_ + "/registry.log"; }
  [[nodiscard]] ckpt::CheckpointStore &store() noexcept { return store_; }

  /// Chain anchor: SHA-256 of the header line "treu-model-registry v2".
  [[nodiscard]] static std::string genesis_digest();

 private:
  /// scan() without the file vetting: the verified chain prefix, every
  /// entry's `vetted` false and `unvetted` 0.
  [[nodiscard]] ScanReport scan_chain() const;

  std::string dir_;
  ckpt::CheckpointStore store_;
  ckpt::DurableLog log_;
  // Verified chain as of construction plus successful publishes since.
  std::vector<RegistryEntry> entries_;
};

}  // namespace treu::pipeline
