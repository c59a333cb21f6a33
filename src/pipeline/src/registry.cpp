#include "treu/pipeline/registry.hpp"

#include <stdexcept>
#include <utility>

#include "payload_words.hpp"
#include "treu/core/sha256.hpp"
#include "treu/obs/obs.hpp"

namespace treu::pipeline {
namespace {

constexpr const char *kLogHeader = "treu-model-registry v2";

bool valid_hex64(std::string_view s) {
  return s.size() == 64 &&
         s.find_first_not_of("0123456789abcdef") == std::string_view::npos;
}

// "entry v=<n> step=<n> file=<name> weights=<hex> bytes=<hex>". A payload
// that does not match (or names a path outside the registry dir) ->
// nullopt. The chain digests are filled in by the caller.
std::optional<RegistryEntry> parse_payload(std::string_view payload) {
  const auto w = detail::words(payload);
  if (w.size() != 6 || w[0] != "entry") return std::nullopt;
  const auto version = detail::u64_field(w[1], "v");
  const auto step = detail::u64_field(w[2], "step");
  const auto file = detail::field(w[3], "file");
  const auto weights = detail::field(w[4], "weights");
  const auto bytes = detail::field(w[5], "bytes");
  if (!version || !step || !file || !weights || !bytes ||
      file->find('/') != std::string_view::npos || !valid_hex64(*weights) ||
      !valid_hex64(*bytes)) {
    return std::nullopt;
  }
  RegistryEntry e;
  e.version = *version;
  e.step = *step;
  e.filename = *file;
  e.weight_digest = *weights;
  e.file_digest = *bytes;
  return e;
}

std::string format_payload(const RegistryEntry &e) {
  return "entry v=" + std::to_string(e.version) +
         " step=" + std::to_string(e.step) + " file=" + e.filename +
         " weights=" + e.weight_digest + " bytes=" + e.file_digest;
}

}  // namespace

std::string ModelRegistry::genesis_digest() {
  return core::sha256(std::string_view(kLogHeader)).hex();
}

ModelRegistry::ModelRegistry(std::string dir, fault::FileInjector *injector)
    : dir_(std::move(dir)),
      store_(dir_, injector),
      log_(dir_ + "/registry.log", kLogHeader) {
  // CheckpointStore's constructor created the directory. Load the verified
  // chain and cut everything after it so the next append starts clean.
  entries_ = scan().entries;
  std::string error;
  (void)log_.repair(entries_.size(), &error);
  if (!error.empty()) throw std::runtime_error("ModelRegistry: " + error);
}

ModelRegistry::ScanReport ModelRegistry::scan_chain() const {
  const ckpt::DurableLog::Scan log = log_.scan();
  ScanReport report;
  report.log_missing = log.missing;
  report.torn = log.torn;
  report.corrupt = log.corrupt;
  report.dropped = log.dropped;

  std::string prev = genesis_digest();
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    std::optional<RegistryEntry> entry = parse_payload(log.records[i].payload);
    if (!entry || entry->version != i + 1) {
      // Chain-verified but not a registry record: structural damage, and
      // every line after it is unverifiable.
      report.dropped = log.records.size() - i - 1 + log.torn + log.corrupt +
                       log.dropped;
      report.torn = 1;
      report.corrupt = 0;
      break;
    }
    entry->prev_digest = prev;
    entry->entry_digest = log.records[i].digest.hex();
    prev = entry->entry_digest;
    report.entries.push_back(std::move(*entry));
  }
  return report;
}

ModelRegistry::ScanReport ModelRegistry::scan() const {
  ScanReport report = scan_chain();
  for (auto &entry : report.entries) {
    entry.vetted = verify_entry(entry);
    if (!entry.vetted) ++report.unvetted;
  }
  return report;
}

bool ModelRegistry::verify_entry(const RegistryEntry &entry) const {
  const auto bytes = ckpt::read_file(dir_ + "/" + entry.filename);
  if (!bytes) return false;
  return core::sha256(*bytes).hex() == entry.file_digest;
}

ckpt::LoadResult ModelRegistry::load(const RegistryEntry &entry) const {
  return ckpt::load_checkpoint_file(dir_ + "/" + entry.filename);
}

std::string ModelRegistry::head_digest() const { return log_.head().hex(); }

std::uint64_t ModelRegistry::head_version() const {
  return entries_.empty() ? 0 : entries_.back().version;
}

std::optional<RegistryEntry> ModelRegistry::latest_vetted() const {
  ScanReport report = scan_chain();
  for (auto it = report.entries.rbegin(); it != report.entries.rend(); ++it) {
    it->vetted = verify_entry(*it);
    if (it->vetted) return std::move(*it);
  }
  return std::nullopt;
}

std::optional<RegistryEntry> ModelRegistry::entry_for_version(
    std::uint64_t version) const {
  for (const auto &e : entries_) {
    if (e.version == version) return e;
  }
  return std::nullopt;
}

ModelRegistry::PublishReport ModelRegistry::publish(
    const ckpt::TrainingCheckpoint &ckpt, const PublishFaults &faults) {
  TREU_OBS_SPAN(publish_span, "pipeline.publish");
  TREU_OBS_SCOPED_LATENCY_US(publish_timer, "pipeline.publish_us");
  PublishReport report;

  // One encode and one file hash: the store's write digests the bytes it
  // commits, and that digest goes into both the manifest and the record.
  const ckpt::CheckpointStore::WriteReport wr = store_.write(ckpt);
  report.committed = wr.checkpoint_committed;
  if (!wr.checkpoint_committed) {
    report.error = wr.error.empty() ? "checkpoint write did not commit"
                                    : wr.error;
    TREU_OBS_COUNTER_ADD("pipeline.publish.failed", 1);
    return report;
  }

  if (faults.corrupt_file) {
    // Rot the committed container at rest, after its digest was taken:
    // the chain record stays honest and verification must now reject it.
    if (auto on_disk = ckpt::read_file(wr.path)) {
      if (!on_disk->empty()) {
        (*on_disk)[on_disk->size() / 2] ^= 0x20;
        (void)ckpt::atomic_write_file(wr.path, *on_disk);
      }
    }
  }

  RegistryEntry entry;
  entry.version = head_version() + 1;
  entry.step = ckpt.step;
  entry.filename = ckpt::CheckpointStore::filename_for_step(ckpt.step);
  entry.weight_digest = ckpt.weight_digest().hex();
  entry.file_digest = wr.file_digest.hex();
  entry.prev_digest = head_digest();
  const std::string payload = format_payload(entry);

  if (faults.tear_log) {
    log_.append_torn(payload);
    report.torn_log = true;
    report.error = "registry log append torn (simulated crash)";
    TREU_OBS_COUNTER_ADD("pipeline.publish.torn_log", 1);
    return report;
  }

  if (!log_.append(payload, &report.error)) {
    TREU_OBS_COUNTER_ADD("pipeline.publish.failed", 1);
    return report;
  }
  entry.entry_digest = head_digest();
  report.logged = true;
  entries_.push_back(entry);

  // Read-back verification: the publish is only as good as what a fresh
  // recovery would find.
  entry.vetted = verify_entry(entry);
  report.vetted = entry.vetted;
  report.entry = entry;
  entries_.back().vetted = entry.vetted;
  TREU_OBS_COUNTER_ADD("pipeline.publishes_total", 1);
  if (!report.vetted) {
    TREU_OBS_COUNTER_ADD("pipeline.publish.unvetted", 1);
  }
  TREU_OBS_FR_EVENT(PipelinePublish, 0, entry.version,
                    report.vetted ? 1 : 0);
  return report;
}

}  // namespace treu::pipeline
