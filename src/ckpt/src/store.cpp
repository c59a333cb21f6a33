#include "treu/ckpt/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "file_io.hpp"
#include "treu/obs/obs.hpp"

namespace fs = std::filesystem;

namespace treu::ckpt {
namespace {

constexpr const char *kManifestName = "last-good";
constexpr const char *kManifestHeader = "treu-ckpt-manifest v1";
constexpr const char *kPrefix = "ckpt-";
constexpr const char *kSuffix = ".treu";

std::string hex(const core::Digest &d) { return d.hex(); }

struct Manifest {
  std::string filename;
  std::string digest_hex;
};

// "treu-ckpt-manifest v1\n<filename>\n<64 hex chars>\n"
std::vector<std::uint8_t> encode_manifest(const Manifest &m) {
  std::string text;
  text += kManifestHeader;
  text += '\n';
  text += m.filename;
  text += '\n';
  text += m.digest_hex;
  text += '\n';
  return {text.begin(), text.end()};
}

std::optional<Manifest> parse_manifest(const std::vector<std::uint8_t> &raw) {
  std::istringstream in(std::string(raw.begin(), raw.end()));
  std::string header;
  Manifest m;
  if (!std::getline(in, header) || header != kManifestHeader) {
    return std::nullopt;
  }
  if (!std::getline(in, m.filename) || m.filename.empty()) return std::nullopt;
  if (!std::getline(in, m.digest_hex) || m.digest_hex.size() != 64) {
    return std::nullopt;
  }
  // A manifest naming a path outside the store directory is hostile or
  // damaged either way — reject it rather than follow it.
  if (m.filename.find('/') != std::string::npos) return std::nullopt;
  return m;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir,
                                 fault::FileInjector *injector)
    : dir_(std::move(dir)), injector_(injector) {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // racing creators are fine; writes fail
                                     // loudly later if the dir is unusable
}

std::string CheckpointStore::filename_for_step(std::uint64_t step) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kPrefix,
                static_cast<unsigned long long>(step), kSuffix);
  return buf;
}

std::optional<std::uint64_t> CheckpointStore::step_of_filename(
    const std::string &filename) {
  const std::string prefix = kPrefix;
  const std::string suffix = kSuffix;
  if (filename.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (filename.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = filename.substr(
      prefix.size(), filename.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t step = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (step > (UINT64_MAX - d) / 10) return std::nullopt;
    step = step * 10 + d;
  }
  return step;
}

std::string CheckpointStore::manifest_path() const {
  return dir_ + "/" + kManifestName;
}

CheckpointStore::WriteReport CheckpointStore::write(
    const TrainingCheckpoint &ckpt) {
  WriteReport report;
  const std::string filename = filename_for_step(ckpt.step);
  report.path = dir_ + "/" + filename;

  const AtomicWriteResult wr =
      save_checkpoint_file(report.path, ckpt, injector_, &report.file_digest);
  report.checkpoint_committed = wr.committed;
  report.checkpoint_fault = wr.injected;
  report.error = wr.error;
  if (!wr.committed) return report;  // crashed before commit: no manifest

  // The manifest records the digest of the bytes we *intended* to commit.
  // An injected FlipBit commits then rots the file, so the manifest check
  // will (correctly) fail at recovery and fall back to the scan.
  const Manifest manifest{filename, hex(report.file_digest)};
  const AtomicWriteResult mw = atomic_write_file(
      manifest_path(), encode_manifest(manifest), injector_);
  report.manifest_committed = mw.committed;
  report.manifest_fault = mw.injected;
  if (!mw.error.empty()) report.error = mw.error;
  return report;
}

CheckpointStore::RecoverReport CheckpointStore::recover() {
  TREU_OBS_SPAN(recover_span, "ckpt.recover");
  TREU_OBS_SCOPED_LATENCY_US(recover_timer, "ckpt.recover_us");
  RecoverReport report;

  // Pass 1: index candidate checkpoints and collect atomic-write debris.
  // Debris handling is deferred until the candidates are known: whether a
  // stranded manifest temp is salvageable depends on the newest step.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  std::vector<std::string> tmp_debris;
  std::error_code ec;
  for (const auto &entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      tmp_debris.push_back(entry.path().string());
      continue;
    }
    if (const auto step = step_of_filename(name)) {
      candidates.emplace_back(*step, entry.path().string());
    }
  }

  std::uint64_t max_step = 0;
  for (const auto &[step, path] : candidates) max_step = std::max(max_step, step);

  // Sweep the debris — except a stranded last-good.tmp that is provably the
  // fsynced-but-unrenamed manifest of the newest checkpoint on disk (a
  // crash in the window between the temp's fsync and its rename). That one
  // write already reached durable storage, so complete the interrupted
  // rename instead of deleting it: the fast path below then works exactly
  // as if the crash had landed one instruction later.
  const std::string manifest_tmp = manifest_path() + ".tmp";
  for (const std::string &tmp : tmp_debris) {
    if (tmp == manifest_tmp) {
      bool salvaged = false;
      if (const auto raw = read_file(tmp)) {
        if (const auto manifest = parse_manifest(*raw)) {
          const auto manifest_step = step_of_filename(manifest->filename);
          if (manifest_step && *manifest_step == max_step &&
              !candidates.empty()) {
            if (const auto bytes = read_file(dir_ + "/" + manifest->filename)) {
              if (hex(core::sha256(*bytes)) == manifest->digest_hex) {
                salvaged =
                    std::rename(tmp.c_str(), manifest_path().c_str()) == 0;
                if (salvaged) detail::fsync_parent_dir(manifest_path());
              }
            }
          }
        }
      }
      if (salvaged) {
        ++report.manifest_tmp_completed;
        TREU_OBS_COUNTER_ADD("ckpt.recover.manifest_tmp_completed", 1);
        continue;
      }
      // Torn, stale, or unverifiable manifest temp: plain debris.
    }
    std::error_code rm_ec;
    if (fs::remove(tmp, rm_ec)) ++report.tmp_cleaned;
  }
  if (report.tmp_cleaned > 0) {
    TREU_OBS_COUNTER_ADD("ckpt.recover.tmp_cleaned", report.tmp_cleaned);
  }

  // Pass 2: the last-good manifest fast path. Trust nothing in it — the
  // named file must exist, hash to the recorded digest, and decode clean.
  // It can also be *stale*: a checkpoint can commit and then the manifest
  // update crash, leaving the manifest pointing one write behind. Recovery
  // promises the newest valid checkpoint, so the fast path only applies
  // when the manifest names the newest candidate on disk.
  std::string manifest_rejected;
  if (const auto raw = read_file(manifest_path())) {
    if (const auto manifest = parse_manifest(*raw)) {
      const auto manifest_step = step_of_filename(manifest->filename);
      const std::string path = dir_ + "/" + manifest->filename;
      if (manifest_step && *manifest_step == max_step && !candidates.empty()) {
        if (const auto bytes = read_file(path)) {
          if (hex(core::sha256(*bytes)) == manifest->digest_hex) {
            LoadResult loaded = decode_checkpoint(*bytes);
            ++report.scanned;
            if (loaded.ok()) {
              report.checkpoint = std::move(loaded.checkpoint);
              report.path = path;
              report.used_manifest = true;
              TREU_OBS_COUNTER_ADD("ckpt.recover.manifest_hits", 1);
              TREU_OBS_COUNTER_ADD("ckpt.recoveries_total", 1);
              TREU_OBS_FR_EVENT(CkptRecover, 0, report.checkpoint->step, 1);
              return report;
            }
            // Digest matched but the container is invalid: the manifest
            // was written against bad bytes. Fall through to the scan.
            if (loaded.failure == DecodeFailure::Torn) ++report.torn;
            if (loaded.failure == DecodeFailure::Corrupt) ++report.corrupt;
            manifest_rejected = path;
          }
        }
      }
    }
    TREU_OBS_COUNTER_ADD("ckpt.recover.manifest_misses", 1);
  }

  // Pass 3: full scan, newest step first; first clean decode wins.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto &a, const auto &b) { return a.first > b.first; });
  for (const auto &[step, path] : candidates) {
    if (path == manifest_rejected) continue;  // already counted above
    LoadResult loaded = load_checkpoint_file(path);
    ++report.scanned;
    if (loaded.ok()) {
      report.checkpoint = std::move(loaded.checkpoint);
      report.path = path;
      TREU_OBS_COUNTER_ADD("ckpt.recoveries_total", 1);
      TREU_OBS_FR_EVENT(CkptRecover, 0, report.checkpoint->step, 0);
      break;
    }
    if (loaded.failure == DecodeFailure::Torn) {
      ++report.torn;
      TREU_OBS_COUNTER_ADD("ckpt.recover.torn_skipped", 1);
    } else {
      ++report.corrupt;
      TREU_OBS_COUNTER_ADD("ckpt.recover.corrupt_skipped", 1);
    }
  }
  if (!report.ok()) TREU_OBS_COUNTER_ADD("ckpt.recover.empty", 1);
  return report;
}

std::vector<std::uint64_t> CheckpointStore::steps() const {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto &entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto step =
            step_of_filename(entry.path().filename().string())) {
      out.push_back(*step);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t CheckpointStore::prune(std::size_t keep_last) {
  const std::vector<std::uint64_t> all = steps();
  if (all.size() <= keep_last) return 0;
  // Never delete the checkpoint the last-good manifest points at: it is the
  // recovery fast path, and when the manifest is stale (checkpoint
  // committed, manifest update crashed) it may name a file *older* than the
  // keep window. Deleting it would turn the next recover() into a scan at
  // best and — if newer files later rot — cost the only provably good
  // checkpoint.
  std::optional<std::uint64_t> manifest_step;
  if (const auto raw = read_file(manifest_path())) {
    if (const auto manifest = parse_manifest(*raw)) {
      manifest_step = step_of_filename(manifest->filename);
    }
  }
  std::size_t removed = 0;
  for (std::size_t i = 0; i + keep_last < all.size(); ++i) {
    if (manifest_step && all[i] == *manifest_step) continue;
    std::error_code ec;
    if (fs::remove(dir_ + "/" + filename_for_step(all[i]), ec)) ++removed;
  }
  return removed;
}

}  // namespace treu::ckpt
