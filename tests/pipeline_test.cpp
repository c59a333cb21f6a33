// treu::pipeline — closed-loop train→deploy: crash-safe model registry,
// deterministic canary rollout, auto-rollback under fault injection.
//
// The invariants under test are the paper's trust story end-to-end:
//   * every registry record chains (SHA-256) onto its predecessor, so any
//     tampering or torn append is detected, classified, and skipped;
//   * the serving fleet's weight digest always equals a chain-verified
//     registry entry, and no request is ever answered by an unvetted
//     checkpoint;
//   * a controller killed at any state converges to Promoted or
//     RolledBack on restart, from the journal alone;
//   * two same-seed soak runs — crashes, corruption, and all — produce
//     byte-identical rollout journals and registry logs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "treu/ckpt/checkpoint.hpp"
#include "treu/ckpt/format.hpp"
#include "treu/core/rng.hpp"
#include "treu/core/sha256.hpp"
#include "treu/fault/fault_plan.hpp"
#include "treu/nn/mlp.hpp"
#include "treu/nn/param.hpp"
#include "treu/pipeline/canary_server.hpp"
#include "treu/pipeline/registry.hpp"
#include "treu/pipeline/rollout.hpp"
#include "treu/serve/batch_server.hpp"

namespace ckpt = treu::ckpt;
namespace fault = treu::fault;
namespace nn = treu::nn;
namespace pipeline = treu::pipeline;
namespace serve = treu::serve;
using treu::core::Rng;
using treu::tensor::Matrix;

namespace {

std::string fresh_dir(const std::string &name) {
  const std::string dir = testing::TempDir() + "treu_pipeline_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::uint64_t env_seed(const char *name, std::uint64_t fallback) {
  const char *raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

// Three well-separated gaussian blobs in R^4: trivially learnable, so a
// trained incumbent scores near 1.0 and an untrained candidate near 1/3 —
// a regression the canary comparison cannot miss.
nn::Dataset make_blobs(std::size_t n, Rng &rng) {
  nn::Dataset d;
  d.x = Matrix(n, 4);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % 3;
    d.y[i] = c;
    for (std::size_t j = 0; j < 4; ++j) {
      d.x.at(i, j) = (j == c ? 2.5 : 0.0) + 0.5 * rng.normal();
    }
  }
  return d;
}

std::vector<double> flat_weights(nn::MlpClassifier &m) {
  auto p = m.params();
  return nn::save_weights(std::span<nn::Param *const>(p.data(), p.size()));
}

std::vector<double> flat_of_checkpoint(const ckpt::TrainingCheckpoint &c) {
  std::vector<double> flat;
  for (const Matrix &m : c.params) {
    flat.insert(flat.end(), m.flat().begin(), m.flat().end());
  }
  return flat;
}

ckpt::TrainingCheckpoint capture_weights(nn::MlpClassifier &m,
                                         std::uint64_t step) {
  auto p = m.params();
  return ckpt::TrainingCheckpoint::capture(
      std::span<nn::Param *const>(p.data(), p.size()), nullptr, nullptr,
      step);
}

using MlpSplit =
    pipeline::CanarySplitServer<std::vector<double>, nn::ClassScores>;
using MlpModel = MlpSplit::Model;

void apply_checkpoint(MlpModel &replica, const ckpt::TrainingCheckpoint &c) {
  auto &m = static_cast<nn::MlpClassifier &>(replica);
  auto p = m.params();
  c.restore(std::span<nn::Param *const>(p.data(), p.size()), nullptr,
            nullptr);
}

void apply_flat(MlpModel &replica, const std::vector<double> &flat) {
  auto &m = static_cast<nn::MlpClassifier &>(replica);
  auto p = m.params();
  nn::load_weights(std::span<nn::Param *const>(p.data(), p.size()), flat);
}

std::vector<double> row_of(const Matrix &x, std::size_t r) {
  std::vector<double> row(x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) row[j] = x.at(r, j);
  return row;
}

// A complete deployment: a trained incumbent on a 2-replica primary fleet
// plus a 1-replica canary fleet, an eval set, and RolloutHooks that go
// through the real serving reload path (digest-validated, standby-first).
// Every response's weight hash is recorded for the provenance audit.
struct Deployment {
  nn::Dataset eval;
  std::unique_ptr<nn::MlpClassifier> p0, p1, c0, scratch;
  std::optional<MlpSplit> split;
  std::vector<double> incumbent_flat;
  std::string incumbent_hash;
  pipeline::ModelRegistry *registry = nullptr;

  std::vector<std::string> primary_served;  // every hash the primary
  std::vector<std::string> canary_served;   // / canary fleet answered with

  void init(std::uint64_t seed) {
    Rng data_rng(seed, 1);
    eval = make_blobs(96, data_rng);

    Rng m_rng(seed, 2);
    p0 = std::make_unique<nn::MlpClassifier>(
        4, std::vector<std::size_t>{8}, 3, m_rng);
    p1 = std::make_unique<nn::MlpClassifier>(
        4, std::vector<std::size_t>{8}, 3, m_rng);
    c0 = std::make_unique<nn::MlpClassifier>(
        4, std::vector<std::size_t>{8}, 3, m_rng);
    scratch = std::make_unique<nn::MlpClassifier>(
        4, std::vector<std::size_t>{8}, 3, m_rng);

    nn::TrainConfig tc;
    tc.epochs = 60;
    tc.batch_size = 16;
    tc.lr = 0.01;
    Rng train_rng(seed, 3);
    (void)p0->train(eval, tc, train_rng);

    incumbent_flat = flat_weights(*p0);
    incumbent_hash = p0->weight_hash();
    apply_flat(*p1, incumbent_flat);
    apply_flat(*c0, incumbent_flat);

    serve::ServeConfig cfg;
    cfg.max_batch_size = 8;
    cfg.max_queue_delay = std::chrono::microseconds(200);
    cfg.max_pending = 256;
    split.emplace(std::vector<MlpModel *>{p0.get(), p1.get()},
                  std::vector<MlpModel *>{c0.get()}, cfg,
                  /*fraction=*/0.25, /*salt=*/0xC0FFEEULL + seed);
  }

  [[nodiscard]] double incumbent_accuracy() {
    apply_flat(*scratch, incumbent_flat);
    return scratch->evaluate(eval);
  }

  /// Candidate = incumbent + small parameter noise (a benign fine-tune).
  [[nodiscard]] ckpt::TrainingCheckpoint good_candidate(std::uint64_t step,
                                                        std::uint64_t salt) {
    Rng rng(salt, step);
    std::vector<double> flat = incumbent_flat;
    for (double &w : flat) w += 1e-3 * rng.normal();
    apply_flat(*scratch, flat);
    return capture_weights(*scratch, step);
  }

  /// Candidate with deliberately degraded eval accuracy: an untrained
  /// model (near-chance on the blobs).
  [[nodiscard]] ckpt::TrainingCheckpoint regressed_candidate(
      std::uint64_t step, std::uint64_t salt) {
    Rng rng(salt, step);
    nn::MlpClassifier fresh(4, std::vector<std::size_t>{8}, 3, rng);
    return capture_weights(fresh, step);
  }

  [[nodiscard]] pipeline::RolloutHooks hooks() {
    pipeline::RolloutHooks h;
    h.start_canary = [this](const pipeline::RegistryEntry &entry) {
      const ckpt::LoadResult lr = registry->load(entry);
      if (!lr.ok()) return false;
      const auto report = split->reload_canary(
          [&](MlpModel &m) { apply_checkpoint(m, *lr.checkpoint); },
          entry.weight_digest,
          [this](MlpModel &m) { apply_flat(m, incumbent_flat); });
      return report.ok;
    };
    h.score = [this](const pipeline::RegistryEntry &entry) {
      (void)entry;
      pipeline::CanaryVerdict v;
      std::uint64_t cand_ok = 0, inc_ok = 0, answered = 0;
      const std::size_t n = eval.size();
      for (std::size_t i = 0; i < n; ++i) {
        auto in = row_of(eval.x, i);
        auto fc = split->submit_to_canary(in);
        auto fp = split->submit_to_primary(std::move(in));
        try {
          const auto sc = fc.get();
          canary_served.push_back(sc.weight_hash);
          ++answered;
          if (sc.output.label == eval.y[i]) ++cand_ok;
        } catch (const std::exception &) {
          ++v.canary_errors;
        }
        const auto sp = fp.get();
        primary_served.push_back(sp.weight_hash);
        if (sp.output.label == eval.y[i]) ++inc_ok;
      }
      v.candidate_score = static_cast<double>(cand_ok) / n;
      v.incumbent_score = static_cast<double>(inc_ok) / n;
      v.canary_goodput = static_cast<double>(answered) / n;
      return v;
    };
    h.promote = [this](const pipeline::RegistryEntry &entry) {
      const ckpt::LoadResult lr = registry->load(entry);
      if (!lr.ok()) return false;
      const auto apply = [&](MlpModel &m) {
        apply_checkpoint(m, *lr.checkpoint);
      };
      const auto undo = [this](MlpModel &m) {
        apply_flat(m, incumbent_flat);
      };
      if (!split->reload_primary(apply, entry.weight_digest, undo).ok) {
        return false;
      }
      if (!split->reload_canary(apply, entry.weight_digest, undo).ok) {
        return false;
      }
      incumbent_flat = flat_of_checkpoint(*lr.checkpoint);
      incumbent_hash = entry.weight_digest;
      return true;
    };
    h.rollback = [this]() {
      const auto apply = [this](MlpModel &m) {
        apply_flat(m, incumbent_flat);
      };
      // Both fleets back to the incumbent: idempotent whether the crash
      // landed before, during, or after either fleet moved.
      const bool canary_ok =
          split->reload_canary(apply, incumbent_hash, apply).ok;
      const bool primary_ok =
          split->reload_primary(apply, incumbent_hash, apply).ok;
      return canary_ok && primary_ok;
    };
    return h;
  }

  /// Key-routed traffic burst through the split; responses recorded per
  /// fleet. Serial closed-loop, so routing and hashes are deterministic.
  void drive_traffic(std::uint64_t base_key, std::size_t requests) {
    for (std::size_t k = 0; k < requests; ++k) {
      const std::uint64_t key = base_key + k;
      auto fut = split->submit(key, row_of(eval.x, k % eval.size()));
      const auto served = fut.get();
      if (split->routes_to_canary(key)) {
        canary_served.push_back(served.weight_hash);
      } else {
        primary_served.push_back(served.weight_hash);
      }
    }
  }
};

// Bootstrap: publish the incumbent itself and promote it, so the serving
// digest is a chain-verified registry entry from the first real cycle on.
void baseline_promote(pipeline::RolloutController &ctl, Deployment &dep,
                      std::uint64_t step = 1) {
  apply_flat(*dep.scratch, dep.incumbent_flat);
  const auto report = ctl.run_cycle(capture_weights(*dep.scratch, step));
  ASSERT_TRUE(report.pass) << report.error;
  ASSERT_EQ(report.state, pipeline::RolloutState::Promoted);
  ASSERT_EQ(ctl.incumbent_version(), report.entry.version);
}

// ---------------------------------------------------------------------------
// Deterministic canary routing

TEST(CanaryRouting, PureAndSeedStable) {
  // Same (key, salt, fraction) -> same route, always.
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(pipeline::in_canary_slice(key, 7, 0.25),
              pipeline::in_canary_slice(key, 7, 0.25));
  }
  // Fraction bounds are exact.
  EXPECT_FALSE(pipeline::in_canary_slice(123, 7, 0.0));
  EXPECT_TRUE(pipeline::in_canary_slice(123, 7, 1.0));
  // The slice is near its nominal size on a key range (mix64 is uniform).
  std::size_t canary = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    if (pipeline::in_canary_slice(key, 99, 0.25)) ++canary;
  }
  EXPECT_GT(canary, 4096 * 0.18);
  EXPECT_LT(canary, 4096 * 0.32);
  // Different salts pick different slices (no accidental coupling).
  std::size_t differs = 0;
  for (std::uint64_t key = 0; key < 1024; ++key) {
    if (pipeline::in_canary_slice(key, 1, 0.25) !=
        pipeline::in_canary_slice(key, 2, 0.25)) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0u);
}

// ---------------------------------------------------------------------------
// ModelRegistry: digest chain, classified recovery

ckpt::TrainingCheckpoint toy_ckpt(std::uint64_t step,
                                  std::uint64_t fill_seed = 7) {
  Rng rng(fill_seed, step);
  ckpt::TrainingCheckpoint c;
  c.step = step;
  c.params.emplace_back(2, 3);
  for (double &v : c.params[0].flat()) v = rng.normal();
  return c;
}

TEST(PipelineRegistry, PublishChainsEntries) {
  pipeline::ModelRegistry reg(fresh_dir("chain"));
  for (const std::uint64_t step : {10u, 20u, 30u}) {
    const auto report = reg.publish(toy_ckpt(step));
    ASSERT_TRUE(report.logged) << report.error;
    EXPECT_TRUE(report.vetted);
  }
  const auto scan = reg.scan();
  ASSERT_EQ(scan.entries.size(), 3u);
  EXPECT_EQ(scan.torn + scan.corrupt + scan.unvetted, 0u);
  EXPECT_EQ(scan.entries[0].prev_digest,
            pipeline::ModelRegistry::genesis_digest());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scan.entries[i].version, i + 1);
    EXPECT_TRUE(scan.entries[i].vetted);
    if (i > 0) {
      EXPECT_EQ(scan.entries[i].prev_digest,
                scan.entries[i - 1].entry_digest);
    }
  }
  // A fresh registry on the same directory sees the same verified chain.
  pipeline::ModelRegistry again(reg.dir());
  EXPECT_EQ(again.head_version(), 3u);
  EXPECT_EQ(again.head_digest(), scan.entries[2].entry_digest);
}

TEST(PipelineRegistry, TornTailIsClassifiedAndRepaired) {
  const std::string dir = fresh_dir("torn");
  std::string head_digest;
  {
    pipeline::ModelRegistry reg(dir);
    ASSERT_TRUE(reg.publish(toy_ckpt(10)).logged);
    ASSERT_TRUE(reg.publish(toy_ckpt(20)).logged);
    head_digest = reg.head_digest();
    // Crash mid-append: a partial record with no newline.
    std::ofstream log(reg.log_path(), std::ios::app | std::ios::binary);
    log << "entry v=3 step=30 file=ckpt";
  }
  pipeline::ModelRegistry reg(dir);
  const auto scan = reg.scan();
  EXPECT_EQ(scan.entries.size(), 2u);  // torn tail dropped, prefix kept
  EXPECT_EQ(reg.head_version(), 2u);
  EXPECT_EQ(reg.head_digest(), head_digest);
  // Construction repaired the log: the next publish chains cleanly.
  ASSERT_TRUE(reg.publish(toy_ckpt(30)).logged);
  const auto after = reg.scan();
  ASSERT_EQ(after.entries.size(), 3u);
  EXPECT_EQ(after.torn + after.corrupt, 0u);
  EXPECT_EQ(after.entries[2].prev_digest, head_digest);
}

/// Every DurableLog::repair() in the process fails its cut while this lives.
struct RefusedRepairs {
  RefusedRepairs() { ckpt::DurableLog::fail_repairs_for_testing(true); }
  ~RefusedRepairs() { ckpt::DurableLog::fail_repairs_for_testing(false); }
};

TEST(PipelineRegistry, OpenThrowsWhenTheTornTailCannotBeCut) {
  const std::string dir = fresh_dir("refusedcut");
  {
    pipeline::ModelRegistry reg(dir);
    ASSERT_TRUE(reg.publish(toy_ckpt(10)).logged);
    std::ofstream log(reg.log_path(), std::ios::app | std::ios::binary);
    log << "entry v=2 step=20 file=ckpt";
  }
  {
    const RefusedRepairs refused;
    EXPECT_THROW(pipeline::ModelRegistry{dir}, std::runtime_error);
  }
  // Once the cut succeeds, the open repairs and publishing chains on.
  pipeline::ModelRegistry reg(dir);
  EXPECT_EQ(reg.head_version(), 1u);
  ASSERT_TRUE(reg.publish(toy_ckpt(20)).logged);
  const auto scan = reg.scan();
  EXPECT_EQ(scan.entries.size(), 2u);
  EXPECT_EQ(scan.torn + scan.corrupt + scan.dropped, 0u);
}

TEST(PipelineRegistry, TamperedRecordBreaksTheChainFromThatPoint) {
  const std::string dir = fresh_dir("tamper");
  pipeline::ModelRegistry reg(dir);
  for (const std::uint64_t step : {10u, 20u, 30u}) {
    ASSERT_TRUE(reg.publish(toy_ckpt(step)).logged);
  }
  // Flip one character of record 2's step field (a complete, well-formed
  // line whose digest no longer verifies).
  auto raw = ckpt::read_file(reg.log_path());
  ASSERT_TRUE(raw.has_value());
  std::string text(raw->begin(), raw->end());
  const std::size_t pos = text.find("step=20");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 5] = '9';  // step=90
  {
    std::ofstream log(reg.log_path(), std::ios::binary | std::ios::trunc);
    log << text;
  }
  // A scan of the damaged log (before any restart repairs it) classifies:
  // v1 survives, v2 is corrupt, v3 is unverifiable past the break.
  const auto scan = reg.scan();
  EXPECT_EQ(scan.entries.size(), 1u);
  EXPECT_EQ(scan.corrupt, 1u);
  EXPECT_EQ(scan.dropped, 1u);
  // A restart repairs down to the verified prefix and keeps serving.
  pipeline::ModelRegistry reopened(dir);
  EXPECT_EQ(reopened.head_version(), 1u);
  const auto after = reopened.scan();
  EXPECT_EQ(after.entries.size(), 1u);
  EXPECT_EQ(after.corrupt + after.torn + after.dropped, 0u);
}

TEST(PipelineRegistry, PublishCorruptLeavesEntryUnvetted) {
  pipeline::ModelRegistry reg(fresh_dir("pubcorrupt"));
  ASSERT_TRUE(reg.publish(toy_ckpt(10)).vetted);
  pipeline::PublishFaults faults;
  faults.corrupt_file = true;
  const auto report = reg.publish(toy_ckpt(20), faults);
  EXPECT_TRUE(report.logged);   // the chain records the publish honestly
  EXPECT_FALSE(report.vetted);  // but the bytes on disk no longer verify
  const auto scan = reg.scan();
  ASSERT_EQ(scan.entries.size(), 2u);
  EXPECT_TRUE(scan.entries[0].vetted);
  EXPECT_FALSE(scan.entries[1].vetted);
  EXPECT_EQ(scan.unvetted, 1u);
  const auto latest = reg.latest_vetted();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 1u);  // the rotted v2 is never served
}

// Flip one bit in the middle of a committed checkpoint file: rot at rest,
// after the publish vetted it.
void rot_file(const std::string &path) {
  auto bytes = ckpt::read_file(path);
  ASSERT_TRUE(bytes.has_value() && !bytes->empty()) << path;
  (*bytes)[bytes->size() / 2] ^= 0x04;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char *>(bytes->data()),
            static_cast<std::streamsize>(bytes->size()));
}

TEST(PipelineRegistry, LatestVettedSkipsARottedNewestFile) {
  pipeline::ModelRegistry reg(fresh_dir("latest_rot"));
  for (const std::uint64_t step : {10u, 20u, 30u}) {
    ASSERT_TRUE(reg.publish(toy_ckpt(step)).vetted);
  }
  rot_file(reg.dir() + "/" + ckpt::CheckpointStore::filename_for_step(30));
  const auto latest = reg.latest_vetted();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 2u);
  EXPECT_EQ(latest->step, 20u);
  EXPECT_TRUE(latest->vetted);
}

TEST(PipelineRegistry, LatestVettedIsEmptyWhenEveryFileRotted) {
  pipeline::ModelRegistry reg(fresh_dir("latest_allrot"));
  for (const std::uint64_t step : {10u, 20u, 30u}) {
    ASSERT_TRUE(reg.publish(toy_ckpt(step)).vetted);
    rot_file(reg.dir() + "/" + ckpt::CheckpointStore::filename_for_step(step));
  }
  EXPECT_FALSE(reg.latest_vetted().has_value());
  EXPECT_EQ(reg.scan().unvetted, 3u);
}

TEST(PipelineRegistry, LatestVettedEqualsTheNewestVettedEntryOfAFullScan) {
  pipeline::ModelRegistry reg(fresh_dir("latest_scan"));
  for (std::uint64_t i = 1; i <= 8; ++i) {
    // Every third publish rots at publish time; v7 and v8 rot later.
    pipeline::PublishFaults faults;
    faults.corrupt_file = i % 3 == 0;
    ASSERT_TRUE(reg.publish(toy_ckpt(10 * i), faults).logged);
    if (i == 8) {
      for (const std::uint64_t step : {70u, 80u}) {
        rot_file(reg.dir() + "/" +
                 ckpt::CheckpointStore::filename_for_step(step));
      }
    }
    const auto scan = reg.scan();
    std::optional<pipeline::RegistryEntry> want;
    for (const auto &entry : scan.entries) {
      if (entry.vetted) want = entry;
    }
    const auto got = reg.latest_vetted();
    ASSERT_EQ(got.has_value(), want.has_value()) << "after v" << i;
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->version, want->version) << "after v" << i;
    EXPECT_EQ(got->step, want->step);
    EXPECT_EQ(got->filename, want->filename);
    EXPECT_EQ(got->file_digest, want->file_digest);
    EXPECT_EQ(got->prev_digest, want->prev_digest);
    EXPECT_EQ(got->entry_digest, want->entry_digest);
    EXPECT_TRUE(got->vetted);
  }
  EXPECT_EQ(reg.latest_vetted()->version, 5u);
}

TEST(PipelineRegistry, TornLogAppendRecoversLikeACrash) {
  const std::string dir = fresh_dir("tornappend");
  {
    pipeline::ModelRegistry reg(dir);
    ASSERT_TRUE(reg.publish(toy_ckpt(10)).logged);
    pipeline::PublishFaults faults;
    faults.tear_log = true;
    const auto report = reg.publish(toy_ckpt(20), faults);
    EXPECT_TRUE(report.torn_log);
    EXPECT_FALSE(report.logged);
  }
  // Restart: the torn record is dropped and repaired away; v2's slot is
  // reusable and the chain stays anchored at v1.
  pipeline::ModelRegistry reg(dir);
  EXPECT_EQ(reg.head_version(), 1u);
  const auto report = reg.publish(toy_ckpt(30));
  ASSERT_TRUE(report.logged);
  EXPECT_EQ(report.entry.version, 2u);
  const auto scan = reg.scan();
  ASSERT_EQ(scan.entries.size(), 2u);
  EXPECT_EQ(scan.torn + scan.corrupt, 0u);
}

TEST(PipelineRegistry, OpeningAnEmptyDirectoryWritesNoLog) {
  const std::string dir = fresh_dir("emptyopen");
  pipeline::ModelRegistry reg(dir);
  // Construction scans and repairs, but a missing log stays missing: no
  // file, no header write, nothing to fsync until the first publish.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  EXPECT_TRUE(reg.scan().log_missing);
  EXPECT_EQ(reg.head_version(), 0u);
  EXPECT_EQ(reg.head_digest(), pipeline::ModelRegistry::genesis_digest());
  ASSERT_TRUE(reg.publish(toy_ckpt(10)).logged);
  EXPECT_TRUE(std::filesystem::exists(reg.log_path()));
}

// ---------------------------------------------------------------------------
// RolloutController: happy path, regression rollback

TEST(PipelineRollout, HappyPathPromotesThroughCanary) {
  const std::string root = fresh_dir("happy");
  Deployment dep;
  dep.init(11);
  ASSERT_GT(dep.incumbent_accuracy(), 0.8);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutConfig cfg;
  cfg.max_score_regression = 0.05;
  pipeline::RolloutController ctl(reg, dep.hooks(), cfg,
                                  root + "/rollout.journal");
  baseline_promote(ctl, dep);

  const auto report = ctl.run_cycle(dep.good_candidate(100, 11));
  EXPECT_TRUE(report.published);
  EXPECT_TRUE(report.vetted);
  EXPECT_TRUE(report.pass) << "cand=" << report.verdict.candidate_score
                           << " inc=" << report.verdict.incumbent_score;
  EXPECT_EQ(report.state, pipeline::RolloutState::Promoted);
  EXPECT_EQ(ctl.incumbent_version(), 2u);

  // The whole fleet now serves the promoted digest, and that digest is a
  // chain-verified registry entry.
  dep.drive_traffic(5000, 64);
  const auto entry = reg.entry_for_version(2);
  ASSERT_TRUE(entry.has_value());
  for (std::size_t i = dep.primary_served.size() - 48;
       i < dep.primary_served.size(); ++i) {
    EXPECT_EQ(dep.primary_served[i], entry->weight_digest);
  }
  // Journal replays the whole story in order.
  const std::string journal = ctl.journal_string();
  EXPECT_NE(journal.find("cycle 2"), std::string::npos);
  EXPECT_NE(journal.find("state 2 canary"), std::string::npos);
  EXPECT_NE(journal.find("state 2 promoted"), std::string::npos);
}

TEST(PipelineRollout, SeededRegressionIsDetectedAndRolledBack) {
  const std::string root = fresh_dir("regress");
  Deployment dep;
  dep.init(13);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutConfig cfg;
  cfg.max_score_regression = 0.05;
  pipeline::RolloutController ctl(reg, dep.hooks(), cfg,
                                  root + "/rollout.journal");
  baseline_promote(ctl, dep);
  const std::string incumbent = dep.incumbent_hash;

  const auto candidate = dep.regressed_candidate(100, 13);
  const std::string regressed = candidate.weight_digest().hex();
  const auto report = ctl.run_cycle(candidate);
  EXPECT_TRUE(report.vetted);  // the checkpoint is honest, just bad
  EXPECT_FALSE(report.pass);
  EXPECT_LT(report.verdict.candidate_score,
            report.verdict.incumbent_score - 0.2);
  EXPECT_EQ(report.state, pipeline::RolloutState::RolledBack);
  EXPECT_EQ(ctl.incumbent_version(), 1u);  // unchanged
  EXPECT_EQ(dep.incumbent_hash, incumbent);

  // Zero requests served from the regressed weights after rollback: drive
  // traffic across both fleets and audit every response digest.
  const std::size_t mark_primary = dep.primary_served.size();
  const std::size_t mark_canary = dep.canary_served.size();
  dep.drive_traffic(9000, 128);
  for (std::size_t i = mark_primary; i < dep.primary_served.size(); ++i) {
    EXPECT_NE(dep.primary_served[i], regressed);
    EXPECT_EQ(dep.primary_served[i], incumbent);
  }
  for (std::size_t i = mark_canary; i < dep.canary_served.size(); ++i) {
    EXPECT_NE(dep.canary_served[i], regressed);
    EXPECT_EQ(dep.canary_served[i], incumbent);
  }
  // The primary fleet never saw the regressed weights at any point.
  for (const auto &hash : dep.primary_served) {
    EXPECT_NE(hash, regressed);
  }
}

// ---------------------------------------------------------------------------
// Kill-at-every-state: converge from the journal alone

struct CrashCase {
  pipeline::CrashPoint point;
  bool regressed_candidate;
  pipeline::RolloutState expected;
};

TEST(PipelineRollout, KillAtEveryStateConvergesFromJournal) {
  const std::vector<CrashCase> cases = {
      {pipeline::CrashPoint::AfterPublish, false,
       pipeline::RolloutState::RolledBack},
      {pipeline::CrashPoint::AfterCanaryEnter, false,
       pipeline::RolloutState::RolledBack},
      {pipeline::CrashPoint::AfterCanaryApply, false,
       pipeline::RolloutState::RolledBack},
      {pipeline::CrashPoint::AfterVerdict, false,
       pipeline::RolloutState::Promoted},
      {pipeline::CrashPoint::AfterVerdict, true,
       pipeline::RolloutState::RolledBack},
      {pipeline::CrashPoint::AfterPromotingEnter, false,
       pipeline::RolloutState::Promoted},
      {pipeline::CrashPoint::AfterPromoteApply, false,
       pipeline::RolloutState::Promoted},
      {pipeline::CrashPoint::AfterRollingBackEnter, true,
       pipeline::RolloutState::RolledBack},
  };

  const std::string root = fresh_dir("killstates");
  const std::string journal = root + "/rollout.journal";
  Deployment dep;
  dep.init(17);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutConfig base_cfg;
  base_cfg.max_score_regression = 0.05;
  {
    pipeline::RolloutController boot(reg, dep.hooks(), base_cfg, journal);
    baseline_promote(boot, dep);
  }

  std::uint64_t step = 100;
  for (const CrashCase &c : cases) {
    SCOPED_TRACE(std::string("crash point ") +
                 std::to_string(static_cast<int>(c.point)) +
                 (c.regressed_candidate ? " (regressed)" : " (good)"));
    // Fresh controller on the same journal; nothing should be pending.
    pipeline::RolloutConfig cfg = base_cfg;
    cfg.crash_point = c.point;
    pipeline::RolloutController ctl(reg, dep.hooks(), cfg, journal);
    ASSERT_FALSE(ctl.pending_resume());
    const auto candidate = c.regressed_candidate
                               ? dep.regressed_candidate(step, 17)
                               : dep.good_candidate(step, 17);
    step += 10;
    const auto report = ctl.run_cycle(candidate);
    ASSERT_TRUE(report.crashed);
    ASSERT_TRUE(ctl.halted());

    // "Restart": a new controller reads the journal and converges.
    pipeline::RolloutController revived(reg, dep.hooks(), base_cfg, journal);
    ASSERT_TRUE(revived.pending_resume());
    const auto resume = revived.resume();
    EXPECT_TRUE(resume.resumed);
    EXPECT_EQ(resume.state, c.expected);
    ASSERT_TRUE(resume.state == pipeline::RolloutState::Promoted ||
                resume.state == pipeline::RolloutState::RolledBack);

    // The serving digest equals a chain-verified, vetted registry entry.
    const std::size_t mark = dep.primary_served.size();
    dep.drive_traffic(20000 + step * 100, 32);
    const auto scan = reg.scan();
    std::set<std::string> vetted;
    for (const auto &entry : scan.entries) {
      if (entry.vetted) vetted.insert(entry.weight_digest);
    }
    ASSERT_FALSE(vetted.empty());
    for (std::size_t i = mark; i < dep.primary_served.size(); ++i) {
      EXPECT_EQ(dep.primary_served[i], dep.incumbent_hash);
      EXPECT_TRUE(vetted.count(dep.primary_served[i]) == 1);
    }
  }
}

TEST(PipelineRollout, ResumeWithoutPendingCycleIsANoOp) {
  const std::string root = fresh_dir("noopresume");
  Deployment dep;
  dep.init(19);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutController ctl(reg, dep.hooks(), {},
                                  root + "/rollout.journal");
  const std::string before = ctl.journal_string();
  const auto resume = ctl.resume();
  EXPECT_FALSE(resume.resumed);
  EXPECT_EQ(ctl.journal_string(), before);  // not a byte written
}

TEST(PipelineRollout, EditedFailVerdictIsCutByTheChainAndRolledBack) {
  const std::string root = fresh_dir("tamperverdict");
  const std::string journal = root + "/rollout.journal";
  Deployment dep;
  dep.init(23);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutConfig cfg;
  cfg.max_score_regression = 0.05;
  {
    pipeline::RolloutController boot(reg, dep.hooks(), cfg, journal);
    baseline_promote(boot, dep);
  }
  const std::string incumbent = dep.incumbent_hash;

  // A regressed candidate fails its canary; the kill lands right after the
  // durable `verdict 2 ... fail` line.
  const auto candidate = dep.regressed_candidate(100, 23);
  const std::string regressed = candidate.weight_digest().hex();
  {
    pipeline::RolloutConfig crash_cfg = cfg;
    crash_cfg.crash_point = pipeline::CrashPoint::AfterVerdict;
    pipeline::RolloutController ctl(reg, dep.hooks(), crash_cfg, journal);
    const auto report = ctl.run_cycle(candidate);
    ASSERT_TRUE(report.crashed);
    ASSERT_FALSE(report.pass);
  }

  // Rewrite the decision on disk: `fail` -> `pass`, the line stays
  // well-formed. Only the chain digest can tell.
  const auto raw = ckpt::read_file(journal);
  ASSERT_TRUE(raw.has_value());
  std::string text(raw->begin(), raw->end());
  const std::size_t verdict = text.find("verdict 2 ");
  ASSERT_NE(verdict, std::string::npos);
  const std::size_t fail = text.find(" fail", verdict);
  ASSERT_NE(fail, std::string::npos);
  text.replace(fail, 5, " pass");
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << text;
  }

  // The restarted controller cuts the forged line, so the tail it acts on
  // is `state 2 canary`: roll back, never promote.
  pipeline::RolloutController revived(reg, dep.hooks(), cfg, journal);
  ASSERT_TRUE(revived.pending_resume());
  const auto resume = revived.resume();
  EXPECT_TRUE(resume.resumed);
  EXPECT_EQ(resume.from, pipeline::RolloutState::Canary);
  EXPECT_EQ(resume.state, pipeline::RolloutState::RolledBack);
  EXPECT_EQ(resume.torn_journal_lines, 1u);
  EXPECT_EQ(revived.incumbent_version(), 1u);
  EXPECT_EQ(dep.incumbent_hash, incumbent);
  EXPECT_EQ(revived.journal_string().find("verdict 2"), std::string::npos);

  const std::size_t mark_primary = dep.primary_served.size();
  const std::size_t mark_canary = dep.canary_served.size();
  dep.drive_traffic(40000, 64);
  for (std::size_t i = mark_primary; i < dep.primary_served.size(); ++i) {
    EXPECT_EQ(dep.primary_served[i], incumbent);
  }
  for (std::size_t i = mark_canary; i < dep.canary_served.size(); ++i) {
    EXPECT_EQ(dep.canary_served[i], incumbent);
  }
  for (const auto &hash : dep.primary_served) EXPECT_NE(hash, regressed);
}

TEST(PipelineRollout, TornJournalTailIsCountedCutAndChainedPast) {
  const std::string root = fresh_dir("tornjournal");
  const std::string journal = root + "/rollout.journal";
  Deployment dep;
  dep.init(29);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutConfig cfg;
  cfg.max_score_regression = 0.05;
  std::string clean;
  {
    pipeline::RolloutController ctl(reg, dep.hooks(), cfg, journal);
    baseline_promote(ctl, dep);
    clean = ctl.journal_string();
  }
  {
    // A crash mid-append after a completed cycle: a dangling fragment.
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    out << "state 2 prom";
  }

  pipeline::RolloutController ctl(reg, dep.hooks(), cfg, journal);
  EXPECT_FALSE(ctl.pending_resume());
  const auto resume = ctl.resume();
  EXPECT_FALSE(resume.resumed);
  EXPECT_EQ(resume.torn_journal_lines, 1u);
  EXPECT_EQ(ctl.journal_string(), clean);  // cut to the verified prefix

  // The next cycle appends onto the surviving head: a fresh controller
  // replays every line and cuts nothing.
  const auto report = ctl.run_cycle(dep.good_candidate(100, 29));
  EXPECT_EQ(report.state, pipeline::RolloutState::Promoted);
  const std::string after = ctl.journal_string();
  EXPECT_EQ(after.compare(0, clean.size(), clean), 0);
  pipeline::RolloutController again(reg, dep.hooks(), cfg, journal);
  EXPECT_FALSE(again.pending_resume());
  EXPECT_EQ(again.resume().torn_journal_lines, 0u);
  EXPECT_EQ(again.incumbent_version(), 2u);
  EXPECT_EQ(again.journal_string(), after);
}

TEST(PipelineRollout, UncutTornJournalTailHaltsResumeAndCycle) {
  const std::string root = fresh_dir("refusedjournalcut");
  const std::string journal = root + "/rollout.journal";
  Deployment dep;
  dep.init(37);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutConfig cfg;
  cfg.max_score_regression = 0.05;
  std::string clean;
  {
    pipeline::RolloutController ctl(reg, dep.hooks(), cfg, journal);
    baseline_promote(ctl, dep);
    clean = ctl.journal_string();
  }
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    out << "state 2 prom";
  }
  const std::uint64_t versions = reg.head_version();

  const RefusedRepairs refused;
  pipeline::RolloutController resumed(reg, dep.hooks(), cfg, journal);
  EXPECT_THROW((void)resumed.resume(), std::runtime_error);
  EXPECT_TRUE(resumed.halted());

  pipeline::RolloutController cycled(reg, dep.hooks(), cfg, journal);
  const auto report = cycled.run_cycle(dep.good_candidate(100, 37));
  EXPECT_NE(report.error.find("truncate failed"), std::string::npos)
      << report.error;
  EXPECT_TRUE(cycled.halted());
  EXPECT_FALSE(report.published);
  EXPECT_EQ(reg.head_version(), versions);  // halted before the publish
  EXPECT_EQ(cycled.journal_string(), clean + "state 2 prom");
}

TEST(PipelineRollout, FailedJournalAppendHaltsBeforeAnyHook) {
  const std::string root = fresh_dir("journalfail");
  const std::string journal = root + "/rollout.journal";
  // A directory where the journal belongs: it reads as missing and every
  // append fails to open it (EISDIR), whatever the process's privileges.
  std::filesystem::create_directories(journal);
  Deployment dep;
  dep.init(31);
  pipeline::ModelRegistry reg(root + "/registry");
  dep.registry = &reg;
  pipeline::RolloutHooks hooks = dep.hooks();
  std::size_t canaries = 0, promotes = 0, rollbacks = 0;
  hooks.start_canary = [&, inner = hooks.start_canary](
                           const pipeline::RegistryEntry &entry) {
    ++canaries;
    return inner(entry);
  };
  hooks.promote = [&, inner = hooks.promote](
                      const pipeline::RegistryEntry &entry) {
    ++promotes;
    return inner(entry);
  };
  hooks.rollback = [&, inner = hooks.rollback]() {
    ++rollbacks;
    return inner();
  };
  pipeline::RolloutConfig cfg;
  cfg.max_score_regression = 0.05;
  pipeline::RolloutController ctl(reg, std::move(hooks), cfg, journal);

  const auto report = ctl.run_cycle(dep.good_candidate(100, 31));
  EXPECT_EQ(canaries, 0u);
  EXPECT_EQ(promotes, 0u);
  EXPECT_EQ(rollbacks, 0u);
  EXPECT_FALSE(report.error.empty());
  EXPECT_TRUE(ctl.halted());
  EXPECT_THROW((void)ctl.run_cycle(dep.good_candidate(200, 31)),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// PipelineSoak: publish→canary→promote storms under injected faults.
// Gtest filter contract: run_soak.sh --suite pipeline runs PipelineSoak.*
// with TREU_SOAK_SEED. TREU_PIPELINE_DIR overrides the scratch root so a
// failing seed's rollout journal + registry dir survive for forensics.

struct SoakOutcome {
  std::string journal;
  std::string registry_log;
  std::vector<std::string> primary_served;
  std::vector<std::string> canary_served;
  std::set<std::string> vetted_digests;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t crashes = 0;
  std::uint64_t unvetted_rejects = 0;
};

SoakOutcome run_pipeline_soak(std::uint64_t seed, const std::string &root,
                              std::size_t cycles) {
  std::filesystem::create_directories(root);
  SoakOutcome out;

  Deployment dep;
  dep.init(seed);

  fault::FaultPlanConfig fault_cfg;
  fault_cfg.publish_corrupt_rate = 0.12;
  fault_cfg.canary_crash_rate = 0.10;
  fault_cfg.promote_crash_rate = 0.10;
  fault_cfg.registry_torn_rate = 0.08;
  fault::FaultPlan plan(fault_cfg, seed);

  pipeline::RolloutConfig cfg;
  cfg.max_score_regression = 0.05;
  cfg.plan = &plan;
  const std::string journal = root + "/rollout.journal";

  auto reg = std::make_unique<pipeline::ModelRegistry>(root + "/registry");
  dep.registry = reg.get();
  auto make_controller = [&] {
    return std::make_unique<pipeline::RolloutController>(*reg, dep.hooks(),
                                                         cfg, journal);
  };
  // "Restart" after a simulated crash: fresh registry object (its
  // constructor repairs any torn log tail) and a fresh controller that
  // replays the journal — exactly what a rebooted process would do.
  auto restart = [&] {
    reg = std::make_unique<pipeline::ModelRegistry>(root + "/registry");
    dep.registry = reg.get();
    return make_controller();
  };

  {
    // Baseline publish runs fault-free (no plan) so the fleet starts on a
    // chain-verified entry even under hostile fault rates.
    apply_flat(*dep.scratch, dep.incumbent_flat);
    pipeline::RolloutConfig boot_cfg;
    boot_cfg.max_score_regression = 0.05;
    pipeline::RolloutController boot(*reg, dep.hooks(), boot_cfg, journal);
    const auto report = boot.run_cycle(capture_weights(*dep.scratch, 1));
    if (report.state != pipeline::RolloutState::Promoted) {
      ADD_FAILURE() << "baseline promote failed: " << report.error;
      return out;
    }
  }
  auto ctl = make_controller();

  std::uint64_t step = 100;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const bool regressed = cycle % 4 == 2;
    const auto candidate = regressed
                               ? dep.regressed_candidate(step, seed)
                               : dep.good_candidate(step, seed);
    step += 10;
    const auto report = ctl->run_cycle(candidate);
    if (report.crashed) {
      ++out.crashes;
      ctl = restart();
      if (ctl->pending_resume()) {
        const auto resume = ctl->resume();
        EXPECT_TRUE(resume.state == pipeline::RolloutState::Promoted ||
                    resume.state == pipeline::RolloutState::RolledBack);
      }
    } else if (report.published && !report.vetted) {
      ++out.unvetted_rejects;
    } else if (report.state == pipeline::RolloutState::Promoted) {
      ++out.promotions;
    } else if (report.state == pipeline::RolloutState::RolledBack) {
      ++out.rollbacks;
    }
    dep.drive_traffic(100000 + cycle * 1000, 48);
  }

  const auto scan = reg->scan();
  for (const auto &entry : scan.entries) {
    if (entry.vetted) out.vetted_digests.insert(entry.weight_digest);
  }
  out.journal = ctl->journal_string();
  if (const auto raw = ckpt::read_file(reg->log_path())) {
    out.registry_log = std::string(raw->begin(), raw->end());
  }
  out.primary_served = dep.primary_served;
  out.canary_served = dep.canary_served;
  dep.split->shutdown();
  return out;
}

TEST(PipelineSoak, FaultStormKeepsProvenanceAndReplaysByteIdentically) {
  const std::uint64_t seed = env_seed("TREU_SOAK_SEED", 4242);
  const char *override_dir = std::getenv("TREU_PIPELINE_DIR");
  const std::string base =
      override_dir != nullptr && *override_dir != '\0'
          ? std::string(override_dir)
          : fresh_dir("soak_" + std::to_string(seed));
  std::filesystem::remove_all(base + "/run_a");
  std::filesystem::remove_all(base + "/run_b");

  const SoakOutcome a = run_pipeline_soak(seed, base + "/run_a", 12);
  const SoakOutcome b = run_pipeline_soak(seed, base + "/run_b", 12);

  // Byte-identical replay: journal and chained registry log.
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.registry_log, b.registry_log);
  EXPECT_EQ(a.primary_served, b.primary_served);
  EXPECT_EQ(a.canary_served, b.canary_served);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.crashes, b.crashes);

  // Provenance: every response, both fleets, the whole storm — answered by
  // a chain-verified, vetted registry digest.
  ASSERT_FALSE(a.vetted_digests.empty());
  ASSERT_FALSE(a.primary_served.empty());
  for (const auto &hash : a.primary_served) {
    EXPECT_TRUE(a.vetted_digests.count(hash) == 1)
        << "primary served unvetted digest " << hash;
  }
  for (const auto &hash : a.canary_served) {
    EXPECT_TRUE(a.vetted_digests.count(hash) == 1)
        << "canary served unvetted digest " << hash;
  }

  // The storm actually stormed: with these rates and 12 cycles the plan
  // injects at least one fault and the loop still makes forward progress.
  EXPECT_GT(a.promotions + a.rollbacks + a.crashes + a.unvetted_rejects, 0u);
  EXPECT_NE(a.journal.find("cycle"), std::string::npos);
}

TEST(PipelineSoak, ThreeSeedSweepHoldsInvariants) {
  const std::uint64_t base_seed = env_seed("TREU_SOAK_SEED", 77);
  for (std::uint64_t offset = 0; offset < 3; ++offset) {
    const std::uint64_t seed = base_seed + offset;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string root = fresh_dir("sweep_" + std::to_string(seed));
    const SoakOutcome out = run_pipeline_soak(seed, root + "/run", 8);
    ASSERT_FALSE(out.vetted_digests.empty());
    for (const auto &hash : out.primary_served) {
      ASSERT_TRUE(out.vetted_digests.count(hash) == 1);
    }
    for (const auto &hash : out.canary_served) {
      ASSERT_TRUE(out.vetted_digests.count(hash) == 1);
    }
  }
}

}  // namespace
