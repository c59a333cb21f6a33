// treu::ckpt — container format, atomic writes, recovery scan, and the
// bitwise-exact resume property.
//
// The property tests here are the module's reason to exist: a training run
// killed at step k and resumed from its checkpoint must reach the *same
// weight digest* as the uninterrupted run (which requires optimizer and
// RNG state to round-trip, not just weights), and a recovery scan soaked
// under seed-deterministic filesystem faults must always restore the
// newest checkpoint that survived — replayably, from the seed alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "treu/ckpt/checkpoint.hpp"
#include "treu/ckpt/durable_log.hpp"
#include "treu/ckpt/format.hpp"
#include "treu/ckpt/store.hpp"
#include "treu/core/rng.hpp"
#include "treu/core/sha256.hpp"
#include "treu/fault/file_fault.hpp"
#include "treu/nn/mlp.hpp"
#include "treu/nn/optimizer.hpp"
#include "treu/nn/param.hpp"
#include "treu/serve/batch_server.hpp"
#include "treu/unlearn/unlearn.hpp"

namespace ckpt = treu::ckpt;
namespace fault = treu::fault;
namespace nn = treu::nn;
namespace serve = treu::serve;
using treu::core::Rng;
using treu::core::RngState;
using treu::tensor::Matrix;

namespace {

std::string fresh_dir(const std::string &name) {
  const std::string dir = testing::TempDir() + "treu_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Injector returning a fixed script of decisions (then None forever) —
/// precise control over which write dies, independent of rates.
class ScriptedInjector final : public fault::FileInjector {
 public:
  explicit ScriptedInjector(std::vector<fault::FileFaultDecision> script)
      : script_(std::move(script)) {}

  fault::FileFaultDecision decide_write(std::uint64_t) override {
    if (next_ >= script_.size()) return {};
    return script_[next_++];
  }

 private:
  std::vector<fault::FileFaultDecision> script_;
  std::size_t next_ = 0;
};

ckpt::TrainingCheckpoint toy_checkpoint(std::uint64_t step,
                                        std::uint64_t fill_seed = 42) {
  Rng rng(fill_seed, step);
  ckpt::TrainingCheckpoint c;
  c.step = step;
  c.epoch = step / 10;
  c.optimizer_kind = "adam";
  c.params.emplace_back(3, 4);
  c.params.emplace_back(4, 2);
  for (Matrix &m : c.params) {
    for (double &v : m.flat()) v = rng.normal();
  }
  c.optimizer_state = rng.normal_vector(7);
  c.rng = RngState{fill_seed, 1, 17, 2};
  return c;
}

// ---------------------------------------------------------------------------
// Container format

TEST(CkptFormat, ByteWriterReaderRoundTrip) {
  ckpt::ByteWriter w;
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.5e-300);
  w.str("section/name");
  ckpt::ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_EQ(r.str(), "section/name");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.u32().has_value());  // past the end: nullopt, no throw
}

TEST(CkptFormat, SectionsRoundTrip) {
  const std::vector<ckpt::Section> sections{
      {"meta", {1, 2, 3}}, {"params", {}}, {"rng", {255, 0, 128}}};
  const auto bytes = ckpt::encode_sections(sections);
  const auto decoded = ckpt::decode_sections(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  ASSERT_EQ(decoded.sections.size(), 3u);
  EXPECT_EQ(decoded.sections[0].name, "meta");
  EXPECT_EQ(decoded.sections[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(decoded.sections[1].payload.size(), 0u);
  EXPECT_EQ(decoded.sections[2].name, "rng");
}

TEST(CkptFormat, EveryBitFlipIsDetected) {
  const std::vector<ckpt::Section> sections{{"meta", {10, 20, 30, 40}}};
  const auto clean = ckpt::encode_sections(sections);
  ASSERT_TRUE(ckpt::decode_sections(clean).ok());
  // Flip one bit in every byte position: nothing may decode clean. (This
  // is the whole point of the checksummed container.)
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto bad = clean;
    bad[i] ^= 0x10;
    const auto d = ckpt::decode_sections(bad);
    EXPECT_FALSE(d.ok()) << "undetected flip at byte " << i;
    EXPECT_NE(d.failure, ckpt::DecodeFailure::None);
  }
}

TEST(CkptFormat, TruncationIsTornNotCorrupt) {
  const auto clean =
      ckpt::encode_sections(std::vector<ckpt::Section>{{"meta", {1, 2, 3}}});
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, clean.size() / 2, clean.size() - 1}) {
    const auto d = ckpt::decode_sections(
        std::span<const std::uint8_t>(clean.data(), keep));
    EXPECT_EQ(d.failure, ckpt::DecodeFailure::Torn) << "kept " << keep;
  }
}

TEST(CkptFormat, PayloadBitFlipIsCorrupt) {
  const auto clean =
      ckpt::encode_sections(std::vector<ckpt::Section>{{"m", {9, 9, 9, 9}}});
  auto bad = clean;
  // Section payloads sit between the header and the 40-byte footer; this
  // offset lands inside the payload, leaving the structure intact.
  bad[bad.size() - 41] ^= 1;
  const auto d = ckpt::decode_sections(bad);
  EXPECT_EQ(d.failure, ckpt::DecodeFailure::Corrupt) << d.error;
}

// ---------------------------------------------------------------------------
// DurableLog: the newline-framed, hash-chained append log

constexpr const char *kLogHeader = "treu-test-log v1";

// No payload byte is one bit away from '\n' (0x02 0x08 0x0B 0x0E 0x1A '*'
// 'J' 0x8A), so a single flip inside a record stays inside that record.
const std::vector<std::string> &log_payloads() {
  static const std::vector<std::string> payloads = {
      "alpha step=1", "beta step=22 ok", "gamma v=333 file=x.treu"};
  return payloads;
}

std::string slurp(const std::string &path) {
  const auto raw = ckpt::read_file(path);
  return raw ? std::string(raw->begin(), raw->end()) : std::string();
}

void spit(const std::string &path, const std::string &text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A fresh three-record log at <dir>/log; returns its bytes.
std::string three_record_log(const std::string &dir) {
  std::filesystem::create_directories(dir);
  ckpt::DurableLog log(dir + "/log", kLogHeader);
  for (const std::string &p : log_payloads()) {
    EXPECT_TRUE(log.append(p));
  }
  return slurp(dir + "/log");
}

std::vector<std::string> payloads_of(const ckpt::DurableLog::Scan &scan) {
  std::vector<std::string> out;
  for (const auto &r : scan.records) out.push_back(r.payload);
  return out;
}

bool is_prefix_of_payloads(const ckpt::DurableLog::Scan &scan) {
  const auto got = payloads_of(scan);
  return got.size() <= log_payloads().size() &&
         std::equal(got.begin(), got.end(), log_payloads().begin());
}

/// Open the (damaged) log, repair it to its verified prefix, append one
/// record, and check the new record chains onto the surviving head.
void expect_repair_then_append_chains(const std::string &path,
                                      std::size_t verified) {
  ckpt::DurableLog log(path, kLogHeader);
  (void)log.repair(verified);
  const treu::core::Digest head = log.head();
  ASSERT_TRUE(log.append("delta after repair"));
  const auto scan = log.scan();
  ASSERT_EQ(scan.records.size(), verified + 1);
  EXPECT_EQ(scan.torn + scan.corrupt + scan.dropped, 0u);
  EXPECT_EQ(scan.records.back().payload, "delta after repair");
  EXPECT_EQ(scan.records.back().digest,
            treu::core::chain_next(
                head, treu::core::sha256(std::string("delta after repair"))));
}

TEST(DurableLog, RecordsChainFromTheHeaderDigest) {
  const std::string dir = fresh_dir("log_chain");
  const std::string text = three_record_log(dir);
  ckpt::DurableLog log(dir + "/log", kLogHeader);
  EXPECT_EQ(log.genesis(), treu::core::sha256(std::string(kLogHeader)));

  const auto scan = log.scan();
  EXPECT_FALSE(scan.missing);
  EXPECT_EQ(scan.torn + scan.corrupt + scan.dropped, 0u);
  ASSERT_EQ(payloads_of(scan), log_payloads());
  // The on-disk text is exactly header + `<payload> d=<chain digest>`.
  std::string expect = std::string(kLogHeader) + "\n";
  treu::core::Digest prev = log.genesis();
  for (std::size_t i = 0; i < 3; ++i) {
    const treu::core::Digest d =
        treu::core::chain_next(prev, treu::core::sha256(log_payloads()[i]));
    EXPECT_EQ(scan.records[i].digest, d);
    expect += log_payloads()[i] + " d=" + d.hex() + "\n";
    prev = d;
  }
  EXPECT_EQ(text, expect);

  // repair(keep) may keep fewer records than verify; it reports the lines
  // it cut and moves the head to the last kept record.
  EXPECT_EQ(log.repair(1), 2u);
  EXPECT_EQ(log.head(), scan.records[0].digest);
  EXPECT_EQ(payloads_of(log.scan()),
            std::vector<std::string>{log_payloads()[0]});
  expect_repair_then_append_chains(dir + "/log", 1);
}

TEST(DurableLog, OpeningAMissingLogWritesNothing) {
  const std::string dir = fresh_dir("log_missing");
  std::filesystem::create_directories(dir);
  ckpt::DurableLog log(dir + "/log", kLogHeader);
  const auto scan = log.scan();
  EXPECT_TRUE(scan.missing);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(log.repair(5), 0u);
  EXPECT_EQ(log.head(), log.genesis());
  // Neither scan nor repair created anything; the file (and its parent
  // directory fsync) comes with the first append.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  ASSERT_TRUE(log.append("first"));
  EXPECT_EQ(payloads_of(log.scan()), std::vector<std::string>{"first"});
}

TEST(DurableLog, TornAppendLeavesOneTornLineAndKeepsTheHead) {
  const std::string dir = fresh_dir("log_torn_append");
  const std::string clean = three_record_log(dir);
  ckpt::DurableLog log(dir + "/log", kLogHeader);
  (void)log.repair(3);
  const treu::core::Digest head = log.head();
  log.append_torn("epsilon torn");
  EXPECT_EQ(log.head(), head);
  const auto scan = log.scan();
  EXPECT_EQ(payloads_of(scan), log_payloads());
  EXPECT_EQ(scan.torn, 1u);
  EXPECT_EQ(scan.corrupt + scan.dropped, 0u);
  EXPECT_EQ(log.repair(3), 1u);
  EXPECT_EQ(slurp(dir + "/log"), clean);
}

/// Every repair() in the process fails its cut while this lives.
struct RefusedRepairs {
  RefusedRepairs() { ckpt::DurableLog::fail_repairs_for_testing(true); }
  ~RefusedRepairs() { ckpt::DurableLog::fail_repairs_for_testing(false); }
};

TEST(DurableLog, FailedCutKeepsTheHeadAndRefusesAppends) {
  const std::string dir = fresh_dir("log_refused_cut");
  const std::string clean = three_record_log(dir);
  const std::string path = dir + "/log";
  {
    ckpt::DurableLog log(path, kLogHeader);
    (void)log.repair(3);
    log.append_torn("epsilon torn");
  }
  const std::string damaged = slurp(path);

  ckpt::DurableLog log(path, kLogHeader);
  std::string error;
  {
    const RefusedRepairs refused;
    EXPECT_EQ(log.repair(3, &error), 1u);
  }
  EXPECT_NE(error.find("truncate failed"), std::string::npos) << error;
  // The head did not move onto a prefix the file does not end with, and
  // nothing is chained after the fragment still on disk.
  EXPECT_EQ(log.head(), log.genesis());
  std::string append_error;
  EXPECT_FALSE(log.append("zeta", &append_error));
  EXPECT_NE(append_error.find("truncate failed"), std::string::npos);
  EXPECT_EQ(slurp(path), damaged);

  // A repair that succeeds lifts the refusal.
  error.clear();
  EXPECT_EQ(log.repair(3, &error), 1u);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(slurp(path), clean);
  expect_repair_then_append_chains(path, 3);
}

TEST(DurableLog, FailedRemovalOfAnOrphanedLogRefusesAppends) {
  const std::string dir = fresh_dir("log_refused_remove");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/log";
  spit(path, "not the header\nalpha d=00\n");
  ckpt::DurableLog log(path, kLogHeader);
  std::string error;
  {
    const RefusedRepairs refused;
    EXPECT_EQ(log.repair(0, &error), 2u);
  }
  EXPECT_NE(error.find("remove failed"), std::string::npos) << error;
  EXPECT_FALSE(log.append("first"));
  EXPECT_EQ(slurp(path), "not the header\nalpha d=00\n");
  EXPECT_EQ(log.repair(0), 2u);
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(log.append("first"));
  EXPECT_EQ(payloads_of(log.scan()), std::vector<std::string>{"first"});
}

TEST(DurableLog, MultiLinePayloadIsRefused) {
  const std::string dir = fresh_dir("log_newline");
  const std::string clean = three_record_log(dir);
  ckpt::DurableLog log(dir + "/log", kLogHeader);
  (void)log.repair(3);
  std::string error;
  EXPECT_FALSE(log.append("two\nlines", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(slurp(dir + "/log"), clean);
}

TEST(DurableLog, EveryCutScansToAVerifiedPrefix) {
  const std::string dir = fresh_dir("log_cuts");
  const std::string clean = three_record_log(dir);
  const std::string path = dir + "/log";
  for (std::size_t cut = 0; cut <= clean.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string kept = clean.substr(0, cut);
    spit(path, kept);
    const std::size_t complete = static_cast<std::size_t>(
        std::count(kept.begin(), kept.end(), '\n'));
    const bool mid_line = cut > 0 && kept.back() != '\n';

    const auto scan = ckpt::DurableLog(path, kLogHeader).scan();
    EXPECT_TRUE(is_prefix_of_payloads(scan));
    EXPECT_EQ(scan.records.size(), complete == 0 ? 0 : complete - 1);
    EXPECT_EQ(scan.torn, mid_line ? 1u : 0u);
    EXPECT_EQ(scan.corrupt + scan.dropped, 0u);

    ckpt::DurableLog log(path, kLogHeader);
    EXPECT_EQ(log.repair(scan.records.size()), mid_line ? 1u : 0u);
    if (complete > 0) {
      // Cut back to the last complete line; nothing verified is lost.
      EXPECT_EQ(slurp(path), clean.substr(0, kept.rfind('\n') + 1));
    }
    expect_repair_then_append_chains(path, scan.records.size());
  }
}

TEST(DurableLog, EveryBitFlipIsCaughtAndClassified) {
  const std::string dir = fresh_dir("log_flips");
  const std::string clean = three_record_log(dir);
  const std::string path = dir + "/log";
  // Byte ranges of the header and each record line (newline included).
  std::vector<std::size_t> line_end;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] == '\n') line_end.push_back(i + 1);
  }
  ASSERT_EQ(line_end.size(), 4u);
  const std::size_t header_end = line_end[0];

  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string bad = clean;
      bad[byte] = static_cast<char>(bad[byte] ^ (1u << bit));
      spit(path, bad);
      const auto scan = ckpt::DurableLog(path, kLogHeader).scan();
      EXPECT_TRUE(is_prefix_of_payloads(scan));
      if (byte < header_end) {
        // A damaged header orphans every line.
        EXPECT_TRUE(scan.records.empty());
        EXPECT_GE(scan.torn, 1u);
        continue;
      }
      const auto rec = static_cast<std::size_t>(
          std::upper_bound(line_end.begin(), line_end.end(), byte) -
          line_end.begin() - 1);  // 0-based record index
      const std::size_t line_start = line_end[rec];
      const std::size_t newline = line_end[rec + 1] - 1;
      const std::size_t sep = newline - 67;  // " d=" starts here
      ASSERT_EQ(clean.substr(sep, 3), " d=");
      EXPECT_EQ(scan.records.size(), rec);
      EXPECT_EQ(scan.torn + scan.corrupt, 1u);
      const bool in_payload = byte >= line_start && byte < sep;
      const bool in_digest = byte >= sep + 3 && byte < newline;
      if (in_payload || in_digest) {
        EXPECT_EQ(scan.corrupt, 1u);  // a committed record that fails
        EXPECT_EQ(scan.dropped, 2 - rec);
      }
      if (bit == byte % 8) {
        expect_repair_then_append_chains(path, scan.records.size());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rng state snapshot/restore

TEST(CkptRngState, ResumesMidBlockBitwise) {
  // Philox hands out 32-bit words from 4-word blocks; stop at every intra-
  // block position and check the restored stream continues identically.
  for (int consumed = 0; consumed < 9; ++consumed) {
    Rng original(123, 5);
    for (int i = 0; i < consumed; ++i) (void)original.next_u32();
    Rng restored = Rng::from_state(original.state());
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(original.next_u64(), restored.next_u64())
          << "diverged after " << consumed << " consumed words";
    }
    EXPECT_EQ(original.state(), restored.state());
  }
}

TEST(CkptRngState, RestoredStreamMatchesAcrossDistributions) {
  Rng original(7, 0);
  (void)original.normal_vector(13);  // odd draw count: mid-block stop
  Rng restored = Rng::from_state(original.state());
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(original.uniform(), restored.uniform());
    ASSERT_EQ(original.normal(), restored.normal());
    ASSERT_EQ(original.uniform_index(1000), restored.uniform_index(1000));
  }
}

// ---------------------------------------------------------------------------
// Checkpoint encode/decode/restore

TEST(CkptCheckpoint, EncodeDecodeRoundTrip) {
  const auto c = toy_checkpoint(37);
  const auto loaded = ckpt::decode_checkpoint(c.encode());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const auto &d = *loaded.checkpoint;
  EXPECT_EQ(d.step, 37u);
  EXPECT_EQ(d.epoch, 3u);
  EXPECT_EQ(d.optimizer_kind, "adam");
  EXPECT_EQ(d.optimizer_state, c.optimizer_state);
  EXPECT_EQ(d.rng, c.rng);
  ASSERT_EQ(d.params.size(), 2u);
  EXPECT_EQ(d.params[0].rows(), 3u);
  EXPECT_EQ(d.params[1].cols(), 2u);
  EXPECT_EQ(d.weight_digest(), c.weight_digest());
}

TEST(CkptCheckpoint, CaptureMatchesLiveModelHash) {
  Rng init(11);
  nn::MlpClassifier model(4, {8}, 3, init);
  auto params = model.params();
  const auto c = ckpt::TrainingCheckpoint::capture(
      std::span<nn::Param *const>(params.data(), params.size()), nullptr,
      nullptr, 0);
  EXPECT_EQ(c.weight_digest().hex(), model.weight_hash());
}

TEST(CkptCheckpoint, RestoreRejectsMismatchesAndLeavesTargetsUntouched) {
  Rng init(11);
  nn::MlpClassifier source(4, {8}, 3, init);
  auto sp = source.params();
  nn::Adam source_opt(1e-3);
  {  // give the optimizer real state so kind/state travel
    nn::MlpClassifier tmp(4, {8}, 3, init);
    (void)tmp;
  }
  Rng stream(3);
  const auto c = ckpt::TrainingCheckpoint::capture(
      std::span<nn::Param *const>(sp.data(), sp.size()), &source_opt, &stream,
      9);

  // Parameter count mismatch (extra hidden layer).
  Rng init2(12);
  nn::MlpClassifier more_layers(4, {8, 8}, 3, init2);
  auto mp = more_layers.params();
  const std::string before = more_layers.weight_hash();
  EXPECT_THROW(c.restore(std::span<nn::Param *const>(mp.data(), mp.size()),
                         nullptr, nullptr),
               std::invalid_argument);
  EXPECT_EQ(more_layers.weight_hash(), before);

  // Shape mismatch (same param count, different widths).
  Rng init3(13);
  nn::MlpClassifier wider(4, {16}, 3, init3);
  auto wp = wider.params();
  const std::string wider_before = wider.weight_hash();
  EXPECT_THROW(c.restore(std::span<nn::Param *const>(wp.data(), wp.size()),
                         nullptr, nullptr),
               std::invalid_argument);
  EXPECT_EQ(wider.weight_hash(), wider_before);

  // Optimizer kind mismatch.
  Rng init4(14);
  nn::MlpClassifier same_arch(4, {8}, 3, init4);
  auto ap = same_arch.params();
  nn::Sgd sgd(1e-2);
  EXPECT_THROW(c.restore(std::span<nn::Param *const>(ap.data(), ap.size()),
                         &sgd, nullptr),
               std::invalid_argument);

  // Clean restore: weights land exactly.
  c.restore(std::span<nn::Param *const>(ap.data(), ap.size()), nullptr,
            nullptr);
  EXPECT_EQ(same_arch.weight_hash(), source.weight_hash());
}

TEST(CkptCheckpoint, OptimizerStateRejectsGarbage) {
  nn::Adam adam(1e-3);
  EXPECT_THROW(adam.load_state(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  nn::Sgd sgd(1e-2);
  EXPECT_THROW(sgd.load_state(std::vector<double>{3.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Atomic write protocol under scripted faults

TEST(CkptAtomicWrite, HonestWriteCommitsAndLeavesNoDebris) {
  const std::string dir = fresh_dir("honest");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.treu";
  const auto c = toy_checkpoint(1);
  const auto r = ckpt::save_checkpoint_file(path, c);
  EXPECT_TRUE(r.committed) << r.error;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto loaded = ckpt::load_checkpoint_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.checkpoint->weight_digest(), c.weight_digest());
}

TEST(CkptAtomicWrite, TruncateStrandsTornTmpAndPreservesOldFile) {
  const std::string dir = fresh_dir("truncate");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.treu";
  ASSERT_TRUE(ckpt::save_checkpoint_file(path, toy_checkpoint(1)).committed);

  ScriptedInjector inj({{fault::FileFaultKind::Truncate, 100, 0}});
  const auto r = ckpt::save_checkpoint_file(path, toy_checkpoint(2), &inj);
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.injected, fault::FileFaultKind::Truncate);
  EXPECT_EQ(std::filesystem::file_size(path + ".tmp"), 100u);
  // The previous committed file is untouched — that is the protocol's
  // whole promise.
  const auto survivor = ckpt::load_checkpoint_file(path);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor.checkpoint->step, 1u);
}

TEST(CkptAtomicWrite, CrashBeforeRenameStrandsCompleteTmp) {
  const std::string dir = fresh_dir("crash");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.treu";
  ScriptedInjector inj({{fault::FileFaultKind::CrashBeforeRename, 0, 0}});
  const auto r = ckpt::save_checkpoint_file(path, toy_checkpoint(3), &inj);
  EXPECT_FALSE(r.committed);
  EXPECT_FALSE(std::filesystem::exists(path));
  // The stranded temp is complete — only the rename was lost.
  const auto tmp_bytes = ckpt::read_file(path + ".tmp");
  ASSERT_TRUE(tmp_bytes.has_value());
  EXPECT_TRUE(ckpt::decode_checkpoint(*tmp_bytes).ok());
}

TEST(CkptAtomicWrite, FlipBitCommitsRottenFile) {
  const std::string dir = fresh_dir("flip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.treu";
  const auto size = toy_checkpoint(4).encode().size();
  ScriptedInjector inj(
      {{fault::FileFaultKind::FlipBit, 0, (size / 2) * 8 + 3}});
  const auto r = ckpt::save_checkpoint_file(path, toy_checkpoint(4), &inj);
  EXPECT_TRUE(r.committed);  // the protocol succeeded; the medium lied after
  const auto loaded = ckpt::load_checkpoint_file(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.failure, ckpt::DecodeFailure::None);
}

// ---------------------------------------------------------------------------
// FileFaultInjector scheduling

TEST(CkptFileInjector, RatesAreValidated) {
  EXPECT_THROW(fault::FileFaultInjector({-0.1, 0, 0}, 1),
               std::invalid_argument);
  EXPECT_THROW(fault::FileFaultInjector({0.5, 0.4, 0.2}, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(fault::FileFaultInjector({0.3, 0.3, 0.3}, 1));
}

TEST(CkptFileInjector, DecideMatchesPureScheduleAndReplays) {
  const fault::FileFaultConfig cfg{0.25, 0.25, 0.25};
  fault::FileFaultInjector live(cfg, 99);
  for (std::uint64_t k = 0; k < 200; ++k) {
    const auto expected = live.at(k, 4096);
    const auto got = live.decide_write(4096);
    ASSERT_EQ(got.kind, expected.kind) << "event " << k;
    ASSERT_EQ(got.truncate_at, expected.truncate_at);
    ASSERT_EQ(got.flip_bit, expected.flip_bit);
  }
  // A fresh injector with the same seed replays the identical history —
  // the property every soak-failure replay line depends on.
  fault::FileFaultInjector replay(cfg, 99);
  const auto history = live.history();
  ASSERT_EQ(history.size(), 200u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(replay.at(k, 4096).kind, history[k]) << "event " << k;
  }
  EXPECT_EQ(live.events(), 200u);
  EXPECT_EQ(live.injected(fault::FileFaultKind::None) +
                live.injected(fault::FileFaultKind::Truncate) +
                live.injected(fault::FileFaultKind::FlipBit) +
                live.injected(fault::FileFaultKind::CrashBeforeRename),
            200u);
}

TEST(CkptFileInjector, FaultOffsetsStayInBounds) {
  fault::FileFaultInjector inj({0.45, 0.45, 0.0}, 5);
  for (std::uint64_t k = 0; k < 300; ++k) {
    const auto d = inj.at(k, 128);
    if (d.kind == fault::FileFaultKind::Truncate) {
      EXPECT_LT(d.truncate_at, 128u);
    }
    if (d.kind == fault::FileFaultKind::FlipBit) {
      EXPECT_LT(d.flip_bit, 1024u);
    }
  }
  // Zero-byte files cannot be truncated shorter or bit-flipped.
  for (std::uint64_t k = 0; k < 300; ++k) {
    const auto d = inj.at(k, 0);
    EXPECT_NE(d.kind, fault::FileFaultKind::Truncate);
    EXPECT_NE(d.kind, fault::FileFaultKind::FlipBit);
  }
}

// ---------------------------------------------------------------------------
// CheckpointStore recovery

TEST(CkptStore, RecoversNewestValidCheckpoint) {
  ckpt::CheckpointStore store(fresh_dir("newest"));
  for (const std::uint64_t step : {10u, 20u, 30u}) {
    const auto r = store.write(toy_checkpoint(step));
    ASSERT_TRUE(r.checkpoint_committed) << r.error;
    ASSERT_TRUE(r.manifest_committed) << r.error;
  }
  EXPECT_EQ(store.steps(), (std::vector<std::uint64_t>{10, 20, 30}));
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 30u);
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_EQ(rec.torn, 0u);
  EXPECT_EQ(rec.corrupt, 0u);
}

TEST(CkptStore, SkipsCorruptNewestAndFallsBack) {
  ckpt::CheckpointStore store(fresh_dir("fallback"));
  for (const std::uint64_t step : {10u, 20u, 30u}) {
    ASSERT_TRUE(store.write(toy_checkpoint(step)).checkpoint_committed);
  }
  // Rot one byte mid-file in the newest checkpoint.
  const std::string newest =
      store.dir() + "/" + ckpt::CheckpointStore::filename_for_step(30);
  {
    const auto off = static_cast<std::streamoff>(
        std::filesystem::file_size(newest) / 2);
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    char x = 0;
    f.seekg(off);
    f.read(&x, 1);
    x = static_cast<char>(x ^ 0x40);
    f.seekp(off);
    f.write(&x, 1);
  }
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 20u);
  EXPECT_FALSE(rec.used_manifest);
  EXPECT_GE(rec.corrupt + rec.torn, 1u);  // flip may hit structure or payload
}

TEST(CkptStore, StaleManifestDoesNotShadowNewerCheckpoint) {
  // Checkpoint 20 commits but its manifest update "crashes": the committed
  // manifest still points at 10. Recovery must return 20 anyway — and
  // because CrashBeforeRename dies *after* the manifest temp's fsync, the
  // stranded last-good.tmp names 20 verbatim, so recovery completes the
  // interrupted rename and takes the fast path it re-established.
  const std::string dir = fresh_dir("stale");
  fault::FileFaultDecision crash{fault::FileFaultKind::CrashBeforeRename, 0,
                                 0};
  ScriptedInjector inj({{}, {}, {}, crash});  // 4th write = 20's manifest
  ckpt::CheckpointStore store(dir, &inj);
  ASSERT_TRUE(store.write(toy_checkpoint(10)).manifest_committed);
  const auto r20 = store.write(toy_checkpoint(20));
  ASSERT_TRUE(r20.checkpoint_committed);
  ASSERT_FALSE(r20.manifest_committed);
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 20u);
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_EQ(rec.manifest_tmp_completed, 1u);
  EXPECT_EQ(rec.tmp_cleaned, 0u);
  // The roll-forward is durable: a second recovery reads the repaired
  // manifest directly, with no debris left to salvage.
  auto again = store.recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.checkpoint->step, 20u);
  EXPECT_TRUE(again.used_manifest);
  EXPECT_EQ(again.manifest_tmp_completed, 0u);
}

TEST(CkptStore, TornManifestTmpIsDebrisNotSalvage) {
  // A manifest temp truncated mid-write (crash before its fsync finished)
  // does not parse: recovery must clean it, never install it.
  const std::string dir = fresh_dir("torn_manifest_tmp");
  fault::FileFaultDecision truncate{fault::FileFaultKind::Truncate, 10, 0};
  ScriptedInjector inj({{}, {}, {}, truncate});  // 4th write = 20's manifest
  ckpt::CheckpointStore store(dir, &inj);
  ASSERT_TRUE(store.write(toy_checkpoint(10)).manifest_committed);
  const auto r20 = store.write(toy_checkpoint(20));
  ASSERT_TRUE(r20.checkpoint_committed);
  ASSERT_FALSE(r20.manifest_committed);
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 20u);  // via the scan
  EXPECT_FALSE(rec.used_manifest);       // stale manifest names 10
  EXPECT_EQ(rec.manifest_tmp_completed, 0u);
  EXPECT_EQ(rec.tmp_cleaned, 1u);
  for (const auto &e : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(e.path().extension(), ".tmp");
  }
}

TEST(CkptStore, StaleManifestTmpIsDebrisNotSalvage) {
  // A stranded manifest temp naming an *older* step than the newest file
  // on disk must not be installed: rolling it forward would make the fast
  // path shadow a newer committed checkpoint. It is debris. (The temp is
  // handcrafted: any later successful manifest write reuses — and thus
  // destroys — the stranded temp path, so no injector script can leave
  // this layout behind in one store lifetime.)
  const std::string dir = fresh_dir("stale_manifest_tmp");
  ckpt::CheckpointStore store(dir);
  ASSERT_TRUE(store.write(toy_checkpoint(10)).manifest_committed);
  ASSERT_TRUE(store.write(toy_checkpoint(20)).manifest_committed);
  const std::string old_file =
      ckpt::CheckpointStore::filename_for_step(10);
  const auto old_bytes = ckpt::read_file(dir + "/" + old_file);
  ASSERT_TRUE(old_bytes.has_value());
  {
    std::ofstream tmp(dir + "/last-good.tmp", std::ios::binary);
    tmp << "treu-ckpt-manifest v1\n"
        << old_file << '\n'
        << treu::core::sha256(*old_bytes).hex() << '\n';
  }
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 20u);
  EXPECT_TRUE(rec.used_manifest);  // the committed manifest, not the temp
  EXPECT_EQ(rec.manifest_tmp_completed, 0u);
  EXPECT_EQ(rec.tmp_cleaned, 1u);
}

TEST(CkptStore, CleansStrandedTmpFiles) {
  const std::string dir = fresh_dir("tmpclean");
  ScriptedInjector inj({{fault::FileFaultKind::CrashBeforeRename, 0, 0}});
  ckpt::CheckpointStore store(dir, &inj);
  ASSERT_FALSE(store.write(toy_checkpoint(5)).checkpoint_committed);
  ASSERT_TRUE(store.write(toy_checkpoint(6)).checkpoint_committed);
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 6u);
  EXPECT_EQ(rec.tmp_cleaned, 1u);
  for (const auto &e : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(e.path().extension(), ".tmp");
  }
}

TEST(CkptStore, EmptyStoreRecoversNothing) {
  ckpt::CheckpointStore store(fresh_dir("empty"));
  const auto rec = store.recover();
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.scanned, 0u);
}

TEST(CkptStore, PruneKeepsNewest) {
  ckpt::CheckpointStore store(fresh_dir("prune"));
  for (const std::uint64_t step : {1u, 2u, 3u, 4u, 5u}) {
    ASSERT_TRUE(store.write(toy_checkpoint(step)).checkpoint_committed);
  }
  EXPECT_EQ(store.prune(2), 3u);
  EXPECT_EQ(store.steps(), (std::vector<std::uint64_t>{4, 5}));
  // The manifest still points at 5, which survived: fast path intact.
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 5u);
}

TEST(CkptStore, PruneNeverDeletesManifestTarget) {
  // Fault-free store: the manifest tracks the newest write, so even an
  // aggressive prune(1) must leave the manifest's fast path intact.
  ckpt::CheckpointStore store(fresh_dir("prune_manifest"));
  for (const std::uint64_t step : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const auto r = store.write(toy_checkpoint(step));
    ASSERT_TRUE(r.checkpoint_committed) << r.error;
    ASSERT_TRUE(r.manifest_committed) << r.error;
  }
  EXPECT_EQ(store.prune(1), 5u);
  EXPECT_EQ(store.steps(), (std::vector<std::uint64_t>{6}));
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 6u);
  EXPECT_TRUE(rec.used_manifest);  // fast path resolves after the prune
}

TEST(CkptStore, PruneSparesStaleManifestTargetOutsideKeepWindow) {
  // Checkpoint 6 commits but its manifest update crashes, so the manifest
  // is stuck at 5. prune(1)'s keep window is {6} alone — yet 5 must survive
  // too, because deleting the manifest target would strand the fast path
  // (and, if 6 later rots, the only provably good checkpoint).
  const std::string dir = fresh_dir("prune_stale_manifest");
  fault::FileFaultDecision crash{fault::FileFaultKind::CrashBeforeRename, 0,
                                 0};
  // 5 clean writes = 10 events, then checkpoint 6 commits (None) and its
  // manifest write crashes.
  std::vector<fault::FileFaultDecision> script(10);
  script.push_back({});     // checkpoint 6: commits
  script.push_back(crash);  // manifest for 6: crashes, manifest stays at 5
  ScriptedInjector inj(std::move(script));
  ckpt::CheckpointStore store(dir, &inj);
  for (const std::uint64_t step : {1u, 2u, 3u, 4u, 5u}) {
    ASSERT_TRUE(store.write(toy_checkpoint(step)).manifest_committed);
  }
  const auto r6 = store.write(toy_checkpoint(6));
  ASSERT_TRUE(r6.checkpoint_committed);
  ASSERT_FALSE(r6.manifest_committed);

  EXPECT_EQ(store.prune(1), 4u);  // 1..4 deleted; 5 (manifest) and 6 survive
  EXPECT_EQ(store.steps(), (std::vector<std::uint64_t>{5, 6}));
  auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.checkpoint->step, 6u);
  // 6's manifest crashed after its temp's fsync, so recovery rolls the
  // stranded temp forward and the fast path resolves to 6 directly.
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_EQ(rec.manifest_tmp_completed, 1u);
}

TEST(CkptStore, FilenameStepParsingIsStrict) {
  using Store = ckpt::CheckpointStore;
  EXPECT_EQ(Store::step_of_filename(Store::filename_for_step(123)), 123u);
  EXPECT_EQ(Store::step_of_filename("ckpt-00000000000000000000.treu"), 0u);
  EXPECT_FALSE(Store::step_of_filename("ckpt-12x4.treu").has_value());
  EXPECT_FALSE(Store::step_of_filename("ckpt-.treu").has_value());
  EXPECT_FALSE(Store::step_of_filename("other-123.treu").has_value());
  EXPECT_FALSE(Store::step_of_filename("ckpt-123.tmp").has_value());
}

// ---------------------------------------------------------------------------
// Recovery soak under seeded faults (>= 3 seeds, deterministic replay)

struct SoakOutcome {
  std::vector<fault::FileFaultKind> history;
  std::uint64_t recovered_step = 0;
  bool recovered = false;
  std::size_t torn = 0;
  std::size_t corrupt = 0;

  friend bool operator==(const SoakOutcome &, const SoakOutcome &) = default;
};

SoakOutcome run_recovery_soak(std::uint64_t seed, const std::string &dir) {
  const fault::FileFaultConfig cfg{0.15, 0.15, 0.15};
  fault::FileFaultInjector inj(cfg, seed);
  ckpt::CheckpointStore store(dir, &inj);
  std::uint64_t newest_valid = 0;
  bool any_valid = false;
  for (std::uint64_t step = 1; step <= 40; ++step) {
    const auto r = store.write(toy_checkpoint(step, seed));
    // A checkpoint survives iff its own write drew None: Truncate and
    // CrashBeforeRename never commit, FlipBit commits then rots the file.
    if (r.checkpoint_committed &&
        r.checkpoint_fault == fault::FileFaultKind::None) {
      newest_valid = step;
      any_valid = true;
    }
  }
  const auto rec = store.recover();
  SoakOutcome out;
  out.history = inj.history();
  out.recovered = rec.ok();
  out.recovered_step = rec.ok() ? rec.checkpoint->step : 0;
  out.torn = rec.torn;
  out.corrupt = rec.corrupt;
  EXPECT_EQ(rec.ok(), any_valid) << "seed " << seed;
  if (any_valid) {
    EXPECT_EQ(rec.checkpoint->step, newest_valid) << "seed " << seed;
    // The restored checkpoint is bit-exact, not merely present.
    EXPECT_EQ(rec.checkpoint->weight_digest(),
              toy_checkpoint(newest_valid, seed).weight_digest());
  }
  return out;
}

TEST(CkptSoak, RecoveryUnderInjectedFaultsAcrossSeeds) {
  std::uint64_t total_faults = 0;
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    const std::string dir =
        fresh_dir("soak_" + std::to_string(seed));
    const SoakOutcome first = run_recovery_soak(seed, dir);
    // Deterministic replay: same seed, fresh store, identical outcome —
    // fault schedule, recovered step, and skip classification all match.
    std::filesystem::remove_all(dir);
    const SoakOutcome replay = run_recovery_soak(seed, dir);
    EXPECT_EQ(first, replay) << "seed " << seed;
    for (const auto kind : first.history) {
      if (kind != fault::FileFaultKind::None) ++total_faults;
    }
  }
  // With 45% fault rates over 4 soaks the run is vacuous if nothing fired.
  EXPECT_GT(total_faults, 10u);
}

// ---------------------------------------------------------------------------
// The tentpole property: bitwise-exact resume

/// Minimal training driver with explicit step accounting. Mirrors
/// MlpClassifier::train (shuffle per epoch, sequential minibatches) but
/// exposes the two things mid-run checkpointing needs: the global step and
/// the RNG state as of the current epoch's start (re-drawing the shuffle
/// from that state reproduces the batch order after a resume).
struct TrainDriver {
  nn::MlpClassifier model;
  std::unique_ptr<nn::Optimizer> opt;
  Rng rng;
  std::uint64_t step = 0;
  RngState epoch_start;
  std::vector<std::size_t> order;
  bool order_ready = false;

  TrainDriver(std::uint64_t init_seed, std::uint64_t train_seed, bool sgd)
      : model([&] {
          Rng init(init_seed);
          return nn::MlpClassifier(4, {8}, 3, init);
        }()),
        rng(train_seed, 1) {
    if (sgd) {
      opt = std::make_unique<nn::Sgd>(5e-2, 0.9, 0.0);
    } else {
      opt = std::make_unique<nn::Adam>(5e-3);
    }
  }

  std::uint64_t steps_per_epoch(const nn::Dataset &data,
                                std::size_t batch) const {
    return (data.size() + batch - 1) / batch;
  }

  void run_to(const nn::Dataset &data, std::size_t batch,
              std::uint64_t target) {
    const std::uint64_t spe = steps_per_epoch(data, batch);
    while (step < target) {
      const std::uint64_t in_epoch = step % spe;
      if (in_epoch == 0 || !order_ready) {
        if (in_epoch == 0) epoch_start = rng.state();
        order.resize(data.size());
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        order_ready = true;
      }
      const std::size_t start = static_cast<std::size_t>(in_epoch) * batch;
      const std::size_t end = std::min(start + batch, order.size());
      const nn::Dataset b = data.subset(
          std::span<const std::size_t>(order.data() + start, end - start));
      (void)model.step_on_batch(b.x, b.y, *opt);
      ++step;
    }
  }

  /// Snapshot for a kill at the current step. The RNG recorded is the
  /// *epoch-start* state (the current epoch's shuffle is re-drawn on
  /// resume); at an epoch boundary the live state IS the next epoch's
  /// start.
  ckpt::TrainingCheckpoint checkpoint(const nn::Dataset &data,
                                      std::size_t batch) const {
    const std::uint64_t spe = steps_per_epoch(data, batch);
    const Rng at_epoch_start = step % spe == 0
                                   ? rng
                                   : Rng::from_state(epoch_start);
    auto params = const_cast<nn::MlpClassifier &>(model).params();
    return ckpt::TrainingCheckpoint::capture(
        std::span<nn::Param *const>(params.data(), params.size()), opt.get(),
        &at_epoch_start, step, step / spe);
  }

  /// Rebuild driver bookkeeping from a restored checkpoint.
  void resume(const ckpt::TrainingCheckpoint &c, const nn::Dataset &data,
              std::size_t batch) {
    auto params = model.params();
    Rng restored(0);
    c.restore(std::span<nn::Param *const>(params.data(), params.size()),
              opt.get(), &restored);
    rng = restored;
    step = c.step;
    const std::uint64_t spe = steps_per_epoch(data, batch);
    order_ready = false;
    if (step % spe != 0) {
      // Mid-epoch kill: the checkpointed RNG is the epoch start; re-draw
      // this epoch's shuffle to land exactly where the dead run was.
      epoch_start = rng.state();
      order.resize(data.size());
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);
      order_ready = true;
    }
  }
};

std::string digest_of(nn::MlpClassifier &model) { return model.weight_hash(); }

void check_resume_exactness(bool sgd) {
  Rng data_rng(2024);
  const nn::Dataset data =
      treu::unlearn::make_blobs(3, 30, 4, 0.6, data_rng);  // 90 samples
  constexpr std::size_t kBatch = 16;  // 6 steps/epoch
  constexpr std::uint64_t kTotal = 18;  // 3 epochs

  TrainDriver full(77, 88, sgd);
  full.run_to(data, kBatch, kTotal);
  const std::string want = digest_of(full.model);

  // Kill at boundaries and mid-epoch, first and later epochs.
  for (const std::uint64_t k : {1u, 5u, 6u, 7u, 13u}) {
    const std::string dir =
        fresh_dir("resume_" + std::to_string(k) + (sgd ? "_sgd" : "_adam"));
    {
      TrainDriver doomed(77, 88, sgd);
      doomed.run_to(data, kBatch, k);
      ckpt::CheckpointStore store(dir);
      const auto w = store.write(doomed.checkpoint(data, kBatch));
      ASSERT_TRUE(w.checkpoint_committed) << w.error;
      // `doomed` dies here; nothing of it survives but the file.
    }
    // Different init seed: every recovered bit must come from the
    // checkpoint, not from a luckily identical initialization.
    TrainDriver revived(123456, 88, sgd);
    ckpt::CheckpointStore store(dir);
    auto rec = store.recover();
    ASSERT_TRUE(rec.ok());
    ASSERT_EQ(rec.checkpoint->step, k);
    revived.resume(*rec.checkpoint, data, kBatch);
    revived.run_to(data, kBatch, kTotal);
    EXPECT_EQ(digest_of(revived.model), want)
        << (sgd ? "sgd" : "adam") << " resume at step " << k
        << " diverged from the uninterrupted run";
  }
}

TEST(CkptResume, KilledRunResumesBitwiseExactAdam) {
  check_resume_exactness(false);
}

TEST(CkptResume, KilledRunResumesBitwiseExactSgd) {
  check_resume_exactness(true);
}

TEST(CkptResume, ResumeWithoutOptimizerStateDiverges) {
  // Negative control: dropping just the optimizer moments (Adam) must
  // break exactness — proves the property test actually depends on the
  // optimizer section.
  Rng data_rng(2024);
  const nn::Dataset data = treu::unlearn::make_blobs(3, 30, 4, 0.6, data_rng);
  constexpr std::size_t kBatch = 16;
  constexpr std::uint64_t kTotal = 18;

  TrainDriver full(77, 88, false);
  full.run_to(data, kBatch, kTotal);

  TrainDriver doomed(77, 88, false);
  doomed.run_to(data, kBatch, 7);
  auto c = doomed.checkpoint(data, kBatch);
  c.optimizer_state = nn::Adam(5e-3).save_state();  // forget the moments

  TrainDriver revived(123456, 88, false);
  revived.resume(c, data, kBatch);
  revived.run_to(data, kBatch, kTotal);
  EXPECT_NE(digest_of(revived.model), digest_of(full.model));
}

// ---------------------------------------------------------------------------
// BatchServer hot weight reload

using MlpServer = serve::BatchServer<std::vector<double>, nn::ClassScores>;

std::vector<double> flat_weights(nn::MlpClassifier &m) {
  auto p = m.params();
  return nn::save_weights(std::span<nn::Param *const>(p.data(), p.size()));
}

// reload_weights hands back the replica as the Predictor the server knows;
// the deployment (this test) knows the concrete model type.
void apply_checkpoint(MlpServer::Model &replica,
                      const ckpt::TrainingCheckpoint &c) {
  auto &m = static_cast<nn::MlpClassifier &>(replica);
  auto p = m.params();
  c.restore(std::span<nn::Param *const>(p.data(), p.size()), nullptr,
            nullptr);
}

void apply_flat(MlpServer::Model &replica, const std::vector<double> &flat) {
  auto &m = static_cast<nn::MlpClassifier &>(replica);
  auto p = m.params();
  nn::load_weights(std::span<nn::Param *const>(p.data(), p.size()), flat);
}

TEST(CkptReload, HotReloadSwapsFleetUnderTraffic) {
  Rng init(31);
  nn::MlpClassifier r0(4, {8}, 3, init);
  nn::MlpClassifier r1(4, {8}, 3, init);  // second draw -> different weights
  apply_flat(r1, flat_weights(r0));       // make replicas identical
  const std::string v1_hash = r0.weight_hash();
  const std::vector<double> v1_flat = flat_weights(r0);

  // v2 weights, checkpointed through the store like a real deployment.
  Rng init2(32);
  nn::MlpClassifier trained(4, {8}, 3, init2);
  auto tp = trained.params();
  const auto v2 = ckpt::TrainingCheckpoint::capture(
      std::span<nn::Param *const>(tp.data(), tp.size()), nullptr, nullptr,
      100);
  ckpt::CheckpointStore store(fresh_dir("reload"));
  ASSERT_TRUE(store.write(v2).checkpoint_committed);
  const std::string v2_hash = v2.weight_digest().hex();
  ASSERT_NE(v1_hash, v2_hash);

  serve::ServeConfig cfg;
  cfg.max_batch_size = 4;
  cfg.max_queue_delay = std::chrono::microseconds(200);
  MlpServer server({&r0, &r1}, cfg);

  // Traffic before, during, and after the reload.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> old_hash_seen{0}, new_hash_seen{0}, other{0};
  std::thread traffic([&] {
    Rng req_rng(7);
    while (!stop.load()) {
      auto fut = server.submit(req_rng.normal_vector(4));
      const auto served = fut.get();  // no faults configured: always a value
      if (served.weight_hash == v1_hash) {
        old_hash_seen.fetch_add(1);
      } else if (served.weight_hash == v2_hash) {
        new_hash_seen.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    }
  });
  while (old_hash_seen.load() < 20) std::this_thread::yield();

  const auto rec = store.recover();
  ASSERT_TRUE(rec.ok());
  const auto report = server.reload_weights(
      [&](MlpServer::Model &m) { apply_checkpoint(m, *rec.checkpoint); },
      rec.checkpoint->weight_digest().hex(),
      [&](MlpServer::Model &m) { apply_flat(m, v1_flat); });
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.replicas_updated, 2u);
  EXPECT_EQ(report.previous_hash, v1_hash);
  EXPECT_EQ(report.new_hash, v2_hash);

  // Post-swap responses must attribute to the new weights.
  const auto swapped_at = new_hash_seen.load();
  while (new_hash_seen.load() < swapped_at + 20) std::this_thread::yield();
  stop.store(true);
  traffic.join();
  server.shutdown();

  EXPECT_EQ(other.load(), 0u) << "response carried a hash of neither version";
  EXPECT_GT(new_hash_seen.load(), 0u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.reload_rollbacks, 0u);
}

TEST(CkptReload, CorruptCheckpointRollsBackCleanlyUnderTraffic) {
  Rng init(41);
  nn::MlpClassifier r0(4, {8}, 3, init);
  nn::MlpClassifier r1(4, {8}, 3, init);
  apply_flat(r1, flat_weights(r0));
  const std::string v1_hash = r0.weight_hash();
  const std::vector<double> v1_flat = flat_weights(r0);

  // The "corrupt" candidate: weights whose digest does NOT match what the
  // manifest promised (a checkpoint that decodes but fails validation
  // against the serving hash machinery).
  Rng init2(42);
  nn::MlpClassifier wrong(4, {8}, 3, init2);
  const std::vector<double> wrong_flat = flat_weights(wrong);
  Rng init3(43);
  nn::MlpClassifier promised(4, {8}, 3, init3);
  const std::string promised_hash = promised.weight_hash();

  serve::ServeConfig cfg;
  cfg.max_batch_size = 4;
  cfg.max_queue_delay = std::chrono::microseconds(200);
  MlpServer server({&r0, &r1}, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> non_v1{0}, served_count{0};
  std::thread traffic([&] {
    Rng req_rng(9);
    while (!stop.load()) {
      auto fut = server.submit(req_rng.normal_vector(4));
      const auto served = fut.get();
      served_count.fetch_add(1);
      if (served.weight_hash != v1_hash) non_v1.fetch_add(1);
    }
  });
  while (served_count.load() < 10) std::this_thread::yield();

  const auto report = server.reload_weights(
      [&](MlpServer::Model &m) { apply_flat(m, wrong_flat); },
      promised_hash,
      [&](MlpServer::Model &m) { apply_flat(m, v1_flat); });
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.replicas_updated, 0u);
  EXPECT_NE(report.error.find("hash mismatch"), std::string::npos)
      << report.error;

  // Fleet still serves v1, traffic never saw a half-reloaded replica.
  const auto before = served_count.load();
  while (served_count.load() < before + 20) std::this_thread::yield();
  stop.store(true);
  traffic.join();
  server.shutdown();

  EXPECT_EQ(non_v1.load(), 0u);
  EXPECT_EQ(r0.weight_hash(), v1_hash);
  EXPECT_EQ(r1.weight_hash(), v1_hash);
  const auto stats = server.stats();
  EXPECT_EQ(stats.reloads, 0u);
  EXPECT_EQ(stats.reload_rollbacks, 1u);
}

TEST(CkptReload, ConcurrentReloadsSerializeAndNeverInterleave) {
  // A second reload_weights call arriving while the first is still
  // validating its standby must queue behind it — complete fleets only,
  // never an interleaving where replicas end up on a mix of versions.
  Rng init(61);
  nn::MlpClassifier r0(4, {8}, 3, init);
  nn::MlpClassifier r1(4, {8}, 3, init);
  apply_flat(r1, flat_weights(r0));
  const std::vector<double> v1_flat = flat_weights(r0);

  Rng init_a(62);
  nn::MlpClassifier version_a(4, {8}, 3, init_a);
  Rng init_b(63);
  nn::MlpClassifier version_b(4, {8}, 3, init_b);
  const std::vector<double> a_flat = flat_weights(version_a);
  const std::vector<double> b_flat = flat_weights(version_b);
  const std::string a_hash = version_a.weight_hash();
  const std::string b_hash = version_b.weight_hash();
  ASSERT_NE(a_hash, b_hash);

  serve::ServeConfig cfg;
  MlpServer server({&r0, &r1}, cfg);

  std::mutex log_mu;
  std::vector<char> events;  // 'A'/'B': which reload touched a replica
  const auto record = [&](char tag) {
    std::lock_guard lock(log_mu);
    events.push_back(tag);
  };

  // Reload A parks inside its FIRST apply (the standby, mid-validation)
  // until the test has launched reload B and given it time to reach the
  // reload mutex. If reloads could interleave, B's applies would land in
  // the window A deliberately holds open.
  std::atomic<bool> a_in_standby{false};
  std::promise<void> b_launched;
  std::shared_future<void> b_launched_f = b_launched.get_future().share();
  auto a_future = std::async(std::launch::async, [&] {
    std::size_t applied = 0;
    return server.reload_weights(
        [&](MlpServer::Model &m) {
          if (applied++ == 0) {
            a_in_standby.store(true);
            b_launched_f.wait();
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          record('A');
          apply_flat(m, a_flat);
        },
        a_hash, [&](MlpServer::Model &m) { apply_flat(m, v1_flat); });
  });
  while (!a_in_standby.load()) std::this_thread::yield();

  auto b_future = std::async(std::launch::async, [&] {
    return server.reload_weights(
        [&](MlpServer::Model &m) {
          record('B');
          apply_flat(m, b_flat);
        },
        b_hash, [&](MlpServer::Model &m) { apply_flat(m, v1_flat); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b_launched.set_value();  // A still sleeps 100ms with B at the mutex

  const auto a_report = a_future.get();
  const auto b_report = b_future.get();
  EXPECT_TRUE(a_report.ok) << a_report.error;
  EXPECT_TRUE(b_report.ok) << b_report.error;

  // Strictly serialized: both of A's applies before both of B's.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(std::string(events.begin(), events.end()), "AABB");
  // B queued behind A (it saw A's completed fleet, not v1), and the final
  // fleet is entirely on B — deterministic last-submitted-wins.
  EXPECT_EQ(b_report.previous_hash, a_hash);
  EXPECT_EQ(b_report.new_hash, b_hash);
  EXPECT_EQ(r0.weight_hash(), b_hash);
  EXPECT_EQ(r1.weight_hash(), b_hash);
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.reloads, 2u);
  EXPECT_EQ(stats.reload_rollbacks, 0u);
}

TEST(CkptReload, RejectsEmptyCallbacks) {
  Rng init(51);
  nn::MlpClassifier m(4, {8}, 3, init);
  serve::ServeConfig cfg;
  MlpServer server(m, cfg);
  const auto noop = [](MlpServer::Model &) {};
  EXPECT_THROW((void)server.reload_weights({}, "", noop),
               std::invalid_argument);
  EXPECT_THROW((void)server.reload_weights(noop, "", {}),
               std::invalid_argument);
  server.shutdown();
}

}  // namespace
