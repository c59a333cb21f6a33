// treu::cluster — multi-process sharded serving with deterministic failure
// injection and zero-loss failover (docs/cluster.md).
//
// This binary hosts its own worker processes: the controller re-execs
// /proc/self/exe with --treu-cluster-worker, so main() registers the "mlp"
// worker kind and calls maybe_run_worker() BEFORE gtest ever initializes.
// A worker invocation runs the wire loop and exits; a normal invocation
// falls through to RUN_ALL_TESTS().
//
// Coverage, by layer:
//  - wire:     encode/decode round trips, byte-level fuzz (truncation,
//              every single-bit flip, oversized length prefixes, random
//              garbage) asserting never-throw classification + poisoning.
//  - ring:     determinism, chain/route consistency, failover-to-successor
//              and restore, rough balance.
//  - cluster:  end-to-end serving bit-exact with a local model, manual and
//              injected worker murder with exact zero-loss accounting,
//              byte-identical two-run failure schedules (the journal),
//              the journal's chain digest and bounded tail, auto-restart
//              failing over without waiting for the replacement's Hello,
//              stall detection + at-least-once dedup, link-drop recovery,
//              admission control, drain/restart/hot-reload, deterministic
//              trace propagation, per-worker flight dumps.
//  - soak:     ClusterSoak.* — seeded kill/stall/drop storm under windowed
//              load (scripts/run_soak.sh --suite cluster).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flight_dump_listener.hpp"
#include "treu/ckpt/checkpoint.hpp"
#include "treu/ckpt/durable_log.hpp"
#include "treu/cluster/codec.hpp"
#include "treu/cluster/controller.hpp"
#include "treu/cluster/model_worker.hpp"
#include "treu/cluster/ring.hpp"
#include "treu/cluster/wire.hpp"
#include "treu/cluster/worker.hpp"
#include "treu/core/rng.hpp"
#include "treu/fault/fault_plan.hpp"
#include "treu/nn/mlp.hpp"
#include "treu/obs/causal.hpp"

namespace treu {
namespace {

using namespace std::chrono_literals;

TREU_INSTALL_FLIGHT_DUMP("cluster_test");

// ---- the "mlp" worker kind -------------------------------------------------

constexpr std::size_t kDim = 6;
constexpr std::size_t kClasses = 3;
constexpr std::uint64_t kModelSeed = 7;

using MlpWorker = cluster::ModelWorker<std::vector<double>, nn::ClassScores>;

std::unique_ptr<nn::MlpClassifier> fresh_model(std::uint64_t seed) {
  core::Rng rng(seed);
  return std::make_unique<nn::MlpClassifier>(
      kDim, std::vector<std::size_t>{8}, kClasses, rng);
}

/// Hot-reload hook: restore a checkpoint file into each replica through the
/// server's validated reload path (standby-first, digest check, rollback).
bool mlp_reload(MlpWorker::Server &server, const std::string &path,
                const std::string &digest, std::string &error) {
  const ckpt::LoadResult loaded = ckpt::load_checkpoint_file(path);
  if (!loaded.ok()) {
    error = "reload: " + loaded.error;
    return false;
  }
  const ckpt::TrainingCheckpoint snapshot = *loaded.checkpoint;
  std::map<MlpWorker::Model *, ckpt::TrainingCheckpoint> previous;
  std::mutex prev_mu;
  const auto apply = [&](MlpWorker::Model &m) {
    auto &mlp = dynamic_cast<nn::MlpClassifier &>(m);
    const std::vector<nn::Param *> params = mlp.params();
    {
      std::lock_guard lock(prev_mu);
      previous.emplace(
          &m, ckpt::TrainingCheckpoint::capture(params, nullptr, nullptr, 0));
    }
    snapshot.restore(params, nullptr, nullptr);
  };
  const auto rollback = [&](MlpWorker::Model &m) {
    auto &mlp = dynamic_cast<nn::MlpClassifier &>(m);
    std::lock_guard lock(prev_mu);
    const auto it = previous.find(&m);
    if (it == previous.end()) return;
    const std::vector<nn::Param *> params = mlp.params();
    it->second.restore(params, nullptr, nullptr);
  };
  const serve::ReloadReport report =
      server.reload_weights(apply, digest, rollback);
  if (!report.ok) error = report.error;
  return report.ok;
}

std::unique_ptr<cluster::WorkerService> make_mlp_worker(
    const cluster::WorkerStartup &startup) {
  std::uint64_t seed = kModelSeed;
  for (std::size_t i = 0; i + 1 < startup.extra_args.size(); ++i) {
    if (startup.extra_args[i] == "--mlp-seed") {
      seed = std::strtoull(startup.extra_args[i + 1].c_str(), nullptr, 10);
    }
  }
  std::vector<std::unique_ptr<MlpWorker::Model>> models;
  for (int r = 0; r < 2; ++r) models.push_back(fresh_model(seed));
  serve::ServeConfig config;
  config.max_batch_size = 8;
  config.max_queue_delay = 200us;
  config.max_pending = 4096;
  const auto decode = [](std::span<const std::uint8_t> bytes,
                         std::vector<double> &out) {
    return cluster::decode_features(bytes, out) && out.size() == kDim;
  };
  const auto encode = [](const nn::ClassScores &scores) {
    return cluster::encode_scores(scores);
  };
  return std::make_unique<MlpWorker>(std::move(models), config, decode,
                                     encode, mlp_reload);
}

/// The "mlp" kind, but every incarnation reports Hello ~300 ms late.
constexpr auto kSlowHello = 300ms;

std::unique_ptr<cluster::WorkerService> make_slow_hello_worker(
    const cluster::WorkerStartup &startup) {
  std::this_thread::sleep_for(kSlowHello);
  return make_mlp_worker(startup);
}

// ---- shared helpers --------------------------------------------------------

std::vector<double> features_for(std::uint64_t seq) {
  std::vector<double> f(kDim);
  core::Rng rng(0x5EED5EEDULL, seq);
  for (double &v : f) v = rng.uniform(-1.0, 1.0);
  return f;
}

cluster::Frame sample_frame() {
  cluster::Frame f;
  f.type = cluster::FrameType::Request;
  f.flags = 0x2;
  f.seq = 0x0123456789ABCDEFULL;
  f.trace_hi = 0xD00DFEEDFACE0001ULL;
  f.trace_lo = 0xD00DFEEDFACE0002ULL;
  f.tenant = 42;
  f.payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  return f;
}

std::string make_temp_dir(const char *tag) {
  std::string tmpl = std::string("/tmp/treu_cluster_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char *dir = ::mkdtemp(buf.data());
  if (dir == nullptr) throw std::runtime_error("mkdtemp failed");
  return dir;
}

/// Scripted cluster-level injector: plays a fixed decision prefix, then a
/// fallback for every later consult. Thread-safe like the interface asks.
class ScriptedInjector final : public fault::Injector {
 public:
  ScriptedInjector(std::vector<fault::FaultDecision> script,
                   fault::FaultDecision fallback = {})
      : script_(std::move(script)), fallback_(fallback) {}

  fault::FaultDecision decide(std::size_t /*replica*/,
                              std::size_t /*batch_size*/) override {
    std::lock_guard lock(mu_);
    if (next_ < script_.size()) return script_[next_++];
    return fallback_;
  }

 private:
  std::mutex mu_;
  std::vector<fault::FaultDecision> script_;
  fault::FaultDecision fallback_;
  std::size_t next_ = 0;
};

enum class Outcome { Fulfilled, Rejected, Shed, Failed };

Outcome classify(std::future<cluster::ClusterResponse> &fut) {
  try {
    (void)fut.get();
    return Outcome::Fulfilled;
  } catch (const cluster::ClusterRejectedError &) {
    return Outcome::Rejected;
  } catch (const cluster::ClusterShedError &) {
    return Outcome::Shed;
  } catch (const cluster::ClusterFailedError &) {
    return Outcome::Failed;
  }
}

// ---- wire protocol ---------------------------------------------------------

TEST(Wire, RoundTripPreservesEveryField) {
  const cluster::Frame f = sample_frame();
  const std::vector<std::uint8_t> bytes = cluster::encode_frame(f);
  ASSERT_EQ(bytes.size(), cluster::kWireHeaderSize + f.payload.size());

  const cluster::WireDecodeResult r = cluster::decode_frame(bytes);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.consumed, bytes.size());
  EXPECT_EQ(r.frame.type, f.type);
  EXPECT_EQ(r.frame.flags, f.flags);
  EXPECT_EQ(r.frame.seq, f.seq);
  EXPECT_EQ(r.frame.trace_hi, f.trace_hi);
  EXPECT_EQ(r.frame.trace_lo, f.trace_lo);
  EXPECT_EQ(r.frame.tenant, f.tenant);
  EXPECT_EQ(r.frame.payload, f.payload);
}

TEST(Wire, EmptyPayloadRoundTrip) {
  cluster::Frame f;
  f.type = cluster::FrameType::Heartbeat;
  f.seq = 9;
  const std::vector<std::uint8_t> bytes = cluster::encode_frame(f);
  ASSERT_EQ(bytes.size(), cluster::kWireHeaderSize);
  const cluster::WireDecodeResult r = cluster::decode_frame(bytes);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.frame.type, cluster::FrameType::Heartbeat);
  EXPECT_EQ(r.frame.seq, 9u);
  EXPECT_TRUE(r.frame.payload.empty());
}

TEST(Wire, EveryTruncationIsNeedMore) {
  const std::vector<std::uint8_t> bytes =
      cluster::encode_frame(sample_frame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const cluster::WireDecodeResult r =
        cluster::decode_frame({bytes.data(), len});
    EXPECT_EQ(r.failure, cluster::WireFailure::NeedMore)
        << "prefix length " << len;
    EXPECT_EQ(r.consumed, 0u);
  }
}

// Flip every single bit of a valid frame: decode must never throw and never
// accept. A flip inside the length field may legitimately read as NeedMore
// (the frame just looks longer); everything else is Torn or Corrupt.
TEST(Wire, EveryBitFlipIsClassifiedNeverAccepted) {
  const std::vector<std::uint8_t> bytes =
      cluster::encode_frame(sample_frame());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> damaged = bytes;
      damaged[byte] = static_cast<std::uint8_t>(damaged[byte] ^ (1u << bit));
      cluster::WireDecodeResult r;
      EXPECT_NO_THROW(r = cluster::decode_frame(damaged))
          << "byte " << byte << " bit " << bit;
      EXPECT_FALSE(r.ok()) << "byte " << byte << " bit " << bit
                           << " decoded a damaged frame";
      EXPECT_NE(r.failure, cluster::WireFailure::None);
    }
  }
}

TEST(Wire, OversizedLengthPrefixIsTorn) {
  // A hostile/torn length prefix far past the bound.
  std::vector<std::uint8_t> bytes = cluster::encode_frame(sample_frame());
  bytes[36] = bytes[37] = bytes[38] = bytes[39] = 0xFF;
  const cluster::WireDecodeResult r = cluster::decode_frame(bytes);
  EXPECT_EQ(r.failure, cluster::WireFailure::Torn);

  // A frame that is honest but larger than this consumer's bound is torn
  // too: the decoder must refuse before trusting the allocation.
  cluster::Frame big = sample_frame();
  big.payload.assign(512, 0xAB);
  const cluster::WireDecodeResult small_bound =
      cluster::decode_frame(cluster::encode_frame(big), /*max_payload=*/256);
  EXPECT_EQ(small_bound.failure, cluster::WireFailure::Torn);
}

TEST(Wire, GarbageStreamFuzzNeverThrows) {
  core::Rng rng(20260808);
  for (int round = 0; round < 64; ++round) {
    cluster::FrameDecoder decoder;
    bool damaged = false;
    for (int chunk = 0; chunk < 16; ++chunk) {
      std::vector<std::uint8_t> noise(rng.uniform_index(96) + 1);
      for (auto &b : noise) {
        b = static_cast<std::uint8_t>(rng.next_u32() & 0xFF);
      }
      decoder.feed({noise.data(), noise.size()});
      for (;;) {
        cluster::WireDecodeResult r;
        ASSERT_NO_THROW(r = decoder.next());
        if (r.failure == cluster::WireFailure::NeedMore) break;
        // Random bytes essentially never hash-collide into a valid frame;
        // anything else must be a classified failure, not a crash.
        ASSERT_FALSE(r.ok());
        EXPECT_TRUE(r.failure == cluster::WireFailure::Torn ||
                    r.failure == cluster::WireFailure::Corrupt);
        EXPECT_FALSE(r.error.empty());
        damaged = true;
        break;
      }
      if (damaged) break;
    }
    EXPECT_TRUE(damaged);  // 48+ random bytes cannot all be valid prefixes
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(Wire, PoisonIsPermanent) {
  cluster::FrameDecoder decoder;
  std::vector<std::uint8_t> garbage(64, 0x5A);
  decoder.feed({garbage.data(), garbage.size()});
  const cluster::WireDecodeResult first = decoder.next();
  ASSERT_EQ(first.failure, cluster::WireFailure::Torn);
  EXPECT_TRUE(decoder.poisoned());

  // A perfectly valid frame after damage must NOT resynchronize: framing
  // is untrusted for good once the stream tore.
  const std::vector<std::uint8_t> good =
      cluster::encode_frame(sample_frame());
  decoder.feed({good.data(), good.size()});
  const cluster::WireDecodeResult after = decoder.next();
  EXPECT_EQ(after.failure, cluster::WireFailure::Torn);
  EXPECT_EQ(after.error, first.error);
}

TEST(Wire, DecoderStreamsBackToBackFramesFedInDribbles) {
  cluster::Frame a = sample_frame();
  cluster::Frame b = sample_frame();
  b.seq = 2;
  b.payload = {0xAA, 0xBB};
  std::vector<std::uint8_t> stream = cluster::encode_frame(a);
  const std::vector<std::uint8_t> second = cluster::encode_frame(b);
  stream.insert(stream.end(), second.begin(), second.end());

  cluster::FrameDecoder decoder;
  std::vector<cluster::Frame> out;
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - off);
    decoder.feed({stream.data() + off, n});
    for (;;) {
      const cluster::WireDecodeResult r = decoder.next();
      if (!r.ok()) {
        ASSERT_EQ(r.failure, cluster::WireFailure::NeedMore);
        break;
      }
      out.push_back(r.frame);
    }
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, a.seq);
  EXPECT_EQ(out[0].payload, a.payload);
  EXPECT_EQ(out[1].seq, 2u);
  EXPECT_EQ(out[1].payload, b.payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Wire, PayloadReaderRefusesOutOfBoundsReads) {
  std::vector<std::uint8_t> payload;
  cluster::put_u32(payload, 7);
  cluster::put_str(payload, "ok");
  {
    cluster::PayloadReader r({payload.data(), payload.size()});
    std::uint32_t v = 0;
    std::string s;
    EXPECT_TRUE(r.u32(v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(r.str(s));
    EXPECT_EQ(s, "ok");
    std::uint64_t w = 0;
    EXPECT_FALSE(r.u64(w));  // past the end: false, never a throw
    double d = 0;
    EXPECT_FALSE(r.f64(d));
  }
  {
    // A string length prefix pointing past the buffer must read as false.
    std::vector<std::uint8_t> lying;
    cluster::put_u32(lying, 0xFFFFFFFFu);
    lying.push_back('x');
    cluster::PayloadReader r({lying.data(), lying.size()});
    std::string s;
    EXPECT_FALSE(r.str(s));
  }
}

// ---- consistent-hash ring --------------------------------------------------

TEST(Ring, SameConfigBuildsIdenticalRouting) {
  const cluster::HashRing a(5, 64, 17);
  const cluster::HashRing b(5, 64, 17);
  const std::vector<bool> live(5, true);
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(a.route(key, live), b.route(key, live));
    EXPECT_EQ(a.chain(key), b.chain(key));
  }
  // Different seed, different ring (as a whole — single keys may agree).
  const cluster::HashRing c(5, 64, 18);
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 512; ++key) {
    if (a.route(key, live) != c.route(key, live)) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(Ring, ChainIsAPermutationAndRouteIsItsFirstLiveEntry) {
  const cluster::HashRing ring(4, 32, 3);
  for (std::uint64_t key = 0; key < 256; ++key) {
    const std::vector<std::size_t> chain = ring.chain(key);
    ASSERT_EQ(chain.size(), 4u);
    EXPECT_EQ(std::set<std::size_t>(chain.begin(), chain.end()).size(), 4u);
    for (std::size_t dead_count = 0; dead_count < 4; ++dead_count) {
      std::vector<bool> live(4, true);
      for (std::size_t i = 0; i < dead_count; ++i) live[chain[i]] = false;
      EXPECT_EQ(ring.route(key, live), chain[dead_count])
          << "key " << key << " with first " << dead_count << " chain dead";
    }
  }
}

TEST(Ring, FailoverMovesToSuccessorAndRestores) {
  const cluster::HashRing ring(3, 64, 11);
  std::vector<bool> live(3, true);
  for (std::uint64_t key = 0; key < 128; ++key) {
    const std::size_t home = ring.route(key, live);
    const std::vector<std::size_t> chain = ring.chain(key);
    ASSERT_EQ(chain.front(), home);

    live[home] = false;
    EXPECT_EQ(ring.route(key, live), chain[1]) << "key " << key;
    live[home] = true;
    // Liveness is the only runtime input: restoring restores the routing.
    EXPECT_EQ(ring.route(key, live), home) << "key " << key;
  }
}

TEST(Ring, NoLiveWorkerRoutesNowhere) {
  const cluster::HashRing ring(3, 16, 0);
  EXPECT_EQ(ring.route(123, std::vector<bool>(3, false)), cluster::kNoWorker);
  // Workers beyond the live vector's size count as dead.
  EXPECT_EQ(ring.route(123, std::vector<bool>{}), cluster::kNoWorker);
}

TEST(Ring, VnodesSpreadKeysAcrossEveryWorker) {
  constexpr std::size_t kWorkers = 8;
  const cluster::HashRing ring(kWorkers, 64, 5);
  const std::vector<bool> live(kWorkers, true);
  std::vector<std::size_t> hits(kWorkers, 0);
  constexpr std::uint64_t kKeys = 20000;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::size_t w = ring.route(key, live);
    ASSERT_LT(w, kWorkers);
    ++hits[w];
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    // Rough balance only: consistent hashing with 64 vnodes is lumpy, but
    // no worker may be starved or hoard the keyspace.
    EXPECT_GT(hits[w], kKeys / kWorkers / 4) << "worker " << w;
    EXPECT_LT(hits[w], kKeys / 2) << "worker " << w;
  }
}

// ---- end-to-end: spawn, serve, shut down -----------------------------------

TEST(Cluster, ServesBitExactWithLocalModelAndDeterministicTraces) {
  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 2;
  config.worker_args = {"--mlp-seed", std::to_string(kModelSeed)};
  config.trace_seed = 424242;
  cluster::ClusterController ctrl(config);

  const std::unique_ptr<nn::MlpClassifier> local = fresh_model(kModelSeed);
  for (std::size_t s = 0; s < config.workers; ++s) {
    const cluster::WorkerInfo info = ctrl.worker(s);
    EXPECT_TRUE(info.live);
    EXPECT_TRUE(info.ready);
    EXPECT_GT(info.pid, 0);
    // Hello carries the shard's weight hash: provenance crosses the wire.
    EXPECT_EQ(info.weight_hash, local->weight_hash());
  }

  constexpr std::uint64_t kRequests = 24;
  std::vector<std::future<cluster::ClusterResponse>> futs;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    futs.push_back(ctrl.submit(/*tenant=*/7, serve::Priority::Normal,
                               cluster::encode_features(features_for(i))));
  }
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const cluster::ClusterResponse resp = futs[i].get();
    EXPECT_EQ(resp.attempts, 1u);
    EXPECT_LT(resp.shard, config.workers);
    // Deterministic trace ids: request k is derive_trace_id(seed, k).
    EXPECT_EQ(resp.trace, obs::derive_trace_id(config.trace_seed, i));

    nn::ClassScores got;
    ASSERT_TRUE(cluster::decode_scores(
        {resp.payload.data(), resp.payload.size()}, got));
    const std::vector<double> input = features_for(i);
    const std::vector<nn::ClassScores> want =
        local->predict_batch({&input, 1});
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(got.label, want[0].label);
    ASSERT_EQ(got.logits.size(), want[0].logits.size());
    for (std::size_t c = 0; c < got.logits.size(); ++c) {
      // Bit-exact across the process boundary: same weights, same row
      // math, byte-preserving f64 codec.
      EXPECT_EQ(got.logits[c], want[0].logits[c]) << "request " << i;
    }
  }

  ctrl.shutdown();
  const cluster::ClusterStats stats = ctrl.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.fulfilled, kRequests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.tenants.at(7).fulfilled, kRequests);
}

TEST(Cluster, UndecodableRequestFailsCleanlyWithoutKillingTheWorker) {
  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 1;
  cluster::ClusterController ctrl(config);

  auto bad = ctrl.submit(0, serve::Priority::Normal, {0xDE, 0xAD, 0xBE});
  EXPECT_THROW(
      {
        try {
          (void)bad.get();
        } catch (const cluster::ClusterFailedError &e) {
          EXPECT_NE(std::string(e.what()).find("undecodable"),
                    std::string::npos);
          throw;
        }
      },
      cluster::ClusterFailedError);

  // The worker answered (an Error frame), it did not die: it still serves.
  auto good = ctrl.submit(0, serve::Priority::Normal,
                          cluster::encode_features(features_for(1)));
  EXPECT_NO_THROW((void)good.get());

  ctrl.shutdown();
  const cluster::ClusterStats stats = ctrl.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.fulfilled, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.worker_deaths, 0u);
}

// ---- worker murder: zero accepted-request loss -----------------------------

TEST(Cluster, ManualWorkerKillMidLoadLosesNothing) {
  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 3;
  config.retry.max_attempts = 4;
  config.retry.base_backoff = 200us;
  config.retry.max_backoff = 2000us;
  config.heartbeat_interval = 5000us;
  config.heartbeat_timeout = 100000us;
  cluster::ClusterController ctrl(config);

  constexpr std::uint64_t kRequests = 48;
  std::vector<std::future<cluster::ClusterResponse>> futs;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    futs.push_back(ctrl.submit(static_cast<std::uint32_t>(i % 2),
                               serve::Priority::Normal,
                               cluster::encode_features(features_for(i))));
  }
  // Murder shard 1 while (nearly) everything is still in flight. Detection
  // runs through the reader's EOF; in-flight work on the dead shard fails
  // over along its deterministic ring chain.
  ctrl.kill_worker(1);

  std::uint64_t fulfilled = 0;
  std::uint64_t max_attempts_seen = 0;
  for (auto &fut : futs) {
    const cluster::ClusterResponse resp = fut.get();  // throws on loss
    ++fulfilled;
    max_attempts_seen = std::max<std::uint64_t>(max_attempts_seen,
                                                resp.attempts);
  }
  EXPECT_EQ(fulfilled, kRequests);

  ctrl.shutdown();
  const cluster::ClusterStats stats = ctrl.stats();
  // The zero-loss contract, exactly: every admitted request resolved, and
  // here all of them resolved as fulfilled despite the murder.
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.fulfilled + stats.failed, stats.admitted);
  EXPECT_EQ(stats.fulfilled, kRequests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.worker_deaths, 1u);
  EXPECT_FALSE(ctrl.worker(1).live);
  // Per-tenant accounting folds up to the totals.
  std::uint64_t tenant_fulfilled = 0;
  for (const auto &kv : stats.tenants) tenant_fulfilled += kv.second.fulfilled;
  EXPECT_EQ(tenant_fulfilled, stats.fulfilled);
}

// ---- injected kills: byte-identical replay ---------------------------------

struct ReplayRun {
  std::vector<std::string> journal;
  core::Digest journal_digest;
  std::uint64_t journal_lines = 0;
  std::vector<Outcome> outcomes;
  std::uint64_t kills = 0;
  std::uint64_t deaths = 0;
  std::uint64_t failovers = 0;
  std::uint64_t fulfilled = 0;
  std::uint64_t failed = 0;
};

/// Closed-loop seeded scenario on a virtual clock: one request at a time,
/// FaultPlan-driven worker murder, every decision journaled. Wall time
/// influences nothing the journal records, so two runs of the same seed
/// must produce byte-identical journals.
ReplayRun run_injected_kill_scenario(std::uint64_t seed) {
  fault::FaultPlanConfig plan_config;
  plan_config.worker_kill_rate = 0.2;
  fault::FaultPlan plan(plan_config, seed);

  std::atomic<std::int64_t> clock{0};
  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 3;
  config.worker_args = {"--mlp-seed", std::to_string(kModelSeed)};
  config.heartbeat_interval = 0us;  // wall-clock traffic off: EOF + plan only
  config.heartbeat_timeout = 0us;
  config.retry.max_attempts = 3;
  config.retry.base_backoff = 500us;
  config.injector = &plan;
  config.clock = [&clock] { return clock.load(); };
  config.journal = true;
  config.trace_seed = 99;
  cluster::ClusterController ctrl(config);

  ReplayRun run;
  for (std::uint64_t i = 0; i < 30; ++i) {
    auto fut = ctrl.submit(0, serve::Priority::Normal,
                           cluster::encode_features(features_for(i)));
    // Drive backoff in virtual time until this request resolves. Extra
    // pumps with nothing due are journal-invisible, so the (wall-timed)
    // number of loop iterations cannot leak into the record.
    while (fut.wait_for(1ms) != std::future_status::ready) {
      clock.fetch_add(1000);
      ctrl.pump();
    }
    run.outcomes.push_back(classify(fut));
  }
  // Capture before shutdown: drain acks arrive on racy reader threads and
  // are deliberately outside the deterministic record.
  run.journal = ctrl.journal();
  run.journal_digest = ctrl.journal_digest();
  const cluster::ClusterStats stats = ctrl.stats();
  run.journal_lines = stats.journal_lines;
  run.kills = stats.kills_injected;
  run.deaths = stats.worker_deaths;
  run.failovers = stats.failovers;
  run.fulfilled = stats.fulfilled;
  run.failed = stats.failed;
  ctrl.shutdown();
  return run;
}

TEST(Cluster, InjectedKillScheduleReplaysByteIdentical) {
  const ReplayRun first = run_injected_kill_scenario(404);
  const ReplayRun second = run_injected_kill_scenario(404);

  // Byte-identical failure schedule, failover decisions and outcomes.
  ASSERT_EQ(first.journal.size(), second.journal.size());
  for (std::size_t i = 0; i < first.journal.size(); ++i) {
    EXPECT_EQ(first.journal[i], second.journal[i]) << "journal line " << i;
  }
  EXPECT_EQ(first.outcomes, second.outcomes);
  EXPECT_EQ(first.kills, second.kills);
  EXPECT_EQ(first.deaths, second.deaths);
  EXPECT_EQ(first.failovers, second.failovers);
  EXPECT_EQ(first.fulfilled, second.fulfilled);
  EXPECT_EQ(first.failed, second.failed);

  // The scenario actually murdered workers, and every admitted request
  // still resolved exactly once.
  EXPECT_GE(first.kills, 1u);
  EXPECT_EQ(first.fulfilled + first.failed, 30u);
  bool saw_kill_line = false;
  for (const std::string &line : first.journal) {
    if (line.find("kill shard=") != std::string::npos) saw_kill_line = true;
  }
  EXPECT_TRUE(saw_kill_line);

  // A different seed tells a genuinely different failure story.
  const ReplayRun other = run_injected_kill_scenario(405);
  EXPECT_NE(first.journal, other.journal);
}

TEST(Cluster, JournalDigestReplaysPerSeed) {
  const ReplayRun first = run_injected_kill_scenario(404);
  const ReplayRun second = run_injected_kill_scenario(404);
  const ReplayRun other = run_injected_kill_scenario(405);
  EXPECT_EQ(first.journal_digest, second.journal_digest);
  EXPECT_NE(first.journal_digest, other.journal_digest);
  EXPECT_NE(first.journal_digest, core::sha256(cluster::kJournalHeader));
}

TEST(Cluster, JournalDigestIsTheDurableLogHeadOfItsLines) {
  const ReplayRun run = run_injected_kill_scenario(404);
  // A short run keeps every line, so the tail is the whole journal.
  ASSERT_LT(run.journal_lines, cluster::kJournalTailLines);
  ASSERT_EQ(run.journal.size(), run.journal_lines);

  const std::string dir = make_temp_dir("journal_log");
  ckpt::DurableLog log(dir + "/journal.log",
                       std::string(cluster::kJournalHeader));
  for (const std::string &line : run.journal) ASSERT_TRUE(log.append(line));
  EXPECT_EQ(log.head(), run.journal_digest);
  const ckpt::DurableLog::Scan scan = log.scan();
  ASSERT_EQ(scan.records.size(), run.journal.size());
  EXPECT_EQ(scan.records.back().digest, run.journal_digest);
}

TEST(Cluster, LongRunJournalKeepsAFixedTailAndCountsEveryLine) {
  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 2;
  config.journal = true;
  cluster::ClusterController ctrl(config);

  // submit + dispatch + fulfill per request, after one spawn per shard:
  // well past the retained tail.
  constexpr std::size_t kRequests = cluster::kJournalTailLines / 3 + 100;
  constexpr std::size_t kWindow = 32;
  std::deque<std::future<cluster::ClusterResponse>> window;
  for (std::size_t i = 0; i < kRequests; ++i) {
    window.push_back(ctrl.submit(0, serve::Priority::Normal,
                                 cluster::encode_features(features_for(i))));
    if (window.size() >= kWindow) {
      (void)window.front().get();
      window.pop_front();
    }
  }
  for (auto &fut : window) (void)fut.get();
  // One more request alone, so the journal's final decision is known.
  const cluster::ClusterResponse last =
      ctrl.submit(0, serve::Priority::Normal,
                  cluster::encode_features(features_for(kRequests)))
          .get();

  const std::vector<std::string> journal = ctrl.journal();
  const cluster::ClusterStats stats = ctrl.stats();
  EXPECT_EQ(stats.journal_lines, config.workers + 3 * (kRequests + 1));
  ASSERT_EQ(journal.size(), cluster::kJournalTailLines);
  EXPECT_EQ(journal.back(), "fulfill seq=" + std::to_string(kRequests) +
                                " shard=" + std::to_string(last.shard) +
                                " attempts=1");
  EXPECT_EQ(journal[journal.size() - 2],
            "dispatch seq=" + std::to_string(kRequests) +
                " shard=" + std::to_string(last.shard) + " attempt=1");
  EXPECT_EQ(journal[journal.size() - 3],
            "submit seq=" + std::to_string(kRequests) + " tenant=0");
  ctrl.shutdown();
}

// ---- auto-restart off the monitor's critical path --------------------------

TEST(Cluster, AutoRestartFailsOverWithoutWaitingForTheReplacementsHello) {
  fault::FaultDecision kill;
  kill.kind = fault::FaultKind::WorkerKill;
  ScriptedInjector injector({kill});

  cluster::ClusterConfig config;
  config.worker_kind = "mlp_slow_hello";
  config.workers = 2;
  config.retry.max_attempts = 3;
  // Far longer than the monitor's wakeup after the kill, so the resend is
  // never due in the tick that respawns the victim's shard.
  config.retry.base_backoff = 10000us;
  config.retry.max_backoff = 10000us;
  config.auto_restart = true;
  config.injector = &injector;
  cluster::ClusterController ctrl(config);
  const std::size_t killed =
      cluster::HashRing(config.workers, config.vnodes, config.ring_seed)
          .chain(0)
          .front();

  // The first dispatch kills its target; the victim's resend must go to
  // the surviving shard while the replacement is still starting.
  auto fut = ctrl.submit(0, serve::Priority::Normal,
                         cluster::encode_features(features_for(0)));
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  const cluster::WorkerInfo replacement = ctrl.worker(killed);
  const cluster::ClusterResponse resp = fut.get();
  EXPECT_NE(resp.shard, killed);
  EXPECT_EQ(resp.attempts, 2u);
  EXPECT_FALSE(replacement.ready) << "the victim waited for the Hello";

  // The replacement still comes back, restarted exactly once.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!ctrl.worker(killed).ready &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(ctrl.worker(killed).ready);
  EXPECT_EQ(ctrl.worker(killed).restarts, 1u);
  ctrl.shutdown();
  const cluster::ClusterStats stats = ctrl.stats();
  EXPECT_EQ(stats.kills_injected, 1u);
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.fulfilled, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

// ---- stalls, drops, and the detection paths --------------------------------

TEST(Cluster, StalledWorkerIsDeclaredDeadAndLateReplyIsDeduped) {
  fault::FaultDecision stall;
  stall.kind = fault::FaultKind::WorkerStall;
  stall.stall = 300000us;  // far beyond the heartbeat timeout
  ScriptedInjector injector({stall});

  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 2;
  config.heartbeat_interval = 10000us;
  config.heartbeat_timeout = 60000us;
  config.retry.max_attempts = 3;
  config.retry.base_backoff = 200us;
  config.injector = &injector;
  cluster::ClusterController ctrl(config);

  auto fut = ctrl.submit(0, serve::Priority::Normal,
                         cluster::encode_features(features_for(0)));
  const cluster::ClusterResponse resp = fut.get();
  // The first dispatch froze its worker; fulfillment came from failover.
  EXPECT_GE(resp.attempts, 2u);

  {
    const cluster::ClusterStats stats = ctrl.stats();
    EXPECT_EQ(stats.stalls_injected, 1u);
    EXPECT_GE(stats.heartbeat_misses, 1u);
    EXPECT_GE(stats.worker_deaths, 1u);
    EXPECT_GE(stats.failovers, 1u);
    EXPECT_EQ(stats.fulfilled, 1u);
    EXPECT_EQ(stats.failed, 0u);
  }

  // At-least-once + dedup: when the stalled worker wakes it still answers
  // the request it was handed; the controller counts and drops the
  // duplicate instead of double-fulfilling.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (ctrl.stats().duplicate_responses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(ctrl.stats().duplicate_responses, 1u);
  ctrl.shutdown();
}

TEST(Cluster, DroppedLinkRecoversThroughRequestTimeout) {
  fault::FaultDecision drop;
  drop.kind = fault::FaultKind::LinkDrop;
  ScriptedInjector injector({drop});

  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 2;
  config.request_timeout = 25000us;
  config.retry.max_attempts = 3;
  config.retry.base_backoff = 200us;
  config.injector = &injector;
  cluster::ClusterController ctrl(config);

  auto fut = ctrl.submit(0, serve::Priority::Normal,
                         cluster::encode_features(features_for(0)));
  const cluster::ClusterResponse resp = fut.get();
  EXPECT_GE(resp.attempts, 2u);

  ctrl.shutdown();
  const cluster::ClusterStats stats = ctrl.stats();
  EXPECT_EQ(stats.link_drops_injected, 1u);
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_EQ(stats.fulfilled, 1u);
  EXPECT_EQ(stats.failed, 0u);
  // The dropped frame never reached the worker, so nobody answers twice
  // and the link's worker never died.
  EXPECT_EQ(stats.worker_deaths, 0u);
}

// ---- admission control -----------------------------------------------------

TEST(Cluster, AdmissionShedsFairSharePerTenantAndRejectsAtTheHardBound) {
  // Every dispatched frame vanishes and nothing times out, so admitted
  // requests pin the in-flight gauge exactly where each submit left it —
  // the admission ladder becomes fully deterministic.
  fault::FaultDecision drop;
  drop.kind = fault::FaultKind::LinkDrop;
  ScriptedInjector injector({}, drop);

  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 1;
  config.max_inflight = 8;
  config.shed_watermark = 0.5;  // shed mark = 4
  config.request_timeout = 0us;
  config.drain_timeout = 100000us;  // fast failsafe at shutdown
  config.injector = &injector;
  cluster::ClusterController ctrl(config);

  const auto submit = [&](std::uint32_t tenant, serve::Priority priority) {
    return ctrl.submit(tenant, priority,
                       cluster::encode_features(features_for(0)));
  };

  std::vector<std::future<cluster::ClusterResponse>> held;
  // Tenant 1 fills the watermark alone: 4 admitted, the 5th shed (it holds
  // the whole fair share).
  for (int i = 0; i < 4; ++i) held.push_back(submit(1, serve::Priority::Normal));
  auto t1_over = submit(1, serve::Priority::Normal);
  EXPECT_EQ(classify(t1_over), Outcome::Shed);

  // Tenant 2 still gets in — fair share splits across active tenants —
  // until it reaches its own share.
  held.push_back(submit(2, serve::Priority::Normal));
  held.push_back(submit(2, serve::Priority::Normal));
  auto t2_over = submit(2, serve::Priority::Normal);
  EXPECT_EQ(classify(t2_over), Outcome::Shed);

  // High priority is never shed, only stopped by the hard bound.
  held.push_back(submit(1, serve::Priority::High));
  held.push_back(submit(2, serve::Priority::High));
  auto over_hard_bound = submit(1, serve::Priority::High);
  EXPECT_EQ(classify(over_hard_bound), Outcome::Rejected);

  EXPECT_EQ(ctrl.stats().inflight, 8u);

  // Shutdown's failsafe resolves the stuck 8 deterministically.
  ctrl.shutdown();
  for (auto &fut : held) EXPECT_EQ(classify(fut), Outcome::Failed);

  const cluster::ClusterStats stats = ctrl.stats();
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.admitted, 8u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.fulfilled, 0u);
  EXPECT_EQ(stats.failed, 8u);
  // The invariant pair, exactly.
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected + stats.shed);
  EXPECT_EQ(stats.admitted, stats.fulfilled + stats.failed);
  EXPECT_EQ(stats.tenants.at(1).shed, 1u);
  EXPECT_EQ(stats.tenants.at(2).shed, 1u);
  EXPECT_EQ(stats.tenants.at(1).rejected, 1u);
}

// ---- drain / restart / hot reload ------------------------------------------

TEST(Cluster, DrainRestartAndHotReloadRoundTrip) {
  const std::string dir = make_temp_dir("reload");
  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 2;
  config.worker_args = {"--mlp-seed", std::to_string(kModelSeed)};
  cluster::ClusterController ctrl(config);

  const std::string original_hash = fresh_model(kModelSeed)->weight_hash();

  // Graceful retirement: worker 1 finishes, acks, exits.
  EXPECT_TRUE(ctrl.drain_worker(1));
  {
    const cluster::WorkerInfo info = ctrl.worker(1);
    EXPECT_TRUE(info.drained);
    EXPECT_FALSE(info.live);
  }
  // The fleet still serves with one shard down.
  auto fut = ctrl.submit(0, serve::Priority::Normal,
                         cluster::encode_features(features_for(0)));
  EXPECT_NO_THROW((void)fut.get());

  // Restart brings a fresh incarnation back on the original weights.
  EXPECT_TRUE(ctrl.restart_worker(1));
  {
    const cluster::WorkerInfo info = ctrl.worker(1);
    EXPECT_TRUE(info.live);
    EXPECT_TRUE(info.ready);
    EXPECT_EQ(info.restarts, 1u);
    EXPECT_EQ(info.weight_hash, original_hash);
  }

  // Hot reload from a checkpoint: new weights, digest-validated.
  const std::unique_ptr<nn::MlpClassifier> next = fresh_model(99);
  const std::vector<nn::Param *> params = next->params();
  const ckpt::TrainingCheckpoint snapshot =
      ckpt::TrainingCheckpoint::capture(params, nullptr, nullptr, 1);
  const std::string digest = snapshot.weight_digest().hex();
  ASSERT_NE(digest, original_hash);
  const std::string path = dir + "/weights.ckpt";
  ASSERT_TRUE(ckpt::save_checkpoint_file(path, snapshot).committed);

  const cluster::ReloadOutcome good = ctrl.reload_worker(0, path, digest);
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.weight_hash, digest);
  EXPECT_EQ(ctrl.worker(0).weight_hash, digest);
  // Only the reloaded shard moved; provenance stays per-worker.
  EXPECT_EQ(ctrl.worker(1).weight_hash, original_hash);

  // A wrong digest rolls back and keeps the worker on its old weights.
  const cluster::ReloadOutcome bad =
      ctrl.reload_worker(1, path, "not-the-digest");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(ctrl.worker(1).weight_hash, original_hash);

  // A missing file fails cleanly too.
  const cluster::ReloadOutcome missing =
      ctrl.reload_worker(1, dir + "/nope.ckpt", digest);
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.error.empty());

  // The fleet still serves after all of it.
  auto after = ctrl.submit(0, serve::Priority::Normal,
                           cluster::encode_features(features_for(1)));
  EXPECT_NO_THROW((void)after.get());
  ctrl.shutdown();
}

// ---- worker-side observability ---------------------------------------------

TEST(Cluster, WorkerObsWritesPerWorkerLogAndFlightDump) {
  const std::string dir = make_temp_dir("obs");
  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 1;
  config.log_dir = dir;
  config.worker_obs = true;
  config.trace_seed = 31337;
  cluster::ClusterController ctrl(config);

  for (std::uint64_t i = 0; i < 3; ++i) {
    auto fut = ctrl.submit(5, serve::Priority::Normal,
                           cluster::encode_features(features_for(i)));
    const cluster::ClusterResponse resp = fut.get();
    EXPECT_EQ(resp.trace, obs::derive_trace_id(config.trace_seed, i));
  }
  // Graceful shutdown drains the worker, which dumps its flight recorder
  // on the way out.
  ctrl.shutdown();

  const std::string dump_path = dir + "/worker-0.flight.json";
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << dump_path << " missing";
  std::stringstream contents;
  contents << dump.rdbuf();
  const std::string body = contents.str();
#if TREU_OBS_ENABLED
  // The worker recorded its half of the causal story: request receipt and
  // replies, stamped with the controller-derived trace ids.
  EXPECT_NE(body.find("cluster_worker_recv"), std::string::npos);
  EXPECT_NE(body.find("cluster_worker_reply"), std::string::npos);
#endif
  struct ::stat st = {};
  EXPECT_EQ(::stat((dir + "/worker-0.log").c_str(), &st), 0);
}

// ---- the soak tier ---------------------------------------------------------

std::uint64_t soak_seed() {
  if (const char *env = std::getenv("TREU_SOAK_SEED")) {
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<std::uint64_t>(v);
  }
  return 1234;
}

TEST(ClusterSoak, WorkerMurderStormKeepsExactZeroLossAccounting) {
  const std::uint64_t seed = soak_seed();
  SCOPED_TRACE("TREU_SOAK_SEED=" + std::to_string(seed));

  fault::FaultPlanConfig plan_config;
  plan_config.worker_kill_rate = 0.04;
  plan_config.worker_stall_rate = 0.02;
  plan_config.link_drop_rate = 0.06;
  plan_config.worker_stall_min = 20000us;
  plan_config.worker_stall_max = 80000us;
  fault::FaultPlan plan(plan_config, seed);

  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = 3;
  config.worker_args = {"--mlp-seed", std::to_string(kModelSeed)};
  config.heartbeat_interval = 5000us;
  config.heartbeat_timeout = 40000us;
  config.request_timeout = 60000us;
  config.retry.max_attempts = 5;
  config.retry.base_backoff = 500us;
  config.retry.max_backoff = 5000us;
  config.auto_restart = true;
  config.max_restarts = 8;
  config.max_inflight = 64;
  config.shed_watermark = 0.75;
  config.injector = &plan;
  config.trace_seed = seed;
  // Preserve per-worker logs and flight dumps where the soak harness
  // collects artifacts (run_soak.sh points TREU_FLIGHT_DUMP_DIR at its
  // scratch dir and ships it on failure).
  if (const char *dump_dir = std::getenv("TREU_FLIGHT_DUMP_DIR")) {
    config.log_dir = dump_dir;
    config.worker_obs = true;
  }
  cluster::ClusterController ctrl(config);

  constexpr std::size_t kRequests = 300;
  constexpr std::size_t kWindow = 16;
  core::Rng rng(seed, /*stream=*/77);
  std::map<Outcome, std::uint64_t> tally;
  std::deque<std::future<cluster::ClusterResponse>> window;
  const auto settle = [&](std::future<cluster::ClusterResponse> fut) {
    ++tally[classify(fut)];
  };
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto tenant = static_cast<std::uint32_t>(rng.uniform_index(3));
    const auto priority =
        static_cast<serve::Priority>(rng.uniform_index(3));
    window.push_back(ctrl.submit(
        tenant, priority,
        cluster::encode_features(features_for(static_cast<std::uint64_t>(i)))));
    while (window.size() >= kWindow) {
      settle(std::move(window.front()));
      window.pop_front();
    }
  }
  while (!window.empty()) {
    settle(std::move(window.front()));
    window.pop_front();
  }
  ctrl.shutdown();

  const cluster::ClusterStats stats = ctrl.stats();
  // Zero accepted-request loss, exactly: every admitted request resolved
  // as fulfilled or failed — nothing vanished in a worker murder.
  EXPECT_EQ(stats.admitted, stats.fulfilled + stats.failed);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.rejected + stats.shed);
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.inflight, 0u);

  // The futures tell the same story as the counters.
  EXPECT_EQ(tally[Outcome::Fulfilled], stats.fulfilled);
  EXPECT_EQ(tally[Outcome::Failed], stats.failed);
  EXPECT_EQ(tally[Outcome::Rejected], stats.rejected);
  EXPECT_EQ(tally[Outcome::Shed], stats.shed);

  // Per-tenant accounting folds up to the totals.
  std::uint64_t t_submitted = 0, t_fulfilled = 0, t_failed = 0,
                t_rejected = 0, t_shed = 0;
  for (const auto &kv : stats.tenants) {
    t_submitted += kv.second.submitted;
    t_fulfilled += kv.second.fulfilled;
    t_failed += kv.second.failed;
    t_rejected += kv.second.rejected;
    t_shed += kv.second.shed;
  }
  EXPECT_EQ(t_submitted, stats.submitted);
  EXPECT_EQ(t_fulfilled, stats.fulfilled);
  EXPECT_EQ(t_failed, stats.failed);
  EXPECT_EQ(t_rejected, stats.rejected);
  EXPECT_EQ(t_shed, stats.shed);

  // Sanity: the storm actually happened, and the fleet actually served.
  EXPECT_GT(stats.kills_injected + stats.stalls_injected +
                stats.link_drops_injected,
            0u);
  EXPECT_GT(stats.fulfilled, kRequests / 2);
}

}  // namespace
}  // namespace treu

// The binary doubles as its own worker fleet: a --treu-cluster-worker argv
// must run the wire loop (never gtest), so registration and the worker
// dispatch happen before InitGoogleTest.
int main(int argc, char **argv) {
  treu::cluster::register_worker("mlp", treu::make_mlp_worker);
  treu::cluster::register_worker("mlp_slow_hello",
                                 treu::make_slow_hello_worker);
  const int worker_rc = treu::cluster::maybe_run_worker(argc, argv);
  if (worker_rc >= 0) return worker_rc;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
