#pragma once

// ClusterController — the controller half of treu::cluster.
//
// Owns a fleet of worker processes (spawned via worker.hpp's fork+exec
// path), routes submitted requests to shards over the wire protocol, and
// keeps one invariant above all others: EVERY admitted request resolves
// exactly once — fulfilled with a worker's response, or failed with a
// specific cluster error. Workers being SIGKILLed mid-load must not break
// that accounting; that is the zero-loss contract the soak tier asserts.
//
// How the pieces compose:
//  - Routing: a consistent-hash ring (ring.hpp) built from (workers,
//    vnodes, ring_seed). A request's preference chain over shards is a pure
//    function of its sequence number, so failover targets are deterministic:
//    when a worker dies, its in-flight requests move to the next live shard
//    in their chain.
//  - Failure detection: per-worker reader threads notice EOF and poisoned
//    streams immediately; a monitor thread sends heartbeats and declares a
//    worker dead after `heartbeat_timeout` of silence (frozen workers answer
//    no acks). The monitor's clock is injectable, so tests drive detection
//    in virtual time.
//  - Recovery: declared-dead workers' in-flight entries are re-dispatched
//    with bounded attempts and the exact deterministic backoff the serving
//    layer already uses (serve::backoff_delay). Delivery is at-least-once
//    with controller-side dedup — a late response from a worker that was
//    wrongly declared dead is counted (duplicate_responses) and dropped,
//    never double-fulfilled.
//  - Admission: a hard in-flight bound (reject) plus per-tenant fair-share
//    shedding above a watermark, so one hot tenant cannot starve the rest
//    during a failover storm. High-priority work is only ever refused by
//    the hard bound.
//  - Fault injection: an optional fault::Injector is consulted once per
//    dispatch. WorkerKill SIGKILLs the target and fails over synchronously
//    (deterministic), WorkerStall freezes the target's event loop (failure
//    detection path), LinkDrop discards the frame (request_timeout path).
//    In-process kinds (Throw/Stall/...) are ignored here — they belong to
//    the worker's own BatchServer injector.
//  - Replay: with `journal` on, every deterministic decision (submit,
//    dispatch, injected kill, death, failover, fulfillment) is one line;
//    two runs of the same seeded closed-loop workload produce byte-identical
//    journals. Each line is folded into a running chain digest (the
//    ckpt::DurableLog rule under kJournalHeader), and only the newest
//    kJournalTailLines lines are kept, so the journal's memory is constant
//    however long the controller lives. Heartbeat traffic is deliberately
//    not journaled — its timing is wall-clock.
//
// The single-process serving path does not route through any of this:
// failover, timeouts and shedding default off, and a BatchServer used
// directly never touches the cluster layer, so pre-cluster behavior stays
// bit-exact.

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "treu/cluster/wire.hpp"
#include "treu/core/sha256.hpp"
#include "treu/fault/injector.hpp"
#include "treu/obs/causal.hpp"
#include "treu/serve/resilience.hpp"

namespace treu::cluster {

/// Decision-journal lines a controller retains (its newest ones).
inline constexpr std::size_t kJournalTailLines = 4096;
/// The journal chain's header: its SHA-256 is the digest before any line,
/// as for a ckpt::DurableLog opened with this header.
inline constexpr std::string_view kJournalHeader = "treu.cluster.journal v1";

struct ClusterConfig {
  /// register_worker() kind every shard runs. Required.
  std::string worker_kind;
  /// Worker process count (= shard count). Required >= 1.
  std::size_t workers = 2;
  /// Extra argv passed verbatim to every worker (the factory's extra_args).
  std::vector<std::string> worker_args;
  /// Directory for per-worker logs / flight dumps; empty = none.
  std::string log_dir;
  /// Enable the flight recorder inside workers (dumped to log_dir on exit).
  bool worker_obs = false;

  /// Consistent-hash ring shape. Routing is a pure function of these.
  std::size_t vnodes = 64;
  std::uint64_t ring_seed = 0;

  /// Admission: hard bound on cluster-wide in-flight requests.
  std::size_t max_inflight = 1024;
  /// Fair-share shedding watermark as a fraction of max_inflight in
  /// (0, 1]. Above it, Normal/Low requests from tenants holding more than
  /// their fair share of the watermark are shed. 1.0 (default) disables.
  double shed_watermark = 1.0;

  /// Heartbeat cadence; 0 disables heartbeats (death via EOF only).
  std::chrono::microseconds heartbeat_interval{20000};
  /// Silence after which a ready worker is declared dead; 0 disables.
  std::chrono::microseconds heartbeat_timeout{200000};
  /// Per-dispatch response deadline; expiry re-dispatches (at-least-once).
  /// 0 (default) disables — required > 0 for LinkDrop recovery.
  std::chrono::microseconds request_timeout{0};
  /// How long a spawned worker may take to report Hello.
  std::chrono::microseconds hello_timeout{5000000};
  /// Failsafe bound on shutdown's drain and on drain/reload waits.
  std::chrono::microseconds drain_timeout{5000000};

  /// Cross-worker failover budget: a request is dispatched at most
  /// max_attempts times, with backoff_delay(retry, attempt-1, seq) between
  /// dispatches. max_attempts 1 (default) = no failover.
  serve::RetryPolicy retry;

  /// Respawn declared-dead workers (up to max_restarts each) from the
  /// monitor, without waiting for their Hello.
  bool auto_restart = false;
  std::size_t max_restarts = 4;

  /// Consulted once per dispatch for WorkerKill/WorkerStall/LinkDrop.
  /// Not owned; must outlive the controller. Other kinds are ignored.
  fault::Injector *injector = nullptr;

  /// Microsecond clock for heartbeat/timeout/backoff decisions. Empty =
  /// steady_clock; tests inject a counter and drive pump() themselves.
  std::function<std::int64_t()> clock;

  /// Deterministic trace ids: request seq k gets derive_trace_id(
  /// trace_seed, k), carried to the worker in the frame header.
  std::uint64_t trace_seed = 0;
  /// Decode bound applied to worker->controller frames.
  std::size_t max_payload = kDefaultMaxPayload;
  /// Record the deterministic decision journal (see journal()).
  bool journal = false;
};

/// Admission refused outright: cluster shut down or max_inflight reached.
class ClusterRejectedError final : public std::runtime_error {
 public:
  explicit ClusterRejectedError(const std::string &what)
      : std::runtime_error(what) {}
};

/// Shed by per-tenant fair-share policy above the watermark.
class ClusterShedError final : public std::runtime_error {
 public:
  explicit ClusterShedError(const std::string &what)
      : std::runtime_error(what) {}
};

/// An admitted request that could not be fulfilled: failover attempts
/// exhausted, no live workers, worker-side failure, or shutdown failsafe.
class ClusterFailedError final : public std::runtime_error {
 public:
  explicit ClusterFailedError(const std::string &what)
      : std::runtime_error(what) {}
};

struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t fulfilled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
};

/// Exact counters, mutex-guarded and independent of TREU_OBS_ENABLED.
/// The zero-loss invariant in these terms:
///   admitted == fulfilled + failed     (once quiescent / after shutdown)
///   submitted == admitted + rejected + shed
struct ClusterStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t fulfilled = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;    // dispatches beyond each request's first
  std::uint64_t failovers = 0;  // re-dispatches scheduled by worker death
  std::uint64_t timeouts = 0;   // request_timeout expiries
  std::uint64_t worker_deaths = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t duplicate_responses = 0;  // at-least-once dedup drops
  std::uint64_t kills_injected = 0;
  std::uint64_t stalls_injected = 0;
  std::uint64_t link_drops_injected = 0;
  std::uint64_t frames_torn = 0;
  std::uint64_t frames_corrupt = 0;
  std::uint64_t journal_lines = 0;  // every line journaled, retained or not
  std::size_t inflight = 0;
  std::map<std::uint32_t, TenantStats> tenants;
};

/// One fulfilled request.
struct ClusterResponse {
  std::vector<std::uint8_t> payload;
  std::size_t shard = 0;     // shard whose response won
  std::size_t attempts = 1;  // dispatches it took
  obs::TraceId trace;
};

/// Snapshot of one worker slot.
struct WorkerInfo {
  int pid = -1;
  bool live = false;
  bool ready = false;     // Hello received
  bool draining = false;
  bool drained = false;
  std::size_t restarts = 0;
  std::string weight_hash;
};

struct ReloadOutcome {
  bool ok = false;
  std::string error;
  std::string weight_hash;  // worker's hash after the attempt
};

class ClusterController {
 public:
  /// Spawns the fleet and blocks until every worker reports Hello (or
  /// throws after hello_timeout, tearing the fleet down).
  explicit ClusterController(const ClusterConfig &config);
  ClusterController(const ClusterController &) = delete;
  ClusterController &operator=(const ClusterController &) = delete;
  ~ClusterController();

  /// Route one request. The future resolves to a ClusterResponse or to
  /// ClusterRejectedError / ClusterShedError / ClusterFailedError —
  /// exactly one of the four, always.
  [[nodiscard]] std::future<ClusterResponse> submit(
      std::uint32_t tenant, serve::Priority priority,
      std::vector<std::uint8_t> payload);

  /// Stop admitting, resolve every in-flight request (recovery machinery
  /// keeps running; after drain_timeout stragglers fail with
  /// ClusterFailedError), drain and reap every worker. Idempotent; the
  /// destructor calls it.
  void shutdown();

  /// Gracefully retire one worker: stop routing to it, wait for its
  /// in-flight work, exchange Drain/DrainAck, let it exit. False if the
  /// ack never came inside drain_timeout.
  bool drain_worker(std::size_t shard);

  /// Spawn a replacement for a dead (or drained) shard. Any still-running
  /// previous incarnation is fenced with SIGKILL first. Blocks until the
  /// replacement's Hello (false on timeout). Auto-restart spawns the same
  /// way but never waits: the monitor keeps failing over and timing out
  /// while the replacement starts.
  bool restart_worker(std::size_t shard);

  /// Hot-reload one worker's weights from a checkpoint file (blocking;
  /// bounded by drain_timeout). The worker keeps serving throughout.
  ReloadOutcome reload_worker(std::size_t shard, const std::string &path,
                              const std::string &digest);

  /// Murder hook for tests/soaks: SIGKILL the shard's process. Detection
  /// and failover run through the normal machinery (EOF / heartbeats).
  void kill_worker(std::size_t shard);

  /// Run one monitor pass synchronously (virtual-clock tests drive
  /// heartbeats, timeouts, resends and auto-restarts through this).
  void pump();

  [[nodiscard]] ClusterStats stats() const;
  [[nodiscard]] WorkerInfo worker(std::size_t shard) const;
  /// The retained tail of the deterministic decision journal, oldest
  /// first: its last kJournalTailLines lines, which is the whole journal
  /// for shorter runs. Empty unless config.journal.
  [[nodiscard]] std::vector<std::string> journal() const;
  /// Chain head over every journaled line, retained or not:
  /// d_0 = SHA-256(kJournalHeader), d_i = chain_next(d_{i-1},
  /// SHA-256(line_i)); equal to the head() of a ckpt::DurableLog with
  /// that header fed the same lines. d_0 unless config.journal.
  [[nodiscard]] core::Digest journal_digest() const;
  [[nodiscard]] const ClusterConfig &config() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace treu::cluster
