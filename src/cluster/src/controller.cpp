#include "treu/cluster/controller.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <concepts>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "treu/cluster/ring.hpp"
#include "treu/cluster/worker.hpp"
#include "treu/obs/obs.hpp"

namespace treu::cluster {

namespace {

constexpr std::size_t kNone = kNoWorker;

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Write one whole frame under the worker's write mutex. Returns false on
/// any socket error (the caller treats that as a dead worker).
bool send_all(int fd, std::mutex &mu, const std::vector<std::uint8_t> &bytes) {
  std::lock_guard lock(mu);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Journal line parts, formatted in place into a reused ring slot.
void append_part(std::string &out, std::string_view text) { out.append(text); }

template <std::integral T>
void append_part(std::string &out, T value) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, r.ptr);
}

}  // namespace

struct ClusterController::Impl {
  struct WorkerSlot {
    int pid = -1;
    int fd = -1;
    std::uint64_t gen = 0;  // incarnation; readers/senders verify it
    bool live = false;      // spawned, not declared dead / drained
    bool ready = false;     // Hello received
    bool draining = false;
    bool drained = false;
    bool reaped = false;
    std::size_t restarts = 0;
    std::string weight_hash;
    std::int64_t spawn_us = 0;
    std::int64_t last_ack_us = 0;
    std::int64_t last_hb_us = 0;
    std::uint64_t drain_served = 0;
    std::unique_ptr<std::mutex> write_mu = std::make_unique<std::mutex>();
    std::thread reader;
  };

  struct Entry {
    std::promise<ClusterResponse> promise;
    std::uint32_t tenant = 0;
    serve::Priority priority = serve::Priority::Normal;
    std::vector<std::uint8_t> payload;
    std::vector<std::size_t> chain;  // deterministic shard preference
    std::size_t shard = kNone;       // current dispatch target
    std::size_t attempts = 0;        // dispatches so far
    std::int64_t resend_at_us = -1;  // >= 0: re-dispatch when clock passes
    std::int64_t deadline_us = -1;   // request_timeout for current dispatch
    obs::TraceId trace;
  };

  explicit Impl(const ClusterConfig &cfg)
      : config(cfg),
        ring(std::max<std::size_t>(1, cfg.workers), cfg.vnodes,
             cfg.ring_seed) {
    if (config.worker_kind.empty()) {
      throw std::invalid_argument("cluster: worker_kind is empty");
    }
    if (config.workers == 0) {
      throw std::invalid_argument("cluster: zero workers");
    }
    if (config.max_inflight == 0) {
      throw std::invalid_argument("cluster: zero max_inflight");
    }
    if (config.shed_watermark <= 0.0 || config.shed_watermark > 1.0) {
      throw std::invalid_argument("cluster: shed_watermark outside (0,1]");
    }
    if (config.retry.max_attempts == 0) {
      throw std::invalid_argument("cluster: retry.max_attempts must be >= 1");
    }
    shed_mark = static_cast<std::size_t>(
        config.shed_watermark * static_cast<double>(config.max_inflight));
    if (config.journal) journal_tail.resize(kJournalTailLines);

    workers.reserve(config.workers);
    for (std::size_t s = 0; s < config.workers; ++s) {
      workers.push_back(std::make_unique<WorkerSlot>());
    }
    {
      std::unique_lock lock(mu);
      for (std::size_t s = 0; s < config.workers; ++s) spawn(lock, s);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config.hello_timeout.count());
      const bool all_ready = cv.wait_until(lock, deadline, [&] {
        for (const auto &w : workers) {
          if (!(w->ready && w->live)) return false;
        }
        return true;
      });
      if (!all_ready) {
        lock.unlock();
        force_teardown();
        throw std::runtime_error("cluster: worker hello timeout");
      }
    }
    monitor = std::thread([this] { monitor_loop(); });
  }

  // ---- time & journal ------------------------------------------------------

  [[nodiscard]] std::int64_t now_us() const {
    return config.clock ? config.clock() : wall_now_us();
  }

  /// Deterministic decisions only; callers hold mu. The line is formatted
  /// into the oldest ring slot (its capacity reused, so steady state
  /// allocates nothing) and folded into the chain digest.
  template <typename... Parts>
  void jot(const Parts &...parts) {
    if (!config.journal) return;
    std::string &line = journal_tail[stats.journal_lines % kJournalTailLines];
    line.clear();
    (append_part(line, parts), ...);
    journal_head = core::chain_next(journal_head, core::sha256(line));
    ++stats.journal_lines;
  }

  // ---- spawn / restart -----------------------------------------------------

  /// Spawn (or respawn) the shard's process into its slot. Caller holds mu.
  void spawn(std::unique_lock<std::mutex> &lock, std::size_t shard) {
    WorkerSlot &w = *workers[shard];
    SpawnedWorker sw = spawn_worker(config.worker_kind, shard, config.log_dir,
                                    config.worker_obs, config.worker_args);
    w.pid = sw.pid;
    w.fd = sw.fd;
    ++w.gen;
    w.live = true;
    w.ready = false;
    w.draining = false;
    w.drained = false;
    w.reaped = false;
    w.weight_hash.clear();
    w.spawn_us = now_us();
    w.last_ack_us = w.spawn_us;
    w.last_hb_us = w.spawn_us;
    jot("spawn shard=", shard);
    TREU_OBS_FR_EVENT(ClusterSpawn, 0, shard,
                      static_cast<std::uint64_t>(sw.pid));
    const std::uint64_t gen = w.gen;
    const int fd = w.fd;
    w.reader = std::thread([this, shard, fd, gen] {
      reader_loop(shard, fd, gen);
    });
    (void)lock;
  }

  /// Fence and replace a shard's incarnation without waiting for its
  /// Hello: the replacement is live but unready until it arrives, which
  /// recovery_possible() defers dispatch for and tick() bounds by
  /// hello_timeout. Caller holds mu; unlocks to join the old reader and
  /// reap. False when shutdown won the race and nothing was spawned.
  bool respawn(std::unique_lock<std::mutex> &lock, std::size_t shard) {
    WorkerSlot &w = *workers[shard];
    if (w.pid > 0 && !w.reaped) ::kill(w.pid, SIGKILL);
    if (w.fd >= 0) ::shutdown(w.fd, SHUT_RDWR);
    std::thread old_reader = std::move(w.reader);
    const int old_pid = w.pid;
    const int old_fd = w.fd;
    const std::uint64_t old_gen = w.gen;
    const bool need_reap = old_pid > 0 && !w.reaped;
    w.reaped = true;  // we reap below, outside the lock
    w.fd = -1;
    lock.unlock();
    if (old_reader.joinable()) old_reader.join();
    if (need_reap) {
      int status = 0;
      ::waitpid(old_pid, &status, 0);
    }
    lock.lock();
    if (old_fd >= 0 && shut) ::close(old_fd);  // teardown already ran
    if (old_fd >= 0 && !shut) dead_fds.push_back(old_fd);  // closed at teardown
    if (stopping || shut) return false;  // shutdown won: don't respawn
    if (w.gen != old_gen) return true;   // a concurrent caller respawned it
    ++w.restarts;
    ++stats.worker_restarts;
    TREU_OBS_COUNTER_ADD("cluster.worker_restarts", 1);
    jot("restart shard=", shard, " n=", w.restarts);
    TREU_OBS_FR_EVENT(ClusterRestart, 0, shard, w.restarts);
    spawn(lock, shard);
    return true;
  }

  /// respawn(), then block until the replacement's Hello (restart_worker's
  /// contract). False when it misses hello_timeout or shutdown won.
  bool restart(std::unique_lock<std::mutex> &lock, std::size_t shard) {
    if (workers[shard]->live && workers[shard]->ready) return true;
    if (!respawn(lock, shard)) return false;
    const std::uint64_t gen = workers[shard]->gen;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(config.hello_timeout.count());
    return cv.wait_until(lock, deadline, [&] {
      const WorkerSlot &s = *workers[shard];
      return s.gen == gen && s.ready && s.live;
    });
  }

  // ---- death & failover ----------------------------------------------------

  /// Declare a worker dead and schedule failover for everything in flight
  /// on it. Caller holds mu; never unlocks. Idempotent per incarnation.
  void declare_dead(std::size_t shard, const char *reason) {
    WorkerSlot &w = *workers[shard];
    if (!w.live) return;
    w.live = false;
    w.ready = false;
    ++stats.worker_deaths;
    TREU_OBS_COUNTER_ADD("cluster.worker_deaths", 1);
    jot("dead shard=", shard, " reason=", reason);
    TREU_OBS_FR_EVENT(ClusterWorkerDead, 0, shard, stats.worker_deaths);

    const std::int64_t now = now_us();
    std::vector<std::uint64_t> victims;
    for (const auto &kv : inflight) {
      if (kv.second.shard == shard) victims.push_back(kv.first);
    }
    std::sort(victims.begin(), victims.end());
    for (const std::uint64_t seq : victims) schedule_failover(seq, now);
    TREU_OBS_FR_EVENT(ClusterFailover, 0, shard, victims.size());
    cv.notify_all();
    monitor_cv.notify_all();
  }

  /// Re-dispatch (after deterministic backoff) or fail one in-flight
  /// entry whose current dispatch is lost. Caller holds mu.
  void schedule_failover(std::uint64_t seq, std::int64_t now) {
    const auto it = inflight.find(seq);
    if (it == inflight.end()) return;
    Entry &e = it->second;
    if (e.attempts >= config.retry.max_attempts) {
      fail_entry(it, "cluster: dispatch attempts exhausted");
      return;
    }
    ++stats.failovers;
    TREU_OBS_COUNTER_ADD("cluster.failover_total", 1);
    const auto delay =
        serve::backoff_delay(config.retry, e.attempts - 1, seq);
    e.shard = kNone;
    e.resend_at_us = now + delay.count();
    e.deadline_us = -1;
    jot("failover seq=", seq, " next_attempt=", e.attempts + 1);
    TREU_OBS_FR_EVENT(ClusterRetry, e.trace.lo, kNone, e.attempts + 1);
  }

  using EntryMap = std::unordered_map<std::uint64_t, Entry>;

  /// Resolve an entry as failed and erase it. Caller holds mu.
  void fail_entry(EntryMap::iterator it, const std::string &why) {
    Entry &e = it->second;
    ++stats.failed;
    ++stats.tenants[e.tenant].failed;
    tenant_inflight[e.tenant]--;
    TREU_OBS_COUNTER_ADD("cluster.failed_total", 1);
    TREU_OBS_GAUGE_ADD("cluster.inflight", -1);
    jot("fail seq=", it->first, " why=", why);
    TREU_OBS_FR_EVENT(ClusterRequestFail, e.trace.lo, e.shard, e.attempts);
    e.promise.set_exception(std::make_exception_ptr(ClusterFailedError(why)));
    inflight.erase(it);
    cv.notify_all();
  }

  // ---- dispatch ------------------------------------------------------------

  [[nodiscard]] bool routable(std::size_t shard) const {
    const WorkerSlot &w = *workers[shard];
    return w.live && w.ready && !w.draining;
  }

  /// A dead/unready shard that could come back (pending Hello, or an
  /// auto-restart with budget left) — reason to defer rather than fail.
  [[nodiscard]] bool recovery_possible() const {
    for (const auto &w : workers) {
      if (w->live && !w->ready) return true;
      if (!w->live && !w->drained && config.auto_restart &&
          w->restarts < config.max_restarts) {
        return true;
      }
    }
    return false;
  }

  /// Dispatch (or re-dispatch) one entry to the first routable shard in
  /// its chain. Caller holds `lock` on mu; the socket write happens with
  /// mu released, so entry state must be re-derived afterwards.
  void dispatch(std::unique_lock<std::mutex> &lock, std::uint64_t seq) {
    auto it = inflight.find(seq);
    if (it == inflight.end()) return;  // resolved while we weren't looking
    Entry &e = it->second;

    std::size_t target = kNone;
    for (const std::size_t s : e.chain) {
      if (routable(s)) {
        target = s;
        break;
      }
    }
    if (target == kNone) {
      if (recovery_possible()) {
        // Don't burn an attempt on an empty fleet mid-restart; check back.
        e.resend_at_us = now_us() + 2000;
        return;
      }
      fail_entry(it, "cluster: no live workers");
      return;
    }

    ++e.attempts;
    e.shard = target;
    e.resend_at_us = -1;
    e.deadline_us = config.request_timeout.count() > 0
                        ? now_us() + config.request_timeout.count()
                        : -1;
    if (e.attempts > 1) {
      ++stats.retries;
      TREU_OBS_COUNTER_ADD("cluster.retry_total", 1);
    }
    jot("dispatch seq=", seq, " shard=", target, " attempt=", e.attempts);
    TREU_OBS_FR_EVENT(ClusterDispatch, e.trace.lo, target, e.attempts);

    if (config.injector != nullptr) {
      const fault::FaultDecision d = config.injector->decide(target, 1);
      ++fault_events;
      if (d.kind == fault::FaultKind::WorkerKill) {
        ++stats.kills_injected;
        TREU_OBS_COUNTER_ADD("cluster.kills_injected", 1);
        jot("kill shard=", target, " injected");
        TREU_OBS_FR_EVENT(ClusterKillInjected, e.trace.lo, target,
                          fault_events);
        WorkerSlot &w = *workers[target];
        if (w.pid > 0 && !w.reaped) ::kill(w.pid, SIGKILL);
        // Synchronous failover keeps the schedule a pure function of the
        // plan: this very entry (shard == target, no resend pending) is
        // rescheduled by declare_dead, not by a racy EOF.
        declare_dead(target, "killed");
        return;
      }
      if (d.kind == fault::FaultKind::LinkDrop) {
        ++stats.link_drops_injected;
        TREU_OBS_COUNTER_ADD("cluster.link_drops_injected", 1);
        jot("drop seq=", seq, " shard=", target, " injected");
        TREU_OBS_FR_EVENT(ClusterLinkDrop, e.trace.lo, target, fault_events);
        // The frame vanishes on the wire: never written. request_timeout
        // (or this worker later dying) recovers the entry.
        return;
      }
      if (d.kind == fault::FaultKind::WorkerStall) {
        ++stats.stalls_injected;
        TREU_OBS_COUNTER_ADD("cluster.stalls_injected", 1);
        const auto us = static_cast<std::uint64_t>(d.stall.count());
        jot("stall shard=", target, " us=", us, " injected");
        TREU_OBS_FR_EVENT(ClusterStallInjected, e.trace.lo, target, us);
        Frame stall;
        stall.type = FrameType::Stall;
        stall.seq = next_ctrl_seq++;
        put_u64(stall.payload, us);
        if (!send_frame(lock, target, stall)) {
          // Refetch: the failed send declared the target dead, which
          // already rescheduled this entry.
          return;
        }
        it = inflight.find(seq);
        if (it == inflight.end() || it->second.shard != target) return;
      }
      // In-process kinds (Throw/Stall-as-model-fault/Corrupt/Blackout)
      // belong to the worker's own injector; at this level they are None.
    }

    Frame f;
    f.type = FrameType::Request;
    f.flags = static_cast<std::uint8_t>(it->second.priority);
    f.seq = seq;
    f.trace_hi = it->second.trace.hi;
    f.trace_lo = it->second.trace.lo;
    f.tenant = it->second.tenant;
    f.payload = it->second.payload;
    (void)send_frame(lock, target, f);
    // On failure send_frame declared the worker dead and this entry is
    // already rescheduled (or failed); nothing more to do either way.
  }

  /// Encode and write one frame to a shard, releasing mu around the socket
  /// write. Declares the shard dead on write failure. Returns success.
  bool send_frame(std::unique_lock<std::mutex> &lock, std::size_t shard,
                  const Frame &frame) {
    WorkerSlot &w = *workers[shard];
    const int fd = w.fd;
    const std::uint64_t gen = w.gen;
    std::mutex *wmu = w.write_mu.get();
    if (fd < 0 || !w.live) return false;
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    lock.unlock();
    const bool ok = send_all(fd, *wmu, bytes);
    lock.lock();
    if (!ok) {
      WorkerSlot &now_w = *workers[shard];
      if (now_w.gen == gen && now_w.live) declare_dead(shard, "send-error");
    }
    return ok;
  }

  // ---- reader --------------------------------------------------------------

  void reader_loop(std::size_t shard, int fd, std::uint64_t gen) {
    FrameDecoder decoder(config.max_payload);
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::lock_guard lock(mu);
        if (workers[shard]->gen == gen) declare_dead(shard, "eof");
        return;
      }
      decoder.feed({buf, static_cast<std::size_t>(n)});
      for (;;) {
        WireDecodeResult r = decoder.next();
        if (r.failure == WireFailure::NeedMore) break;
        if (!r.ok()) {
          std::lock_guard lock(mu);
          const bool torn = r.failure == WireFailure::Torn;
          if (torn) {
            ++stats.frames_torn;
            TREU_OBS_COUNTER_ADD("cluster.frames_torn", 1);
          } else {
            ++stats.frames_corrupt;
            TREU_OBS_COUNTER_ADD("cluster.frames_corrupt", 1);
          }
          TREU_OBS_FR_EVENT(ClusterFrameError, 0, shard, torn ? 0 : 1);
          if (workers[shard]->gen == gen) {
            declare_dead(shard, torn ? "torn-stream" : "corrupt-stream");
          }
          ::shutdown(fd, SHUT_RDWR);
          return;
        }
        handle_frame(shard, gen, r.frame);
      }
    }
  }

  void handle_frame(std::size_t shard, std::uint64_t gen, const Frame &f) {
    std::unique_lock lock(mu);
    WorkerSlot &w = *workers[shard];
    if (w.gen != gen) return;  // a previous incarnation's stream
    switch (f.type) {
      case FrameType::Hello: {
        PayloadReader r({f.payload.data(), f.payload.size()});
        std::uint64_t pid = 0;
        std::uint32_t hello_shard = 0;
        std::string hash;
        if (r.u64(pid) && r.u32(hello_shard) && r.str(hash)) {
          w.weight_hash = std::move(hash);
        }
        w.ready = true;
        const std::int64_t now = now_us();
        w.last_ack_us = now;
        w.last_hb_us = now;
        TREU_OBS_FR_EVENT(ClusterHello, 0, shard,
                          static_cast<std::uint64_t>(w.pid));
        cv.notify_all();
        break;
      }
      case FrameType::HeartbeatAck:
        w.last_ack_us = now_us();
        break;
      case FrameType::Response: {
        const auto it = inflight.find(f.seq);
        if (it == inflight.end()) {
          ++stats.duplicate_responses;
          TREU_OBS_COUNTER_ADD("cluster.duplicate_responses", 1);
          break;
        }
        Entry &e = it->second;
        ClusterResponse resp;
        resp.payload = f.payload;
        resp.shard = shard;
        resp.attempts = e.attempts;
        resp.trace = e.trace;
        ++stats.fulfilled;
        ++stats.tenants[e.tenant].fulfilled;
        tenant_inflight[e.tenant]--;
        TREU_OBS_COUNTER_ADD("cluster.fulfilled_total", 1);
        TREU_OBS_GAUGE_ADD("cluster.inflight", -1);
        jot("fulfill seq=", f.seq, " shard=", shard, " attempts=", e.attempts);
        TREU_OBS_FR_EVENT(ClusterFulfill, e.trace.lo, shard, e.attempts);
        e.promise.set_value(std::move(resp));
        inflight.erase(it);
        cv.notify_all();
        break;
      }
      case FrameType::Error: {
        const auto it = inflight.find(f.seq);
        if (it == inflight.end()) {
          ++stats.duplicate_responses;
          TREU_OBS_COUNTER_ADD("cluster.duplicate_responses", 1);
          break;
        }
        PayloadReader r({f.payload.data(), f.payload.size()});
        std::string why;
        if (!r.str(why)) why = "worker error (payload undecodable)";
        jot("workerfail seq=", f.seq, " shard=", shard);
        // A worker-side failure is terminal, not retried: the worker's own
        // BatchServer already applied its retry budget, so the outcome is
        // the request's one deterministic resolution.
        fail_entry(it, "cluster: worker failed request: " + why);
        break;
      }
      case FrameType::DrainAck: {
        PayloadReader r({f.payload.data(), f.payload.size()});
        std::uint64_t served = 0;
        (void)r.u64(served);
        w.drain_served = served;
        w.drained = true;
        w.live = false;
        jot("drain shard=", shard, " served=", served);
        TREU_OBS_FR_EVENT(ClusterDrain, 0, shard, served);
        cv.notify_all();
        break;
      }
      case FrameType::ReloadAck: {
        const auto it = pending_reloads.find(f.seq);
        if (it == pending_reloads.end()) break;
        PayloadReader r({f.payload.data(), f.payload.size()});
        ReloadOutcome out;
        out.ok = (f.flags & 1) != 0;
        (void)r.str(out.error);
        (void)r.str(out.weight_hash);
        if (out.ok && !out.weight_hash.empty()) {
          w.weight_hash = out.weight_hash;
        }
        jot("reload shard=", shard, " ok=", out.ok ? 1 : 0);
        TREU_OBS_FR_EVENT(ClusterReload, 0, shard, out.ok ? 1 : 0);
        it->second.set_value(std::move(out));
        pending_reloads.erase(it);
        break;
      }
      default:
        break;  // worker-bound frame types arriving here: ignore
    }
  }

  // ---- monitor -------------------------------------------------------------

  void monitor_loop() {
    std::unique_lock lock(mu);
    while (!stopping) {
      monitor_cv.wait_for(lock, std::chrono::milliseconds(1));
      if (stopping) return;
      tick(lock);
    }
  }

  void tick(std::unique_lock<std::mutex> &lock) {
    const std::int64_t now = now_us();

    // Failure detection + heartbeat cadence.
    for (std::size_t s = 0; s < workers.size(); ++s) {
      WorkerSlot &w = *workers[s];
      if (!w.live) continue;
      if (!w.ready) {
        if (now - w.spawn_us > config.hello_timeout.count()) {
          declare_dead(s, "hello-timeout");
        }
        continue;
      }
      if (w.draining) continue;
      // Silence only means death while heartbeats are actually being sent.
      if (config.heartbeat_interval.count() > 0 &&
          config.heartbeat_timeout.count() > 0 &&
          now - w.last_ack_us > config.heartbeat_timeout.count()) {
        ++stats.heartbeat_misses;
        TREU_OBS_COUNTER_ADD("cluster.heartbeat_miss", 1);
        TREU_OBS_FR_EVENT(ClusterHeartbeatMiss, 0, s,
                          static_cast<std::uint64_t>(now - w.last_ack_us));
        declare_dead(s, "heartbeat");
        continue;
      }
      if (config.heartbeat_interval.count() > 0 &&
          now - w.last_hb_us >= config.heartbeat_interval.count()) {
        w.last_hb_us = now;
        Frame hb;
        hb.type = FrameType::Heartbeat;
        hb.seq = next_ctrl_seq++;
        (void)send_frame(lock, s, hb);
        // send_frame unlocked: the worker set is index-stable, but slot
        // state may have moved on; the loop re-reads every field it needs.
      }
    }

    // Per-dispatch deadlines (LinkDrop / silent-worker recovery).
    std::vector<std::uint64_t> expired;
    for (const auto &kv : inflight) {
      const Entry &e = kv.second;
      if (e.deadline_us >= 0 && e.resend_at_us < 0 && now > e.deadline_us) {
        expired.push_back(kv.first);
      }
    }
    std::sort(expired.begin(), expired.end());
    for (const std::uint64_t seq : expired) {
      const auto it = inflight.find(seq);
      if (it == inflight.end()) continue;
      ++stats.timeouts;
      TREU_OBS_COUNTER_ADD("cluster.timeouts", 1);
      jot("timeout seq=", seq, " shard=", it->second.shard);
      schedule_failover(seq, now);
    }

    // Due resends.
    std::vector<std::uint64_t> due;
    for (const auto &kv : inflight) {
      if (kv.second.resend_at_us >= 0 && now >= kv.second.resend_at_us) {
        due.push_back(kv.first);
      }
    }
    std::sort(due.begin(), due.end());
    for (const std::uint64_t seq : due) dispatch(lock, seq);

    // Auto-restart of dead shards.
    if (config.auto_restart && !stopping) {
      for (std::size_t s = 0; s < workers.size(); ++s) {
        WorkerSlot &w = *workers[s];
        if (!w.live && !w.drained && w.restarts < config.max_restarts) {
          (void)respawn(lock, s);
        }
      }
    }
  }

  // ---- teardown ------------------------------------------------------------

  /// Constructor-failure path: no monitor running, nothing in flight.
  void force_teardown() {
    {
      std::lock_guard lock(mu);
      for (auto &w : workers) {
        if (w->pid > 0 && !w->reaped) ::kill(w->pid, SIGKILL);
        if (w->fd >= 0) ::shutdown(w->fd, SHUT_RDWR);
      }
    }
    for (auto &w : workers) {
      if (w->reader.joinable()) w->reader.join();
    }
    for (auto &w : workers) {
      if (w->pid > 0 && !w->reaped) {
        int status = 0;
        ::waitpid(w->pid, &status, 0);
        w->reaped = true;
      }
      if (w->fd >= 0) {
        ::close(w->fd);
        w->fd = -1;
      }
    }
  }

  ClusterConfig config;
  HashRing ring;
  std::size_t shed_mark = 0;

  mutable std::mutex mu;
  std::condition_variable cv;          // hellos, drains, inflight resolution
  std::condition_variable monitor_cv;  // monitor wakeups
  std::vector<std::unique_ptr<WorkerSlot>> workers;
  std::vector<int> dead_fds;  // replaced incarnations; closed at teardown
  EntryMap inflight;
  std::unordered_map<std::uint32_t, std::size_t> tenant_inflight;
  std::unordered_map<std::uint64_t, std::promise<ReloadOutcome>>
      pending_reloads;
  std::uint64_t next_seq = 0;
  std::uint64_t next_ctrl_seq = 1;
  std::uint64_t fault_events = 0;  // injector consults so far
  bool accepting = true;
  bool stopping = false;
  bool shut = false;
  ClusterStats stats;  // stats.journal_lines counts every jot()
  std::vector<std::string> journal_tail;  // ring of the newest lines
  core::Digest journal_head = core::sha256(kJournalHeader);

  std::thread monitor;
};

// ---- public surface --------------------------------------------------------

ClusterController::ClusterController(const ClusterConfig &config)
    : impl_(std::make_unique<Impl>(config)) {}

ClusterController::~ClusterController() { shutdown(); }

std::future<ClusterResponse> ClusterController::submit(
    std::uint32_t tenant, serve::Priority priority,
    std::vector<std::uint8_t> payload) {
  Impl &im = *impl_;
  std::promise<ClusterResponse> rejected_promise;
  std::unique_lock lock(im.mu);
  const std::uint64_t seq = im.next_seq++;
  const obs::TraceId trace = obs::derive_trace_id(im.config.trace_seed, seq);
  ++im.stats.submitted;
  ++im.stats.tenants[tenant].submitted;
  TREU_OBS_COUNTER_ADD("cluster.submitted_total", 1);

  if (!im.accepting || im.inflight.size() >= im.config.max_inflight) {
    ++im.stats.rejected;
    ++im.stats.tenants[tenant].rejected;
    TREU_OBS_COUNTER_ADD("cluster.rejected_total", 1);
    im.jot("reject seq=", seq);
    TREU_OBS_FR_EVENT(ClusterReject, trace.lo, tenant, im.inflight.size());
    rejected_promise.set_exception(std::make_exception_ptr(
        ClusterRejectedError(im.accepting ? "cluster: max_inflight reached"
                                          : "cluster: shut down")));
    return rejected_promise.get_future();
  }

  if (priority != serve::Priority::High && im.config.shed_watermark < 1.0 &&
      im.inflight.size() >= im.shed_mark) {
    // Fair share of the watermark across currently-active tenants: a
    // tenant already holding its share is shed so the others keep moving
    // through a failover storm.
    std::size_t active = 0;
    for (const auto &kv : im.tenant_inflight) {
      if (kv.second > 0) ++active;
    }
    const std::size_t mine = im.tenant_inflight[tenant];
    if (mine == 0) ++active;
    const std::size_t fair = std::max<std::size_t>(
        1, im.shed_mark / std::max<std::size_t>(1, active));
    if (mine >= fair) {
      ++im.stats.shed;
      ++im.stats.tenants[tenant].shed;
      TREU_OBS_COUNTER_ADD("cluster.shed_total", 1);
      im.jot("shed seq=", seq, " tenant=", tenant);
      TREU_OBS_FR_EVENT(ClusterShed, trace.lo, tenant, mine);
      rejected_promise.set_exception(std::make_exception_ptr(
          ClusterShedError("cluster: tenant over fair share")));
      return rejected_promise.get_future();
    }
  }

  ++im.stats.admitted;
  im.tenant_inflight[tenant]++;
  TREU_OBS_GAUGE_ADD("cluster.inflight", 1);
  Impl::Entry e;
  std::future<ClusterResponse> fut = e.promise.get_future();
  e.tenant = tenant;
  e.priority = priority;
  e.payload = std::move(payload);
  e.chain = im.ring.chain(seq);
  e.trace = trace;
  im.inflight.emplace(seq, std::move(e));
  im.jot("submit seq=", seq, " tenant=", tenant);
  im.dispatch(lock, seq);
  return fut;
}

void ClusterController::shutdown() {
  Impl &im = *impl_;
  {
    std::unique_lock lock(im.mu);
    if (im.shut) return;
    im.accepting = false;

    // Resolve everything in flight; the monitor keeps recovering workers
    // meanwhile. After drain_timeout the stragglers fail deterministically
    // rather than hanging shutdown forever.
    const auto wall_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(im.config.drain_timeout.count());
    while (!im.inflight.empty() &&
           std::chrono::steady_clock::now() < wall_deadline) {
      im.cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    if (!im.inflight.empty()) {
      std::vector<std::uint64_t> seqs;
      for (const auto &kv : im.inflight) seqs.push_back(kv.first);
      std::sort(seqs.begin(), seqs.end());
      for (const std::uint64_t seq : seqs) {
        const auto it = im.inflight.find(seq);
        if (it != im.inflight.end()) {
          im.fail_entry(it, "cluster: shut down before fulfillment");
        }
      }
    }
    im.stopping = true;
    im.monitor_cv.notify_all();
  }
  if (im.monitor.joinable()) im.monitor.join();

  {
    std::unique_lock lock(im.mu);
    // Graceful drain of live workers; declared-dead-but-running workers
    // (stalled ones) and non-ackers get the SIGKILL fence below.
    std::vector<std::size_t> draining;
    for (std::size_t s = 0; s < im.workers.size(); ++s) {
      Impl::WorkerSlot &w = *im.workers[s];
      if (w.live && w.ready && !w.drained) {
        w.draining = true;
        Frame f;
        f.type = FrameType::Drain;
        f.seq = im.next_ctrl_seq++;
        if (im.send_frame(lock, s, f)) draining.push_back(s);
      }
    }
    const auto wall_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(im.config.drain_timeout.count());
    im.cv.wait_until(lock, wall_deadline, [&] {
      for (const std::size_t s : draining) {
        // A worker that died instead of acking (-> !live) is done waiting.
        if (!im.workers[s]->drained && im.workers[s]->live) return false;
      }
      return true;
    });
    for (auto &w : im.workers) {
      if (w->pid > 0 && !w->reaped && !w->drained) ::kill(w->pid, SIGKILL);
      if (w->fd >= 0) ::shutdown(w->fd, SHUT_RDWR);
    }
  }
  for (auto &w : im.workers) {
    if (w->reader.joinable()) w->reader.join();
  }
  {
    std::lock_guard lock(im.mu);
    for (auto &w : im.workers) {
      if (w->pid > 0 && !w->reaped) {
        int status = 0;
        ::waitpid(w->pid, &status, 0);
        w->reaped = true;
      }
      if (w->fd >= 0) {
        ::close(w->fd);
        w->fd = -1;
      }
    }
    for (const int fd : im.dead_fds) ::close(fd);
    im.dead_fds.clear();
    im.shut = true;
  }
}

bool ClusterController::drain_worker(std::size_t shard) {
  Impl &im = *impl_;
  std::unique_lock lock(im.mu);
  if (shard >= im.workers.size()) {
    throw std::out_of_range("cluster: shard out of range");
  }
  Impl::WorkerSlot &w = *im.workers[shard];
  if (!w.live || !w.ready) return false;
  w.draining = true;
  im.jot("drainreq shard=", shard);

  // Let its in-flight work finish (responses resolve entries) before the
  // Drain control frame, so the worker's stop() has nothing queued that
  // the controller still needs.
  const auto wall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(im.config.drain_timeout.count());
  im.cv.wait_until(lock, wall_deadline, [&] {
    for (const auto &kv : im.inflight) {
      if (kv.second.shard == shard) return false;
    }
    return true;
  });

  Frame f;
  f.type = FrameType::Drain;
  f.seq = im.next_ctrl_seq++;
  if (!im.send_frame(lock, shard, f)) return false;
  const std::uint64_t gen = w.gen;
  im.cv.wait_until(lock, wall_deadline, [&] {
    const Impl::WorkerSlot &s = *im.workers[shard];
    return s.gen != gen || s.drained || !s.live;
  });
  return im.workers[shard]->gen == gen && im.workers[shard]->drained;
}

bool ClusterController::restart_worker(std::size_t shard) {
  Impl &im = *impl_;
  std::unique_lock lock(im.mu);
  if (shard >= im.workers.size()) {
    throw std::out_of_range("cluster: shard out of range");
  }
  return im.restart(lock, shard);
}

ReloadOutcome ClusterController::reload_worker(std::size_t shard,
                                               const std::string &path,
                                               const std::string &digest) {
  Impl &im = *impl_;
  std::future<ReloadOutcome> fut;
  {
    std::unique_lock lock(im.mu);
    if (shard >= im.workers.size()) {
      throw std::out_of_range("cluster: shard out of range");
    }
    Impl::WorkerSlot &w = *im.workers[shard];
    if (!w.live || !w.ready) {
      return {false, "cluster: worker not live", w.weight_hash};
    }
    const std::uint64_t seq = im.next_ctrl_seq++;
    fut = im.pending_reloads[seq].get_future();
    Frame f;
    f.type = FrameType::Reload;
    f.seq = seq;
    put_str(f.payload, path);
    put_str(f.payload, digest);
    if (!im.send_frame(lock, shard, f)) {
      im.pending_reloads.erase(seq);
      return {false, "cluster: reload send failed", w.weight_hash};
    }
  }
  const auto status = fut.wait_for(
      std::chrono::microseconds(im.config.drain_timeout.count()));
  if (status != std::future_status::ready) {
    return {false, "cluster: reload ack timeout", ""};
  }
  return fut.get();
}

void ClusterController::kill_worker(std::size_t shard) {
  Impl &im = *impl_;
  std::lock_guard lock(im.mu);
  if (shard >= im.workers.size()) {
    throw std::out_of_range("cluster: shard out of range");
  }
  Impl::WorkerSlot &w = *im.workers[shard];
  im.jot("kill shard=", shard, " manual");
  if (w.pid > 0 && !w.reaped) ::kill(w.pid, SIGKILL);
  // Detection runs through the normal machinery: the reader's EOF (or a
  // heartbeat miss) declares the death and fails over in-flight work.
}

void ClusterController::pump() {
  Impl &im = *impl_;
  std::unique_lock lock(im.mu);
  im.tick(lock);
}

ClusterStats ClusterController::stats() const {
  const Impl &im = *impl_;
  std::lock_guard lock(im.mu);
  ClusterStats s = im.stats;
  s.inflight = im.inflight.size();
  return s;
}

WorkerInfo ClusterController::worker(std::size_t shard) const {
  const Impl &im = *impl_;
  std::lock_guard lock(im.mu);
  if (shard >= im.workers.size()) {
    throw std::out_of_range("cluster: shard out of range");
  }
  const Impl::WorkerSlot &w = *im.workers[shard];
  WorkerInfo info;
  info.pid = w.pid;
  info.live = w.live;
  info.ready = w.ready;
  info.draining = w.draining;
  info.drained = w.drained;
  info.restarts = w.restarts;
  info.weight_hash = w.weight_hash;
  return info;
}

std::vector<std::string> ClusterController::journal() const {
  const Impl &im = *impl_;
  std::lock_guard lock(im.mu);
  const std::uint64_t total = im.stats.journal_lines;
  const std::uint64_t kept = std::min<std::uint64_t>(total, kJournalTailLines);
  std::vector<std::string> lines;
  lines.reserve(kept);
  for (std::uint64_t i = total - kept; i < total; ++i) {
    lines.push_back(im.journal_tail[i % kJournalTailLines]);
  }
  return lines;
}

core::Digest ClusterController::journal_digest() const {
  const Impl &im = *impl_;
  std::lock_guard lock(im.mu);
  return im.journal_head;
}

const ClusterConfig &ClusterController::config() const noexcept {
  return impl_->config;
}

}  // namespace treu::cluster
