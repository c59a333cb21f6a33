#include "treu/pipeline/rollout.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "payload_words.hpp"
#include "treu/obs/obs.hpp"

namespace treu::pipeline {
namespace {

constexpr const char *kJournalHeader = "treu-rollout-journal v2";

std::string fixed6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

std::optional<RolloutState> state_from_name(std::string_view name) {
  if (name == "canary") return RolloutState::Canary;
  if (name == "promoting") return RolloutState::Promoting;
  if (name == "promoted") return RolloutState::Promoted;
  if (name == "rolling-back") return RolloutState::RollingBack;
  if (name == "rolled-back") return RolloutState::RolledBack;
  return std::nullopt;
}

}  // namespace

// What the journal says about where the last run stopped.
struct RolloutController::JournalTail {
  std::uint64_t last_cycle = 0;         // highest cycle number seen
  bool open = false;                    // last cycle lacks a terminal line
  std::uint64_t open_cycle = 0;
  std::uint64_t open_version = 0;
  RolloutState open_from = RolloutState::Idle;
  bool open_has_verdict = false;
  bool open_pass = false;
  RolloutState terminal = RolloutState::Idle;  // when not open
  std::uint64_t incumbent_version = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> cycle_version;

  // Fold one chain-verified payload into the tail; false if it is not a
  // journal line (replay stops there and the line is cut).
  bool replay(std::string_view payload) {
    const auto w = detail::words(payload);
    const auto n = w.size() >= 2 ? detail::parse_u64(w[1]) : std::nullopt;
    if (!n) return false;
    if (w[0] == "cycle" && w.size() == 5) {
      const auto version = detail::u64_field(w[2], "version");
      if (!version) return false;
      cycle_version[*n] = *version;
      last_cycle = std::max(last_cycle, *n);
      open = true;
      open_cycle = *n;
      open_version = *version;
      open_from = RolloutState::Idle;
      open_has_verdict = false;
      return true;
    }
    if (w[0] == "state" && w.size() == 3) {
      const auto s = state_from_name(w[2]);
      if (!s) return false;
      last_cycle = std::max(last_cycle, *n);
      if (*s == RolloutState::Promoted || *s == RolloutState::RolledBack) {
        open = false;
        terminal = *s;
        if (*s == RolloutState::Promoted) {
          incumbent_version = cycle_version[*n];
        }
      } else {
        open = true;
        open_cycle = *n;
        open_from = *s;
      }
      return true;
    }
    if (w[0] == "verdict" && w.size() == 7 &&
        (w[6] == "pass" || w[6] == "fail")) {
      open = true;
      open_cycle = *n;
      open_from = RolloutState::Canary;
      open_has_verdict = true;
      open_pass = w[6] == "pass";
      return true;
    }
    if (w[0] == "rejected" && w.size() == 4) {
      last_cycle = std::max(last_cycle, *n);
      open = false;
      terminal = RolloutState::Idle;
      return true;
    }
    return w[0] == "resume" && w.size() == 4;
  }
};

RolloutController::RolloutController(ModelRegistry &registry,
                                     RolloutHooks hooks,
                                     const RolloutConfig &config,
                                     std::string journal_path)
    : registry_(registry),
      hooks_(std::move(hooks)),
      config_(config),
      journal_(std::move(journal_path), kJournalHeader) {
  if (!hooks_.start_canary || !hooks_.score || !hooks_.promote ||
      !hooks_.rollback) {
    throw std::invalid_argument("RolloutController: empty hook");
  }

  // Replay the chain-verified journal up to the first line that is not a
  // journal line, then cut everything after it (torn append, rot, or an
  // edit the chain caught) so the next append starts on a record boundary
  // — the same classified-recovery posture as the registry.
  JournalTail tail;
  std::size_t replayed = 0;
  for (const auto &record : journal_.scan().records) {
    if (!tail.replay(record.payload)) break;
    ++replayed;
  }
  torn_journal_lines_ = journal_.repair(replayed, &repair_error_);

  cycle_ = tail.last_cycle;
  incumbent_version_ = tail.incumbent_version;
  if (tail.open) {
    pending_resume_ = true;
    pending_cycle_ = tail.open_cycle;
    pending_version_ = tail.open_version;
    pending_from_ = tail.open_from;
    pending_has_verdict_ = tail.open_has_verdict;
    pending_pass_ = tail.open_pass;
    state_ = tail.open_from;
  } else {
    state_ = tail.terminal;
  }
}

std::string RolloutController::journal_string() const {
  const auto raw = ckpt::read_file(journal_.path());
  if (!raw) return {};
  return std::string(raw->begin(), raw->end());
}

// Every journal line is an intent that must be durable before the action it
// names runs. A failed append halts the controller as at a crash point: no
// hook runs after it, and a fresh controller converges from the durable
// prefix. run_cycle reports the log's error; resume(), which has no error
// field, throws it.
bool RolloutController::journal(const std::string &line, CycleReport *report) {
  std::string error;
  if (journal_.append(line, &error)) return true;
  halted_ = true;
  if (report == nullptr) throw std::runtime_error(error);
  report->error = error;
  report->state = state_;
  return false;
}

bool RolloutController::journal_state(std::uint64_t cycle, RolloutState s,
                                      CycleReport *report) {
  return journal("state " + std::to_string(cycle) + " " + to_string(s),
                 report);
}

bool RolloutController::crash_here(CrashPoint point) {
  if (config_.crash_point != point) return false;
  halted_ = true;
  TREU_OBS_COUNTER_ADD("pipeline.crashes_simulated", 1);
  return true;
}

void RolloutController::do_promote(std::uint64_t cycle,
                                   const RegistryEntry &entry,
                                   CycleReport *report) {
  const bool ok = hooks_.promote(entry);
  if (crash_here(CrashPoint::AfterPromoteApply)) {
    if (report != nullptr) {
      report->crashed = true;
      report->state = state_;
    }
    return;
  }
  if (!ok) {
    if (report != nullptr) report->error = "promote hook failed";
    do_rollback(cycle, /*rolling_back_journaled=*/false, report);
    return;
  }
  if (!journal_state(cycle, RolloutState::Promoted, report)) return;
  state_ = RolloutState::Promoted;
  incumbent_version_ = entry.version;
  TREU_OBS_COUNTER_ADD("pipeline.promotions_total", 1);
  TREU_OBS_FR_EVENT(PipelinePromote, 0, entry.version, cycle);
  if (report != nullptr) report->state = state_;
}

void RolloutController::do_rollback(std::uint64_t cycle,
                                    bool rolling_back_journaled,
                                    CycleReport *report) {
  state_ = RolloutState::RollingBack;
  if (!rolling_back_journaled &&
      !journal_state(cycle, RolloutState::RollingBack, report)) {
    return;
  }
  if (crash_here(CrashPoint::AfterRollingBackEnter)) {
    if (report != nullptr) {
      report->crashed = true;
      report->state = state_;
    }
    return;
  }
  if (!hooks_.rollback()) {
    // The incumbent could not be restored: stop rather than journal a
    // convergence that did not happen. A fresh controller retries.
    halted_ = true;
    if (report != nullptr) {
      report->error = "rollback hook failed";
      report->state = state_;
    }
    return;
  }
  if (!journal_state(cycle, RolloutState::RolledBack, report)) return;
  state_ = RolloutState::RolledBack;
  TREU_OBS_COUNTER_ADD("pipeline.rollbacks_total", 1);
  TREU_OBS_FR_EVENT(PipelineRollback, 0, incumbent_version_, cycle);
  if (report != nullptr) report->state = state_;
}

ResumeReport RolloutController::resume() {
  ResumeReport rr;
  rr.torn_journal_lines = torn_journal_lines_;
  if (halted_) throw std::logic_error("RolloutController: halted");
  if (!repair_error_.empty()) {
    halted_ = true;
    throw std::runtime_error(repair_error_);
  }
  if (!pending_resume_) {
    rr.state = state_;
    return rr;
  }
  rr.resumed = true;
  rr.cycle = pending_cycle_;
  rr.from = pending_from_;
  const std::uint64_t n = pending_cycle_;

  // Honor a durable pass verdict or promoting intent; everything earlier
  // rolls back. The journal line names exactly what we decided.
  bool promote_action =
      pending_from_ == RolloutState::Promoting ||
      (pending_has_verdict_ && pending_pass_);
  std::string from_tag;
  switch (pending_from_) {
    case RolloutState::Idle: from_tag = "published"; break;
    case RolloutState::Canary:
      from_tag = pending_has_verdict_
                     ? (pending_pass_ ? "verdict-pass" : "verdict-fail")
                     : "canary";
      break;
    case RolloutState::Promoting: from_tag = "promoting"; break;
    case RolloutState::RollingBack: from_tag = "rolling-back"; break;
    default: from_tag = "unknown"; break;
  }

  std::optional<RegistryEntry> entry;
  if (promote_action) {
    entry = registry_.entry_for_version(pending_version_);
    if (!entry || !registry_.verify_entry(*entry)) {
      // The candidate vanished or rotted since the verdict: promotion is
      // no longer provably safe, so converge the other way.
      promote_action = false;
    }
  }

  (void)journal("resume " + std::to_string(n) + " from=" + from_tag +
                    " action=" + (promote_action ? "promote" : "rollback"),
                nullptr);
  TREU_OBS_COUNTER_ADD("pipeline.resumes_total", 1);
  TREU_OBS_FR_EVENT(PipelineResume, 0, n,
                    static_cast<std::uint64_t>(pending_from_));

  pending_resume_ = false;
  if (promote_action) {
    if (pending_from_ != RolloutState::Promoting) {
      state_ = RolloutState::Promoting;
      (void)journal_state(n, RolloutState::Promoting, nullptr);
    }
    do_promote(n, *entry, nullptr);
  } else {
    do_rollback(n, pending_from_ == RolloutState::RollingBack, nullptr);
  }
  rr.state = state_;
  return rr;
}

CycleReport RolloutController::run_cycle(
    const ckpt::TrainingCheckpoint &candidate) {
  if (halted_) throw std::logic_error("RolloutController: halted");
  if (pending_resume_) {
    throw std::logic_error(
        "RolloutController: interrupted cycle pending; call resume()");
  }
  TREU_OBS_SPAN(cycle_span, "pipeline.cycle");
  TREU_OBS_SCOPED_LATENCY_US(cycle_timer, "pipeline.cycle_us");

  CycleReport report;
  if (!repair_error_.empty()) {
    halted_ = true;
    report.error = repair_error_;
    report.state = state_;
    return report;
  }
  report.cycle = ++cycle_;
  const std::uint64_t n = report.cycle;

  // Decision point 0: publish. A plan decision of a non-pipeline kind is
  // deliberately ignored, so a shared serving plan stays safe to pass in.
  PublishFaults publish_faults;
  if (config_.plan != nullptr) {
    const fault::FaultDecision d = config_.plan->decide(0, 1);
    if (d.kind == fault::FaultKind::PublishCorrupt) {
      publish_faults.corrupt_file = true;
    } else if (d.kind == fault::FaultKind::RegistryTorn) {
      publish_faults.tear_log = true;
    }
  }

  const ModelRegistry::PublishReport pub =
      registry_.publish(candidate, publish_faults);
  if (pub.torn_log) {
    // The registry log append tore: on real hardware this is the process
    // dying mid-write. Halt without journaling — the restarted registry's
    // repair drops the torn record, and this cycle never happened.
    halted_ = true;
    --cycle_;
    report.cycle = 0;
    report.crashed = true;
    report.error = pub.error;
    report.state = state_;
    return report;
  }
  if (!pub.logged) {
    state_ = RolloutState::Idle;
    report.state = state_;
    report.error = pub.error;
    (void)journal("rejected " + std::to_string(n) +
                      " version=0 reason=publish-failed",
                  &report);
    return report;
  }
  report.published = true;
  report.entry = pub.entry;
  report.vetted = pub.vetted;
  if (!pub.vetted) {
    // Chain record is durable but the container failed read-back
    // verification (e.g. PublishCorrupt): never let it near traffic.
    state_ = RolloutState::Idle;
    report.state = state_;
    (void)journal("rejected " + std::to_string(n) +
                      " version=" + std::to_string(pub.entry.version) +
                      " reason=unvetted",
                  &report);
    return report;
  }

  if (!journal("cycle " + std::to_string(n) +
                   " version=" + std::to_string(pub.entry.version) +
                   " step=" + std::to_string(pub.entry.step) +
                   " weights=" + pub.entry.weight_digest,
               &report)) {
    return report;
  }
  if (crash_here(CrashPoint::AfterPublish)) {
    report.crashed = true;
    report.state = state_;
    return report;
  }

  state_ = RolloutState::Canary;
  if (!journal_state(n, RolloutState::Canary, &report)) return report;
  TREU_OBS_FR_EVENT(PipelineCanaryStart, 0, pub.entry.version, n);
  if (crash_here(CrashPoint::AfterCanaryEnter)) {
    report.crashed = true;
    report.state = state_;
    return report;
  }

  const bool canary_ok = hooks_.start_canary(pub.entry);

  // Decision point 1: canary. CanaryCrash kills the controller with the
  // candidate live on the canary slice — the state resume() must undo.
  bool injected_canary_crash = false;
  if (config_.plan != nullptr) {
    injected_canary_crash =
        config_.plan->decide(1, 1).kind == fault::FaultKind::CanaryCrash;
  }
  if (injected_canary_crash || crash_here(CrashPoint::AfterCanaryApply)) {
    halted_ = true;
    report.crashed = true;
    report.state = state_;
    return report;
  }

  if (!canary_ok) {
    report.error = "canary apply failed";
    do_rollback(n, /*rolling_back_journaled=*/false, &report);
    return report;
  }

  report.verdict = hooks_.score(pub.entry);
  report.pass =
      report.verdict.candidate_score + config_.max_score_regression >=
          report.verdict.incumbent_score &&
      report.verdict.canary_goodput >= config_.min_canary_goodput;
  if (!journal("verdict " + std::to_string(n) +
                   " cand=" + fixed6(report.verdict.candidate_score) +
                   " inc=" + fixed6(report.verdict.incumbent_score) +
                   " goodput=" + fixed6(report.verdict.canary_goodput) +
                   " errors=" + std::to_string(report.verdict.canary_errors) +
                   (report.pass ? " pass" : " fail"),
               &report)) {
    return report;
  }
  TREU_OBS_FR_EVENT(PipelineVerdict, 0, pub.entry.version,
                    report.pass ? 1 : 0);
  if (crash_here(CrashPoint::AfterVerdict)) {
    report.crashed = true;
    report.state = state_;
    return report;
  }

  if (!report.pass) {
    do_rollback(n, /*rolling_back_journaled=*/false, &report);
    return report;
  }

  state_ = RolloutState::Promoting;
  if (!journal_state(n, RolloutState::Promoting, &report)) return report;
  if (crash_here(CrashPoint::AfterPromotingEnter)) {
    report.crashed = true;
    report.state = state_;
    return report;
  }

  // Decision point 2: promote. PromoteCrash lands in the nastiest window —
  // intent journaled, fleet not yet touched.
  bool injected_promote_crash = false;
  if (config_.plan != nullptr) {
    injected_promote_crash =
        config_.plan->decide(2, 1).kind == fault::FaultKind::PromoteCrash;
  }
  if (injected_promote_crash) {
    halted_ = true;
    report.crashed = true;
    report.state = state_;
    return report;
  }

  do_promote(n, pub.entry, &report);
  return report;
}

}  // namespace treu::pipeline
