#pragma once

// RolloutController — a crash-safe canary promotion state machine.
//
//   Idle ──publish vetted──> Canary ──verdict pass──> Promoting ──> Promoted
//                              │                         (idempotent hook)
//                              └──verdict fail──> RollingBack ──> RolledBack
//
// Every transition is journaled *before* the action it names runs
// (write-ahead intent logging) to a ckpt::DurableLog, the fsynced,
// hash-chained format of registry.log: an edited line (say a `fail`
// verdict rewritten to `pass`) fails its digest and is cut like a torn
// tail instead of replaying as a decision. A controller killed at any
// instruction therefore leaves a journal whose last line names exactly how
// far the cycle got, and resume() completes the cycle from that line alone:
//
//   last line            resume action
//   cycle <n> ...        rollback  (published, never canaried)
//   state <n> canary     rollback  (canary may hold unjudged weights)
//   verdict <n> ... pass promote   (the decision is durable — honor it)
//   verdict <n> ... fail rollback
//   state <n> promoting  promote   (intent logged; finish the promotion)
//   state <n> rolling-back rollback
//
// Every journal payload is clock-free — cycle numbers, registry versions,
// digests, and fixed-precision scores only — so two same-seed runs (and a
// crashed run plus its resumed half) produce byte-identical journals. The
// promote/rollback hooks must be idempotent: resume may re-run an action
// the crash interrupted halfway.
//
// Fault injection: an optional fault::FaultPlan is consulted once per
// decision point (publish, canary entry, promote entry) per cycle. The
// pipeline kinds map to: PublishCorrupt — rot the committed container so
// verification must reject it; RegistryTorn — tear the log append and
// halt (a crash mid-publish); CanaryCrash / PromoteCrash — halt right
// after entering that state, exactly where a SIGKILL would be nastiest.
// A halted controller refuses further cycles; the owner constructs a
// fresh controller on the same directories and calls resume(), just as a
// restarted process would. Non-pipeline kinds decided at these points are
// ignored, so a serving-oriented plan can be shared safely.

#include <cstdint>
#include <functional>
#include <string>

#include "treu/ckpt/durable_log.hpp"
#include "treu/fault/fault_plan.hpp"
#include "treu/pipeline/registry.hpp"

namespace treu::pipeline {

enum class RolloutState : std::uint8_t {
  Idle = 0,
  Canary,
  Promoting,
  Promoted,
  RollingBack,
  RolledBack,
};

[[nodiscard]] constexpr const char *to_string(RolloutState s) noexcept {
  switch (s) {
    case RolloutState::Idle: return "idle";
    case RolloutState::Canary: return "canary";
    case RolloutState::Promoting: return "promoting";
    case RolloutState::Promoted: return "promoted";
    case RolloutState::RollingBack: return "rolling-back";
    case RolloutState::RolledBack: return "rolled-back";
  }
  return "unknown";
}

/// Shadow-scoring outcome for one canary window: candidate vs incumbent on
/// the same traffic slice. The adapter computes these however it likes
/// (eval-set accuracy, SLO gauges, ...) as long as same-seed runs produce
/// identical numbers.
struct CanaryVerdict {
  double candidate_score = 0.0;
  double incumbent_score = 0.0;
  double canary_goodput = 1.0;      // fraction of canary requests answered
  std::uint64_t canary_errors = 0;  // failed canary requests in the window
};

/// Type-erased deployment surface. All hooks must be idempotent (resume
/// may repeat them) and deterministic for a given seed.
struct RolloutHooks {
  /// Load the candidate onto the canary slice, digest-validated against
  /// entry.weight_digest. False aborts the canary into a rollback.
  std::function<bool(const RegistryEntry &)> start_canary;
  /// Shadow-score the canary slice against the incumbent.
  std::function<CanaryVerdict(const RegistryEntry &)> score;
  /// Move the whole fleet onto the candidate (idempotent).
  std::function<bool(const RegistryEntry &)> promote;
  /// Restore the incumbent everywhere, canary slice included (idempotent).
  std::function<bool()> rollback;
};

/// Simulated-SIGKILL points for the kill-at-every-state crash tests. The
/// controller journals up to the point, runs any action the point sits
/// after, then halts without writing another byte — on-disk state is
/// indistinguishable from a kill at that instruction.
enum class CrashPoint : std::uint8_t {
  None = 0,
  AfterPublish,           // cycle line durable, no state line yet
  AfterCanaryEnter,       // "state n canary" durable, weights not applied
  AfterCanaryApply,       // canary fleet holds the candidate
  AfterVerdict,           // verdict durable, outcome state not entered
  AfterPromotingEnter,    // "state n promoting" durable, fleet untouched
  AfterPromoteApply,      // fleet promoted, "promoted" line never written
  AfterRollingBackEnter,  // "state n rolling-back" durable, not rolled back
};

struct RolloutConfig {
  /// Pass iff candidate_score + max_score_regression >= incumbent_score.
  double max_score_regression = 0.0;
  /// ...and canary_goodput >= min_canary_goodput.
  double min_canary_goodput = 0.0;
  /// Optional pipeline fault schedule (not owned; may be shared).
  fault::FaultPlan *plan = nullptr;
  /// Test hook: halt at this point of the next cycle.
  CrashPoint crash_point = CrashPoint::None;
};

struct CycleReport {
  std::uint64_t cycle = 0;
  bool published = false;  // chain record durable
  bool vetted = false;     // post-publish verification passed
  bool pass = false;       // canary verdict
  bool crashed = false;    // halted mid-cycle (injected or crash_point)
  RolloutState state = RolloutState::Idle;  // terminal state reached
  RegistryEntry entry;
  CanaryVerdict verdict;
  std::string error;
};

struct ResumeReport {
  bool resumed = false;  // an interrupted cycle was found and completed
  std::uint64_t cycle = 0;
  RolloutState from = RolloutState::Idle;   // journal tail at restart
  RolloutState state = RolloutState::Idle;  // state after convergence
  std::size_t torn_journal_lines = 0;       // journal lines cut at open
};

class RolloutController {
 public:
  /// Replays the journal at `journal_path` (created by the first append) to
  /// restore cycle count, incumbent, and any interrupted cycle, cutting
  /// every line after the verified, parseable prefix. Does not act on an
  /// interrupted cycle — call resume() before run_cycle().
  RolloutController(ModelRegistry &registry, RolloutHooks hooks,
                    const RolloutConfig &config, std::string journal_path);

  /// Complete any interrupted cycle per the table above. Safe to call when
  /// nothing is pending (reports resumed=false). Never throws on damaged
  /// journals: damaged lines were cut at construction (torn_journal_lines).
  /// Throws std::runtime_error, halted, when a journal append fails or
  /// construction could not cut the damaged lines.
  ResumeReport resume();

  /// Drive one full publish→canary→promote/rollback cycle. Throws
  /// std::logic_error if an interrupted cycle is pending or the controller
  /// has halted (simulated crash) — construct a fresh controller instead.
  /// A failed journal append halts the cycle before any later hook runs,
  /// with the log's error in CycleReport::error; a journal whose damaged
  /// lines could not be cut halts it before the publish.
  CycleReport run_cycle(const ckpt::TrainingCheckpoint &candidate);

  [[nodiscard]] RolloutState state() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycle_; }
  /// Registry version the fleet currently serves; 0 = pre-registry
  /// baseline (nothing promoted yet).
  [[nodiscard]] std::uint64_t incumbent_version() const noexcept {
    return incumbent_version_;
  }
  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] bool pending_resume() const noexcept {
    return pending_resume_;
  }
  [[nodiscard]] const std::string &journal_path() const noexcept {
    return journal_.path();
  }
  /// Current on-disk journal bytes (the byte-identity surface).
  [[nodiscard]] std::string journal_string() const;

 private:
  struct JournalTail;  // defined in rollout.cpp

  [[nodiscard]] bool journal(const std::string &line, CycleReport *report);
  [[nodiscard]] bool journal_state(std::uint64_t cycle, RolloutState s,
                                   CycleReport *report);
  [[nodiscard]] bool crash_here(CrashPoint point);
  void do_promote(std::uint64_t cycle, const RegistryEntry &entry,
                  CycleReport *report);
  void do_rollback(std::uint64_t cycle, bool rolling_back_journaled,
                   CycleReport *report);

  ModelRegistry &registry_;
  RolloutHooks hooks_;
  RolloutConfig config_;
  ckpt::DurableLog journal_;

  RolloutState state_ = RolloutState::Idle;
  std::uint64_t cycle_ = 0;              // last cycle number seen/used
  std::uint64_t incumbent_version_ = 0;  // 0 = baseline weights
  bool halted_ = false;
  bool pending_resume_ = false;
  // Interrupted-cycle facts recovered from the journal.
  std::uint64_t pending_cycle_ = 0;
  std::uint64_t pending_version_ = 0;
  RolloutState pending_from_ = RolloutState::Idle;
  bool pending_pass_ = false;       // verdict outcome, when one was logged
  bool pending_has_verdict_ = false;
  std::size_t torn_journal_lines_ = 0;
  std::string repair_error_;  // the journal's cut at open failed
};

}  // namespace treu::pipeline
