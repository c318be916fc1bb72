// Deterministic schedule chooser for mpisim.
//
// Installed via RunOptions::schedule, it becomes the event loop's
// decision delegate: at every yield point (send, recv attempt, collective
// entry, injected fault) and blocking receive the loop asks it which
// runnable rank goes next. The job's behaviour then depends only on the
// Chooser's picks, so a run can be reproduced exactly from its decision
// trace — the foundation for the explorer (explore.h) and for
// `--schedule` replay.
//
// Decisions are recorded only at points where two or more ranks were
// runnable; a single runnable rank is forced and recording it would bloat
// traces without adding information.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mpicheck/schedule.h"
#include "mpisim/hooks.h"

namespace pioblast::mpicheck {

/// Full record of one multi-choice scheduling point: who was runnable,
/// what each runnable rank was about to do, who ran. The explorer's
/// DPOR-lite mode consumes `ops` to prune provably-equivalent siblings.
struct DecisionRecord {
  std::vector<int> enabled;                 ///< runnable ranks, ascending
  std::vector<mpisim::YieldPoint> ops;      ///< pending op per enabled rank
  int chosen = -1;
};

class CoopScheduler final : public mpisim::ScheduleHook {
 public:
  /// Picks the next rank to run out of `enabled` (must return a member;
  /// anything else falls back to the lowest). `decision_index` counts
  /// multi-choice points so far; `ops` is parallel to `enabled`.
  using Chooser = std::function<int(std::size_t decision_index,
                                    const std::vector<int>& enabled,
                                    const std::vector<mpisim::YieldPoint>& ops)>;

  /// A null chooser always picks the lowest runnable rank.
  explicit CoopScheduler(Chooser chooser = {});

  // ScheduleHook ------------------------------------------------------------
  void start(int nranks) override;
  int choose(const std::vector<int>& enabled,
             const std::vector<mpisim::YieldPoint>& ops) override;
  void stuck() override;

  // Run results (read after the job returned) -------------------------------

  /// The multi-choice decisions of the completed run.
  const std::vector<DecisionRecord>& records() const { return records_; }

  /// records() reduced to a replayable Schedule.
  Schedule schedule() const;

  /// True when the loop found no runnable rank while some were still
  /// blocked and fired its stuck handler: every deadlock, verifier on or
  /// off.
  bool went_stuck() const { return stuck_fired_; }

  // Canned choosers ---------------------------------------------------------

  /// Lowest runnable rank, always (the canonical baseline schedule).
  static Chooser first_enabled();

  /// Seeded uniform pick — deterministic for a given seed.
  static Chooser random(std::uint64_t seed);

  /// Replays `forced` decision by decision. Past its end — or when the
  /// forced rank is not currently runnable (trace divergence) — falls
  /// back to the lowest runnable rank, or to continuing the previously
  /// chosen rank when `continue_after` is set (the non-preemptive
  /// default the preemption-bounded sweep perturbs).
  static Chooser forced(Schedule forced, bool continue_after = false);

 private:
  Chooser chooser_;
  bool stuck_fired_ = false;
  std::vector<DecisionRecord> records_;
};

}  // namespace pioblast::mpicheck
