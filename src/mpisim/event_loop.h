// The rank runtime: every rank of a job is a stackful fiber (fiber.h) on
// one scheduler thread.
//
// Ranks suspend only at the runtime's own call sites: Process::yield_point
// (send, receive attempt, collective entry, injected crash), Mailbox's
// blocking pop (block, woken by push/poison/seal/notify_dead), and
// Process::offload. A blocked rank costs one parked fiber (a few KB of
// touched stack) instead of a kernel thread, which is what lets one
// process host a 4096-rank world. The loop decides every resume, so a run
// is a deterministic function of its inputs.
//
// Two modes:
//
//   * Fast (no delegate): yield() returns immediately — a rank runs until
//     it actually blocks, offloads, or finishes (run-to-block) — and the
//     ready queue is a FIFO deque. offload() hands the closure to a host
//     thread pool and parks the rank; the loop keeps running ready ranks
//     and, only when none is ready, waits for the *oldest* in-flight
//     offload and resumes its rank. Resume order is therefore submission
//     order, never completion order, so multicore compute does not leak
//     host timing into the simulation.
//
//   * Checked (delegate != nullptr): every yield point suspends and the
//     loop asks the delegate ScheduleHook at each multi-choice point. All
//     ranks start runnable at kBegin, wakes never preempt the running
//     rank, and single-choice points are forced and unrecorded, so the
//     delegate's decision records replay byte-for-byte. offload() runs the
//     closure inline, so explored and recorded schedules do not depend on
//     whether a call site offloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "mpisim/hooks.h"

namespace pioblast::mpisim {

class Fiber;
class OffloadPool;

/// Per-rank fiber stack reservation (address space; pages commit lazily
/// via MAP_NORESERVE, so a 4096-rank world reserves address space only).
inline constexpr std::size_t kFiberStackBytes = 256 * 1024;

class EventLoop {
 public:
  /// Called once, when the loop finds no runnable rank, no offload in
  /// flight, and some ranks still blocked: the run's one deadlock
  /// detection point. Must wake every blocked receive (poison); the
  /// argument is the loop's own "scheduler stuck" report, which the
  /// runtime uses when the protocol verifier is off.
  using StuckHandler = std::function<void(const std::string&)>;

  struct Options {
    /// Decision chooser (borrowed; e.g. a CoopScheduler). Null selects the
    /// fast run-to-block mode.
    ScheduleHook* delegate = nullptr;
    /// Race detector whose thread-local context must be re-installed on
    /// every fiber resume (thread-locals do not follow fibers).
    RaceHook* race = nullptr;
  };

  EventLoop(int nranks, Options opts, StuckHandler on_stuck);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs `body(rank)` for every rank to completion on the calling
  /// thread. The body must not let exceptions escape (it runs on a fiber
  /// stack with no OS frame to unwind into).
  void run(const std::function<void(int)>& body);

  // ---- called from inside rank fibers -------------------------------------

  /// Yield point: records the pending op; in checked mode suspends until
  /// the delegate picks this rank again.
  void yield(const YieldPoint& op);

  /// The rank found no matching message: suspends until wake(rank) made it
  /// runnable and the loop resumed it. The caller re-checks its predicate.
  void block(int rank);

  /// Makes a blocked rank runnable (new message, poison, peer death).
  /// Called by the running rank or the stuck handler; never preempts.
  void wake(int rank);

  /// Runs `fn` — pure host compute that makes no mpisim calls — on the
  /// host pool and suspends the rank until the loop resumes it after `fn`
  /// finished (fast mode), or runs it inline (checked mode). An exception
  /// thrown by `fn` is rethrown here, in the rank.
  void offload(int rank, const std::function<void()>& fn);

 private:
  enum class State : std::uint8_t {
    kRunnable,
    kRunning,
    kBlocked,
    kOffloaded,
    kDone,
  };

  /// An offload whose rank is parked; `done` lives in the rank's
  /// suspended offload() frame.
  struct InFlight {
    int rank;
    std::future<void>* done;
  };

  /// Picks the next rank in checked mode: lowest runnable, or the
  /// delegate's choose() pick at multi-choice points. -1 when no rank is
  /// runnable.
  int choose_checked();

  /// Pops the FIFO ready queue (fast mode); -1 when it is empty.
  int pop_ready();

  /// Resumes one rank's fiber and folds its exit state back in.
  void resume_rank(int rank);

  /// No runnable rank, some still blocked: reports the wedge and fires
  /// the stuck handler (which pokes mailboxes and calls back into wake).
  void handle_stuck();

  int nranks_;
  Options opts_;
  StuckHandler on_stuck_;
  bool stuck_fired_ = false;
  int done_ = 0;
  std::vector<State> states_;
  std::vector<YieldPoint> ops_;  ///< pending op per rank (checked mode)
  std::deque<int> ready_;        ///< FIFO ready queue (fast mode)
  std::deque<InFlight> in_flight_;  ///< offloads, in submission order
  std::unique_ptr<OffloadPool> pool_;  ///< created on the first offload
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

}  // namespace pioblast::mpisim
