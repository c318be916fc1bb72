// Scheduling and race-detection hooks for the simulated runtime.
//
// The mpicheck subsystem (src/mpicheck) plugs into the runtime through two
// abstract interfaces so mpisim itself stays dependency-free:
//
//   * ScheduleHook — a decision chooser for the event loop. When installed
//     (RunOptions::schedule), every send, receive attempt, collective
//     entry, and injected-fault event suspends the running rank, and the
//     hook picks which runnable rank goes next. This turns the job into a
//     deterministic function of the hook's choices, which is what makes
//     systematic schedule exploration and failing-schedule replay
//     possible.
//
//   * RaceHook — a happens-before observer. The runtime reports message
//     edges (send/recv carry a token through Message::hb) and instrumented
//     shared-state accesses; the hook maintains vector clocks and flags
//     conflicting accesses no edge orders (see mpicheck/race.h).
//
// Both hooks are borrowed pointers owned by the caller of mpisim::run and
// must outlive the job.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

namespace pioblast::mpisim {

/// One scheduling-relevant operation a rank is parked at. The cooperative
/// scheduler records these per decision point; the explorer's DPOR-lite
/// mode uses them to decide which interleavings are provably equivalent.
struct YieldPoint {
  enum class Kind : std::uint8_t {
    kBegin = 0,   ///< rank function about to start
    kSend,        ///< about to inject a message (peer = destination rank)
    kRecv,        ///< about to attempt a receive (peer = source or kAnySource)
    kCollective,  ///< entering a collective (peer = root, detail = op name)
    kFault,       ///< about to die at an injected crash point
  };
  int rank = -1;
  Kind kind = Kind::kBegin;
  int peer = -1;
  int tag = 0;
  const char* detail = nullptr;  ///< optional static label (collective op)
};

const char* to_string(YieldPoint::Kind kind);

/// True when the two pending operations commute: executing them in either
/// order reaches the same state, so an explorer needs only one of the two
/// interleavings. Conservative: collectives, faults, and not-yet-started
/// ranks are dependent with everything; two point-to-point ops commute only
/// when they touch different mailboxes (a send touches its destination's
/// mailbox, a receive its own).
bool independent(const YieldPoint& a, const YieldPoint& b);

/// Decision chooser for the event loop's checked mode (event_loop.h). The
/// loop serializes the ranks itself; the hook only decides, at each point
/// where two or more ranks are runnable, which one runs next. Every yield
/// point is a decision point and a wake never preempts the running rank,
/// so a hook's decision sequence is a complete, replayable description of
/// the run.
class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;

  /// Called once before any rank runs.
  virtual void start(int nranks) = 0;

  /// Decision point: picks the next rank out of `enabled` (ascending, at
  /// least two entries; `ops` is parallel). Returning a non-member falls
  /// back to the lowest. Single-choice points are forced and never
  /// reported.
  virtual int choose(const std::vector<int>& enabled,
                     const std::vector<YieldPoint>& ops) = 0;

  /// The loop found no runnable rank while some were still blocked and
  /// fired its stuck handler. Every deadlock ends here, with the protocol
  /// verifier on or off.
  virtual void stuck() = 0;
};

/// Happens-before observer interface (see mpicheck/race.h for the
/// implementation). on_send returns a token the runtime stores in
/// Message::hb; the receiving side hands it back through on_recv, which is
/// how message edges advance the receiver's vector clock.
class RaceHook {
 public:
  virtual ~RaceHook() = default;

  virtual void start(int nranks) = 0;
  virtual std::uint64_t on_send(int src) = 0;
  virtual void on_recv(int dst, std::uint64_t hb) = 0;
  /// An instrumented access to shared state. `obj` identifies the state,
  /// `what` labels the access site for reports, `locks` is the set of
  /// lock identities protecting the access (two unordered accesses that
  /// share a lock are exempt — the lockset half of the detector).
  virtual void on_access(int rank, const void* obj, std::string_view what,
                         bool write, std::span<const void* const> locks) = 0;
};

// ---- thread-local annotation context --------------------------------------
//
// Library code that has no Process& at hand (RunMetrics, Mailbox) reports
// accesses through a thread-local {RaceHook*, rank} context the event loop
// installs on every fiber resume. Outside a checked run every annotation
// is a no-op, so instrumentation costs one thread-local load.

/// Installs/clears the calling thread's race context (runtime only).
void set_thread_check_context(RaceHook* race, int rank);
void clear_thread_check_context();

/// Reports an access to `obj` on behalf of the running rank.
/// `extra_locks` augments the thread's held-lock set (for code that
/// annotates just outside its critical section).
void annotate_access(const void* obj, std::string_view what, bool write,
                     std::initializer_list<const void*> extra_locks = {});

}  // namespace pioblast::mpisim
