// Per-rank mailbox with (source, tag) matching.
//
// A receive with no matching message parks the owning rank's fiber on the
// event loop until a push, poison, seal, or peer death wakes it, which is
// how the simulated ranks synchronize for real; virtual-time ordering is
// layered on top by Process (receiver clocks max-merge with arrivals).
//
// A parked pop records the (src, tags) it waits for (parked()). When the
// event loop finds every unfinished rank blocked, the protocol verifier
// reads those records once to name the deadlock (see verifier.h).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "mpisim/message.h"

namespace pioblast::mpisim {

class EventLoop;

class Mailbox {
 public:
  /// Enqueues a delivered message and wakes any blocked receiver.
  void push(Message msg);

  /// Blocks until a message matching (src, tag) is available and removes it.
  /// `src == kAnySource` matches any sender; among the matches pending when
  /// the loop resumes the receiver, the one with the smallest virtual
  /// arrival time is chosen (ties broken by sender rank). That is not the
  /// globally earliest message: a sender the loop has not yet run may
  /// still post an earlier one (DESIGN.md, Known divergences). Blocking
  /// needs a bound event loop; without one a pop that finds no match
  /// throws util::RuntimeError instead of waiting forever.
  Message pop(int src, int tag);

  /// Blocks until a message matching `src` and any tag in `tags` is
  /// available (earliest arrival across all listed tags wins). Used by
  /// fault-aware server loops that must wake for either work requests or
  /// failure-detector notices.
  Message pop_any(int src, std::span<const int> tags);

  /// Non-blocking variant; returns nullopt when nothing matches.
  std::optional<Message> try_pop(int src, int tag);

  /// Number of currently queued messages (diagnostics/tests).
  std::size_t pending() const;

  /// True when a blocking pop(src, tag) would return without waiting.
  bool has_match(int src, int tag) const;

  /// The receive the owning rank is parked on: its (src, tags). `tags`
  /// points into the parked rank's suspended frame.
  struct Wait {
    int src = 0;
    std::span<const int> tags;
  };

  /// The wait of a pop parked on the event loop, or nullopt while the
  /// owning rank is not blocked in this mailbox. The verifier's deadlock
  /// report reads it at the loop's stuck point.
  std::optional<Wait> parked() const;

  /// Provenance of every still-queued message, for the verifier's
  /// end-of-job leak report. `seq` is the message's arrival ordinal in
  /// this mailbox; entries are sorted by (src, tag, seq) so the report is
  /// byte-stable across schedules that deliver the same message set.
  struct PendingInfo {
    int src = 0;
    int tag = 0;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;
  };
  std::vector<PendingInfo> pending_info() const;

  /// Marks the mailbox as poisoned: current and future blocking pops with
  /// no matching message throw RuntimeError. Used to unwind every rank
  /// when one rank fails.
  void poison();

  /// Poison with an explanatory reason; when `verify_failure` is set the
  /// unblocked pops throw VerifyError so a verifier report survives the
  /// unwind as the job's error regardless of which rank records it first.
  void poison(std::string reason, bool verify_failure = false);

  /// Binds the event loop (not owned): blocking pops park the owner's
  /// fiber on it, and every event that could unblock the owner (push,
  /// poison, seal, peer death) wakes it. Must happen before any rank runs.
  void bind_loop(EventLoop* loop, int rank);

  // ---- fault support ------------------------------------------------------

  /// Marks the owning rank as crashed: discards all queued messages and
  /// silently drops every future push (a dead rank can neither read its
  /// mail nor leak it).
  void seal();

  /// Records that `rank` has crashed and wakes any blocked receiver: a
  /// pop waiting specifically on a dead rank throws PeerLostError instead
  /// of blocking forever.
  void notify_dead(int rank);

 private:
  /// Index of best match in queue_, or npos. Caller holds the lock.
  std::size_t find_match(int src, std::span<const int> tags) const;

  /// Removes and returns queue_[idx]. Caller holds the lock.
  Message take_at(std::size_t idx);

  mutable std::mutex mu_;
  std::deque<Message> queue_;
  std::deque<std::uint64_t> seq_;  ///< arrival ordinal of queue_[i]
  std::uint64_t next_seq_ = 0;
  std::set<int> dead_;  ///< crashed peers (see notify_dead)
  bool sealed_ = false;
  bool poisoned_ = false;
  bool verify_poison_ = false;
  std::string poison_reason_;
  std::optional<Wait> parked_;  ///< see parked()
  EventLoop* loop_ = nullptr;
  int rank_ = -1;
};

}  // namespace pioblast::mpisim
