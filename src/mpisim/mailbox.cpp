#include "mpisim/mailbox.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "mpisim/event_loop.h"
#include "mpisim/fault.h"
#include "mpisim/hooks.h"
#include "util/error.h"

namespace pioblast::mpisim {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
constexpr const char* kDefaultPoisonReason =
    "mpisim: receive aborted (job poisoned)";
}  // namespace

void Mailbox::push(Message msg) {
  // Annotated outside the critical section on purpose: the race detector
  // may poison mailboxes on a report, which would self-deadlock under mu_.
  // The mailbox's own lock identity is passed explicitly instead.
  annotate_access(this, "Mailbox::push", /*write=*/true, {this});
  {
    std::lock_guard lock(mu_);
    if (sealed_) return;  // the owning rank crashed; its mail vanishes
    queue_.push_back(std::move(msg));
    seq_.push_back(next_seq_++);
  }
  if (loop_ != nullptr) loop_->wake(rank_);
}

std::size_t Mailbox::find_match(int src, std::span<const int> tags) const {
  std::size_t best = kNpos;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (std::find(tags.begin(), tags.end(), m.tag) == tags.end()) continue;
    if (src != kAnySource) {
      // Point-to-point matching preserves per-sender FIFO order: take the
      // first queued message from that sender with this tag.
      if (m.src == src) return i;
      continue;
    }
    // Wildcard: earliest virtual arrival wins; ties broken by sender rank
    // so the choice is stable.
    if (best == kNpos || m.arrival < queue_[best].arrival ||
        (m.arrival == queue_[best].arrival && m.src < queue_[best].src)) {
      best = i;
    }
  }
  return best;
}

Message Mailbox::take_at(std::size_t idx) {
  Message msg = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(idx));
  return msg;
}

Message Mailbox::pop(int src, int tag) {
  const int tags[] = {tag};
  return pop_any(src, tags);
}

Message Mailbox::pop_any(int src, std::span<const int> tags) {
  annotate_access(this, "Mailbox::pop", /*write=*/true, {this});
  for (;;) {
    {
      std::unique_lock lock(mu_);
      parked_.reset();
      const std::size_t idx = find_match(src, tags);
      if (idx != kNpos) return take_at(idx);
      if (poisoned_) {
        if (verify_poison_) throw VerifyError(poison_reason_);
        throw util::RuntimeError(poison_reason_);
      }
      if (src != kAnySource && dead_.count(src) != 0) {
        throw PeerLostError(src, "mpisim: receive from rank " +
                                     std::to_string(src) +
                                     " failed: the rank crashed and the "
                                     "message can never arrive");
      }
      if (loop_ == nullptr) {
        throw util::RuntimeError(
            "mpisim: blocking receive on a mailbox with no event loop bound "
            "(nothing could ever deliver the message)");
      }
      parked_ = Wait{src, tags};
    }
    // No match: park. The rank keeps running from the match check above
    // to block(), so no wakeup can be lost; block() returns once a
    // push/poison/seal/death woke the rank and the loop resumed it, and
    // the next pass re-checks the predicate.
    loop_->block(rank_);
  }
}

void Mailbox::seal() {
  {
    std::lock_guard lock(mu_);
    sealed_ = true;
    queue_.clear();
    seq_.clear();
  }
  if (loop_ != nullptr) loop_->wake(rank_);
}

void Mailbox::notify_dead(int rank) {
  {
    std::lock_guard lock(mu_);
    dead_.insert(rank);
  }
  if (loop_ != nullptr) loop_->wake(rank_);
}

void Mailbox::poison() { poison(kDefaultPoisonReason, false); }

void Mailbox::poison(std::string reason, bool verify_failure) {
  {
    std::lock_guard lock(mu_);
    if (!poisoned_) {  // first reason wins; later poisons keep it
      poisoned_ = true;
      verify_poison_ = verify_failure;
      poison_reason_ = std::move(reason);
    }
  }
  if (loop_ != nullptr) loop_->wake(rank_);
}

void Mailbox::bind_loop(EventLoop* loop, int rank) {
  loop_ = loop;
  rank_ = rank;
}

std::optional<Message> Mailbox::try_pop(int src, int tag) {
  std::lock_guard lock(mu_);
  const int tags[] = {tag};
  const std::size_t idx = find_match(src, tags);
  if (idx == kNpos) return std::nullopt;
  return take_at(idx);
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

bool Mailbox::has_match(int src, int tag) const {
  std::lock_guard lock(mu_);
  const int tags[] = {tag};
  return find_match(src, tags) != kNpos;
}

std::optional<Mailbox::Wait> Mailbox::parked() const {
  std::lock_guard lock(mu_);
  return parked_;
}

std::vector<Mailbox::PendingInfo> Mailbox::pending_info() const {
  std::lock_guard lock(mu_);
  std::vector<PendingInfo> out;
  out.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    out.push_back({queue_[i].src, queue_[i].tag, queue_[i].size(), seq_[i]});
  }
  // (src, tag, seq) order keeps leak reports byte-stable across schedules
  // that deliver the same message set in different arrival orders.
  std::sort(out.begin(), out.end(), [](const PendingInfo& a,
                                       const PendingInfo& b) {
    return std::tie(a.src, a.tag, a.seq) < std::tie(b.src, b.tag, b.seq);
  });
  return out;
}

}  // namespace pioblast::mpisim
