#include "mpisim/verifier.h"

#include <algorithm>
#include <sstream>

#include "mpisim/fault.h"

namespace pioblast::mpisim {

ProtocolVerifier::ProtocolVerifier(VerifyOptions opts, Tracer* tracer,
                                   std::vector<int> internal_tags)
    : opts_(std::move(opts)), tracer_(tracer),
      internal_tags_(std::move(internal_tags)) {
  internal_tags_.insert(internal_tags_.end(), opts_.internal_tags.begin(),
                        opts_.internal_tags.end());
}

void ProtocolVerifier::attach(const std::vector<Mailbox*>& mailboxes) {
  std::lock_guard lock(mu_);
  mailboxes_ = mailboxes;
  live_ranks_ = static_cast<int>(mailboxes.size());
  waits_.assign(mailboxes.size(), {});
  done_.assign(mailboxes.size(), false);
  crashed_.assign(mailboxes.size(), false);
  collective_seq_.assign(mailboxes.size(), 0);
}

std::string ProtocolVerifier::tag_label(int tag) const {
  if (opts_.tag_name) {
    std::string name = opts_.tag_name(tag);
    if (!name.empty()) return name;
  }
  return std::to_string(tag);
}

bool ProtocolVerifier::tag_registered(int tag) const {
  if (tag >= kDriverTagLimit) {
    return std::find(internal_tags_.begin(), internal_tags_.end(), tag) !=
           internal_tags_.end();
  }
  return std::find(opts_.registered_tags.begin(), opts_.registered_tags.end(),
                   tag) != opts_.registered_tags.end();
}

void ProtocolVerifier::on_send(int src, int dst, int tag) {
  std::lock_guard lock(mu_);
  if (disabled_ || opts_.registered_tags.empty()) return;
  if (tag_registered(tag)) return;
  std::ostringstream os;
  os << "protocol verifier: ";
  if (tag >= kDriverTagLimit) {
    os << "send from rank " << src << " to rank " << dst << " uses tag " << tag
       << " inside the runtime-internal band (>= " << kDriverTagLimit
       << ") that no runtime protocol claims; driver tags must be registered "
          "in driver/tags.h below the band";
  } else {
    os << "unregistered driver tag " << tag_label(tag) << " in send from rank "
       << src << " to rank " << dst
       << "; every driver tag must be declared in driver/tags.h";
  }
  fail_locked(os.str());
}

void ProtocolVerifier::on_recv_posted(int rank, int src, int tag) {
  std::lock_guard lock(mu_);
  if (disabled_ || opts_.registered_tags.empty()) return;
  if (tag_registered(tag)) return;
  std::ostringstream os;
  os << "protocol verifier: rank " << rank << " posted a receive from "
     << (src == kAnySource ? std::string("any source")
                           : "rank " + std::to_string(src))
     << " on unregistered tag " << tag_label(tag)
     << "; every driver tag must be declared in driver/tags.h";
  fail_locked(os.str());
}

std::string ProtocolVerifier::render_cycle_locked() const {
  // Follow specific-source wait edges from the lowest blocked rank; a
  // revisited rank closes the cycle. Any-source waits have no unique
  // outgoing edge, so a walk reaching one just reports the chain so far.
  const int n = static_cast<int>(waits_.size());
  int start = -1;
  for (int r = 0; r < n; ++r) {
    if (waits_[static_cast<std::size_t>(r)].blocked) {
      start = r;
      break;
    }
  }
  if (start < 0) return "";
  std::vector<int> path;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  int cur = start;
  while (cur >= 0 && cur < n && waits_[static_cast<std::size_t>(cur)].blocked &&
         !seen[static_cast<std::size_t>(cur)]) {
    seen[static_cast<std::size_t>(cur)] = true;
    path.push_back(cur);
    cur = waits_[static_cast<std::size_t>(cur)].src;  // kAnySource ends walk
  }
  std::ostringstream os;
  if (cur >= 0 && cur < n && seen[static_cast<std::size_t>(cur)]) {
    os << "  wait-for cycle: ";
    // Trim the lead-in so the rendered path starts at the cycle entry.
    const auto entry = std::find(path.begin(), path.end(), cur);
    for (auto it = entry; it != path.end(); ++it) os << *it << " -> ";
    os << cur << "\n";
  } else {
    os << "  wait-for chain: ";
    for (const int r : path) os << r << " -> ";
    os << (cur == kAnySource ? std::string("(any source)")
                             : std::to_string(cur))
       << "\n";
  }
  return os.str();
}

std::string ProtocolVerifier::deadlock_report_locked() const {
  if (live_ranks_ <= 0) return "";
  int blocked = 0;
  for (std::size_t r = 0; r < waits_.size(); ++r) {
    if (done_[r]) continue;
    if (!waits_[r].blocked) return "";  // somebody is still running
    ++blocked;
  }
  if (blocked == 0) return "";
  // Every live rank is registered blocked; exonerate any rank whose wait
  // became deliverable between its match check and its registration, and
  // any rank waiting specifically on a crashed peer (it will wake with
  // PeerLostError, not hang).
  for (std::size_t r = 0; r < waits_.size(); ++r) {
    if (done_[r]) continue;
    const Wait& w = waits_[r];
    if (w.src >= 0 && w.src < static_cast<int>(crashed_.size()) &&
        crashed_[static_cast<std::size_t>(w.src)])
      return "";
    if (mailboxes_[r]->has_match_any(w.src, w.tags)) return "";
  }
  std::ostringstream os;
  os << "protocol verifier: deadlock: all " << blocked
     << " live ranks blocked in recv with no deliverable message\n";
  for (std::size_t r = 0; r < waits_.size(); ++r) {
    if (done_[r]) continue;
    os << "  rank " << r << " waiting for "
       << (waits_[r].src == kAnySource
               ? std::string("any source")
               : "src=" + std::to_string(waits_[r].src))
       << " tag=";
    for (std::size_t t = 0; t < waits_[r].tags.size(); ++t)
      os << (t != 0 ? "/" : "") << tag_label(waits_[r].tags[t]);
    os << "\n";
  }
  os << render_cycle_locked();
  return os.str();
}

void ProtocolVerifier::flag_locked(const std::string& report) {
  disabled_ = true;  // one report per job; unwinding must not re-trigger
  if (tracer_ != nullptr)
    tracer_->record({.kind = TraceKind::kVerify, .text = report});
  for (Mailbox* mb : mailboxes_) mb->poison(report, /*verify_failure=*/true);
}

void ProtocolVerifier::fail_locked(const std::string& report) {
  flag_locked(report);
  throw VerifyError(report);
}

void ProtocolVerifier::on_block(int rank, int src, int tag) {
  const int tags[] = {tag};
  on_block(rank, src, std::span<const int>(tags));
}

void ProtocolVerifier::on_block(int rank, int src, std::span<const int> tags) {
  std::lock_guard lock(mu_);
  if (disabled_) return;
  auto& w = waits_[static_cast<std::size_t>(rank)];
  w.blocked = true;
  w.src = src;
  w.tags.assign(tags.begin(), tags.end());
  const std::string report = deadlock_report_locked();
  if (!report.empty()) fail_locked(report);
}

void ProtocolVerifier::on_unblock(int rank) {
  std::lock_guard lock(mu_);
  waits_[static_cast<std::size_t>(rank)].blocked = false;
}

void ProtocolVerifier::on_rank_done(int rank) {
  std::lock_guard lock(mu_);
  if (disabled_) return;
  done_[static_cast<std::size_t>(rank)] = true;
  --live_ranks_;
  const std::string report = deadlock_report_locked();
  // A finished rank's thread is outside the runtime's try block, so this
  // path must not throw; poisoning wakes the stuck ranks with the report.
  if (!report.empty()) flag_locked(report);
}

void ProtocolVerifier::on_rank_crashed(int rank) {
  std::lock_guard lock(mu_);
  if (disabled_) return;
  if (crashed_[static_cast<std::size_t>(rank)]) return;
  crashed_[static_cast<std::size_t>(rank)] = true;
  done_[static_cast<std::size_t>(rank)] = true;
  --live_ranks_;
  // World::crash_rank queued the failure-detector notice before calling
  // us, so a master blocked on any-source already has a deliverable
  // message and cannot be falsely declared deadlocked here.
  const std::string report = deadlock_report_locked();
  if (!report.empty()) flag_locked(report);  // crashing thread: never throw
}

void ProtocolVerifier::on_abort() {
  std::lock_guard lock(mu_);
  disabled_ = true;
}

void ProtocolVerifier::on_collective(int rank, std::string_view op, int root) {
  std::lock_guard lock(mu_);
  if (disabled_) return;
  const std::uint64_t seq = collective_seq_[static_cast<std::size_t>(rank)]++;
  if (seq == collective_log_.size()) {
    collective_log_.push_back({std::string(op), root, rank});
    return;
  }
  const CollectiveRecord& expect = collective_log_[static_cast<std::size_t>(seq)];
  if (expect.op == op && expect.root == root) return;
  std::ostringstream os;
  os << "protocol verifier: collective order mismatch at collective #" << seq
     << ": rank " << rank << " called " << op << "(root=" << root
     << ") but rank " << expect.first_rank << " called " << expect.op
     << "(root=" << expect.root
     << "); all ranks must issue collectives in the same order";
  fail_locked(os.str());
}

void ProtocolVerifier::check_stamp(int rank, int tag, const Message& msg,
                                   const TypeStamp& expected) {
  std::lock_guard lock(mu_);
  if (disabled_) return;
  if (msg.stamp.fp == 0 || expected.fp == 0) return;  // raw payload: unchecked
  if (msg.stamp.fp == expected.fp) return;
  std::ostringstream os;
  os << "protocol verifier: typed payload mismatch on tag " << tag_label(tag)
     << ": rank " << rank << " expects <" << expected.name << "> but rank "
     << msg.src << " sent <" << msg.stamp.name << "> (" << msg.size()
     << " bytes)";
  fail_locked(os.str());
}

void ProtocolVerifier::check_leaks() {
  std::lock_guard lock(mu_);
  if (disabled_) return;
  std::size_t leaked = 0;
  std::ostringstream os;
  for (std::size_t r = 0; r < mailboxes_.size(); ++r) {
    // A crashed rank's mailbox is sealed and its mail intentionally
    // vanishes; likewise an undrained failure-detector notice is runtime
    // bookkeeping, not a lost driver message.
    if (crashed_[r]) continue;
    const auto infos = mailboxes_[r]->pending_info();
    std::size_t shown = 0;
    std::ostringstream rank_os;
    for (const auto& info : infos) {
      if (info.tag == kTagFaultNotice) continue;
      rank_os << "    from rank " << info.src << " tag=" << tag_label(info.tag)
              << " (" << info.bytes << " bytes)\n";
      ++shown;
    }
    if (shown == 0) continue;
    os << "  rank " << r << " mailbox holds " << shown
       << (shown == 1 ? " message:" : " messages:") << "\n"
       << rank_os.str();
    leaked += shown;
  }
  if (leaked == 0) return;
  std::ostringstream head;
  head << "protocol verifier: " << leaked
       << (leaked == 1 ? " message" : " messages")
       << " left undrained at job end (sent but never received):\n"
       << os.str();
  const std::string report = head.str();
  if (tracer_ != nullptr)
    tracer_->record({.kind = TraceKind::kVerify, .text = report});
  throw VerifyError(report);
}

}  // namespace pioblast::mpisim
