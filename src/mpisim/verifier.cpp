#include "mpisim/verifier.h"

#include <algorithm>
#include <optional>
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

namespace {

/// Each rank's parked wait (nullopt: finished, crashed, or not blocked).
using Waits = std::vector<std::optional<Mailbox::Wait>>;

/// Renders the wait-for cycle (or the blocked chain when an any-source
/// wait makes the cycle non-unique).
std::string render_cycle(const Waits& waits) {
  // Follow specific-source wait edges from the lowest blocked rank; a
  // revisited rank closes the cycle. Any-source waits have no unique
  // outgoing edge, so a walk reaching one just reports the chain so far.
  const int n = static_cast<int>(waits.size());
  const auto blocked = [&](int r) {
    return r >= 0 && r < n && waits[static_cast<std::size_t>(r)].has_value();
  };
  int start = 0;
  while (start < n && !blocked(start)) ++start;
  std::vector<int> path;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  int cur = start;
  while (blocked(cur) && !seen[static_cast<std::size_t>(cur)]) {
    seen[static_cast<std::size_t>(cur)] = true;
    path.push_back(cur);
    cur = waits[static_cast<std::size_t>(cur)]->src;  // kAnySource ends walk
  }
  std::ostringstream os;
  if (blocked(cur)) {
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

}  // namespace

bool ProtocolVerifier::on_stuck() {
  std::lock_guard lock(mu_);
  if (disabled_) return false;
  // The loop is stuck: every unfinished rank is parked, and whatever
  // could wake one (push, poison, peer death) would already have.
  Waits waits;
  waits.reserve(mailboxes_.size());
  int blocked = 0;
  for (const Mailbox* mb : mailboxes_) {
    waits.push_back(mb->parked());
    if (waits.back()) ++blocked;
  }
  std::ostringstream os;
  os << "protocol verifier: deadlock: all " << blocked
     << " live ranks blocked in recv with no deliverable message\n";
  for (std::size_t r = 0; r < waits.size(); ++r) {
    if (!waits[r]) continue;
    const Mailbox::Wait& w = *waits[r];
    os << "  rank " << r << " waiting for "
       << (w.src == kAnySource ? std::string("any source")
                               : "src=" + std::to_string(w.src))
       << " tag=";
    for (std::size_t t = 0; t < w.tags.size(); ++t)
      os << (t != 0 ? "/" : "") << tag_label(w.tags[t]);
    os << "\n";
  }
  os << render_cycle(waits);
  flag_locked(os.str());
  return true;
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

void ProtocolVerifier::on_rank_crashed(int rank) {
  std::lock_guard lock(mu_);
  crashed_[static_cast<std::size_t>(rank)] = true;
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
