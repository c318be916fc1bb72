#include "mpisim/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace pioblast::mpisim {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPhase:
      return "PHASE";
    case TraceKind::kSend:
      return "SEND";
    case TraceKind::kRecv:
      return "RECV";
    case TraceKind::kMark:
      return "MARK";
    case TraceKind::kCollective:
      return "COLL";
    case TraceKind::kVerify:
      return "VRFY";
    case TraceKind::kDrop:
    case TraceKind::kCrash:
      return "FAULT";
    case TraceKind::kRecovery:
      return "RECOV";
  }
  return "?";
}

std::string format_detail(const TraceEvent& e) {
  char buf[128];
  const auto bytes = static_cast<unsigned long long>(e.bytes);
  const auto seq = static_cast<unsigned long long>(e.seq);
  switch (e.kind) {
    case TraceKind::kSend:
      std::snprintf(buf, sizeof buf, "dst=%d tag=%d bytes=%llu", e.peer, e.tag,
                    bytes);
      return buf;
    case TraceKind::kRecv:
      std::snprintf(buf, sizeof buf, "src=%d tag=%d bytes=%llu", e.peer, e.tag,
                    bytes);
      return buf;
    case TraceKind::kDrop:
      std::snprintf(buf, sizeof buf, "drop send #%llu dst=%d tag=%d bytes=%llu",
                    seq, e.peer, e.tag, bytes);
      return buf;
    case TraceKind::kCrash:
      std::snprintf(buf, sizeof buf, "rank %d crashed", e.rank);
      return buf;
    case TraceKind::kCollective:
      std::snprintf(buf, sizeof buf, "%s root=%d seq=%llu",
                    e.op == nullptr ? "?" : e.op, e.root, seq);
      return buf;
    default:
      return e.text;
  }
}

void Tracer::record(TraceEvent event) {
  std::lock_guard lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::sorted(std::size_t from) const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard lock(mu_);
    from = std::min(from, events_.size());
    out.assign(events_.begin() + static_cast<std::ptrdiff_t>(from),
               events_.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.rank < b.rank;
                   });
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
}

void Tracer::render(std::ostream& os, std::size_t max_events) const {
  const auto events = sorted();
  char buf[64];
  std::size_t shown = 0;
  for (const TraceEvent& e : events) {
    if (shown++ >= max_events) {
      os << "... (" << events.size() - max_events << " more events)\n";
      break;
    }
    std::snprintf(buf, sizeof buf, "[%12.6fs] r%-3d %-5s ", e.time, e.rank,
                  to_string(e.kind));
    os << buf << format_detail(e) << '\n';
  }
}

std::vector<TraceEvent> Tracer::for_rank(int rank) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : sorted())
    if (e.rank == rank) out.push_back(e);
  return out;
}

}  // namespace pioblast::mpisim
