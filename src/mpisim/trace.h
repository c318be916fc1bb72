// Event tracing for simulated runs.
//
// When a Tracer is attached to a World, every rank records timestamped
// events (phase changes, sends, receives, collective boundaries, faults,
// custom marks). Events are typed records: a send keeps its peer, tag and
// byte count as fields, and text is made only when an event is rendered
// (format_detail). After the run the merged, time-ordered stream can be
// rendered as a text timeline — the tool of choice for understanding why a
// protocol serializes (e.g. watching the mpiBLAST master's per-alignment
// fetch round trips stack up) — or consumed field by field (the protospec
// conformance monitor).
//
// Tracing is off unless a Tracer is attached; the hot path then costs one
// branch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "sim/time.h"

namespace pioblast::mpisim {

/// Kinds of recorded events. The comment names the fields each one sets.
enum class TraceKind : std::uint8_t {
  kPhase,       ///< rank entered a named phase (text)
  kSend,        ///< message injected (peer = dst, tag, bytes, seq)
  kRecv,        ///< message consumed (peer = src, tag, bytes)
  kMark,        ///< driver-defined annotation (text)
  kCollective,  ///< collective entry (op, root, seq)
  kVerify,      ///< protocol-verifier report (failed check, full text)
  kDrop,        ///< injected message drop (peer = dst, tag, bytes, seq)
  kCrash,       ///< injected crash; recorded on the rank that died
  kRecovery,    ///< recovery action (requeue after loss, degraded I/O; text)
};

/// The timeline label: PHASE, SEND, RECV, MARK, COLL, VRFY, FAULT (drops
/// and crashes alike) or RECOV.
const char* to_string(TraceKind kind);

struct TraceEvent {
  int rank = 0;
  sim::Time time = 0.0;
  TraceKind kind = TraceKind::kMark;
  int peer = -1;             ///< SEND/drop: destination; RECV: source
  int tag = -1;              ///< SEND/RECV/drop
  std::uint64_t bytes = 0;   ///< SEND/RECV/drop: payload size
  const char* op = nullptr;  ///< COLL: operation name (a static string)
  int root = -1;             ///< COLL
  std::uint64_t seq = 0;     ///< COLL: the rank's collective ordinal;
                             ///< SEND/drop: its 1-based send ordinal
  /// PHASE/MARK/VRFY/RECOV only. The `{}` initializer lets record sites
  /// omit it in designated initializers without -Wextra warnings.
  std::string text{};
};

/// The event's payload as the timeline shows it, after the kind label:
///   SEND  "dst=0 tag=7 bytes=48"       RECV  "src=2 tag=7 bytes=48"
///   COLL  "bcast root=0 seq=3"         drop  "drop send #2 dst=0 tag=1 bytes=0"
///   crash "rank 3 crashed"             text kinds: the text itself
std::string format_detail(const TraceEvent& event);

/// Thread-safe event sink shared by all ranks of a run.
class Tracer {
 public:
  /// Appends one event (called by Process; usable from drivers too).
  void record(TraceEvent event);

  /// Events recorded from the `from`-th on (all by default), globally
  /// ordered by (time, rank); call after the run.
  std::vector<TraceEvent> sorted(std::size_t from = 0) const;

  /// Number of recorded events.
  std::size_t size() const;

  /// Drops every recorded event.
  void clear();

  /// Renders a per-rank text timeline of the first `max_events` events:
  ///   [    0.000123s] r2   SEND  dst=0 tag=7 bytes=48
  void render(std::ostream& os, std::size_t max_events = 200) const;

  /// Events of one rank, time-ordered (for assertions in tests).
  std::vector<TraceEvent> for_rank(int rank) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

}  // namespace pioblast::mpisim
