// ProtocolVerifier: runtime checking of the simulated message-passing
// protocol.
//
// Four checks, all free of false positives on a correct program:
//
//   1. Deadlock detection — runs once, at the event loop's stuck point:
//      no rank is runnable, no offload is in flight, and every unfinished
//      rank is parked in a blocking Mailbox::pop. Push, poison, peer death
//      and seal all wake a parked rank, so every such wait is hopeless.
//      on_stuck() reads each parked mailbox's (src, tags) and poisons the
//      job with a readable wait-for-cycle report instead of letting ctest
//      hang.
//   2. Collective-order checking — every collective entry records an
//      (op, root) fingerprint at the rank's next sequence number; the
//      first rank to reach sequence #n defines the expectation and any
//      rank disagreeing fails the job immediately (the same-order rule
//      process.h documents but previously nothing enforced).
//   3. Tag audit — when a driver-tag registry is installed (see
//      VerifyOptions::registered_tags), every point-to-point send/recv tag
//      must be a registered driver tag or a known runtime-internal tag.
//   4. Typed-payload conformance — typed sends stamp the message with a
//      TypeStamp; typed receives verify it, catching size-coincidence type
//      confusion (see Process::send_value / driver::Channel<T>).
//
// A fifth check runs after the job: check_leaks() reports any message
// still sitting in a mailbox, with sender/tag provenance.
//
// Failures poison every mailbox with the report (so all ranks unwind with
// it), record a kVerify trace event, and throw VerifyError in the
// detecting rank (a deadlock has none: every parked rank wakes with it).
// The verifier is created by the runtime when RunOptions::verify.enabled
// is set (the default).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mpisim/mailbox.h"
#include "mpisim/trace.h"
#include "mpisim/verify.h"

namespace pioblast::mpisim {

class ProtocolVerifier {
 public:
  /// `internal_tags` is the runtime's own tag allowlist (the Process
  /// collective tags); opts.internal_tags extends it.
  ProtocolVerifier(VerifyOptions opts, Tracer* tracer,
                   std::vector<int> internal_tags);

  ProtocolVerifier(const ProtocolVerifier&) = delete;
  ProtocolVerifier& operator=(const ProtocolVerifier&) = delete;

  /// Binds the job's mailboxes (one per rank, not owned). Called by World
  /// before any rank runs.
  void attach(const std::vector<Mailbox*>& mailboxes);

  // ---- lifecycle (called by the runtime) ---------------------------------

  /// A rank crashed under fault injection: its sealed mailbox is left out
  /// of the leak check. Never throws (called from the crashing rank's
  /// unwind).
  void on_rank_crashed(int rank);

  /// The event loop found no runnable rank while some are parked: builds
  /// the deadlock report from every parked mailbox's wait and poisons the
  /// job with it (never throws). Returns false, reporting nothing, when
  /// checks are disabled; the caller then unwinds the wedge itself.
  bool on_stuck();

  /// The job is being aborted for an unrelated error: disable all checks
  /// so the unwinding ranks cannot trigger cascading reports.
  void on_abort();

  // ---- point-to-point hooks (called by Process / Mailbox) ----------------

  /// Audits the tag of an outgoing message. Throws VerifyError on a tag
  /// outside the registry.
  void on_send(int src, int dst, int tag);

  /// Audits the tag of a posted receive (catches a typo'd recv tag with a
  /// precise report before deadlock detection has to).
  void on_recv_posted(int rank, int src, int tag);

  // ---- collectives -------------------------------------------------------

  /// Records rank's next collective fingerprint and cross-validates it
  /// against the job-wide sequence. Throws VerifyError on mismatch.
  void on_collective(int rank, std::string_view op, int root);

  // ---- typed payloads ----------------------------------------------------

  /// Verifies a received message's type stamp against the receiver's
  /// expectation; unstamped messages pass. Throws VerifyError on mismatch.
  void check_stamp(int rank, int tag, const Message& msg,
                   const TypeStamp& expected);

  // ---- end of job --------------------------------------------------------

  /// Reports messages left undrained in any mailbox. Called by the
  /// runtime after all ranks joined cleanly. Throws VerifyError.
  void check_leaks();

  /// "kTagAssign(2)" when a tag namer is installed, else the bare number.
  std::string tag_label(int tag) const;

 private:
  struct CollectiveRecord {
    std::string op;
    int root = 0;
    int first_rank = 0;
  };

  /// Poisons every mailbox with `report`, records a kVerify trace event,
  /// and throws VerifyError. Caller holds mu_.
  [[noreturn]] void fail_locked(const std::string& report);

  /// Same, but poisons without throwing (for the stuck handler, which
  /// runs on the loop, outside every rank). Caller holds mu_.
  void flag_locked(const std::string& report);

  bool tag_registered(int tag) const;

  VerifyOptions opts_;
  Tracer* tracer_;
  std::vector<int> internal_tags_;

  mutable std::mutex mu_;
  bool disabled_ = false;
  std::vector<Mailbox*> mailboxes_;
  std::vector<bool> crashed_;
  std::vector<std::uint64_t> collective_seq_;
  std::vector<CollectiveRecord> collective_log_;
};

}  // namespace pioblast::mpisim
