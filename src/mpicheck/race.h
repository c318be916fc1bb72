// Happens-before + lockset race detector for simulated shared state.
//
// The runtime reports message edges (Process::send issues a token via
// RaceHook::on_send, carried in Message::hb; the receive joins it back via
// on_recv) and instrumented accesses to shared objects (Mailbox internals,
// RunMetrics accumulation, driver scheduler state, test shared variables).
// The detector keeps one vector clock per rank, advanced at send/recv
// edges, and remembers each object's last write and last read per rank as
// (rank, clock) epochs. Two conflicting accesses — same object, different
// ranks, at least one write — are a race when
//
//   * no happens-before edge orders them (the earlier epoch is not
//     covered by the later rank's vector clock), and
//   * their lockset intersection is empty (accesses that share a real
//     lock are synchronized by it even without a message edge; this is
//     what exempts the deliberately lock-protected RunMetrics counters).
//
// A detected race throws RaceError from the accessing rank; the runtime
// treats it like any rank failure (poison, unwind, rethrow), so the
// readable report reaches the caller as the job's error.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mpisim/hooks.h"
#include "mpisim/verify.h"

namespace pioblast::mpicheck {

/// A data-race report. Derives from VerifyError so every layer that
/// already surfaces protocol failures surfaces races the same way.
class RaceError : public mpisim::VerifyError {
 public:
  explicit RaceError(const std::string& what) : mpisim::VerifyError(what) {}
};

class RaceDetector final : public mpisim::RaceHook {
 public:
  struct Options {
    /// Throw RaceError at the racy access (default). When off, races are
    /// only counted and collected in reports() — used by sweeps that want
    /// every race in a schedule, not just the first.
    bool throw_on_race = true;
  };

  RaceDetector() = default;
  explicit RaceDetector(Options opts);

  // RaceHook ----------------------------------------------------------------
  void start(int nranks) override;
  std::uint64_t on_send(int src) override;
  void on_recv(int dst, std::uint64_t hb) override;
  void on_access(int rank, const void* obj, std::string_view what, bool write,
                 std::span<const void* const> locks) override;

  // Results -----------------------------------------------------------------
  std::uint64_t races_found() const;
  std::uint64_t accesses() const;
  std::vector<std::string> reports() const;

 private:
  /// One remembered access: the accessor's (rank, own-clock) epoch plus
  /// the locks it held and a label for reports.
  struct Epoch {
    int rank = -1;
    std::uint64_t clock = 0;
    std::vector<const void*> locks;
    std::string what;
  };

  struct ObjState {
    Epoch write;               ///< last write (rank == -1: none yet)
    std::vector<Epoch> reads;  ///< last read per rank (since last write)
  };

  /// True when the remembered epoch happened-before rank's present.
  bool ordered_locked(const Epoch& prev, int rank) const;

  static bool locks_disjoint(const Epoch& prev,
                             std::span<const void* const> locks);

  void report_locked(const Epoch& prev, int rank, std::string_view what,
                     bool write, const void* obj);

  Options opts_{};
  mutable std::mutex mu_;
  std::vector<std::vector<std::uint64_t>> vc_;  ///< vector clock per rank
  std::uint64_t next_token_ = 1;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> in_flight_;
  std::map<const void*, ObjState> objs_;
  std::uint64_t races_ = 0;
  std::uint64_t accesses_ = 0;
  std::vector<std::string> reports_;
};

}  // namespace pioblast::mpicheck
