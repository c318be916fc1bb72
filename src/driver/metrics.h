// Structured run metrics: one named-counter registry per driver run.
//
// Replaces the per-driver trios of ad-hoc std::atomic counters. Any rank
// can bump a counter by name during the run; after the run the
// snapshot flows into blast::DriverResult::metrics, is mirrored into the
// trace stream as `metric <name>=<value>` marks, and can be emitted as one
// machine-readable JSON line (CLI --metrics, bench METRICS lines).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace pioblast::driver {

/// Canonical counter names shared by both drivers, so downstream tooling
/// can rely on them regardless of which driver produced a result.
inline constexpr std::string_view kMetricCandidatesMerged = "candidates_merged";
inline constexpr std::string_view kMetricAlignmentsReported =
    "alignments_reported";
inline constexpr std::string_view kMetricOutputBytes = "output_bytes";
inline constexpr std::string_view kMetricFragmentsSearched =
    "fragments_searched";
inline constexpr std::string_view kMetricHspsCached = "hsps_cached";
inline constexpr std::string_view kMetricTasksAssigned = "tasks_assigned";
inline constexpr std::string_view kMetricWireBytes = "wire_bytes_sent";
inline constexpr std::string_view kMetricWireMessages = "wire_messages_sent";

// pario v2 list-I/O counters (emitted by runs that fetch fragment ranges
// through driver::read_fragment_ranges): how many ranges were requested,
// how many device reads actually reached the storage model after request
// merging and data sieving, and the wanted-vs-transferred byte volumes
// (bytes_read > bytes_wanted means sieving paid for bridged holes).
inline constexpr std::string_view kMetricParioListRequests =
    "pario_list_requests";
inline constexpr std::string_view kMetricParioDeviceReads =
    "pario_device_reads";
inline constexpr std::string_view kMetricParioBytesWanted =
    "pario_bytes_wanted";
inline constexpr std::string_view kMetricParioBytesRead = "pario_bytes_read";

// Fault-tolerance counters (only emitted by fault-tolerant runs).
inline constexpr std::string_view kMetricTasksReassigned = "tasks_reassigned";
inline constexpr std::string_view kMetricRanksLost = "ranks_lost";
inline constexpr std::string_view kMetricRecoveryUsec = "recovery_usec";

/// Thread-safe named-counter registry. Counters spring into existence on
/// first touch; snapshots are name-ordered, so output is deterministic.
class RunMetrics {
 public:
  /// Accumulates `delta` into counter `name`.
  void add(std::string_view name, std::uint64_t delta);

  /// Overwrites counter `name` with `value`.
  void set(std::string_view name, std::uint64_t value);

  /// Current value (0 for counters never touched).
  std::uint64_t get(std::string_view name) const;

  /// Name-ordered copy of every counter.
  std::map<std::string, std::uint64_t> snapshot() const;

  /// One-line JSON object, keys sorted: {"alignments_reported":12,...}
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

/// Renders a counter snapshot (e.g. DriverResult::metrics) as the same
/// one-line JSON object RunMetrics::to_json produces.
std::string metrics_json(const std::map<std::string, std::uint64_t>& counters);

}  // namespace pioblast::driver
