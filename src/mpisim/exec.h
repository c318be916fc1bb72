// Rank execution model label.
//
// Every job runs its ranks as stackful fibers on one scheduler thread (see
// event_loop.h); pure host compute may be offloaded to a thread pool with
// Process::offload. There is exactly one execution model, and nothing
// branches on this enum: it survives only as the provenance label the
// repository benchmark (perfbench/) reads from the driver options and
// RunOptions.
#pragma once

namespace pioblast::mpisim {

enum class ExecModel {
  kEvents,  ///< one scheduler thread; ranks are stackful fibers
};

/// "events".
inline const char* to_string(ExecModel) { return "events"; }

}  // namespace pioblast::mpisim
