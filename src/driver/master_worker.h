// MasterWorkerApp: the shared scaffold of every driver.
//
// Owns what used to be duplicated boilerplate in src/mpiblast and
// src/pioblast: launching the simulated job, the init stage (process
// startup + query broadcast), the final barrier, run summarization, wire
// accounting, and the RunMetrics registry whose snapshot becomes
// DriverResult::metrics.
//
// A driver subclasses it and overrides either master()/worker() (the
// default body() dispatches on rank) or body() itself when the protocol
// interleaves master and worker code textually (pioBLAST does, to keep its
// collective ordering in one place).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "blast/driver.h"
#include "blast/job.h"
#include "blast/query_set.h"
#include "driver/metrics.h"
#include "driver/run_config.h"
#include "driver/scheduler.h"
#include "mpisim/process.h"
#include "mpisim/trace.h"
#include "pario/env.h"
#include "sim/cluster.h"

namespace pioblast::driver {

class MasterWorkerApp {
 public:
  /// `config` is not copied and must outlive the app.
  MasterWorkerApp(const sim::ClusterConfig& cluster, int nprocs,
                  pario::ClusterStorage& storage, const blast::JobConfig& job,
                  std::shared_ptr<const blast::QuerySet> queries,
                  const RunConfig& config);

  virtual ~MasterWorkerApp() = default;

  MasterWorkerApp(const MasterWorkerApp&) = delete;
  MasterWorkerApp& operator=(const MasterWorkerApp&) = delete;

  /// Launches the simulated job: init stage, body, metric trace marks,
  /// final barrier; then summarizes phases, folds wire accounting into the
  /// metrics, and returns the DriverResult (metrics snapshot included).
  blast::DriverResult run();

  /// The events the last run() recorded, time-ordered: from the caller's
  /// tracer (which may also hold other runs' events), or from the one the
  /// app records itself when conformance is on and the caller gave none.
  /// Only valid when either exists.
  std::vector<mpisim::TraceEvent> trace() const;

 protected:
  /// Driver protocol. The default dispatches to master()/worker();
  /// override body() directly for interleaved protocols.
  virtual void body(mpisim::Process& p);
  virtual void master(mpisim::Process& p);
  virtual void worker(mpisim::Process& p);

  int nprocs() const { return nprocs_; }
  int nworkers() const { return nprocs_ - 1; }
  const sim::ClusterConfig& cluster() const { return cluster_; }
  pario::ClusterStorage& storage() { return storage_; }
  pario::VirtualFS& shared() { return storage_.shared(); }
  const blast::JobConfig& job() const { return job_; }
  const blast::QuerySet& queries() const { return *queries_; }
  RunMetrics& metrics() { return metrics_; }
  const WorkerTopology& topology() const { return topology_; }

 private:
  /// Init stage ("other"): process startup cost, then the master reads the
  /// query file and broadcasts it (all ranks participate).
  void init_stage(mpisim::Process& p);

  const sim::ClusterConfig& cluster_;
  int nprocs_;
  pario::ClusterStorage& storage_;
  const blast::JobConfig& job_;
  std::shared_ptr<const blast::QuerySet> queries_;
  const RunConfig& config_;
  /// Conformance needs the event stream; recorded here when the caller
  /// did not ask for a trace.
  mpisim::Tracer own_trace_;
  mpisim::Tracer* tracer_;
  std::size_t trace_begin_ = 0;  ///< tracer_->size() when run() started
  WorkerTopology topology_;
  RunMetrics metrics_;
};

}  // namespace pioblast::driver
