#include "mpisim/runtime.h"

#include <exception>
#include <memory>
#include <string>

#include "mpisim/event_loop.h"
#include "mpisim/verifier.h"
#include "mpisim/world.h"

namespace pioblast::mpisim {

sim::Time RunReport::makespan() const {
  sim::Time t = 0;
  for (const auto& r : ranks) t = std::max(t, r.final_clock);
  return t;
}

sim::Time RunReport::phase_total(const std::string& phase) const {
  sim::Time t = 0;
  for (const auto& r : ranks) t += r.phases.get(phase);
  return t;
}

sim::Time RunReport::phase_of(int rank, const std::string& phase) const {
  for (const auto& r : ranks)
    if (r.rank == rank) return r.phases.get(phase);
  return 0.0;
}

namespace {

/// One rank's whole life. Never throws: rank errors land in `first_error`
/// and poison the world.
void rank_body(World& world, const std::function<void(Process&)>& rank_fn,
               RankReport& rr, std::exception_ptr& first_error, int rank) {
  Process proc(rank, world);
  bool crashed = false;
  try {
    rank_fn(proc);
  } catch (const RankCrash& c) {
    // An injected crash is a simulated event, not a job error: retire
    // the rank (seals its mailbox, notifies rank 0 and its peers) and
    // let the survivors run on.
    crashed = true;
    world.crash_rank(rank, c.when);
  } catch (...) {
    if (!first_error) first_error = std::current_exception();
    world.abort();
  }
  rr.rank = rank;
  rr.phases = proc.phases();  // flushes the open phase
  rr.final_clock = proc.now();
  rr.bytes_sent = proc.bytes_sent();
  rr.messages_sent = proc.messages_sent();
  rr.crashed = crashed;
}

}  // namespace

RunReport run(int nranks, const sim::ClusterConfig& cluster,
              const std::function<void(Process&)>& rank_fn,
              const RunOptions& opts) {
  PIOBLAST_CHECK(nranks >= 1);
  World world(nranks, cluster);
  world.set_tracer(opts.tracer);
  world.set_fault_plan(opts.faults);
  if (opts.race != nullptr) {
    opts.race->start(nranks);
    world.set_race(opts.race);
  }
  if (opts.verify.enabled) {
    auto internal = Process::internal_tags();
    world.install_verifier(std::make_unique<ProtocolVerifier>(
        opts.verify, opts.tracer,
        std::vector<int>(internal.begin(), internal.end())));
  }
  // The one deadlock detector: when the loop finds no runnable rank but
  // blocked ones remain, the verifier (if on) poisons every mailbox with
  // its wait-for report; otherwise the loop's own report wakes them all,
  // so the job unwinds instead of hanging.
  EventLoop loop(nranks, {opts.schedule, opts.race},
                 [&world](const std::string& stuck) {
                   ProtocolVerifier* v = world.verifier();
                   if (v != nullptr && v->on_stuck()) return;
                   for (int r = 0; r < world.size(); ++r)
                     world.mailbox(r).poison(stuck, /*verify_failure=*/true);
                 });
  world.set_loop(&loop);

  RunReport report;
  report.ranks.resize(static_cast<std::size_t>(nranks));
  std::exception_ptr first_error;
  loop.run([&](int rank) {
    rank_body(world, rank_fn, report.ranks[static_cast<std::size_t>(rank)],
              first_error, rank);
  });

  if (first_error) std::rethrow_exception(first_error);
  if (ProtocolVerifier* v = world.verifier()) v->check_leaks();
  return report;
}

RunReport run(int nranks, const sim::ClusterConfig& cluster,
              const std::function<void(Process&)>& rank_fn, Tracer* tracer) {
  RunOptions opts;
  opts.tracer = tracer;
  return run(nranks, cluster, rank_fn, opts);
}

}  // namespace pioblast::mpisim
