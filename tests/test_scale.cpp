// Large-world smoke tests (ctest label: scale).
//
// These exist to keep the event loop honest at the scale it was built
// for: worlds of 1024+ ranks in one process, each rank a parked fiber
// rather than a kernel thread.
// Kept in their own binary so `ctest -L scale` runs exactly this file —
// CI's scale job pairs it with a 1024-rank fig3a tiny sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpisim/runtime.h"
#include "mpisim/verify.h"

namespace pioblast {
namespace {

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

TEST(Scale, ThousandRankCollectives) {
  const int nranks = 1024;
  std::vector<sim::Time> reduced(static_cast<std::size_t>(nranks), -1);
  const auto report = mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        p.compute(1e-6 * (p.rank() % 17));
        p.barrier();
        std::vector<std::uint8_t> blob;
        if (p.is_root()) blob.assign(32, 0x5A);
        p.bcast(blob, 0);
        ASSERT_EQ(blob.size(), 32u) << "rank " << p.rank();
        reduced[static_cast<std::size_t>(p.rank())] =
            p.allreduce_max(static_cast<sim::Time>(p.rank()));
      });
  ASSERT_EQ(report.ranks.size(), static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(reduced[static_cast<std::size_t>(r)],
              static_cast<sim::Time>(nranks - 1))
        << "rank " << r;
    EXPECT_GT(report.ranks[static_cast<std::size_t>(r)].final_clock, 0.0);
  }
}

TEST(Scale, ThousandRankWorkQueueDrains) {
  const int nranks = 1024;
  const std::uint32_t ntasks = 4096;
  std::vector<std::vector<std::uint32_t>> served(
      static_cast<std::size_t>(nranks));
  mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        if (p.is_root()) {
          auto sched =
              driver::make_scheduler(driver::SchedulerKind::kGreedyDynamic);
          driver::WorkerTopology topo;
          topo.nworkers = nranks - 1;
          topo.speed.assign(static_cast<std::size_t>(nranks - 1), 1.0);
          driver::serve_work(p, *sched, ntasks, topo, {}, nullptr);
        } else {
          while (auto task = driver::request_work<std::uint32_t>(
                     p,
                     [](std::uint32_t id, mpisim::Decoder&) { return id; })) {
            served[static_cast<std::size_t>(p.rank())].push_back(*task);
          }
        }
      });
  std::set<std::uint32_t> all;
  std::size_t total = 0;
  for (const auto& v : served) {
    all.insert(v.begin(), v.end());
    total += v.size();
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(ntasks));  // every task once
  EXPECT_EQ(total, static_cast<std::size_t>(ntasks));       // no duplicates
}

TEST(Scale, FourThousandRankBarrierTree) {
  // Pure tree traffic at the headline world size: O(P log P) messages on
  // one thread. Completing at all (and quickly) is the assertion.
  const int nranks = 4096;
  const auto report =
      mpisim::run(nranks, altix(), [](mpisim::Process& p) { p.barrier(); });
  EXPECT_EQ(report.ranks.size(), static_cast<std::size_t>(nranks));
  EXPECT_GT(report.makespan(), 0.0);
}

/// Runs a 4096-rank receive ring — every rank waits on its successor and
/// nobody sends — and returns the VerifyError the deadlock unwinds with.
std::string ring_deadlock_report(bool verify) {
  constexpr int kRanks = 4096;
  mpisim::RunOptions opts;
  opts.verify.enabled = verify;
  try {
    mpisim::run(
        kRanks, altix(),
        [](mpisim::Process& p) { p.recv((p.rank() + 1) % kRanks, 5); },
        opts);
  } catch (const mpisim::VerifyError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the ring completed without a VerifyError";
  return {};
}

TEST(Scale, FourThousandRankDeadlockNamedByVerifier) {
  const std::string report = ring_deadlock_report(/*verify=*/true);
  EXPECT_NE(report.find("all 4096 live ranks blocked"), std::string::npos)
      << report.substr(0, 200);
  EXPECT_NE(report.find("wait-for cycle: 0 -> 1 -> 2 -> "), std::string::npos)
      << report.substr(0, 200);
}

TEST(Scale, FourThousandRankDeadlockUnwoundWithVerifierOff) {
  const std::string report = ring_deadlock_report(/*verify=*/false);
  EXPECT_NE(report.find("scheduler stuck"), std::string::npos)
      << report.substr(0, 200);
  EXPECT_EQ(report.find("not claimed"), std::string::npos)
      << report.substr(0, 200);
}

}  // namespace
}  // namespace pioblast
