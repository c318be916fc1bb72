// Event-loop tests (ctest label: events).
//
// The contract under test: the fiber event loop (mpisim/event_loop.h) is
// deterministic. Running the same job twice gives bit-identical virtual
// clocks, message counters, traces, and driver output files; the protocol
// verifier, fault injection, and the stuck handler behave the same every
// time; and a CoopScheduler chooser produces the same decision records on
// every run, so mpicheck schedules replay byte-for-byte.
//
// Process::offload is held to the same contract: closures run on a host
// thread pool with deliberately skewed durations must leave traces and
// clocks identical to an inline run, exceptions must reach the caller of
// mpisim::run, and under a chooser the closure runs inline.
//
// Also here: correctness of the binomial-tree collectives (barrier, bcast,
// allreduce_max) at non-power-of-two world sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blast/job.h"
#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpicheck/coop.h"
#include "mpicheck/explore.h"
#include "mpisim/fault.h"
#include "mpisim/runtime.h"
#include "pario/env.h"
#include "pioblast/pioblast.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"
#include "util/error.h"

namespace pioblast {
namespace {

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

// ---------- run-twice determinism ------------------------------------------

/// A mixed workload touching every suspension path: point-to-point rings,
/// fan-in at the root, all four collectives, and per-rank compute skew.
void mixed_job(mpisim::Process& p) {
  const int n = p.size();
  p.compute(1e-4 * (p.rank() + 1));
  // Ring: everyone sends right, receives from the left.
  const std::uint8_t byte = static_cast<std::uint8_t>(p.rank());
  p.send((p.rank() + 1) % n, 5, std::span(&byte, 1));
  p.recv((p.rank() - 1 + n) % n, 5);
  // Fan-in at rank 0, matched per source.
  if (p.is_root()) {
    for (int i = 1; i < n; ++i) p.recv(i, 6);
  } else {
    p.send(0, 6, {});
  }
  p.barrier();
  std::vector<std::uint8_t> blob;
  if (p.rank() == 1 % n) blob.assign(64, 0xAB);
  p.bcast(blob, 1 % n);
  p.gather(std::span(&byte, 1), 0);
  p.allreduce_max(static_cast<sim::Time>(p.rank()));
}

mpisim::RunReport run_mixed(int nranks) {
  return mpisim::run(nranks, altix(), mixed_job, mpisim::RunOptions{});
}

void expect_same_ranks(const mpisim::RunReport& a, const mpisim::RunReport& b,
                       const std::string& what) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size()) << what;
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    // Exact, not NEAR: both runs must execute the identical event
    // sequence, so the floating-point clocks agree bit for bit.
    EXPECT_EQ(a.ranks[r].final_clock, b.ranks[r].final_clock)
        << what << " rank " << r;
    EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent)
        << what << " rank " << r;
    EXPECT_EQ(a.ranks[r].messages_sent, b.ranks[r].messages_sent)
        << what << " rank " << r;
    EXPECT_EQ(a.ranks[r].crashed, b.ranks[r].crashed) << what << " rank " << r;
  }
}

TEST(EventBackend, ClocksAndCountersRepeatExactly) {
  // Non-power-of-two and power-of-two worlds: the binomial trees take
  // different shapes, the property must hold for both.
  for (int nranks : {2, 3, 5, 7, 8, 13}) {
    const auto first = run_mixed(nranks);
    const auto second = run_mixed(nranks);
    expect_same_ranks(first, second, std::to_string(nranks) + " ranks");
    EXPECT_EQ(first.makespan(), second.makespan()) << nranks;
  }
}

TEST(EventBackend, PioBlastOutputBytesRepeat) {
  seqdb::GeneratorConfig gen;
  gen.target_residues = 60u << 10;
  gen.seed = 11;
  const auto db = seqdb::generate_database(gen);
  const std::string queries =
      seqdb::write_fasta(seqdb::sample_queries(db, 1024, 3));
  auto run_one = [&] {
    pario::ClusterStorage storage(altix(), 4);
    storage.shared().write_all(
        "queries.fa",
        std::span(reinterpret_cast<const std::uint8_t*>(queries.data()),
                  queries.size()));
    seqdb::format_db(storage.shared(), db, "db", seqdb::SeqType::kProtein,
                     "tiny");
    pio::PioBlastOptions opts;
    opts.job.db_base = "db";
    opts.job.query_path = "queries.fa";
    opts.job.output_path = "out.txt";
    opts.job.params = blast::SearchParams::blastp_defaults();
    pio::run_pioblast(altix(), 4, storage, opts);
    return storage.shared().read_all("out.txt");
  };
  const auto baseline = run_one();
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run_one(), baseline);
}

// ---------- tree collectives at non-power-of-two sizes ---------------------

TEST(TreeCollectives, CorrectAtAwkwardWorldSizes) {
  for (int nranks : {2, 3, 5, 6, 7, 9, 12, 17}) {
    const int root = nranks - 1;  // non-zero root exercises renumbering
    std::vector<std::vector<std::uint8_t>> bcast_got(
        static_cast<std::size_t>(nranks));
    std::vector<sim::Time> reduce_got(static_cast<std::size_t>(nranks), -1);
    mpisim::run(nranks, altix(), [&](mpisim::Process& p) {
      p.barrier();
      std::vector<std::uint8_t> blob;
      if (p.rank() == root) blob = {1, 2, 3, 4};
      p.bcast(blob, root);
      bcast_got[static_cast<std::size_t>(p.rank())] = blob;
      // Skewed clocks make the max distinctive before the reduce.
      p.compute(1e-3 * (p.rank() + 1));
      reduce_got[static_cast<std::size_t>(p.rank())] =
          p.allreduce_max(static_cast<sim::Time>(100 + p.rank()));
    });
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(bcast_got[static_cast<std::size_t>(r)],
                (std::vector<std::uint8_t>{1, 2, 3, 4}))
          << "bcast " << nranks << " rank " << r;
      EXPECT_EQ(reduce_got[static_cast<std::size_t>(r)],
                static_cast<sim::Time>(100 + nranks - 1))
          << "allreduce " << nranks << " rank " << r;
    }
  }
}

TEST(TreeCollectives, BarrierSynchronizesSkewedClocks) {
  // After a barrier no rank's clock may precede the latest pre-barrier
  // clock: the slowest rank gates the release on the tree as on the flat
  // topology.
  for (int nranks : {3, 6, 11}) {
    std::vector<sim::Time> before(static_cast<std::size_t>(nranks));
    std::vector<sim::Time> after(static_cast<std::size_t>(nranks));
    mpisim::run(nranks, altix(), [&](mpisim::Process& p) {
      p.compute(1e-3 * (nranks - p.rank()));  // rank 0 is the straggler
      before[static_cast<std::size_t>(p.rank())] = p.now();
      p.barrier();
      after[static_cast<std::size_t>(p.rank())] = p.now();
    });
    const sim::Time slowest = *std::max_element(before.begin(), before.end());
    for (int r = 0; r < nranks; ++r) {
      EXPECT_GE(after[static_cast<std::size_t>(r)], slowest)
          << nranks << " rank " << r;
    }
  }
}

// ---------- verifier, faults, and the stuck path ---------------------------

void deadlock_job(mpisim::Process& p) {
  if (p.rank() == 1) p.recv(0, 5);  // nobody ever sends
}

TEST(EventBackend, VerifierReportsDeadlock) {
  EXPECT_THROW(mpisim::run(2, altix(), deadlock_job), mpisim::VerifyError);
}

TEST(EventBackend, StuckHandlerUnwindsWedgeWithVerifierOff) {
  // With the verifier off a wedged job has nobody to call deadlock; the
  // event loop's stuck handler must poison the blocked receives so the
  // job unwinds with a report instead of spinning forever.
  mpisim::RunOptions opts;
  opts.verify.enabled = false;
  try {
    mpisim::run(2, altix(), deadlock_job, opts);
    FAIL() << "wedged job returned";
  } catch (const mpisim::VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("scheduler stuck"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
  }
}

TEST(EventBackend, CrashFaultRetiresRankAndSurvivorsFinish) {
  mpisim::RunOptions opts;
  opts.faults.at(2).crash_at = 1;  // dies at its gather send
  std::vector<std::vector<std::uint8_t>> gathered;
  const auto report = mpisim::run(
      3, altix(),
      [&](mpisim::Process& p) {
        const std::uint8_t byte = static_cast<std::uint8_t>(0x40 + p.rank());
        auto slots = p.gather(std::span(&byte, 1), 0);
        if (p.is_root()) gathered = std::move(slots);
        p.barrier();
      },
      opts);
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_FALSE(report.ranks[0].crashed);
  EXPECT_TRUE(report.ranks[2].crashed);
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_EQ(gathered[1], (std::vector<std::uint8_t>{0x41}));
  EXPECT_TRUE(gathered[2].empty());
}

TEST(EventBackend, FaultRunClocksRepeat) {
  auto run_one = [] {
    mpisim::RunOptions opts;
    opts.faults.at(2).crash_at = 2;
    opts.faults.at(1).slow = 3.0;
    return mpisim::run(
        4, altix(),
        [](mpisim::Process& p) {
          p.compute(1e-4);
          p.barrier();
          p.gather({}, 0);
        },
        opts);
  };
  const auto first = run_one();
  EXPECT_TRUE(first.ranks[2].crashed);
  expect_same_ranks(first, run_one(), "fault run");
}

// ---------- CoopScheduler as the event loop's chooser ----------------------

/// Two workers race their messages to an any-source master; every
/// interleaving is legal, so the decision stream is pure scheduler state.
void fan_in_job(mpisim::Process& p) {
  constexpr int kTag = 7;
  if (p.rank() == 0) {
    p.recv(mpisim::kAnySource, kTag);
    p.recv(mpisim::kAnySource, kTag);
  } else {
    p.send(0, kTag, {});
  }
  p.barrier();
}

std::vector<mpicheck::DecisionRecord> coop_records(
    const mpicheck::CoopScheduler::Chooser& chooser) {
  mpicheck::CoopScheduler coop(chooser);
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  mpisim::run(3, altix(), fan_in_job, opts);
  return coop.records();
}

void expect_same_records(const std::vector<mpicheck::DecisionRecord>& a,
                         const std::vector<mpicheck::DecisionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].chosen, b[i].chosen) << "decision " << i;
    EXPECT_EQ(a[i].enabled, b[i].enabled) << "decision " << i;
    ASSERT_EQ(a[i].ops.size(), b[i].ops.size()) << "decision " << i;
    for (std::size_t j = 0; j < a[i].ops.size(); ++j) {
      EXPECT_EQ(a[i].ops[j].rank, b[i].ops[j].rank) << i << "," << j;
      EXPECT_EQ(a[i].ops[j].kind, b[i].ops[j].kind) << i << "," << j;
      EXPECT_EQ(a[i].ops[j].peer, b[i].ops[j].peer) << i << "," << j;
      EXPECT_EQ(a[i].ops[j].tag, b[i].ops[j].tag) << i << "," << j;
    }
  }
}

TEST(CoopOnEvents, DecisionRecordsRepeat) {
  {
    const auto first = coop_records(mpicheck::CoopScheduler::first_enabled());
    const auto second = coop_records(mpicheck::CoopScheduler::first_enabled());
    ASSERT_FALSE(first.empty());
    expect_same_records(first, second);
  }
  const std::uint64_t seeds[] = {1, 42, 2026};
  for (std::uint64_t seed : seeds) {
    const auto first = coop_records(mpicheck::CoopScheduler::random(seed));
    const auto second = coop_records(mpicheck::CoopScheduler::random(seed));
    ASSERT_FALSE(first.empty()) << "seed " << seed;
    expect_same_records(first, second);
  }
}

TEST(CoopOnEvents, RecordedScheduleReplays) {
  mpicheck::CoopScheduler recorder(mpicheck::CoopScheduler::random(7));
  mpisim::RunOptions opts;
  opts.schedule = &recorder;
  mpisim::run(3, altix(), fan_in_job, opts);
  ASSERT_FALSE(recorder.records().empty());

  mpicheck::CoopScheduler replayer(
      mpicheck::CoopScheduler::forced(recorder.schedule()));
  opts.schedule = &replayer;
  mpisim::run(3, altix(), fan_in_job, opts);
  expect_same_records(recorder.records(), replayer.records());
}

TEST(CoopOnEvents, CheckerStatisticsRepeat) {
  // The explorer's whole decision tree — random sweep, preemption sweep,
  // DPOR pruning — must come out the same on every run, because the
  // decision streams feeding it do.
  const mpicheck::Checker::Job job = [](mpisim::ScheduleHook* schedule,
                                        mpisim::RaceHook* race) {
    mpisim::RunOptions opts;
    opts.schedule = schedule;
    opts.race = race;
    mpisim::run(3, altix(), fan_in_job, opts);
  };
  mpicheck::CheckOptions copts;
  copts.random_schedules = 25;
  copts.preemption_bound = 1;
  copts.max_schedules = 300;
  const auto first = mpicheck::Checker(job, copts).run();
  const auto second = mpicheck::Checker(job, copts).run();
  EXPECT_EQ(mpicheck::summary(second), mpicheck::summary(first));
  EXPECT_FALSE(first.failed);
  EXPECT_GT(first.schedules_explored, 0);
}

// ---------- direct EventLoop edge: stuck fires once ------------------------

TEST(EventLoopUnit, WentStuckReflectsWedge) {
  mpicheck::CoopScheduler coop;  // observes stuck() on a wedge
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  mpisim::run(3, altix(), fan_in_job, opts);  // completes: no stuck
  EXPECT_FALSE(coop.went_stuck());
  opts.verify.enabled = false;
  EXPECT_THROW(mpisim::run(2, altix(), deadlock_job, opts),
               mpisim::VerifyError);
  EXPECT_TRUE(coop.went_stuck());
}

// ---------- Process::offload ------------------------------------------------

TEST(Offload, ExceptionReachesRunCaller) {
  try {
    mpisim::run(4, altix(), [](mpisim::Process& p) {
      p.offload([&p] {
        if (p.rank() == 2) throw std::runtime_error("offloaded failure");
      });
      p.barrier();
    });
    FAIL() << "offloaded exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "offloaded failure");
  }
}

/// Each rank offloads a closure whose host duration is skewed against
/// submission order — rank r sleeps (n - r) ms, so rank 1 finishes last —
/// then charges a rank-dependent cost and talks to its neighbours and to
/// the root. With `offloaded` false the same closure runs inline. With
/// `any_source` the root takes the fan-in in whatever order the loop
/// delivers it, which pins the resume order itself: a run whose root
/// matched in host-completion order would change its clocks.
void skewed_job(mpisim::Process& p, bool offloaded, bool any_source) {
  const int n = p.size();
  std::uint64_t units = 0;
  auto work = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(n - p.rank()));
    units = 10 + 7 * static_cast<std::uint64_t>(p.rank());
  };
  if (offloaded) {
    p.offload(work);
  } else {
    work();
  }
  p.compute(1e-5 * static_cast<double>(units));
  const std::uint8_t byte = static_cast<std::uint8_t>(p.rank());
  p.send((p.rank() + 1) % n, 5, std::span(&byte, 1));
  p.recv((p.rank() - 1 + n) % n, 5);
  if (p.is_root()) {
    for (int i = 1; i < n; ++i) p.recv(any_source ? mpisim::kAnySource : i, 6);
  } else {
    p.send(0, 6, {});
  }
  p.barrier();
}

struct TracedRun {
  mpisim::RunReport report;
  std::string trace;
};

TracedRun run_skewed(bool offloaded, bool any_source) {
  mpisim::Tracer tracer;
  TracedRun out;
  out.report = mpisim::run(
      6, altix(),
      [&](mpisim::Process& p) { skewed_job(p, offloaded, any_source); },
      &tracer);
  std::ostringstream os;
  tracer.render(os, std::numeric_limits<std::size_t>::max());
  out.trace = os.str();
  return out;
}

TEST(Offload, SkewedHostDurationsMatchInlineRun) {
  const TracedRun inline_run = run_skewed(false, false);
  const TracedRun offloaded = run_skewed(true, false);
  ASSERT_FALSE(inline_run.trace.empty());
  EXPECT_EQ(offloaded.trace, inline_run.trace);
  expect_same_ranks(offloaded.report, inline_run.report, "offload vs inline");
  // Any-source fan-in: the match order is the loop's, so two offloaded
  // runs must still agree event for event.
  const TracedRun first = run_skewed(true, true);
  const TracedRun second = run_skewed(true, true);
  EXPECT_EQ(second.trace, first.trace);
  expect_same_ranks(second.report, first.report, "offload run twice");
}

TEST(Offload, ChooserRunsClosureInlineAndScheduleReplays) {
  const auto loop_thread = std::this_thread::get_id();
  auto job = [&](mpisim::Process& p) {
    p.offload([&] { EXPECT_EQ(std::this_thread::get_id(), loop_thread); });
    fan_in_job(p);
  };
  mpicheck::CoopScheduler recorder(mpicheck::CoopScheduler::random(11));
  mpisim::RunOptions opts;
  opts.schedule = &recorder;
  mpisim::run(3, altix(), job, opts);
  ASSERT_FALSE(recorder.records().empty());

  mpicheck::CoopScheduler replayer(
      mpicheck::CoopScheduler::forced(recorder.schedule()));
  opts.schedule = &replayer;
  mpisim::run(3, altix(), job, opts);
  expect_same_records(recorder.records(), replayer.records());
}

}  // namespace
}  // namespace pioblast
