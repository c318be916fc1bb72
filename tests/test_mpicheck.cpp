// Tests for mpicheck (ctest label: mpicheck): the deterministic
// schedule chooser, schedule traces and replay, the systematic
// explorer (seeded random, preemption-bounded, sleep-set DPOR-lite) with
// failing-trace shrinking, and the happens-before + lockset race
// detector.
//
// The two seeded interleaving bugs required by the roadmap live here: a
// reordered collective and a lost-wakeup serve-loop variant. Both pass
// the canonical baseline schedule — a single default run misses them —
// and both are found, shrunk, and replayed by the explorer.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "driver/metrics.h"
#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpiblast/mpiblast.h"
#include "mpicheck/coop.h"
#include "mpicheck/explore.h"
#include "mpicheck/race.h"
#include "mpicheck/schedule.h"
#include "mpisim/fault.h"
#include "mpisim/mailbox.h"
#include "mpisim/runtime.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/error.h"

namespace pioblast::mpicheck {
namespace {

sim::ClusterConfig test_cluster() { return sim::ClusterConfig::ornl_altix(); }

using RankFn = std::function<void(mpisim::Process&)>;

/// Wraps a plain rank function as a re-runnable Checker job.
Checker::Job job_of(int nranks, RankFn fn, mpisim::FaultPlan faults = {}) {
  return [nranks, fn = std::move(fn), faults = std::move(faults)](
             mpisim::ScheduleHook* schedule, mpisim::RaceHook* race) {
    mpisim::RunOptions opts;
    opts.faults = faults;
    opts.schedule = schedule;
    opts.race = race;
    mpisim::run(nranks, test_cluster(), fn, opts);
  };
}

/// The chosen-rank sequence of a completed coop run.
std::vector<int> chosen_of(const CoopScheduler& coop) {
  std::vector<int> out;
  for (const DecisionRecord& d : coop.records()) out.push_back(d.chosen);
  return out;
}

// ---------- schedule traces ------------------------------------------------

TEST(ScheduleTrace, FormatParseRoundTrip) {
  Schedule s;
  s.push_back(Decision{0, {}});
  s.push_back(Decision{2, {}});
  s.push_back(Decision{1, {}});
  const std::string text = format_schedule(s);
  EXPECT_EQ(text, "0,2,1");
  const Schedule back = parse_schedule(text);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].rank, 0);
  EXPECT_EQ(back[1].rank, 2);
  EXPECT_EQ(back[2].rank, 1);
}

TEST(ScheduleTrace, ParseRejectsGarbage) {
  EXPECT_THROW(parse_schedule("0,x,1"), util::RuntimeError);
  EXPECT_THROW(parse_schedule("0,,1"), util::RuntimeError);
  EXPECT_THROW(parse_schedule("-3"), util::RuntimeError);
}

// ---------- schedule chooser: determinism and replay -----------------------

/// Two workers race their messages to an any-source master; every
/// interleaving is legal, so this job only probes determinism.
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

std::vector<int> run_fan_in(const CoopScheduler::Chooser& chooser) {
  CoopScheduler coop(chooser);
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  mpisim::run(3, test_cluster(), fan_in_job, opts);
  return chosen_of(coop);
}

TEST(CoopScheduler, SameSeedSameTrace) {
  const auto a = run_fan_in(CoopScheduler::random(42));
  const auto b = run_fan_in(CoopScheduler::random(42));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(CoopScheduler, ForcedReplayReproducesEveryDecision) {
  CoopScheduler first(CoopScheduler::random(5));
  mpisim::RunOptions opts;
  opts.schedule = &first;
  mpisim::run(3, test_cluster(), fan_in_job, opts);
  ASSERT_FALSE(first.records().empty());

  CoopScheduler replay(CoopScheduler::forced(first.schedule()));
  opts.schedule = &replay;
  mpisim::run(3, test_cluster(), fan_in_job, opts);
  EXPECT_EQ(chosen_of(first), chosen_of(replay));
}

TEST(CoopScheduler, RecordsOnlyMultiChoicePoints) {
  CoopScheduler coop;  // baseline: lowest runnable rank
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  mpisim::run(3, test_cluster(), fan_in_job, opts);
  for (const DecisionRecord& d : coop.records()) {
    EXPECT_GE(d.enabled.size(), 2u);
    EXPECT_EQ(d.enabled.size(), d.ops.size());
    EXPECT_TRUE(std::find(d.enabled.begin(), d.enabled.end(), d.chosen) !=
                d.enabled.end());
  }
}

TEST(CoopScheduler, StuckHandlerFiresOnDeadlockWithVerifierOff) {
  // A receive cycle with the verifier disabled: only the scheduler's
  // no-runnable-but-blocked backstop can unwedge the run.
  CoopScheduler coop;
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  opts.verify.enabled = false;
  EXPECT_THROW(mpisim::run(
                   2, test_cluster(),
                   [](mpisim::Process& p) {
                     p.recv(1 - p.rank(), 3);
                   },
                   opts),
               mpisim::VerifyError);
  EXPECT_TRUE(coop.went_stuck());
}

// ---------- seeded bug 1: reordered collective -----------------------------

/// The master derives its collective order from the *arrival order* of
/// any-source messages: if worker 2's hello overtakes worker 1's, the
/// master issues barrier-before-bcast while every worker issues
/// bcast-before-barrier. Classic nondeterministic protocol bug — latent
/// under the baseline schedule, where worker 1 always runs first.
void reordered_collective_job(mpisim::Process& p) {
  constexpr int kTagHello = 7;
  std::vector<std::uint8_t> blob;
  if (p.rank() == 0) {
    const mpisim::Message first = p.recv(mpisim::kAnySource, kTagHello);
    p.recv(mpisim::kAnySource, kTagHello);
    if (first.src == 1) {
      p.bcast(blob, 0);
      p.barrier();
    } else {
      p.barrier();  // BUG: collective order depends on message arrival
      p.bcast(blob, 0);
    }
  } else {
    p.send(0, kTagHello, {});
    p.bcast(blob, 0);
    p.barrier();
  }
}

TEST(SeededBugs, ReorderedCollectivePassesTheBaselineSchedule) {
  CoopScheduler coop;  // canonical baseline: lowest runnable rank
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  EXPECT_NO_THROW(
      mpisim::run(3, test_cluster(), reordered_collective_job, opts));
}

TEST(SeededBugs, ReorderedCollectiveFoundShrunkAndReplayed) {
  CheckOptions copts;
  copts.random_schedules = 20;
  copts.seed = 3;
  copts.preemption_bound = 2;
  copts.dpor = true;
  copts.max_schedules = 200;
  Checker checker(job_of(3, reordered_collective_job), copts);
  const CheckResult res = checker.run();

  ASSERT_TRUE(res.failed) << summary(res);
  EXPECT_EQ(res.failure_kind, "verify");
  EXPECT_NE(res.error.find("collective order mismatch"), std::string::npos)
      << res.error;
  ASSERT_FALSE(res.failing_trace.empty());
  // The shrunk witness is tiny: one early boost of worker 2 suffices.
  EXPECT_LE(res.failing.size(), 4u) << res.failing_trace;

  // The minimized trace replays to the same failure, deterministically.
  CheckOptions ropts;
  ropts.replay_trace = res.failing_trace;
  Checker replayer(job_of(3, reordered_collective_job), ropts);
  const CheckResult replay = replayer.run();
  EXPECT_EQ(replay.schedules_explored, 1);
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.failure_kind, "verify");
  EXPECT_NE(replay.error.find("collective order mismatch"), std::string::npos);
}

// ---------- seeded bug 2: lost-wakeup serve loop ---------------------------

/// A deliberately buggy miniature of driver::serve_work's wait loop: the
/// master blocks for worker 2's request but only *polls* for worker 1's
/// instead of blocking until every worker is answered. When the poll runs
/// before worker 1's send, the master retires early: worker 1's request
/// leaks and worker 1 waits forever for a reply — a lost wakeup.
void lost_wakeup_serve_job(mpisim::Process& p) {
  constexpr int kTagReq = 9;
  constexpr int kTagRetire = 10;
  if (p.rank() == 0) {
    p.recv(2, kTagReq);
    // BUG: check-then-exit instead of a blocking receive.
    const auto early = p.world().mailbox(0).try_pop(1, kTagReq);
    p.send(2, kTagRetire, {});
    if (early.has_value()) p.send(1, kTagRetire, {});
  } else {
    p.send(0, kTagReq, {});
    p.recv(0, kTagRetire);
  }
}

TEST(SeededBugs, LostWakeupPassesTheBaselineSchedule) {
  CoopScheduler coop;
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  EXPECT_NO_THROW(mpisim::run(3, test_cluster(), lost_wakeup_serve_job, opts));
}

TEST(SeededBugs, LostWakeupFoundByPreemptionSweepAndReplayed) {
  // Random phase off: the preemption-bounded sweep alone must catch this
  // (one forced boost of worker 2 at the first decision triggers it).
  CheckOptions copts;
  copts.random_schedules = 0;
  copts.preemption_bound = 1;
  copts.dpor = false;
  copts.max_schedules = 100;
  Checker checker(job_of(3, lost_wakeup_serve_job), copts);
  const CheckResult res = checker.run();

  ASSERT_TRUE(res.failed) << summary(res);
  EXPECT_EQ(res.failure_kind, "verify");
  ASSERT_FALSE(res.failing_trace.empty());

  CheckOptions ropts;
  ropts.replay_trace = res.failing_trace;
  Checker replayer(job_of(3, lost_wakeup_serve_job), ropts);
  const CheckResult replay = replayer.run();
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.failure_kind, "verify");
}

// ---------- race detector --------------------------------------------------

int g_shared = 0;  // address identity for annotations; value unused

TEST(RaceDetection, FlagsUnorderedConflictingWrites) {
  CoopScheduler coop;
  RaceDetector det;
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  opts.race = &det;
  EXPECT_THROW(mpisim::run(
                   2, test_cluster(),
                   [](mpisim::Process& p) {
                     p.annotate_write(&g_shared, p.rank() == 0
                                                     ? "left write"
                                                     : "right write");
                     p.barrier();  // synchronizes too late
                   },
                   opts),
               RaceError);
  EXPECT_GE(det.races_found(), 1u);
  const std::vector<std::string> reports = det.reports();
  ASSERT_FALSE(reports.empty());
  const std::string& report = reports.front();
  EXPECT_NE(report.find("race"), std::string::npos) << report;
  EXPECT_NE(report.find("write"), std::string::npos) << report;
}

TEST(RaceDetection, MessageEdgeOrdersTheAccesses) {
  CoopScheduler coop;
  RaceDetector det;
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  opts.race = &det;
  EXPECT_NO_THROW(mpisim::run(
      2, test_cluster(),
      [](mpisim::Process& p) {
        constexpr int kTag = 5;
        if (p.rank() == 0) {
          p.annotate_write(&g_shared, "producer");
          p.send(1, kTag, {});
        } else {
          p.recv(0, kTag);
          p.annotate_write(&g_shared, "consumer");
        }
      },
      opts));
  EXPECT_EQ(det.races_found(), 0u);
  EXPECT_GE(det.accesses(), 2u);
}

TEST(RaceDetection, BarrierOrdersPreFromPostAccesses) {
  CoopScheduler coop;
  RaceDetector det;
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  opts.race = &det;
  EXPECT_NO_THROW(mpisim::run(
      3, test_cluster(),
      [](mpisim::Process& p) {
        if (p.rank() == 0) p.annotate_write(&g_shared, "before barrier");
        p.barrier();
        if (p.rank() == 2) p.annotate_write(&g_shared, "after barrier");
      },
      opts));
  EXPECT_EQ(det.races_found(), 0u);
}

TEST(RaceDetection, SharedLockExemptsUnorderedAccesses) {
  // RunMetrics counters are bumped from every rank with no message edge;
  // the mutex identity passed by its annotations is what keeps that legal
  // (the claim documented in driver/metrics.cpp).
  driver::RunMetrics metrics;
  CoopScheduler coop;
  RaceDetector det;
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  opts.race = &det;
  EXPECT_NO_THROW(mpisim::run(
      3, test_cluster(),
      [&metrics](mpisim::Process& p) {
        metrics.add("bumps", static_cast<std::uint64_t>(p.rank()) + 1);
        p.barrier();
      },
      opts));
  EXPECT_EQ(det.races_found(), 0u);
  EXPECT_EQ(metrics.get("bumps"), 6u);
}

TEST(RaceDetection, CountingModeCollectsWithoutThrowing) {
  RaceDetector::Options dopts;
  dopts.throw_on_race = false;
  RaceDetector det(dopts);
  CoopScheduler coop;
  mpisim::RunOptions opts;
  opts.schedule = &coop;
  opts.race = &det;
  EXPECT_NO_THROW(mpisim::run(
      2, test_cluster(),
      [](mpisim::Process& p) {
        p.annotate_write(&g_shared, "unsynchronized");
        p.barrier();
      },
      opts));
  EXPECT_GE(det.races_found(), 1u);
}

// ---------- explorer: DPOR pruning and clean sweeps ------------------------

TEST(Explorer, DporPrunesIndependentInterleavingsAndExhaustsTheTree) {
  // A relay with two concurrently-pending sends into different mailboxes:
  // interleavings that only swap them are provably equivalent, so the
  // sleep-set sweep must skip some siblings and still cover the whole
  // tree well under the schedule cap.
  auto job = job_of(3, [](mpisim::Process& p) {
    constexpr int kTag = 4;
    if (p.rank() == 0) p.recv(1, kTag);
    if (p.rank() == 1) {
      p.send(0, kTag, {});
      p.recv(2, kTag);
    }
    if (p.rank() == 2) p.send(1, kTag, {});
  });
  CheckOptions copts;
  copts.random_schedules = 0;
  copts.preemption_bound = -1;
  copts.dpor = true;
  copts.max_schedules = 600;
  const CheckResult res = Checker(job, copts).run();
  EXPECT_FALSE(res.failed) << res.error;
  EXPECT_GT(res.schedules_pruned, 0) << summary(res);
  EXPECT_GT(res.schedules_explored, 1);
  // The sweep terminated because the tree was exhausted, not the budget.
  EXPECT_LT(res.schedules_explored, copts.max_schedules) << summary(res);
  EXPECT_EQ(res.races_found, 0u);
}

TEST(Explorer, SummaryIsOneStableLine) {
  CheckResult res;
  res.schedules_explored = 12;
  res.schedules_pruned = 3;
  res.max_decisions = 40;
  res.races_found = 0;
  EXPECT_EQ(summary(res),
            "CHECK schedules=12 pruned=3 max_decisions=40 races=0 result=ok");
  res.failed = true;
  res.failure_kind = "verify";
  res.failing_trace = "2,2";
  EXPECT_EQ(summary(res),
            "CHECK schedules=12 pruned=3 max_decisions=40 races=0 "
            "result=verify trace=2,2");
}

// ---------- crash notices racing a wait under forced schedules -------------

/// A worker crash racing the master's any-source wait: under adversarial
/// schedules the failure detector's notice may land before the master
/// parks or while it is parked. Either way the master finds it or is
/// woken by its push, so the loop never reaches its stuck point and no
/// interleaving may report a deadlock.
void crash_during_wait_job(mpisim::Process& p) {
  constexpr int kTagData = 11;
  static constexpr int kWait[] = {kTagData, mpisim::kTagFaultNotice};
  if (p.rank() == 0) {
    bool data = false;
    bool notice = false;
    while (!data || !notice) {
      const mpisim::Message m = p.recv_any_of(kWait);
      (m.tag == kTagData ? data : notice) = true;
    }
  } else {
    p.send(0, kTagData, {});  // rank 2 dies instead of this send
  }
}

TEST(Explorer, CrashRacingAnySourceWaitIsExoneratedOnEverySchedule) {
  mpisim::FaultPlan faults;
  faults.at(2).crash_at = 1;
  CheckOptions copts;
  copts.random_schedules = 25;
  copts.seed = 11;
  copts.preemption_bound = 1;
  copts.dpor = false;
  copts.max_schedules = 150;
  const CheckResult res =
      Checker(job_of(3, crash_during_wait_job, faults), copts).run();
  EXPECT_FALSE(res.failed) << res.error;
  EXPECT_EQ(res.races_found, 0u);
  EXPECT_GE(res.schedules_explored, 26);  // baseline + 25 random + sweep
}

TEST(Explorer, CrashRacingAnySourceWaitReplaysCleanUnderForcedTrace) {
  mpisim::FaultPlan faults;
  faults.at(2).crash_at = 1;
  CheckOptions copts;
  copts.replay_trace = "2,2,0,1";  // boost the dying rank first
  const CheckResult res =
      Checker(job_of(3, crash_during_wait_job, faults), copts).run();
  EXPECT_FALSE(res.failed) << res.error;
  EXPECT_EQ(res.schedules_explored, 1);
}

// ---------- serve_work under the checker -----------------------------------

/// The real master/worker queue (driver/work_queue.h) with a mid-protocol
/// worker crash, model-checked: requeue, parking, and the stray-request
/// guard must hold on every explored interleaving, race-free.
TEST(Explorer, ServeWorkWithWorkerCrashIsScheduleClean) {
  auto job = [](mpisim::ScheduleHook* schedule, mpisim::RaceHook* race) {
    mpisim::RunOptions opts;
    opts.faults.at(2).crash_at = 3;  // dies holding one completed task
    opts.schedule = schedule;
    opts.race = race;
    driver::RunMetrics metrics;
    mpisim::run(
        4, test_cluster(),
        [&metrics](mpisim::Process& p) {
          if (p.is_root()) {
            auto sched = driver::make_scheduler(
                driver::SchedulerKind::kGreedyDynamic);
            driver::WorkerTopology topo;
            topo.nworkers = 3;
            topo.speed.assign(3, 1.0);
            driver::serve_work(p, *sched, 6, topo, {}, &metrics);
            p.drain(mpisim::kTagFaultNotice);
          } else {
            while (driver::request_work<std::uint32_t>(
                p, [](std::uint32_t id, mpisim::Decoder&) { return id; })) {
            }
          }
        },
        opts);
  };
  CheckOptions copts;
  copts.random_schedules = 20;
  copts.seed = 7;
  copts.preemption_bound = 1;
  copts.dpor = false;
  copts.max_schedules = 120;
  const CheckResult res = Checker(job, copts).run();
  EXPECT_FALSE(res.failed) << res.error;
  EXPECT_EQ(res.races_found, 0u);
  EXPECT_GT(res.max_decisions, 0u);
}

// ---------- whole driver under the checker ---------------------------------

/// A miniature mpiBLAST job is race-free and protocol-clean under the
/// baseline plus 50 seeded random schedules — the roadmap's acceptance
/// bar for the driver stack.
TEST(DriverCheck, MpiBlastCleanUnderFiftyRandomSchedules) {
  seqdb::GeneratorConfig gen;
  gen.target_residues = 4u << 10;
  gen.seed = 77;
  const auto db = seqdb::generate_database(gen);
  const auto queries = seqdb::sample_queries(db, 512, 5);
  const std::string query_fasta = seqdb::write_fasta(queries);

  blast::JobConfig jobcfg;
  jobcfg.db_base = "nr";
  jobcfg.db_title = "tiny nr";
  jobcfg.query_path = "queries.fa";
  jobcfg.output_path = "out.checked.txt";
  jobcfg.params = blast::SearchParams::blastp_defaults();
  jobcfg.params.hitlist_size = 10;

  const auto cluster = test_cluster();
  auto job = [&](mpisim::ScheduleHook* schedule, mpisim::RaceHook* race) {
    pario::ClusterStorage storage(cluster, 3);
    storage.shared().write_all(
        jobcfg.query_path,
        std::span(reinterpret_cast<const std::uint8_t*>(query_fasta.data()),
                  query_fasta.size()));
    const auto parts = seqdb::mpiformatdb(storage.shared(), db, jobcfg.db_base,
                                          jobcfg.params.type, jobcfg.db_title,
                                          2);
    mpiblast::MpiBlastOptions opts;
    opts.job = jobcfg;
    opts.fragment_bases = parts.fragment_bases;
    opts.fragment_ranges = parts.ranges;
    opts.global_index = parts.global_index;
    opts.schedule = schedule;
    opts.race = race;
    mpiblast::run_mpiblast(cluster, 3, storage, opts);
  };

  CheckOptions copts;
  copts.random_schedules = 50;
  copts.seed = 1;
  copts.preemption_bound = -1;
  copts.dpor = false;
  copts.max_schedules = 60;
  const CheckResult res = Checker(job, copts).run();
  EXPECT_FALSE(res.failed) << res.error;
  EXPECT_EQ(res.schedules_explored, 51);  // baseline + 50 random
  EXPECT_EQ(res.races_found, 0u);
  EXPECT_GT(res.max_decisions, 0u);
}

// ---------- mailbox leak-report ordering -----------------------------------

TEST(MailboxPendingInfo, SortedBySrcTagThenArrival) {
  mpisim::Mailbox mb;
  auto make = [](int src, int tag) {
    mpisim::Message m;
    m.src = src;
    m.tag = tag;
    return m;
  };
  mb.push(make(2, 5));
  mb.push(make(1, 9));
  mb.push(make(2, 5));
  mb.push(make(1, 3));
  const auto infos = mb.pending_info();
  ASSERT_EQ(infos.size(), 4u);
  EXPECT_EQ(infos[0].src, 1);
  EXPECT_EQ(infos[0].tag, 3);
  EXPECT_EQ(infos[1].src, 1);
  EXPECT_EQ(infos[1].tag, 9);
  EXPECT_EQ(infos[2].src, 2);
  EXPECT_EQ(infos[2].tag, 5);
  EXPECT_EQ(infos[3].src, 2);
  EXPECT_EQ(infos[3].tag, 5);
  // Same (src, tag): arrival order breaks the tie, stably.
  EXPECT_LT(infos[2].seq, infos[3].seq);
}

}  // namespace
}  // namespace pioblast::mpicheck
