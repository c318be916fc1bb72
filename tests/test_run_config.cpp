// RunConfig reach suite (ctest label: protocol).
//
// driver::RunConfig declares once what both drivers share. Each test here
// hands one RunConfig value to mpiBLAST and to pioBLAST and checks that the
// field changes what each of them does, so a field that stops reaching one
// driver (dropped in MasterWorkerApp, shadowed in an options struct) fails
// here rather than silently running with the default.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "blast/job.h"
#include "driver/run_config.h"
#include "mpiblast/mpiblast.h"
#include "mpicheck/coop.h"
#include "mpicheck/explore.h"
#include "mpicheck/race.h"
#include "mpicheck/schedule.h"
#include "mpisim/fault.h"
#include "mpisim/trace.h"
#include "mpisim/verify.h"
#include "pario/env.h"
#include "pioblast/pioblast.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"

namespace pioblast {
namespace {

constexpr int kProcs = 4;
constexpr const char* kDrivers[] = {"mpiblast", "pioblast"};

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

struct Data {
  std::vector<seqdb::FastaRecord> db;
  std::string queries;
};

const Data& data() {
  static const Data d = [] {
    seqdb::GeneratorConfig gen;
    gen.target_residues = 24u << 10;
    gen.seed = 31;
    gen.family_fraction = 0.6;
    Data out;
    out.db = seqdb::generate_database(gen);
    out.queries = seqdb::write_fasta(seqdb::sample_queries(out.db, 1024, 32));
    return out;
  }();
  return d;
}

struct Outcome {
  blast::DriverResult result;
  std::vector<std::uint8_t> report;
};

/// Runs `driver` ("mpiblast" | "pioblast") on the shared workload with
/// `config` as its whole run configuration.
Outcome run(const std::string& driver, const driver::RunConfig& config) {
  pario::ClusterStorage storage(altix(), kProcs);
  const std::string& q = data().queries;
  storage.shared().write_all(
      "queries.fa",
      std::span(reinterpret_cast<const std::uint8_t*>(q.data()), q.size()));
  blast::JobConfig job;
  job.db_base = "db";
  job.db_title = "reach";
  job.query_path = "queries.fa";
  job.output_path = "out.txt";
  job.params = blast::SearchParams::blastp_defaults();
  Outcome out;
  if (driver == "mpiblast") {
    const auto parts =
        seqdb::mpiformatdb(storage.shared(), data().db, job.db_base,
                           job.params.type, job.db_title, kProcs - 1);
    mpiblast::MpiBlastOptions opts;
    static_cast<driver::RunConfig&>(opts) = config;
    opts.job = job;
    opts.fragment_bases = parts.fragment_bases;
    opts.fragment_ranges = parts.ranges;
    opts.global_index = parts.global_index;
    out.result = mpiblast::run_mpiblast(altix(), kProcs, storage, opts);
  } else {
    seqdb::format_db(storage.shared(), data().db, job.db_base,
                     job.params.type, job.db_title);
    pio::PioBlastOptions opts;
    static_cast<driver::RunConfig&>(opts) = config;
    opts.job = job;
    out.result = pio::run_pioblast(altix(), kProcs, storage, opts);
  }
  out.report = storage.shared().read_all("out.txt");
  return out;
}

/// The VerifyError message `driver` raises under `config` ("" if none).
std::string verify_error(const std::string& driver,
                         const driver::RunConfig& config) {
  try {
    run(driver, config);
  } catch (const mpisim::VerifyError& e) {
    return e.what();
  }
  return "";
}

TEST(RunConfigReach, ConformanceFillsTheSummary) {
  driver::RunConfig config;
  config.conformance = true;
  for (const std::string driver : kDrivers) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(run(driver, {}).result.conformance.empty());
    const std::string summary = run(driver, config).result.conformance;
    EXPECT_EQ(summary.rfind("CONFORM spec=" + driver + " ", 0), 0u) << summary;
    EXPECT_NE(summary.find("result=ok"), std::string::npos) << summary;
  }
}

TEST(RunConfigReach, TracerReceivesEvents) {
  mpisim::Tracer tracer;
  driver::RunConfig config;
  config.tracer = &tracer;
  std::size_t before = 0;
  for (const std::string driver : kDrivers) {
    SCOPED_TRACE(driver);
    run(driver, config);
    EXPECT_GT(tracer.size(), before);
    before = tracer.size();
  }
}

TEST(RunConfigReach, CrashFaultLosesOneRank) {
  driver::RunConfig config;
  config.faults = mpisim::FaultPlan::parse("rank=2,crash_at=3");
  for (const std::string driver : kDrivers) {
    SCOPED_TRACE(driver);
    EXPECT_EQ(run(driver, {}).result.metrics.count("ranks_lost"), 0u);
    const Outcome crashed = run(driver, config);
    EXPECT_EQ(crashed.result.metrics.at("ranks_lost"), 1u);
    EXPECT_TRUE(crashed.result.report.ranks[2].crashed);
  }
}

// A dropped message deadlocks either driver. With the verifier on, the
// protocol verifier names the deadlock; with it off, nothing audits the
// run and the event loop's stuck handler unwinds it with its own plain
// "scheduler stuck" report — still a VerifyError.
TEST(RunConfigReach, VerifyOffLeavesTheDeadlockUnclaimed) {
  driver::RunConfig config;
  config.faults = mpisim::FaultPlan::parse("rank=2,drop_send=1");
  for (const std::string driver : kDrivers) {
    SCOPED_TRACE(driver);
    config.verify = true;
    const std::string on = verify_error(driver, config);
    EXPECT_NE(on.find("protocol verifier: deadlock"), std::string::npos) << on;
    config.verify = false;
    const std::string off = verify_error(driver, config);
    EXPECT_NE(off.find("scheduler stuck"), std::string::npos) << off;
  }
}

TEST(RunConfigReach, ScalarKernelMatchesFastByteForByte) {
  driver::RunConfig scalar;
  scalar.kernel = blast::KernelKind::kScalar;
  for (const std::string driver : kDrivers) {
    SCOPED_TRACE(driver);
    const Outcome fast = run(driver, {});
    const Outcome slow = run(driver, scalar);
    EXPECT_FALSE(fast.report.empty());
    EXPECT_EQ(fast.report, slow.report);
    EXPECT_EQ(fast.result.metrics, slow.result.metrics);
    EXPECT_EQ(fast.result.phases.total, slow.result.phases.total);
  }
}

// Naive (pre-v2) hints against the v2 defaults: the report never changes.
// pioBLAST's sub-file range reads merge and sieve under v2, so its pario
// counters move; mpiBLAST reads whole files, one contiguous request each,
// on which every hint is a no-op, so its counters must not.
TEST(RunConfigReach, HintsChangeIoButNotOutput) {
  driver::RunConfig naive;
  naive.hints =
      pario::Hints::parse("list=off,ds_read=disable,cb_buffer_size=0");
  driver::RunConfig v2;
  v2.hints = pario::Hints::parse("cb_nodes=2,ds_read=enable");
  for (const std::string driver : kDrivers) {
    SCOPED_TRACE(driver);
    const Outcome a = run(driver, naive);
    const Outcome b = run(driver, v2);
    EXPECT_EQ(a.report, b.report);
    EXPECT_GT(a.result.metrics.at("pario_list_requests"), 0u);
    EXPECT_EQ(a.result.metrics.at("pario_list_requests"),
              b.result.metrics.at("pario_list_requests"));
    if (driver == "pioblast") {
      EXPECT_LT(b.result.metrics.at("pario_device_reads"),
                a.result.metrics.at("pario_device_reads"));
    } else {
      EXPECT_EQ(a.result.metrics.at("pario_device_reads"),
                b.result.metrics.at("pario_device_reads"));
    }
  }
}

// The schedule chooser and race detector ride on the RunConfig: a seeded
// random chooser makes decisions and the detector observes annotated
// accesses in both drivers, and the recorded schedule replays as one
// forced mpicheck run.
TEST(RunConfigReach, ScheduleAndRaceHooksReplay) {
  for (const std::string driver : kDrivers) {
    SCOPED_TRACE(driver);
    mpicheck::CoopScheduler coop(mpicheck::CoopScheduler::random(5));
    mpicheck::RaceDetector race;
    driver::RunConfig config;
    config.schedule = &coop;
    config.race = &race;
    run(driver, config);
    EXPECT_FALSE(coop.records().empty());
    EXPECT_GT(race.accesses(), 0u);
    EXPECT_EQ(race.races_found(), 0u);

    mpicheck::CheckOptions copts;
    copts.replay_trace = mpicheck::format_schedule(coop.schedule());
    mpicheck::Checker checker(
        [&](mpisim::ScheduleHook* schedule, mpisim::RaceHook* hook) {
          config.schedule = schedule;
          config.race = hook;
          run(driver, config);
        },
        copts);
    const mpicheck::CheckResult res = checker.run();
    EXPECT_FALSE(res.failed) << res.failure_kind << ": " << res.error;
    EXPECT_EQ(res.schedules_explored, 1);
    EXPECT_EQ(res.max_decisions, coop.records().size());
  }
}

}  // namespace
}  // namespace pioblast
