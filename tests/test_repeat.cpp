// Repeatability suite (ctest label: repeat).
//
// One input, one answer: running the same driver job twice in one process
// must give a byte-identical report, an identical metrics map, identical
// per-rank virtual clocks, and an identical event trace. Swept over both
// drivers, every task scheduler, and a fault-free run plus one with a
// worker crash — the configurations whose wildcard receives and recovery
// paths would expose any host-timing leak into the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "blast/job.h"
#include "driver/scheduler.h"
#include "mpiblast/mpiblast.h"
#include "mpisim/fault.h"
#include "mpisim/trace.h"
#include "pario/env.h"
#include "pioblast/pioblast.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"

namespace pioblast {
namespace {

constexpr int kProcs = 4;
constexpr int kFragments = 6;
constexpr int kVictim = 2;

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

struct Data {
  std::vector<seqdb::FastaRecord> db;
  std::string queries;
};

const Data& data() {
  static const Data d = [] {
    seqdb::GeneratorConfig gen;
    gen.target_residues = 48u << 10;
    gen.seed = 21;
    gen.family_fraction = 0.6;
    Data out;
    out.db = seqdb::generate_database(gen);
    out.queries = seqdb::write_fasta(seqdb::sample_queries(out.db, 1536, 22));
    return out;
  }();
  return d;
}

blast::JobConfig job() {
  blast::JobConfig j;
  j.db_base = "db";
  j.db_title = "repeat";
  j.query_path = "queries.fa";
  j.output_path = "out.txt";
  j.params = blast::SearchParams::blastp_defaults();
  j.nfragments = kFragments;
  return j;
}

/// Everything a run must reproduce.
struct Outcome {
  std::vector<std::uint8_t> report;
  std::map<std::string, std::uint64_t> metrics;
  std::vector<sim::Time> clocks;
  std::vector<bool> crashed;
  std::string trace;
};

struct Case {
  const char* driver;  // "mpiblast" | "pioblast"
  driver::SchedulerKind scheduler;
  bool crash;
};

Outcome run_case(const Case& c) {
  pario::ClusterStorage storage(altix(), kProcs);
  const std::string& q = data().queries;
  storage.shared().write_all(
      "queries.fa",
      std::span(reinterpret_cast<const std::uint8_t*>(q.data()), q.size()));
  mpisim::FaultPlan faults;
  if (c.crash) faults.at(kVictim).crash_at = 4;
  mpisim::Tracer tracer;
  blast::DriverResult result;
  if (std::string(c.driver) == "mpiblast") {
    const auto parts =
        seqdb::mpiformatdb(storage.shared(), data().db, "db",
                           seqdb::SeqType::kProtein, "repeat", kFragments);
    mpiblast::MpiBlastOptions opts;
    opts.job = job();
    opts.fragment_bases = parts.fragment_bases;
    opts.fragment_ranges = parts.ranges;
    opts.global_index = parts.global_index;
    opts.scheduler = c.scheduler;
    opts.faults = faults;
    opts.tracer = &tracer;
    result = mpiblast::run_mpiblast(altix(), kProcs, storage, opts);
  } else {
    seqdb::format_db(storage.shared(), data().db, "db",
                     seqdb::SeqType::kProtein, "repeat");
    pio::PioBlastOptions opts;
    opts.job = job();
    opts.scheduler = c.scheduler;
    opts.faults = faults;
    opts.tracer = &tracer;
    result = pio::run_pioblast(altix(), kProcs, storage, opts);
  }
  Outcome out;
  out.report = storage.shared().read_all("out.txt");
  out.metrics = result.metrics;
  for (const auto& r : result.report.ranks) {
    out.clocks.push_back(r.final_clock);
    out.crashed.push_back(r.crashed);
  }
  std::ostringstream os;
  tracer.render(os, std::numeric_limits<std::size_t>::max());
  out.trace = os.str();
  return out;
}

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.driver << "/" << driver::to_string(c.scheduler)
      << (c.crash ? "/crash" : "/clean");
}

class Repeat : public ::testing::TestWithParam<Case> {};

TEST_P(Repeat, SameArgumentsTwiceSameRun) {
  const Outcome first = run_case(GetParam());
  const Outcome second = run_case(GetParam());
  ASSERT_FALSE(first.report.empty());
  EXPECT_EQ(first.crashed[kVictim], GetParam().crash);
  EXPECT_TRUE(second.report == first.report) << "reports differ";
  EXPECT_EQ(second.metrics, first.metrics);
  // Exact, not NEAR: the same event sequence gives the same floating-point
  // clocks bit for bit.
  EXPECT_EQ(second.clocks, first.clocks);
  EXPECT_EQ(second.crashed, first.crashed);
  EXPECT_EQ(second.trace, first.trace);
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const char* drv : {"mpiblast", "pioblast"}) {
    for (const auto sched : {driver::SchedulerKind::kStaticRoundRobin,
                             driver::SchedulerKind::kSpeedWeighted,
                             driver::SchedulerKind::kGreedyDynamic}) {
      for (const bool crash : {false, true}) out.push_back({drv, sched, crash});
    }
  }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string sched(driver::to_string(info.param.scheduler));
  for (char& ch : sched)
    if (ch == '-') ch = '_';
  return std::string(info.param.driver) + "_" + sched +
         (info.param.crash ? "_crash" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(DriversSchedulersFaults, Repeat,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace pioblast
