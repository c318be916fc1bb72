// Table 1 reproduction: breakdown of execution time for mpiBLAST and
// pioBLAST searching the default (150 KB-analogue) query set against the
// nr database with 32 processes and natural partitioning (31 fragments).
//
// Paper reference (seconds on the ORNL Altix):
//   mpiBLAST:  Copy 17.1 | Search 318.5 | Output 1007.2 | Other 11.3 | 1354.1
//   pioBLAST:  Input 0.4 | Search 281.7 | Output   15.4 | Other 10.4 |  307.9
// Expected shape: pioBLAST removes the copy stage (sub-second input),
// matches search, and shrinks output by an order of magnitude or more.
#include <cstdio>
#include <iostream>

#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

int main(int argc, char** argv) {
  const int nprocs = 32;
  const auto& db = bench::nr_database();
  const auto queries =
      bench::make_query_set(db, bench::QuerySizes::kDefault);
  const auto cluster = bench::altix();
  const auto job = bench::nr_job();

  bench::print_banner(
      "Table 1: phase breakdown, 32 processes, nr database",
      "db=" + std::to_string(db.size()) + " sequences, query set=" +
          std::to_string(queries.size()) + " bytes, cluster=" + cluster.name);

  const auto mpi =
      bench::run_mpiblast_job(cluster, nprocs, db, queries, job, nprocs - 1);
  const auto pio = bench::run_pioblast_job(cluster, nprocs, db, queries, job);

  util::Table table({"Program", "Copy/Input", "Search", "Output", "Other",
                     "Total", "Search %"});
  auto row = [&](const char* name, const blast::PhaseBreakdown& ph) {
    table.add_row({name, util::fixed(ph.copy_input, 2), util::fixed(ph.search, 2),
                   util::fixed(ph.output, 2), util::fixed(ph.other, 2),
                   util::fixed(ph.total, 2),
                   util::format_percent(ph.search_fraction())});
  };
  row("mpiBLAST", mpi.phases);
  row("pioBLAST", pio.phases);
  table.print(std::cout);

  std::printf("\noutput: %s, alignments: %llu\n",
              util::format_bytes(pio.metrics.at("output_bytes")).c_str(),
              static_cast<unsigned long long>(
                  pio.metrics.at("alignments_reported")));
  std::printf("candidates screened: mpiBLAST=%llu pioBLAST=%llu\n",
              static_cast<unsigned long long>(
                  mpi.metrics.at("candidates_merged")),
              static_cast<unsigned long long>(
                  pio.metrics.at("candidates_merged")));
  std::printf("result-submission bytes to master: mpiBLAST=%llu pioBLAST=%llu\n",
              static_cast<unsigned long long>(
                  mpi.report.ranks.size() ? mpi.report.ranks[1].bytes_sent : 0),
              static_cast<unsigned long long>(
                  pio.report.ranks.size() ? pio.report.ranks[1].bytes_sent : 0));
  std::printf("speedup (total): %.2fx; output-phase speedup: %.2fx\n",
              mpi.phases.total / pio.phases.total,
              mpi.phases.output / std::max(pio.phases.output, 1e-9));
  bench::emit_metrics("mpiblast", mpi);
  bench::emit_metrics("pioblast", pio);
  return bench::finish(table, argc, argv);
}
