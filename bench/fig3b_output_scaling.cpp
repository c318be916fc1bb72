// Figure 3(b) reproduction: output-size scalability at a fixed 62
// processes — both programs across the four query-set sizes of Table 2.
//
// Paper reference: both totals grow roughly with the output size; mpiBLAST
// is dominated by result output time, pioBLAST by search time, and
// pioBLAST's non-search time less than doubles from the smallest to the
// largest output while mpiBLAST's grows much faster.
#include <iostream>

#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

int main(int argc, char** argv) {
  const int nprocs = 62;
  const auto& db = bench::nr_database();
  const auto cluster = bench::altix();
  const auto job = bench::nr_job();

  bench::print_banner("Figure 3(b): output scalability at 62 processes",
                      "nr-analogue database, query sets scaled from Table 2");

  util::Table table({"Program-Output", "Search (s)", "Other (s)", "Total (s)",
                     "Output size"});
  double mpi_other_first = -1, mpi_other_last = 0;
  double pio_other_first = -1, pio_other_last = 0;
  for (const std::uint64_t target :
       {bench::QuerySizes::kSmall, bench::QuerySizes::kMedium,
        bench::QuerySizes::kDefault, bench::QuerySizes::kLarge}) {
    const auto queries = bench::make_query_set(db, target);
    const auto mpi =
        bench::run_mpiblast_job(cluster, nprocs, db, queries, job, nprocs - 1);
    const auto pio = bench::run_pioblast_job(cluster, nprocs, db, queries, job);
    const std::string size = util::format_bytes(mpi.metrics.at("output_bytes"));
    const double mpi_other = mpi.phases.total - mpi.phases.search;
    const double pio_other = pio.phases.total - pio.phases.search;
    table.add_row({"mpi-" + size, util::fixed(mpi.phases.search, 2),
                   util::fixed(mpi_other, 2), util::fixed(mpi.phases.total, 2),
                   size});
    table.add_row({"pio-" + size, util::fixed(pio.phases.search, 2),
                   util::fixed(pio_other, 2), util::fixed(pio.phases.total, 2),
                   util::format_bytes(pio.metrics.at("output_bytes"))});
    if (mpi_other_first < 0) {
      mpi_other_first = mpi_other;
      pio_other_first = pio_other;
    }
    mpi_other_last = mpi_other;
    pio_other_last = pio_other;
  }
  table.print(std::cout);
  std::printf(
      "\nnon-search growth smallest->largest output: mpiBLAST %.2fx, "
      "pioBLAST %.2fx\n",
      mpi_other_last / std::max(mpi_other_first, 1e-9),
      pio_other_last / std::max(pio_other_first, 1e-9));
  return bench::finish(table, argc, argv);
}
