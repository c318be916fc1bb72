// Figure 1(b) reproduction: mpiBLAST's sensitivity to the number of
// pre-generated database fragments, at a fixed 32 processes, searching the
// default query set against the nr-analogue database.
//
// Paper reference (fragments in {31, 61, 96, 167}): both search and
// non-search time rise with the fragment count — more fragments mean more
// per-fragment kernel overhead and a larger candidate-result volume for
// the master to screen — so overall performance degrades significantly.
// Expected shape: total time monotonically increasing in fragment count.
#include <iostream>

#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

int main(int argc, char** argv) {
  const int nprocs = 32;
  const auto& db = bench::nr_database();
  const auto queries = bench::make_query_set(db, bench::QuerySizes::kDefault);
  const auto cluster = bench::altix();
  const auto job = bench::nr_job();

  bench::print_banner("Figure 1(b): mpiBLAST vs number of fragments",
                      "nr-analogue database, 32 processes, fragments in "
                      "{31, 61, 96, 167}");

  util::Table table({"Fragments", "Search (s)", "Other (s)", "Total (s)",
                     "Candidates screened"});
  for (int nfragments : {31, 61, 96, 167}) {
    const auto r =
        bench::run_mpiblast_job(cluster, nprocs, db, queries, job, nfragments);
    const double other = r.phases.total - r.phases.search;
    table.add_row({std::to_string(nfragments), util::fixed(r.phases.search, 2),
                   util::fixed(other, 2), util::fixed(r.phases.total, 2),
                   std::to_string(r.metrics.at("candidates_merged"))});
  }
  table.print(std::cout);
  return bench::finish(table, argc, argv);
}
