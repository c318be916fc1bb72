// Table 2 reproduction: query-set size -> search output size.
//
// Paper reference: 26 KB -> 11 MB, 77 KB -> 47 MB, 159 KB -> 96 MB,
// 289 KB -> 153 MB (output grows roughly linearly with query size).
// Expected shape: monotone, near-linear growth of output size in query
// size; the bytes-per-query-byte ratio stays within a small band.
#include <iostream>

#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

int main(int argc, char** argv) {
  const int nprocs = 16;
  const auto& db = bench::nr_database();
  const auto cluster = bench::altix();
  const auto job = bench::nr_job();

  bench::print_banner("Table 2: query size vs output size",
                      "nr-analogue database, outputs measured from pioBLAST "
                      "(mpiBLAST produces identical files)");

  util::Table table({"Query size", "Queries", "Output size", "Output/query"});
  for (const std::uint64_t target :
       {bench::QuerySizes::kSmall, bench::QuerySizes::kMedium,
        bench::QuerySizes::kDefault, bench::QuerySizes::kLarge}) {
    const auto queries = bench::make_query_set(db, target);
    const auto r = bench::run_pioblast_job(cluster, nprocs, db, queries, job);
    const auto output_bytes = r.metrics.at("output_bytes");
    std::size_t nqueries = 0;
    for (char c : queries)
      if (c == '>') ++nqueries;
    table.add_row({util::format_bytes(queries.size()), std::to_string(nqueries),
                   util::format_bytes(output_bytes),
                   util::fixed(static_cast<double>(output_bytes) /
                                   static_cast<double>(queries.size()),
                               1)});
  }
  table.print(std::cout);
  return bench::finish(table, argc, argv);
}
