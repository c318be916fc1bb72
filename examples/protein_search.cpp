// Example: a realistic protein search session.
//
// Models the workflow the paper's users run daily: format a protein
// database once (formatdb), then search several query batches against it
// with pioBLAST on a 16-process cluster, printing a summary of the top
// hits per query plus an excerpt of the NCBI-style report.
//
//   ./build/examples/protein_search
#include <cstdio>
#include <string>

#include "blast/job.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/units.h"

using namespace pioblast;

int main() {
  const int nprocs = 16;
  const auto cluster = sim::ClusterConfig::ornl_altix();

  // A protein database with strong family structure (nr-like redundancy).
  seqdb::GeneratorConfig gen;
  gen.target_residues = 1u << 20;
  gen.seed = 2005;
  gen.family_fraction = 0.6;
  gen.id_prefix = "prot";
  const auto db = seqdb::generate_database(gen);

  pario::ClusterStorage storage(cluster, nprocs);
  seqdb::format_db(storage.shared(), db, "protdb", seqdb::SeqType::kProtein,
                   "example protein db");
  std::printf("formatted %zu sequences (%s raw residues)\n", db.size(),
              util::format_bytes(1u << 20).c_str());

  // Three query batches, as a user iterating on an analysis would submit.
  for (int batch = 0; batch < 3; ++batch) {
    const auto queries =
        seqdb::sample_queries(db, 4u << 10, 1000 + static_cast<std::uint64_t>(batch));
    const std::string fasta = seqdb::write_fasta(queries);
    storage.shared().write_all(
        "batch.fa", std::span(reinterpret_cast<const std::uint8_t*>(fasta.data()),
                              fasta.size()));

    pio::PioBlastOptions opts;
    opts.job.db_base = "protdb";
    opts.job.db_title = "example protein db";
    opts.job.query_path = "batch.fa";
    opts.job.output_path = "batch" + std::to_string(batch) + ".out";
    opts.job.params = blast::SearchParams::blastp_defaults();
    opts.job.params.hitlist_size = 5;

    const auto result = pio::run_pioblast(cluster, nprocs, storage, opts);
    std::printf(
        "batch %d: %zu queries -> %llu alignments, output %s, virtual time "
        "%.2f s (search %.0f%%)\n",
        batch, queries.size(),
        static_cast<unsigned long long>(
            result.metrics.at("alignments_reported")),
        util::format_bytes(result.metrics.at("output_bytes")).c_str(),
        result.phases.total,
        100 * result.phases.search_fraction());
  }

  // Show the first report excerpt.
  const auto report = storage.shared().read_all("batch0.out");
  const std::string text(report.begin(),
                         report.begin() + std::min<std::size_t>(report.size(), 1200));
  std::printf("\n--- report excerpt ---\n%s...\n", text.c_str());
  return 0;
}
