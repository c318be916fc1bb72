// Quickstart: generate a small synthetic protein database, format it, and
// search the same sampled query set with mpiBLAST (baseline) and pioBLAST,
// on a simulated 8-rank ORNL-Altix-style cluster. Prints the phase
// breakdown of both runs and verifies the two output files are identical.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "blast/job.h"
#include "mpiblast/mpiblast.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/table.h"
#include "util/units.h"

using namespace pioblast;

int main() {
  const int nprocs = 8;
  const sim::ClusterConfig cluster = sim::ClusterConfig::ornl_altix();

  // 1. Synthesize a database and a query set sampled from it (the paper
  //    samples its query sets from GenBank nr itself).
  seqdb::GeneratorConfig gen;
  gen.target_residues = 512u << 10;  // ~0.5 M residues
  gen.seed = 42;
  const auto db_records = seqdb::generate_database(gen);
  const auto queries = seqdb::sample_queries(db_records, 8u << 10, /*seed=*/7);
  std::printf("database: %zu sequences, query set: %zu queries\n",
              db_records.size(), queries.size());

  // 2. Stage the data on the shared file system and format it.
  pario::ClusterStorage storage(cluster, nprocs);
  const std::string query_fasta = seqdb::write_fasta(queries);
  storage.shared().write_all(
      "queries.fa", std::span(reinterpret_cast<const std::uint8_t*>(
                                  query_fasta.data()),
                              query_fasta.size()));

  blast::JobConfig job;
  job.db_base = "nr";
  job.db_title = "synthetic nr";
  job.query_path = "queries.fa";
  job.params = blast::SearchParams::blastp_defaults();
  job.params.hitlist_size = 50;

  // mpiBLAST needs physical fragments (mpiformatdb); pioBLAST only needs
  // the plain formatted database.
  const auto parts = seqdb::mpiformatdb(storage.shared(), db_records, job.db_base,
                                        job.params.type, job.db_title,
                                        /*nfragments=*/nprocs - 1);

  // 3. Run both drivers.
  mpiblast::MpiBlastOptions mpi_opts;
  mpi_opts.job = job;
  mpi_opts.job.output_path = "results.mpiblast.txt";
  mpi_opts.fragment_bases = parts.fragment_bases;
  mpi_opts.fragment_ranges = parts.ranges;
  mpi_opts.global_index = parts.global_index;
  const auto mpi_result = mpiblast::run_mpiblast(cluster, nprocs, storage, mpi_opts);

  pio::PioBlastOptions pio_opts;
  pio_opts.job = job;
  pio_opts.job.output_path = "results.pioblast.txt";
  const auto pio_result = pio::run_pioblast(cluster, nprocs, storage, pio_opts);

  // 4. Report.
  util::Table table({"Program", "Copy/Input", "Search", "Output", "Other",
                     "Total", "Search %"});
  auto row = [&](const char* name, const blast::PhaseBreakdown& ph) {
    table.add_row({name, util::fixed(ph.copy_input, 2), util::fixed(ph.search, 2),
                   util::fixed(ph.output, 2), util::fixed(ph.other, 2),
                   util::fixed(ph.total, 2),
                   util::format_percent(ph.search_fraction())});
  };
  row("mpiBLAST", mpi_result.phases);
  row("pioBLAST", pio_result.phases);
  table.print(std::cout);
  std::printf("\noutput size: %s (%llu alignments)\n",
              util::format_bytes(pio_result.metrics.at("output_bytes")).c_str(),
              static_cast<unsigned long long>(
                  pio_result.metrics.at("alignments_reported")));
  std::printf("candidates screened by master: mpiBLAST=%llu pioBLAST=%llu\n",
              static_cast<unsigned long long>(
                  mpi_result.metrics.at("candidates_merged")),
              static_cast<unsigned long long>(
                  pio_result.metrics.at("candidates_merged")));

  // 5. The two programs must produce byte-identical output.
  const auto a = storage.shared().read_all("results.mpiblast.txt");
  const auto b = storage.shared().read_all("results.pioblast.txt");
  if (a != b) {
    std::printf("ERROR: outputs differ (mpiBLAST %zu bytes, pioBLAST %zu bytes)\n",
                a.size(), b.size());
    return 1;
  }
  std::printf("outputs identical: yes (%zu bytes)\n", a.size());
  return 0;
}
