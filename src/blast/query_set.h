// Prepared query sets: parsed queries, per-query search contexts, and the
// fast kernel's merged protein neighborhood.
//
// Building a QueryContext (word index + statistics) is identical on every
// rank, and so is merging the contexts' neighborhoods into the one
// BatchNeighborhood the fast blastp scan probes. The drivers therefore
// prepare one QuerySet per job and share it read-only across all simulated
// processes, instead of every rank rebuilding it for every fragment. This
// is a host-side memory/CPU optimization only: the virtual-time cost of
// query preparation is charged by the drivers exactly as before, and
// search results are unaffected (contexts and index are immutable during
// the search).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blast/engine.h"
#include "seqdb/fasta.h"

namespace pioblast::blast {

class QuerySet {
 public:
  /// Parses `fasta_text` and builds one context per query against the
  /// given global database statistics.
  static std::shared_ptr<const QuerySet> build(const std::string& fasta_text,
                                               const SearchParams& params,
                                               const GlobalDbStats& stats);

  const std::vector<seqdb::FastaRecord>& queries() const { return queries_; }
  const std::vector<QueryContext>& contexts() const { return contexts_; }
  /// The contexts' merged protein neighborhood, for search_fragment_batch.
  /// Empty for nucleotide sets and for protein sets beyond the fast
  /// kernel's tag range (those still search with the scalar kernel).
  const BatchNeighborhood& merged_neighborhood() const { return merged_; }
  const ScoringMatrix& matrix() const { return *matrix_; }
  const GlobalDbStats& stats() const { return stats_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(queries_.size()); }

 private:
  QuerySet() = default;

  std::vector<seqdb::FastaRecord> queries_;
  /// Heap-held so context references stay valid however QuerySet is moved.
  std::shared_ptr<const ScoringMatrix> matrix_;
  GlobalDbStats stats_;
  std::vector<QueryContext> contexts_;
  BatchNeighborhood merged_;
};

}  // namespace pioblast::blast
