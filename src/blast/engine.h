// The BLAST search engine: query context + fragment search.
//
// For each (query, database fragment) pair the engine runs the classic
// pipeline: word scan over every subject sequence probing the query word
// index; two-hit filtering on diagonals (blastp); ungapped X-drop
// extension; gap-triggered gapped extension with traceback; containment
// culling; Karlin–Altschul E-value filtering against the *global* database
// statistics; and a final per-fragment hit-list cut (the "local cut" whose
// per-worker volume drives the paper's result-merging costs).
//
// The engine is purely deterministic: identical inputs produce identical
// HSP lists regardless of how the database was partitioned, which the
// integration tests assert.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "blast/extend.h"
#include "blast/hsp.h"
#include "blast/scoring.h"
#include "blast/seed.h"
#include "blast/stats.h"
#include "seqdb/formatdb.h"
#include "sim/cost_model.h"

namespace pioblast::blast {

/// Per-query precomputation shared across fragment searches: the word
/// index, the scoring matrix, and the query's length adjustment.
class QueryContext {
 public:
  QueryContext(std::uint32_t query_id, std::span<const std::uint8_t> residues,
               const SearchParams& params, const ScoringMatrix& matrix,
               const GlobalDbStats& db);

  std::uint32_t query_id() const { return query_id_; }
  std::span<const std::uint8_t> residues() const { return residues_; }
  const WordIndex& index() const { return index_; }
  const FlatNeighborhood& flat_index() const { return flat_; }
  const SelfScoreProfile& self_profile() const { return self_; }
  const ScoringMatrix& matrix() const { return matrix_; }
  const SearchParams& params() const { return params_; }
  const GlobalDbStats& db() const { return db_; }
  std::uint64_t length_adjust() const { return adjust_; }

  /// Minimum raw score that can reach the E-value cutoff (computed once;
  /// used to discard hopeless HSPs before E-value math).
  int cutoff_score() const { return cutoff_score_; }

 private:
  std::uint32_t query_id_;
  std::vector<std::uint8_t> residues_;
  SearchParams params_;
  const ScoringMatrix& matrix_;
  GlobalDbStats db_;
  WordIndex index_;
  FlatNeighborhood flat_;
  SelfScoreProfile self_;
  std::uint64_t adjust_ = 0;
  int cutoff_score_ = 0;
};

/// The fast kernel's merged protein neighborhood over a whole query batch:
/// per packed base-24 word, the concatenation of every query's
/// FlatNeighborhood bucket in batch order, each entry tagged
/// `(batch index << 22) | query position`. One probe per subject position
/// then services the entire batch. It depends only on the queries, so
/// QuerySet builds it once per job and every rank shares it read-only,
/// exactly like the contexts.
///
/// Default-constructed it is empty: the state of a nucleotide set and of a
/// protein set too large to tag (>= 1024 queries, or a query of >= 2^22
/// residues). The scalar kernel never reads it; the fast kernel refuses an
/// untaggable batch with the limit's message.
struct BatchNeighborhood {
  static constexpr std::uint32_t kQposBits = 22;
  static constexpr std::uint32_t kQposMask = (1u << kQposBits) - 1;
  static constexpr std::size_t kMaxQueries = std::size_t{1} << 10;

  std::vector<std::uint32_t> offsets;  ///< 24^3 + 1 bucket bounds
  std::vector<std::uint32_t> entries;  ///< (batch index << 22) | position

  BatchNeighborhood() = default;
  /// Merges the buckets of `queries`, which must be a protein batch that
  /// fits the tags (throws ContractViolation otherwise).
  explicit BatchNeighborhood(std::span<const QueryContext> queries);

  /// True when `queries` is a non-empty protein batch within both tag
  /// ranges (the constructor still checks the batch is uniform).
  static bool can_index(std::span<const QueryContext> queries);

  bool empty() const { return offsets.empty(); }
};

/// Which search-kernel implementation runs the fragment scan. Both produce
/// bit-identical HSP lists and counters; `kScalar` is the straightforward
/// reference implementation, `kFast` the batched/flat-table/SWAR rebuild
/// that the differential kernel tests check against it.
enum class KernelKind { kScalar, kFast };

/// Parses "scalar" / "fast" (throws ContractViolation on anything else).
KernelKind parse_kernel(std::string_view name);

/// Inverse of parse_kernel, for logs and test output.
const char* kernel_name(KernelKind kind);

/// Result of searching one query against one fragment.
struct FragmentSearchResult {
  std::vector<Hsp> hsps;          ///< sorted by Hsp::better, capped at hitlist_size
  sim::SearchCounters counters;   ///< feeds the virtual-time cost model
};

/// Searches `query` against every sequence of `fragment` (scalar kernel).
FragmentSearchResult search_fragment(const QueryContext& query,
                                     const seqdb::LoadedFragment& fragment);

/// Fast-kernel twin of search_fragment: same HSPs, same counters, computed
/// via the flat neighborhood table and SWAR/arena extension paths.
FragmentSearchResult search_fragment_fast(const QueryContext& query,
                                          const seqdb::LoadedFragment& fragment);

/// Searches every query of a batch against `fragment` with the chosen
/// kernel; results are index-aligned with `queries`. The fast kernel scans
/// and packs the fragment ONCE (FragmentIndex) and services the whole
/// batch from the precomputed word codes — the per-fragment cost the
/// scalar kernel pays per query. Output is bit-identical across kernels.
///
/// `merged` is the batch's prebuilt protein neighborhood (QuerySet builds
/// it once per job; drivers pass `QuerySet::merged_neighborhood()`). Only
/// the fast kernel's protein path reads it, and it must have been built
/// from exactly `queries`. Host-side only: virtual time is charged from
/// the returned counters, which do not depend on where the index lives.
std::vector<FragmentSearchResult> search_fragment_batch(
    std::span<const QueryContext> queries, const BatchNeighborhood& merged,
    const seqdb::LoadedFragment& fragment, KernelKind kernel);

/// Convenience overload for callers without a QuerySet: builds the merged
/// neighborhood for this one call (fast protein only) and delegates.
std::vector<FragmentSearchResult> search_fragment_batch(
    std::span<const QueryContext> queries,
    const seqdb::LoadedFragment& fragment, KernelKind kernel);

/// Builds the scoring matrix implied by `params`.
ScoringMatrix make_matrix(const SearchParams& params);

}  // namespace pioblast::blast
