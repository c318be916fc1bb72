// Differential harness for the fast search kernel (ctest label: kernel).
//
// The fast kernel (FragmentIndex + FlatNeighborhood + SWAR/arena
// extensions) must be bit-identical to the scalar oracle: same HSP lists
// (every field, including tracebacks and E-value bits), same counters
// (virtual time), same driver output bytes. This suite checks that claim
// from four angles:
//
//   * corpus diffs — realistic family databases, protein and DNA;
//   * deterministic fuzz — randomized corpora and parameter sets, with a
//     reproduction dump to stderr on the first mismatch;
//   * shared index — the QuerySet's once-per-job merged neighborhood vs a
//     per-call rebuild vs the scalar loop, plus the tag-range limits;
//   * properties — FlatNeighborhood vs WordIndex under random scoring
//     matrices and thresholds, FragmentIndex codes vs scalar packing,
//     extension scores vs traceback replay;
//   * drivers — byte-identical mpiBLAST/pioBLAST reports across kernels,
//     fault-free and across a worker crash, plus committed golden
//     fixtures both kernels must reproduce (tests/data/; regenerate with
//     PIOBLAST_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "blast/engine.h"
#include "blast/extend.h"
#include "blast/fragment_index.h"
#include "blast/query_set.h"
#include "blast/seed.h"
#include "driver/tags.h"
#include "mpiblast/mpiblast.h"
#include "pario/vfs.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"

namespace pioblast::blast {
namespace {

using seqdb::SeqType;

// ---------- shared helpers -------------------------------------------------

seqdb::LoadedFragment whole_db(const std::vector<seqdb::FastaRecord>& records,
                               SeqType type = SeqType::kProtein) {
  pario::VirtualFS fs;
  seqdb::format_db(fs, records, "db", type, "t");
  return seqdb::load_volumes(fs, "db", type, 0);
}

GlobalDbStats stats_of(const std::vector<seqdb::FastaRecord>& records) {
  GlobalDbStats s;
  s.num_seqs = records.size();
  for (const auto& r : records) s.total_residues += r.sequence.size();
  return s;
}

std::vector<seqdb::FastaRecord> family_db(std::uint64_t residues,
                                          std::uint64_t seed,
                                          SeqType type = SeqType::kProtein) {
  seqdb::GeneratorConfig cfg;
  cfg.type = type;
  cfg.target_residues = residues;
  cfg.seed = seed;
  cfg.family_fraction = 0.5;
  return seqdb::generate_database(cfg);
}

/// Bitwise double equality: identical computations must produce identical
/// bits, which EXPECT_DOUBLE_EQ (ULP tolerance) would paper over.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_hsps_identical(const std::vector<Hsp>& a, const std::vector<Hsp>& b,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Hsp& x = a[i];
    const Hsp& y = b[i];
    EXPECT_EQ(x.query_id, y.query_id) << what << " hsp " << i;
    EXPECT_EQ(x.subject_global_id, y.subject_global_id) << what << " hsp " << i;
    EXPECT_EQ(x.qstart, y.qstart) << what << " hsp " << i;
    EXPECT_EQ(x.qend, y.qend) << what << " hsp " << i;
    EXPECT_EQ(x.sstart, y.sstart) << what << " hsp " << i;
    EXPECT_EQ(x.send, y.send) << what << " hsp " << i;
    EXPECT_EQ(x.score, y.score) << what << " hsp " << i;
    EXPECT_TRUE(same_bits(x.bits, y.bits)) << what << " hsp " << i;
    EXPECT_TRUE(same_bits(x.evalue, y.evalue)) << what << " hsp " << i;
    EXPECT_EQ(x.identities, y.identities) << what << " hsp " << i;
    EXPECT_EQ(x.positives, y.positives) << what << " hsp " << i;
    EXPECT_EQ(x.gaps, y.gaps) << what << " hsp " << i;
    EXPECT_EQ(x.align_len, y.align_len) << what << " hsp " << i;
    EXPECT_EQ(x.ops, y.ops) << what << " hsp " << i;
  }
}

void expect_results_identical(const FragmentSearchResult& scalar,
                              const FragmentSearchResult& fast,
                              const char* what) {
  expect_hsps_identical(scalar.hsps, fast.hsps, what);
  EXPECT_EQ(scalar.counters.db_residues_scanned,
            fast.counters.db_residues_scanned) << what;
  EXPECT_EQ(scalar.counters.seed_hits, fast.counters.seed_hits) << what;
  EXPECT_EQ(scalar.counters.two_hit_triggers, fast.counters.two_hit_triggers)
      << what;
  EXPECT_EQ(scalar.counters.ungapped_cells, fast.counters.ungapped_cells)
      << what;
  EXPECT_EQ(scalar.counters.gapped_cells, fast.counters.gapped_cells) << what;
  EXPECT_EQ(scalar.counters.traceback_cells, fast.counters.traceback_cells)
      << what;
  EXPECT_EQ(scalar.counters.hsps_found, fast.counters.hsps_found) << what;
}

// ---------- corpus differential tests --------------------------------------

TEST(KernelDiff, ProteinFamilyCorpus) {
  const auto db = family_db(60'000, 101);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  for (std::size_t i = 0; i < db.size(); i += 5) {
    const auto query = seqdb::encode_sequence(SeqType::kProtein, db[i].sequence);
    QueryContext ctx(0, query, params, m, gstats);
    const auto scalar = search_fragment(ctx, frag);
    const auto fast = search_fragment_fast(ctx, frag);
    expect_results_identical(scalar, fast, db[i].id.c_str());
  }
}

TEST(KernelDiff, DnaFamilyCorpus) {
  const auto db = family_db(60'000, 103, SeqType::kNucleotide);
  const auto frag = whole_db(db, SeqType::kNucleotide);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  for (std::size_t i = 0; i < db.size(); i += 5) {
    const auto query =
        seqdb::encode_sequence(SeqType::kNucleotide, db[i].sequence);
    QueryContext ctx(0, query, params, m, gstats);
    const auto scalar = search_fragment(ctx, frag);
    const auto fast = search_fragment_fast(ctx, frag);
    expect_results_identical(scalar, fast, db[i].id.c_str());
  }
}

TEST(KernelDiff, BatchMatchesPerQueryScalar) {
  const auto db = family_db(40'000, 107);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();

  std::vector<QueryContext> contexts;
  for (std::size_t i = 0; i < db.size() && contexts.size() < 8; i += 3) {
    const auto q = seqdb::encode_sequence(SeqType::kProtein, db[i].sequence);
    contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()), q,
                          params, m, gstats);
  }
  // Degenerate members ride in the same batch: shorter than the word size
  // and empty. The scalar kernel returns an empty result with zero
  // counters for them; the batch must too.
  const std::vector<std::uint8_t> tiny{1, 2};
  contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()), tiny,
                        params, m, gstats);
  contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()),
                        std::vector<std::uint8_t>{}, params, m, gstats);

  const auto batch = search_fragment_batch(contexts, frag, KernelKind::kFast);
  ASSERT_EQ(batch.size(), contexts.size());
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    const auto scalar = search_fragment(contexts[i], frag);
    expect_results_identical(scalar, batch[i],
                             ("batch member " + std::to_string(i)).c_str());
  }

  // The batch API's scalar arm must equal per-query scalar calls too.
  const auto scalar_batch =
      search_fragment_batch(contexts, frag, KernelKind::kScalar);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    expect_results_identical(search_fragment(contexts[i], frag),
                             scalar_batch[i], "scalar batch");
  }
}

TEST(KernelDiff, DegenerateProteinInputs) {
  // Subjects include lengths below, at, and just above the word size.
  std::vector<seqdb::FastaRecord> db = {
      {"s0", "", "A"},
      {"s1", "", "AR"},
      {"s2", "", "ARN"},
      {"s3", "", "ARND"},
      {"s4", "", "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"},
      {"s5", "", "MKVLAARNDCQEGHILKMFPSTWYVMKVLAARNDCQEGHILKMFPSTWYV"},
      {"s6", "", std::string(64, 'L')},
  };
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  auto params = SearchParams::blastp_defaults();
  params.evalue_cutoff = 1e9;  // let weak hits through the statistics
  params.cutoff_score_min = 1;

  const std::vector<std::string> queries = {
      "",                      // empty
      "A",                     // below word size
      "AR",                    // below word size
      "ARN",                   // exactly one word
      "XXXXXXXXXXXXXXXXXXXX",  // all wildcard
      "MKVLAARNDCQEGHILKMFPSTWYVMKVLAARNDCQEGHILKMFPSTWYV",  // = subject s5
      std::string(8, 'L'),     // one SWAR block exactly
      std::string(16, 'L'),    // two blocks
      std::string(17, 'L'),    // blocks + tail
  };
  for (const std::string& qs : queries) {
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    QueryContext ctx(0, q, params, m, gstats);
    const auto scalar = search_fragment(ctx, frag);
    const auto fast = search_fragment_fast(ctx, frag);
    expect_results_identical(scalar, fast, qs.empty() ? "<empty>" : qs.c_str());
  }
}

TEST(KernelDiff, DegenerateDnaInputs) {
  std::vector<seqdb::FastaRecord> db = {
      {"s0", "", "ACGT"},
      {"s1", "", "NNNNNNNNNNNNNNNNNNNNNNNN"},
      {"s2", "", "ACGTACGTACGTNACGTACGTACGTACGT"},
      {"s3", "", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"},
  };
  const auto frag = whole_db(db, SeqType::kNucleotide);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  params.evalue_cutoff = 1e9;
  params.cutoff_score_min = 1;
  const auto m = make_matrix(params);

  const std::vector<std::string> queries = {
      "",
      "ACGT",                                       // below word size
      "NNNNNNNNNNNNNNNNNNNN",                       // all ambiguous
      "ACGTACGTACG",                                // exactly one word
      "ACGTACGTACGTNACGTACGTACGTACGT",              // interior N
      "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT",   // = subject s3
  };
  for (const std::string& qs : queries) {
    const auto q = seqdb::encode_sequence(SeqType::kNucleotide, qs);
    QueryContext ctx(0, q, params, m, gstats);
    const auto scalar = search_fragment(ctx, frag);
    const auto fast = search_fragment_fast(ctx, frag);
    expect_results_identical(scalar, fast, qs.empty() ? "<empty>" : qs.c_str());
  }
}

// ---------- deterministic fuzz ---------------------------------------------

std::string random_sequence(std::mt19937& rng, SeqType type, std::size_t len,
                            double wildcard_rate) {
  const std::string_view letters = type == SeqType::kProtein
                                       ? seqdb::kProteinLetters
                                       : seqdb::kDnaLetters;
  // The last letter of each alphabet view region is the wildcard-ish end;
  // draw wildcards explicitly so degenerate residues are well represented.
  std::uniform_int_distribution<std::size_t> pick(0, letters.size() - 1);
  std::bernoulli_distribution wild(wildcard_rate);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (wild(rng)) {
      s.push_back(type == SeqType::kProtein ? 'X' : 'N');
    } else {
      s.push_back(letters[pick(rng)]);
    }
  }
  return s;
}

/// Dumps a failing fuzz case to stderr so it can be replayed by hand.
void dump_case(std::uint64_t iter, const SearchParams& params,
               const std::vector<seqdb::FastaRecord>& db,
               const std::string& query) {
  std::ostringstream os;
  os << "=== kernel fuzz mismatch (iteration " << iter << ") ===\n"
     << "params: word=" << params.word_size << " T=" << params.threshold
     << " A=" << params.two_hit_window << " xu=" << params.xdrop_ungapped
     << " xg=" << params.xdrop_gapped << " open=" << params.gap_open
     << " ext=" << params.gap_extend << " trig=" << params.gap_trigger
     << "\nquery: " << (query.empty() ? "<empty>" : query) << "\n";
  for (const auto& r : db) os << ">" << r.id << "\n" << r.sequence << "\n";
  std::cerr << os.str();
}

TEST(KernelDiff, FuzzProteinCorpora) {
  std::mt19937 rng(0xC0FFEEu);  // fixed seed: deterministic, replayable
  std::uniform_int_distribution<int> nseq(1, 12);
  std::uniform_int_distribution<std::size_t> slen(0, 160);
  std::uniform_int_distribution<int> thr(8, 13);
  std::uniform_int_distribution<int> window(0, 2);
  std::uniform_int_distribution<int> xdrop_u(4, 30);
  std::uniform_int_distribution<int> xdrop_g(5, 60);
  std::uniform_int_distribution<int> open(5, 12);
  std::uniform_int_distribution<int> extend(1, 3);
  std::uniform_int_distribution<int> trigger(12, 45);

  const auto m = ScoringMatrix::blosum62();
  for (std::uint64_t iter = 0; iter < 60; ++iter) {
    auto params = SearchParams::blastp_defaults();
    params.threshold = thr(rng);
    params.two_hit_window = window(rng) * 20;  // 0 (single-hit), 20, 40
    params.xdrop_ungapped = xdrop_u(rng);
    params.xdrop_gapped = xdrop_g(rng);
    params.gap_open = open(rng);
    params.gap_extend = extend(rng);
    params.gap_trigger = trigger(rng);
    params.cutoff_score_min = 5;
    params.evalue_cutoff = 1e6;

    std::vector<seqdb::FastaRecord> db;
    const int n = nseq(rng);
    for (int i = 0; i < n; ++i) {
      std::string s = random_sequence(rng, SeqType::kProtein, slen(rng), 0.05);
      if (s.empty()) s = "A";  // formatted volumes hold non-empty sequences
      db.push_back({"f" + std::to_string(i), "", std::move(s)});
    }
    // Half the queries are mutated copies of a database sequence (long
    // identical runs exercise the SWAR skip); half are fresh random.
    std::string qs;
    if (iter % 2 == 0) {
      qs = db[static_cast<std::size_t>(iter / 2) % db.size()].sequence;
      std::uniform_int_distribution<std::size_t> pos(0, qs.empty() ? 0 : qs.size() - 1);
      for (int k = 0; k < 3 && !qs.empty(); ++k)
        qs[pos(rng)] = seqdb::kProteinLetters[rng() % 20];
    } else {
      qs = random_sequence(rng, SeqType::kProtein, slen(rng), 0.05);
    }

    const auto frag = whole_db(db);
    const auto gstats = stats_of(db);
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    QueryContext ctx(0, q, params, m, gstats);
    const auto scalar = search_fragment(ctx, frag);
    const auto fast = search_fragment_fast(ctx, frag);
    expect_results_identical(scalar, fast, "fuzz");
    if (::testing::Test::HasNonfatalFailure() ||
        ::testing::Test::HasFatalFailure()) {
      dump_case(iter, params, db, qs);
      FAIL() << "fast kernel diverged from scalar oracle at iteration " << iter;
    }
  }
}

TEST(KernelDiff, FuzzDnaCorpora) {
  std::mt19937 rng(0xD15EA5Eu);
  std::uniform_int_distribution<int> nseq(1, 10);
  std::uniform_int_distribution<std::size_t> slen(0, 200);
  std::uniform_int_distribution<int> word(4, 12);
  std::uniform_int_distribution<int> xdrop_u(4, 30);
  std::uniform_int_distribution<int> xdrop_g(5, 50);
  std::uniform_int_distribution<int> open(3, 8);
  std::uniform_int_distribution<int> extend(1, 3);
  std::uniform_int_distribution<int> trigger(8, 25);

  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    auto params = SearchParams::blastn_defaults();
    params.word_size = word(rng);
    params.xdrop_ungapped = xdrop_u(rng);
    params.xdrop_gapped = xdrop_g(rng);
    params.gap_open = open(rng);
    params.gap_extend = extend(rng);
    params.gap_trigger = trigger(rng);
    params.cutoff_score_min = 5;
    params.evalue_cutoff = 1e6;
    const auto m = make_matrix(params);

    std::vector<seqdb::FastaRecord> db;
    const int n = nseq(rng);
    for (int i = 0; i < n; ++i) {
      std::string s = random_sequence(rng, SeqType::kNucleotide, slen(rng), 0.08);
      if (s.empty()) s = "A";
      db.push_back({"f" + std::to_string(i), "", std::move(s)});
    }
    std::string qs;
    if (iter % 2 == 0) {
      qs = db[static_cast<std::size_t>(iter / 2) % db.size()].sequence;
    } else {
      qs = random_sequence(rng, SeqType::kNucleotide, slen(rng), 0.08);
    }

    const auto frag = whole_db(db, SeqType::kNucleotide);
    const auto gstats = stats_of(db);
    const auto q = seqdb::encode_sequence(SeqType::kNucleotide, qs);
    QueryContext ctx(0, q, params, m, gstats);
    const auto scalar = search_fragment(ctx, frag);
    const auto fast = search_fragment_fast(ctx, frag);
    expect_results_identical(scalar, fast, "dna fuzz");
    if (::testing::Test::HasNonfatalFailure() ||
        ::testing::Test::HasFatalFailure()) {
      dump_case(iter, params, db, qs);
      FAIL() << "fast kernel diverged from scalar oracle at iteration " << iter;
    }
  }
}

// ---------- shared merged neighborhood (QuerySet) ---------------------------

/// Formats `records` as one fragment whose first sequence has global id
/// `first_global`.
seqdb::LoadedFragment fragment_at(const std::vector<seqdb::FastaRecord>& records,
                                  std::uint64_t first_global,
                                  SeqType type = SeqType::kProtein) {
  pario::VirtualFS fs;
  seqdb::format_db(fs, records, "frag", type, "t");
  return seqdb::load_volumes(fs, "frag", type, first_global);
}

std::string fasta_of(const std::vector<std::string>& seqs) {
  std::string text;
  for (std::size_t i = 0; i < seqs.size(); ++i)
    text += ">q" + std::to_string(i) + "\n" + seqs[i] + "\n";
  return text;
}

/// The ContractViolation text `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string violation_of(Fn&& fn) {
  try {
    fn();
  } catch (const util::ContractViolation& e) {
    return e.what();
  }
  return "";
}

/// Many tiny fragments (1-4 subjects each, including a fragment holding
/// only a subject shorter than the word size) plus a query set mixing
/// mutated database copies, fresh random queries and a sub-word query.
struct TinyFragmentCase {
  std::vector<seqdb::FastaRecord> db;
  std::vector<seqdb::LoadedFragment> frags;
  std::vector<std::string> queries;

  TinyFragmentCase(SeqType type, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> slen(1, 120);
    std::uniform_int_distribution<std::size_t> chunk(1, 4);
    for (int i = 0; i < 40; ++i)
      db.push_back({"s" + std::to_string(i), "",
                    random_sequence(rng, type, slen(rng), 0.03)});
    db[5].sequence = type == SeqType::kProtein ? "AR" : "ACGTA";
    for (std::size_t first = 0; first < db.size();) {
      // Subject 5 is shorter than the word size and gets a fragment alone.
      const std::size_t n =
          first == 5 ? 1 : std::min(chunk(rng), (first < 5 ? 5 : db.size()) - first);
      frags.push_back(fragment_at({db.begin() + first, db.begin() + first + n},
                                  first, type));
      first += n;
    }
    for (std::size_t i = 0; i < 10; ++i) {
      std::string q = db[(i * 7) % db.size()].sequence;
      if (q.size() > 4) q[q.size() / 2] = type == SeqType::kProtein ? 'W' : 'T';
      queries.push_back(i % 3 == 2 ? random_sequence(rng, type, slen(rng), 0.03)
                                   : q);
    }
    queries.push_back(type == SeqType::kProtein ? "AR" : "ACG");  // < one word
  }
};

SearchParams permissive(SearchParams params) {
  params.evalue_cutoff = 1e6;
  params.cutoff_score_min = 5;
  return params;
}

TEST(SharedIndex, QuerySetIndexMatchesSpanOverloadAndScalar) {
  const TinyFragmentCase c(SeqType::kProtein, 0x5EEDu);
  const auto set = QuerySet::build(fasta_of(c.queries),
                                   permissive(SearchParams::blastp_defaults()),
                                   stats_of(c.db));
  ASSERT_FALSE(set->merged_neighborhood().empty());
  const std::span<const QueryContext> contexts = set->contexts();
  std::size_t hsps = 0;
  for (std::size_t f = 0; f < c.frags.size(); ++f) {
    const auto shared = search_fragment_batch(
        contexts, set->merged_neighborhood(), c.frags[f], KernelKind::kFast);
    const auto per_call =
        search_fragment_batch(contexts, c.frags[f], KernelKind::kFast);
    const auto scalar =
        search_fragment_batch(contexts, c.frags[f], KernelKind::kScalar);
    ASSERT_EQ(shared.size(), contexts.size());
    for (std::size_t q = 0; q < contexts.size(); ++q) {
      const std::string what =
          "fragment " + std::to_string(f) + " query " + std::to_string(q);
      expect_results_identical(scalar[q], shared[q], (what + " shared").c_str());
      expect_results_identical(scalar[q], per_call[q],
                               (what + " per-call").c_str());
      hsps += shared[q].hsps.size();
    }
  }
  EXPECT_GT(hsps, 0u) << "corpus too weak to exercise the extension path";
}

TEST(SharedIndex, QuerySetIndexEqualsRebuiltIndex) {
  const TinyFragmentCase c(SeqType::kProtein, 0x1DE7u);
  const auto set = QuerySet::build(fasta_of(c.queries),
                                   SearchParams::blastp_defaults(),
                                   stats_of(c.db));
  const BatchNeighborhood& shared = set->merged_neighborhood();
  const BatchNeighborhood rebuilt(set->contexts());
  ASSERT_EQ(shared.offsets.size(), 24u * 24u * 24u + 1);
  EXPECT_FALSE(shared.entries.empty());
  EXPECT_EQ(shared.offsets, rebuilt.offsets);
  EXPECT_EQ(shared.entries, rebuilt.entries);
}

TEST(SharedIndex, NucleotideQuerySetHasNoIndexAndSearchesAsBefore) {
  const TinyFragmentCase c(SeqType::kNucleotide, 0xD7Au);
  auto params = permissive(SearchParams::blastn_defaults());
  params.word_size = 4;  // tiny sequences still seed
  const auto set = QuerySet::build(fasta_of(c.queries), params, stats_of(c.db));
  EXPECT_TRUE(set->merged_neighborhood().empty());
  const std::span<const QueryContext> contexts = set->contexts();
  for (const auto& frag : c.frags) {
    const auto shared = search_fragment_batch(
        contexts, set->merged_neighborhood(), frag, KernelKind::kFast);
    const auto per_call = search_fragment_batch(contexts, frag, KernelKind::kFast);
    for (std::size_t q = 0; q < contexts.size(); ++q) {
      const auto scalar = search_fragment(contexts[q], frag);
      expect_results_identical(scalar, shared[q], "dna shared");
      expect_results_identical(scalar, per_call[q], "dna per-call");
    }
  }
}

TEST(SharedIndex, TooManyQueriesBuildsUnindexedAndSearchesScalar) {
  // 1024 queries overflow the 10-bit query-id tag. Most are sub-word (cheap
  // to build); a few real ones make the scalar search produce hits.
  const auto db = family_db(6'000, 211);
  std::vector<std::string> queries(BatchNeighborhood::kMaxQueries, "AR");
  for (std::size_t i = 0; i < 8; ++i)
    queries[i * 127] = db[i % db.size()].sequence;
  const auto frag = whole_db(db);
  const auto set = QuerySet::build(fasta_of(queries),
                                   SearchParams::blastp_defaults(), stats_of(db));
  ASSERT_EQ(set->size(), BatchNeighborhood::kMaxQueries);
  EXPECT_TRUE(set->merged_neighborhood().empty());
  const std::span<const QueryContext> contexts = set->contexts();

  EXPECT_NE(violation_of([&] {
              search_fragment_batch(contexts, set->merged_neighborhood(), frag,
                                    KernelKind::kFast);
            }).find("fast kernel: batch exceeds query-id tag range"),
            std::string::npos);
  EXPECT_NE(violation_of([&] {
              search_fragment_batch(contexts, frag, KernelKind::kFast);
            }).find("fast kernel: batch exceeds query-id tag range"),
            std::string::npos);

  const auto scalar = search_fragment_batch(contexts, set->merged_neighborhood(),
                                            frag, KernelKind::kScalar);
  std::size_t hsps = 0;
  for (std::size_t q = 0; q < contexts.size(); q += 127) {
    expect_results_identical(search_fragment(contexts[q], frag), scalar[q],
                             "scalar member");
    hsps += scalar[q].hsps.size();
  }
  EXPECT_GT(hsps, 0u);
}

TEST(SharedIndex, OverlongQueryBuildsUnindexedAndSearchesScalar) {
  // A query of >= 2^22 residues overflows the position tag. Its padding is
  // all wildcard (no neighborhood), so only the tail seeds — at positions
  // past the tag range.
  const std::string tail = "MKVLAARNDCQEGHILKMFPSTWYVMKVLAARNDCQEGHILKMFPSTWYV";
  const std::string query =
      std::string(std::size_t{1} << BatchNeighborhood::kQposBits, 'X') + tail;
  const std::vector<seqdb::FastaRecord> db = {{"s0", "", tail},
                                              {"s1", "", "AR"}};
  const auto frag = whole_db(db);
  const auto set = QuerySet::build(fasta_of({query}),
                                   SearchParams::blastp_defaults(), stats_of(db));
  EXPECT_TRUE(set->merged_neighborhood().empty());
  const std::span<const QueryContext> contexts = set->contexts();

  EXPECT_NE(violation_of([&] {
              search_fragment_batch(contexts, set->merged_neighborhood(), frag,
                                    KernelKind::kFast);
            }).find("fast kernel: query exceeds position tag range"),
            std::string::npos);
  EXPECT_NE(violation_of([&] {
              search_fragment_batch(contexts, frag, KernelKind::kFast);
            }).find("fast kernel: query exceeds position tag range"),
            std::string::npos);

  const auto scalar = search_fragment_batch(contexts, set->merged_neighborhood(),
                                            frag, KernelKind::kScalar);
  ASSERT_FALSE(scalar[0].hsps.empty());
  EXPECT_GE(scalar[0].hsps[0].qstart, std::uint32_t{1} << BatchNeighborhood::kQposBits);
}

TEST(SharedIndex, MismatchedIndexIsRejected) {
  const TinyFragmentCase c(SeqType::kProtein, 0xBADu);
  const auto set = QuerySet::build(fasta_of(c.queries),
                                   SearchParams::blastp_defaults(),
                                   stats_of(c.db));
  const std::span<const QueryContext> contexts = set->contexts();
  EXPECT_NE(violation_of([&] {
              search_fragment_batch(contexts.first(3),
                                    set->merged_neighborhood(), c.frags[0],
                                    KernelKind::kFast);
            }).find("merged neighborhood was not built from this batch"),
            std::string::npos);
}

// ---------- FlatNeighborhood / FragmentIndex properties ---------------------

TEST(FlatNeighborhoodProperty, MatchesWordIndexUnderRandomMatrices) {
  std::mt19937 rng(0xF1A7u);
  std::uniform_int_distribution<int> cell(-5, 7);
  std::uniform_int_distribution<int> thr(-2, 18);
  std::uniform_int_distribution<std::size_t> qlen(0, 80);

  const KarlinParams kp{0.27, 0.04, 0.25};
  for (int round = 0; round < 20; ++round) {
    std::vector<int> scores(24 * 24);
    for (int& v : scores) v = cell(rng);
    const auto m = ScoringMatrix::custom(24, scores, kp, kp);

    auto params = SearchParams::blastp_defaults();
    params.threshold = thr(rng);
    const std::string qs =
        random_sequence(rng, SeqType::kProtein, qlen(rng), 0.05);
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);

    const WordIndex oracle(q, m, params);
    const FlatNeighborhood flat(q, m, params);

    EXPECT_EQ(flat.total_entries(), oracle.total_entries());
    // Every packed word's bucket must equal the oracle's position list —
    // same contents, same (query-position-ascending) order.
    for (std::uint32_t code = 0; code < 24u * 24u * 24u; ++code) {
      const std::uint8_t word[3] = {
          static_cast<std::uint8_t>(code / (24 * 24)),
          static_cast<std::uint8_t>((code / 24) % 24),
          static_cast<std::uint8_t>(code % 24)};
      const PositionList* expected = q.size() >= 3 ? oracle.probe(word) : nullptr;
      const auto got = flat.neighbors(code);
      if (expected == nullptr) {
        EXPECT_TRUE(got.empty()) << "code " << code;
      } else {
        ASSERT_EQ(got.size(), expected->size()) << "code " << code;
        for (std::size_t k = 0; k < got.size(); ++k)
          EXPECT_EQ(got[k], (*expected)[k]) << "code " << code << " entry " << k;
      }
    }
  }
}

TEST(FlatNeighborhoodProperty, OffsetsMonotoneAndCovering) {
  std::mt19937 rng(0x0FF5E75u);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  for (int round = 0; round < 10; ++round) {
    const std::string qs = random_sequence(
        rng, SeqType::kProtein, 20 + static_cast<std::size_t>(rng() % 120), 0.05);
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    const FlatNeighborhood flat(q, m, params);
    const auto offsets = flat.offsets();
    ASSERT_EQ(offsets.size(), 24u * 24u * 24u + 1);
    EXPECT_EQ(offsets.front(), 0u);
    for (std::size_t i = 1; i < offsets.size(); ++i)
      EXPECT_LE(offsets[i - 1], offsets[i]) << "offset " << i;
    EXPECT_EQ(offsets.back(), flat.entries().size());
    // Every entry is a valid word start position.
    for (const std::uint32_t pos : flat.entries())
      EXPECT_LE(pos + 3, q.size());
  }
}

TEST(FlatNeighborhoodProperty, DnaMatchesWordIndex) {
  std::mt19937 rng(0xD7A5u);
  for (int round = 0; round < 15; ++round) {
    auto params = SearchParams::blastn_defaults();
    params.word_size = 4 + static_cast<int>(rng() % 9);
    const auto m = make_matrix(params);
    const std::string qs = random_sequence(
        rng, SeqType::kNucleotide, static_cast<std::size_t>(rng() % 200), 0.1);
    const auto q = seqdb::encode_sequence(SeqType::kNucleotide, qs);

    const WordIndex oracle(q, m, params);
    const FlatNeighborhood flat(q, m, params);
    EXPECT_EQ(flat.total_entries(), oracle.total_entries());

    // Keys sorted strictly ascending.
    const auto keys = flat.keys();
    for (std::size_t i = 1; i < keys.size(); ++i)
      EXPECT_LT(keys[i - 1], keys[i]);

    // Probe every subject position of the query against both structures.
    const std::size_t w = static_cast<std::size_t>(params.word_size);
    if (q.size() < w) continue;
    for (std::size_t pos = 0; pos + w <= q.size(); ++pos) {
      const PositionList* expected = oracle.probe(q.data() + pos);
      bool valid = true;
      std::uint64_t packed = 0;
      for (std::size_t k = 0; k < w; ++k) {
        if (q[pos + k] >= 4) { valid = false; break; }
        packed = (packed << 2) | q[pos + k];
      }
      const auto got = valid ? flat.neighbors_packed(packed)
                             : std::span<const std::uint32_t>{};
      if (expected == nullptr) {
        EXPECT_TRUE(got.empty()) << "pos " << pos;
      } else {
        ASSERT_EQ(got.size(), expected->size()) << "pos " << pos;
        for (std::size_t k = 0; k < got.size(); ++k)
          EXPECT_EQ(got[k], (*expected)[k]) << "pos " << pos;
      }
    }
  }
}

TEST(FragmentIndexProperty, CodesMatchScalarPacking) {
  const auto db = family_db(20'000, 113);
  const auto frag = whole_db(db);
  const auto params = SearchParams::blastp_defaults();
  const FragmentIndex index(frag, params);
  ASSERT_EQ(index.num_seqs(), frag.num_seqs());
  for (std::uint64_t local = 0; local < frag.num_seqs(); ++local) {
    const auto s = frag.sequence(local);
    const auto codes = index.codes32(local);
    const std::size_t nwords = s.size() >= 3 ? s.size() - 2 : 0;
    ASSERT_EQ(codes.size(), nwords);
    for (std::size_t pos = 0; pos < nwords; ++pos) {
      const std::uint32_t expected =
          (static_cast<std::uint32_t>(s[pos]) * 24u + s[pos + 1]) * 24u +
          s[pos + 2];
      ASSERT_EQ(codes[pos], expected) << "seq " << local << " pos " << pos;
    }
  }
}

TEST(FragmentIndexProperty, DnaCodesFlagAmbiguousWindows) {
  std::vector<seqdb::FastaRecord> db = {
      {"s0", "", "ACGTACGTNACGTACGTACGT"},
      {"s1", "", "NNNNNN"},
      {"s2", "", "ACGTACGTACGTACGTACGT"},
  };
  const auto frag = whole_db(db, SeqType::kNucleotide);
  auto params = SearchParams::blastn_defaults();
  params.word_size = 5;
  const FragmentIndex index(frag, params);
  const std::size_t w = 5;
  for (std::uint64_t local = 0; local < frag.num_seqs(); ++local) {
    const auto s = frag.sequence(local);
    const auto codes = index.codes64(local);
    ASSERT_EQ(codes.size(), s.size() >= w ? s.size() - w + 1 : 0);
    for (std::size_t pos = 0; pos < codes.size(); ++pos) {
      bool ambiguous = false;
      std::uint64_t packed = 0;
      for (std::size_t k = 0; k < w; ++k) {
        if (s[pos + k] >= 4) { ambiguous = true; break; }
        packed = (packed << 2) | s[pos + k];
      }
      if (ambiguous) {
        EXPECT_EQ(codes[pos], FragmentIndex::kInvalidWord)
            << "seq " << local << " pos " << pos;
      } else {
        EXPECT_EQ(codes[pos], packed) << "seq " << local << " pos " << pos;
      }
    }
  }
}

// ---------- extension edge cases -------------------------------------------

/// Replays a gapped traceback and recomputes the raw score independently
/// (affine costs: each maximal gap run costs open + k*extend). A mismatch
/// means the DP and its traceback disagree — the strongest single invariant
/// over the extension code.
int replay_gapped_score(const GappedExtension& g,
                        std::span<const std::uint8_t> q,
                        std::span<const std::uint8_t> s,
                        const ScoringMatrix& m, int gap_open, int gap_extend) {
  int score = 0;
  std::uint32_t qi = g.qstart;
  std::uint64_t si = g.sstart;
  AlignOp prev = AlignOp::kMatch;
  for (const AlignOp op : g.ops) {
    switch (op) {
      case AlignOp::kMatch:
        score += m.score(q[qi++], s[si++]);
        break;
      case AlignOp::kInsert:
        if (prev != AlignOp::kInsert) score -= gap_open;
        score -= gap_extend;
        ++qi;
        break;
      case AlignOp::kDelete:
        if (prev != AlignOp::kDelete) score -= gap_open;
        score -= gap_extend;
        ++si;
        break;
    }
    prev = op;
  }
  EXPECT_EQ(qi, g.qend);
  EXPECT_EQ(si, g.send);
  return score;
}

void expect_gapped_identical(const GappedExtension& a, const GappedExtension& b) {
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.qstart, b.qstart);
  EXPECT_EQ(a.qend, b.qend);
  EXPECT_EQ(a.sstart, b.sstart);
  EXPECT_EQ(a.send, b.send);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.ops, b.ops);
}

TEST(ExtendEdge, UngappedSeedAtSequenceBoundaries) {
  const auto m = ScoringMatrix::blosum62();
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  const auto s = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  const SelfScoreProfile self(q, m);
  // Seed at the very start, middle, and last possible position; the
  // extension must terminate cleanly at both sequence ends.
  for (const std::uint32_t pos : {0u, 10u, 22u}) {
    const auto a = extend_ungapped(q, s, pos, pos, 3, m, 16);
    const auto b = extend_ungapped_fast(q, s, pos, pos, 3, m, 16, self);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.qstart, b.qstart);
    EXPECT_EQ(a.qend, b.qend);
    EXPECT_EQ(a.sstart, b.sstart);
    EXPECT_EQ(a.send, b.send);
    EXPECT_EQ(a.cells, b.cells);
    // Full-identity pair: the extension must span both sequences.
    EXPECT_EQ(a.qstart, 0u);
    EXPECT_EQ(a.qend, q.size());
    EXPECT_LE(a.qend, q.size());
    EXPECT_LE(a.send, s.size());
  }
}

TEST(ExtendEdge, UngappedXdropStopsInsideMismatchRun) {
  const auto m = ScoringMatrix::blosum62();
  // Identical prefix, then a long mismatch tail: the X-drop must stop the
  // rightward pass inside the tail, not at the sequence end.
  const auto q = seqdb::encode_sequence(
      SeqType::kProtein, "MKVLAARNDC" + std::string(30, 'W'));
  const auto s = seqdb::encode_sequence(
      SeqType::kProtein, "MKVLAARNDC" + std::string(30, 'P'));
  const SelfScoreProfile self(q, m);
  const auto a = extend_ungapped(q, s, 0, 0, 3, m, 16);
  const auto b = extend_ungapped_fast(q, s, 0, 0, 3, m, 16, self);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.qend, b.qend);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.qend, 10u);  // best prefix is exactly the identical run
  EXPECT_LT(a.cells, q.size() + 3);  // pruned well before the end
}

TEST(ExtendEdge, GappedBandExceedsShorterSequence) {
  const auto m = ScoringMatrix::blosum62();
  // Long query against a 4-residue subject with an effectively unbounded
  // X-drop: the DP band is clamped by the subject length every row and the
  // walk must terminate without touching out-of-band cells.
  const auto q = seqdb::encode_sequence(SeqType::kProtein, std::string(60, 'L'));
  const auto s = seqdb::encode_sequence(SeqType::kProtein, "LLLL");
  GappedScratch scratch;
  const auto a = extend_gapped(q, s, 0, 0, m, 11, 1, 1'000'000);
  const auto b = extend_gapped_fast(q, s, 0, 0, m, 11, 1, 1'000'000, scratch);
  expect_gapped_identical(a, b);
  EXPECT_LE(a.send, s.size());
  EXPECT_EQ(replay_gapped_score(a, q, s, m, 11, 1), a.score);
}

TEST(ExtendEdge, GappedAnchorAtCorners) {
  const auto m = ScoringMatrix::blosum62();
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  const auto s = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  GappedScratch scratch;
  for (const std::uint32_t anchor :
       {0u, static_cast<std::uint32_t>(q.size() - 1)}) {
    const auto a = extend_gapped(q, s, anchor, anchor, m, 11, 1, 38);
    const auto b = extend_gapped_fast(q, s, anchor, anchor, m, 11, 1, 38,
                                      scratch);
    expect_gapped_identical(a, b);
    EXPECT_EQ(replay_gapped_score(a, q, s, m, 11, 1), a.score);
    EXPECT_EQ(a.qstart, 0u);
    EXPECT_EQ(a.qend, q.size());
  }
}

TEST(ExtendEdge, GappedScoreMatchesTracebackReplay) {
  // Randomized gapped extensions: the reported score must equal an
  // independent replay of the traceback under affine gap costs, and the
  // fast path must agree bit for bit. Catches latent DP/traceback
  // disagreements at window boundaries.
  std::mt19937 rng(0xE27E7Du);
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  for (int round = 0; round < 200; ++round) {
    const std::size_t qn = 2 + rng() % 60;
    const std::size_t sn = 2 + rng() % 60;
    const auto qs = random_sequence(rng, SeqType::kProtein, qn, 0.05);
    std::string ss;
    if (round % 2 == 0) {
      // Mutated copy: long near-identical stretches with indels.
      ss = qs;
      if (ss.size() > 4) {
        ss.erase(ss.begin() + static_cast<std::ptrdiff_t>(rng() % ss.size()));
        ss[rng() % ss.size()] = 'A';
      }
    } else {
      ss = random_sequence(rng, SeqType::kProtein, sn, 0.05);
    }
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    const auto s = seqdb::encode_sequence(SeqType::kProtein, ss);
    const std::uint32_t anchor_q = rng() % q.size();
    const std::uint64_t anchor_s = rng() % s.size();
    const int open = 5 + static_cast<int>(rng() % 8);
    const int extend = 1 + static_cast<int>(rng() % 3);
    const int xdrop = 5 + static_cast<int>(rng() % 60);

    const auto a = extend_gapped(q, s, anchor_q, anchor_s, m, open, extend, xdrop);
    const auto b = extend_gapped_fast(q, s, anchor_q, anchor_s, m, open,
                                      extend, xdrop, scratch);
    expect_gapped_identical(a, b);
    EXPECT_EQ(replay_gapped_score(a, q, s, m, open, extend), a.score)
        << "round " << round << " q=" << qs << " s=" << ss
        << " anchor=(" << anchor_q << "," << anchor_s << ") open=" << open
        << " ext=" << extend << " xdrop=" << xdrop;
  }
}

// ---------- driver-level byte identity and golden fixtures ------------------

struct DriverWorkload {
  std::vector<seqdb::FastaRecord> db;
  std::string query_fasta;
  blast::JobConfig job;
};

DriverWorkload make_workload(SeqType type, std::uint64_t seed) {
  DriverWorkload w;
  seqdb::GeneratorConfig gen;
  gen.type = type;
  gen.target_residues = 100u << 10;
  gen.seed = seed;
  gen.family_fraction = 0.55;
  w.db = seqdb::generate_database(gen);
  w.query_fasta = seqdb::write_fasta(seqdb::sample_queries(w.db, 3u << 10, seed + 1));
  w.job.db_base = "db";
  w.job.db_title = "kernel diff db";
  w.job.query_path = "queries.fa";
  w.job.params = type == SeqType::kProtein ? SearchParams::blastp_defaults()
                                           : SearchParams::blastn_defaults();
  w.job.params.hitlist_size = 25;
  return w;
}

void stage_queries(pario::ClusterStorage& storage, const DriverWorkload& w) {
  storage.shared().write_all(
      w.job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(w.query_fasta.data()),
                w.query_fasta.size()));
}

std::vector<std::uint8_t> run_mpi_kernel(const DriverWorkload& w, int nprocs,
                                         KernelKind kernel) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  const auto parts =
      seqdb::mpiformatdb(storage.shared(), w.db, w.job.db_base,
                         w.job.params.type, w.job.db_title, nprocs - 1);
  mpiblast::MpiBlastOptions opts;
  opts.job = w.job;
  opts.job.output_path = "out.mpi.txt";
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  opts.kernel = kernel;
  mpiblast::run_mpiblast(cluster, nprocs, storage, opts);
  return storage.shared().read_all("out.mpi.txt");
}

std::vector<std::uint8_t> run_pio_kernel(const DriverWorkload& w, int nprocs,
                                         KernelKind kernel,
                                         const mpisim::FaultPlan& faults = {},
                                         mpisim::Tracer* tracer = nullptr,
                                         bool dynamic = false) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  seqdb::format_db(storage.shared(), w.db, w.job.db_base, w.job.params.type,
                   w.job.db_title);
  pio::PioBlastOptions opts;
  opts.job = w.job;
  opts.job.output_path = "out.pio.txt";
  opts.kernel = kernel;
  opts.faults = faults;
  opts.tracer = tracer;
  if (dynamic) {
    opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
    opts.job.nfragments = 6;
  }
  pio::run_pioblast(cluster, nprocs, storage, opts);
  return storage.shared().read_all("out.pio.txt");
}

TEST(KernelDriverDiff, BothDriversByteIdenticalAcrossKernels) {
  const auto w = make_workload(SeqType::kProtein, 2024);
  const auto mpi_scalar = run_mpi_kernel(w, 4, KernelKind::kScalar);
  const auto mpi_fast = run_mpi_kernel(w, 4, KernelKind::kFast);
  ASSERT_FALSE(mpi_scalar.empty());
  EXPECT_EQ(mpi_scalar, mpi_fast);

  const auto pio_scalar = run_pio_kernel(w, 4, KernelKind::kScalar);
  const auto pio_fast = run_pio_kernel(w, 4, KernelKind::kFast);
  ASSERT_FALSE(pio_scalar.empty());
  EXPECT_EQ(pio_scalar, pio_fast);
  EXPECT_EQ(mpi_scalar, pio_scalar);  // drivers agree too
}

/// The 1-based comm-event ordinal of `rank`'s `nth` work request, read off
/// a probe run's trace (same idiom as the fault suite).
std::uint64_t nth_work_request_event(const mpisim::Tracer& tracer, int rank,
                                     int nth) {
  std::uint64_t events = 0;
  int requests = 0;
  for (const auto& e : tracer.for_rank(rank)) {
    if (e.kind != mpisim::TraceKind::kSend &&
        e.kind != mpisim::TraceKind::kRecv) {
      continue;
    }
    ++events;
    if (e.kind == mpisim::TraceKind::kSend && e.tag == driver::kTagWorkReq) {
      if (++requests == nth) return events;
    }
  }
  ADD_FAILURE() << "rank " << rank << " sent only " << requests
                << " work requests";
  return 0;
}

TEST(KernelDriverDiff, IdenticalAcrossKernelsUnderWorkerCrash) {
  const auto w = make_workload(SeqType::kProtein, 2025);
  const int nprocs = 4, victim = 3;

  // Probe (fast kernel, armed detector) to find a mid-serve-loop crash
  // point. Comm structure is kernel-independent — both kernels charge
  // identical virtual time — so the same ordinal crashes both runs at the
  // same protocol step.
  mpisim::FaultPlan armed;
  armed.arm_detector = true;
  mpisim::Tracer probe;
  const auto baseline =
      run_pio_kernel(w, nprocs, KernelKind::kFast, armed, &probe, true);
  ASSERT_FALSE(baseline.empty());
  const std::uint64_t crash_at = nth_work_request_event(probe, victim, 2);
  ASSERT_GT(crash_at, 0u);

  mpisim::FaultPlan faults;
  faults.at(victim).crash_at = crash_at;
  const auto crashed_fast =
      run_pio_kernel(w, nprocs, KernelKind::kFast, faults, nullptr, true);
  const auto crashed_scalar =
      run_pio_kernel(w, nprocs, KernelKind::kScalar, faults, nullptr, true);
  EXPECT_EQ(crashed_fast, crashed_scalar);
  EXPECT_EQ(crashed_fast, baseline);  // recovery preserves the report
}

// Golden fixtures: committed reports both kernels must reproduce exactly.
// Regenerate (after an intentional output change) with
//   PIOBLAST_UPDATE_GOLDEN=1 ./test_kernel_diff --gtest_filter='KernelGolden.*'
void check_golden(const char* name, const std::vector<std::uint8_t>& bytes) {
  const std::string path = std::string(PIOBLAST_TEST_DATA_DIR "/") + name;
  if (std::getenv("PIOBLAST_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << "failed to write " << path;
    GTEST_SKIP() << "updated golden fixture " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden fixture " << path
                        << " (run with PIOBLAST_UPDATE_GOLDEN=1 to create)";
  std::vector<std::uint8_t> expected(
      (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, expected) << "report diverged from " << path;
}

TEST(KernelGolden, ProteinReportBothKernels) {
  const auto w = make_workload(SeqType::kProtein, 777);
  check_golden("golden_protein_report.txt",
               run_pio_kernel(w, 3, KernelKind::kFast));
  check_golden("golden_protein_report.txt",
               run_pio_kernel(w, 3, KernelKind::kScalar));
  check_golden("golden_protein_report.txt",
               run_mpi_kernel(w, 3, KernelKind::kFast));
}

TEST(KernelGolden, DnaReportBothKernels) {
  const auto w = make_workload(SeqType::kNucleotide, 778);
  check_golden("golden_dna_report.txt", run_pio_kernel(w, 3, KernelKind::kFast));
  check_golden("golden_dna_report.txt",
               run_pio_kernel(w, 3, KernelKind::kScalar));
}

}  // namespace
}  // namespace pioblast::blast
