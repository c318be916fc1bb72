#include "blast/seed.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace pioblast::blast {

SearchParams SearchParams::blastp_defaults() {
  SearchParams p;
  p.type = seqdb::SeqType::kProtein;
  p.word_size = 3;
  p.threshold = 11;
  p.two_hit_window = 40;
  p.xdrop_ungapped = 16;
  p.xdrop_gapped = 38;
  p.gap_open = 11;
  p.gap_extend = 1;
  p.gap_trigger = 41;
  p.cutoff_score_min = 25;
  return p;
}

SearchParams SearchParams::blastn_defaults() {
  SearchParams p;
  p.type = seqdb::SeqType::kNucleotide;
  p.word_size = 11;
  p.threshold = 0;      // exact words
  p.two_hit_window = 0; // blastn extends on single hits
  p.xdrop_ungapped = 20;
  p.xdrop_gapped = 30;
  p.gap_open = 5;
  p.gap_extend = 2;
  p.gap_trigger = 18;
  p.cutoff_score_min = 14;
  return p;
}

WordIndex::WordIndex(std::span<const std::uint8_t> query,
                     const ScoringMatrix& matrix, const SearchParams& params)
    : is_dna_(params.type == seqdb::SeqType::kNucleotide),
      word_size_(params.word_size) {
  PIOBLAST_CHECK_MSG(!is_dna_ || (word_size_ >= 4 && word_size_ <= 31),
                     "blastn word size must be in [4,31]");
  PIOBLAST_CHECK_MSG(is_dna_ || word_size_ == 3, "blastp word size must be 3");
  if (query.size() < static_cast<std::size_t>(word_size_)) return;
  if (is_dna_) {
    build_dna(query);
  } else {
    build_protein(query, matrix, params.threshold);
  }
}

void WordIndex::build_protein(std::span<const std::uint8_t> query,
                              const ScoringMatrix& matrix, int threshold) {
  // A query shorter than a word has no neighborhood; probe() treats the
  // unallocated table as all-empty, which saves a 24^3 table per such query.
  if (query.size() < 3) return;
  dense_.assign(24u * 24u * 24u, {});
  const int n = static_cast<int>(query.size()) - 2;
  for (int pos = 0; pos < n; ++pos) {
    const std::uint8_t q0 = query[static_cast<std::size_t>(pos)];
    const std::uint8_t q1 = query[static_cast<std::size_t>(pos) + 1];
    const std::uint8_t q2 = query[static_cast<std::size_t>(pos) + 2];
    // Enumerate neighborhood words with branch-and-bound: a partial score
    // plus the remaining rows' maxima must still be able to reach T.
    const int max1 = matrix.row_max(q1);
    const int max2 = matrix.row_max(q2);
    for (std::uint8_t a = 0; a < 24; ++a) {
      const int s0 = matrix.score(q0, a);
      if (s0 + max1 + max2 < threshold) continue;
      for (std::uint8_t b = 0; b < 24; ++b) {
        const int s01 = s0 + matrix.score(q1, b);
        if (s01 + max2 < threshold) continue;
        for (std::uint8_t c = 0; c < 24; ++c) {
          if (s01 + matrix.score(q2, c) < threshold) continue;
          const std::uint32_t packed = (static_cast<std::uint32_t>(a) * 24u +
                                        b) * 24u + c;
          dense_[packed].push_back(static_cast<std::uint32_t>(pos));
          ++total_entries_;
        }
      }
    }
  }
}

void WordIndex::build_dna(std::span<const std::uint8_t> query) {
  const int w = word_size_;
  const std::uint64_t mask = (1ULL << (2 * w)) - 1;
  std::uint64_t packed = 0;
  int valid = 0;  // consecutive non-N residues accumulated
  for (std::size_t pos = 0; pos < query.size(); ++pos) {
    const std::uint8_t code = query[pos];
    if (code >= 4) {  // N or other ambiguity: restart the window
      valid = 0;
      packed = 0;
      continue;
    }
    packed = ((packed << 2) | code) & mask;
    if (++valid >= w) {
      sparse_[packed].push_back(static_cast<std::uint32_t>(pos + 1 - static_cast<std::size_t>(w)));
      ++total_entries_;
    }
  }
}

const PositionList* WordIndex::probe(const std::uint8_t* word) const {
  if (!is_dna_) {
    if (dense_.empty()) return nullptr;
    const PositionList& list = dense_[pack_protein(word)];
    return list.empty() ? nullptr : &list;
  }
  std::uint64_t packed = 0;
  for (int i = 0; i < word_size_; ++i) {
    if (word[i] >= 4) return nullptr;  // word contains N
    packed = (packed << 2) | word[i];
  }
  const auto it = sparse_.find(packed);
  return it == sparse_.end() ? nullptr : &it->second;
}

std::size_t WordIndex::distinct_words() const {
  if (is_dna_) return sparse_.size();
  std::size_t count = 0;
  for (const auto& list : dense_)
    if (!list.empty()) ++count;
  return count;
}

FlatNeighborhood::FlatNeighborhood(std::span<const std::uint8_t> query,
                                   const ScoringMatrix& matrix,
                                   const SearchParams& params)
    : is_dna_(params.type == seqdb::SeqType::kNucleotide),
      word_size_(params.word_size) {
  PIOBLAST_CHECK_MSG(!is_dna_ || (word_size_ >= 4 && word_size_ <= 31),
                     "blastn word size must be in [4,31]");
  PIOBLAST_CHECK_MSG(is_dna_ || word_size_ == 3, "blastp word size must be 3");
  if (is_dna_) {
    build_dna(query);
  } else {
    build_protein(query, matrix, params.threshold);
  }
  // Two zero pads past the last bucket so the scan loop can expand small
  // buckets with unconditional two-entry copies.
  entries_.push_back(0);
  entries_.push_back(0);
  for (std::size_t k = 0; k + 1 < offsets_.size(); ++k)
    max_bucket_ = std::max(max_bucket_,
                           static_cast<std::size_t>(offsets_[k + 1] - offsets_[k]));
}

void FlatNeighborhood::build_protein(std::span<const std::uint8_t> query,
                                     const ScoringMatrix& matrix,
                                     int threshold) {
  constexpr std::uint32_t kWords = 24u * 24u * 24u;
  offsets_.assign(kWords + 1, 0);
  if (query.size() < 3) return;

  // One enumeration pass into (word, pos) pairs, then a stable counting
  // sort by word. Pairs are generated with pos ascending, so each bucket
  // ends up pos-ascending — the same order the map-based builder appends.
  struct Pair {
    std::uint32_t word;
    std::uint32_t pos;
  };
  std::vector<Pair> pairs;
  const int n = static_cast<int>(query.size()) - 2;
  for (int pos = 0; pos < n; ++pos) {
    const std::uint8_t q0 = query[static_cast<std::size_t>(pos)];
    const std::uint8_t q1 = query[static_cast<std::size_t>(pos) + 1];
    const std::uint8_t q2 = query[static_cast<std::size_t>(pos) + 2];
    const int* row0 = matrix.row(q0);
    const int* row1 = matrix.row(q1);
    const int* row2 = matrix.row(q2);
    const int max1 = matrix.row_max(q1);
    const int max2 = matrix.row_max(q2);
    for (std::uint8_t a = 0; a < 24; ++a) {
      const int s0 = row0[a];
      if (s0 + max1 + max2 < threshold) continue;
      for (std::uint8_t b = 0; b < 24; ++b) {
        const int s01 = s0 + row1[b];
        if (s01 + max2 < threshold) continue;
        const std::uint32_t ab = (static_cast<std::uint32_t>(a) * 24u + b) * 24u;
        for (std::uint8_t c = 0; c < 24; ++c) {
          if (s01 + row2[c] < threshold) continue;
          pairs.push_back({ab + c, static_cast<std::uint32_t>(pos)});
        }
      }
    }
  }

  for (const Pair& pr : pairs) ++offsets_[pr.word + 1];
  for (std::uint32_t w = 0; w < kWords; ++w) offsets_[w + 1] += offsets_[w];
  entries_.resize(pairs.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Pair& pr : pairs) entries_[cursor[pr.word]++] = pr.pos;
}

void FlatNeighborhood::build_dna(std::span<const std::uint8_t> query) {
  const int w = word_size_;
  offsets_.assign(1, 0);
  if (query.size() < static_cast<std::size_t>(w)) return;

  const std::uint64_t mask = (1ULL << (2 * w)) - 1;
  struct Pair {
    std::uint64_t word;
    std::uint32_t pos;
  };
  std::vector<Pair> pairs;
  std::uint64_t packed = 0;
  int valid = 0;
  for (std::size_t pos = 0; pos < query.size(); ++pos) {
    const std::uint8_t code = query[pos];
    if (code >= 4) {
      valid = 0;
      packed = 0;
      continue;
    }
    packed = ((packed << 2) | code) & mask;
    if (++valid >= w) {
      pairs.push_back({packed, static_cast<std::uint32_t>(
                                   pos + 1 - static_cast<std::size_t>(w))});
    }
  }
  if (pairs.empty()) return;

  keys_.reserve(pairs.size());
  for (const Pair& pr : pairs) keys_.push_back(pr.word);
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());

  offsets_.assign(keys_.size() + 1, 0);
  auto bucket_of = [this](std::uint64_t word) {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), word) - keys_.begin());
  };
  for (const Pair& pr : pairs) ++offsets_[bucket_of(pr.word) + 1];
  for (std::size_t k = 0; k < keys_.size(); ++k) offsets_[k + 1] += offsets_[k];
  entries_.resize(pairs.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  // Pairs are pos-ascending, so the stable fill keeps every bucket in the
  // same order WordIndex's per-word push_back produces.
  for (const Pair& pr : pairs) entries_[cursor[bucket_of(pr.word)]++] = pr.pos;

  // Probe table for the scan loop: at most ~25% load so misses (the common
  // case — most subject words have no query neighbors) terminate on the
  // first or second slot.
  std::size_t cap = 16;
  while (cap < keys_.size() * 4) cap <<= 1;
  slots_.assign(cap, Slot{});
  slot_mask_ = cap - 1;
  slot_shift_ = 64 - std::countr_zero(cap);
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    std::size_t i =
        static_cast<std::size_t>(keys_[k] * 0x9E3779B97F4A7C15ull) >>
        slot_shift_;
    while (slots_[i].bucket1 != 0) i = (i + 1) & slot_mask_;
    slots_[i] = {keys_[k], static_cast<std::uint32_t>(k + 1)};
  }
}

}  // namespace pioblast::blast
