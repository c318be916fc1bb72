// perfbench: the repository benchmark. One binary drives named workloads
// through the public driver entry points (mpiblast::run_mpiblast,
// pio::run_pioblast) and measures both clocks of the reproduction:
//
//   * the host cost of the simulator (wall and CPU seconds per job), and
//   * the virtual makespan of the simulated job (DriverResult::phases).
//
// Every job's report is checked against the *other* driver's report for the
// same inputs, computed once per query set before timing: byte for byte,
// except for verified choices among equally ranked HSPs (see "The oracle").
// Layer numbers are measured from outside, by timing calls into each
// module's public functions (seqdb, blast, mpisim, pario) and by reading the
// counters a DriverResult already carries (driver, pario). Nothing in src/
// is instrumented for the benchmark.
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--commit <id>] [--source-digest <hex>]
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (the traced run also repeats the untraced jobs, so that the
// tracing overhead can be taken against them).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "blast/engine.h"
#include "blast/format.h"
#include "mpiblast/mpiblast.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"
#include "pario/collective.h"
#include "pario/env.h"
#include "pioblast/pioblast.h"
#include "seqdb/alphabet.h"
#include "seqdb/fasta.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pioblast::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+sys CPU seconds of the whole process (all threads).
double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace of the calls it makes. Kept in memory and
// written out at the end; recorded only in the traced run.

struct Span {
  std::string name;
  double start = 0;  ///< seconds since the benchmark started
  double end = 0;
  int parent = -1;   ///< index into the span list, -1 for a root
  int job = -1;      ///< job id the span belongs to, -1 outside jobs
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Records a span for the lifetime of the returned scope.
  class Scope {
   public:
    Scope(Spans& s, std::string name, int job) : s_(s) {
      if (!s_.enabled_) return;
      idx_ = static_cast<int>(s_.spans_.size());
      s_.spans_.push_back(
          {std::move(name), s_.now(), 0.0, s_.open_, job});
      s_.open_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      auto& span = s_.spans_[static_cast<std::size_t>(idx_)];
      span.end = s_.now();
      s_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int idx_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the time child spans cover.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return out;
  }

 private:
  double now() const { return seconds_since(t0_); }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Driver { kMpiBlast, kPioBlast };

const char* driver_name(Driver d) {
  return d == Driver::kMpiBlast ? "mpiblast" : "pioblast";
}

struct Workload {
  std::string name;
  Driver driver;
  int nprocs;
  std::uint64_t query_bytes;
  /// Generator settings, regenerated in every set-up repetition.
  seqdb::GeneratorConfig gen;
  /// The canonical copy of the database in bench/workloads.cpp, when this
  /// workload uses one; the regenerated database must equal it.
  const std::vector<seqdb::FastaRecord>* (*canonical)();
  sim::ClusterConfig (*cluster)();
  blast::JobConfig (*job)();
};

// Generator settings of the nr and nt analogues. bench/workloads.cpp keeps
// them private behind nr_database()/nt_database(); they are repeated here so
// that set-up can time generation on every repetition, and every run checks
// that the copy still generates the canonical database.
seqdb::GeneratorConfig nr_generator(std::uint64_t residues) {
  seqdb::GeneratorConfig cfg;
  cfg.type = seqdb::SeqType::kProtein;
  cfg.target_residues = residues;
  cfg.seed = 20050404;
  cfg.max_roots = 25;
  cfg.family_fraction = 0.9;
  cfg.mutation_rate = 0.06;
  cfg.indel_rate = 0.006;
  cfg.id_prefix = "nr";
  return cfg;
}

seqdb::GeneratorConfig nt_generator() {
  seqdb::GeneratorConfig cfg;
  cfg.type = seqdb::SeqType::kNucleotide;
  cfg.target_residues = 8u << 20;
  cfg.seed = 20050405;
  cfg.max_roots = 16;
  cfg.family_fraction = 0.7;
  cfg.mutation_rate = 0.08;
  cfg.indel_rate = 0.004;
  cfg.min_len = 200;
  cfg.max_len = 8000;
  cfg.log_mean = 7.0;
  cfg.log_sigma = 0.6;
  cfg.id_prefix = "nt";
  return cfg;
}

// Why these three (also recorded in BENCHMARK.json and perfbench/rationale.json):
//   protein-pio-32    the paper's Table 1 shape; kernel-bound on the protein
//                     path, so it is where a kernel change shows.
//   dna-mpi-blade-64  mpiBLAST's data handling on NFS plus local disks: the
//                     fragment copy and the master's serial fetch/merge/output
//                     dominate virtual time; the blastn word-probe kernel
//                     dominates host CPU.
//   wide-pio-1024     a small search spread over 1024 ranks, so the runtime,
//                     verifier, collectives and driver dominate host time.
std::vector<Workload> workloads() {
  return {
      {"protein-pio-32", Driver::kPioBlast, 32, bench::QuerySizes::kMedium,
       nr_generator(2u << 20), [] { return &bench::nr_database(); },
       bench::altix, bench::nr_job},
      {"dna-mpi-blade-64", Driver::kMpiBlast, 64, bench::QuerySizes::kDefault,
       nt_generator(), [] { return &bench::nt_database(); }, bench::blade,
       bench::nt_job},
      {"wide-pio-1024", Driver::kPioBlast, 1024, 1u << 10,
       nr_generator(256u << 10), nullptr, bench::altix, bench::nr_job},
  };
}

/// Query sets per run. Each run cycles its jobs over this many query sets
/// sampled from the run's seed; the per-job metrics are the mean over the
/// sets of each set's median job. On protein-pio-32 one 8 KB set alone varies
/// ~15% in job CPU and virtual makespan from seed to seed (the sampled
/// families differ in size), more than the bounds allow.
constexpr int kQuerySets = 10;

/// Set-up repetitions per run (setup_s is their median).
constexpr int kSetupReps = 15;

std::uint64_t query_seed(std::uint64_t seed, int set) {
  // Set 0 is sampled with the seed itself.
  return seed ^ (static_cast<std::uint64_t>(set) * 0x9E3779B97F4A7C15ull);
}

// ---------------------------------------------------------------------------
// Storage preparation and the driver call.

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Formatted database and staged queries for one job on fresh storage.
struct Prepared {
  std::unique_ptr<pario::ClusterStorage> storage;
  seqdb::StaticPartitionResult parts;  ///< mpiBLAST only
};

Prepared prepare(const Workload& w, Driver d,
                 const sim::ClusterConfig& cluster,
                 const blast::JobConfig& job,
                 const std::vector<seqdb::FastaRecord>& db,
                 const std::string& queries) {
  Prepared p;
  p.storage = std::make_unique<pario::ClusterStorage>(cluster, w.nprocs);
  p.storage->shared().write_all(job.query_path, bytes_of(queries));
  if (d == Driver::kMpiBlast) {
    p.parts = seqdb::mpiformatdb(p.storage->shared(), db, job.db_base,
                                 job.params.type, job.db_title, w.nprocs - 1);
  } else {
    seqdb::format_db(p.storage->shared(), db, job.db_base, job.params.type,
                     job.db_title);
  }
  return p;
}

blast::DriverResult run_driver(const Workload& w, Driver d,
                               const sim::ClusterConfig& cluster,
                               const blast::JobConfig& job, Prepared& p,
                               mpisim::Tracer* tracer) {
  // Only the job, its inputs and the tracer are set: exec model, kernel,
  // verifier and scheduler stay at the program's defaults on purpose.
  if (d == Driver::kMpiBlast) {
    mpiblast::MpiBlastOptions opts;
    opts.job = job;
    opts.tracer = tracer;
    opts.fragment_bases = p.parts.fragment_bases;
    opts.fragment_ranges = p.parts.ranges;
    opts.global_index = p.parts.global_index;
    return mpiblast::run_mpiblast(cluster, w.nprocs, *p.storage, opts);
  }
  pio::PioBlastOptions opts;
  opts.job = job;
  opts.tracer = tracer;
  return pio::run_pioblast(cluster, w.nprocs, *p.storage, opts);
}

std::string read_report(const pario::ClusterStorage& storage,
                        const blast::JobConfig& job) {
  const auto bytes = storage.shared().read_all(job.output_path);
  return {bytes.begin(), bytes.end()};
}

// ---------------------------------------------------------------------------
// The oracle.
//
// A job's report must be byte-identical to the other driver's report for the
// same inputs, with one exception. blast::Hsp::better ranks HSPs by score,
// E-value, subject and start coordinates only, so two HSPs of one query and
// subject that share all of these and differ only in extent rank equal:
// which of them survives the hit-list cut, or which is listed first, is left
// to std::sort and so to the order the candidates arrived in. mpiBLAST's
// greedy merge can choose differently from pioBLAST, and from itself on the
// next run. Such an alignment is accepted as a *tie choice* when its rank,
// as printed, equals the other driver's alignment at the same place and it
// is a genuine alignment of the job's inputs: its text is exactly what
// blast::format_alignment prints for the alignment its rows spell out over
// the real query and subject, and its gapped score under the job's scoring
// system is the printed raw score. Tie choices are counted and reported; any
// other difference fails the job.

/// Counts that must repeat exactly across jobs of one query set: virtual
/// time is charged from the search counters, so any drift here moves
/// virtual_makespan_s. (output_bytes moves with tie choices; it must equal
/// the size of the report the job wrote instead.)
const char* const kRepeatCounts[] = {"hsps_cached", "candidates_merged",
                                     "alignments_reported", "tasks_assigned"};

/// The inputs a tie choice is checked against.
struct JobInputs {
  const std::vector<seqdb::FastaRecord>& db;
  const std::string& query_fasta;
  const blast::SearchParams& params;
};

/// One alignment block of a pairwise report.
struct ReportAlignment {
  std::string_view text;
  /// What blast::Hsp::better ranks by, as printed: the subject defline and
  /// length, the score line, and the first query and subject coordinates.
  std::string rank;
};

/// One query's block: its header (the "Query=" line through the alignment
/// count, or the no-hits line) and its alignments.
struct ReportQuery {
  std::string_view header;
  std::vector<ReportAlignment> alignments;
};

/// The first whitespace-delimited token after the first `label` in `text`.
std::string_view token_after(std::string_view text, std::string_view label) {
  const auto at = text.find(label);
  if (at == std::string_view::npos) return {};
  const auto rest = text.substr(at + label.size());
  const auto b = rest.find_first_not_of(' ');
  if (b == std::string_view::npos) return {};
  return rest.substr(b, rest.find_first_of(" \n", b) - b);
}

std::string alignment_rank(std::string_view text) {
  return std::string(text.substr(0, text.find("\n Identities = "))) + "|" +
         std::string(token_after(text, "\nQuery: ")) + "|" +
         std::string(token_after(text, "\nSbjct: "));
}

std::vector<ReportQuery> split_report(std::string_view report) {
  std::vector<ReportQuery> out(1);
  std::size_t start = 0;
  bool alignment = report.starts_with('>');
  const auto close = [&](std::size_t end) {
    const auto text = report.substr(start, end - start);
    if (alignment)
      out.back().alignments.push_back({text, alignment_rank(text)});
    else
      out.back().header = text;
    start = end;
  };
  for (std::size_t pos = 0; pos < report.size();) {
    const std::size_t next =
        std::min(report.find('\n', pos), report.size() - 1) + 1;
    const auto line = report.substr(pos, next - pos);
    if (pos > 0 && (line.starts_with("Query= ") || line.starts_with('>'))) {
      close(pos);
      if (line.starts_with("Query= ")) out.emplace_back();
      alignment = line.starts_with('>');
    }
    pos = next;
  }
  close(report.size());
  return out;
}

const seqdb::FastaRecord* find_record(
    const std::vector<seqdb::FastaRecord>& records, std::string_view defline) {
  for (const auto& r : records)
    if (r.defline() == defline) return &r;
  return nullptr;
}

/// `text` without its score line (the line the rank already compares).
std::string without_score_line(std::string_view text) {
  const auto at = text.find("\n Score = ");
  if (at == std::string_view::npos) return std::string(text);
  const auto end = text.find('\n', at + 1);
  return std::string(text.substr(0, at)) +
         std::string(text.substr(std::min(end, text.size())));
}

/// Returns "" when `text`, an alignment of the query whose block header is
/// `header`, is a genuine alignment of the job's inputs (see above), else
/// the reason it is not.
std::string verify_alignment(std::string_view text, std::string_view header,
                             const JobInputs& in) {
  const auto line_after = [](std::string_view s, std::string_view prefix) {
    s.remove_prefix(std::min(prefix.size(), s.size()));
    return s.substr(0, s.find('\n'));
  };
  const auto queries = seqdb::parse_fasta(in.query_fasta);
  const auto* query = find_record(queries, line_after(header, "Query= "));
  const auto* subject = find_record(in.db, line_after(text, ">"));
  if (query == nullptr || subject == nullptr) return "unknown query or subject";

  // The rows, concatenated over the panels, and the first coordinates.
  std::string qrow, srow;
  std::uint64_t qfirst = 0, sfirst = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t next =
        std::min(text.find('\n', pos), text.size() - 1) + 1;
    const auto line = text.substr(pos, next - pos);
    const bool q = line.starts_with("Query: ");
    if (q || line.starts_with("Sbjct: ")) {
      const auto first = std::string(token_after(line, ": "));
      const auto rest = line.substr(line.find(first, 6) + first.size());
      const auto row = token_after(rest, "");
      std::uint64_t& start = q ? qfirst : sfirst;
      if (start == 0) start = std::strtoull(first.c_str(), nullptr, 10);
      (q ? qrow : srow) += row;
    }
    pos = next;
  }
  if (qrow.empty() || qrow.size() != srow.size() || qfirst == 0 || sfirst == 0)
    return "alignment rows do not parse";

  const auto type = in.params.type;
  const auto qres = seqdb::encode_sequence(type, query->sequence);
  const auto sres = seqdb::encode_sequence(type, subject->sequence);
  const blast::ScoringMatrix matrix = blast::make_matrix(in.params);
  blast::Hsp hsp;
  hsp.qstart = static_cast<std::uint32_t>(qfirst - 1);
  hsp.sstart = sfirst - 1;
  std::uint64_t qi = hsp.qstart, si = hsp.sstart;
  int score = 0;
  auto prev = blast::AlignOp::kMatch;
  for (std::size_t k = 0; k < qrow.size(); ++k) {
    const bool qgap = qrow[k] == '-', sgap = srow[k] == '-';
    if (qgap && sgap) return "alignment column with two gaps";
    const auto op = qgap   ? blast::AlignOp::kDelete
                    : sgap ? blast::AlignOp::kInsert
                           : blast::AlignOp::kMatch;
    if ((!qgap && qi >= qres.size()) || (!sgap && si >= sres.size()))
      return "alignment runs past the end of its sequences";
    if (op == blast::AlignOp::kMatch) {
      const int s = matrix.score(qres[qi], sres[si]);
      score += s;
      if (qres[qi] == sres[si]) ++hsp.identities;
      if (s > 0) ++hsp.positives;
    } else {
      score -= op == prev ? in.params.gap_extend
                          : in.params.gap_open + in.params.gap_extend;
      ++hsp.gaps;
    }
    qi += qgap ? 0 : 1;
    si += sgap ? 0 : 1;
    hsp.ops.push_back(op);
    prev = op;
  }
  hsp.qend = static_cast<std::uint32_t>(qi);
  hsp.send = si;
  hsp.align_len = static_cast<std::uint32_t>(hsp.ops.size());
  hsp.score = score;

  const std::string rendered = blast::format_alignment(
      hsp, type, qres, sres, subject->defline(), sres.size(), matrix);
  if (without_score_line(rendered) != without_score_line(text))
    return "alignment text is not what its rows format to";
  auto raw = token_after(text, " bits (");  // "<raw score>),"
  raw = raw.substr(0, raw.find(')'));
  if (std::to_string(score) != raw)
    return "alignment scores " + std::to_string(score) + ", report says " +
           std::string(raw);
  return "";
}

/// Compares a job's report with the oracle's. Returns "" when they agree up
/// to tie choices, whose number is stored in *ties, else the difference.
std::string compare_reports(std::string_view report, std::string_view oracle,
                            const JobInputs& in, int* ties) {
  *ties = 0;
  if (report == oracle) return "";
  std::size_t i = 0;
  while (i < report.size() && i < oracle.size() && report[i] == oracle[i]) ++i;
  const std::string differs =
      "report differs from the other driver's at byte " + std::to_string(i) +
      " (" + std::to_string(report.size()) + " vs " +
      std::to_string(oracle.size()) + " bytes)";
  const auto got = split_report(report), want = split_report(oracle);
  if (got.size() != want.size()) return differs + ": query count";
  int n = 0;
  for (std::size_t q = 0; q < got.size(); ++q) {
    const auto& g = got[q];
    const auto& w = want[q];
    if (g.header != w.header || g.alignments.size() != w.alignments.size())
      return differs + ": query block " + std::to_string(q);
    for (std::size_t a = 0; a < g.alignments.size(); ++a) {
      if (g.alignments[a].text == w.alignments[a].text) continue;
      if (g.alignments[a].rank != w.alignments[a].rank)
        return differs + ": alignment " + std::to_string(a) + " of query " +
               std::to_string(q) + " ranks differently";
      const auto why = verify_alignment(g.alignments[a].text, g.header, in);
      if (!why.empty())
        return differs + ": alignment " + std::to_string(a) + " of query " +
               std::to_string(q) + ": " + why;
      ++n;
    }
  }
  *ties = n;
  return "";
}

/// Returns "" when the job's report and counts pass, else the reason.
std::string check_job(const std::string& report, const std::string& oracle,
                      const JobInputs& in,
                      const std::map<std::string, std::uint64_t>& metrics,
                      const std::map<std::string, std::uint64_t>* reference,
                      int* ties) {
  const std::string why = compare_reports(report, oracle, in, ties);
  if (!why.empty()) return why;
  const auto count = [](const std::map<std::string, std::uint64_t>& m,
                        const char* name) -> std::uint64_t {
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  if (count(metrics, "alignments_reported") == 0) return "no alignments reported";
  if (count(metrics, "output_bytes") != report.size())
    return "output_bytes " + std::to_string(count(metrics, "output_bytes")) +
           " is not the report's size " + std::to_string(report.size());
  if (reference != nullptr) {
    for (const char* name : kRepeatCounts) {
      const std::uint64_t va = count(metrics, name), vb = count(*reference, name);
      if (va != vb)
        return std::string("count ") + name + " did not repeat: " +
               std::to_string(va) + " vs " + std::to_string(vb);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Jobs.

struct JobRecord {
  int id = 0;
  int set = 0;
  std::string kind;  ///< warmup | timed | traced
  bool ok = false;
  std::string error;
  int tie_choices = 0;    ///< alignments accepted as tie choices
  bool returned = false;  ///< the driver call returned (timings are valid)
  double wall_s = 0;
  double cpu_s = 0;
  double makespan_s = 0;
  blast::DriverResult result;
};

struct QuerySet {
  std::uint64_t sample_seed = 0;
  std::string fasta;
  std::optional<std::string> oracle;  ///< empty when the oracle run threw
  std::string oracle_error;
  std::optional<std::map<std::string, std::uint64_t>> reference_counts;
};

/// Judges one job's report against its query set's oracle and fills
/// rec.error / rec.ok / rec.tie_choices. The first passing job of a set
/// fixes the counts the later jobs of that set must repeat.
void judge(JobRecord& rec, const std::string& report, QuerySet& qs,
           const std::vector<seqdb::FastaRecord>& db,
           const blast::JobConfig& job) {
  if (!qs.oracle) {
    rec.error = "no oracle report: " + qs.oracle_error;
  } else {
    const auto* ref = qs.reference_counts ? &*qs.reference_counts : nullptr;
    rec.error = check_job(report, *qs.oracle, {db, qs.fasta, job.params},
                          rec.result.metrics, ref, &rec.tie_choices);
    if (rec.error.empty() && !ref) qs.reference_counts = rec.result.metrics;
  }
  rec.ok = rec.error.empty();
}

/// Self-check of the failure accounting: a copy of a real passing job (its
/// output size set to the oracle report's), judged once against its set's
/// oracle report and once against that report with one byte flipped, at
/// each of several places, must pass and fail respectively.
bool oracle_catches_flipped_bytes(const JobRecord& passing, const QuerySet& qs,
                                  const std::vector<seqdb::FastaRecord>& db,
                                  const blast::JobConfig& job) {
  if (!qs.oracle || qs.oracle->empty()) return false;
  JobRecord rec = passing;
  rec.result.metrics["output_bytes"] = qs.oracle->size();
  QuerySet copy = qs;
  judge(rec, *qs.oracle, copy, db, job);
  if (!rec.ok || rec.tie_choices != 0) return false;
  constexpr int kPlaces = 8;
  for (int k = 1; k <= kPlaces; ++k) {
    std::string bad = *qs.oracle;
    bad[bad.size() * k / (kPlaces + 1)] ^= 0x01;
    copy = qs;
    judge(rec, bad, copy, db, job);
    if (rec.ok) return false;
  }
  return true;
}

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, bool trace)
      : w_(w),
        seed_(seed),
        cluster_(w.cluster()),
        job_(w.job()),
        spans_(trace) {}

  void setup();
  void compute_oracles();
  JobRecord run_job(int set, const std::string& kind, mpisim::Tracer* tracer);
  void timed_loop(double seconds);

  const Workload& w_;
  std::uint64_t seed_;
  sim::ClusterConfig cluster_;
  blast::JobConfig job_;
  Spans spans_;

  std::vector<seqdb::FastaRecord> db_;
  std::vector<QuerySet> sets_;
  std::vector<double> setup_s_, generate_s_, format_s_;
  std::uint64_t formatted_bytes_ = 0;
  std::vector<JobRecord> jobs_;
  int next_job_ = 0;
  double peak_rss_mb_ = 0;
};

void Bench::setup() {
  // Set-up runs on this thread alone, so its process CPU time is its work;
  // wall time on a shared host mostly measures waiting for a core.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Spans::Scope setup_span(spans_, "setup", -1);
    const double t0 = process_cpu_s();
    {
      Spans::Scope s(spans_, "seqdb.generate", -1);
      db_ = seqdb::generate_database(w_.gen);
    }
    const double t_gen = process_cpu_s() - t0;
    pario::ClusterStorage storage(cluster_, w_.nprocs);
    const double t1 = process_cpu_s();
    {
      Spans::Scope s(spans_, "seqdb.format", -1);
      if (w_.driver == Driver::kMpiBlast) {
        formatted_bytes_ =
            seqdb::mpiformatdb(storage.shared(), db_, job_.db_base,
                               job_.params.type, job_.db_title, w_.nprocs - 1)
                .bytes_written;
      } else {
        formatted_bytes_ = seqdb::format_db(storage.shared(), db_, job_.db_base,
                                            job_.params.type, job_.db_title)
                               .formatted_bytes;
      }
    }
    const double t_fmt = process_cpu_s() - t1;
    {
      Spans::Scope s(spans_, "setup.sample", -1);
      sets_.assign(kQuerySets, QuerySet{});
      for (int i = 0; i < kQuerySets; ++i) {
        sets_[i].sample_seed = query_seed(seed_, i);
        sets_[i].fasta =
            bench::make_query_set(db_, w_.query_bytes, sets_[i].sample_seed);
      }
    }
    {
      Spans::Scope s(spans_, "setup.stage", -1);
      storage.shared().write_all(job_.query_path, bytes_of(sets_[0].fasta));
    }
    setup_s_.push_back(process_cpu_s() - t0);
    generate_s_.push_back(t_gen);
    format_s_.push_back(t_fmt);
  }
  if (w_.canonical != nullptr) {
    const auto& canon = *w_.canonical();
    bool same = canon.size() == db_.size();
    for (std::size_t i = 0; same && i < db_.size(); ++i)
      same = canon[i].id == db_[i].id && canon[i].sequence == db_[i].sequence &&
             canon[i].description == db_[i].description;
    if (!same)
      throw std::runtime_error(
          "perfbench generator settings no longer reproduce the bench/ "
          "database for " + w_.name);
  }
}

void Bench::compute_oracles() {
  const Driver other = w_.driver == Driver::kMpiBlast ? Driver::kPioBlast
                                                      : Driver::kMpiBlast;
  for (auto& qs : sets_) {
    Spans::Scope s(spans_, "oracle", -1);
    try {
      Prepared p = prepare(w_, other, cluster_, job_, db_, qs.fasta);
      Spans::Scope call(spans_, std::string("oracle.") + driver_name(other),
                        -1);
      run_driver(w_, other, cluster_, job_, p, nullptr);
      qs.oracle = read_report(*p.storage, job_);
    } catch (const std::exception& e) {
      qs.oracle_error = e.what();
    }
  }
}

JobRecord Bench::run_job(int set, const std::string& kind,
                         mpisim::Tracer* tracer) {
  JobRecord rec;
  rec.id = next_job_++;
  rec.set = set;
  rec.kind = kind;
  QuerySet& qs = sets_[static_cast<std::size_t>(set)];
  Spans::Scope job_span(spans_, "job", rec.id);
  try {
    Prepared p;
    {
      Spans::Scope s(spans_, "job.prep", rec.id);
      p = prepare(w_, w_.driver, cluster_, job_, db_, qs.fasta);
    }
    {
      Spans::Scope s(spans_, std::string("driver.") + driver_name(w_.driver),
                     rec.id);
      const double c0 = process_cpu_s();
      const auto t0 = Clock::now();
      rec.result = run_driver(w_, w_.driver, cluster_, job_, p, tracer);
      rec.wall_s = seconds_since(t0);
      rec.cpu_s = process_cpu_s() - c0;
    }
    rec.returned = true;
    rec.makespan_s = rec.result.phases.total;
    Spans::Scope s(spans_, "job.check", rec.id);
    judge(rec, read_report(*p.storage, job_), qs, db_, job_);
  } catch (const std::exception& e) {
    rec.error = std::string("threw: ") + e.what();
    rec.ok = false;
  }
  if (!rec.ok)
    std::printf("FAILED job %d (%s, set %d): %s\n", rec.id, kind.c_str(), set,
                rec.error.c_str());
  else if (rec.tie_choices > 0)
    std::printf("TIE job %d (%s, set %d): %d alignment(s) differ from the "
                "other driver's only by a choice among equally ranked HSPs\n",
                rec.id, kind.c_str(), set, rec.tie_choices);
  return rec;
}

void Bench::timed_loop(double seconds) {
  // Whole rounds over the query sets, so every set has the same job count.
  const auto t0 = Clock::now();
  do {
    for (int set = 0; set < kQuerySets; ++set)
      jobs_.push_back(run_job(set, "timed", nullptr));
    // Peak memory is taken after a fixed amount of work (set-up, oracles,
    // warm-up, one round): later rounds only add allocator fragmentation,
    // and how many of them fit in the run depends on the host's speed.
    if (peak_rss_mb_ == 0) peak_rss_mb_ = peak_rss_mb();
  } while (seconds_since(t0) < seconds);
}

// ---------------------------------------------------------------------------
// Per-job aggregates.

/// `field` of every timed job on query set `set` whose driver call returned.
std::vector<double> set_values(const std::vector<JobRecord>& jobs,
                               double JobRecord::*field, int set) {
  std::vector<double> v;
  for (const auto& j : jobs)
    if (j.set == set && j.returned && j.kind == "timed") v.push_back(j.*field);
  return v;
}

double set_median(const std::vector<JobRecord>& jobs, double JobRecord::*field,
                  int set) {
  return median(set_values(jobs, field, set));
}

/// Mean over query sets of each set's median timed job.
double per_set_mean(const std::vector<JobRecord>& jobs,
                    double JobRecord::*field) {
  std::vector<double> medians;
  for (int set = 0; set < kQuerySets; ++set) {
    const auto v = set_values(jobs, field, set);
    if (!v.empty()) medians.push_back(median(v));
  }
  return mean(medians);
}

/// Jobs that passed with at least one tie choice.
int tie_choice_jobs(const std::vector<JobRecord>& jobs) {
  int n = 0;
  for (const auto& j : jobs) n += j.ok && j.tie_choices > 0;
  return n;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only). Each is sized from the job's own counts.

struct KernelProbe {
  double query_index_s = 0;
  double kernel_s = 0;
  std::uint64_t cells = 0, seed_hits = 0, hsps = 0;
};

/// blast: the job's query set searched single-threaded with the program's
/// default kernel over a partition into nprocs-1 fragments.
KernelProbe probe_kernel(Bench& b, const std::string& fasta) {
  Spans::Scope probe(b.spans_, "probe.blast", -1);
  const auto& job = b.job_;
  pario::VirtualFS fs(b.cluster_.shared_storage);
  std::vector<seqdb::LoadedFragment> frags;
  seqdb::DbIndex index;
  {
    Spans::Scope s(b.spans_, "blast.load", -1);
    auto parts = seqdb::mpiformatdb(fs, b.db_, job.db_base, job.params.type,
                                    job.db_title, b.w_.nprocs - 1);
    for (std::size_t i = 0; i < parts.fragment_bases.size(); ++i)
      frags.push_back(seqdb::load_volumes(fs, parts.fragment_bases[i],
                                          job.params.type,
                                          parts.ranges[i].first));
    index = std::move(parts.global_index);
  }
  const blast::GlobalDbStats stats{index.total_residues, index.num_seqs};
  const auto records = seqdb::parse_fasta(fasta);
  const blast::ScoringMatrix matrix = blast::make_matrix(job.params);
  const blast::KernelKind kernel = b.w_.driver == Driver::kMpiBlast
                                       ? mpiblast::MpiBlastOptions{}.kernel
                                       : pio::PioBlastOptions{}.kernel;
  KernelProbe out;
  std::vector<blast::QueryContext> contexts;
  {
    Spans::Scope s(b.spans_, "blast.query_index", -1);
    const auto t0 = Clock::now();
    contexts.reserve(records.size());
    for (std::uint32_t q = 0; q < records.size(); ++q)
      contexts.emplace_back(
          q, seqdb::encode_sequence(job.params.type, records[q].sequence),
          job.params, matrix, stats);
    out.query_index_s = seconds_since(t0);
  }
  sim::SearchCounters total;
  {
    Spans::Scope s(b.spans_, "blast.kernel", -1);
    const auto t0 = Clock::now();
    for (const auto& frag : frags)
      for (const auto& r : blast::search_fragment_batch(contexts, frag, kernel))
        total += r.counters;
    out.kernel_s = seconds_since(t0);
  }
  out.cells = total.ungapped_cells + total.gapped_cells + total.traceback_cells;
  out.seed_hits = total.seed_hits;
  out.hsps = total.hsps_found;
  return out;
}

mpisim::RunOptions probe_run_options(const Workload& w) {
  mpisim::RunOptions opts;  // default verifier
  opts.exec_model = w.driver == Driver::kMpiBlast
                        ? mpiblast::MpiBlastOptions{}.exec
                        : pio::PioBlastOptions{}.exec;
  return opts;
}

/// Wall seconds of an empty job at the workload's world size.
double probe_launch(Bench& b) {
  Spans::Scope s(b.spans_, "probe.mpisim.launch", -1);
  const auto t0 = Clock::now();
  mpisim::run(b.w_.nprocs, b.cluster_, [](mpisim::Process&) {},
              probe_run_options(b.w_));
  return seconds_since(t0);
}

/// Runs `body` on every rank after a barrier and returns rank 0's wall
/// seconds for it (the body ends in a barrier or a receive that completes
/// only after every rank contributed).
double timed_on_root(Bench& b, const char* span,
                     const std::function<void(mpisim::Process&)>& body,
                     double* virtual_s = nullptr) {
  Spans::Scope s(b.spans_, span, -1);
  std::atomic<double> wall{0.0};
  std::atomic<double> virt{0.0};
  mpisim::run(
      b.w_.nprocs, b.cluster_,
      [&](mpisim::Process& p) {
        p.barrier();
        const auto t0 = Clock::now();
        const sim::Time v0 = p.now();
        body(p);
        if (p.is_root()) {
          wall = seconds_since(t0);
          virt = p.now() - v0;
        }
      },
      probe_run_options(b.w_));
  if (virtual_s != nullptr) *virtual_s = virt;
  return wall;
}

/// Worker -> master messages: `messages` in total, each `bytes` long.
double probe_p2p_us(Bench& b, std::uint64_t messages, std::uint64_t bytes) {
  const int workers = b.w_.nprocs - 1;
  const auto share = [&](int w) {
    return messages / workers + (static_cast<std::uint64_t>(w - 1) <
                                         messages % workers
                                     ? 1
                                     : 0);
  };
  constexpr int kTag = 1;
  const double wall = timed_on_root(b, "probe.mpisim.p2p", [&](mpisim::Process& p) {
    if (p.is_root()) {
      for (int w = 1; w <= workers; ++w)
        for (std::uint64_t k = 0; k < share(w); ++k) p.recv(w, kTag);
    } else {
      const std::vector<std::uint8_t> payload(bytes, 0x5a);
      for (std::uint64_t k = 0; k < share(p.rank()); ++k)
        p.send(0, kTag, payload);
    }
  });
  return wall / static_cast<double>(std::max<std::uint64_t>(messages, 1)) * 1e6;
}

double probe_barrier_us(Bench& b) {
  constexpr int kBarriers = 20;
  const double wall =
      timed_on_root(b, "probe.mpisim.barrier", [](mpisim::Process& p) {
        for (int i = 0; i < kBarriers; ++i) p.barrier();
      });
  return wall / kBarriers * 1e6;
}

/// pario: one collective_write of `total` bytes in `regions` interleaved
/// regions (region i belongs to worker 1 + i % workers), default hints.
/// Returns false when the written file is not what the ranks wrote.
bool probe_cwrite(Bench& b, std::uint64_t total, std::uint64_t regions,
                  double* wall_s, double* virtual_s) {
  const int workers = b.w_.nprocs - 1;
  regions = std::max<std::uint64_t>(regions, 1);
  const auto region_at = [&](std::uint64_t i) {
    const std::uint64_t base = total / regions, extra = total % regions;
    const std::uint64_t off = i * base + std::min(i, extra);
    return pario::Region{off, base + (i < extra ? 1 : 0)};
  };
  const auto fill = [](std::uint64_t off) {
    return static_cast<std::uint8_t>((off * 131u) >> 3);
  };
  pario::VirtualFS fs(b.cluster_.shared_storage);
  const pario::CollectiveConfig cfg = pario::Hints{}.collective();
  *wall_s = timed_on_root(
      b, "probe.pario.cwrite",
      [&](mpisim::Process& p) {
        pario::FileView view;
        std::vector<std::uint8_t> data;
        if (!p.is_root()) {
          for (std::uint64_t i = static_cast<std::uint64_t>(p.rank() - 1);
               i < regions; i += static_cast<std::uint64_t>(workers)) {
            const auto r = region_at(i);
            if (r.length == 0) continue;
            view.append(r);
            for (std::uint64_t k = 0; k < r.length; ++k)
              data.push_back(fill(r.offset + k));
          }
        }
        pario::collective_write(p, fs, "cwrite.probe", view, data, cfg);
      },
      virtual_s);
  const auto written = fs.read_all("cwrite.probe");
  if (written.size() != total) return false;
  for (std::uint64_t k = 0; k < total; ++k)
    if (written[k] != fill(k)) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const Spans& spans, const std::string& path,
                 const std::string& provenance) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  os << "{\"provenance\":" << provenance << ",\"spans\":[";
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    os << (i ? "," : "") << "\n{\"id\":" << i << ",\"name\":\""
       << json_escape(s.name) << "\",\"start_s\":" << number(s.start)
       << ",\"end_s\":" << number(s.end) << ",\"parent\":" << s.parent
       << ",\"job\":" << s.job << "}";
  }
  os << "],\n\"self_s\":{";
  bool first = true;
  for (const auto& [name, self] : spans.self_times()) {
    os << (first ? "" : ",") << "\"" << json_escape(name)
       << "\":" << number(self);
    first = false;
  }
  os << "}}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_path;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] [--commit <id>] "
               "[--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0))
        usage("--seconds must be a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--source-digest") {
      a.source_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seconds and --trace are required");
  return a;
}

int run(const Args& args) {
  const auto all = workloads();
  const auto wit = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (wit == all.end()) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wit;
  const bool trace = args.trace == 1;

  Bench b(w, args.seed, trace);
  b.setup();
  b.compute_oracles();

  // The first job pays page faults the steady state does not; it is checked
  // but not timed.
  b.jobs_.push_back(b.run_job(0, "warmup", nullptr));
  b.timed_loop(args.seconds);

  const auto passing = std::find_if(b.jobs_.begin(), b.jobs_.end(),
                                    [](const JobRecord& j) { return j.ok; });
  if (passing != b.jobs_.end() &&
      !oracle_catches_flipped_bytes(*passing, b.sets_[passing->set], b.db_,
                                    b.job_)) {
    std::fprintf(stderr,
                 "perfbench: self-check failed: the oracle did not count a "
                 "report with one flipped byte as failed\n");
    return 1;
  }

  const mpiblast::MpiBlastOptions mpi_defaults;
  const pio::PioBlastOptions pio_defaults;
  const bool is_mpi = w.driver == Driver::kMpiBlast;
  const char* exec = mpisim::to_string(is_mpi ? mpi_defaults.exec
                                              : pio_defaults.exec);
  const char* kernel = blast::kernel_name(is_mpi ? mpi_defaults.kernel
                                                 : pio_defaults.kernel);
  const std::string scheduler(driver::to_string(
      is_mpi ? mpi_defaults.scheduler : pio_defaults.scheduler));

  std::vector<Metric> metrics;
  const double job_wall = per_set_mean(b.jobs_, &JobRecord::wall_s);
  const double job_cpu = per_set_mean(b.jobs_, &JobRecord::cpu_s);
  const double makespan = per_set_mean(b.jobs_, &JobRecord::makespan_s);
  if (!trace) {
    metrics = {
        {"job_wall_s", job_wall, "s"},
        {"job_cpu_s", job_cpu, "s"},
        {"virtual_makespan_s", makespan, "s"},
        {"setup_s", median(b.setup_s_), "s"},
        {"peak_rss_mb", b.peak_rss_mb_, "MB"},
    };
  } else {
    // Per-layer figures refer to query set 0 (sampled with the seed itself).
    const JobRecord* ref = nullptr;
    for (const auto& j : b.jobs_)
      if (j.set == 0 && j.returned && j.kind == "timed") {
        ref = &j;
        break;
      }
    if (ref == nullptr) {
      std::fprintf(stderr, "perfbench: no job on query set 0 returned\n");
      return 1;
    }
    const auto count = [&](const char* name) -> double {
      const auto it = ref->result.metrics.find(name);
      return it == ref->result.metrics.end()
                 ? 0.0
                 : static_cast<double>(it->second);
    };
    const double set0_wall = set_median(b.jobs_, &JobRecord::wall_s, 0);
    const double set0_cpu = set_median(b.jobs_, &JobRecord::cpu_s, 0);

    mpisim::Tracer tracer;
    b.jobs_.push_back(b.run_job(0, "traced", &tracer));
    const JobRecord& traced = b.jobs_.back();
    std::map<std::string, double> by_kind;
    for (const auto& ev : tracer.sorted()) by_kind[mpisim::to_string(ev.kind)]++;

    const KernelProbe kp = probe_kernel(b, b.sets_[0].fasta);

    std::vector<double> launches;
    for (int i = 0; i < 3; ++i) launches.push_back(probe_launch(b));
    const auto wire_msgs = static_cast<std::uint64_t>(count("wire_messages_sent"));
    const auto wire_bytes = static_cast<std::uint64_t>(count("wire_bytes_sent"));
    const double p2p_us = probe_p2p_us(
        b, wire_msgs, wire_msgs ? wire_bytes / wire_msgs : 0);
    const double barrier_us = probe_barrier_us(b);
    double cwrite_s = 0, cwrite_vs = 0;
    const bool cwrite_ok = probe_cwrite(
        b, static_cast<std::uint64_t>(count("output_bytes")),
        static_cast<std::uint64_t>(count("alignments_reported")), &cwrite_s,
        &cwrite_vs);
    if (!cwrite_ok) {
      std::fprintf(stderr, "perfbench: collective_write probe wrote wrong bytes\n");
      return 1;
    }

    std::uint64_t messages = 0, rank_bytes = 0;
    for (const auto& r : ref->result.report.ranks) {
      messages += r.messages_sent;
      rank_bytes += r.bytes_sent;
    }
    // Repeatability of virtual time, per query set, over every job run on it.
    double distinct = 0, max_over_min = 1;
    for (int set = 0; set < kQuerySets; ++set) {
      std::set<double> seen;
      double lo = 0, hi = 0;
      for (const auto& j : b.jobs_) {
        if (j.set != set || !j.returned) continue;
        if (seen.empty() || j.makespan_s < lo) lo = j.makespan_s;
        if (seen.empty() || j.makespan_s > hi) hi = j.makespan_s;
        seen.insert(j.makespan_s);
      }
      distinct = std::max(distinct, static_cast<double>(seen.size()));
      if (lo > 0) max_over_min = std::max(max_over_min, hi / lo);
    }
    const auto& ph = ref->result.phases;
    const double wanted = count("pario_bytes_wanted");
    const double read = count("pario_bytes_read");
    metrics = {
        {"seqdb.generate_s", median(b.generate_s_), "s"},
        {"seqdb.format_s", median(b.format_s_), "s"},
        {"seqdb.formatted_bytes", static_cast<double>(b.formatted_bytes_), "bytes"},
        {"blast.kernel_s", kp.kernel_s, "s"},
        {"blast.query_index_s", kp.query_index_s, "s"},
        {"blast.cells", static_cast<double>(kp.cells), "count"},
        {"blast.seed_hits", static_cast<double>(kp.seed_hits), "count"},
        {"blast.hsps", static_cast<double>(kp.hsps), "count"},
        {"blast.cells_per_s", static_cast<double>(kp.cells) / kp.kernel_s, "1/s"},
        {"blast.seeds_per_s", static_cast<double>(kp.seed_hits) / kp.kernel_s, "1/s"},
        {"blast.kernel_cpu_share", kp.kernel_s / set0_cpu, "ratio"},
        {"mpisim.launch_s", median(launches), "s"},
        {"mpisim.p2p_us", p2p_us, "us"},
        {"mpisim.barrier_us", barrier_us, "us"},
        {"mpisim.messages", static_cast<double>(messages), "count"},
        {"mpisim.wire_bytes", static_cast<double>(rank_bytes), "bytes"},
        {"mpisim.trace_events", static_cast<double>(tracer.size()), "count"},
        {"mpisim.nonkernel_cpu_s", set0_cpu - kp.kernel_s, "s"},
        {"mpisim.makespan_distinct", distinct, "count"},
        {"mpisim.makespan_max_over_min", max_over_min, "ratio"},
        {"pario.list_requests", count("pario_list_requests"), "count"},
        {"pario.device_reads", count("pario_device_reads"), "count"},
        {"pario.bytes_wanted", wanted, "bytes"},
        {"pario.bytes_read", read, "bytes"},
        {"pario.sieve_yield", read > 0 ? wanted / read : 0.0, "ratio"},
        {"pario.cwrite_s", cwrite_s, "s"},
        {"pario.cwrite_vs", cwrite_vs, "s"},
        {"driver.tasks_assigned", count("tasks_assigned"), "count"},
        {"driver.hsps_cached", count("hsps_cached"), "count"},
        {"driver.candidates_merged", count("candidates_merged"), "count"},
        {"driver.alignments_reported", count("alignments_reported"), "count"},
        {"driver.output_bytes", count("output_bytes"), "bytes"},
        {"driver.merge_yield",
         count("alignments_reported") / std::max(1.0, count("candidates_merged")),
         "ratio"},
        {"driver.copy_input_vs", ph.copy_input, "s"},
        {"driver.search_vs", ph.search, "s"},
        {"driver.output_vs", ph.output, "s"},
        {"driver.other_vs", ph.other, "s"},
        {"driver.tie_choice_jobs", static_cast<double>(tie_choice_jobs(b.jobs_)),
         "count"},
        {"trace.job_wall_s", traced.wall_s, "s"},
        {"trace.overhead_s", traced.wall_s - set0_wall, "s"},
    };
    for (const char* kind : {"PHASE", "SEND", "RECV", "COLL"})
      metrics.push_back({std::string("mpisim.trace_events.") + kind,
                         by_kind[kind], "count"});
  }

  int attempted = 0, failed = 0;
  for (const auto& j : b.jobs_) {
    ++attempted;
    if (!j.ok) ++failed;
  }
  int timed_jobs = 0;
  for (const auto& j : b.jobs_) timed_jobs += j.kind == "timed";

  char prov[1024];
  std::snprintf(
      prov, sizeof prov,
      "{\"workload\":\"%s\",\"seed\":%llu,\"commit\":\"%s\","
      "\"source_digest\":\"%s\",\"build_type\":\"%s\",\"nproc\":%u,"
      "\"driver\":\"%s\",\"nprocs\":%d,\"exec_model\":\"%s\",\"kernel\":\"%s\","
      "\"scheduler\":\"%s\",\"query_sets\":%d,\"timed_jobs\":%d,"
      "\"jobs\":%d,\"trace\":%d}",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      json_escape(args.commit).c_str(), json_escape(args.source_digest).c_str(),
      PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      driver_name(w.driver), w.nprocs, exec, kernel, scheduler.c_str(),
      kQuerySets, timed_jobs, attempted, args.trace);
  std::printf("PROVENANCE %s\n", prov);
  for (int set = 0; set < kQuerySets; ++set)
    std::printf(
        "SET %d sample_seed=%llu jobs_median: wall_s=%.4f cpu_s=%.4f "
        "makespan_s=%.6f\n",
        set, static_cast<unsigned long long>(b.sets_[set].sample_seed),
        set_median(b.jobs_, &JobRecord::wall_s, set),
        set_median(b.jobs_, &JobRecord::cpu_s, set),
        set_median(b.jobs_, &JobRecord::makespan_s, set));
  std::printf("fail_ratio %.6f (%d failed of %d jobs)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0, failed,
              attempted);
  int tie_alignments = 0;
  for (const auto& j : b.jobs_) tie_alignments += j.tie_choices;
  std::printf("tie_choices %d alignments in %d of %d jobs\n", tie_alignments,
              tie_choice_jobs(b.jobs_), attempted);
  for (const auto& m : metrics)
    std::printf("METRIC %-32s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (trace) {
    std::printf("SPAN self times (s):\n");
    for (const auto& [name, self] : b.spans_.self_times())
      std::printf("  %-28s %.6f\n", name.c_str(), self);
    write_spans(b.spans_, args.spans_path, prov);
  }

  std::string json = "{\"correct\": " + std::string(failed ? "false" : "true") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace pioblast::perfbench

int main(int argc, char** argv) {
  try {
    return pioblast::perfbench::run(pioblast::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
