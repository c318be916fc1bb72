// pioblast_cli — command-line front end for the simulated parallel BLAST.
//
// Runs either driver (or both, with output comparison) on a configurable
// simulated cluster, against a synthetic database or a user-supplied FASTA
// file, and writes the NCBI-style report plus a phase summary. With
// --trace, prints the head of the run's event timeline.
//
// Examples:
//   pioblast_cli --driver=pioblast --procs 16 --db-residues 1048576
//   pioblast_cli --driver=both --cluster=blade --query-bytes 8192
//   pioblast_cli --db-fasta my.fa --queries-fasta q.fa --output report.txt
//   pioblast_cli --procs 4 --check schedules=50,preempt=2   # explore
//   pioblast_cli --procs 4 --schedule 0,2,1,1               # replay
//
// Exit status: 0 on success; 1 when --driver=both outputs differ, a --check
// exploration finds a failing schedule, or on an internal error; 2 for bad
// user input (the message names the offending flag and value); 3 when the
// protocol verifier or the --conformance monitor rejects the run.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "blast/job.h"
#include "driver/metrics.h"
#include "driver/run_config.h"
#include "driver/scheduler.h"
#include "mpiblast/mpiblast.h"
#include "mpicheck/explore.h"
#include "mpicheck/schedule.h"
#include "mpisim/trace.h"
#include "mpisim/verify.h"
#include "pioblast/pioblast.h"
#include "protospec/spec.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/args.h"
#include "util/table.h"
#include "util/units.h"

using namespace pioblast;

namespace {

/// Bad user input, reported as "--flag=value: reason" with exit status 2.
class UsageError : public std::runtime_error {
 public:
  UsageError(const std::string& flag, const std::string& value,
             const std::string& reason)
      : std::runtime_error("--" + flag + (value.empty() ? "" : "=" + value) +
                           ": " + reason) {}
};

/// The reason part of a library error: a ContractViolation's text minus its
/// "contract violation: (expr) at file:line — " prefix.
std::string reason_of(const std::exception& e) {
  const std::string what = e.what();
  constexpr std::string_view kSep = " — ";
  const auto sep = what.find(kSep);
  return sep == std::string::npos ? what : what.substr(sep + kSep.size());
}

/// Runs `parse` on the value of --flag; any failure becomes a UsageError
/// naming the flag and value.
template <typename Parse>
auto parse_flag(const util::ArgParser& args, const std::string& flag,
                Parse&& parse) -> decltype(parse(std::string{})) {
  const std::string value = args.get(flag);
  try {
    return parse(value);
  } catch (const std::exception& e) {
    throw UsageError(flag, value, reason_of(e));
  }
}

/// The integer value of --flag as a T; a value below `min` or outside T is
/// a UsageError.
template <typename T = std::int64_t>
T int_flag(const util::ArgParser& args, const std::string& flag,
           T min = std::numeric_limits<T>::min()) {
  const std::int64_t value = parse_flag(
      args, flag, [&](const std::string&) { return args.get_int(flag); });
  if (value < min)
    throw UsageError(flag, args.get(flag),
                     "must be at least " + std::to_string(min));
  if (value > std::numeric_limits<T>::max())
    throw UsageError(flag, args.get(flag),
                     "must be at most " +
                         std::to_string(std::numeric_limits<T>::max()));
  return static_cast<T>(value);
}

/// Checks --flag's value is one of `choices`.
void expect_choice(const util::ArgParser& args, const std::string& flag,
                   std::initializer_list<std::string_view> choices) {
  const std::string value = args.get(flag);
  std::string list;
  for (const std::string_view c : choices) {
    if (value == c) return;
    list += (list.empty() ? "" : " | ") + std::string(c);
  }
  throw UsageError(flag, value, "expected " + list);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::RuntimeError("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void print_metrics(const char* name, const blast::DriverResult& r) {
  // One machine-readable line per driver: METRICS <driver> {json}.
  std::printf("METRICS %s %s\n", name, driver::metrics_json(r.metrics).c_str());
}

/// Parses the --check spec ("schedules=50,seed=1,preempt=2,dpor=on,
/// races=on,shrink=on,max=2000"; every field optional). A bad field is
/// reported by key with the expected form.
mpicheck::CheckOptions parse_check(const std::string& spec) {
  mpicheck::CheckOptions opts;
  std::istringstream in(spec);
  std::string field;
  while (std::getline(in, field, ',')) {
    if (field.empty()) continue;
    const auto eq = field.find('=');
    if (eq == std::string::npos)
      throw util::RuntimeError("bad field '" + field +
                               "' (want key=value)");
    const std::string key = field.substr(0, eq);
    const std::string val = field.substr(eq + 1);
    // A value of min's type, at least min.
    const auto number = [&](auto min) {
      decltype(min) v{};
      const auto [end, ec] =
          std::from_chars(val.data(), val.data() + val.size(), v);
      if (ec != std::errc() || end != val.data() + val.size() || v < min)
        throw util::RuntimeError(key + ": expected an integer >= " +
                                 std::to_string(min) + ", got '" + val + "'");
      return v;
    };
    const auto on_off = [&] {
      if (val != "on" && val != "off")
        throw util::RuntimeError(key + ": expected on | off, got '" + val +
                                 "'");
      return val == "on";
    };
    if (key == "schedules") opts.random_schedules = number(0);
    else if (key == "seed") opts.seed = number(std::uint64_t{0});
    else if (key == "preempt") opts.preemption_bound = number(-1);  // -1: off
    else if (key == "dpor") opts.dpor = on_off();
    else if (key == "races") opts.detect_races = on_off();
    else if (key == "shrink") opts.shrink = on_off();
    else if (key == "max") opts.max_schedules = number(0);
    else
      throw util::RuntimeError("unknown key '" + key + "'");
  }
  return opts;
}

/// Runs one driver: once, or — given `check` (--check/--schedule) — under
/// mpicheck, which sets the schedule and race hooks on `opts` for every
/// explored schedule and prints the CHECK line. The tracer, if any, is
/// emptied before every run, so it ends up holding the returned run's
/// events only. Returns nothing when exploration found a failing schedule.
template <typename Options, typename Run>
std::optional<blast::DriverResult> run_driver(
    const char* name, Options opts,
    const std::optional<mpicheck::CheckOptions>& check, Run&& run) {
  auto run_once = [&] {
    if (opts.tracer != nullptr) opts.tracer->clear();
    return run(opts);
  };
  if (!check) return run_once();
  blast::DriverResult result;
  mpicheck::Checker checker(
      [&](mpisim::ScheduleHook* schedule, mpisim::RaceHook* race) {
        opts.schedule = schedule;
        opts.race = race;
        result = run_once();
      },
      *check);
  const mpicheck::CheckResult res = checker.run();
  std::printf("%s driver=%s\n", mpicheck::summary(res).c_str(), name);
  if (res.failed) {
    std::printf("%s\nreplay with: --schedule %s\n", res.error.c_str(),
                res.failing_trace.c_str());
    return std::nullopt;
  }
  return result;
}

void report(const char* name, const blast::DriverResult& r) {
  util::Table table({"Program", "Copy/Input", "Search", "Output", "Other",
                     "Total", "Search %"});
  table.add_row({name, util::fixed(r.phases.copy_input, 3),
                 util::fixed(r.phases.search, 2), util::fixed(r.phases.output, 3),
                 util::fixed(r.phases.other, 3), util::fixed(r.phases.total, 2),
                 util::format_percent(r.phases.search_fraction())});
  table.print(std::cout);
  std::printf("alignments: %llu, output: %s, candidates screened: %llu\n\n",
              static_cast<unsigned long long>(
                  r.metrics.at("alignments_reported")),
              util::format_bytes(r.metrics.at("output_bytes")).c_str(),
              static_cast<unsigned long long>(
                  r.metrics.at("candidates_merged")));
  if (!r.conformance.empty()) std::printf("%s\n\n", r.conformance.c_str());
}

void print_timeline(const mpisim::Tracer& tracer) {
  std::printf("--- event timeline (first 60 events of %zu) ---\n",
              tracer.size());
  tracer.render(std::cout, 60);
}

int run_cli(int argc, char** argv) {
  util::ArgParser args("pioblast_cli",
                       "simulated parallel BLAST (pioBLAST vs mpiBLAST)");
  args.add("driver", "pioblast", "pioblast | mpiblast | both")
      .add("cluster", "altix", "altix (XFS parallel FS) | blade (NFS + local disks)")
      .add("procs", "16", "number of simulated processes (1 master + workers)")
      .add("type", "protein", "protein | dna")
      .add("db-residues", "1048576", "synthetic database size in residues")
      .add("db-fasta", "", "use this FASTA file as the database instead")
      .add("queries-fasta", "", "use this FASTA file as the query set")
      .add("query-bytes", "8192", "synthetic query-set size in FASTA bytes")
      .add("fragments", "0", "virtual fragments (0 = one per worker)")
      .add("hitlist", "25", "max alignments reported per query")
      .add("evalue", "10", "E-value cutoff")
      .add("output", "", "write the report to this host file")
      .add("seed", "42", "RNG seed for synthetic data")
      .add("scheduler", "",
           "task scheduler: greedy | roundrobin | speed-weighted "
           "(default: greedy for mpiblast, roundrobin for pioblast)")
      .add("verify", "on",
           "protocol verifier (deadlock, collective order, tag audit, typed "
           "payloads, message leaks): on | off")
      .add("fault", "",
           "fault injections, ';'-separated: \"rank=K,crash_at=N\" | "
           "\"rank=K,slow=X\" | \"rank=K,drop_send=N\"; plan-wide: "
           "\"detect=<seconds>\", \"arm\"")
      .add("check", "",
           "explore schedules with mpicheck: \"schedules=N,seed=S,preempt=P,"
           "dpor=on|off,races=on|off,shrink=on|off,max=M\" (empty value "
           "fields use defaults; pass \"default\" for all defaults)")
      .add("schedule", "",
           "replay one forced schedule (a comma-separated rank trace as "
           "printed by a failing --check run)")
      .add("kernel", "fast",
           "search kernel: fast (batched fragment index + SWAR extension) | "
           "scalar (reference); outputs are bit-identical")
      .add("pario-hints", "",
           "MPI-IO-style access hints, comma-separated key=value: "
           "cb_nodes=N, cb_buffer_size=SIZE (0 = unbounded), ds_read="
           "auto|enable|disable, ds_buffer_size=SIZE, ds_density=FRACTION, "
           "list=on|off; sizes accept k/m/g suffixes "
           "(e.g. \"cb_nodes=8,cb_buffer_size=1m,ds_read=enable\"). "
           "pioBLAST only: mpiBLAST reads each fragment as one whole-file "
           "request, on which every hint is a no-op")
      .add_flag("early-score-broadcast", "enable the §5 pruning extension")
      .add_flag("metrics", "print one machine-readable METRICS line per run")
      .add_flag("trace", "print the head of each driver's event timeline")
      .add_flag("conformance",
                "replay the run's trace against the protospec protocol "
                "machines (src/protospec) and fail on the first divergent "
                "event; prints one CONFORM summary line per run");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error();
    return args.error().rfind("usage:", 0) == 0 ? 0 : 2;
  }

  // --- user input: every bad flag is reported here, before any work -------
  expect_choice(args, "driver", {"pioblast", "mpiblast", "both"});
  expect_choice(args, "cluster", {"altix", "blade"});
  expect_choice(args, "type", {"protein", "dna"});
  expect_choice(args, "verify", {"on", "off"});
  const seqdb::SeqType type = args.get("type") == "dna"
                                  ? seqdb::SeqType::kNucleotide
                                  : seqdb::SeqType::kProtein;
  const int nprocs = int_flag<int>(args, "procs");
  if (nprocs < 2)
    throw UsageError("procs", args.get("procs"),
                     "need at least 2 processes (1 master + workers)");
  const auto cluster = args.get("cluster") == "blade"
                           ? sim::ClusterConfig::ncsu_blade()
                           : sim::ClusterConfig::ornl_altix();
  const auto seed = static_cast<std::uint64_t>(int_flag(args, "seed"));
  const auto db_residues = int_flag<std::int64_t>(args, "db-residues", 1);
  const auto query_bytes = int_flag<std::int64_t>(args, "query-bytes", 0);
  const int hitlist = int_flag(args, "hitlist", 1);
  const int nfragments_flag = int_flag(args, "fragments", 0);
  const double evalue = parse_flag(
      args, "evalue", [&](const std::string&) { return args.get_double("evalue"); });
  if (!(evalue > 0))
    throw UsageError("evalue", args.get("evalue"), "must be greater than 0");
  std::optional<driver::SchedulerKind> scheduler;
  if (!args.get("scheduler").empty())
    scheduler = parse_flag(args, "scheduler", [](const std::string& v) {
      return driver::parse_scheduler(v);
    });

  // Everything about the run both drivers share.
  driver::RunConfig run;
  run.verify = args.get("verify") == "on";
  run.conformance = args.get_flag("conformance");
  if (run.conformance && nprocs > protospec::Env::kMaxRanks)
    throw UsageError("procs", args.get("procs"),
                     "--conformance supports at most " +
                         std::to_string(protospec::Env::kMaxRanks) +
                         " processes");
  run.kernel = parse_flag(
      args, "kernel", [](const std::string& v) { return blast::parse_kernel(v); });
  if (!args.get("fault").empty()) {
    run.faults = parse_flag(args, "fault", [](const std::string& v) {
      return mpisim::FaultPlan::parse(v);
    });
    parse_flag(args, "fault",
               [&](const std::string&) { run.faults.validate(nprocs); });
  }
  if (!args.get("pario-hints").empty())
    run.hints = parse_flag(args, "pario-hints", [](const std::string& v) {
      return pario::Hints::parse(v);
    });
  mpisim::Tracer tracer;
  if (args.get_flag("trace")) run.tracer = &tracer;

  // --check explores many schedules; --schedule replays exactly one.
  std::optional<mpicheck::CheckOptions> check;
  if (!args.get("check").empty() || !args.get("schedule").empty())
    check.emplace();
  if (!args.get("check").empty() && args.get("check") != "default")
    check = parse_flag(args, "check", parse_check);
  if (!args.get("schedule").empty()) {
    parse_flag(args, "schedule", [](const std::string& v) {
      (void)mpicheck::parse_schedule(v);
    });
    check->replay_trace = args.get("schedule");
  }

  // --- data ----------------------------------------------------------------
  std::vector<seqdb::FastaRecord> db;
  if (!args.get("db-fasta").empty()) {
    db = parse_flag(args, "db-fasta", [](const std::string& path) {
      return seqdb::parse_fasta(read_file(path));
    });
  } else {
    seqdb::GeneratorConfig gen;
    gen.type = type;
    gen.target_residues = static_cast<std::uint64_t>(db_residues);
    gen.seed = seed;
    gen.family_fraction = 0.6;
    db = seqdb::generate_database(gen);
  }
  if (db.empty())
    throw UsageError("db-fasta", args.get("db-fasta"), "no sequences");
  if (static_cast<std::uint64_t>(nfragments_flag) > db.size())
    throw UsageError("fragments", args.get("fragments"),
                     "more than the database's " + std::to_string(db.size()) +
                         " sequences");
  if (nfragments_flag == 0 &&
      static_cast<std::uint64_t>(nprocs - 1) > db.size())
    throw UsageError("procs", args.get("procs"),
                     "with --fragments=0 each of the " +
                         std::to_string(nprocs - 1) +
                         " workers needs its own fragment, but the database "
                         "has only " +
                         std::to_string(db.size()) + " sequences");
  const bool query_file = !args.get("queries-fasta").empty();
  const std::string query_flag = query_file ? "queries-fasta" : "query-bytes";
  const std::string query_fasta =
      query_file ? parse_flag(args, query_flag, read_file)
                 : seqdb::write_fasta(seqdb::sample_queries(
                       db, static_cast<std::uint64_t>(query_bytes), seed + 1));
  // Reject a malformed or empty query set here rather than inside the run.
  parse_flag(args, query_flag, [&](const std::string&) {
    if (seqdb::parse_fasta(query_fasta).empty())
      throw util::RuntimeError("empty query set");
  });
  std::printf("database: %zu sequences; query set: %zu bytes; cluster: %s; "
              "%d processes\n\n",
              db.size(), query_fasta.size(), cluster.name.c_str(), nprocs);

  // --- job -------------------------------------------------------------------
  pario::ClusterStorage storage(cluster, nprocs);
  storage.shared().write_all(
      "queries.fa",
      std::span(reinterpret_cast<const std::uint8_t*>(query_fasta.data()),
                query_fasta.size()));
  blast::JobConfig job;
  job.db_base = "db";
  job.db_title = "cli database";
  job.query_path = "queries.fa";
  job.params = type == seqdb::SeqType::kProtein
                   ? blast::SearchParams::blastp_defaults()
                   : blast::SearchParams::blastn_defaults();
  job.params.hitlist_size = hitlist;
  job.params.evalue_cutoff = evalue;
  job.nfragments = nfragments_flag;

  const std::string driver = args.get("driver");
  if (!args.get("fault").empty())
    std::printf("fault plan: %s\n\n", run.faults.describe().c_str());
  if (!args.get("pario-hints").empty())
    std::printf("pario hints: %s\n\n", run.hints.describe().c_str());

  std::vector<std::uint8_t> mpi_out, pio_out;
  if (driver == "mpiblast" || driver == "both") {
    const int nfragments = job.nfragments > 0 ? job.nfragments : nprocs - 1;
    const auto parts = seqdb::mpiformatdb(storage.shared(), db, job.db_base,
                                          job.params.type, job.db_title,
                                          nfragments);
    mpiblast::MpiBlastOptions opts;
    static_cast<driver::RunConfig&>(opts) = run;
    opts.job = job;
    opts.job.output_path = "out.mpiblast.txt";
    opts.fragment_bases = parts.fragment_bases;
    opts.fragment_ranges = parts.ranges;
    opts.global_index = parts.global_index;
    if (scheduler) opts.scheduler = *scheduler;
    const auto result = run_driver(
        "mpiblast", std::move(opts), check,
        [&](const mpiblast::MpiBlastOptions& o) {
          return mpiblast::run_mpiblast(cluster, nprocs, storage, o);
        });
    if (!result) return 1;
    report("mpiBLAST", *result);
    if (args.get_flag("metrics")) print_metrics("mpiblast", *result);
    if (run.tracer != nullptr) print_timeline(tracer);
    mpi_out = storage.shared().read_all("out.mpiblast.txt");
  }
  if (driver == "pioblast" || driver == "both") {
    seqdb::format_db(storage.shared(), db, job.db_base, job.params.type,
                     job.db_title);
    pio::PioBlastOptions opts;
    static_cast<driver::RunConfig&>(opts) = run;
    opts.job = job;
    opts.job.output_path = "out.pioblast.txt";
    opts.early_score_broadcast = args.get_flag("early-score-broadcast");
    if (scheduler) opts.scheduler = *scheduler;
    const auto result = run_driver(
        "pioblast", std::move(opts), check,
        [&](const pio::PioBlastOptions& o) {
          return pio::run_pioblast(cluster, nprocs, storage, o);
        });
    if (!result) return 1;
    report("pioBLAST", *result);
    if (args.get_flag("metrics")) print_metrics("pioblast", *result);
    if (run.tracer != nullptr) print_timeline(tracer);
    pio_out = storage.shared().read_all("out.pioblast.txt");
  }

  if (driver == "both") {
    std::printf("outputs identical: %s\n", mpi_out == pio_out ? "yes" : "NO");
    if (mpi_out != pio_out) return 1;
  }

  if (!args.get("output").empty()) {
    const auto& out = pio_out.empty() ? mpi_out : pio_out;
    std::ofstream f(args.get("output"), std::ios::binary);
    f.write(reinterpret_cast<const char*>(out.data()),
            static_cast<std::streamsize>(out.size()));
    std::printf("report written to %s (%s)\n", args.get("output").c_str(),
                util::format_bytes(out.size()).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "pioblast_cli: " << e.what() << '\n';
    return 2;
  } catch (const mpisim::VerifyError& e) {
    // Protocol verifier or --conformance divergence.
    std::cerr << "pioblast_cli: verification failed: " << e.what() << '\n';
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "pioblast_cli: error: " << e.what() << '\n';
    return 1;
  }
}
