// RunConfig: everything about a run that both drivers share.
//
// mpiBLAST and pioBLAST differ only in how they move data (partitioning,
// result merging, output). The verifier, conformance monitor, fault plan,
// mpicheck hooks, I/O hints, search kernel and tracer mean the same thing
// for both, so they are declared once here. MpiBlastOptions and
// PioBlastOptions inherit this struct and add only their own data-movement
// knobs; MasterWorkerApp turns it into the simulator's mpisim::RunOptions.
#pragma once

#include "blast/engine.h"
#include "mpisim/exec.h"
#include "mpisim/fault.h"
#include "mpisim/hooks.h"
#include "mpisim/trace.h"
#include "pario/env.h"

namespace pioblast::driver {

struct RunConfig {
  /// Optional event tracer (not owned; must outlive the run).
  mpisim::Tracer* tracer = nullptr;
  /// Protocol verifier (mpisim/verifier.h): audits the run for deadlock,
  /// collective order, tag registry conformance, typed payloads, and
  /// message leaks. On by default; `--verify off` in the CLI disables it.
  bool verify = true;
  /// Protospec runtime conformance (protospec/conform.h): replay the run's
  /// trace against the driver's declarative protocol spec and throw
  /// mpisim::VerifyError on the first divergent event; the summary lands
  /// in DriverResult::conformance. Uses `tracer` when set, otherwise
  /// records an internal trace. The CLI's --conformance.
  bool conformance = false;
  /// MPI-IO-style access hints (pario/env.h), read by pioBLAST only:
  /// cb_nodes / cb_buffer_size tune its two-phase collectives; the ds_* /
  /// list knobs shape its independent fragment-range reads. mpiBLAST reads
  /// each fragment as one whole-file list_read, on which every hint is a
  /// no-op. The CLI's --pario-hints flag.
  pario::Hints hints{};
  /// Fault injections (crashes, stragglers, drops); inert by default. An
  /// active plan switches the run into its fault-tolerant paths: the
  /// master tracks worker liveness and reassigns a lost worker's tasks
  /// where they are served at run time (mpiBLAST always, pioBLAST with the
  /// greedy scheduler), and collective I/O falls back to independent
  /// transfers for the survivors. See mpisim/fault.h and the CLI's --fault
  /// flag.
  mpisim::FaultPlan faults;
  /// mpicheck hooks (mpisim/hooks.h; either may be null, neither owned):
  /// a deterministic schedule chooser and a happens-before race
  /// detector. Set by the CLI's --check/--schedule modes and by tests.
  mpisim::ScheduleHook* schedule = nullptr;
  mpisim::RaceHook* race = nullptr;
  /// Search-kernel implementation (blast/engine.h). Both kernels produce
  /// bit-identical output and virtual time; the CLI's --kernel flag.
  blast::KernelKind kernel = blast::KernelKind::kFast;
  /// Provenance label only (mpisim/exec.h): every run uses the fiber
  /// event loop.
  static constexpr mpisim::ExecModel exec = mpisim::ExecModel::kEvents;
};

}  // namespace pioblast::driver
