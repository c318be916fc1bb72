// Tests for the protocol verifier (mpisim/verifier.h): deadlock detection
// with wait-for-cycle reports, collective-order cross-validation, tag
// registry auditing, typed-payload conformance, and message-leak checks —
// plus the seeded-bug regressions the verifier exists to catch. Every
// failing job here must terminate with a VerifyError instead of hanging.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "driver/channel.h"
#include "driver/messages.h"
#include "driver/tags.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"
#include "mpisim/verify.h"
#include "util/error.h"

namespace pioblast::mpisim {
namespace {

sim::ClusterConfig test_cluster() { return sim::ClusterConfig::ornl_altix(); }

/// Runs `fn` expecting a VerifyError; returns its report text.
std::string verify_failure(int nranks, const std::function<void(Process&)>& fn,
                           const RunOptions& opts = {}) {
  try {
    run(nranks, test_cluster(), fn, opts);
  } catch (const VerifyError& e) {
    return e.what();
  }
  ADD_FAILURE() << "job completed without a VerifyError";
  return {};
}

// ---------- type stamps ---------------------------------------------------

TEST(TypeStamp, DistinctTypesGetDistinctFingerprints) {
  constexpr TypeStamp a = type_stamp<std::uint32_t>();
  constexpr TypeStamp b = type_stamp<float>();
  constexpr TypeStamp c = type_stamp<std::uint64_t>();
  EXPECT_NE(a.fp, 0u);
  EXPECT_NE(a.fp, b.fp);
  EXPECT_NE(a.fp, c.fp);
  EXPECT_NE(b.fp, c.fp);
}

TEST(TypeStamp, NameIsHumanReadable) {
  constexpr TypeStamp s = type_stamp<float>();
  EXPECT_EQ(s.name, "float");
}

TEST(TypeStamp, SameTypeSameFingerprint) {
  EXPECT_EQ(type_stamp<double>().fp, type_stamp<double>().fp);
}

// ---------- tag registry --------------------------------------------------

TEST(TagRegistry, LabelsRegisteredTagsByName) {
  EXPECT_EQ(driver::tag_label(driver::kTagAssign), "kTagAssign(2)");
  EXPECT_EQ(driver::tag_label(driver::kTagRanges), "kTagRanges(10)");
  EXPECT_EQ(driver::tag_label(999), "999");
  EXPECT_EQ(driver::tag_name(12345), nullptr);
}

TEST(TagRegistry, ExportsAllTags) {
  const auto tags = driver::registered_tags();
  EXPECT_EQ(tags.size(), 6u);
  for (const int t : tags) EXPECT_NE(driver::tag_name(t), nullptr);
}

// ---------- deadlock detection --------------------------------------------

TEST(VerifierDeadlock, CycleOfFourRanksReported) {
  const std::string report = verify_failure(4, [](Process& p) {
    // Classic ring wait: every rank receives from its successor, nobody
    // sends. Without the verifier this job hangs forever.
    p.recv((p.rank() + 1) % 4, 5);
  });
  EXPECT_NE(report.find("deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("all 4 live ranks blocked"), std::string::npos)
      << report;
  EXPECT_NE(report.find("wait-for cycle: 0 -> 1 -> 2 -> 3 -> 0"),
            std::string::npos)
      << report;
}

TEST(VerifierDeadlock, TwoRankMutualWaitReported) {
  const std::string report = verify_failure(2, [](Process& p) {
    p.recv(1 - p.rank(), 7);
  });
  EXPECT_NE(report.find("wait-for cycle: 0 -> 1 -> 0"), std::string::npos)
      << report;
}

TEST(VerifierDeadlock, AnySourceWaitAfterPeersExitReported) {
  // Rank 1 waits on a message that no still-running rank can send: the
  // deadlock is discovered when rank 0 retires, not via a wait cycle.
  const std::string report = verify_failure(2, [](Process& p) {
    if (p.rank() == 1) p.recv(kAnySource, 7);
  });
  EXPECT_NE(report.find("deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("any source"), std::string::npos) << report;
}

TEST(VerifierDeadlock, CrashedRankLeftOutOfSurvivorCycle) {
  // Rank 3 crashes at its first send; ranks 0-2 wait on each other in a
  // ring. The report names only the three live ranks.
  RunOptions opts;
  opts.faults.at(3).crash_at = 1;
  const std::string report = verify_failure(
      4,
      [](Process& p) {
        if (p.rank() == 3) {
          p.send(0, 5, std::vector<std::uint8_t>(4));
          return;
        }
        p.recv((p.rank() + 1) % 3, 5);
      },
      opts);
  EXPECT_NE(report.find("all 3 live ranks blocked"), std::string::npos)
      << report;
  EXPECT_NE(report.find("wait-for cycle: 0 -> 1 -> 2 -> 0"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find("rank 3"), std::string::npos) << report;
}

TEST(VerifierDeadlock, DeliverableMessageIsNotADeadlock) {
  // Whichever rank runs first, rank 1 either finds the message or parks
  // until rank 0's push wakes it: a parked rank with a deliverable message
  // is runnable, so the loop never reaches its stuck point here.
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) p.send(1, 7, std::vector<std::uint8_t>(8));
    if (p.rank() == 1) p.recv(0, 7);
  }));
}

// ---------- collective order ----------------------------------------------

TEST(VerifierCollectives, MisorderedOpsRejected) {
  const std::string report = verify_failure(2, [](Process& p) {
    if (p.rank() == 0) {
      p.barrier();
    } else {
      std::vector<std::uint8_t> buf;
      p.bcast(buf, 0);
    }
  });
  EXPECT_NE(report.find("collective order mismatch"), std::string::npos)
      << report;
  EXPECT_NE(report.find("barrier"), std::string::npos) << report;
  EXPECT_NE(report.find("bcast"), std::string::npos) << report;
}

TEST(VerifierCollectives, RootMismatchRejected) {
  const std::string report = verify_failure(2, [](Process& p) {
    std::vector<std::uint8_t> buf{1};
    p.bcast(buf, p.rank());  // every rank claims a different root
  });
  EXPECT_NE(report.find("collective order mismatch"), std::string::npos)
      << report;
  EXPECT_NE(report.find("root="), std::string::npos) << report;
}

TEST(VerifierCollectives, MatchingSequencePassesAndIsTraced) {
  Tracer tracer;
  RunOptions opts;
  opts.tracer = &tracer;
  EXPECT_NO_THROW(run(3, test_cluster(),
                      [](Process& p) {
                        p.barrier();
                        std::vector<std::uint8_t> buf{42};
                        p.bcast(buf, 0);
                        p.allreduce_max(1.0);
                      },
                      opts));
  int collectives = 0;
  for (const auto& ev : tracer.sorted())
    if (ev.kind == TraceKind::kCollective) ++collectives;
  // 3 ranks x (barrier + bcast + allreduce_max + allreduce's inner bcast).
  EXPECT_EQ(collectives, 12);
}

// ---------- tag audit -----------------------------------------------------

TEST(VerifierTags, UnregisteredDriverTagRejected) {
  RunOptions opts;
  opts.verify.registered_tags = {1, 2};
  opts.verify.tag_name = [](int tag) { return driver::tag_label(tag); };
  const std::string report = verify_failure(
      2,
      [](Process& p) {
        // Tag typo: 99 is not in the registry the job declared.
        if (p.rank() == 0) p.send(1, 99, std::vector<std::uint8_t>(4));
        if (p.rank() == 1) p.recv(0, 99);
      },
      opts);
  EXPECT_NE(report.find("unregistered driver tag 99"), std::string::npos)
      << report;
  EXPECT_NE(report.find("driver/tags.h"), std::string::npos) << report;
}

TEST(VerifierTags, InternalBandMisuseRejected) {
  RunOptions opts;
  opts.verify.registered_tags = {1};
  const std::string report = verify_failure(
      2,
      [](Process& p) {
        // A driver sneaking into the runtime's reserved band.
        if (p.rank() == 0)
          p.send(1, kDriverTagLimit + 999, std::vector<std::uint8_t>(4));
        if (p.rank() == 1) p.recv(0, kDriverTagLimit + 999);
      },
      opts);
  EXPECT_NE(report.find("runtime-internal band"), std::string::npos) << report;
}

TEST(VerifierTags, RegisteredTagsAndCollectivesPass) {
  RunOptions opts;
  opts.verify.registered_tags = {1, 2};
  EXPECT_NO_THROW(run(2, test_cluster(),
                      [](Process& p) {
                        if (p.rank() == 0) p.send_value<int>(1, 2, 11);
                        if (p.rank() == 1) {
                          EXPECT_EQ(p.recv_value<int>(0, 2), 11);
                        }
                        p.barrier();  // internal tags stay legal
                      },
                      opts));
}

TEST(VerifierTags, AuditInactiveWithoutARegistry) {
  // Standalone mpisim programs pick tags freely; the audit only arms when
  // a job declares its registry.
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) p.send(1, 424242, std::vector<std::uint8_t>(1));
    if (p.rank() == 1) p.recv(0, 424242);
  }));
}

// ---------- typed payload conformance -------------------------------------

TEST(VerifierTypes, ValueTypeConfusionCaught) {
  // Same size on the wire (4 bytes), so only the stamp can catch it.
  const std::string report = verify_failure(2, [](Process& p) {
    if (p.rank() == 0) p.send_value<std::uint32_t>(1, 5, 77u);
    if (p.rank() == 1) p.recv_value<float>(0, 5);
  });
  EXPECT_NE(report.find("typed payload mismatch"), std::string::npos) << report;
  EXPECT_NE(report.find("float"), std::string::npos) << report;
}

TEST(VerifierTypes, ChannelTypeConfusionCaught) {
  // Two channels accidentally bound to the same tag: the receive must fail
  // on the stamp, not corrupt fields in the decoder.
  const std::string report = verify_failure(2, [](Process& p) {
    constexpr driver::Channel<driver::FetchRequest> req{driver::kTagFetchReq};
    constexpr driver::Channel<driver::FetchResponse> resp{driver::kTagFetchReq};
    if (p.rank() == 0) req.send(p, 1, driver::FetchRequest{3});
    if (p.rank() == 1) resp.recv(p, 0);
  });
  EXPECT_NE(report.find("typed payload mismatch"), std::string::npos) << report;
  EXPECT_NE(report.find("FetchRequest"), std::string::npos) << report;
  EXPECT_NE(report.find("FetchResponse"), std::string::npos) << report;
}

TEST(VerifierTypes, RawByteSendsStayUnchecked) {
  // Untyped sends carry no stamp; a typed receive still size-checks but
  // must not trip the stamp comparison.
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) {
      const std::uint32_t v = 9;
      p.send(1, 5,
             std::span(reinterpret_cast<const std::uint8_t*>(&v), sizeof(v)));
    }
    if (p.rank() == 1) {
      EXPECT_EQ(p.recv_value<std::uint32_t>(0, 5), 9u);
    }
  }));
}

TEST(VerifierTypes, SizeMismatchDiagnosticsNameSourceAndType) {
  try {
    run(2, test_cluster(), [](Process& p) {
      if (p.rank() == 0) p.send(1, 5, std::vector<std::uint8_t>(3));
      if (p.rank() == 1) p.recv_value<std::uint32_t>(0, 5);
    });
    FAIL() << "size mismatch not detected";
  } catch (const util::ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("got 3 bytes, want 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("from rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag 5"), std::string::npos) << msg;
  }
}

// ---------- message leaks -------------------------------------------------

TEST(VerifierLeaks, OrphanedSendReported) {
  const std::string report = verify_failure(2, [](Process& p) {
    // Sent but never received: invisible to the job, caught at the end.
    if (p.rank() == 0) p.send(1, 7, std::vector<std::uint8_t>(16));
  });
  EXPECT_NE(report.find("left undrained"), std::string::npos) << report;
  EXPECT_NE(report.find("rank 1 mailbox holds 1 message"), std::string::npos)
      << report;
  EXPECT_NE(report.find("from rank 0 tag=7 (16 bytes)"), std::string::npos)
      << report;
}

TEST(VerifierLeaks, FullyDrainedJobPasses) {
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) p.send(1, 7, std::vector<std::uint8_t>(16));
    if (p.rank() == 1) p.recv(0, 7);
    p.barrier();
  }));
}

// ---------- opt-out -------------------------------------------------------

TEST(VerifierOff, SkipsAllChecks) {
  RunOptions opts;
  opts.verify.enabled = false;
  opts.verify.registered_tags = {1};
  // An orphaned send on an unregistered tag: two violations (tag audit,
  // leak check), both ignored with the verifier off.
  EXPECT_NO_THROW(run(2, test_cluster(),
                      [](Process& p) {
                        if (p.rank() == 0)
                          p.send(1, 99, std::vector<std::uint8_t>(4));
                      },
                      opts));
}

}  // namespace
}  // namespace pioblast::mpisim
