// Tests for the message-passing runtime: mailbox matching, wire
// serialization, point-to-point timing semantics, collectives, failure
// poisoning, and virtual-clock behaviour under communication.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "mpisim/mailbox.h"
#include "mpisim/runtime.h"
#include "mpisim/wire.h"
#include "util/error.h"

namespace pioblast::mpisim {
namespace {

sim::ClusterConfig test_cluster() { return sim::ClusterConfig::ornl_altix(); }

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---------- wire --------------------------------------------------------

TEST(Wire, RoundTripsScalarsStringsVectors) {
  Encoder enc;
  enc.put<std::uint32_t>(7).put<double>(2.5).put_string("hello");
  enc.put_vector(std::vector<std::uint64_t>{1, 2, 3});
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get<std::uint32_t>(), 7u);
  EXPECT_DOUBLE_EQ(dec.get<double>(), 2.5);
  EXPECT_EQ(dec.get_string(), "hello");
  EXPECT_EQ(dec.get_vector<std::uint64_t>(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(dec.exhausted());
}

TEST(Wire, DecodePastEndThrows) {
  Encoder enc;
  enc.put<std::uint16_t>(1);
  Decoder dec(enc.bytes());
  EXPECT_THROW(dec.get<std::uint64_t>(), util::ContractViolation);
}

TEST(Wire, EmptyBytesRoundTrip) {
  Encoder enc;
  enc.put_bytes({});
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.get_bytes().empty());
}

TEST(Wire, RemainingTracksPosition) {
  Encoder enc;
  enc.put<std::uint32_t>(1).put<std::uint32_t>(2);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.remaining(), 8u);
  dec.get<std::uint32_t>();
  EXPECT_EQ(dec.remaining(), 4u);
}

// ---------- mailbox ------------------------------------------------------

TEST(Mailbox, MatchesByTagAndSource) {
  Mailbox mb;
  mb.push({1, 10, 0.0, bytes_of("a")});
  mb.push({2, 20, 0.0, bytes_of("b")});
  const Message m = mb.pop(2, 20);
  EXPECT_EQ(m.src, 2);
  EXPECT_EQ(mb.pending(), 1u);
}

TEST(Mailbox, AnySourcePicksEarliestArrival) {
  Mailbox mb;
  mb.push({1, 5, 3.0, {}});
  mb.push({2, 5, 1.0, {}});
  mb.push({3, 5, 2.0, {}});
  EXPECT_EQ(mb.pop(kAnySource, 5).src, 2);
  EXPECT_EQ(mb.pop(kAnySource, 5).src, 3);
  EXPECT_EQ(mb.pop(kAnySource, 5).src, 1);
}

TEST(Mailbox, AnySourceTieBreaksBySenderRank) {
  Mailbox mb;
  mb.push({7, 5, 1.0, {}});
  mb.push({3, 5, 1.0, {}});
  EXPECT_EQ(mb.pop(kAnySource, 5).src, 3);
}

TEST(Mailbox, PerSenderFifoOrderPreserved) {
  Mailbox mb;
  mb.push({1, 5, 2.0, bytes_of("first")});
  mb.push({1, 5, 1.0, bytes_of("second")});  // arrival out of order
  // Point-to-point matching takes the first *queued* message (MPI FIFO).
  const Message m = mb.pop(1, 5);
  EXPECT_EQ(std::string(m.payload.begin(), m.payload.end()), "first");
}

TEST(Mailbox, TryPopReturnsNulloptWhenNoMatch) {
  Mailbox mb;
  mb.push({1, 5, 0.0, {}});
  EXPECT_FALSE(mb.try_pop(1, 99).has_value());
  EXPECT_TRUE(mb.try_pop(1, 5).has_value());
}

TEST(Mailbox, PoisonUnblocksWithError) {
  Mailbox mb;
  mb.poison();
  EXPECT_THROW(mb.pop(1, 1), util::RuntimeError);
}

TEST(Mailbox, TryPopMissLeavesQueueIntactAndHitDrains) {
  Mailbox mb;
  mb.push({1, 5, 0.0, bytes_of("x")});
  EXPECT_FALSE(mb.try_pop(2, 5).has_value());  // wrong source
  EXPECT_FALSE(mb.try_pop(1, 6).has_value());  // wrong tag
  EXPECT_EQ(mb.pending(), 1u);
  const auto m = mb.try_pop(kAnySource, 5);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->src, 1);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_FALSE(mb.try_pop(kAnySource, 5).has_value());  // now empty
}

TEST(Mailbox, BlockingPopWithoutEventLoopThrows) {
  // Outside mpisim::run no loop is bound, so nothing could ever deliver
  // the message: the pop must fail loudly instead of waiting forever.
  Mailbox mb;
  mb.push({1, 5, 0.0, {}});
  EXPECT_THROW(mb.pop(2, 5), util::RuntimeError);
  EXPECT_EQ(mb.pending(), 1u);
}

TEST(Mailbox, VerifyPoisonCarriesReasonAsVerifyError) {
  Mailbox mb;
  mb.poison("protocol verifier: test report", /*verify_failure=*/true);
  try {
    mb.pop(1, 1);
    FAIL() << "poisoned pop returned";
  } catch (const VerifyError& e) {
    EXPECT_STREQ(e.what(), "protocol verifier: test report");
  }
}

TEST(Mailbox, FirstPoisonReasonWins) {
  Mailbox mb;
  mb.poison("first reason");
  mb.poison("second reason");
  try {
    mb.pop(1, 1);
    FAIL() << "poisoned pop returned";
  } catch (const util::RuntimeError& e) {
    EXPECT_STREQ(e.what(), "first reason");
  }
}

TEST(Mailbox, AnySourceEqualArrivalPrefersLowestSender) {
  Mailbox mb;
  mb.push({4, 5, 2.0, {}});
  mb.push({2, 5, 2.0, {}});
  mb.push({3, 5, 2.0, {}});
  EXPECT_EQ(mb.pop(kAnySource, 5).src, 2);
  EXPECT_EQ(mb.pop(kAnySource, 5).src, 3);
  EXPECT_EQ(mb.pop(kAnySource, 5).src, 4);
}

TEST(Mailbox, AnySourceEqualArrivalSameSenderIsFifo) {
  Mailbox mb;
  mb.push({1, 5, 2.0, bytes_of("first")});
  mb.push({1, 5, 2.0, bytes_of("second")});
  const Message m = mb.pop(kAnySource, 5);
  EXPECT_EQ(std::string(m.payload.begin(), m.payload.end()), "first");
}

TEST(Mailbox, PendingInfoDescribesQueuedMessages) {
  Mailbox mb;
  mb.push({1, 5, 0.0, bytes_of("abc")});
  mb.push({2, 9, 0.0, bytes_of("defgh")});
  const auto infos = mb.pending_info();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].src, 1);
  EXPECT_EQ(infos[0].tag, 5);
  EXPECT_EQ(infos[0].bytes, 3u);
  EXPECT_EQ(infos[1].src, 2);
  EXPECT_EQ(infos[1].tag, 9);
  EXPECT_EQ(infos[1].bytes, 5u);
}

TEST(Mailbox, HasMatchChecksWithoutDraining) {
  Mailbox mb;
  mb.push({1, 5, 0.0, {}});
  EXPECT_TRUE(mb.has_match(1, 5));
  EXPECT_TRUE(mb.has_match(kAnySource, 5));
  EXPECT_FALSE(mb.has_match(2, 5));
  EXPECT_FALSE(mb.has_match(1, 6));
  EXPECT_EQ(mb.pending(), 1u);
}

// ---------- runtime / process --------------------------------------------

TEST(Runtime, SingleRankRuns) {
  const auto report = run(1, test_cluster(), [](Process& p) {
    p.compute(2.0);
    EXPECT_EQ(p.rank(), 0);
    EXPECT_EQ(p.size(), 1);
  });
  EXPECT_DOUBLE_EQ(report.makespan(), 2.0);
}

TEST(Runtime, SendRecvMovesDataAndAdvancesClocks) {
  const auto report = run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) {
      p.compute(1.0);
      const std::string msg = "payload";
      p.send(1, 7, std::span(reinterpret_cast<const std::uint8_t*>(msg.data()),
                             msg.size()));
    } else {
      const Message m = p.recv(0, 7);
      EXPECT_EQ(std::string(m.payload.begin(), m.payload.end()), "payload");
      // The receiver cannot complete before the sender's injection time
      // plus wire latency.
      EXPECT_GT(p.now(), 1.0);
    }
  });
  EXPECT_GT(report.ranks[1].final_clock, report.ranks[0].final_clock);
}

TEST(Runtime, RecvWaitsForVirtualArrival) {
  const auto report = run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) {
      p.compute(5.0);  // sender is virtually late
      p.send_value<int>(1, 1, 42);
    } else {
      EXPECT_EQ(p.recv_value<int>(0, 1), 42);
      EXPECT_GE(p.now(), 5.0);  // clock max-merged with arrival
    }
  });
  (void)report;
}

TEST(Runtime, TypedSendRecvRoundTrips) {
  run(2, test_cluster(), [](Process& p) {
    struct Payload {
      int a;
      double b;
    };
    if (p.rank() == 0) {
      p.send_value(1, 3, Payload{5, 1.25});
    } else {
      const auto v = p.recv_value<Payload>(0, 3);
      EXPECT_EQ(v.a, 5);
      EXPECT_DOUBLE_EQ(v.b, 1.25);
    }
  });
}

TEST(Runtime, SendToSelfIsRejected) {
  EXPECT_THROW(run(2, test_cluster(),
                   [](Process& p) {
                     if (p.rank() == 0) p.send(0, 1, {});
                   }),
               util::ContractViolation);
}

TEST(Runtime, BarrierSynchronizesClocks) {
  const auto report = run(4, test_cluster(), [](Process& p) {
    p.compute(p.rank() * 1.0);  // ranks arrive at different times
    p.barrier();
    EXPECT_GE(p.now(), 3.0);  // nobody leaves before the slowest arrival
  });
  for (const auto& r : report.ranks) EXPECT_GE(r.final_clock, 3.0);
}

TEST(Runtime, BcastDeliversToAllRanksFromAnyRoot) {
  for (int root = 0; root < 3; ++root) {
    run(5, test_cluster(), [root](Process& p) {
      std::vector<std::uint8_t> data;
      if (p.rank() == root) data = {1, 2, 3, 4};
      p.bcast(data, root);
      EXPECT_EQ(data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
    });
  }
}

TEST(Runtime, BcastLargePayload) {
  run(7, test_cluster(), [](Process& p) {
    std::vector<std::uint8_t> data;
    if (p.rank() == 0) {
      data.resize(1 << 20);
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31);
    }
    p.bcast(data, 0);
    ASSERT_EQ(data.size(), 1u << 20);
    EXPECT_EQ(data[12345], static_cast<std::uint8_t>(12345 * 31));
  });
}

TEST(Runtime, GatherCollectsRankOrdered) {
  run(4, test_cluster(), [](Process& p) {
    const std::uint8_t mine = static_cast<std::uint8_t>(p.rank() * 10);
    auto gathered = p.gather(std::span(&mine, 1), 0);
    if (p.rank() == 0) {
      ASSERT_EQ(gathered.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        ASSERT_EQ(gathered[static_cast<std::size_t>(r)].size(), 1u);
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)][0], r * 10);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST(Runtime, AllreduceMaxAgreesEverywhere) {
  run(6, test_cluster(), [](Process& p) {
    const double result = p.allreduce_max(static_cast<double>(p.rank()));
    EXPECT_DOUBLE_EQ(result, 5.0);
  });
}

TEST(Runtime, WorkerExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(run(3, test_cluster(),
                   [](Process& p) {
                     if (p.rank() == 2) {
                       throw util::RuntimeError("worker exploded");
                     }
                     // Other ranks block forever on a message that will
                     // never come; poisoning must unblock them.
                     p.recv(2, 99);
                   }),
               util::RuntimeError);
}

TEST(Runtime, PhaseAccountingSplitsTimeline) {
  const auto report = run(1, test_cluster(), [](Process& p) {
    p.set_phase("alpha");
    p.compute(2.0);
    p.set_phase("beta");
    p.compute(3.0);
  });
  EXPECT_DOUBLE_EQ(report.ranks[0].phases.get("alpha"), 2.0);
  EXPECT_DOUBLE_EQ(report.ranks[0].phases.get("beta"), 3.0);
}

TEST(Runtime, MessageAccountingCounts) {
  const auto report = run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) {
      p.send(1, 1, std::vector<std::uint8_t>(100));
      p.send(1, 1, std::vector<std::uint8_t>(50));
    } else {
      p.recv(0, 1);
      p.recv(0, 1);
    }
  });
  EXPECT_EQ(report.ranks[0].messages_sent, 2u);
  EXPECT_EQ(report.ranks[0].bytes_sent, 150u);
}

TEST(Runtime, DeterministicTimingsAcrossRuns) {
  auto job = [](Process& p) {
    p.compute(0.001 * (p.rank() + 1));
    p.barrier();
    std::vector<std::uint8_t> data(10000);
    p.bcast(data, 0);
    auto g = p.gather(std::span(data.data(), 100), 0);
    p.barrier();
  };
  const auto a = run(8, test_cluster(), job);
  const auto b = run(8, test_cluster(), job);
  for (int r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(a.ranks[static_cast<std::size_t>(r)].final_clock,
                     b.ranks[static_cast<std::size_t>(r)].final_clock);
  }
}

TEST(RunReport, PhaseQueriesAggregate) {
  const auto report = run(3, test_cluster(), [](Process& p) {
    p.set_phase("work");
    p.compute(1.0 + p.rank());
  });
  EXPECT_DOUBLE_EQ(report.phase_total("work"), 1.0 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(report.phase_of(2, "work"), 3.0);
  EXPECT_DOUBLE_EQ(report.phase_of(2, "missing"), 0.0);
  EXPECT_DOUBLE_EQ(report.makespan(), 3.0);
}

}  // namespace
}  // namespace pioblast::mpisim
