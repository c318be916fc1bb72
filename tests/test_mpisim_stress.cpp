// Stress and edge-case tests for the message-passing runtime: many ranks,
// randomized traffic patterns, tag isolation, repeated collectives, and
// mailbox behaviour under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "mpisim/runtime.h"
#include "util/rng.h"

namespace pioblast::mpisim {
namespace {

sim::ClusterConfig cluster() { return sim::ClusterConfig::ornl_altix(); }

TEST(Stress, ManyRanksBarrierStorm) {
  const auto report = run(48, cluster(), [](Process& p) {
    for (int i = 0; i < 20; ++i) p.barrier();
  });
  // The flat barrier releases workers one send apart, so final clocks
  // agree only to within the per-message overheads.
  const double t0 = report.ranks[0].final_clock;
  for (const auto& r : report.ranks) EXPECT_NEAR(r.final_clock, t0, 1e-3);
}

TEST(Stress, RingPassesTokenAroundManyTimes) {
  const int n = 16;
  const auto report = run(n, cluster(), [n](Process& p) {
    const int next = (p.rank() + 1) % n;
    const int prev = (p.rank() + n - 1) % n;
    std::uint64_t token = 0;
    for (int lap = 0; lap < 10; ++lap) {
      if (p.rank() == 0) {
        p.send_value(next, 1, token + 1);
        token = p.recv_value<std::uint64_t>(prev, 1);
      } else {
        token = p.recv_value<std::uint64_t>(prev, 1);
        p.send_value(next, 1, token + 1);
      }
    }
    if (p.rank() == 0) {
      // Each lap adds n increments.
      EXPECT_EQ(token, static_cast<std::uint64_t>(10 * n));
    }
  });
  EXPECT_GT(report.makespan(), 0.0);
}

TEST(Stress, TagsIsolateConcurrentStreams) {
  run(2, cluster(), [](Process& p) {
    constexpr int kCount = 200;
    if (p.rank() == 0) {
      // Interleave two tag streams out of order.
      for (int i = 0; i < kCount; ++i) {
        p.send_value(1, /*tag=*/7, i);
        p.send_value(1, /*tag=*/9, i * 100);
      }
    } else {
      // Drain tag 9 first, then tag 7: FIFO per (src, tag) must hold.
      for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(p.recv_value<int>(0, 9), i * 100);
      for (int i = 0; i < kCount; ++i) EXPECT_EQ(p.recv_value<int>(0, 7), i);
    }
  });
}

TEST(Stress, AllToAllPersonalizedExchange) {
  const int n = 8;
  run(n, cluster(), [n](Process& p) {
    // Everyone sends rank*100+dst to everyone else.
    for (int dst = 0; dst < n; ++dst) {
      if (dst == p.rank()) continue;
      p.send_value(dst, 3, p.rank() * 100 + dst);
    }
    for (int src = 0; src < n; ++src) {
      if (src == p.rank()) continue;
      EXPECT_EQ(p.recv_value<int>(src, 3), src * 100 + p.rank());
    }
  });
}

TEST(Stress, MasterWorkerRandomWorkloads) {
  // Randomized greedy scheduling with uneven task costs completes and
  // dispatches every task exactly once.
  const int n = 9;
  std::atomic<int> tasks_done{0};
  run(n, cluster(), [&](Process& p) {
    constexpr int kTasks = 64;
    if (p.rank() == 0) {
      int next = 0, retired = 0;
      while (retired < n - 1) {
        const Message req = p.recv(kAnySource, 1);
        if (next < kTasks) {
          p.send_value(req.src, 2, next++);
        } else {
          p.send_value(req.src, 2, -1);
          ++retired;
        }
      }
      EXPECT_EQ(next, kTasks);
    } else {
      util::Rng rng(static_cast<std::uint64_t>(p.rank()));
      while (true) {
        p.send(0, 1, {});
        const int task = p.recv_value<int>(0, 2);
        if (task < 0) break;
        p.compute(rng.uniform() * 0.01);
        tasks_done.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(tasks_done.load(), 64);
}

TEST(Stress, RepeatedBcastGatherCycles) {
  run(12, cluster(), [](Process& p) {
    for (int round = 0; round < 25; ++round) {
      std::vector<std::uint8_t> data;
      if (p.rank() == round % p.size())
        data.assign(static_cast<std::size_t>(round + 1), static_cast<std::uint8_t>(round));
      p.bcast(data, round % p.size());
      ASSERT_EQ(data.size(), static_cast<std::size_t>(round + 1));
      auto gathered = p.gather(data, 0);
      if (p.rank() == 0) {
        for (const auto& g : gathered) ASSERT_EQ(g.size(), data.size());
      }
    }
  });
}

TEST(Stress, LargeMessageVolume) {
  run(4, cluster(), [](Process& p) {
    const std::size_t mb = 1 << 20;
    if (p.rank() == 0) {
      std::vector<std::uint8_t> big(8 * mb, 0x5A);
      for (int w = 1; w < p.size(); ++w) p.send(w, 1, big);
    } else {
      const Message m = p.recv(0, 1);
      EXPECT_EQ(m.payload.size(), 8u << 20);
      EXPECT_EQ(m.payload[12345], 0x5A);
    }
  });
}

TEST(Stress, MailboxConcurrentProducers) {
  Mailbox mb;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int src = 1; src <= 4; ++src) {
    producers.emplace_back([&mb, src] {
      for (int i = 0; i < kPerProducer; ++i) {
        mb.push({src, 1, static_cast<double>(i), {}});
      }
    });
  }
  // Ranks only ever pop on the event loop's thread, so the consumer drains
  // after the producers joined; the concurrent pushes are what the mutex
  // must survive.
  for (auto& t : producers) t.join();
  int received = 0;
  for (int i = 0; i < 4 * kPerProducer; ++i) {
    (void)mb.pop(kAnySource, 1);
    ++received;
  }
  EXPECT_EQ(received, 4 * kPerProducer);
  EXPECT_EQ(mb.pending(), 0u);
}

}  // namespace
}  // namespace pioblast::mpisim
