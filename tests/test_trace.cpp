// Tests for the run tracer: event capture, ordering, rendering, and the
// runtime integration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "mpisim/fault.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"

namespace pioblast::mpisim {
namespace {

TraceEvent mark(int rank, sim::Time time, std::string text) {
  return {.rank = rank, .time = time, .kind = TraceKind::kMark,
          .text = std::move(text)};
}

TEST(Tracer, RecordsAndSortsByTime) {
  Tracer t;
  t.record(mark(1, 2.0, "b"));
  t.record(mark(0, 1.0, "a"));
  t.record(mark(2, 2.0, "c"));
  const auto sorted = t.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].text, "a");
  EXPECT_EQ(sorted[1].rank, 1);  // tie at t=2.0 broken by rank
  EXPECT_EQ(sorted[2].rank, 2);
  // sorted(from) orders only the events recorded from the from-th on.
  const auto tail = t.sorted(1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].text, "a");
  EXPECT_EQ(tail[1].text, "c");
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, ForRankFilters) {
  Tracer t;
  t.record(mark(0, 1.0, "x"));
  t.record(mark(1, 2.0, "y"));
  t.record(mark(0, 3.0, "z"));
  const auto rank0 = t.for_rank(0);
  ASSERT_EQ(rank0.size(), 2u);
  EXPECT_EQ(rank0[0].text, "x");
  EXPECT_EQ(rank0[1].text, "z");
}

TEST(Tracer, RenderTruncates) {
  Tracer t;
  for (int i = 0; i < 10; ++i) t.record(mark(0, i, "e" + std::to_string(i)));
  std::ostringstream os;
  t.render(os, 3);
  EXPECT_NE(os.str().find("e0"), std::string::npos);
  EXPECT_NE(os.str().find("7 more events"), std::string::npos);
  EXPECT_EQ(os.str().find("e5"), std::string::npos);
}

TEST(Tracer, KindNames) {
  EXPECT_STREQ(to_string(TraceKind::kPhase), "PHASE");
  EXPECT_STREQ(to_string(TraceKind::kSend), "SEND");
  EXPECT_STREQ(to_string(TraceKind::kRecv), "RECV");
  EXPECT_STREQ(to_string(TraceKind::kMark), "MARK");
  EXPECT_STREQ(to_string(TraceKind::kCollective), "COLL");
  EXPECT_STREQ(to_string(TraceKind::kVerify), "VRFY");
  EXPECT_STREQ(to_string(TraceKind::kDrop), "FAULT");
  EXPECT_STREQ(to_string(TraceKind::kCrash), "FAULT");
  EXPECT_STREQ(to_string(TraceKind::kRecovery), "RECOV");
}

TEST(Tracer, RuntimeIntegrationCapturesProtocol) {
  Tracer tracer;
  run(
      3, sim::ClusterConfig::ornl_altix(),
      [](Process& p) {
        p.set_phase("work");
        if (p.rank() == 0) {
          const std::vector<std::uint8_t> payload{1, 2, 3};
          for (int w = 1; w < p.size(); ++w) p.send(w, 5, payload);
        } else {
          p.recv(0, 5);
          p.trace(TraceKind::kMark, "got it");
        }
      },
      &tracer);
  // 3 phase events, 2 sends, 2 recvs, 2 marks.
  EXPECT_EQ(tracer.size(), 9u);
  const auto rank1 = tracer.for_rank(1);
  ASSERT_EQ(rank1.size(), 3u);
  EXPECT_EQ(rank1[0].kind, TraceKind::kPhase);
  EXPECT_EQ(rank1[1].kind, TraceKind::kRecv);
  EXPECT_EQ(rank1[1].peer, 0);
  EXPECT_EQ(rank1[1].tag, 5);
  EXPECT_EQ(rank1[1].bytes, 3u);
  EXPECT_EQ(rank1[2].text, "got it");
  // Causality: each receive happens at or after the matching send.
  sim::Time send_time = -1;
  for (const auto& e : tracer.sorted()) {
    if (e.kind == TraceKind::kSend && send_time < 0) send_time = e.time;
    if (e.kind == TraceKind::kRecv) {
      EXPECT_GE(e.time, send_time);
    }
  }
}

TEST(Tracer, NullTracerIsHarmless) {
  const auto report = run(2, sim::ClusterConfig::ornl_altix(), [](Process& p) {
    p.set_phase("x");
    if (p.rank() == 0) p.send(1, 1, {});
    else p.recv(0, 1);
    p.trace(TraceKind::kMark, "ignored");
  });
  EXPECT_EQ(report.ranks.size(), 2u);
}

// Golden render: one small run that emits every recorded kind — phases,
// marks, sends, specific- and any-source receives, the three collectives,
// a recovery note, a dropped send and a crash — rendered in full and
// compared byte for byte with tests/data/trace_render.golden. Regenerate
// (after an intentional format change) with
//   PIOBLAST_UPDATE_GOLDEN=1 ./test_trace --gtest_filter='Tracer.RenderMatchesGolden'
TEST(Tracer, RenderMatchesGolden) {
  Tracer tracer;
  RunOptions opts;
  opts.tracer = &tracer;
  opts.faults.at(2).drop_sends = {1};  // rank 2's first send vanishes
  opts.faults.at(3).crash_at = 2;      // rank 3 dies at its send below
  run(
      4, sim::ClusterConfig::ornl_altix(),
      [](Process& p) {
        p.set_phase("setup");
        std::string hello = "hello from r";
        hello += std::to_string(p.rank());
        p.trace(TraceKind::kMark, hello);
        std::vector<std::uint8_t> data;
        if (p.is_root()) data = {1, 2, 3, 4, 5};
        p.bcast(data, 0);
        p.set_phase("exchange");
        if (p.rank() == 0) {
          p.recv(1, 5);
          const int notice[] = {kTagFaultNotice};
          p.recv_any_of(notice);
          p.recv(2, 6);
          p.trace(TraceKind::kRecovery, "rank 3 lost; carrying on");
        } else if (p.rank() == 1) {
          p.send(0, 5, std::vector<std::uint8_t>(7, 1));
        } else if (p.rank() == 2) {
          p.send(0, 9, std::vector<std::uint8_t>(3, 2));  // dropped
          p.send(0, 6, std::vector<std::uint8_t>(11, 3));
        } else {
          p.send(0, 8, std::vector<std::uint8_t>(2, 4));  // never happens
        }
        p.gather(data, 0);
        p.barrier();
      },
      opts);
  std::ostringstream os;
  tracer.render(os, std::numeric_limits<std::size_t>::max());
  const std::string got = os.str();

  const std::string path =
      std::string(PIOBLAST_TEST_DATA_DIR "/") + "trace_render.golden";
  if (std::getenv("PIOBLAST_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    f << got;
    ASSERT_TRUE(f.good()) << "failed to write " << path;
    GTEST_SKIP() << "updated golden fixture " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden fixture " << path;
  const std::string want((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want) << "trace render diverged from " << path;
}

}  // namespace
}  // namespace pioblast::mpisim
