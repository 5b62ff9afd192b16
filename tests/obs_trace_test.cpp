// Tests for the event tracer and Chrome trace export: span pairing from raw
// event streams, nesting invariants on a real simulated run, and a full
// write/parse round trip of the exported JSON.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "driver/experiment.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"

namespace euno::obs {
namespace {

TraceEvent ev(std::uint64_t clock, int core, EventCode code,
              std::uint8_t a = 0, std::uint8_t b = 0) {
  return TraceEvent{clock, static_cast<std::uint8_t>(core),
                    static_cast<std::uint8_t>(code), a, b};
}

TEST(BuildTimelines, PairsOpTxAndFallbackSpans) {
  const std::vector<TraceEvent> events = {
      ev(10, 0, EventCode::kOpBegin, /*op=*/1),
      ev(12, 0, EventCode::kTxBegin, /*site=*/0),
      ev(20, 0, EventCode::kAbort, /*reason=*/1, /*conflict=*/2),
      ev(22, 0, EventCode::kTxBegin, 0),
      ev(30, 0, EventCode::kTxCommit, 0),
      ev(34, 0, EventCode::kOpEnd, 1),
  };
  const auto tls = build_timelines(events);
  ASSERT_EQ(tls.size(), 1u);
  const auto& tl = tls.at(0);
  ASSERT_EQ(tl.spans.size(), 3u);
  // Begin-ordered: op span first (it encloses both attempts).
  EXPECT_EQ(tl.spans[0].code, EventCode::kOpBegin);
  EXPECT_EQ(tl.spans[0].begin, 10u);
  EXPECT_EQ(tl.spans[0].end, 34u);
  EXPECT_EQ(tl.spans[1].code, EventCode::kTxBegin);
  EXPECT_TRUE(tl.spans[1].aborted);
  EXPECT_EQ(tl.spans[1].abort_reason, 1);
  EXPECT_EQ(tl.spans[1].abort_conflict, 2);
  EXPECT_EQ(tl.spans[2].code, EventCode::kTxBegin);
  EXPECT_FALSE(tl.spans[2].aborted);
  // Both attempts nest inside the op span.
  for (int i : {1, 2}) {
    EXPECT_GE(tl.spans[i].begin, tl.spans[0].begin);
    EXPECT_LE(tl.spans[i].end, tl.spans[0].end);
  }
}

TEST(BuildTimelines, RunSlicesGoToSeparateLane) {
  const std::vector<TraceEvent> events = {
      ev(0, 1, EventCode::kRunBegin),
      ev(5, 1, EventCode::kOpBegin, 0),
      ev(9, 1, EventCode::kRunEnd),  // preempted mid-op
      ev(9, 1, EventCode::kRunBegin),
      ev(15, 1, EventCode::kOpEnd, 0),
      ev(20, 1, EventCode::kRunEnd),
  };
  const auto tls = build_timelines(events);
  const auto& tl = tls.at(1);
  ASSERT_EQ(tl.spans.size(), 1u);
  EXPECT_EQ(tl.spans[0].begin, 5u);
  EXPECT_EQ(tl.spans[0].end, 15u);
  ASSERT_EQ(tl.run_spans.size(), 2u);
  EXPECT_EQ(tl.run_spans[0].end, 9u);
  EXPECT_EQ(tl.run_spans[1].begin, 9u);
}

TEST(BuildTimelines, UnmatchedBeginsCloseAtMaxClock) {
  const std::vector<TraceEvent> events = {
      ev(3, 0, EventCode::kOpBegin, 0),
      ev(7, 0, EventCode::kLeafSplit),  // instant; stream ends with op open
  };
  const auto tls = build_timelines(events);
  const auto& tl = tls.at(0);
  ASSERT_EQ(tl.spans.size(), 1u);
  EXPECT_EQ(tl.spans[0].end, 7u);
  ASSERT_EQ(tl.instants.size(), 1u);
  EXPECT_EQ(static_cast<EventCode>(tl.instants[0].code),
            EventCode::kLeafSplit);
}

TEST(BuildTimelines, UnmatchedEndsAreDropped) {
  const std::vector<TraceEvent> events = {
      ev(1, 0, EventCode::kTxCommit, 0),  // no open tx
      ev(2, 0, EventCode::kOpEnd, 0),     // no open op
  };
  const auto tls = build_timelines(events);
  EXPECT_TRUE(tls.at(0).spans.empty());
}

// ---- event-ring encode/decode round trip ----

TEST(EventRing, RoundTripPreservesEverySequence) {
  // Clock deltas spanning every varint width (0 through >2^32), events with
  // and without args, equal clocks back to back — the ring must hand back
  // exactly what was appended.
  const std::vector<TraceEvent> in = {
      ev(0, 3, EventCode::kRunBegin),
      ev(0, 3, EventCode::kOpBegin, 1),
      ev(1, 3, EventCode::kTxBegin, 0),
      ev(129, 3, EventCode::kAbort, 3, 7),          // 2-byte delta
      ev(1u << 20, 3, EventCode::kTxBegin, 0),      // 3-byte delta
      ev((1ull << 40) + 5, 3, EventCode::kTxCommit, 0),  // 6-byte delta
      ev((1ull << 40) + 5, 3, EventCode::kOpEnd, 1),     // zero delta
      ev(~0ull, 3, EventCode::kRunEnd),             // max clock
  };
  EventRing ring;
  for (const auto& e : in) {
    ring.append(e.clock, e.code, e.arg_a, e.arg_b);
  }
  std::vector<TraceEvent> out;
  ring.decode(3, &out);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].clock, in[i].clock) << i;
    EXPECT_EQ(out[i].core, 3) << i;
    EXPECT_EQ(out[i].code, in[i].code) << i;
    EXPECT_EQ(out[i].arg_a, in[i].arg_a) << i;
    EXPECT_EQ(out[i].arg_b, in[i].arg_b) << i;
  }
}

TEST(EventRing, SpillAndInterleavedFlushesPreserveOrder) {
  // Enough events to overflow the 4 KiB inline buffer several times, with
  // explicit flushes sprinkled in (as the scheduler does at every switch).
  constexpr int kN = 20000;
  EventRing ring;
  for (int i = 0; i < kN; ++i) {
    ring.append(static_cast<std::uint64_t>(i) * 37,
                static_cast<std::uint8_t>(EventCode::kLeafSplit),
                static_cast<std::uint8_t>(i & 0x7f), 0);
    if (i % 977 == 0) ring.flush();
  }
  EXPECT_EQ(ring.event_count(), static_cast<std::size_t>(kN));
  std::vector<TraceEvent> out;
  ring.decode(0, &out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)].clock,
              static_cast<std::uint64_t>(i) * 37);
    ASSERT_EQ(out[static_cast<std::size_t>(i)].arg_a, i & 0x7f);
  }
}

TEST(EventRing, MergeOrdersByClockThenCore) {
  // Three cores with overlapping clock ranges and deliberate clock ties
  // across cores: the merge must sort by (clock, core) and preserve each
  // core's recording order for its own ties.
  std::vector<EventRing> rings(3);
  const auto app = [](EventRing& r, std::uint64_t clk, EventCode c,
                      std::uint8_t a = 0) {
    r.append(clk, static_cast<std::uint8_t>(c), a, 0);
  };
  app(rings[0], 5, EventCode::kOpBegin);
  app(rings[0], 20, EventCode::kOpEnd);
  app(rings[1], 5, EventCode::kOpBegin, 1);  // ties core 0 @5
  app(rings[1], 5, EventCode::kTxBegin, 1);  // same-core tie
  app(rings[1], 30, EventCode::kOpEnd, 1);
  app(rings[2], 1, EventCode::kRunBegin);
  app(rings[2], 25, EventCode::kRunEnd);
  const auto merged = merge_ring_events(rings);
  ASSERT_EQ(merged.size(), 7u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const bool ordered =
        merged[i - 1].clock < merged[i].clock ||
        (merged[i - 1].clock == merged[i].clock &&
         merged[i - 1].core <= merged[i].core);
    ASSERT_TRUE(ordered) << "merge out of (clock, core) order at " << i;
  }
  EXPECT_EQ(merged[0].core, 2);  // clock 1
  EXPECT_EQ(merged[1].core, 0);  // clock 5, core tie-break
  EXPECT_EQ(merged[2].core, 1);
  EXPECT_EQ(static_cast<EventCode>(merged[2].code), EventCode::kOpBegin);
  EXPECT_EQ(static_cast<EventCode>(merged[3].code), EventCode::kTxBegin);
}

// ---- real simulated run + JSON round trip ----

driver::ExperimentResult traced_run() {
  driver::ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 4;
  spec.ops_per_thread = 150;
  spec.workload.key_range = 1 << 12;
  spec.workload.dist_param = 0.9;
  spec.workload.scramble = false;
  spec.preload = 1 << 11;
  spec.machine.arena_bytes = 64ull << 20;
  spec.obs.trace = true;
  spec.obs.latency = true;
  return driver::run_sim_experiment(spec);
}

TEST(TraceExport, SimulatedRunProducesWellNestedSpans) {
  const auto r = traced_run();
  ASSERT_FALSE(r.trace.empty());
  const auto tls = build_timelines(r.trace.merged());
  EXPECT_EQ(tls.size(), 4u);  // one timeline per core
  std::size_t total_spans = 0;
  for (const auto& [core, tl] : tls) {
    total_spans += tl.spans.size();
    // Nesting invariant per lane: spans sorted by begin; a stack-based sweep
    // must never see a span cross its enclosing span's end.
    std::vector<std::uint64_t> stack;
    for (const auto& s : tl.spans) {
      ASSERT_LE(s.begin, s.end);
      while (!stack.empty() && s.begin >= stack.back()) stack.pop_back();
      if (!stack.empty()) {
        ASSERT_LE(s.end, stack.back());
      }
      stack.push_back(s.end);
    }
    // Run slices tile the core's active time: non-overlapping, ordered.
    for (std::size_t i = 1; i < tl.run_spans.size(); ++i) {
      ASSERT_GE(tl.run_spans[i].begin, tl.run_spans[i - 1].end);
    }
  }
  // 4 threads x 150 ops, each op at least one span.
  EXPECT_GE(total_spans, 600u);
}

// Minimal recursive-descent JSON parser: validates syntax only (the values
// are checked structurally by scripts/check_trace.py in the ctest fixture).
struct MiniJson {
  const char* p;
  const char* end;
  bool ok = true;

  void ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) < n || std::strncmp(p, s, n) != 0)
      return fail();
    p += n;
    return true;
  }
  bool fail() {
    ok = false;
    return false;
  }
  bool value() {
    ws();
    if (p >= end) return fail();
    switch (*p) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool object() {
    ++p;  // '{'
    ws();
    if (p < end && *p == '}') { ++p; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (p >= end || *p != ':') return fail();
      ++p;
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') { ++p; continue; }
      if (p < end && *p == '}') { ++p; return true; }
      return fail();
    }
  }
  bool array() {
    ++p;  // '['
    ws();
    if (p < end && *p == ']') { ++p; return true; }
    for (;;) {
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') { ++p; continue; }
      if (p < end && *p == ']') { ++p; return true; }
      return fail();
    }
  }
  bool string() {
    if (p >= end || *p != '"') return fail();
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') ++p;
      ++p;
    }
    if (p >= end) return fail();
    ++p;
    return true;
  }
  bool number() {
    const char* start = p;
    if (p < end && (*p == '-' || *p == '+')) ++p;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                       *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                       *p == '+')) {
      ++p;
    }
    return p > start ? true : fail();
  }
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(TraceExport, ChromeTraceJsonParsesAndEventsNest) {
  const auto r = traced_run();
  const std::string path =
      ::testing::TempDir() + "/euno_obs_trace_test.json";
  const auto events = r.trace.merged();
  const std::vector<TraceProcess> procs = {{"test run", 2.3, &events}};
  ASSERT_TRUE(write_chrome_trace(path.c_str(), procs));

  const std::string doc = read_file(path);
  ASSERT_FALSE(doc.empty());
  MiniJson j{doc.data(), doc.data() + doc.size()};
  EXPECT_TRUE(j.value() && j.ok) << "trace JSON failed to parse";
  j.ws();
  EXPECT_EQ(j.p, j.end) << "trailing garbage after JSON document";

  // Spot structural checks without a DOM: the envelope and both lane kinds.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"op:"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"tx:"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"run\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, TracingOffYieldsNoEvents) {
  driver::ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 2;
  spec.ops_per_thread = 50;
  spec.workload.key_range = 1 << 10;
  spec.preload = 1 << 9;
  spec.machine.arena_bytes = 64ull << 20;
  const auto r = driver::run_sim_experiment(spec);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.hot_lines.empty());
  EXPECT_EQ(r.op_latency.count(), 0u);
}

}  // namespace
}  // namespace euno::obs
