#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "htm/abort.hpp"
#include "obs/json.hpp"

namespace euno::obs {

std::string_view event_code_name(EventCode c) {
  switch (c) {
    case EventCode::kNone: return "none";
    case EventCode::kAbort: return "abort";
    case EventCode::kFallback: return "fallback_taken";
    case EventCode::kAdaptiveToFull: return "ccm_engage";
    case EventCode::kAdaptiveToBypass: return "ccm_bypass";
    case EventCode::kLeafSplit: return "leaf_split";
    case EventCode::kLeafMerge: return "leaf_merge";
    case EventCode::kTxBegin: return "tx_begin";
    case EventCode::kTxCommit: return "tx_commit";
    case EventCode::kFallbackAcquired: return "fallback_acquired";
    case EventCode::kFallbackReleased: return "fallback_released";
    case EventCode::kOpBegin: return "op_begin";
    case EventCode::kOpEnd: return "op_end";
    case EventCode::kRunBegin: return "run_begin";
    case EventCode::kRunEnd: return "run_end";
    case EventCode::kFaultInjected: return "fault_injected";
    case EventCode::kHtmDegraded: return "htm_degraded";
    case EventCode::kLockWaitTimeout: return "lock_wait_timeout";
    case EventCode::kStarvationEscape: return "starvation_escape";
    case EventCode::kOpShed: return "op_shed";
    case EventCode::kShardDegraded: return "shard_degraded";
    case EventCode::kCount: break;
  }
  return "?";
}

namespace {

// Numeric values mirror ctx::TxSite / workload::OpType (obs sits below those
// layers; the orders are fixed by the on-wire event encoding).
const char* site_name(std::uint8_t s) {
  switch (s) {
    case 0: return "mono";
    case 1: return "upper";
    case 2: return "lower";
  }
  return "?";
}

const char* op_name(std::uint8_t t) {
  switch (t) {
    case 0: return "get";
    case 1: return "put";
    case 2: return "scan";
    case 3: return "delete";
  }
  return "?";
}

double to_us(std::uint64_t cycles, double ghz) {
  return static_cast<double>(cycles) / (ghz * 1e3);
}

}  // namespace

std::map<int, CoreTimeline> build_timelines(
    const std::vector<TraceEvent>& events) {
  std::map<int, CoreTimeline> out;
  std::map<int, std::vector<TraceSpan>> open;      // per-core span stack
  std::map<int, std::vector<TraceSpan>> open_run;  // per-core run-slice stack
  std::uint64_t max_clock = 0;

  for (const auto& ev : events) {
    max_clock = std::max(max_clock, ev.clock);
    const int core = ev.core;
    auto& tl = out[core];
    auto& stack = open[core];
    const auto code = static_cast<EventCode>(ev.code);
    switch (code) {
      case EventCode::kOpBegin:
      case EventCode::kTxBegin:
      case EventCode::kFallbackAcquired: {
        TraceSpan s;
        s.begin = ev.clock;
        s.code = code;
        s.arg_a = ev.arg_a;
        stack.push_back(s);
        break;
      }
      case EventCode::kOpEnd:
      case EventCode::kTxCommit:
      case EventCode::kAbort:
      case EventCode::kFallbackReleased: {
        const EventCode opener = code == EventCode::kOpEnd
                                     ? EventCode::kOpBegin
                                 : code == EventCode::kFallbackReleased
                                     ? EventCode::kFallbackAcquired
                                     : EventCode::kTxBegin;
        if (stack.empty() || stack.back().code != opener) break;  // unmatched
        TraceSpan s = stack.back();
        stack.pop_back();
        s.end = ev.clock;
        if (code == EventCode::kAbort) {
          s.aborted = true;
          s.abort_reason = ev.arg_a;
          s.abort_conflict = ev.arg_b;
        }
        tl.spans.push_back(s);
        break;
      }
      case EventCode::kRunBegin: {
        TraceSpan s;
        s.begin = ev.clock;
        s.code = code;
        open_run[core].push_back(s);
        break;
      }
      case EventCode::kRunEnd: {
        auto& rs = open_run[core];
        if (rs.empty()) break;
        TraceSpan s = rs.back();
        rs.pop_back();
        s.end = ev.clock;
        tl.run_spans.push_back(s);
        break;
      }
      default:
        tl.instants.push_back(ev);
    }
  }

  // Close anything still open at the end of the stream.
  for (auto* open_map : {&open, &open_run}) {
    for (auto& [core, stack] : *open_map) {
      while (!stack.empty()) {
        TraceSpan s = stack.back();
        stack.pop_back();
        s.end = max_clock;
        (s.code == EventCode::kRunBegin ? out[core].run_spans : out[core].spans)
            .push_back(s);
      }
    }
  }

  // Emit spans in begin order (enclosing span first on ties, i.e. longer
  // duration first), the order trace viewers expect.
  for (auto& [core, tl] : out) {
    auto by_begin = [](const TraceSpan& a, const TraceSpan& b) {
      if (a.begin != b.begin) return a.begin < b.begin;
      return a.end > b.end;
    };
    std::sort(tl.spans.begin(), tl.spans.end(), by_begin);
    std::sort(tl.run_spans.begin(), tl.run_spans.end(), by_begin);
  }
  return out;
}

namespace {

void emit_meta(JsonWriter& w, int pid, int tid, const char* what,
               const std::string& name) {
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.kv("tid", tid < 0 ? 0 : tid);
  w.kv("name", what);
  w.key("args");
  w.begin_object();
  w.kv("name", name);
  w.end_object();
  w.end_object();
}

void emit_span(JsonWriter& w, int pid, int tid, double ghz,
               const TraceSpan& s) {
  w.begin_object();
  w.kv("ph", "X");
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.kv("ts", to_us(s.begin, ghz), 6);
  w.kv("dur", to_us(s.end - s.begin, ghz), 6);
  std::string name;
  const char* cat = "op";
  switch (s.code) {
    case EventCode::kOpBegin:
      name = std::string("op:") + op_name(s.arg_a);
      break;
    case EventCode::kTxBegin:
      cat = "tx";
      if (s.aborted) {
        name = std::string("tx:abort:") +
               std::string(htm::abort_reason_name(
                   static_cast<htm::AbortReason>(s.abort_reason)));
      } else {
        name = "tx:commit";
      }
      break;
    case EventCode::kFallbackAcquired:
      cat = "fallback";
      name = "fallback";
      break;
    default:
      cat = "sched";
      name = "run";
  }
  w.kv("name", name);
  w.kv("cat", cat);
  w.key("args");
  w.begin_object();
  if (s.code == EventCode::kTxBegin) {
    w.kv("site", site_name(s.arg_a));
    if (s.aborted) {
      w.kv("conflict", std::string(htm::conflict_kind_name(
                           static_cast<htm::ConflictKind>(s.abort_conflict)))
                           .c_str());
    }
  }
  w.kv("cycles", s.end - s.begin);
  w.end_object();
  w.end_object();
}

void emit_instant(JsonWriter& w, int pid, int tid, double ghz,
                  const TraceEvent& ev) {
  w.begin_object();
  w.kv("ph", "i");
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.kv("ts", to_us(ev.clock, ghz), 6);
  w.kv("name", std::string(event_code_name(static_cast<EventCode>(ev.code)))
                   .c_str());
  w.kv("s", "t");
  w.end_object();
}

}  // namespace

bool write_chrome_trace(const char* path,
                        const std::vector<TraceProcess>& processes) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace file '%s'\n", path);
    return false;
  }
  JsonWriter w(f);
  w.begin_object();
  w.kv("displayTimeUnit", "ns");
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const auto& proc = processes[p];
    const int pid = static_cast<int>(p);
    emit_meta(w, pid, -1, "process_name", proc.name);
    if (proc.events == nullptr) continue;
    const auto timelines = build_timelines(*proc.events);
    for (const auto& [core, tl] : timelines) {
      // Two lanes per core: ops/transactions, and scheduler run bursts (the
      // latter may straddle the former, so they can't share a track).
      const int tid_ops = core * 2;
      const int tid_sched = core * 2 + 1;
      char lane[48];
      std::snprintf(lane, sizeof(lane), "%s %d", proc.lane, core);
      emit_meta(w, pid, tid_ops, "thread_name", lane);
      for (const auto& s : tl.spans) emit_span(w, pid, tid_ops, proc.ghz, s);
      for (const auto& ev : tl.instants) {
        emit_instant(w, pid, tid_ops, proc.ghz, ev);
      }
      if (!tl.run_spans.empty()) {
        std::snprintf(lane, sizeof(lane), "%s %d sched", proc.lane, core);
        emit_meta(w, pid, tid_sched, "thread_name", lane);
        for (const auto& s : tl.run_spans) {
          emit_span(w, pid, tid_sched, proc.ghz, s);
        }
      }
    }
  }
  w.end_array();
  w.end_object();
  std::fputc('\n', f);
  const bool ok = w.balanced() && std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace euno::obs
