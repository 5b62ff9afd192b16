// The transaction-event vocabulary shared by the simulator, the execution
// contexts and the Chrome-trace exporter.
//
// Events are 16 bytes and recorded into per-core buffers with a single
// gated vector push; all interpretation (span pairing, JSON emission)
// happens offline in trace.cpp after the run.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/options.hpp"

namespace euno::obs {

/// What happened. Codes 1..6 predate the obs subsystem (ctx::TraceCode) and
/// keep their numeric values; tree code stores them via Context::note_event.
enum class EventCode : std::uint8_t {
  kNone = 0,
  kAbort = 1,             // tx attempt ended in an abort (a=reason, b=conflict)
  kFallback = 2,          // op gave up on HTM and took the fallback lock
  kAdaptiveToFull = 3,    // a leaf's detector engaged the CCM
  kAdaptiveToBypass = 4,  // a leaf went back to bypass mode
  kLeafSplit = 5,
  kLeafMerge = 6,
  // Span-forming events added by the obs subsystem:
  kTxBegin = 7,            // attempt started (a=TxSite)
  kTxCommit = 8,           // attempt committed (a=TxSite)
  kFallbackAcquired = 9,   // fallback lock acquired (serial section begins)
  kFallbackReleased = 10,  // fallback lock released
  kOpBegin = 11,           // tree operation started (a=OpType)
  kOpEnd = 12,
  kRunBegin = 13,  // scheduler resumed this core's fiber
  kRunEnd = 14,    // fiber suspended (preempted by a smaller clock) / finished
  // Fault-injection / hardened-fallback-path events (DESIGN.md §10):
  kFaultInjected = 15,      // an injected fault hit this core (a=FaultArg)
  kHtmDegraded = 16,        // HTM-health monitor flipped the tree lock-only
  kLockWaitTimeout = 17,    // a wait-for-release episode hit the spin cap
  kStarvationEscape = 18,   // fairness hatch sent this op straight to the lock
  // Service-layer robustness events (DESIGN.md §15). 19 is retired (it
  // marked an in-retry-loop deadline unwind); the explicit values keep
  // existing traces decodable.
  kOpShed = 20,             // admission gate rejected the op (a=ShardState)
  kShardDegraded = 21,      // overload monitor moved a shard to a later stage
                            // (a=new ShardState)
  kCount,
};

/// arg_a of a kFaultInjected event: which fault kind hit.
enum class FaultArg : std::uint8_t {
  kSpurious = 0,
  kBurst = 1,
  kLockHolderDelay = 2,
};

std::string_view event_code_name(EventCode c);

/// One recorded simulation event. `clock` is the recording core's simulated
/// cycle count (globally comparable: the discrete-event scheduler interleaves
/// fibers by exactly this clock).
struct TraceEvent {
  std::uint64_t clock;
  std::uint8_t core;
  std::uint8_t code;  // EventCode
  std::uint8_t arg_a;
  std::uint8_t arg_b;
};

}  // namespace euno::obs
