// Shared vocabulary of the execution-context layer.
//
// Tree code is written once, templated on a Context type (NativeCtx or
// SimCtx). A Context provides:
//   - txn(site, lock, policy, body): run `body` as an HTM transaction with a
//     DBX-style retry policy and subscribed fallback lock
//   - read/write: shared-memory accesses (instrumented under simulation)
//   - atomic load/store/CAS/fetch_or: lock-free accesses outside regions
//   - alloc/free/tag_memory: shared-memory allocation with accounting tags
//   - set_op_target/compute/spin_pause: classification & cost annotations
//
// Discipline required of transaction bodies (matches real RTM):
//   - bodies may be re-executed many times; captured locals must be treated
//     as write-once outputs, overwritten on every attempt
//   - all shared-memory accesses go through the context
//   - bodies must not catch sim::TxAbortException
#pragma once

#include <atomic>
#include <cstdint>

#include "htm/abort.hpp"
#include "htm/policy.hpp"
#include "obs/event.hpp"
#include "util/cacheline.hpp"

namespace euno::ctx {

/// Which HTM region of an operation a transaction protects. Statistics are
/// kept per site, which is how we observe the paper's ">90% of conflicts
/// occur in the leaf level".
enum class TxSite : std::uint8_t {
  kMono = 0,  // monolithic region (baseline trees)
  kUpper,     // Euno upper region (index traversal)
  kLower,     // Euno lower region (leaf access)
  kCount,
};

/// Event codes recorded into the simulation trace (Context::note_event and
/// the txn() helper). The vocabulary lives in obs/event.hpp — shared with
/// the simulator's run-slice recording and the Chrome-trace exporter.
using TraceCode = obs::EventCode;

/// Per-invocation result of Context::txn(), consumed by adaptive contention
/// control (Euno's per-leaf detector watches the abort count of each lower
/// region execution).
struct TxnOutcome {
  std::uint32_t aborts = 0;
  bool used_fallback = false;
  // Whether the body ran to completion (always true for txn(), which falls
  // back to the lock on budget exhaustion; try_txn() reports false instead
  // of serializing, so multi-path policies can move to their next path).
  bool committed = false;
};

/// The fallback lock for a group of HTM regions. Embedded in each tree's
/// shared state; the lock word gets a full line so subscription conflicts
/// are isolated. A second line carries the HTM-health monitor (DESIGN.md
/// §10): those fields are only ever touched with host-side relaxed atomics —
/// never through the instrumented/transactional path — so in the simulator
/// they cost zero cycles and can never conflict, and natively they stay off
/// the subscribed lock line.
struct alignas(kCacheLineSize) FallbackLock {
  std::atomic<std::uint32_t> word{0};
  char pad[kCacheLineSize - sizeof(std::atomic<std::uint32_t>)]{};
  // ---- HTM-health monitor (second line) ----
  std::atomic<std::uint64_t> health_attempts{0};
  std::atomic<std::uint64_t> health_commits{0};
  std::atomic<std::uint32_t> degraded{0};  // 1 = permanently lock-only
  char pad2[kCacheLineSize - 2 * sizeof(std::atomic<std::uint64_t>) -
            sizeof(std::atomic<std::uint32_t>)]{};
};
static_assert(sizeof(FallbackLock) == 2 * kCacheLineSize);

/// Per-site transaction statistics kept by each context.
struct SiteStats {
  htm::TxStats site[static_cast<std::size_t>(TxSite::kCount)];

  htm::TxStats& at(TxSite s) { return site[static_cast<std::size_t>(s)]; }
  const htm::TxStats& at(TxSite s) const {
    return site[static_cast<std::size_t>(s)];
  }

  htm::TxStats total() const {
    htm::TxStats t;
    for (const auto& s : site) t += s;
    return t;
  }

  SiteStats& operator+=(const SiteStats& o) {
    for (std::size_t i = 0; i < std::size(site); ++i) site[i] += o.site[i];
    return *this;
  }
};

}  // namespace euno::ctx
