// Simulated HTM: cache-line-granular conflict detection with eager
// (requester-wins) resolution, undo-log rollback, capacity limits and strong
// atomicity — the semantics of Intel RTM (§2.1 of the paper) reproduced in
// software over the simulator's shared arena.
//
// Because the simulator interleaves exactly one fiber at a time, conflicts
// are detected eagerly at each access: if core A touches a line that is in
// in-flight transaction B's read/write set in a conflicting mode, B is
// aborted on the spot (its undo log restored, its set bits cleared) and B's
// fiber observes the abort at its next instrumented operation. This matches
// the cache-coherence-driven behaviour of real HTM, where the requester's
// coherence message kills the victim's transaction.
//
// Classification: unlike real hardware, the simulator knows *which* line
// conflicted, what the line holds (LineKind) and both parties' current target
// keys, so every conflict abort is attributed as true-same-record /
// false-record / false-metadata — measuring directly what the paper's §2.3
// had to estimate by workload modification.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "htm/abort.hpp"
#include "obs/contention.hpp"
#include "sim/arena.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/txabort.hpp"
#include "util/memstats.hpp"
#include "util/rng.hpp"

namespace euno::sim {

class SimHTM {
 public:
  /// `global_step` points at the engine's instrumented-access counter — the
  /// time axis of fault campaigns (capacity schedules, burst windows). When
  /// null (standalone unit tests), the fault engine sees a frozen step 0.
  SimHTM(SharedArena& arena, const MachineConfig& cfg,
         const std::uint64_t* global_step = nullptr);

  /// Declare the key the core's current operation targets (used only for
  /// conflict classification; valid both inside and outside transactions).
  void set_op_target(int core, std::uint64_t key) {
    tx_[core].target = key;
    tx_[core].has_target = true;
  }
  void clear_op_target(int core) { tx_[core].has_target = false; }

  void tx_begin(int core);
  /// Commit; throws TxAbortException if the transaction was doomed by a
  /// concurrent conflict after its last access.
  void tx_commit(int core);
  [[noreturn]] void tx_abort_explicit(int core, std::uint8_t code);
  bool in_tx(int core) const { return tx_[core].active; }

  /// Raise a pending cross-fiber abort, if any. Called at the top of every
  /// instrumented operation.
  void check_doomed(int core) {
    if (tx_[core].doomed) raise_doomed(core);
  }

  /// Conflict protocol + read/write-set tracking for one access. The caller
  /// performs the raw load/store after this returns. Throws on self-abort
  /// (capacity / mutual conflict). `size` must not straddle a cache line.
  /// Header-inline fast path: the common case — no victims, line already in
  /// this core's set — is a couple of mask tests; victim handling lives in
  /// the out-of-line on_conflict().
  void on_access(int core, void* addr, std::size_t size, bool is_write) {
    EUNO_DEBUG_ASSERT(size <= 8);
    EUNO_DEBUG_ASSERT((reinterpret_cast<std::uintptr_t>(addr) & 63) + size <= 64);
    LineState& line = arena_.line_of(addr);
    const std::uint32_t mask = 1u << core;

    // Strong atomicity: any access, transactional or not, kills conflicting
    // in-flight transactions of other cores. Requester wins (usually; see
    // on_conflict for the mutual-abort coin flip).
    const std::uint32_t victims =
        (is_write ? (line.tx_readers | line.tx_writer) : line.tx_writer) & ~mask;
    if (victims != 0) [[unlikely]] on_conflict(core, line, victims);

    auto& d = tx_[core];
    if (!d.active) return;

    // Fault injection: spurious per-access aborts (off-path unless a fault
    // campaign armed the engine). Effective capacities below come from the
    // campaign's schedule when one is installed (eff_wcap_/eff_rcap_ equal
    // the machine limits otherwise).
    if (fault_.on()) [[unlikely]] {
      if (fault_.draw_spurious()) {
        abort_self(core, htm::AbortReason::kOther,
                   htm::xabort_code::kFaultInjected,
                   htm::ConflictKind::kUnknown);
      }
    }

    if (is_write) {
      if (!(line.tx_writer & mask)) {
        if (d.write_lines.size() >= eff_wcap_) [[unlikely]] {
          abort_self(core, htm::AbortReason::kCapacity, 0,
                     htm::ConflictKind::kUnknown);
        }
        line.tx_writer |= mask;
        d.write_lines.push_back(arena_.line_index(addr));
      }
      UndoEntry u{addr, 0, static_cast<std::uint8_t>(size)};
      std::memcpy(&u.old_value, addr, size);
      d.undo.push_back(u);
    } else {
      if (!((line.tx_readers | line.tx_writer) & mask)) {
        if (d.read_lines.size() >= eff_rcap_) [[unlikely]] {
          abort_self(core, htm::AbortReason::kCapacity, 0,
                     htm::ConflictKind::kUnknown);
        }
        line.tx_readers |= mask;
        d.read_lines.push_back(arena_.line_index(addr));
      }
    }
  }

  /// Allocation bookkeeping: allocations inside a transaction are released
  /// if it aborts; frees inside a transaction are deferred to commit.
  void note_tx_alloc(int core, void* p, std::size_t bytes, MemClass cls);
  bool defer_tx_free(int core, void* p, std::size_t bytes, MemClass cls);

  /// After catching TxAbortException the fiber must call this to release
  /// allocations made by the aborted attempt.
  void on_abort_handled(int core);

  /// Number of cores that currently have an active transaction.
  int active_tx_count() const;

  /// Distinct cache lines in the core's current read / write set. The dedup
  /// in on_access (a line already carrying the core's set bit is not pushed
  /// again) makes these true set sizes, not access counts.
  std::size_t tx_read_set_lines(int core) const {
    return tx_[core].read_lines.size();
  }
  std::size_t tx_write_set_lines(int core) const {
    return tx_[core].write_lines.size();
  }

  /// Contention attribution sink (nullptr = off, the default). Recording
  /// happens only on the conflict cold path, so the fast path is untouched.
  void set_contention_map(obs::ContentionMap* map) { cmap_ = map; }

  // ---- fault injection (sim/fault.hpp) ----

  /// Counters of injected faults so far (surfaced in ExperimentResult and
  /// the run manifest).
  const FaultCounters& fault_counters() const { return fault_.counters(); }

  /// Lock-holder-delay draw for one fallback-lock acquisition, in extra
  /// cycles to hold before running the body (0 = no injection). Called by
  /// SimCtx::after_acquire on the fallback path.
  std::uint64_t fault_lock_hold_delay() {
    if (!fault_.on()) return 0;
    return fault_.draw_lock_hold_delay();
  }

 private:
  struct UndoEntry {
    void* addr;
    std::uint64_t old_value;
    std::uint8_t size;
  };
  struct AllocRec {
    void* ptr;
    std::size_t bytes;
    MemClass cls;
  };
  struct TxDesc {
    bool active = false;
    bool doomed = false;
    htm::TxResult pending{};
    std::vector<std::uint64_t> read_lines;
    std::vector<std::uint64_t> write_lines;
    std::vector<UndoEntry> undo;
    std::vector<AllocRec> allocs;
    std::vector<AllocRec> frees;
    std::uint64_t target = 0;
    bool has_target = false;
  };

  htm::ConflictKind classify(int victim, int attacker, const LineState& line) const;
  /// Cold path of on_access: abort every victim in `victims`; if the
  /// requester is itself transactional, maybe abort it too (mutual-abort
  /// model) — in which case this throws.
  void on_conflict(int core, const LineState& line, std::uint32_t victims);
  void rollback_and_clear(int core);
  void abort_remote(int victim, htm::ConflictKind kind);
  [[noreturn]] void abort_self(int core, htm::AbortReason reason, std::uint8_t code,
                               htm::ConflictKind kind);
  [[noreturn]] void raise_doomed(int core);

  SharedArena& arena_;
  const MachineConfig& cfg_;
  std::vector<TxDesc> tx_;
  Xoshiro256 mutual_rng_{0xE40};
  obs::ContentionMap* cmap_ = nullptr;
  std::uint64_t zero_step_ = 0;  // step source for standalone construction
  FaultState fault_;
  // Effective capacity limits (== machine limits unless a capacity schedule
  // advanced them; refreshed at each tx_begin so they are constant within an
  // attempt).
  std::uint32_t eff_wcap_;
  std::uint32_t eff_rcap_;
};

}  // namespace euno::sim
