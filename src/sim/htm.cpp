#include "sim/htm.hpp"

#include <bit>
#include <cstring>

namespace euno::sim {

SimHTM::SimHTM(SharedArena& arena, const MachineConfig& cfg,
               const std::uint64_t* global_step)
    : arena_(arena),
      cfg_(cfg),
      tx_(MachineConfig::kMaxCores),
      fault_(cfg.fault, global_step != nullptr ? global_step : &zero_step_,
             cfg.htm.write_capacity_lines, cfg.htm.read_capacity_lines),
      eff_wcap_(cfg.htm.write_capacity_lines),
      eff_rcap_(cfg.htm.read_capacity_lines) {}

void SimHTM::tx_begin(int core) {
  auto& d = tx_[core];
  EUNO_ASSERT_MSG(!d.active, "nested transactions are not supported");
  EUNO_ASSERT_MSG(!d.doomed, "tx_begin with unhandled abort pending");
  d.active = true;
  if (d.read_lines.capacity() == 0) {
    // First transaction on this core: size the tracking vectors once from
    // the machine's HTM capacity limits so the hot path never reallocates
    // (capacity aborts fire before the reservations are exceeded; the undo
    // log holds one entry per *write access*, so give it headroom).
    d.read_lines.reserve(cfg_.htm.read_capacity_lines);
    d.write_lines.reserve(cfg_.htm.write_capacity_lines);
    d.undo.reserve(2 * cfg_.htm.write_capacity_lines);
    d.allocs.reserve(64);
    d.frees.reserve(64);
  }
  d.read_lines.clear();
  d.write_lines.clear();
  d.undo.clear();
  d.frees.clear();
  EUNO_ASSERT_MSG(d.allocs.empty(), "tx allocations leaked from a prior attempt");
  if (fault_.on()) [[unlikely]] {
    // Capacity schedules take effect at transaction begin (constant within
    // an attempt). Burst windows doom the transaction on the spot: tx_begin
    // runs outside the retry loop's try block, so the abort is delivered
    // like a remote kill — mirror abort_remote (roll back, a pure no-op on
    // the now-empty sets except for clearing `active`) and leave the result
    // pending for check_doomed to raise at the next instrumented access,
    // which in SimCtx::attempt is the subscription load, before the body runs.
    fault_.refresh_capacity();
    eff_wcap_ = fault_.write_lines();
    eff_rcap_ = fault_.read_lines();
    if (fault_.draw_burst()) {
      rollback_and_clear(core);
      d.doomed = true;
      d.pending = htm::TxResult{htm::AbortReason::kExplicit,
                                htm::xabort_code::kFaultInjected,
                                htm::ConflictKind::kUnknown};
    }
  }
}

void SimHTM::tx_commit(int core) {
  auto& d = tx_[core];
  if (d.doomed) raise_doomed(core);
  EUNO_ASSERT_MSG(d.active, "tx_commit outside a transaction");
  const std::uint32_t mask = 1u << core;
  for (auto idx : d.read_lines) arena_.line_at(idx).tx_readers &= ~mask;
  for (auto idx : d.write_lines) arena_.line_at(idx).tx_writer &= ~mask;
  // Writes were performed eagerly; committing just publishes them by
  // dropping the undo log and applying deferred frees.
  d.undo.clear();
  d.allocs.clear();
  for (const auto& f : d.frees) arena_.free(f.ptr, f.bytes, f.cls);
  d.frees.clear();
  d.active = false;
}

void SimHTM::tx_abort_explicit(int core, std::uint8_t code) {
  abort_self(core, htm::AbortReason::kExplicit, code, htm::ConflictKind::kUnknown);
}

htm::ConflictKind SimHTM::classify(int victim, int attacker,
                                   const LineState& line) const {
  switch (line.kind) {
    case LineKind::kFallbackLock:
      return htm::ConflictKind::kLockSubscription;
    case LineKind::kRecord: {
      const auto& v = tx_[victim];
      const auto& a = tx_[attacker];
      if (v.has_target && a.has_target && v.target == a.target) {
        return htm::ConflictKind::kTrueSameRecord;
      }
      return htm::ConflictKind::kFalseRecord;
    }
    case LineKind::kLeafMeta:
    case LineKind::kTreeMeta:
    case LineKind::kCCM:
      return htm::ConflictKind::kFalseMetadata;
    case LineKind::kOther:
      break;
  }
  return htm::ConflictKind::kUnknown;
}

void SimHTM::rollback_and_clear(int core) {
  auto& d = tx_[core];
  const std::uint32_t mask = 1u << core;
  // Undo in reverse: later writes may overwrite earlier ones to the same
  // address.
  for (auto it = d.undo.rbegin(); it != d.undo.rend(); ++it) {
    std::memcpy(it->addr, &it->old_value, it->size);
  }
  d.undo.clear();
  // An RTM abort discards the speculative cache state: the transaction's
  // read and write sets were tracked in the aborting core's L1 and are lost
  // with it, so a retry re-pays the coherence transfers. This cost is a
  // first-order reason aborts are expensive on real hardware (and why
  // proactively *avoiding* conflicts, as Eunomia does, beats retrying).
  for (auto idx : d.read_lines) {
    LineState& line = arena_.line_at(idx);
    line.tx_readers &= ~mask;
    line.sharers &= ~mask;
  }
  for (auto idx : d.write_lines) {
    LineState& line = arena_.line_at(idx);
    line.tx_writer &= ~mask;
    line.sharers &= ~mask;
    if (line.owner == core) line.dirty = 0;
  }
  d.read_lines.clear();
  d.write_lines.clear();
  d.frees.clear();  // deferred frees never happen on abort
  d.active = false;
  // d.allocs is kept: the fiber frees them in on_abort_handled().
}

void SimHTM::abort_remote(int victim, htm::ConflictKind kind) {
  auto& d = tx_[victim];
  EUNO_ASSERT(d.active);
  rollback_and_clear(victim);
  d.doomed = true;
  d.pending = htm::TxResult{htm::AbortReason::kConflict, 0, kind};
}

void SimHTM::abort_self(int core, htm::AbortReason reason, std::uint8_t code,
                        htm::ConflictKind kind) {
  auto& d = tx_[core];
  EUNO_ASSERT(d.active);
  rollback_and_clear(core);
  throw TxAbortException{htm::TxResult{reason, code, kind}};
}

void SimHTM::raise_doomed(int core) {
  auto& d = tx_[core];
  d.doomed = false;
  throw TxAbortException{d.pending};
}

void SimHTM::on_conflict(int core, const LineState& line,
                         std::uint32_t victims) {
  htm::ConflictKind first_kind = htm::ConflictKind::kUnknown;
  while (victims != 0) {
    const int v = std::countr_zero(victims);
    victims &= victims - 1;
    const auto kind = classify(v, core, line);
    if (first_kind == htm::ConflictKind::kUnknown) first_kind = kind;
    if (cmap_ != nullptr) {
      cmap_->record(arena_.state_index(line), line_kind_name(line.kind), kind);
    }
    abort_remote(v, kind);
  }

  // Requester wins... usually. When the requester is itself transactional,
  // real TSX often destroys *both* parties (mutual in-flight invalidations;
  // the documented absence of a forward-progress guarantee). Model that as a
  // coin flip. The RNG is drawn only when the requester is transactional, so
  // non-transactional strong-atomicity kills don't perturb the stream.
  if (tx_[core].active && cfg_.htm.mutual_abort_pct != 0 &&
      mutual_rng_.next_bounded(100) < cfg_.htm.mutual_abort_pct) {
    if (cmap_ != nullptr) {
      cmap_->record(arena_.state_index(line), line_kind_name(line.kind),
                    first_kind);
    }
    abort_self(core, htm::AbortReason::kConflict, 0, first_kind);
  }
}

void SimHTM::note_tx_alloc(int core, void* p, std::size_t bytes, MemClass cls) {
  auto& d = tx_[core];
  if (d.active) d.allocs.push_back(AllocRec{p, bytes, cls});
}

bool SimHTM::defer_tx_free(int core, void* p, std::size_t bytes, MemClass cls) {
  auto& d = tx_[core];
  if (!d.active) return false;
  d.frees.push_back(AllocRec{p, bytes, cls});
  return true;
}

void SimHTM::on_abort_handled(int core) {
  auto& d = tx_[core];
  for (const auto& a : d.allocs) arena_.free(a.ptr, a.bytes, a.cls);
  d.allocs.clear();
}

int SimHTM::active_tx_count() const {
  int n = 0;
  for (const auto& d : tx_) n += d.active ? 1 : 0;
  return n;
}

}  // namespace euno::sim
