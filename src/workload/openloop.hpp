// Open-loop traffic generation (DESIGN.md §15).
//
// Closed-loop benches (each thread issues its next op as soon as the
// previous one returns) self-throttle under overload: the offered rate
// collapses to the service rate and queueing never shows up in the latency
// histograms. The latency-under-load figure needs the opposite: a fixed
// *arrival schedule* that keeps charging regardless of how the store is
// doing, so backlog manifests as growing sojourn time (completion minus
// scheduled arrival) — the open-loop property.
//
// ArrivalStream is that schedule: one per client, a seeded Poisson
// (exponential inter-arrival) schedule in engine clock units. The schedule
// never shifts — lateness is backlog, not rescheduling. The ops themselves
// come from workload::OpStream.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace euno::workload {

/// Parameters of one open-loop run, shared by all clients. The clock unit is
/// whatever the execution context's now() counts (simulated cycles on SimCtx,
/// wall-clock ns on NativeCtx); the driver converts offered load into
/// `mean_gap` once, in that unit.
struct OpenLoopSpec {
  std::uint64_t seed = 42;      // arrival-schedule seed (independent of the
                                // key-choice seed in WorkloadSpec)
  double mean_gap = 1000;       // mean inter-arrival per client, clock units
};

/// Deterministic per-client Poisson arrival schedule. The k-th scheduled
/// arrival is origin + sum of k exponential gaps drawn from this client's
/// private rng — a pure function of (spec.seed, client_id), never of how the
/// store responds.
class ArrivalStream {
 public:
  ArrivalStream(const OpenLoopSpec& spec, int client_id,
                std::uint64_t origin = 0)
      : rng_(SplitMix64(spec.seed + 0xA7B0ull * (static_cast<std::uint64_t>(
                                                     client_id) +
                                                 1))
                 .next()),
        mean_gap_(spec.mean_gap),
        base_(origin) {}

  /// Scheduled arrival of the next op. Advances the stream.
  std::uint64_t next() {
    base_ += gap();
    return base_;
  }

 private:
  /// Exponential gap with mean mean_gap_, floored at one clock unit.
  std::uint64_t gap() {
    const double u = rng_.next_double();  // [0, 1)
    const double g = -std::log1p(-u) * mean_gap_;
    const double c = std::ceil(g);
    return c < 1.0 ? 1 : static_cast<std::uint64_t>(c);
  }

  Xoshiro256 rng_;
  double mean_gap_;
  std::uint64_t base_;  // schedule position: origin + sum of gaps so far
};

}  // namespace euno::workload
