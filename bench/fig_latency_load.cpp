// Latency under load (DESIGN.md §15): open-loop arrivals against the sharded
// KV service layer, sweeping offered load around the store's measured
// saturation point. Two configurations face the same arrival schedule:
//
//   baseline  — store with no admission control: every arrival is executed,
//               so past saturation the backlog (and with it the sojourn time
//               of every op) grows for as long as the run lasts;
//   hardened  — per-shard token-bucket gating + inflight cap + overload
//               monitor + per-op deadlines: excess arrivals are shed at the
//               gate (kShedded) or rejected at admission once already past
//               their deadline (kDeadlineExceeded), so the latency of
//               *admitted* ops stays flat.
//
// Sequence: one closed-loop probe measures saturation throughput, then the
// sweep offers {0.5, 1.0, 2.0}x that rate. Latency rows are percentiles of
// admitted ops' sojourn time (completion minus *scheduled* arrival — queueing
// delay included, which is the whole point of an open-loop measurement).
//
// Machine-checkable from the exit status: at 2x saturation the hardened
// store must (a) actually shed, and (b) keep admitted p99 within a fixed
// multiple of its at-saturation p99, while (c) the baseline's p99 blows up.
#include <algorithm>

#include "fig_common.hpp"

using namespace euno;

namespace {

/// Offered-load multipliers applied to the measured saturation throughput.
constexpr double kLoadMultipliers[] = {0.5, 1.0, 2.0};

/// Exit-contract thresholds (deliberately loose: the claim is "bounded vs
/// unbounded", not a point estimate).
constexpr double kHardenedP99Headroom = 10.0;  // 2x p99 vs 1x p99, hardened
constexpr double kBaselineBlowup = 4.0;        // baseline 2x p99 vs hardened 2x

driver::ExperimentSpec with_load(driver::ExperimentSpec s, double offered_mops) {
  s.store.offered_load_mops = offered_mops;
  return s;
}

driver::ExperimentSpec hardened(driver::ExperimentSpec s, double sat_mops,
                                std::uint64_t deadline_us) {
  s.store.shedding = true;
  // The bucket is provisioned at the shard's fair share of measured
  // saturation: admitted load can never exceed what the trees can serve, so
  // overload turns into shed_ops instead of queueing delay.
  s.store.shard_rate_mops = sat_mops / s.store.shards;
  s.store.burst = 32;
  s.store.inflight_limit = static_cast<std::uint32_t>(2 * s.threads);
  // Monitor: a 2x-overload shard sheds ~half its arrivals, so 40% marks the
  // window saturated (visible healthy->shedding transitions in the table);
  // 64 consecutive saturated windows would be needed for the terminal
  // lock-only stage — beyond this run length, deliberately, because pure
  // overload is the bucket's job, not the degradation path's.
  s.store.shed_on_pct = 40;
  s.store.degrade_windows = 64;
  s.store.deadline_us = deadline_us;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto base = bench::figure_spec(args);
  base.tree = bench::selected_tree_or(args, "euno");
  base.store.shards = args.store_shards != 0 ? args.store_shards : 8;
  if (args.ops_per_thread == 0) base.ops_per_thread = args.quick ? 1000 : 3000;
  bench::print_header("Latency under load",
                      "open-loop offered sweep, baseline vs hardened store",
                      base);

  // Closed-loop saturation probe: same store layout, no open-loop schedule —
  // its throughput is the capacity the sweep is provisioned around.
  std::vector<driver::ExperimentSpec> probe_specs{base};
  const auto probe_results = bench::run_figure_sweep(probe_specs, args);
  const double sat_mops = args.offered_load > 0 ? args.offered_load
                                                : probe_results[0].throughput_mops;
  if (!(sat_mops > 0)) {
    std::fprintf(stderr, "fig_latency_load: saturation probe measured zero "
                         "throughput\n");
    return 1;
  }
  // Default deadline: ~8x the per-client service interval at saturation
  // (threads/sat microseconds per op) — far above healthy latency, binding
  // only once a client is dragging a backlog.
  const std::uint64_t deadline_us =
      args.deadline_us != 0
          ? args.deadline_us
          : static_cast<std::uint64_t>(8.0 * base.threads / sat_mops) + 1;

  std::vector<driver::ExperimentSpec> specs;
  for (double m : kLoadMultipliers) {
    specs.push_back(with_load(base, m * sat_mops));
    specs.push_back(hardened(with_load(base, m * sat_mops), sat_mops,
                             deadline_us));
  }
  const auto results = bench::run_figure_sweep(specs, args);

  // One manifest covering probe + sweep, in run order.
  std::vector<driver::ExperimentSpec> all_specs = probe_specs;
  all_specs.insert(all_specs.end(), specs.begin(), specs.end());
  std::vector<driver::ExperimentResult> all_results = probe_results;
  all_results.insert(all_results.end(), results.begin(), results.end());
  bench::emit_artifacts(args, "fig_latency_load", all_specs, all_results);

  // Sim latencies are cycles, native ones wall nanoseconds.
  const double to_us = args.native ? 1e-3 : 1.0 / (base.ghz * 1e3);
  std::printf("saturation probe: %.2f Mops (closed loop, %d shards); "
              "deadline %llu us\n\n",
              sat_mops, base.store.shards,
              static_cast<unsigned long long>(deadline_us));

  stats::Table table({"offered", "config", "goodput", "admitted", "shed",
                      "deadline", "degr", "p50us", "p99us", "p999us"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& s = specs[i];
    const auto& r = results[i];
    char offered[32];
    std::snprintf(offered, sizeof(offered), "%.2fx",
                  s.store.offered_load_mops / sat_mops);
    table.add_row({offered, s.store.shedding ? "hardened" : "baseline",
                   stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.admitted_ops),
                   stats::Table::num(r.shed_ops),
                   stats::Table::num(r.deadline_exceeded),
                   stats::Table::num(r.shard_degradations),
                   stats::Table::num(r.lat_p50 * to_us),
                   stats::Table::num(r.lat_p99 * to_us),
                   stats::Table::num(r.lat_p999 * to_us)});
  }
  table.print(args.csv);

  // Row layout: pairs in multiplier order — [2i]=baseline, [2i+1]=hardened.
  const auto& hard_1x = results[3];
  const auto& base_2x = results[4];
  const auto& hard_2x = results[5];
  if (hard_2x.shed_ops == 0) {
    std::fprintf(stderr, "fig_latency_load: hardened store shed nothing at "
                         "2x saturation\n");
    return 1;
  }
  if (hard_2x.lat_p99 > kHardenedP99Headroom * std::max(hard_1x.lat_p99, 1.0)) {
    std::fprintf(stderr,
                 "fig_latency_load: hardened p99 at 2x (%.0f) exceeds %gx "
                 "its at-saturation p99 (%.0f)\n",
                 hard_2x.lat_p99, kHardenedP99Headroom, hard_1x.lat_p99);
    return 1;
  }
  if (base_2x.lat_p99 < kBaselineBlowup * std::max(hard_2x.lat_p99, 1.0)) {
    std::fprintf(stderr,
                 "fig_latency_load: baseline p99 at 2x (%.0f) did not blow "
                 "up vs hardened (%.0f) — overload is not binding\n",
                 base_2x.lat_p99, hard_2x.lat_p99);
    return 1;
  }
  return 0;
}
