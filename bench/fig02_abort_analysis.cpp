// Figure 2: HTM aborts of the conventional HTM-B+Tree, decomposed by cause,
// under different contention rates (16 threads).
//
// The paper estimates the decomposition indirectly (workload modification +
// subtraction); the simulator attributes every conflict abort directly from
// the conflicting cache line and both parties' target keys:
//   - same record           ("true conflicts",       paper: 9-12%)
//   - different records     ("false conflicts",      paper: 87-90%)
//   - shared metadata       (versions/status/locks,  paper: 6-10%)
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  spec.tree = bench::selected_tree_or(args, "htm-bptree");
  bench::print_header("Figure 2", "HTM abort decomposition vs. contention", spec);

  const auto thetas = bench::theta_sweep(args.quick);
  std::vector<driver::ExperimentSpec> specs;
  for (double theta : thetas) {
    spec.workload.dist_param = theta;
    specs.push_back(spec);
  }
  const auto results = bench::run_figure_sweep(specs, args);

  stats::Table table(bench::with_latency_columns(
      args, {"theta", "aborts_per_op", "same_record_pct", "diff_record_pct",
             "metadata_pct", "lock_subscr_pct", "capacity_other_pct"}));
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const double theta = thetas[i];
    const auto& r = results[i];
    const double total = static_cast<double>(r.aborts_total);
    auto pct = [&](std::uint64_t n) {
      return stats::Table::num(total > 0 ? 100.0 * static_cast<double>(n) / total
                                         : 0.0,
                               1);
    };
    table.add_row({stats::Table::num(theta), stats::Table::num(r.aborts_per_op),
                   pct(r.conflicts_true_same_record), pct(r.conflicts_false_record),
                   pct(r.conflicts_false_metadata),
                   pct(r.conflicts_lock_subscription),
                   pct(r.aborts_capacity + r.aborts_other),
                   stats::Table::num(r.lat_p50, 0),
                   stats::Table::num(r.lat_p99, 0)});
  }
  table.print(args.csv);
  // With --json, the contention channel is live: show where the aborts of the
  // most contended point actually landed (leaf-level attribution).
  if (!results.empty()) {
    bench::print_hot_lines(bench::point_label(specs.back()).c_str(),
                           results.back(), args.csv);
  }
  bench::emit_artifacts(args, "fig02_abort_analysis", specs, results);
  std::printf(
      "\nNote: lock_subscr aborts are casualties of fallback-lock acquisition\n"
      "(the retry cascade the collapse feeds on); the paper folds them into\n"
      "its categories.\n");
  return 0;
}
