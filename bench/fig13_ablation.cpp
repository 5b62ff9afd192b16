// Figure 13: impact of each design choice — the cumulative ablation ladder
// at 20 threads, under high (θ=0.9) and low (θ=0.2) contention. Relative
// performance vs. the monolithic baseline is printed for each rung, plus
// aborts/op (the quantity each mechanism attacks).
//
// Paper's ladder at high contention: +Split 1.83x, +Part 4.58x,
// +CCM lockbits 9.68x, +CCM markbits 11.10x; at low contention the ladder
// costs 3-8% until +Adaptive recovers it to -2%.
//
// Our simulated machine reproduces the ladder's abort-elimination exactly
// (each rung removes the conflicts it targets) with attenuated throughput
// factors — see EXPERIMENTS.md for the calibration discussion.
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  spec.threads = 20;
  bench::print_header("Figure 13", "design-choice ablation at 20 threads", spec);

  // The monolithic baseline, then each cumulative rung. The last rung,
  // +Adaptive, is the full Euno-B+Tree.
  const std::vector<std::string> ladder = bench::selected_trees(
      args, {"htm-bptree", "euno-split", "euno-part", "euno-lockbits",
             "euno-markbits", "euno"});

  std::vector<driver::ExperimentSpec> specs;
  for (double theta : {0.9, 0.2}) {
    spec.workload.dist_param = theta;
    for (const auto& slug : ladder) {
      spec.tree = slug;
      specs.push_back(spec);
    }
  }
  const auto results = bench::run_figure_sweep(specs, args);

  stats::Table table(bench::with_latency_columns(
      args, {"contention", "config", "throughput_mops", "relative",
             "aborts_per_op", "wasted_pct"}));
  double baseline = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& slug = specs[i].tree;
    const auto& r = results[i];
    // Each theta group leads with the monolithic baseline rung.
    if (slug == "htm-bptree") baseline = r.throughput_mops;
    table.add_row({specs[i].workload.dist_param > 0.5 ? "high (0.9)" : "low (0.2)",
                   slug == "htm-bptree" ? "Baseline"
                   : slug == "euno"     ? "+Adaptive"
                                        : driver::tree_display_name(slug),
                   stats::Table::num(r.throughput_mops),
                   baseline > 0
                       ? stats::Table::num(r.throughput_mops / baseline, 2) + "x"
                       : "--",
                   stats::Table::num(r.aborts_per_op, 3),
                   stats::Table::num(100 * r.wasted_cycle_frac, 1),
                   stats::Table::num(r.lat_p50, 0),
                   stats::Table::num(r.lat_p99, 0)});
  }
  table.print(args.csv);
  bench::emit_artifacts(args, "fig13_ablation", specs, results);
  return 0;
}
