// Figure 1: throughput of the conventional HTM-B+Tree under different
// contention rates (skew coefficient θ), 16 threads.
//
// Expected shape: high and stable throughput while θ < 0.6, then a sharp
// collapse as contention grows.
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  spec.tree = bench::selected_tree_or(args, "htm-bptree");
  bench::print_header("Figure 1", "HTM-B+Tree throughput vs. contention", spec);

  const auto thetas = bench::theta_sweep(args.quick);
  std::vector<driver::ExperimentSpec> specs;
  for (double theta : thetas) {
    spec.workload.dist_param = theta;
    specs.push_back(spec);
  }
  const auto results = bench::run_figure_sweep(specs, args);

  stats::Table table({"theta", "throughput_mops", "aborts_per_op", "fallbacks",
                      "wasted_cycles_pct", "p50_cyc", "p99_cyc"});
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const auto& r = results[i];
    table.add_row({stats::Table::num(thetas[i]),
                   stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.aborts_per_op),
                   stats::Table::num(r.fallbacks),
                   stats::Table::num(100 * r.wasted_cycle_frac, 1),
                   stats::Table::num(r.lat_p50, 0),
                   stats::Table::num(r.lat_p99, 0)});
  }
  table.print(args.csv);
  bench::emit_artifacts(args, "fig01_motivation", specs, results);
  return 0;
}
