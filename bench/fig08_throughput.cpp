// Figure 8: throughput of all four trees under different contention rates
// (16 threads). Also reports instructions/op, reproducing the §5.2 claim
// that Masstree executes ~2.1x the instructions of Euno-B+Tree at θ=0.5.
//
// Expected shape: HTM-B+Tree (and HTM-Masstree) collapse for θ > 0.6;
// Euno-B+Tree stays high; Masstree stays stable.
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  bench::print_header("Figure 8", "throughput vs. contention, all trees", spec);

  std::vector<driver::ExperimentSpec> specs;
  for (double theta : bench::theta_sweep(args.quick)) {
    spec.workload.dist_param = theta;
    for (const auto& slug : bench::figure_trees(args)) {
      spec.tree = slug;
      specs.push_back(spec);
    }
  }
  const auto results = bench::run_figure_sweep(specs, args);

  stats::Table table({"theta", "tree", "throughput_mops", "aborts_per_op",
                      "instr_per_op", "wasted_pct", "p50_cyc", "p99_cyc"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r = results[i];
    table.add_row({stats::Table::num(specs[i].workload.dist_param),
                   driver::tree_display_name(specs[i].tree),
                   stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.aborts_per_op),
                   stats::Table::num(r.instructions_per_op, 0),
                   stats::Table::num(100 * r.wasted_cycle_frac, 1),
                   stats::Table::num(r.lat_p50, 0),
                   stats::Table::num(r.lat_p99, 0)});
  }
  table.print(args.csv);
  bench::emit_artifacts(args, "fig08_throughput", specs, results);
  return 0;
}
