// Figure 10 (a-d): scalability with thread count under four contention
// levels: θ = 0.2 (low), 0.6 (modest), 0.9 (high), 0.99 (extremely high).
//
// Expected shapes: at low contention every tree scales; at modest contention
// the monolithic baseline stops scaling after a few threads; at high and
// extreme contention the baseline and HTM-Masstree collapse while
// Euno-B+Tree keeps scaling and Masstree stays stable.
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  if (args.ops_per_thread == 0) spec.ops_per_thread = 1200;
  bench::print_header("Figure 10", "scalability under four contention levels",
                      spec);

  static constexpr struct {
    const char* panel;
    double theta;
  } kPanels[] = {{"(a) low", 0.2},
                 {"(b) modest", 0.6},
                 {"(c) high", 0.9},
                 {"(d) extreme", 0.99}};

  std::vector<driver::ExperimentSpec> specs;
  std::vector<const char*> panels;
  for (const auto& panel : kPanels) {
    spec.workload.dist_param = panel.theta;
    for (int threads : bench::thread_sweep(args.quick)) {
      spec.threads = threads;
      for (const auto& slug : bench::figure_trees(args)) {
        spec.tree = slug;
        specs.push_back(spec);
        panels.push_back(panel.panel);
      }
    }
  }
  const auto results = bench::run_figure_sweep(specs, args);

  stats::Table table(bench::with_latency_columns(
      args, {"panel", "theta", "threads", "tree", "throughput_mops",
             "aborts_per_op"}));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r = results[i];
    table.add_row({panels[i], stats::Table::num(specs[i].workload.dist_param),
                   stats::Table::num(static_cast<std::uint64_t>(specs[i].threads)),
                   driver::tree_display_name(specs[i].tree),
                   stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.aborts_per_op),
                   stats::Table::num(r.lat_p50, 0),
                   stats::Table::num(r.lat_p99, 0)});
  }
  table.print(args.csv);
  bench::emit_artifacts(args, "fig10_scalability", specs, results);
  return 0;
}
