// Figure 11 (a-d): scalability under four get/put ratios at high contention
// (Zipfian θ = 0.9): 0/100, 20/80, 50/50, 70/30.
//
// Expected shape: Euno-B+Tree scales near-linearly at every ratio, with the
// biggest advantage at 100% puts; Masstree scales but stays below Euno;
// the HTM baselines suffer most as the put share grows.
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  if (args.ops_per_thread == 0) spec.ops_per_thread = 1200;
  spec.workload.dist_param = 0.9;
  bench::print_header("Figure 11", "get/put ratios at theta=0.9", spec);

  static constexpr struct {
    const char* panel;
    int get_pct;
  } kPanels[] = {{"(a) 0/100", 0}, {"(b) 20/80", 20}, {"(c) 50/50", 50},
                 {"(d) 70/30", 70}};

  std::vector<driver::ExperimentSpec> specs;
  std::vector<const char*> panels;
  for (const auto& panel : kPanels) {
    spec.workload.mix.get_pct = panel.get_pct;
    spec.workload.mix.put_pct = 100 - panel.get_pct;
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

  stats::Table table(
      {"panel", "threads", "tree", "throughput_mops", "aborts_per_op",
       "p50_cyc", "p99_cyc"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r = results[i];
    table.add_row({panels[i],
                   stats::Table::num(static_cast<std::uint64_t>(specs[i].threads)),
                   driver::tree_display_name(specs[i].tree),
                   stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.aborts_per_op),
                   stats::Table::num(r.lat_p50, 0),
                   stats::Table::num(r.lat_p99, 0)});
  }
  table.print(args.csv);
  bench::emit_artifacts(args, "fig11_getput_ratio", specs, results);
  return 0;
}
