// Figure 12 (a-d): scalability under the paper's four input distributions at
// high contention, 50/50 get/put:
//   (a) Poisson      — hottest 10% of keys draw ~70% of accesses
//   (b) Normal       — mean N/2, stddev 1% of mean (hot 10% ≈ 67%)
//   (c) Self-Similar — 80-20 rule (hot 10% ≈ 66%)
//   (d) Zipfian      — θ = 0.9
//
// Expected shape: the monolithic baseline collapses after a few threads in
// every distribution (flattest under Normal, whose accesses are densest);
// Euno-B+Tree scales in all four; Masstree trails Euno.
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  if (args.ops_per_thread == 0) spec.ops_per_thread = 1200;
  bench::print_header("Figure 12", "input distributions at high contention",
                      spec);

  static constexpr struct {
    const char* panel;
    workload::DistKind dist;
    double param;
  } kPanels[] = {
      {"(a) poisson", workload::DistKind::kPoisson, 0.70},
      // §5.5 sets the Normal stddev to 1% of the mean over "a moving range
      // of leaf nodes" — i.e. a narrow window, not the whole key range. A
      // 0.02% fraction of our 1M-key mean reproduces that concentration
      // (a ~100-key-wide hot band).
      {"(b) normal", workload::DistKind::kNormal, 0.0002},
      {"(c) selfsimilar", workload::DistKind::kSelfSimilar, 0.2},
      {"(d) zipfian", workload::DistKind::kZipfian, 0.9},
  };

  std::vector<driver::ExperimentSpec> specs;
  std::vector<const char*> panels;
  for (const auto& panel : kPanels) {
    spec.workload.dist = panel.dist;
    spec.workload.dist_param = panel.param;
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
  bench::emit_artifacts(args, "fig12_distributions", specs, results);
  return 0;
}
