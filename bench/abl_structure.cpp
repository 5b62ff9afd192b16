// Structural ablations of Euno-B+Tree beyond the paper's Figure 13 ladder:
//   (a) segment count S (1/2/4/8 at fixed fanout) — how much scattering is
//       enough, and what it costs when contention is low;
//   (b) the write scheduler's retry threshold (Algorithm 3's `threshold`);
//   (c) the adaptive detector's window and trigger threshold.
#include <memory>

#include "ctx/sim_ctx.hpp"
#include "fig_common.hpp"
#include "trees/trees.hpp"

using namespace euno;

namespace {

template <int S>
driver::ExperimentResult run_euno(const driver::ExperimentSpec& spec,
                                  const core::EunoConfig& cfg) {
  using Tree = trees::EunoBPTree<ctx::SimCtx, 16, S>;
  return driver::run_sim_experiment(spec, [&cfg](ctx::SimCtx& c) {
    return std::make_unique<trees::AnyTreeOf<ctx::SimCtx, Tree>>(
        c, [&cfg](ctx::SimCtx& s) { return Tree(s, cfg); });
  });
}

driver::ExperimentResult run_for_segments(int s,
                                          const driver::ExperimentSpec& spec,
                                          const core::EunoConfig& cfg) {
  switch (s) {
    case 1: return run_euno<1>(spec, cfg);
    case 2: return run_euno<2>(spec, cfg);
    case 4: return run_euno<4>(spec, cfg);
    case 8: return run_euno<8>(spec, cfg);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  bench::restrict_tree_selection(
      args, {"euno"},
      "this bench ablates Euno-B+Tree internals (S, scheduler, adaptive)");
  auto spec = bench::figure_spec(args);
  if (args.ops_per_thread == 0) spec.ops_per_thread = 1500;

  bench::print_header("Structure ablation", "Euno parameters beyond Figure 13",
                      spec);
  stats::Table table(
      {"knob", "value", "theta", "throughput_mops", "aborts_per_op"});

  for (double theta : {0.2, 0.9}) {
    spec.workload.dist_param = theta;
    for (int s : args.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8}) {
      const auto r = run_for_segments(s, spec, core::EunoConfig::with_markbits());
      table.add_row({"segments", std::to_string(s), stats::Table::num(theta),
                     stats::Table::num(r.throughput_mops),
                     stats::Table::num(r.aborts_per_op)});
    }
  }

  spec.workload.dist_param = 0.9;
  for (int retries : args.quick ? std::vector<int>{3} : std::vector<int>{0, 1, 3, 7}) {
    auto cfg = core::EunoConfig::with_markbits();
    cfg.sched_retries = retries;
    const auto r = run_for_segments(4, spec, cfg);
    table.add_row({"sched_retries", std::to_string(retries), "0.90",
                   stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.aborts_per_op)});
  }

  for (std::uint32_t window :
       args.quick ? std::vector<std::uint32_t>{32}
                  : std::vector<std::uint32_t>{8, 32, 128}) {
    auto cfg = core::EunoConfig::full();
    cfg.adapt_window = window;
    const auto r = run_for_segments(4, spec, cfg);
    table.add_row({"adapt_window", std::to_string(window), "0.90",
                   stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.aborts_per_op)});
  }

  table.print(args.csv);
  return 0;
}
