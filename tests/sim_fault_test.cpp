// HTM fault-injection framework tests: every fault kind fires, is counted,
// and is seed-deterministic — the same spec reproduces bit-identical stats
// and a byte-identical run manifest.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/experiment.hpp"
#include "obs/manifest.hpp"
#include "obs/options.hpp"
#include "trees/registry.hpp"

namespace euno::tests {
namespace {

driver::ExperimentSpec base_spec() {
  driver::ExperimentSpec spec;
  spec.tree = "htm-bptree";
  spec.threads = 4;
  spec.workload.key_range = 1 << 10;
  spec.workload.mix = workload::OpMix{50, 50, 0, 0};
  spec.preload = 256;
  spec.ops_per_thread = 400;
  spec.machine.arena_bytes = 128ull << 20;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---- spurious aborts ----

TEST(SimFault, SpuriousAbortsFireAndAreCounted) {
  auto spec = base_spec();
  spec.machine.fault.spurious_abort_bp = 50;  // 0.5% per transactional access
  const auto r = run_sim_experiment(spec);
  EXPECT_GT(r.faults_spurious, 0u);
  // Spurious aborts surface as kOther (interrupt-like), not as conflicts.
  EXPECT_GT(r.aborts_other, 0u);
  EXPECT_GT(r.commits, 0u);
}

TEST(SimFault, SpuriousCampaignIsSeedDeterministic) {
  auto spec = base_spec();
  spec.machine.fault.spurious_abort_bp = 50;
  const auto a = run_sim_experiment(spec);
  const auto b = run_sim_experiment(spec);
  EXPECT_EQ(driver::first_counter_diff(a, b), "");
  // A different fault seed must draw a different abort pattern (with these
  // access counts a collision would be astronomically unlikely).
  auto spec2 = spec;
  spec2.machine.fault.seed = spec.machine.fault.seed + 1;
  const auto c = run_sim_experiment(spec2);
  EXPECT_NE(a.faults_spurious, c.faults_spurious);
}

TEST(SimFault, FaultRngDoesNotPerturbTheBaseline) {
  // A fault config with zero probabilities must leave the run bit-identical
  // to one with no fault config at all.
  auto spec = base_spec();
  const auto base = run_sim_experiment(spec);
  auto spec2 = base_spec();
  spec2.machine.fault.seed = 12345;  // any() still false
  const auto r = run_sim_experiment(spec2);
  EXPECT_EQ(driver::first_counter_diff(base, r), "");
}

// ---- capacity schedules ----

TEST(SimFault, CapacityShrinkForcesCapacityAborts) {
  auto spec = base_spec();
  // Healthy capacity at first, then the effective read set collapses.
  spec.machine.fault.capacity_schedule = {{20000, 1, 4}};
  const auto r = run_sim_experiment(spec);
  EXPECT_EQ(r.fault_capacity_phases, 1u);
  EXPECT_GT(r.aborts_capacity, 0u);
  EXPECT_GT(r.fallbacks, 0u);  // capacity gives up fast → lock rescues
  EXPECT_GT(r.commits, 0u);

  const auto b = run_sim_experiment(spec);
  EXPECT_EQ(driver::first_counter_diff(r, b), "");
}

TEST(SimFault, CapacityScheduleCanRecover) {
  auto spec = base_spec();
  spec.machine.fault.capacity_schedule = {{10000, 1, 4}, {60000, 512, 4096}};
  const auto r = run_sim_experiment(spec);
  EXPECT_EQ(r.fault_capacity_phases, 2u);
  EXPECT_GT(r.aborts_capacity, 0u);
}

// ---- abort bursts ----

TEST(SimFault, AbortBurstDoomsBegins) {
  auto spec = base_spec();
  spec.machine.fault.bursts = {{5000, 30000, 100}};
  const auto r = run_sim_experiment(spec);
  EXPECT_GT(r.faults_burst, 0u);
  // Burst aborts surface as explicit aborts (payload kFaultInjected), which
  // land in the "other" decomposition bucket.
  EXPECT_GT(r.aborts_other, 0u);
  EXPECT_GT(r.commits, 0u);

  const auto b = run_sim_experiment(spec);
  EXPECT_EQ(driver::first_counter_diff(r, b), "");
}

TEST(SimFault, PartialBurstAbortsFewerThanFullBurst) {
  auto spec = base_spec();
  spec.machine.fault.bursts = {{0, 1u << 30, 100}};
  const auto full = run_sim_experiment(spec);
  auto spec2 = base_spec();
  spec2.machine.fault.bursts = {{0, 1u << 30, 30}};
  const auto partial = run_sim_experiment(spec2);
  EXPECT_GT(full.faults_burst, partial.faults_burst);
  EXPECT_GT(partial.faults_burst, 0u);
  // Under a 100% burst no transaction ever commits under HTM: every commit
  // is a fallback commit.
  EXPECT_GT(full.commits, 0u);
  EXPECT_EQ(full.commits, full.fallbacks);
}

// ---- lock-holder delay ----

TEST(SimFault, LockHolderDelayInflatesWaiting) {
  auto spec = base_spec();
  spec.policy.conflict_retries = 0;  // drive traffic through the fallback lock
  spec.policy.capacity_retries = 0;
  spec.policy.other_retries = 0;
  spec.machine.htm.mutual_abort_pct = 100;
  spec.machine.fault.lock_hold_delay_pct = 100;
  spec.machine.fault.lock_hold_delay_cycles = 2000;
  const auto r = run_sim_experiment(spec);
  EXPECT_GT(r.faults_lock_delay, 0u);
  EXPECT_GT(r.fallbacks, 0u);

  auto no_delay = spec;
  no_delay.machine.fault.lock_hold_delay_pct = 0;
  no_delay.machine.fault.lock_hold_delay_cycles = 0;
  const auto base = run_sim_experiment(no_delay);
  // Held-longer locks stretch the run.
  EXPECT_GT(r.sim_cycles, base.sim_cycles);

  const auto b = run_sim_experiment(spec);
  EXPECT_EQ(driver::first_counter_diff(r, b), "");
}

// The delay scenario only makes sense for trees that can acquire the global
// fallback lock, and caps.has_global_fallback is the registry's word on
// which those are. Sweep every registered tree under a maximally hostile
// config (zero retry budgets, 100% mutual aborts, every lock hold delayed):
// gated-in trees must record delayed holds; gated-out trees must record
// none — a nonzero count there means the capability bit lies about the
// tree's synchronization structure.
TEST(SimFault, LockHolderDelayGatedByGlobalFallbackCap) {
  for (const trees::TreeEntry& e : trees::tree_registry().entries()) {
    auto spec = base_spec();
    spec.tree = e.name;
    spec.policy.conflict_retries = 0;
    spec.policy.capacity_retries = 0;
    spec.policy.other_retries = 0;
    spec.machine.htm.mutual_abort_pct = 100;
    spec.machine.fault.lock_hold_delay_pct = 100;
    spec.machine.fault.lock_hold_delay_cycles = 2000;
    const auto r = run_sim_experiment(spec);
    // Non-HTM trees log no transaction counters at all, so "the scenario
    // ran" is only visible on the simulated clock.
    EXPECT_GT(r.sim_cycles, 0u) << e.name << ": scenario ran no work";
    if (e.caps.has_global_fallback) {
      EXPECT_GT(r.faults_lock_delay, 0u)
          << e.name << ": has_global_fallback set but the hostile campaign "
                       "never delayed a lock holder";
    } else {
      EXPECT_EQ(r.faults_lock_delay, 0u)
          << e.name << ": tree claims no global fallback but acquired the "
                       "fallback lock";
      std::printf("  [gated-out] %s: no global fallback lock, delay "
                  "scenario skipped by caps\n",
                  e.name.c_str());
    }
  }
}

// ---- replayable manifests ----

TEST(SimFault, ManifestIsByteIdenticalAcrossReplays) {
  auto spec = base_spec();
  spec.machine.fault.spurious_abort_bp = 40;
  spec.machine.fault.bursts = {{8000, 20000, 100}};
  spec.machine.fault.capacity_schedule = {{30000, 2, 16}};
  const auto a = run_sim_experiment(spec);
  const auto b = run_sim_experiment(spec);

  const std::string pa = "sim_fault_manifest_a.json";
  const std::string pb = "sim_fault_manifest_b.json";
  ASSERT_TRUE(obs::write_manifest(pa, "sim_fault_test", &spec, &a, 1));
  ASSERT_TRUE(obs::write_manifest(pb, "sim_fault_test", &spec, &b, 1));
  const std::string ca = slurp(pa);
  const std::string cb = slurp(pb);
  ASSERT_FALSE(ca.empty());
  EXPECT_EQ(ca, cb) << "same spec must serialize byte-identically";
  // The manifest records the campaign itself, so the run is replayable from
  // the artifact alone.
  EXPECT_NE(ca.find("\"fault\""), std::string::npos);
  EXPECT_NE(ca.find("\"spurious_abort_bp\":40"), std::string::npos);
  EXPECT_NE(ca.find("\"bursts\""), std::string::npos);
  EXPECT_NE(ca.find("\"capacity_schedule\""), std::string::npos);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

// ---- trace attribution ----

TEST(SimFault, TraceRecordsFaultInstants) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  auto spec = base_spec();
  spec.machine.fault.bursts = {{0, 1u << 30, 100}};
  spec.obs.trace = true;
  const auto r = run_sim_experiment(spec);
  ASSERT_FALSE(r.trace.empty());
  std::uint64_t fault_events = 0;
  for (const auto& ev : r.trace.merged()) {
    if (static_cast<obs::EventCode>(ev.code) == obs::EventCode::kFaultInjected) {
      ++fault_events;
      EXPECT_EQ(static_cast<obs::FaultArg>(ev.arg_a), obs::FaultArg::kBurst);
    }
  }
  EXPECT_GT(fault_events, 0u);
}

}  // namespace
}  // namespace euno::tests
