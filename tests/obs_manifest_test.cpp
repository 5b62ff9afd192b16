// Tests for the JSON run-manifest emitter and the observability zero-cost
// guarantee: manifests are byte-deterministic across runs, and turning every
// obs channel on must not move a single simulated quantity.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "driver/experiment.hpp"
#include "obs/manifest.hpp"

namespace euno::obs {
namespace {

driver::ExperimentSpec small_spec() {
  driver::ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 4;
  spec.ops_per_thread = 120;
  spec.workload.key_range = 1 << 12;
  spec.workload.dist_param = 0.9;
  spec.workload.scramble = false;
  spec.preload = 1 << 11;
  spec.machine.arena_bytes = 64ull << 20;
  return spec;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string write_manifest_for(const std::string& path,
                               const driver::ExperimentSpec& spec) {
  const auto r = driver::run_sim_experiment(spec);
  const bool ok = write_manifest(path, "obs_manifest_test", &spec, &r, 1);
  EXPECT_TRUE(ok);
  return read_file(path);
}

TEST(Manifest, TwoRunsAreByteIdentical) {
  auto spec = small_spec();
  spec.obs.latency = true;
  spec.obs.contention = true;
  const std::string p1 = ::testing::TempDir() + "/euno_manifest_a.json";
  const std::string p2 = ::testing::TempDir() + "/euno_manifest_b.json";
  const std::string a = write_manifest_for(p1, spec);
  const std::string b = write_manifest_for(p2, spec);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "manifest is not deterministic";
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Manifest, ContainsSchemaSpecAndResultKeys) {
  auto spec = small_spec();
  spec.obs.latency = true;
  spec.obs.contention = true;
  const std::string path = ::testing::TempDir() + "/euno_manifest_keys.json";
  const std::string doc = write_manifest_for(path, spec);
  for (const char* key :
       {"\"schema\":\"euno.run_manifest.v1\"", "\"bench\":\"obs_manifest_test\"",
        "\"sweep\"", "\"spec\"", "\"result\"", "\"tree\":\"Euno-B+Tree\"",
        "\"workload\"", "\"mix\"", "\"policy\"", "\"machine\"",
        "\"throughput_mops\"", "\"aborts_total\"", "\"latency_cycles\"",
        "\"abort_wasted_cycles\"", "\"p50\"", "\"p999\"", "\"buckets\"",
        "\"hot_lines\"", "\"lat_p99\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
  std::remove(path.c_str());
}

TEST(Manifest, HistogramPopulatedWhenLatencyOn) {
  auto spec = small_spec();
  spec.obs.latency = true;
  const auto r = driver::run_sim_experiment(spec);
  EXPECT_EQ(r.op_latency.count(),
            static_cast<std::uint64_t>(spec.threads) * spec.ops_per_thread);
  EXPECT_GT(r.lat_p50, 0.0);
  EXPECT_GE(r.lat_p99, r.lat_p50);
  EXPECT_GE(r.lat_p999, r.lat_p99);
  EXPECT_GE(r.lat_p90, r.lat_p50);
}

TEST(Manifest, HotLinesPopulatedWhenContentionOnUnderConflict) {
  auto spec = small_spec();
  spec.tree = "htm-bptree";  // the collapsing baseline
  spec.threads = 8;
  spec.obs.contention = true;
  const auto r = driver::run_sim_experiment(spec);
  ASSERT_GT(r.aborts_conflict, 0u) << "test needs conflicts to attribute";
  ASSERT_FALSE(r.hot_lines.empty());
  // Sorted by aborts descending; labels resolve through the node registry.
  for (std::size_t i = 1; i < r.hot_lines.size(); ++i) {
    EXPECT_GE(r.hot_lines[i - 1].aborts, r.hot_lines[i].aborts);
  }
  bool any_node = false;
  for (const auto& hl : r.hot_lines) {
    EXPECT_FALSE(hl.kind.empty());
    EXPECT_GT(hl.aborts, 0u);
    if (hl.node_level != kNoLevel) any_node = true;
  }
  EXPECT_TRUE(any_node) << "no hot line resolved to a registered tree node";
}

// The core guarantee the whole subsystem rests on: observability charges
// zero simulated cycles, so every simulated quantity is bit-identical with
// all channels on vs. all off.
TEST(Manifest, ObservabilityDoesNotPerturbSimulation) {
  for (const char* tree : {"euno", "htm-bptree"}) {
    auto off = small_spec();
    off.tree = tree;
    auto on = off;
    on.obs.latency = true;
    on.obs.contention = true;
    on.obs.trace = true;
    const auto r_off = driver::run_sim_experiment(off);
    const auto r_on = driver::run_sim_experiment(on);
    EXPECT_EQ(r_off.sim_cycles, r_on.sim_cycles);
    EXPECT_EQ(r_off.aborts_total, r_on.aborts_total);
    EXPECT_EQ(r_off.attempts, r_on.attempts);
    EXPECT_EQ(r_off.commits, r_on.commits);
    EXPECT_EQ(r_off.fallbacks, r_on.fallbacks);
    EXPECT_EQ(r_off.mem_accesses, r_on.mem_accesses);
    EXPECT_EQ(r_off.mem_total, r_on.mem_total);
  }
}

}  // namespace
}  // namespace euno::obs
