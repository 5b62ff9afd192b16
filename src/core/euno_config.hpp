// Runtime configuration of Euno-B+Tree, including the feature flags that
// reproduce the Figure 13 ablation ladder.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "htm/policy.hpp"

namespace euno::core {

struct EunoConfig {
  // ---- Figure 13 ablation flags (cumulative ladder) ----
  // Segmentation (+Part Leaf) is a compile-time property (the S template
  // parameter: S=1 gives the consecutive layout, S=4 the partitioned one).
  bool ccm_lockbits = true;   // +CCM lockbits: hashed per-key advisory locks
  bool ccm_markbits = true;   // +CCM markbits: Bloom-filter existence bits
  bool adaptive = false;      // +Adaptive: per-leaf contention bypass

  // ---- tuning ----
  htm::RetryPolicy policy{};
  int sched_retries = 3;        // write-scheduler re-draw attempts (§4.2.2)
  std::uint32_t adapt_window = 32;        // ops per adaptive decision window
  std::uint64_t rebalance_threshold = ~0ull;  // deletes before auto-rebalance

  /// Reject configurations that would misbehave silently (negative retry
  /// budgets, a zero-length adaptive window).
  /// Tree constructors call this, so a bad config fails fast with a clear
  /// message instead of corrupting a run.
  void validate() const {
    policy.validate();
    if (sched_retries < 0) {
      throw std::invalid_argument(
          "EunoConfig: sched_retries must be >= 0 (got " +
          std::to_string(sched_retries) + ")");
    }
    if (adapt_window == 0) {
      throw std::invalid_argument(
          "EunoConfig: adapt_window must be nonzero (a zero-op adaptive "
          "decision window can never fire)");
    }
  }

  /// Ladder presets (Baseline is the plain HtmBPTree).
  static EunoConfig split_only() {
    EunoConfig c;
    c.ccm_lockbits = false;
    c.ccm_markbits = false;
    c.adaptive = false;
    return c;
  }
  static EunoConfig with_lockbits() {
    EunoConfig c = split_only();
    c.ccm_lockbits = true;
    return c;
  }
  static EunoConfig with_markbits() {
    EunoConfig c = with_lockbits();
    c.ccm_markbits = true;
    return c;
  }
  static EunoConfig full() {
    EunoConfig c = with_markbits();
    c.adaptive = true;
    return c;
  }
};

}  // namespace euno::core
