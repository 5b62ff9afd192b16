// Parallel sweep runner.
//
// Every paper figure is a sweep of dozens of independent (workload x threads
// x tree) cells; each cell is one self-contained Simulation. This runner
// fans those cells across a pool of OS worker threads — one experiment runs
// entirely on one worker thread at a time — and returns results in spec
// order, bit-identical to running the sequential loop.
//
// The invariant that makes this safe: one Simulation = one OS thread, zero
// shared mutable state. A Simulation owns its arena, shadow line states, HTM
// descriptors and fibers; the only process-global mutable state the sim path
// touches is sim::current_simulation() (thread_local) and MemStats::instance()
// (redirected per worker thread via MemStats::ScopedSink). The zeta cache in
// workload/distributions.cpp is mutex-guarded and value-deterministic, so
// concurrent access cannot change any experiment's numbers.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "driver/experiment.hpp"

namespace euno::driver {

/// Generic indexed fan-out: body(i) for every i in [0, n), spread across
/// `jobs` OS worker threads with atomic-ticket work stealing (items differ
/// wildly in cost, so static slicing would idle workers). Each worker gets a
/// private MemStats sink, preserving the one-Simulation-per-OS-thread
/// invariant documented above. jobs <= 1 runs the plain sequential loop on
/// the calling thread — no pool, no sink redirection. `body` must be safe to
/// call concurrently for distinct i (distinct result slots, no shared
/// mutable state).
void parallel_for_each(std::size_t n, int jobs,
                       const std::function<void(std::size_t)>& body);

/// Runs `specs` across `jobs` OS worker threads (jobs <= 1: strictly
/// sequential on the calling thread, no pool, no sink redirection — the
/// exact pre-existing code path). Results are returned in spec order and are
/// bit-identical to a sequential `run_sim_experiment` loop regardless of
/// `jobs`.
std::vector<ExperimentResult> run_sim_experiments(
    std::span<const ExperimentSpec> specs, int jobs = 1);

/// Host parallelism to use when the caller just says "parallel":
/// hardware_concurrency clamped to [1, cap].
int default_jobs(int cap = 64);

}  // namespace euno::driver
