/// \file workloads.hpp
/// \brief The three benchmark workloads. Each builds its inputs from
///        Config::seed, measures for Config::seconds, checks every output
///        against an independent path, and reports its metrics.
///
/// With Config::trace set, a run measures half its time untraced and half
/// traced: spans go around the calls into each layer's public functions
/// (or, where a layer runs inside another one, around a replay of that
/// layer's public call on the same input), and the difference between
/// the two halves is the tracing overhead.

#pragma once

#include "bench.hpp"

namespace perfbench {

/// analyze() with default options, one random DAG (paper recipe) or
/// counter-countered model at a time, single-threaded.
[[nodiscard]] Outcome run_dag_cold(const Config& config);

/// Repeated analyze_batch() calls at the default width over mixes of
/// small random trees, Fig. 4 staircases and Fig. 4 forests.
[[nodiscard]] Outcome run_tree_batch(const Config& config);

/// An in-process DaemonServer on a Unix socket driven by closed-loop
/// clients: Zipf reads of a hot set plus a share of never-seen models.
[[nodiscard]] Outcome run_serve_mix(const Config& config);

/// Runs \p setup \p repeats times (each run rebuilds the workload's
/// inputs from scratch) and returns the median seconds.
template <typename Fn>
double timed_setup(int repeats, Fn&& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  return quantile(seconds, 0.5);
}

}  // namespace perfbench
