/// \file analyzer.hpp
/// \brief One-call façade over the three Pareto-front algorithms.

#pragma once

#include <cstdint>
#include <string>

#include "core/attribution.hpp"
#include "core/bdd_bu.hpp"
#include "core/bottom_up.hpp"
#include "core/hybrid.hpp"
#include "core/naive.hpp"
#include "core/pareto.hpp"

namespace adtp {

/// Which algorithm analyze() should run.
enum class Algorithm : std::uint8_t {
  Auto,     ///< BottomUp for trees, BddBu for DAGs
  Naive,    ///< Algorithm 2 (exponential; oracle/baseline)
  BottomUp, ///< Algorithm 1 (trees only)
  BddBu,    ///< Algorithm 3
  Hybrid,   ///< modular decomposition extension
};

[[nodiscard]] const char* to_string(Algorithm a) noexcept;

struct AnalysisOptions {
  Algorithm algorithm = Algorithm::Auto;
  NaiveOptions naive;
  BottomUpOptions bottom_up;
  BddBuOptions bdd;
  HybridOptions hybrid;

  /// Worker threads *inside* one analysis. 0 (default) and 1 run the
  /// kernel sequentially; N > 1 makes analyze() build one N-slot
  /// TaskScheduler for the call and lend it to the resolved kernel's
  /// pool (naive.pool, bottom_up.pool, bdd.pool or hybrid.bdd.pool) when
  /// the caller left that pool null. Its workers spawn only if the
  /// kernel clears its work floor. Results are identical for every
  /// value, so the FrontCache key deliberately ignores it. Inside
  /// analyze_batch() the batch scheduler is every item's pool, so the
  /// field has no effect there.
  unsigned intra_model_threads = 0;
};

struct AnalysisResult {
  Front front;
  Algorithm used = Algorithm::Auto;  ///< the algorithm actually executed
  double seconds = 0;                ///< wall-clock analysis time
  /// Per-node memo counters of this run; zero unless a NodeFrontMemo was
  /// threaded into the executed kernel (bottom-up or hybrid).
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};

/// Computes PF(T) with the requested (or automatically selected)
/// algorithm.
[[nodiscard]] AnalysisResult analyze(const AugmentedAdt& aadt,
                                     const AnalysisOptions& options = {});

class NodeFrontMemo;

/// As analyze(), but consulting (and filling) \p memo, the per-node front
/// memo of node_memo.hpp: a model that differs from a previously analyzed
/// one in a single subtree recomputes only the root-ward spine of the
/// edit. Auto resolves to BottomUp for trees and to Hybrid (not BddBu)
/// for DAGs - the hybrid walker is the DAG kernel with a memo path. An
/// explicit Naive/BddBu request runs cold (those kernels have no per-node
/// memo); explicit per-algorithm memo pointers in \p options win over
/// \p memo. Results are bit-identical to analyze() without a memo, at
/// every thread count (docs/CONTRACTS.md).
[[nodiscard]] AnalysisResult analyze_incremental(
    const AugmentedAdt& aadt, NodeFrontMemo& memo,
    const AnalysisOptions& options = {});

}  // namespace adtp
