/// \file hybrid.hpp
/// \brief Modular hybrid analyzer (the paper's future-work extension).
///
/// Combines the strengths of the two exact algorithms: wherever the ADT is
/// locally tree-shaped the cheap Bottom-Up combination of child fronts is
/// used (sound because each child is an independent module, so Lemma 1's
/// disjointness argument applies); wherever sharing is confined inside a
/// sub-DAG, that whole "blob" is analyzed with BDDBU and its front is
/// treated as a leaf front. On a tree this degenerates to Algorithm 1, on
/// a fully entangled DAG to Algorithm 3; in between it analyzes each shared
/// region with a *smaller* BDD than the global one.

#pragma once

#include "core/attribution.hpp"
#include "core/bdd_bu.hpp"
#include "core/pareto.hpp"

namespace adtp {

class NodeFrontMemo;
struct NodeMemoStats;

struct HybridOptions {
  /// Options forwarded to the per-blob BDDBU runs.
  BddBuOptions bdd;

  /// Optional per-node front memo (node_memo.hpp): gate and blob fronts
  /// found under their subtree content key are replayed instead of
  /// recomputed, so an edited DAG re-analyzes only the dirty spine.
  /// Replayed fronts are bit-identical to a cold run by construction
  /// (docs/CONTRACTS.md), so this knob never enters the FrontCache key.
  /// Models with Custom domains bypass it.
  NodeFrontMemo* memo = nullptr;

  /// When set (and \p memo is active), receives this run's memo
  /// hit/miss counts.
  NodeMemoStats* memo_stats = nullptr;
};

/// Diagnostics of a hybrid run.
struct HybridReport {
  Front front;
  std::size_t blob_count = 0;      ///< sub-DAGs handed to BDDBU
  std::size_t largest_blob = 0;    ///< node count of the largest such blob
  std::size_t tree_combines = 0;   ///< gates combined tree-style
  /// Front-operation counters of the whole hybrid walk: tree-style
  /// combines plus every per-blob BDDBU run's merges (the blob reports
  /// are folded in, whichever arenas the blobs used).
  CombineStats combine_stats;
  // Parallelism counters aggregated over the per-blob BDDBU runs (the
  // blobs share options.bdd.pool; the tree-style walk itself is
  // sequential).
  unsigned bdd_threads_used = 1;       ///< max workers any blob ran with
  std::size_t bdd_max_level_width = 0; ///< widest BDD level of any blob
  TaskRunStats bdd_sched;              ///< summed blob task-DAG counters
  std::uint64_t memo_hits = 0;    ///< node fronts replayed from the memo
  std::uint64_t memo_misses = 0;  ///< node fronts computed (memo active)
};

/// Computes the Pareto front of an arbitrary ADT by modular decomposition.
[[nodiscard]] Front hybrid_front(const AugmentedAdt& aadt,
                                 const HybridOptions& options = {});

/// As hybrid_front(), with diagnostics.
[[nodiscard]] HybridReport hybrid_analyze(const AugmentedAdt& aadt,
                                          const HybridOptions& options = {});

}  // namespace adtp
