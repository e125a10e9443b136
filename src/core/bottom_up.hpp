/// \file bottom_up.hpp
/// \brief The Bottom-Up Pareto-front algorithm for tree-shaped ADTs
///        (Algorithm 1, Table II; correct by Theorem 1).
///
/// Each node propagates a Pareto front of (defender value, attacker value)
/// pairs. At an attack-rooted subtree a pair (s, t) reads "if the defender
/// spends s inside this subtree, the attacker's cheapest way to make the
/// subtree succeed costs t"; at a defense-rooted subtree t is the
/// attacker's cheapest way to *defeat* the subtree. Leaves:
///   BAS a:  {(1_tensor_D, beta_A(a))}
///   BDS d:  {(1_tensor_D, 1_tensor_A), (beta_D(d), 1_oplus_A)}
/// Gates combine children's fronts with (tensor_D, op_A) where op_A follows
/// Table II, pruning dominated points after every combination (Lemma 2).
///
/// Intra-model parallelism: sibling subtrees of a tree are independent,
/// so the walk compiles into a task DAG - one task per node, edges gate
/// -> child - for the work-stealing TaskScheduler (util/parallel.hpp).
/// Every gate folds its children's fronts left to right exactly like the
/// sequential walk (the fold shape is fixed; arenas are scratch), so
/// fronts and witnesses are bit-identical for every thread count and the
/// pool pointer stays out of the FrontCache key (docs/CONTRACTS.md).

#pragma once

#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

class NodeFrontMemo;
struct NodeMemoStats;

/// Table II: the attacker-coordinate operator for a gate of type \p gate
/// owned by \p agent. The defender coordinate always uses tensor_D.
[[nodiscard]] AttackOp attack_op(GateType gate, Agent agent);

struct BottomUpOptions {
  /// Aborts with LimitError when any intermediate front exceeds this many
  /// points (fronts are worst-case exponential, Fig. 4). 0 = unlimited.
  std::size_t max_front_points = 0;

  /// Optional wall-clock guard, checked once per gate; throws LimitError.
  const Deadline* deadline = nullptr;

  /// Optional cooperative cancellation, checked once per gate; throws
  /// CancelledError. analyze_batch() injects its batch-wide token here.
  const CancelToken* cancel = nullptr;

  /// Optional external combine scratch space, reused across analyses (the
  /// sequential value-front path only; parallel runs and witness runs
  /// keep private per-slot arenas). Not thread-safe: at most one analysis
  /// may use an arena at a time. analyze_batch() hands each worker thread
  /// its own persistent arena so buffer recycling spans the whole batch.
  FrontArena<ValuePoint>* arena = nullptr;

  /// Trees smaller than this many nodes always take the sequential walk
  /// even when \p pool offers more than one slot - the per-node task
  /// bookkeeping costs more than a small tree's whole analysis. Tests
  /// set 0 to force the parallel path on tiny models.
  std::size_t parallel_node_floor = 64;

  /// Borrowed scheduler for the sibling-subtree task DAG; null (default)
  /// runs the plain sequential walk. Fronts and witnesses are
  /// bit-identical for every width (see the file comment), so - like
  /// \p arena - the pointer never enters the FrontCache key. analyze()
  /// and analyze_batch() set it.
  TaskScheduler* pool = nullptr;

  /// Optional per-node front memo (node_memo.hpp): gate fronts found
  /// under their subtree content key are replayed instead of recomputed,
  /// so a one-node edit re-analyzes only the root-ward dirty spine.
  /// Memoized fronts are bit-identical to a cold run by construction
  /// (docs/CONTRACTS.md), so this knob - like pool - never
  /// enters the FrontCache key. Models with Custom domains bypass it.
  /// analyze_incremental() and analyze_batch()'s shared-memo mode set it.
  NodeFrontMemo* memo = nullptr;

  /// When set (and \p memo is active), receives this run's gate-level
  /// memo hit/miss counts.
  NodeMemoStats* memo_stats = nullptr;
};

/// Diagnostics of a Bottom-Up run, for benches and reports.
struct BottomUpReport {
  Front front;
  std::size_t max_front_size = 0;  ///< largest intermediate front
  /// Combine-path counters for this run (which merges took the sort-free
  /// k-way path, and how many product points they examined), summed
  /// across every slot arena of a parallel run.
  CombineStats combine_stats;
  double seconds = 0;  ///< wall-clock of the propagation
  unsigned threads_used = 1;  ///< scheduler slots serving the walk
  TaskRunStats sched;         ///< task-DAG counters (zero when sequential)
  std::uint64_t memo_hits = 0;    ///< gate fronts replayed from the memo
  std::uint64_t memo_misses = 0;  ///< gate fronts computed (memo active)
};

/// Algorithm 1 at the root. Requires aadt.adt().is_tree(); throws
/// ModelError otherwise (use bdd_bu_front() or unfold_to_tree()).
[[nodiscard]] Front bottom_up_front(const AugmentedAdt& aadt,
                                    const BottomUpOptions& options = {});

/// As bottom_up_front(), returning combine-path diagnostics alongside the
/// front.
[[nodiscard]] BottomUpReport bottom_up_analyze(
    const AugmentedAdt& aadt, const BottomUpOptions& options = {});

/// As bottom_up_front(), with witness events attached to every point.
[[nodiscard]] WitnessFront bottom_up_front_witness(
    const AugmentedAdt& aadt, const BottomUpOptions& options = {});

/// Runs Algorithm 1 and returns the intermediate front of *every* node,
/// indexed by NodeId (the red per-node annotations of the paper's Fig. 7).
[[nodiscard]] std::vector<Front> bottom_up_all_fronts(
    const AugmentedAdt& aadt, const BottomUpOptions& options = {});

}  // namespace adtp
