/// \file build.hpp
/// \brief Translating an ADT's structure function into an ROBDD.
///
/// The translation compiles the ADT into one task DAG for the
/// work-stealing scheduler: every apply of every gate's balanced
/// pairwise reduction tree is a task depending only on its two operand
/// tasks, so independent applies run concurrently on the manager's
/// striped tables the moment their inputs exist - no level barriers.
/// The reduction shape is fixed (balanced, left-to-right pairing) for
/// every thread count - including the sequential path, which executes
/// the same task list in creation order - so the set of BDD nodes a
/// build creates is identical no matter how many workers ran it.

#pragma once

#include <vector>

#include "adt/adt.hpp"
#include "bdd/manager.hpp"
#include "bdd/order.hpp"
#include "util/parallel.hpp"

namespace adtp::bdd {

/// Knobs of the ADT -> ROBDD translation.
struct BuildOptions {
  /// Borrowed scheduler for the task-DAG translation (shared with the
  /// propagation phase by core/bdd_bu.cpp); null (default) runs
  /// sequentially on the calling thread. The produced BDD is identical
  /// for every width.
  TaskScheduler* pool = nullptr;

  /// When set, the scheduler counters of the build run are accumulated
  /// here (untouched on the sequential path).
  TaskRunStats* stats = nullptr;
};

/// Builds the BDD of f_T(., ., v) for every node v of \p adt (memoized over
/// the DAG, so shared subtrees are translated once) and returns the per-node
/// roots indexed by NodeId. The manager must have order.num_vars()
/// variables.
[[nodiscard]] std::vector<Ref> build_all(Manager& manager, const Adt& adt,
                                         const VarOrder& order,
                                         const BuildOptions& options = {});

/// Builds the BDD of the root structure function f_T(., ., R_T).
[[nodiscard]] Ref build_structure_function(Manager& manager, const Adt& adt,
                                           const VarOrder& order,
                                           const BuildOptions& options = {});

}  // namespace adtp::bdd
