/// \file build.hpp
/// \brief Translating an ADT's structure function into an ROBDD.
///
/// The translation walks the ADT once in topological order and folds
/// every AND/OR gate's children in balanced pairwise rounds (adjacent
/// operands, an odd leftover carried into the next round), so a wide
/// gate costs a tree of log2(k) apply levels instead of a k-long chain.
/// The pairing depends only on the child lists, and the build runs on
/// the calling thread, so a given (adt, order) always creates the same
/// nodes with the same indices.

#pragma once

#include <vector>

#include "adt/adt.hpp"
#include "bdd/manager.hpp"
#include "bdd/order.hpp"

namespace adtp::bdd {

/// Builds the BDD of f_T(., ., v) for every node v of \p adt (memoized over
/// the DAG, so shared subtrees are translated once) and returns the per-node
/// roots indexed by NodeId. The manager must have order.num_vars()
/// variables.
[[nodiscard]] std::vector<Ref> build_all(Manager& manager, const Adt& adt,
                                         const VarOrder& order);

/// Builds the BDD of the root structure function f_T(., ., R_T).
[[nodiscard]] Ref build_structure_function(Manager& manager, const Adt& adt,
                                           const VarOrder& order);

}  // namespace adtp::bdd
