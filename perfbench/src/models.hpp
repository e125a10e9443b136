/// \file models.hpp
/// \brief Seeded input generators of the benchmark workloads.

#pragma once

#include <cstddef>
#include <cstdint>

#include "core/attribution.hpp"

namespace perfbench {

/// Independent seed number \p index of stream \p stream under the run
/// seed (splitmix64 of the three), so workloads never share draws.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index);

/// The counter-countered attack-defense family of the wwidel/pareto-tests
/// factories: ANDp over m attacker ORs of two leaves each, every leaf b_j
/// countered by a defense d_j that is itself countered by an attack c_j,
/// i.e. INH(b_j | INH(d_j | c_j)). Leaf labels follow the factory: while
/// the next label is below k it advances by one, so consecutive ORs
/// share a leaf (and its counter chain) and k >= 2 makes the model a DAG.
/// Costs are drawn from \p seed (min-cost domains).
[[nodiscard]] adtp::AugmentedAdt counter_countered(int m, int k,
                                                   std::uint64_t seed);

/// The Fig. 4 forest of the bottom-up scaling bench: an attacker AND over
/// \p blocks blocks, each two Fig. 4 staircases of depth \p n under a
/// defender AND, carried through an INH into an attacker OR with a flat
/// bypass of weight 2^(n-4).
[[nodiscard]] adtp::AugmentedAdt fig4_forest(std::size_t blocks,
                                             std::size_t n);

}  // namespace perfbench
