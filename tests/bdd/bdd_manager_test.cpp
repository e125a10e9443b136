#include "bdd/manager.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "adt/structure.hpp"
#include "bdd/build.hpp"
#include "bdd/order.hpp"
#include "gen/random_adt.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace adtp::bdd {
namespace {

TEST(BddManager, TerminalsPreallocated) {
  Manager m(3);
  EXPECT_EQ(m.num_nodes(), 2u);
  EXPECT_TRUE(m.is_terminal(kFalse));
  EXPECT_TRUE(m.is_terminal(kTrue));
  EXPECT_THROW((void)m.var(kTrue), ModelError);
  EXPECT_THROW((void)m.low(kFalse), ModelError);
}

TEST(BddManager, MkReductionRules) {
  Manager m(3);
  // Rule 2: identical children collapse.
  EXPECT_EQ(m.mk(0, kTrue, kTrue), kTrue);
  EXPECT_EQ(m.mk(1, kFalse, kFalse), kFalse);
  // Rule 1: structural sharing.
  const Ref a = m.mk(0, kFalse, kTrue);
  const Ref b = m.mk(0, kFalse, kTrue);
  EXPECT_EQ(a, b);
  EXPECT_GT(m.stats().unique_hits, 0u);
}

TEST(BddManager, MkValidatesInputs) {
  Manager m(2);
  EXPECT_THROW((void)m.mk(5, kFalse, kTrue), ModelError);   // var range
  EXPECT_THROW((void)m.mk(0, 99, kTrue), ModelError);       // child range
  const Ref v1 = m.make_var(1);
  EXPECT_THROW((void)m.mk(1, v1, kTrue), ModelError);  // order violation
}

TEST(BddManager, VarAndNvar) {
  Manager m(2);
  const Ref v = m.make_var(0);
  const Ref nv = m.make_nvar(0);
  EXPECT_EQ(m.low(v), kFalse);
  EXPECT_EQ(m.high(v), kTrue);
  EXPECT_EQ(m.low(nv), kTrue);
  EXPECT_EQ(m.high(nv), kFalse);
  EXPECT_EQ(m.apply_not(v), nv);
}

TEST(BddManager, BasicBooleanIdentities) {
  Manager m(2);
  const Ref x = m.make_var(0);
  const Ref y = m.make_var(1);
  EXPECT_EQ(m.apply_and(x, kTrue), x);
  EXPECT_EQ(m.apply_and(x, kFalse), kFalse);
  EXPECT_EQ(m.apply_or(x, kFalse), x);
  EXPECT_EQ(m.apply_or(x, kTrue), kTrue);
  EXPECT_EQ(m.apply_and(x, x), x);
  EXPECT_EQ(m.apply_or(x, x), x);
  EXPECT_EQ(m.apply_xor(x, x), kFalse);
  EXPECT_EQ(m.apply_not(m.apply_not(x)), x);
  // De Morgan.
  EXPECT_EQ(m.apply_not(m.apply_and(x, y)),
            m.apply_or(m.apply_not(x), m.apply_not(y)));
  // x XOR y = (x AND NOT y) OR (NOT x AND y).
  EXPECT_EQ(m.apply_xor(x, y),
            m.apply_or(m.apply_and(x, m.apply_not(y)),
                       m.apply_and(m.apply_not(x), y)));
}

TEST(BddManager, IteMatchesDefinition) {
  Manager m(3);
  const Ref f = m.make_var(0);
  const Ref g = m.make_var(1);
  const Ref h = m.make_var(2);
  const Ref ite = m.ite(f, g, h);
  for (bool bf : {false, true}) {
    for (bool bg : {false, true}) {
      for (bool bh : {false, true}) {
        EXPECT_EQ(m.evaluate(ite, {bf, bg, bh}), bf ? bg : bh);
      }
    }
  }
}

TEST(BddManager, EvaluateRequiresFullAssignment) {
  Manager m(2);
  const Ref x = m.make_var(0);
  EXPECT_THROW((void)m.evaluate(x, {true}), ModelError);
}

TEST(BddManager, RestrictCofactors) {
  Manager m(2);
  const Ref x = m.make_var(0);
  const Ref y = m.make_var(1);
  const Ref f = m.apply_and(x, y);
  EXPECT_EQ(m.restrict_var(f, 0, true), y);
  EXPECT_EQ(m.restrict_var(f, 0, false), kFalse);
  EXPECT_EQ(m.restrict_var(f, 1, true), x);
  // Restricting an absent variable is a no-op.
  EXPECT_EQ(m.restrict_var(y, 0, true), y);
}

TEST(BddManager, SatCountSmall) {
  Manager m(3);
  const Ref x = m.make_var(0);
  const Ref y = m.make_var(1);
  const Ref z = m.make_var(2);
  EXPECT_EQ(m.sat_count(kTrue), 8);
  EXPECT_EQ(m.sat_count(kFalse), 0);
  EXPECT_EQ(m.sat_count(x), 4);
  EXPECT_EQ(m.sat_count(m.apply_and(x, y)), 2);
  EXPECT_EQ(m.sat_count(m.apply_or(m.apply_and(x, y), z)), 5);
}

TEST(BddManager, SizeCountsReachable) {
  Manager m(2);
  const Ref x = m.make_var(0);
  const Ref y = m.make_var(1);
  EXPECT_EQ(m.size(kTrue), 1u);
  EXPECT_EQ(m.size(x), 3u);             // x + both terminals
  EXPECT_EQ(m.size(m.apply_and(x, y)), 4u);
}

TEST(BddManager, ReachableAscendingAndTopological) {
  Manager m(4);
  Ref f = kTrue;
  for (std::uint32_t v = 0; v < 4; ++v) {
    f = m.apply_and(f, m.make_var(v));
  }
  const auto nodes = m.reachable(f);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LT(nodes[i - 1], nodes[i]);
  }
  for (Ref r : nodes) {
    if (m.is_terminal(r)) continue;
    EXPECT_LT(m.low(r), r);
    EXPECT_LT(m.high(r), r);
  }
}

TEST(BddManager, NodeLimitEnforced) {
  Manager m(20, /*node_limit=*/8);
  Ref f = kFalse;
  EXPECT_THROW(
      {
        // Parity function: BDD is linear but each apply allocates; the
        // tiny limit must trip.
        for (std::uint32_t v = 0; v < 20; ++v) {
          f = m.apply_xor(f, m.make_var(v));
        }
      },
      LimitError);
}

TEST(BddManager, ApplyAgainstTruthTableRandomized) {
  // Random 6-variable expressions; compare BDD evaluation with direct
  // formula evaluation on all 64 assignments.
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    Manager m(6);
    // Build a random expression tree over the 6 variables.
    std::vector<Ref> pool;
    for (std::uint32_t v = 0; v < 6; ++v) pool.push_back(m.make_var(v));
    for (int step = 0; step < 12; ++step) {
      const Ref a = pool[rng.below(pool.size())];
      const Ref b = pool[rng.below(pool.size())];
      switch (rng.below(4)) {
        case 0:
          pool.push_back(m.apply_and(a, b));
          break;
        case 1:
          pool.push_back(m.apply_or(a, b));
          break;
        case 2:
          pool.push_back(m.apply_xor(a, b));
          break;
        default:
          pool.push_back(m.apply_not(a));
          break;
      }
    }
    const Ref f = pool.back();

    // Reference: evaluate the same function via Shannon cofactoring with
    // restrict (independent code path).
    for (std::uint32_t assignment = 0; assignment < 64; ++assignment) {
      std::vector<bool> bits(6);
      for (std::uint32_t v = 0; v < 6; ++v) {
        bits[v] = ((assignment >> v) & 1u) != 0;
      }
      Ref g = f;
      for (std::uint32_t v = 0; v < 6; ++v) {
        g = m.restrict_var(g, v, bits[v]);
      }
      ASSERT_TRUE(m.is_terminal(g));
      EXPECT_EQ(m.evaluate(f, bits), g == kTrue);
    }
  }
}

TEST(BddManager, CacheStatisticsMove) {
  Manager m(8);
  const Ref x = m.make_var(3);
  const Ref y = m.make_var(5);
  (void)m.apply_and(x, y);
  const auto misses = m.stats().cache_misses;
  (void)m.apply_and(y, x);  // commutative normalization -> cache hit
  EXPECT_GT(m.stats().cache_hits, 0u);
  EXPECT_EQ(m.stats().cache_misses, misses);
}

/// Unique-table and computed-cache operations so far (lookups that hit
/// plus new nodes, cache hits plus misses).
std::size_t table_ops(const Manager& m) {
  const ManagerStats s = m.stats();
  return s.num_nodes + s.unique_hits + s.cache_hits + s.cache_misses;
}

TEST(BddManager, RestrictIsLinearInNodesNotPaths) {
  // Parity of n variables: 2 nodes per level but 2^(n-1) root-to-terminal
  // paths. Restricting the last variable costs a few table operations
  // per node when restrict is memoized; a path walk would do ~2^n mk()
  // calls (and at 48 variables never finish).
  for (const std::uint32_t num_vars : {20u, 48u}) {
    Manager m(num_vars);
    Ref parity = kFalse;
    Ref parity_but_last = kFalse;
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      if (v + 1 == num_vars) parity_but_last = parity;
      parity = m.apply_xor(parity, m.make_var(v));
    }
    const std::size_t nodes = m.size(parity);
    const std::size_t ops = table_ops(m);
    const Ref low = m.restrict_var(parity, num_vars - 1, false);
    const Ref high = m.restrict_var(parity, num_vars - 1, true);
    ASSERT_LE(table_ops(m) - ops, 8 * nodes) << num_vars << " variables";
    EXPECT_EQ(low, parity_but_last);
    EXPECT_EQ(high, m.apply_not(parity_but_last));

    // Truth table spot checks against the XOR of the assignment.
    Rng rng(num_vars);
    for (int trial = 0; trial < 256; ++trial) {
      std::vector<bool> bits(num_vars);
      bool expected_low = false;
      for (std::uint32_t v = 0; v < num_vars; ++v) {
        bits[v] = rng.below(2) != 0;
        if (v + 1 < num_vars) expected_low = expected_low != bits[v];
      }
      EXPECT_EQ(m.evaluate(low, bits), expected_low);
      EXPECT_EQ(m.evaluate(high, bits), !expected_low);
    }
  }
}

TEST(BddManager, EvictedApplyRecomputesIntoExistingNodes) {
  // OR over i of (x_i AND x_{n+i}) under the order x_0..x_{2n-1} has
  // ~2^(n+1) nodes, and folding it in creates far more computed-cache
  // entries than the bounded cache keeps.
  constexpr std::uint32_t kPairs = 14;
  Manager m(2 * kPairs);
  struct Step {
    Ref acc;
    Ref term;
    Ref result;
  };
  std::vector<Step> steps;
  Ref acc = kFalse;
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    const Ref term = m.apply_and(m.make_var(i), m.make_var(kPairs + i));
    const Ref next = m.apply_or(acc, term);
    steps.push_back({acc, term, next});
    acc = next;
  }
  const std::size_t nodes = m.num_nodes();
  const std::size_t misses = m.stats().cache_misses;
  for (const Step& s : steps) {
    EXPECT_EQ(m.apply_or(s.acc, s.term), s.result);
  }
  EXPECT_GT(m.stats().cache_misses, misses)
      << "the replay should have recomputed evicted applies";
  EXPECT_EQ(m.num_nodes(), nodes);
  EXPECT_NEAR(m.sat_count(acc),
              std::pow(2.0, 2 * kPairs) - std::pow(3.0, kPairs), 1.0);
}

TEST(BddManager, BuildMatchesEvaluationAcrossTableGrowth) {
  // Paper-recipe DAGs whose builds allocate 35k..57k nodes: the unique
  // table doubles about ten times from its first 64-slot array. Through
  // all of them no key may be allocated twice, and every node's BDD must
  // still be its structure function.
  for (const std::uint64_t seed : {7, 18, 28, 30}) {
    RandomAdtOptions gen;
    gen.target_nodes = 300;
    gen.share_probability = 0.2;
    gen.max_defenses = 16;
    const Adt adt = generate_random_adt(gen, seed);
    const VarOrder order = VarOrder::defense_first(adt);

    Manager manager(order.num_vars());
    const std::vector<Ref> roots = build_all(manager, adt, order);
    ASSERT_GE(manager.num_nodes(), std::size_t{1} << 15) << "seed " << seed;

    // Both reduction rules held through every doubling: a key the table
    // lost would have been allocated a second time.
    std::set<std::tuple<std::uint32_t, Ref, Ref>> keys;
    for (Ref r = kTrue + 1; r < manager.num_nodes(); ++r) {
      ASSERT_NE(manager.low(r), manager.high(r));
      ASSERT_TRUE(
          keys.emplace(manager.var(r), manager.low(r), manager.high(r)).second)
          << "seed " << seed << ": node " << r << " duplicates a key";
    }

    Rng rng(seed);
    for (int trial = 0; trial < 256; ++trial) {
      std::vector<bool> bits(order.num_vars());
      BitVec defense(adt.num_defenses());
      BitVec attack(adt.num_attacks());
      for (std::uint32_t v = 0; v < bits.size(); ++v) {
        bits[v] = rng.below(2) != 0;
        const NodeId leaf = order.node_of(v);
        if (order.is_defense_var(v)) {
          defense.set(adt.defense_index(leaf), bits[v]);
        } else {
          attack.set(adt.attack_index(leaf), bits[v]);
        }
      }
      const std::vector<char> expected = evaluate_all(adt, defense, attack);
      for (NodeId v = 0; v < adt.size(); ++v) {
        ASSERT_EQ(manager.evaluate(roots[v], bits), expected[v] != 0)
            << "seed " << seed << " trial " << trial << " node " << v;
      }
    }
  }
}

}  // namespace
}  // namespace adtp::bdd
