/// NodeFrontMemo is keyed on subtree *content*: identical subtrees in
/// independently built models must share entries, a one-leaf edit must
/// invalidate exactly the root-ward spine, and a memoized re-analysis
/// must be bit-identical to a cold one - fronts and witnesses, at every
/// thread count. The LRU bound, the stats counters, and the
/// FrontCache-key neutrality of the memo knobs are part of the contract
/// (docs/CONTRACTS.md, "Incremental equals cold").

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/analyzer.hpp"
#include "core/front_cache.hpp"
#include "core/node_memo.hpp"
#include "gen/catalog.hpp"
#include "util/parallel.hpp"

namespace adtp {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/// fig4 with one leaf's attribute value changed.
AugmentedAdt with_tweaked_leaf(const AugmentedAdt& base, const char* leaf,
                               double value) {
  Attribution attribution = base.attribution();
  attribution.set(leaf, value);
  return AugmentedAdt(base.adt(), attribution, base.defender_domain(),
                      base.attacker_domain());
}

TEST(SubtreeHashes, IdenticalContentHashesEqualAcrossBuilds) {
  const AugmentedAdt a = catalog::fig4_exponential(5);
  const AugmentedAdt b = catalog::fig4_exponential(5);
  EXPECT_EQ(subtree_value_hashes(a), subtree_value_hashes(b));
  EXPECT_EQ(subtree_layout_hashes(a.adt()), subtree_layout_hashes(b.adt()));
}

TEST(SubtreeHashes, LeafEditDirtiesExactlyTheSpine) {
  const AugmentedAdt base = catalog::fig4_exponential(5);
  const AugmentedAdt edited = with_tweaked_leaf(base, "d3", 99.0);
  const auto before = subtree_value_hashes(base);
  const auto after = subtree_value_hashes(edited);
  ASSERT_EQ(before.size(), after.size());
  // The dirty spine of a d3 edit is d3, its INH gate I3, and the root.
  const Adt& adt = base.adt();
  const NodeId d3 = adt.at("d3");
  const NodeId i3 = adt.at("I3");
  for (NodeId v = 0; v < before.size(); ++v) {
    const bool on_spine = v == d3 || v == i3 || v == adt.root();
    EXPECT_EQ(before[v] != after[v], on_spine)
        << "node " << adt.name(v) << (on_spine ? " should" : " should not")
        << " change";
  }
  // Layout is value-independent: identical everywhere.
  EXPECT_EQ(subtree_layout_hashes(base.adt()),
            subtree_layout_hashes(edited.adt()));
}

TEST(SubtreeHashes, ContextsSeparateAlgorithmsAndLimits) {
  const AugmentedAdt model = catalog::fig4_exponential(4);
  const BddBuOptions bdd;
  EXPECT_NE(bottom_up_memo_context(model, 0), hybrid_memo_context(model, bdd));
  EXPECT_NE(bottom_up_memo_context(model, 0),
            bottom_up_memo_context(model, 64));
  BddBuOptions seeded;
  seeded.order_heuristic = bdd::OrderHeuristic::Random;
  seeded.order_seed = 7;
  EXPECT_NE(hybrid_memo_context(model, bdd), hybrid_memo_context(model, seeded));
}

TEST(NodeFrontMemoStore, LookupInsertRoundTripIsBitIdentical) {
  NodeFrontMemo memo(8);
  const NodeMemoKey key{1, 2, 0};
  const Front front =
      Front::from_staircase({ValuePoint{1, 8}, ValuePoint{3, 2}});
  Front out;
  EXPECT_FALSE(memo.lookup(key, out));
  memo.insert(key, front);
  ASSERT_TRUE(memo.lookup(key, out));
  EXPECT_TRUE(out.bit_identical_values(front));
  const NodeFrontMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(NodeFrontMemoStore, ValueAndWitnessStoresAreIndependent) {
  NodeFrontMemo memo(8);
  const NodeMemoKey key{1, 2, 0};
  memo.insert(key, Front::singleton(ValuePoint{1, 1}));
  WitnessFront witness_out;
  EXPECT_FALSE(memo.lookup(key, witness_out));  // separate store
  Front value_out;
  EXPECT_TRUE(memo.lookup(key, value_out));
}

TEST(NodeFrontMemoStore, EvictsLeastRecentlyUsedAtCapacity) {
  NodeFrontMemo memo(2);
  memo.insert(NodeMemoKey{1, 0, 0}, Front::singleton(ValuePoint{1, 1}));
  memo.insert(NodeMemoKey{2, 0, 0}, Front::singleton(ValuePoint{2, 2}));
  Front out;
  ASSERT_TRUE(memo.lookup(NodeMemoKey{1, 0, 0}, out));  // refresh key 1
  memo.insert(NodeMemoKey{3, 0, 0}, Front::singleton(ValuePoint{3, 3}));
  EXPECT_TRUE(memo.lookup(NodeMemoKey{1, 0, 0}, out));
  EXPECT_FALSE(memo.lookup(NodeMemoKey{2, 0, 0}, out));  // the LRU victim
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_EQ(memo.stats().entries, 2u);
}

TEST(NodeFrontMemoStore, CapacityZeroDisablesTheMemo) {
  NodeFrontMemo memo(0);
  memo.insert(NodeMemoKey{1, 0, 0}, Front::singleton(ValuePoint{1, 1}));
  Front out;
  EXPECT_FALSE(memo.lookup(NodeMemoKey{1, 0, 0}, out));
  EXPECT_EQ(memo.stats().entries, 0u);
}

TEST(MemoizedBottomUp, WarmRunIsBitIdenticalToColdAtEveryThreadCount) {
  const AugmentedAdt model = catalog::fig4_exponential(7);
  const Front cold = bottom_up_front(model);
  const WitnessFront cold_witness = bottom_up_front_witness(model);

  NodeFrontMemo memo;
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    BottomUpOptions options;
    options.pool = &pool;
    options.parallel_node_floor = 0;
    options.memo = &memo;
    NodeMemoStats stats;
    options.memo_stats = &stats;
    EXPECT_TRUE(bottom_up_front(model, options).bit_identical_values(cold))
        << "memoized@" << threads << " threads diverged from cold";
    const WitnessFront warm_witness = bottom_up_front_witness(model, options);
    EXPECT_TRUE(warm_witness.bit_identical_values(cold_witness));
    for (std::size_t i = 0; i < warm_witness.size(); ++i) {
      EXPECT_EQ(warm_witness.points()[i].defense,
                cold_witness.points()[i].defense);
      EXPECT_EQ(warm_witness.points()[i].attack,
                cold_witness.points()[i].attack);
    }
  }
  // After the first pair of runs every gate front is resident: the later
  // runs must be pure replay (single memo hit at the root, zero misses).
  BottomUpOptions warm;
  warm.memo = &memo;
  NodeMemoStats stats;
  warm.memo_stats = &stats;
  EXPECT_TRUE(bottom_up_front(model, warm).bit_identical_values(cold));
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(MemoizedBottomUp, LeafEditRecomputesOnlyTheDirtySpine) {
  const AugmentedAdt base = catalog::fig4_exponential(7);
  NodeFrontMemo memo;
  BottomUpOptions options;
  options.memo = &memo;
  NodeMemoStats stats;
  options.memo_stats = &stats;
  (void)bottom_up_front(base, options);  // warm the memo

  const AugmentedAdt edited = with_tweaked_leaf(base, "d4", 1234.0);
  stats = {};
  const Front incremental = bottom_up_front(edited, options);
  // fig4's root folds n INH gates; a d4 edit dirties I4 and the root, so
  // the other n-1 INH fronts replay from the memo.
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.misses, 2u);  // I4 and the root
  BottomUpOptions cold;
  EXPECT_TRUE(incremental.bit_identical_values(bottom_up_front(edited, cold)));
}

TEST(MemoizedHybrid, WarmRunIsBitIdenticalToColdOnADag) {
  // money_theft_dag shares its "phishing" leaf between two subtrees, so
  // Auto routes it to BddBu and analyze_incremental to Hybrid.
  const AugmentedAdt model = catalog::money_theft_dag();
  HybridOptions cold_options;
  const Front cold = hybrid_front(model, cold_options);

  NodeFrontMemo memo;
  HybridOptions options;
  options.memo = &memo;
  NodeMemoStats stats;
  options.memo_stats = &stats;
  EXPECT_TRUE(hybrid_front(model, options).bit_identical_values(cold));
  EXPECT_GT(stats.misses, 0u);
  stats = {};
  EXPECT_TRUE(hybrid_front(model, options).bit_identical_values(cold));
  EXPECT_EQ(stats.hits, 1u);  // root replay
  EXPECT_EQ(stats.misses, 0u);
}

TEST(AnalyzeIncremental, ResolvesAutoAndMatchesCold) {
  const AugmentedAdt tree = catalog::fig4_exponential(6);
  const AugmentedAdt dag = catalog::money_theft_dag();
  NodeFrontMemo memo;

  const AnalysisResult tree_warm = analyze_incremental(tree, memo);
  EXPECT_EQ(tree_warm.used, Algorithm::BottomUp);
  EXPECT_TRUE(tree_warm.front.bit_identical_values(analyze(tree).front));
  EXPECT_GT(tree_warm.memo_misses, 0u);

  const AnalysisResult dag_warm = analyze_incremental(dag, memo);
  EXPECT_EQ(dag_warm.used, Algorithm::Hybrid);
  HybridOptions hybrid;
  EXPECT_TRUE(dag_warm.front.bit_identical_values(hybrid_front(dag, hybrid)));

  // Second calls replay from the shared memo.
  const AnalysisResult replay = analyze_incremental(tree, memo);
  EXPECT_EQ(replay.memo_hits, 1u);
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_TRUE(replay.front.bit_identical_values(tree_warm.front));
}

TEST(MemoKnobs, StayOutOfTheFrontCacheKey) {
  const AugmentedAdt model = catalog::fig4_exponential(4);
  NodeFrontMemo memo;
  AnalysisOptions plain;
  AnalysisOptions memoized;
  memoized.bottom_up.memo = &memo;
  memoized.hybrid.memo = &memo;
  NodeMemoStats stats;
  memoized.bottom_up.memo_stats = &stats;
  AnalysisOptions grained;
  grained.bdd.task_grain_points = 1;  // execution-only, like pool
  EXPECT_EQ(front_cache_key(model, plain), front_cache_key(model, memoized));
  EXPECT_EQ(front_cache_key(model, plain), front_cache_key(model, grained));
}

TEST(CustomDomains, BypassTheMemo) {
  const AugmentedAdt base = catalog::fig4_exponential(4);
  // min-cost via opaque hooks: semantically identical, but the hooks
  // cannot be content-hashed, so fronts must not be memoized.
  const Semiring custom = Semiring::custom(
      "custom-cost", 0.0, std::numeric_limits<double>::infinity(),
      [](double a, double b) { return a + b; },
      [](double a, double b) { return a <= b; });
  const AugmentedAdt model(base.adt(), base.attribution(), custom,
                           base.attacker_domain());
  EXPECT_FALSE(memoizable(model));
  NodeFrontMemo memo;
  BottomUpOptions options;
  options.memo = &memo;
  NodeMemoStats stats;
  options.memo_stats = &stats;
  (void)bottom_up_front(model, options);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(memo.stats().entries, 0u);
}

}  // namespace
}  // namespace adtp
