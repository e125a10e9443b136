/// BddBuOptions::task_grain_points is an execution knob, never a result
/// knob: chunked propagation must produce bit-identical fronts AND
/// witnesses for every grain and thread count (grain 1 reproduces the
/// old task-per-node graph), while the default grain must actually
/// collapse the task count on attack-heavy BDDs - the whole point of the
/// granularity fix.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/bdd_bu.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"

namespace adtp {
namespace {

constexpr unsigned kThreadCounts[] = {2, 8};
constexpr std::size_t kGrains[] = {1, 16, 1024,
                                   std::numeric_limits<std::size_t>::max()};

TEST(BddGrain, EveryGrainAndThreadCountIsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomAdtOptions gen;
    gen.share_probability = 0.3;
    gen.max_defenses = 6;
    gen.target_nodes = 20 + seed * 3;
    const AugmentedAdt aadt = generate_random_aadt(
        gen, seed, Semiring::min_cost(), Semiring::min_cost());

    BddBuOptions base;
    base.parallel_node_floor = 0;  // force the pool on tiny models
    const Front reference = bdd_bu_front(aadt, base);
    const WitnessFront reference_witness = bdd_bu_front_witness(aadt, base);

    for (unsigned threads : kThreadCounts) {
      TaskScheduler pool(threads);
      for (std::size_t grain : kGrains) {
        BddBuOptions options = base;
        options.pool = &pool;
        options.task_grain_points = grain;
        EXPECT_TRUE(bdd_bu_front(aadt, options).bit_identical_values(reference))
            << "seed " << seed << " grain " << grain << " @" << threads
            << " threads diverged";
        const WitnessFront witness = bdd_bu_front_witness(aadt, options);
        ASSERT_TRUE(witness.bit_identical_values(reference_witness))
            << "seed " << seed << " grain " << grain << " @" << threads
            << " threads: witness values diverged";
        for (std::size_t i = 0; i < witness.size(); ++i) {
          EXPECT_EQ(witness.points()[i].defense,
                    reference_witness.points()[i].defense);
          EXPECT_EQ(witness.points()[i].attack,
                    reference_witness.points()[i].attack);
        }
      }
    }
  }
}

TEST(BddGrain, DefaultGrainCollapsesTheTaskCount) {
  // fig4's BDD is a long chain of attack-variable nodes (singleton
  // fronts) under few defense variables: per-node tasks are almost all
  // bookkeeping. The propagation task count must shrink by at least the
  // ratio the estimates promise, with the front untouched.
  const AugmentedAdt aadt = catalog::fig4_exponential(10);

  TaskScheduler pool(2);
  auto report_at = [&](std::size_t grain) {
    BddBuOptions options;
    options.parallel_node_floor = 0;
    options.pool = &pool;
    options.task_grain_points = grain;
    return bdd_bu_analyze(aadt, options);
  };

  // report.sched counts propagation tasks only (the build is serial), so
  // grain 1 is exactly one task per reachable nonterminal: |W| minus the
  // two terminals (a non-constant function reaches both).
  const BddBuReport fine = report_at(1);
  const std::uint64_t per_node = fine.sched.tasks;
  EXPECT_EQ(per_node, fine.bdd_size - 2);
  const std::uint64_t chunked = report_at(1024).sched.tasks;
  EXPECT_LT(chunked, per_node)
      << "default grain did not reduce the propagation task count";
  // The BDD here has thousands of nonterminals; chunking must remove the
  // bulk of the per-node tasks, not a rounding error's worth.
  EXPECT_LT(chunked, per_node / 2);
}

TEST(BddGrain, GrainKeepsTheReportCountersCoherent) {
  const AugmentedAdt aadt = catalog::fig4_exponential(8);
  TaskScheduler pool(4);
  BddBuOptions options;
  options.parallel_node_floor = 0;
  options.pool = &pool;
  const BddBuReport chunked = bdd_bu_analyze(aadt, options);
  BddBuOptions fine = options;
  fine.task_grain_points = 1;
  const BddBuReport per_node = bdd_bu_analyze(aadt, fine);
  EXPECT_TRUE(chunked.front.bit_identical_values(per_node.front));
  EXPECT_EQ(chunked.max_front_size, per_node.max_front_size);
  EXPECT_EQ(chunked.bdd_size, per_node.bdd_size);
  EXPECT_EQ(chunked.combine_stats.staircase_merges,
            per_node.combine_stats.staircase_merges);
}

}  // namespace
}  // namespace adtp
