#include "core/bottom_up.hpp"

#include <gtest/gtest.h>

#include "adt/structure.hpp"
#include "gen/catalog.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

TEST(TableII, OperatorSelection) {
  EXPECT_EQ(attack_op(GateType::And, Agent::Attacker), AttackOp::Combine);
  EXPECT_EQ(attack_op(GateType::And, Agent::Defender), AttackOp::Choose);
  EXPECT_EQ(attack_op(GateType::Or, Agent::Attacker), AttackOp::Choose);
  EXPECT_EQ(attack_op(GateType::Or, Agent::Defender), AttackOp::Combine);
  EXPECT_EQ(attack_op(GateType::Inhibit, Agent::Attacker), AttackOp::Combine);
  EXPECT_EQ(attack_op(GateType::Inhibit, Agent::Defender), AttackOp::Choose);
  EXPECT_THROW((void)attack_op(GateType::BasicStep, Agent::Attacker),
               ModelError);
}

TEST(BottomUp, Example5StepByStep) {
  const AugmentedAdt fig5 = catalog::fig5_example();
  const Adt& adt = fig5.adt();
  const auto fronts = bottom_up_all_fronts(fig5);

  // Leaf fronts.
  EXPECT_EQ(fronts[adt.at("a1")].to_string(), "{(0, 5)}");
  EXPECT_EQ(fronts[adt.at("a2")].to_string(), "{(0, 10)}");
  EXPECT_EQ(fronts[adt.at("d1")].to_string(), "{(0, 0), (4, inf)}");
  EXPECT_EQ(fronts[adt.at("d2")].to_string(), "{(0, 0), (8, inf)}");
  // INH fronts (the paper's step 2-3; "8" in the PDF is a garbled inf).
  EXPECT_EQ(fronts[adt.at("i1")].to_string(), "{(0, 5), (4, inf)}");
  EXPECT_EQ(fronts[adt.at("i2")].to_string(), "{(0, 10), (8, inf)}");
  // Final front (step 4).
  EXPECT_EQ(fronts[adt.root()].to_string(), "{(0, 5), (4, 10), (12, inf)}");
}

TEST(BottomUp, Fig3Front) {
  EXPECT_EQ(bottom_up_front(catalog::fig3_example()).to_string(),
            "{(0, 10), (15, 15)}");
}

TEST(BottomUp, Fig4ExponentialFrontSize) {
  for (int n = 1; n <= 8; ++n) {
    const Front front = bottom_up_front(catalog::fig4_exponential(n));
    EXPECT_EQ(front.size(), std::size_t{1} << n) << "n = " << n;
  }
}

TEST(BottomUp, MoneyTheftTreePerNodeFronts) {
  // The red annotations of Fig. 7 (tree variant), spot-checked at the
  // nodes the paper prints.
  const AugmentedAdt tree = catalog::money_theft_tree();
  const Adt& adt = tree.adt();
  const auto fronts = bottom_up_all_fronts(tree);

  EXPECT_EQ(fronts[adt.at("cover_keypad_effective")].to_string(),
            "{(0, 0), (30, 75)}");
  EXPECT_EQ(fronts[adt.at("eavesdrop_uncovered")].to_string(),
            "{(0, 20), (30, 95)}");
  EXPECT_EQ(fronts[adt.at("learn_pin")].to_string(), "{(0, 20), (30, 95)}");
  EXPECT_EQ(fronts[adt.at("via_atm")].to_string(), "{(0, 90), (30, 165)}");
  EXPECT_EQ(fronts[adt.at("sms_effective")].to_string(),
            "{(0, 0), (20, 60)}");
  EXPECT_EQ(fronts[adt.at("transfer_allowed")].to_string(),
            "{(0, 10), (20, 70)}");
  EXPECT_EQ(fronts[adt.at("get_user_name")].to_string(), "{(0, 70)}");
  EXPECT_EQ(fronts[adt.at("get_password")].to_string(), "{(0, 70)}");
  EXPECT_EQ(fronts[adt.at("guess_pwd_blocked")].to_string(),
            "{(0, 120), (10, inf)}");
  EXPECT_EQ(fronts[adt.at("via_online_banking")].to_string(),
            "{(0, 150), (20, 210)}");
  EXPECT_EQ(fronts[adt.root()].to_string(),
            "{(0, 90), (30, 150), (50, 165)}");
}

TEST(BottomUp, MoneyTheftMatchesKordyWidel165) {
  // [5] reports 165 as the minimal cost of an unpreventable attack under
  // tree semantics - the attacker value of the front's last point.
  const Front front = bottom_up_front(catalog::money_theft_tree());
  EXPECT_EQ(front.points().back().att, 165);
}

TEST(BottomUp, RejectsDags) {
  EXPECT_THROW((void)bottom_up_front(catalog::money_theft_dag()),
               ModelError);
}

TEST(BottomUp, WitnessesReplayOnMoneyTheftTree) {
  const AugmentedAdt tree = catalog::money_theft_tree();
  const WitnessFront front = bottom_up_front_witness(tree);
  ASSERT_EQ(front.size(), 3u);
  for (const auto& p : front.points()) {
    EXPECT_EQ(tree.defense_vector_value(p.defense), p.def);
    EXPECT_EQ(tree.attack_vector_value(p.attack), p.att);
    // The witness attack must actually succeed against the witness
    // defense.
    EXPECT_TRUE(attack_succeeds(tree.adt(), p.defense, p.attack));
  }
}

TEST(BottomUp, WitnessNamesTellTheStory) {
  // The paper's narrative: with no budget the attacker goes via ATM; with
  // cover keypad + SMS auth the attacker uses the camera.
  const AugmentedAdt tree = catalog::money_theft_tree();
  const Adt& adt = tree.adt();
  const WitnessFront front = bottom_up_front_witness(tree);
  ASSERT_EQ(front.size(), 3u);

  const auto& free_point = front.points()[0];
  EXPECT_TRUE(
      free_point.attack.test(adt.attack_index(adt.at("eavesdrop"))));
  EXPECT_TRUE(
      free_point.attack.test(adt.attack_index(adt.at("steal_card"))));

  const auto& full_point = front.points()[2];
  EXPECT_TRUE(
      full_point.defense.test(adt.defense_index(adt.at("cover_keypad"))));
  EXPECT_TRUE(full_point.defense.test(
      adt.defense_index(adt.at("sms_authentication"))));
  EXPECT_TRUE(full_point.attack.test(adt.attack_index(adt.at("camera"))));
  // Strong pwd is not part of any Pareto-optimal point.
  for (const auto& p : front.points()) {
    EXPECT_FALSE(p.defense.test(adt.defense_index(adt.at("strong_pwd"))));
  }
}

TEST(BottomUp, SingleLeafModels) {
  {
    Adt adt;
    adt.add_basic("a", Agent::Attacker);
    adt.freeze();
    Attribution beta;
    beta.set("a", 9);
    const AugmentedAdt aadt(std::move(adt), std::move(beta),
                            Semiring::min_cost(), Semiring::min_cost());
    EXPECT_EQ(bottom_up_front(aadt).to_string(), "{(0, 9)}");
  }
  {
    Adt adt;
    adt.add_basic("d", Agent::Defender);
    adt.freeze();
    Attribution beta;
    beta.set("d", 4);
    const AugmentedAdt aadt(std::move(adt), std::move(beta),
                            Semiring::min_cost(), Semiring::min_cost());
    // Defender-rooted single defense: free-to-defeat, or bought and
    // undefeatable.
    EXPECT_EQ(bottom_up_front(aadt).to_string(), "{(0, 0), (4, inf)}");
  }
}

// Determinism contract of the sibling-subtree task DAG (see
// docs/CONTRACTS.md): the parallel walk folds every gate exactly like the
// sequential walk, so fronts AND witnesses are bit-identical at every
// thread count. parallel_node_floor = 0 forces the scheduler even on
// these small catalog trees.
TEST(BottomUp, ParallelWalkMatchesSequentialBitForBit) {
  const AugmentedAdt models[] = {catalog::fig5_example(),
                                 catalog::money_theft_tree(),
                                 catalog::fig4_exponential(10)};
  for (const AugmentedAdt& aadt : models) {
    const BottomUpReport sequential = bottom_up_analyze(aadt);
    EXPECT_EQ(sequential.threads_used, 1u);
    EXPECT_EQ(sequential.sched.tasks, 0u);
    for (unsigned threads : {2u, 8u}) {
      TaskScheduler pool(threads);
      BottomUpOptions options;
      options.pool = &pool;
      options.parallel_node_floor = 0;
      const BottomUpReport parallel = bottom_up_analyze(aadt, options);
      EXPECT_TRUE(
          parallel.front.bit_identical_values(sequential.front))
          << "front diverged at " << threads << " threads";
      EXPECT_EQ(parallel.threads_used, threads);
      // One task per node: the whole tree went through the scheduler.
      EXPECT_EQ(parallel.sched.tasks, aadt.adt().size());
      EXPECT_EQ(parallel.max_front_size, sequential.max_front_size);
    }
  }
}

TEST(BottomUp, ParallelWitnessesMatchSequentialBitForBit) {
  const AugmentedAdt tree = catalog::money_theft_tree();
  const WitnessFront sequential = bottom_up_front_witness(tree);
  for (unsigned threads : {2u, 8u}) {
    TaskScheduler pool(threads);
    BottomUpOptions options;
    options.pool = &pool;
    options.parallel_node_floor = 0;
    const WitnessFront parallel = bottom_up_front_witness(tree, options);
    ASSERT_TRUE(parallel.bit_identical_values(sequential));
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel.points()[i].defense, sequential.points()[i].defense);
      EXPECT_EQ(parallel.points()[i].attack, sequential.points()[i].attack);
    }
  }
}

TEST(BottomUp, NodeFloorKeepsSmallTreesSequential) {
  // Below the floor the walk must not engage the scheduler even when one
  // is lent (the default-floor path of every analyze() call on small
  // models).
  TaskScheduler pool(8);
  BottomUpOptions options;
  options.pool = &pool;
  options.parallel_node_floor = 1000;
  const BottomUpReport report =
      bottom_up_analyze(catalog::fig5_example(), options);
  EXPECT_EQ(report.threads_used, 1u);
  EXPECT_EQ(report.sched.tasks, 0u);
  EXPECT_EQ(report.front.to_string(), "{(0, 5), (4, 10), (12, inf)}");
}

TEST(BottomUp, ExternalPoolIsUsedForLargeTrees) {
  TaskScheduler pool(4);
  BottomUpOptions options;
  options.pool = &pool;
  options.parallel_node_floor = 0;
  const BottomUpReport report =
      bottom_up_analyze(catalog::fig4_exponential(8), options);
  EXPECT_EQ(report.threads_used, 4u);
  EXPECT_EQ(report.front.size(), std::size_t{1} << 8);
}

TEST(BottomUp, MinTimeParallelDomain) {
  // AND under parallel time takes the max of children times.
  Adt adt;
  const NodeId a1 = adt.add_basic("a1", Agent::Attacker);
  const NodeId a2 = adt.add_basic("a2", Agent::Attacker);
  adt.add_gate("top", GateType::And, Agent::Attacker, {a1, a2});
  adt.freeze();
  Attribution beta;
  beta.set("a1", 3);
  beta.set("a2", 8);
  const AugmentedAdt aadt(std::move(adt), std::move(beta),
                          Semiring::min_cost(), Semiring::min_time_par());
  EXPECT_EQ(bottom_up_front(aadt).to_string(), "{(0, 8)}");
}

TEST(BottomUp, ProbabilityDomainOrGate) {
  Adt adt;
  const NodeId a1 = adt.add_basic("a1", Agent::Attacker);
  const NodeId a2 = adt.add_basic("a2", Agent::Attacker);
  adt.add_gate("top", GateType::Or, Agent::Attacker, {a1, a2});
  adt.freeze();
  Attribution beta;
  beta.set("a1", 0.3);
  beta.set("a2", 0.7);
  const AugmentedAdt aadt(std::move(adt), std::move(beta),
                          Semiring::min_cost(), Semiring::probability());
  const Front front = bottom_up_front(aadt);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_DOUBLE_EQ(front.front_point().att, 0.7);
}

}  // namespace
}  // namespace adtp
