/// Google-benchmark micro suite: the primitives that dominate the
/// figure-level results (BDD construction, Pareto-front operations,
/// structure-function evaluation) plus end-to-end runs of the three
/// algorithms on the case study and on random models.

#include <benchmark/benchmark.h>

#include <limits>

#include "adt/structure.hpp"
#include "bdd/build.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace adtp;

namespace {

AugmentedAdt random_tree(std::size_t nodes, std::uint64_t seed) {
  RandomAdtOptions options;
  options.target_nodes = nodes;
  options.share_probability = 0.0;
  return generate_random_aadt(options, seed, Semiring::min_cost(),
                              Semiring::min_cost());
}

AugmentedAdt random_dag(std::size_t nodes, std::uint64_t seed) {
  RandomAdtOptions options;
  options.target_nodes = nodes;
  options.share_probability = 0.2;
  options.max_defenses = 14;
  return generate_random_aadt(options, seed, Semiring::min_cost(),
                              Semiring::min_cost());
}

void BM_StructureEval(benchmark::State& state) {
  const AugmentedAdt aadt = random_dag(state.range(0), 7);
  StructureEvaluator eval(aadt.adt());
  Rng rng(3);
  BitVec defense(aadt.adt().num_defenses());
  BitVec attack(aadt.adt().num_attacks());
  for (std::size_t i = 0; i < attack.size(); ++i) {
    if (rng.chance(0.5)) attack.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.root_value(defense, attack));
  }
}
BENCHMARK(BM_StructureEval)->Arg(50)->Arg(150)->Arg(325);

void BM_BddBuild(benchmark::State& state) {
  const AugmentedAdt aadt = random_dag(state.range(0), 11);
  const auto order = bdd::VarOrder::defense_first(aadt.adt());
  for (auto _ : state) {
    bdd::Manager manager(order.num_vars());
    benchmark::DoNotOptimize(
        bdd::build_structure_function(manager, aadt.adt(), order));
  }
}
BENCHMARK(BM_BddBuild)->Arg(50)->Arg(150)->Arg(325);

void BM_ParetoMinimize(benchmark::State& state) {
  const Semiring cost = Semiring::min_cost();
  Rng rng(5);
  std::vector<ValuePoint> points;
  for (int i = 0; i < state.range(0); ++i) {
    points.push_back(ValuePoint{double(rng.below(1000)),
                                double(rng.below(1000))});
  }
  for (auto _ : state) {
    auto copy = points;
    benchmark::DoNotOptimize(
        Front::minimized(std::move(copy), cost, cost));
  }
}
BENCHMARK(BM_ParetoMinimize)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CombineFronts(benchmark::State& state) {
  const Semiring cost = Semiring::min_cost();
  Rng rng(9);
  std::vector<ValuePoint> pts;
  for (int i = 0; i < state.range(0); ++i) {
    // A staircase (both coordinates strictly increasing) so nothing is
    // pruned: the worst case for combine.
    pts.push_back(ValuePoint{double(i), double(i)});
  }
  const Front front = Front::minimized(pts, cost, cost);
  for (auto _ : state) {
    // Copy parity with BM_CombineFrontsArena's accumulator, so the two
    // variants time identical work (copy + combine) and differ only in
    // the allocation strategy.
    Front lhs = front;
    benchmark::DoNotOptimize(
        combine_fronts(lhs, front, AttackOp::Choose, cost, cost));
  }
}
BENCHMARK(BM_CombineFronts)->Arg(16)->Arg(64)->Arg(256);

void BM_CombineFrontsArena(benchmark::State& state) {
  const Semiring cost = Semiring::min_cost();
  std::vector<ValuePoint> pts;
  for (int i = 0; i < state.range(0); ++i) {
    pts.push_back(ValuePoint{double(i), double(i)});
  }
  const Front front = Front::minimized(pts, cost, cost);
  FrontArena<ValuePoint> arena;
  for (auto _ : state) {
    Front acc = front;
    arena.combine_into(acc, front, AttackOp::Choose, cost, cost);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CombineFrontsArena)->Arg(16)->Arg(64)->Arg(256);

// The same workload through the static-dispatch kernels (built-in kinds)
// and through the DynamicDomain fallback (a custom Semiring with the very
// same min-cost operations): the delta is the price of runtime dispatch.
AugmentedAdt with_dynamic_min_cost(const AugmentedAdt& aadt) {
  const Semiring dynamic = Semiring::custom(
      "dynamic mincost", 0.0, std::numeric_limits<double>::infinity(),
      [](double x, double y) { return x + y; },
      [](double x, double y) { return x <= y; });
  return AugmentedAdt(aadt.adt(), aadt.attribution(), dynamic, dynamic);
}

void BM_BottomUpStaticDispatch(benchmark::State& state) {
  const AugmentedAdt tree = random_tree(state.range(0), 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_up_front(tree));
  }
}
BENCHMARK(BM_BottomUpStaticDispatch)->Arg(150)->Arg(325);

void BM_BottomUpDynamicDispatch(benchmark::State& state) {
  const AugmentedAdt tree = with_dynamic_min_cost(random_tree(state.range(0),
                                                              13));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_up_front(tree));
  }
}
BENCHMARK(BM_BottomUpDynamicDispatch)->Arg(150)->Arg(325);

void BM_BddBuStaticDispatch(benchmark::State& state) {
  const AugmentedAdt dag = random_dag(state.range(0), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bdd_bu_front(dag));
  }
}
BENCHMARK(BM_BddBuStaticDispatch)->Arg(100)->Arg(150);

void BM_BddBuDynamicDispatch(benchmark::State& state) {
  const AugmentedAdt dag = with_dynamic_min_cost(random_dag(state.range(0),
                                                            17));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bdd_bu_front(dag));
  }
}
BENCHMARK(BM_BddBuDynamicDispatch)->Arg(100)->Arg(150);

void BM_NaiveStaticDispatch(benchmark::State& state) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_front(dag));
  }
}
BENCHMARK(BM_NaiveStaticDispatch);

void BM_NaiveDynamicDispatch(benchmark::State& state) {
  const AugmentedAdt dag = with_dynamic_min_cost(catalog::money_theft_dag());
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_front(dag));
  }
}
BENCHMARK(BM_NaiveDynamicDispatch);

void BM_BottomUpMoneyTheft(benchmark::State& state) {
  const AugmentedAdt tree = catalog::money_theft_tree();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_up_front(tree));
  }
}
BENCHMARK(BM_BottomUpMoneyTheft);

void BM_BddBuMoneyTheft(benchmark::State& state) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bdd_bu_front(dag));
  }
}
BENCHMARK(BM_BddBuMoneyTheft);

void BM_NaiveMoneyTheft(benchmark::State& state) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_front(dag));
  }
}
BENCHMARK(BM_NaiveMoneyTheft);

void BM_BottomUpRandomTree(benchmark::State& state) {
  const AugmentedAdt tree = random_tree(state.range(0), 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_up_front(tree));
  }
}
BENCHMARK(BM_BottomUpRandomTree)->Arg(50)->Arg(150)->Arg(325);

void BM_BddBuRandomDag(benchmark::State& state) {
  const AugmentedAdt dag = random_dag(state.range(0), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bdd_bu_front(dag));
  }
}
BENCHMARK(BM_BddBuRandomDag)->Arg(50)->Arg(100)->Arg(150);

void BM_GenerateRandomAdt(benchmark::State& state) {
  RandomAdtOptions options;
  options.target_nodes = state.range(0);
  options.share_probability = 0.2;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_random_adt(options, seed++));
  }
}
BENCHMARK(BM_GenerateRandomAdt)->Arg(50)->Arg(325);

// ---- sort path vs k-way path on general (non-singleton) combines -------
//
// Both variants run on the static MinCostDomain policies (the only ones
// eligible for the sort-free path), on the two shapes that dominate the
// Fig. 4 family: the root fold of a 2^k-point staircase with a 2-point
// defense front, and the combination of two long incomparable staircases.

Front fig4_staircase(int n) {
  std::vector<ValuePoint> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(ValuePoint{double(i), double(i)});
  }
  return Front::minimized(std::move(pts), MinCostDomain{}, MinCostDomain{});
}

void BM_CombineFig4StepSortPath(benchmark::State& state) {
  const MinCostDomain dom;
  const Front acc = fig4_staircase(state.range(0));
  const Front step = Front::minimized(
      {ValuePoint{0, double(state.range(0))},
       ValuePoint{double(state.range(0)),
                  std::numeric_limits<double>::infinity()}},
      dom, dom);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        combine_fronts_sorted(acc, step, AttackOp::Combine, dom, dom));
  }
}
BENCHMARK(BM_CombineFig4StepSortPath)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_CombineFig4StepKWay(benchmark::State& state) {
  const MinCostDomain dom;
  const Front acc = fig4_staircase(state.range(0));
  const Front step = Front::minimized(
      {ValuePoint{0, double(state.range(0))},
       ValuePoint{double(state.range(0)),
                  std::numeric_limits<double>::infinity()}},
      dom, dom);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        combine_fronts_kway(acc, step, AttackOp::Combine, dom, dom));
  }
}
BENCHMARK(BM_CombineFig4StepKWay)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_CombineStaircasePairSortPath(benchmark::State& state) {
  const MinCostDomain dom;
  const Front lhs = fig4_staircase(state.range(0));
  const Front rhs = fig4_staircase(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        combine_fronts_sorted(lhs, rhs, AttackOp::Choose, dom, dom));
  }
}
BENCHMARK(BM_CombineStaircasePairSortPath)->Arg(64)->Arg(256)->Arg(1024);

void BM_CombineStaircasePairKWay(benchmark::State& state) {
  const MinCostDomain dom;
  const Front lhs = fig4_staircase(state.range(0));
  const Front rhs = fig4_staircase(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        combine_fronts_kway(lhs, rhs, AttackOp::Choose, dom, dom));
  }
}
BENCHMARK(BM_CombineStaircasePairKWay)->Arg(64)->Arg(256)->Arg(1024);

// ---- sharded naive enumeration ------------------------------------------

/// A 2^14-delta model kept cheap on the attack side: 14 defenses, each
/// inhibiting one of 6 shared attacks, under a defender-rooted OR (the
/// Fig. 4 shape with a shared attack layer; a DAG, so only naive and
/// BDDBU apply).
AugmentedAdt sharded_naive_model() {
  Adt adt;
  Attribution beta;
  std::vector<NodeId> attacks;
  for (int j = 0; j < 6; ++j) {
    const std::string name = "a" + std::to_string(j);
    attacks.push_back(adt.add_basic(name, Agent::Attacker));
    beta.set(name, j + 1.0);
  }
  std::vector<NodeId> gates;
  for (int i = 0; i < 14; ++i) {
    const std::string name = "d" + std::to_string(i);
    const NodeId d = adt.add_basic(name, Agent::Defender);
    beta.set(name, i + 1.0);
    gates.push_back(
        adt.add_inhibit("I" + std::to_string(i), d, attacks[i % 6]));
  }
  adt.set_root(adt.add_gate("top", GateType::Or, Agent::Defender,
                            std::move(gates)));
  adt.freeze();
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

void BM_NaiveSharded(benchmark::State& state) {
  const AugmentedAdt model = sharded_naive_model();
  TaskScheduler pool(static_cast<unsigned>(state.range(0)));
  NaiveOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_front(model, options));
  }
}
BENCHMARK(BM_NaiveSharded)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Fig4BottomUp(benchmark::State& state) {
  const AugmentedAdt fig4 =
      catalog::fig4_exponential(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_up_front(fig4));
  }
}
BENCHMARK(BM_Fig4BottomUp)->Arg(4)->Arg(8)->Arg(10);

// ---- pooled BDD propagation ---------------------------------------------
//
// The Fig. 4 family at n = 14 is the acceptance workload of the pooled
// propagate: ~3 * 2^n BDD nodes, levels up to 2^(n-1) wide, exponential
// fronts at the defense levels. The build is serial at every thread
// count. Thread counts beyond the machine's cores still run (and stay
// bit-identical) but cannot speed up further.

void BM_BddPropagateThreads(benchmark::State& state) {
  const AugmentedAdt fig4 = catalog::fig4_exponential(14);
  TaskScheduler pool(static_cast<unsigned>(state.range(0)));
  BddBuOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    const BddBuReport report = bdd_bu_analyze(fig4, options);
    benchmark::DoNotOptimize(report.front.size());
    state.counters["propagate_s"] = report.propagate_seconds;
    state.counters["build_s"] = report.build_seconds;
  }
}
BENCHMARK(BM_BddPropagateThreads)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- SIMD Pareto kernels -------------------------------------------------
//
// Scalar-vs-vector suites for the batch kernels behind util/cpu.hpp's
// runtime dispatch. Every suite is parameterized by the dispatch level
// (second arg: 0 = scalar, 1 = sse2, 2 = avx2) through a scoped override,
// so one binary measures all levels the CPU offers; levels the CPU lacks
// are skipped, not faked. The inputs are all-keep staircases - nothing is
// pruned, so the timed work is pure kernel throughput, and the scalar and
// vector paths do identical (bit-identical, per the test suites) work.

bool simd_level_ready(benchmark::State& state, SimdLevel& level) {
  level = static_cast<SimdLevel>(state.range(1));
  if (!simd_level_available(level)) {
    state.SkipWithError("SIMD level not available on this CPU");
    return false;
  }
  return true;
}

std::vector<ValuePoint> keep_all_staircase(int n, double offset = 0.0,
                                           double stride = 1.0) {
  std::vector<ValuePoint> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(ValuePoint{offset + stride * i, offset + stride * i});
  }
  return pts;
}

void BM_DominanceBatch(benchmark::State& state) {
  SimdLevel level;
  if (!simd_level_ready(state, level)) return;
  const ScopedSimdOverride simd(level);
  const MinCostDomain dom;
  const Front front =
      Front::from_staircase(keep_all_staircase(state.range(0)));
  // Non-dominated queries (def below every front point), so every call
  // scans the whole front: the kernel's worst case.
  std::vector<ValuePoint> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(ValuePoint{-1.0 - i, double(i)});
  }
  for (auto _ : state) {
    for (const ValuePoint& q : queries) {
      benchmark::DoNotOptimize(front_dominates_point(front, q, dom, dom));
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size() *
                          front.size());
}
BENCHMARK(BM_DominanceBatch)
    ->ArgsProduct({{64, 1024, 16384}, {0, 1, 2}})
    ->ArgNames({"n", "simd"});

void BM_StaircaseSweep(benchmark::State& state) {
  SimdLevel level;
  if (!simd_level_ready(state, level)) return;
  const ScopedSimdOverride simd(level);
  const MinCostDomain dom;
  // Already minimal, so the sweep keeps every point and never moves one:
  // the buffer can be reused across iterations without a per-iteration
  // copy polluting the measurement.
  std::vector<ValuePoint> points = keep_all_staircase(state.range(0));
  for (auto _ : state) {
    detail::staircase_sweep_in_place(points, dom, dom);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_StaircaseSweep)
    ->ArgsProduct({{256, 4096, 65536}, {0, 1, 2}})
    ->ArgNames({"n", "simd"});

void BM_StaircaseMerge(benchmark::State& state) {
  SimdLevel level;
  if (!simd_level_ready(state, level)) return;
  const ScopedSimdOverride simd(level);
  const MinCostDomain dom;
  const int n = static_cast<int>(state.range(0));
  // Alternating sources: every point survives and the take-a/take-b runs
  // are as short as they can get - the merge kernel's worst case.
  const std::vector<ValuePoint> a = keep_all_staircase(n, 0.0, 2.0);
  const std::vector<ValuePoint> b = keep_all_staircase(n, 1.0, 2.0);
  std::vector<ValuePoint> out;
  for (auto _ : state) {
    detail::pareto_merge_staircases(a, b, out, dom, dom);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_StaircaseMerge)
    ->ArgsProduct({{256, 4096, 65536}, {0, 1, 2}})
    ->ArgNames({"n", "simd"});

void BM_StaircaseMergeRuns(benchmark::State& state) {
  SimdLevel level;
  if (!simd_level_ready(state, level)) return;
  const ScopedSimdOverride simd(level);
  const MinCostDomain dom;
  const int n = static_cast<int>(state.range(0));
  // Block-interleaved sources (runs of 32): the galloping fast path.
  std::vector<ValuePoint> a, b;
  for (int j = 0; j < 2 * n; ++j) {
    ((j / 32) % 2 == 0 ? a : b).push_back(ValuePoint{double(j), double(j)});
  }
  std::vector<ValuePoint> out;
  for (auto _ : state) {
    detail::pareto_merge_staircases(a, b, out, dom, dom);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_StaircaseMergeRuns)
    ->ArgsProduct({{256, 4096, 65536}, {0, 1, 2}})
    ->ArgNames({"n", "simd"});

void BM_CombineKWaySingleton(benchmark::State& state) {
  SimdLevel level;
  if (!simd_level_ready(state, level)) return;
  const ScopedSimdOverride simd(level);
  const MinCostDomain dom;
  // Singleton x long staircase under tensor_A: the tournament collapses
  // immediately and the whole combine runs in the vector endgame (the
  // leaf-fold shape that dominates bottom-up propagation).
  const Front single = Front::from_staircase({ValuePoint{0.0, 0.0}});
  const Front staircase =
      Front::from_staircase(keep_all_staircase(state.range(0)));
  FrontArena<ValuePoint> arena;
  for (auto _ : state) {
    Front acc = single;
    arena.combine_into(acc, staircase, AttackOp::Combine, dom, dom);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * staircase.size());
}
BENCHMARK(BM_CombineKWaySingleton)
    ->ArgsProduct({{1024, 16384}, {0, 1, 2}})
    ->ArgNames({"n", "simd"});

}  // namespace

/// BENCHMARK_MAIN plus CPU-feature context lines, so every --json report
/// records which ISA the numbers were measured on (the BENCH_*.json
/// trajectory spans machines with different vector units).
int main(int argc, char** argv) {
  const CpuFeatures features = detect_cpu_features();
  benchmark::AddCustomContext("cpu_sse2", features.sse2 ? "true" : "false");
  benchmark::AddCustomContext("cpu_avx2", features.avx2 ? "true" : "false");
  benchmark::AddCustomContext("cpu_avx512f",
                              features.avx512f ? "true" : "false");
  benchmark::AddCustomContext("simd_detected",
                              to_string(detected_simd_level()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
