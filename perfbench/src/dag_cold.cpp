/// dag_cold: analyze() with default options (Auto -> BDD-BU, one thread)
/// over a pool of DAG-shaped models, one model at a time.
///
/// Pool, rebuilt from the seed in set-up, then screened once (untimed)
/// against the per-model budget:
///  - a fixed suite of kSuiteDraws.size() random DAGs from the paper's
///    appendix recipe (gen/random_adt.hpp: 100..400 target nodes, share
///    0.2, at most 16 defenses). Their BDD cost is heavy-tailed - one
///    400-node draw took 6.5M manager nodes and 49 s - so the suite
///    holds one draw per 2^(1/3) slot of build operations (screen_ops)
///    from 2^11 to 2^19, the per-model budget. Drawing structures per
///    seed moved throughput by 10-20 % between seeds, so the structures
///    are fixed (as the paper's test suite is) and the seed draws their
///    attributions;
///  - the counter-countered ANDp-of-ORp family (models.hpp) at the (m, k)
///    pairs of kFamily, m = 5..8 (m = 10 with k = 2 allocates 2.4M
///    manager nodes and takes 6 s, far over the budget); the seed draws
///    their costs.
/// Each measured stretch runs whole passes over the pool in a seeded
/// order, so every model carries the same weight in every run.
///
/// Outputs are checked against hybrid_front(), an independent kernel.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bdd/build.hpp"
#include "bdd/manager.hpp"
#include "bdd/order.hpp"
#include "core/analyzer.hpp"
#include "core/hybrid.hpp"
#include "gen/random_adt.hpp"
#include "models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace adtp;

namespace {

/// Draw indices of the suite under derive_seed(kSuiteSeed, 1, draw):
/// the first DAG draw landing in each 2^(1/3) slot of build operations
/// from 2^11 to 2^19, found by screening draws 0..186 with screen_ops().
constexpr std::uint64_t kSuiteSeed = 1;
constexpr std::uint32_t kSuiteDraws[] = {6,  1,  9,  49, 61,  14, 62, 19,
                                         0,  70, 20, 52, 12,  42, 26, 186,
                                         27, 58, 24, 13, 2,   40, 10, 29};
constexpr std::size_t kMinOps = std::size_t{1} << 11;
constexpr std::size_t kMaxOps = std::size_t{1} << 19;  // per-model budget
constexpr std::size_t kWindowPasses = 3;  // ~2 s of calls
/// Generating the pool takes ~15 ms, so set-up is timed often enough for
/// its median to hold still.
constexpr int kSetupRepeats = 15;
struct FamilySize {
  int m;
  int k;
};
constexpr FamilySize kFamily[] = {{5, 2}, {5, 3}, {6, 2}, {6, 3}, {6, 4},
                                  {7, 2}, {7, 3}, {7, 4}, {8, 3}, {8, 4},
                                  {8, 5}};
/// 24 suite DAGs + 11 family members = 35 models: with whole passes the
/// p50 and p90 of the calls then fall mid-way into one model's calls
/// (17.5 and 31.5 of 35), not on the edge between two models, where the
/// quantile would be one extreme call.

struct DagModel {
  std::string label;
  AugmentedAdt model;
  Front reference;  ///< hybrid_front(), filled by the check pass
};

/// The table operations of building \p model's structure function
/// under the default order - unique-table lookups (hits plus new nodes)
/// and computed-cache lookups (hits plus misses) - or 0 when the build
/// allocates more than \p limit nodes. Build time follows this count far
/// more closely than the node count alone.
std::size_t screen_ops(const Adt& adt, std::size_t limit) {
  const bdd::VarOrder order = bdd::VarOrder::defense_first(adt);
  bdd::Manager manager(order.num_vars(), limit);
  try {
    (void)bdd::build_structure_function(manager, adt, order);
  } catch (const LimitError&) {
    return 0;
  }
  const bdd::ManagerStats stats = manager.stats();
  return stats.num_nodes + stats.unique_hits + stats.cache_hits +
         stats.cache_misses;
}

std::vector<DagModel> make_pool(std::uint64_t seed) {
  std::vector<DagModel> pool;
  for (const std::uint32_t draw : kSuiteDraws) {
    const std::uint64_t structure_seed = derive_seed(kSuiteSeed, 1, draw);
    Rng rng(structure_seed);
    RandomAdtOptions options;
    options.target_nodes = 100 + rng.below(301);
    options.share_probability = 0.2;
    options.max_defenses = 16;
    Adt adt = generate_random_adt(options, structure_seed);
    Attribution beta =
        random_attribution(adt, Semiring::min_cost(), Semiring::min_cost(),
                           derive_seed(seed, 1, draw));
    const std::string label = "random_dag_" + std::to_string(adt.size());
    pool.push_back({label, AugmentedAdt(std::move(adt), std::move(beta),
                                        Semiring::min_cost(),
                                        Semiring::min_cost()),
                    {}});
  }
  for (const FamilySize& f : kFamily) {
    pool.push_back(
        {"cc_m" + std::to_string(f.m) + "_k" + std::to_string(f.k),
         counter_countered(f.m, f.k, derive_seed(seed, 2, pool.size())), {}});
  }
  std::shuffle(pool.begin(), pool.end(), Rng(derive_seed(seed, 3, 0)));
  return pool;
}

/// Throws unless every model fits the per-model budget; a changed
/// generator would need a new suite.
void check_budget(const std::vector<DagModel>& pool) {
  for (const DagModel& item : pool) {
    const std::size_t ops = screen_ops(item.model.adt(), kMaxOps / 2);
    if (ops == 0 || ops >= kMaxOps ||
        (item.label.rfind("random_dag_", 0) == 0 && ops < kMinOps)) {
      throw Error("dag_cold: " + item.label + " is outside the budget of " +
                  std::to_string(kMinOps) + ".." + std::to_string(kMaxOps) +
                  " build operations");
    }
  }
}

/// analyze() over the pool in whole passes until \p budget seconds of
/// wall time; every front is compared with the reference after its
/// call. Traced, each call is followed by its phases replayed through
/// their public entry points - variable order, manager + build,
/// propagation, manager teardown - in spans booked to the call's span,
/// so analyze() minus the phases is what no phase times. Returns every
/// call's time, in pool order.
std::vector<double> measure(const std::vector<DagModel>& pool, double budget,
                            bool traced, Outcome& out,
                            bdd::ManagerStats& manager_totals) {
  std::vector<double> call_ms;
  const AnalysisOptions options;
  const Clock::time_point begin = Clock::now();
  for (std::size_t i = 0; i % pool.size() != 0 ||
                          ms_between(begin, Clock::now()) / 1e3 < budget;
       ++i) {
    const DagModel& item = pool[i % pool.size()];
    Front front;
    std::uint32_t call = 0;
    {
      Tracer::Scope span("core.analyze", i);
      call = span.id();
      const Clock::time_point start = Clock::now();
      front = analyze(item.model, options).front;
      call_ms.push_back(ms_between(start, Clock::now()));
    }
    ++out.attempted;
    if (!front.bit_identical_values(item.reference)) {
      out.mismatch(item.label + ": analyze() front differs from hybrid");
    }
    if (!traced) continue;
    std::optional<bdd::VarOrder> order;
    {
      Tracer::Scope span("bdd.order", i, call);
      order = bdd::VarOrder::defense_first(item.model.adt());
    }
    std::unique_ptr<bdd::Manager> manager;
    bdd::Ref root = bdd::kFalse;
    {
      Tracer::Scope span("bdd.build", i, call);
      manager = std::make_unique<bdd::Manager>(order->num_vars());
      root = bdd::build_structure_function(*manager, item.model.adt(), *order);
    }
    const bdd::ManagerStats stats = manager->stats();
    manager_totals.num_nodes += stats.num_nodes;
    manager_totals.unique_hits += stats.unique_hits;
    manager_totals.cache_hits += stats.cache_hits;
    manager_totals.cache_misses += stats.cache_misses;
    Front replayed;
    {
      Tracer::Scope span("core.bdd_bu.propagate", i, call);
      replayed = bdd_bu_on_bdd(item.model, *manager, root, *order);
    }
    {
      Tracer::Scope span("bdd.teardown", i, call);
      manager.reset();
    }
    if (!replayed.bit_identical_values(item.reference)) {
      out.mismatch(item.label + ": replayed BDD-BU front differs");
    }
  }
  return call_ms;
}

}  // namespace

Outcome run_dag_cold(const Config& config) {
  Outcome out;
  std::vector<DagModel> pool;
  const double setup_s =
      timed_setup(kSetupRepeats, [&] { pool = make_pool(config.seed); });
  check_budget(pool);

  // Check pass, outside every timed region: the reference fronts come
  // from the hybrid kernel (modular decomposition, BDDs per module).
  std::uint64_t digest = kDigestSeed;
  std::size_t min_nodes = ~std::size_t{0};
  std::size_t max_nodes = 0;
  std::string family;
  for (const FamilySize& f : kFamily) {
    family += " (" + std::to_string(f.m) + "," + std::to_string(f.k) + ")";
  }
  for (DagModel& item : pool) {
    item.reference = hybrid_front(item.model);
    digest = digest_front(item.reference, digest);
    if (item.label.rfind("random_dag_", 0) == 0) {
      min_nodes = std::min(min_nodes, item.model.adt().size());
      max_nodes = std::max(max_nodes, item.model.adt().size());
    }
  }
  out.digest = hex(digest);
  out.notes.push_back(
      "pool: " + std::to_string(std::size(kSuiteDraws)) + " random DAGs (" +
      std::to_string(min_nodes) + ".." + std::to_string(max_nodes) +
      " nodes, one per 2^(1/3) slot of 2^11..2^19 BDD build operations) + " +
      "counter-countered ANDp-of-ORp at (m,k)" + family);

  bdd::ManagerStats manager_totals;
  (void)analyze(pool.front().model);  // fault in code and allocator
  reset_peak_rss();
  const std::vector<double> plain =
      measure(pool, config.trace ? config.seconds / 2 : config.seconds, false,
              out, manager_totals);
  const double peak_mb = peak_rss_mb();
  out.add("setup_s", "s", setup_s);
  out.add("throughput", "1/s",
          median_pass_rate(plain, std::vector<double>(pool.size(), 1.0)));
  // Latency quantiles per window of kWindowPasses whole passes.
  const std::size_t window = kWindowPasses * pool.size();
  out.add("p50_ms", "ms", windowed_quantile(plain, 0.5, window));
  out.add("p90_ms", "ms", windowed_quantile(plain, 0.9, window));
  out.add("peak_rss_mb", "MB", peak_mb);
  out.notes.push_back("analyze() per model: " +
                      describe_latency(plain));
  if (!config.trace) return out;

  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const std::vector<double> traced =
      measure(pool, config.seconds / 2, true, out, manager_totals);
  tracer.set_enabled(false);

  const auto traced_calls = static_cast<double>(traced.size());
  std::map<std::string, double> per_call;
  for (const auto& [name, totals] : tracer.totals()) {
    per_call[name] = totals.total_ms / traced_calls;
  }
  const double analyze_ms = per_call["core.analyze"];
  const double order_ms = per_call["bdd.order"];
  const double build_ms = per_call["bdd.build"];
  const double propagate_ms = per_call["core.bdd_bu.propagate"];
  const double teardown_ms = per_call["bdd.teardown"];
  out.add("core.analyze_ms", "ms", analyze_ms);
  out.add("bdd.order_ms", "ms", order_ms);
  out.add("bdd.build_ms", "ms", build_ms);
  out.add("bdd.teardown_ms", "ms", teardown_ms);
  out.add("core.bdd_bu.propagate_ms", "ms", propagate_ms);
  out.add("dag_cold.unattributed_ms", "ms",
          analyze_ms - order_ms - build_ms - propagate_ms - teardown_ms);
  const auto nodes = static_cast<double>(manager_totals.num_nodes);
  const auto unique_hits = static_cast<double>(manager_totals.unique_hits);
  const auto cache_hits = static_cast<double>(manager_totals.cache_hits);
  const auto lookups =
      cache_hits + static_cast<double>(manager_totals.cache_misses);
  out.add("bdd.manager_nodes", "count", nodes / traced_calls);
  out.add("bdd.unique_hit_ratio", "ratio",
          unique_hits / (unique_hits + nodes));
  out.add("bdd.cache_hit_ratio", "ratio",
          lookups > 0 ? cache_hits / lookups : 0.0);
  // The largest intermediate front is a kernel counter analyze() drops;
  // one BDD-BU report per pool model recovers it, untimed.
  std::size_t max_front = 0;
  for (const DagModel& item : pool) {
    max_front = std::max(max_front, bdd_bu_analyze(item.model).max_front_size);
  }
  out.add("core.max_front_points", "count", static_cast<double>(max_front));
  out.add("trace.overhead_pct", "%",
          100.0 * (quantile(traced, 0.5) /
                       quantile(plain, 0.5) -
                   1.0));
  add_self_times(out, traced_calls, analyze_ms);
  return out;
}

}  // namespace perfbench
