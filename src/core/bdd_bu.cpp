#include "core/bdd_bu.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "bdd/build.hpp"
#include "core/domains.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

namespace {

constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Aggregated diagnostics of one propagation, filled by the kernel (the
/// caller cannot read per-worker arenas itself).
struct PropagateCounters {
  std::size_t max_front_size = 0;
  std::size_t max_level_width = 0;
  CombineStats combine;
  TaskRunStats sched;
};

/// The per-domain-pair kernel of Algorithm 3 over a built BDD, generic in
/// the point payload; instantiated once per policy pair by
/// dispatch_domains().
///
/// Every nonterminal BDD node is one task whose dependencies are its
/// low/high children (terminal fronts are precomputed), writing a
/// disjoint front slot; the scheduler runs a node the moment both
/// children finished - no level barrier. A node's front is a pure
/// function of its children's fronts (the arenas are scratch only), so
/// the result is bit-identical for every thread count and for the
/// sequential path, which executes the same per-node computation in
/// reachable order (children first).
template <typename P, typename Dd, typename Da>
BasicFront<P> propagate_kernel(const AugmentedAdt& aadt, bdd::Manager& manager,
                               bdd::Ref root, const bdd::VarOrder& order,
                               PropagateCounters* counters,
                               const BddBuOptions& options,
                               TaskScheduler* pool, const Dd& dd,
                               const Da& da) {
  const std::size_t max_front_points = options.max_front_points;
  const Adt& adt = aadt.adt();
  const bool root_is_attack = adt.agent(adt.root()) == Agent::Attacker;
  const std::size_t num_d = adt.num_defenses();
  const std::size_t num_a = adt.num_attacks();

  auto make_point = [&](double def, double att) {
    P p;
    p.def = def;
    p.att = att;
    if constexpr (std::is_same_v<P, WitnessPoint>) {
      p.defense = BitVec(num_d);
      p.attack = BitVec(num_a);
    }
    return p;
  };

  // Alg. 3 lines 2-5: terminal fronts depend on the root agent - the
  // attacker's target leaf is 1 when tau(R_T) = A and 0 otherwise.
  const bdd::Ref attacker_target = root_is_attack ? bdd::kTrue : bdd::kFalse;

  // Dense slots for the reachable nodes: shared nodes are computed exactly
  // once (the memoization that gives O(|W| p^2)), and workers write
  // disjoint slots without synchronization beyond the dependency edges.
  const std::vector<bdd::Ref> reach = manager.reachable(root);
  std::vector<std::uint32_t> slot(manager.num_nodes(), kNoSlot);
  for (std::uint32_t i = 0; i < reach.size(); ++i) {
    slot[reach[i]] = i;
  }
  std::vector<BasicFront<P>> fronts(reach.size());

  const bool parallel = pool != nullptr && pool->threads() > 1;
  const unsigned workers = parallel ? pool->threads() : 1;

  // One arena per scheduler slot. The sequential value-front path may
  // borrow a caller-provided arena (persistent across batch items on one
  // worker thread); parallel runs - whose tasks can execute on any slot,
  // interleaved with other nested runs - and witness runs keep private
  // scratch.
  FrontArena<P> fallback_arena;
  FrontArena<P>* arena0 = &fallback_arena;
  if constexpr (std::is_same_v<P, ValuePoint>) {
    if (!parallel && options.arena != nullptr) arena0 = options.arena;
  }
  const CombineStats arena0_before = arena0->stats();
  std::vector<FrontArena<P>> extra_arenas(workers > 1 ? workers - 1 : 0);
  std::vector<std::size_t> max_p(workers, 0);

  // Terminal fronts up front; nonterminals become tasks. reachable()
  // returns children before parents, so the nonterminal order is itself
  // a valid topological order of the dependency DAG.
  std::vector<bdd::Ref> nonterms;
  nonterms.reserve(reach.size());
  std::vector<std::size_t> level_width(order.num_vars(), 0);
  for (bdd::Ref w : reach) {
    if (manager.is_terminal(w)) {
      const double att = (w == attacker_target) ? da.one() : da.zero();
      fronts[slot[w]] =
          BasicFront<P>::singleton(make_point(dd.one(), att));
    } else {
      ++level_width[manager.var(w)];
      nonterms.push_back(w);
    }
  }
  if (counters != nullptr) {
    for (const std::size_t width : level_width) {
      counters->max_level_width = std::max(counters->max_level_width, width);
    }
  }

  auto process_node = [&](unsigned worker, bdd::Ref w) {
    check_interrupt(options.deadline, options.cancel, "bdd_bu");
    const std::uint32_t v = manager.var(w);
    const NodeId leaf = order.node_of(v);
    const auto& low = fronts[slot[manager.low(w)]];
    const auto& high = fronts[slot[manager.high(w)]];

    if (!order.is_defense_var(v)) {
      // Alg. 3 lines 6-9: attack variable. Both child fronts are
      // singletons with defender coordinate 1_tensor_D (no defense
      // variable occurs below, by the defense-first order).
      if (low.size() != 1 || high.size() != 1) {
        throw Error(
            "bdd_bu: internal invariant violated - non-singleton front "
            "below an attack variable (is the order defense-first?)");
      }
      const P& p0 = low.front_point();
      const P& p1 = high.front_point();
      const double beta = aadt.attack_value(adt.attack_index(leaf));
      const double via_high = da.combine(beta, p1.att);
      P p = make_point(dd.one(), da.choose(p0.att, via_high));
      if constexpr (std::is_same_v<P, WitnessPoint>) {
        // The attacker takes the preferred branch; record its decisions.
        if (da.strictly_prefer(via_high, p0.att)) {
          p.attack = p1.attack;
          p.attack.set(adt.attack_index(leaf));
        } else {
          p.attack = p0.attack;
        }
      }
      fronts[slot[w]] = BasicFront<P>::singleton(std::move(p));
    } else {
      // Alg. 3 lines 10-14: defense variable. Either skip the defense
      // (low front) or buy it (high front shifted by beta_D). Shifting by
      // a constant via tensor_D preserves the staircase order, so the
      // union is a sorted merge - no re-sort.
      const double beta = aadt.defense_value(adt.defense_index(leaf));
      FrontArena<P>* arena =
          worker == 0 ? arena0 : &extra_arenas[worker - 1];
      auto front = arena->merged_transformed(
          low, high,
          [&](const P& q) {
            P shifted = q;
            shifted.def = dd.combine(beta, q.def);
            if constexpr (std::is_same_v<P, WitnessPoint>) {
              shifted.defense.set(adt.defense_index(leaf));
            }
            return shifted;
          },
          dd, da);
      if (max_front_points != 0 && front.size() > max_front_points) {
        throw LimitError("bdd_bu: intermediate front exceeds " +
                         std::to_string(max_front_points) + " points");
      }
      max_p[worker] = std::max(max_p[worker], front.size());
      fronts[slot[w]] = std::move(front);
    }
  };

  if (parallel) {
    // Granularity: a task per nonterminal drowns the scheduler in
    // bookkeeping wherever per-node work is tiny - attack-variable nodes
    // always carry singleton fronts, and on attack-heavy BDDs they are
    // the bulk of |W|. Estimate each node's front work (1 for terminals
    // and attack variables, capped child sum for defense variables) and
    // fold contiguous runs of the children-first order into one task
    // until the estimate reaches the grain budget. A chunk processes its
    // nodes in that same order, so the per-node computation is identical
    // to the sequential path and to every other grain: results stay
    // bit-identical (grain 1 reproduces the old task-per-node graph).
    const std::size_t grain =
        std::max<std::size_t>(1, options.task_grain_points);
    std::vector<std::size_t> est(reach.size(), 1);
    for (const bdd::Ref w : nonterms) {
      if (order.is_defense_var(manager.var(w))) {
        est[slot[w]] = std::min(
            grain, est[slot[manager.low(w)]] + est[slot[manager.high(w)]]);
      }
    }
    std::vector<std::uint32_t> chunk_begin;  // index into nonterms
    std::size_t acc = 0;
    for (std::uint32_t i = 0; i < nonterms.size(); ++i) {
      if (acc == 0) chunk_begin.push_back(i);
      acc += est[slot[nonterms[i]]];
      if (acc >= grain) acc = 0;
    }
    const std::uint32_t num_chunks =
        static_cast<std::uint32_t>(chunk_begin.size());
    auto chunk_end = [&](std::uint32_t c) {
      return c + 1 < num_chunks ? chunk_begin[c + 1]
                                : static_cast<std::uint32_t>(nonterms.size());
    };
    std::vector<std::uint32_t> chunk_of(manager.num_nodes(), kNoSlot);
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
      for (std::uint32_t i = chunk_begin[c]; i < chunk_end(c); ++i) {
        chunk_of[nonterms[i]] = c;
      }
    }
    auto body = [&](unsigned worker, std::uint32_t c) {
      for (std::uint32_t i = chunk_begin[c]; i < chunk_end(c); ++i) {
        process_node(worker, nonterms[i]);
      }
    };
    // Dependency edges point at the chunks holding the nodes' children
    // (always earlier chunks - the order is children-first; terminals
    // are already materialized above). last_dep deduplicates edges per
    // consuming chunk.
    TaskGraph graph;
    graph.reserve(num_chunks, 2 * num_chunks);
    std::vector<std::uint32_t> last_dep(num_chunks, kNoSlot);
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
      graph.add(body, c);
      for (std::uint32_t i = chunk_begin[c]; i < chunk_end(c); ++i) {
        const bdd::Ref w = nonterms[i];
        for (const bdd::Ref child : {manager.low(w), manager.high(w)}) {
          if (manager.is_terminal(child)) continue;
          const std::uint32_t producer = chunk_of[child];
          if (producer == c || last_dep[producer] == c) continue;
          last_dep[producer] = c;
          graph.depends(c, producer);
        }
      }
    }
    const TaskRunStats stats = pool->run(graph);
    if (counters != nullptr) counters->sched += stats;
  } else {
    for (bdd::Ref w : nonterms) process_node(0, w);
  }

  BasicFront<P>& root_front = fronts[slot[root]];
  if (counters != nullptr) {
    counters->max_front_size = root_front.size();
    for (std::size_t m : max_p) {
      counters->max_front_size = std::max(counters->max_front_size, m);
    }
    counters->combine = arena0->stats().since(arena0_before);
    for (const FrontArena<P>& a : extra_arenas) {
      counters->combine += a.stats();
    }
  }
  return std::move(root_front);
}

template <typename P>
BasicFront<P> propagate(const AugmentedAdt& aadt, bdd::Manager& manager,
                        bdd::Ref root, const bdd::VarOrder& order,
                        PropagateCounters* counters,
                        const BddBuOptions& options, TaskScheduler* pool) {
  return dispatch_domains(
      aadt.defender_domain(), aadt.attacker_domain(),
      [&](const auto& dd, const auto& da) {
        return propagate_kernel<P>(aadt, manager, root, order, counters,
                                   options, pool, dd, da);
      });
}

bdd::VarOrder resolve_order(const AugmentedAdt& aadt,
                            const BddBuOptions& options) {
  if (options.order.has_value()) return *options.order;
  return bdd::VarOrder::defense_first(aadt.adt(), options.order_heuristic,
                                      options.order_seed);
}

/// BDD managers below this many allocated nodes do not engage the pool
/// unless the ADT itself clears options.parallel_node_floor: their whole
/// propagation costs less than the per-node task bookkeeping.
constexpr std::size_t kMinBddNodesForPool = 4096;

/// The borrowed scheduler the propagation of a built BDD runs on, or
/// null for the sequential loop. A small ADT can still translate to a
/// huge BDD (the Fig. 4 family: 43 ADT nodes, ~3 * 2^n BDD nodes), so a
/// multi-slot pool engages when either the ADT or the manager is large.
TaskScheduler* propagation_pool(const AugmentedAdt& aadt,
                                const BddBuOptions& options,
                                std::size_t manager_nodes) {
  TaskScheduler* pool = options.pool;
  const bool large = aadt.adt().size() >= options.parallel_node_floor ||
                     manager_nodes >= kMinBddNodesForPool;
  return pool != nullptr && pool->threads() > 1 && large ? pool : nullptr;
}

}  // namespace

Front bdd_bu_front(const AugmentedAdt& aadt, const BddBuOptions& options) {
  return bdd_bu_analyze(aadt, options).front;
}

WitnessFront bdd_bu_front_witness(const AugmentedAdt& aadt,
                                  const BddBuOptions& options) {
  const bdd::VarOrder order = resolve_order(aadt, options);
  bdd::Manager manager(order.num_vars(), options.node_limit);
  check_interrupt(options.deadline, options.cancel, "bdd_bu");
  const bdd::Ref root =
      bdd::build_structure_function(manager, aadt.adt(), order);
  return propagate<WitnessPoint>(
      aadt, manager, root, order, nullptr, options,
      propagation_pool(aadt, options, manager.num_nodes()));
}

BddBuReport bdd_bu_analyze(const AugmentedAdt& aadt,
                           const BddBuOptions& options) {
  const bdd::VarOrder order = resolve_order(aadt, options);
  bdd::Manager manager(order.num_vars(), options.node_limit);

  BddBuReport report;
  check_interrupt(options.deadline, options.cancel, "bdd_bu");
  Stopwatch build_watch;
  const bdd::Ref root =
      bdd::build_structure_function(manager, aadt.adt(), order);
  report.build_seconds = build_watch.seconds();
  report.bdd_size = manager.size(root);
  report.manager_nodes = manager.num_nodes();
  TaskScheduler* pool = propagation_pool(aadt, options, report.manager_nodes);
  report.threads_used = pool != nullptr ? pool->threads() : 1;

  PropagateCounters counters;
  Stopwatch prop_watch;
  report.front = propagate<ValuePoint>(aadt, manager, root, order, &counters,
                                       options, pool);
  report.propagate_seconds = prop_watch.seconds();
  report.max_front_size = counters.max_front_size;
  report.combine_stats = counters.combine;
  report.max_level_width = counters.max_level_width;
  report.sched = counters.sched;
  return report;
}

Front bdd_bu_on_bdd(const AugmentedAdt& aadt, bdd::Manager& manager,
                    bdd::Ref root, const bdd::VarOrder& order) {
  const BddBuOptions options;
  return propagate<ValuePoint>(aadt, manager, root, order, nullptr, options,
                               nullptr);
}

}  // namespace adtp
