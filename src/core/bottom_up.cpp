#include "core/bottom_up.hpp"

#include <algorithm>
#include <type_traits>

#include "core/domains.hpp"
#include "core/node_memo.hpp"
#include "util/error.hpp"

namespace adtp {

AttackOp attack_op(GateType gate, Agent agent) {
  switch (gate) {
    case GateType::And:
      return agent == Agent::Attacker ? AttackOp::Combine : AttackOp::Choose;
    case GateType::Or:
      return agent == Agent::Attacker ? AttackOp::Choose : AttackOp::Combine;
    case GateType::Inhibit:
      return agent == Agent::Attacker ? AttackOp::Combine : AttackOp::Choose;
    case GateType::BasicStep:
      break;
  }
  throw ModelError("attack_op: basic steps have no combination operator");
}

namespace {

template <typename P, typename Dd, typename Da>
P attack_leaf_point(const AugmentedAdt& aadt, NodeId id, const Dd& dd,
                    const Da&) {
  const std::size_t index = aadt.adt().attack_index(id);
  P p;
  p.def = dd.one();
  p.att = aadt.attack_value(index);
  if constexpr (std::is_same_v<P, WitnessPoint>) {
    p.defense = BitVec(aadt.adt().num_defenses());
    p.attack = BitVec(aadt.adt().num_attacks());
    p.attack.set(index);
  }
  return p;
}

template <typename P, typename Dd, typename Da>
std::vector<P> defense_leaf_points(const AugmentedAdt& aadt, NodeId id,
                                   const Dd& dd, const Da& da) {
  const std::size_t index = aadt.adt().defense_index(id);
  // Inactive: costs nothing, and "defeating" it is free for the attacker.
  P off;
  off.def = dd.one();
  off.att = da.one();
  // Active: costs beta_D, and a bare BDS cannot be defeated.
  P on;
  on.def = aadt.defense_value(index);
  on.att = da.zero();
  if constexpr (std::is_same_v<P, WitnessPoint>) {
    off.defense = BitVec(aadt.adt().num_defenses());
    off.attack = BitVec(aadt.adt().num_attacks());
    on.defense = off.defense;
    on.attack = off.attack;
    on.defense.set(index);
  }
  return {std::move(off), std::move(on)};
}

/// One node of Algorithm 1: leaves materialize their fronts, gates fold
/// their children's fronts left to right (Alg. 1 lines 7-9; pruning
/// after every combination is lossless by Lemma 2). Shared verbatim by
/// the sequential walk and every parallel task, so the fold shape -
/// and with it the result, bit for bit - cannot depend on scheduling.
template <typename P, typename Dd, typename Da>
void compute_node(const AugmentedAdt& aadt, NodeId v,
                  std::vector<BasicFront<P>>& fronts, FrontArena<P>& arena,
                  std::size_t& max_p, const BottomUpOptions& options,
                  const Dd& dd, const Da& da) {
  check_interrupt(options.deadline, options.cancel, "bottom_up");
  const Adt& adt = aadt.adt();
  const Node& n = adt.node(v);
  if (n.type == GateType::BasicStep) {
    if (n.agent == Agent::Attacker) {
      fronts[v] =
          BasicFront<P>::singleton(attack_leaf_point<P>(aadt, v, dd, da));
    } else {
      fronts[v] = BasicFront<P>::minimized(
          defense_leaf_points<P>(aadt, v, dd, da), dd, da);
    }
    return;
  }
  const AttackOp op = attack_op(n.type, n.agent);
  BasicFront<P> acc = fronts[n.children[0]];
  for (std::size_t i = 1; i < n.children.size(); ++i) {
    arena.combine_into(acc, fronts[n.children[i]], op, dd, da);
    if (options.max_front_points != 0 &&
        acc.size() > options.max_front_points) {
      throw LimitError("bottom_up: intermediate front exceeds " +
                       std::to_string(options.max_front_points) +
                       " points at node '" + n.name + "'");
    }
  }
  max_p = std::max(max_p, acc.size());
  fronts[v] = std::move(acc);
}

/// Parallelism diagnostics of one run, filled by the parallel kernel
/// (the caller cannot read the per-slot arenas itself).
struct BuCounters {
  unsigned threads_used = 1;
  TaskRunStats sched;
  CombineStats combine;
  bool combine_valid = false;  ///< true iff the parallel kernel filled it
};

/// The dirty-spine plan of one memoized run: which nodes were preloaded
/// from the NodeFrontMemo and which must be computed. Built once on the
/// caller thread; both kernels consume it. When the memo is off (or the
/// model is not memoizable) the plan degenerates to "compute everything"
/// and store() is a no-op, so the kernels have a single code path.
template <typename P>
struct MemoPlan {
  NodeFrontMemo* memo = nullptr;
  std::vector<NodeMemoKey> keys;  ///< per NodeId; empty when memo off
  std::vector<NodeId> order;      ///< nodes to compute, topological
  NodeMemoStats stats;

  /// Preloads memo hits into \p fronts, marks the dirty spine, and
  /// returns the topological compute order. Only nodes reachable from a
  /// missing ancestor are visited: a hit prunes its whole subtree.
  static MemoPlan build(const AugmentedAdt& aadt,
                        const BottomUpOptions& options,
                        std::vector<BasicFront<P>>& fronts) {
    MemoPlan plan;
    const Adt& adt = aadt.adt();
    if (options.memo == nullptr || options.memo->capacity() == 0 ||
        !memoizable(aadt)) {
      plan.order = adt.topological_order();
      return plan;
    }
    plan.memo = options.memo;
    const std::vector<std::uint64_t> subtree = subtree_value_hashes(aadt);
    const std::uint64_t context =
        bottom_up_memo_context(aadt, options.max_front_points);
    std::uint64_t layout_root = 0;
    std::vector<std::uint64_t> layout;
    if constexpr (std::is_same_v<P, WitnessPoint>) {
      layout = subtree_layout_hashes(adt);
    }
    plan.keys.resize(adt.size());
    for (NodeId v = 0; v < adt.size(); ++v) {
      if constexpr (std::is_same_v<P, WitnessPoint>) {
        layout_root = layout[v];
      }
      plan.keys[v] = NodeMemoKey{subtree[v], context, layout_root};
    }
    // Descend from the root through lookup misses: a gate that hits is
    // materialized from the memo and its subtree never visited; leaves
    // are always computed (cheaper to rebuild than to look up).
    enum : char { kUnvisited = 0, kCompute = 1, kPreloaded = 2 };
    std::vector<char> state(adt.size(), kUnvisited);
    std::vector<NodeId> stack{adt.root()};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      if (state[v] != kUnvisited) continue;
      const Node& n = adt.node(v);
      if (n.type != GateType::BasicStep &&
          plan.memo->template lookup<P>(plan.keys[v], fronts[v])) {
        state[v] = kPreloaded;
        ++plan.stats.hits;
        continue;
      }
      state[v] = kCompute;
      if (n.type != GateType::BasicStep) {
        ++plan.stats.misses;
        for (NodeId c : n.children) stack.push_back(c);
      }
    }
    for (NodeId v : adt.topological_order()) {
      if (state[v] == kCompute) plan.order.push_back(v);
    }
    return plan;
  }

  /// Memoizes a freshly computed gate front. Thread-safe; called from
  /// worker tasks by the parallel kernel.
  void store(const AugmentedAdt& aadt, NodeId v,
             const BasicFront<P>& front) const {
    if (memo == nullptr) return;
    if (aadt.adt().type(v) == GateType::BasicStep) return;
    memo->template insert<P>(keys[v], front);
  }

  void publish(const BottomUpOptions& options) const {
    if (options.memo_stats != nullptr) *options.memo_stats = stats;
  }
};

/// The sequential kernel of Algorithm 1; instantiated once per policy
/// pair by dispatch_domains(), so combine/prefer inline with no dispatch
/// in the merge loops. The FrontArena recycles buffers across all merges.
template <typename P, typename Dd, typename Da>
std::vector<BasicFront<P>> bottom_up_kernel(const AugmentedAdt& aadt,
                                            const BottomUpOptions& options,
                                            std::size_t* max_front_size,
                                            const Dd& dd, const Da& da) {
  const Adt& adt = aadt.adt();
  // Value-front runs may borrow a caller-provided arena (analyze_batch
  // hands every worker thread one that persists across batch items, so
  // buffer recycling spans the batch); witness runs keep a private one.
  FrontArena<P> local_arena;
  FrontArena<P>* arena = &local_arena;
  if constexpr (std::is_same_v<P, ValuePoint>) {
    if (options.arena != nullptr) arena = options.arena;
  }
  std::size_t max_p = 0;
  std::vector<BasicFront<P>> fronts(adt.size());
  const MemoPlan<P> plan = MemoPlan<P>::build(aadt, options, fronts);
  for (NodeId v : plan.order) {
    compute_node(aadt, v, fronts, *arena, max_p, options, dd, da);
    plan.store(aadt, v, fronts[v]);
  }
  plan.publish(options);
  if (max_front_size != nullptr) *max_front_size = max_p;
  return fronts;
}

/// The parallel kernel: one task per node, edges gate -> child, so
/// sibling subtrees fold concurrently and a gate starts the instant its
/// last child finishes. Tasks write disjoint front slots and use
/// private per-slot arenas (the caller's arena is never touched - it is
/// not safe under the scheduler's task interleaving).
template <typename P, typename Dd, typename Da>
std::vector<BasicFront<P>> bottom_up_parallel_kernel(
    const AugmentedAdt& aadt, const BottomUpOptions& options,
    TaskScheduler& pool, std::size_t* max_front_size, BuCounters* counters,
    const Dd& dd, const Da& da) {
  const Adt& adt = aadt.adt();
  const unsigned workers = pool.threads();
  std::vector<FrontArena<P>> arenas(workers);
  std::vector<std::size_t> max_p(workers, 0);
  std::vector<BasicFront<P>> fronts(adt.size());

  const MemoPlan<P> plan = MemoPlan<P>::build(aadt, options, fronts);
  auto body = [&](unsigned slot, std::uint32_t v) {
    compute_node(aadt, static_cast<NodeId>(v), fronts, arenas[slot],
                 max_p[slot], options, dd, da);
    plan.store(aadt, static_cast<NodeId>(v), fronts[v]);
  };
  // One task per node of the dirty spine (every node when the memo is
  // off), added in topological order; dependency edges make each gate
  // wait for its still-dirty children (preloaded children are already
  // materialized). The per-node fold shape is compute_node either way,
  // so memoization never changes what a computed node computes.
  std::vector<std::uint32_t> task_of(adt.size(), 0xFFFFFFFFu);
  TaskGraph graph;
  graph.reserve(plan.order.size(), plan.order.size());
  for (std::uint32_t i = 0; i < plan.order.size(); ++i) {
    task_of[plan.order[i]] = i;
    graph.add(body, static_cast<std::uint32_t>(plan.order[i]));
  }
  for (std::uint32_t i = 0; i < plan.order.size(); ++i) {
    for (NodeId c : adt.node(plan.order[i]).children) {
      if (task_of[c] != 0xFFFFFFFFu) {
        graph.depends(static_cast<TaskGraph::TaskId>(i),
                      static_cast<TaskGraph::TaskId>(task_of[c]));
      }
    }
  }
  const TaskRunStats stats = pool.run(graph);
  plan.publish(options);

  std::size_t max_p_all = 0;
  for (std::size_t m : max_p) max_p_all = std::max(max_p_all, m);
  if (max_front_size != nullptr) *max_front_size = max_p_all;
  if (counters != nullptr) {
    counters->threads_used = workers;
    counters->sched += stats;
    for (const FrontArena<P>& a : arenas) counters->combine += a.stats();
    counters->combine_valid = true;
  }
  return fronts;
}

template <typename P>
std::vector<BasicFront<P>> bottom_up_all(
    const AugmentedAdt& aadt, const BottomUpOptions& options,
    std::size_t* max_front_size = nullptr, BuCounters* counters = nullptr) {
  if (!aadt.adt().is_tree()) {
    throw ModelError(
        "bottom_up: the ADT is DAG-shaped (a node has multiple parents); "
        "the Bottom-Up algorithm is only sound for trees - use "
        "bdd_bu_front() or transform the model with unfold_to_tree()");
  }
  // Engage the scheduler only when more than one slot is on offer and
  // the tree clears the floor; otherwise the plain walk wins.
  TaskScheduler* pool = options.pool;
  const bool parallel = pool != nullptr && pool->threads() > 1 &&
                        aadt.adt().size() >= options.parallel_node_floor;
  return dispatch_domains(
      aadt.defender_domain(), aadt.attacker_domain(),
      [&](const auto& dd, const auto& da) {
        if (parallel) {
          return bottom_up_parallel_kernel<P>(aadt, options, *pool,
                                              max_front_size, counters, dd,
                                              da);
        }
        return bottom_up_kernel<P>(aadt, options, max_front_size, dd, da);
      });
}

}  // namespace

Front bottom_up_front(const AugmentedAdt& aadt,
                      const BottomUpOptions& options) {
  auto fronts = bottom_up_all<ValuePoint>(aadt, options);
  return std::move(fronts[aadt.adt().root()]);
}

BottomUpReport bottom_up_analyze(const AugmentedAdt& aadt,
                                 const BottomUpOptions& options) {
  BottomUpReport report;
  // Stats live on the arenas. The parallel kernel sums its private slot
  // arenas; the sequential path attributes by snapshot so a batch-shared
  // arena reports only this run's work.
  FrontArena<ValuePoint> local_arena;
  BottomUpOptions opts = options;
  if (opts.arena == nullptr) opts.arena = &local_arena;
  NodeMemoStats memo_stats;
  if (opts.memo_stats == nullptr) opts.memo_stats = &memo_stats;
  const CombineStats before = opts.arena->stats();
  BuCounters counters;
  Stopwatch watch;
  auto fronts = bottom_up_all<ValuePoint>(aadt, opts, &report.max_front_size,
                                          &counters);
  report.seconds = watch.seconds();
  report.memo_hits = opts.memo_stats->hits;
  report.memo_misses = opts.memo_stats->misses;
  report.combine_stats = counters.combine_valid
                             ? counters.combine
                             : opts.arena->stats().since(before);
  report.threads_used = counters.threads_used;
  report.sched = counters.sched;
  report.front = std::move(fronts[aadt.adt().root()]);
  return report;
}

WitnessFront bottom_up_front_witness(const AugmentedAdt& aadt,
                                     const BottomUpOptions& options) {
  auto fronts = bottom_up_all<WitnessPoint>(aadt, options);
  return std::move(fronts[aadt.adt().root()]);
}

std::vector<Front> bottom_up_all_fronts(const AugmentedAdt& aadt,
                                        const BottomUpOptions& options) {
  return bottom_up_all<ValuePoint>(aadt, options);
}

}  // namespace adtp
