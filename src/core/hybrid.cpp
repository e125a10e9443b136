#include "core/hybrid.hpp"

#include "adt/modules.hpp"
#include "adt/transform.hpp"
#include "core/bottom_up.hpp"
#include "core/domains.hpp"
#include "core/node_memo.hpp"

namespace adtp {

namespace {

/// The per-domain-pair hybrid walker; instantiated by dispatch_domains()
/// so tree-style combines run on the static policies (blobs delegate to
/// bdd_bu_front, which dispatches on the sub-AADT itself).
template <typename Dd, typename Da>
struct HybridState {
  const AugmentedAdt& aadt;
  const HybridOptions& options;
  const ModuleInfo& modules;
  const Dd& dd;
  const Da& da;
  HybridReport& report;
  FrontArena<ValuePoint>* arena;

  /// True iff gate \p v can be combined tree-style: every child is a
  /// single-parent module and the children's descendant sets are pairwise
  /// disjoint (so their basic steps - and thus their strategy choices -
  /// are independent).
  bool children_are_independent(NodeId v) {
    const Adt& adt = aadt.adt();
    const auto& children = adt.children(v);
    for (NodeId c : children) {
      if (adt.parents(c).size() != 1) return false;
      if (!modules.is_module[c]) return false;
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      for (std::size_t j = i + 1; j < children.size(); ++j) {
        if (modules.descendants[children[i]].intersects(
                modules.descendants[children[j]])) {
          return false;
        }
      }
    }
    return true;
  }

  Front leaf_front(NodeId v) {
    const Adt& adt = aadt.adt();
    if (adt.agent(v) == Agent::Attacker) {
      return Front::singleton(
          ValuePoint{dd.one(), aadt.attack_value(adt.attack_index(v))});
    }
    return Front::minimized(
        {ValuePoint{dd.one(), da.one()},
         ValuePoint{aadt.defense_value(adt.defense_index(v)), da.zero()}},
        dd, da);
  }

  Front blob_front(NodeId v) {
    // Sharing reaches into this subtree: analyze the whole sub-DAG with
    // BDDBU (Theorem 2 applies to the sub-AADT as its own model). The
    // blob inherits the BDDBU options - including the borrowed scheduler
    // - and its report counters fold into the hybrid's.
    const AugmentedAdt sub = extract_subgraph(aadt, v);
    ++report.blob_count;
    report.largest_blob = std::max(report.largest_blob, sub.adt().size());
    // The blob may route some combines through the shared arena (its
    // worker 0) and some through private worker arenas; its report sums
    // them all, while the hybrid's final arena delta counts the shared
    // part again. Track the shared part to subtract it once at the end.
    const CombineStats arena_before = arena->stats();
    BddBuReport blob = bdd_bu_analyze(sub, options.bdd);
    blob_arena_overlap += arena->stats().since(arena_before);
    blob_combines += blob.combine_stats;
    report.bdd_threads_used =
        std::max(report.bdd_threads_used, blob.threads_used);
    report.bdd_max_level_width =
        std::max(report.bdd_max_level_width, blob.max_level_width);
    report.bdd_sched += blob.sched;
    return std::move(blob.front);
  }

  CombineStats blob_combines{};       ///< summed blob report counters
  CombineStats blob_arena_overlap{};  ///< blob work that hit the shared arena

  /// Per-node front memo; populated by hybrid_analyze when
  /// options.memo is set and the model is memoizable.
  NodeFrontMemo* memo = nullptr;
  std::vector<std::uint64_t> memo_subtree{};  ///< subtree content hashes
  std::uint64_t memo_context = 0;
  NodeMemoStats memo_stats{};

  Front front(NodeId v) {
    // The per-blob guards live in options.bdd and are honored inside
    // bdd_bu_front; this check covers the tree-style walk between blobs.
    check_interrupt(options.bdd.deadline, options.bdd.cancel, "hybrid");
    const Adt& adt = aadt.adt();
    if (adt.type(v) == GateType::BasicStep) return leaf_front(v);

    // A memo hit replays the gate's (or whole blob's) front and prunes
    // its entire subtree from the walk - the dirty spine of an edit is
    // the only part that recomputes. Replay is bit-identical: the key
    // covers everything the front is a function of (node_memo.hpp).
    NodeMemoKey key;
    if (memo != nullptr) {
      key = NodeMemoKey{memo_subtree[v], memo_context, 0};
      Front replayed;
      if (memo->lookup(key, replayed)) {
        ++memo_stats.hits;
        return replayed;
      }
      ++memo_stats.misses;
    }

    Front acc;
    if (!children_are_independent(v)) {
      acc = blob_front(v);
    } else {
      const AttackOp op = attack_op(adt.type(v), adt.agent(v));
      const auto& children = adt.children(v);
      acc = front(children[0]);
      for (std::size_t i = 1; i < children.size(); ++i) {
        const Front child = front(children[i]);
        arena->combine_into(acc, child, op, dd, da);
      }
      ++report.tree_combines;
    }
    if (memo != nullptr) memo->insert(key, acc);
    return acc;
  }
};

}  // namespace

Front hybrid_front(const AugmentedAdt& aadt, const HybridOptions& options) {
  return hybrid_analyze(aadt, options).front;
}

HybridReport hybrid_analyze(const AugmentedAdt& aadt,
                            const HybridOptions& options) {
  const ModuleInfo modules = compute_modules(aadt.adt());
  HybridReport report;
  // The tree-style combines and the per-blob BDDBU runs interleave on one
  // thread, so sharing one caller-provided arena between them is safe.
  FrontArena<ValuePoint> local_arena;
  FrontArena<ValuePoint>* arena =
      options.bdd.arena != nullptr ? options.bdd.arena : &local_arena;
  const CombineStats before = arena->stats();
  CombineStats blob_combines;
  CombineStats blob_arena_overlap;
  report.front = dispatch_domains(
      aadt.defender_domain(), aadt.attacker_domain(),
      [&](const auto& dd, const auto& da) {
        HybridState state{aadt, options, modules, dd, da, report, arena};
        if (options.memo != nullptr && options.memo->capacity() != 0 &&
            memoizable(aadt)) {
          state.memo = options.memo;
          state.memo_subtree = subtree_value_hashes(aadt);
          state.memo_context = hybrid_memo_context(aadt, options.bdd);
        }
        Front front = state.front(aadt.adt().root());
        blob_combines = state.blob_combines;
        blob_arena_overlap = state.blob_arena_overlap;
        report.memo_hits = state.memo_stats.hits;
        report.memo_misses = state.memo_stats.misses;
        if (options.memo_stats != nullptr) {
          *options.memo_stats = state.memo_stats;
        }
        return front;
      });
  // The arena delta covers the tree-style combines plus whatever blob
  // work ran on the shared arena; the blob reports cover all blob work.
  // Summing both and subtracting the overlap counts everything once.
  CombineStats total = arena->stats().since(before);
  total += blob_combines;
  report.combine_stats = total.since(blob_arena_overlap);
  return report;
}

}  // namespace adtp
