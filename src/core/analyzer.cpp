#include "core/analyzer.hpp"

#include <optional>

#include "core/node_memo.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::Auto:
      return "auto";
    case Algorithm::Naive:
      return "naive";
    case Algorithm::BottomUp:
      return "bottom-up";
    case Algorithm::BddBu:
      return "bdd-bu";
    case Algorithm::Hybrid:
      return "hybrid";
  }
  return "?";
}

AnalysisResult analyze(const AugmentedAdt& aadt,
                       const AnalysisOptions& options) {
  Algorithm algorithm = options.algorithm;
  if (algorithm == Algorithm::Auto) {
    algorithm =
        aadt.adt().is_tree() ? Algorithm::BottomUp : Algorithm::BddBu;
  }

  AnalysisResult result;
  result.used = algorithm;
  NodeMemoStats memo_stats;
  Stopwatch watch;
  // The call's own scheduler, lent to the resolved kernel unless the
  // caller lent one already.
  std::optional<TaskScheduler> scheduler;
  auto lend = [&](TaskScheduler*& pool) {
    if (pool == nullptr && options.intra_model_threads > 1) {
      pool = &scheduler.emplace(options.intra_model_threads);
    }
  };
  switch (algorithm) {
    case Algorithm::Naive: {
      NaiveOptions naive = options.naive;
      lend(naive.pool);
      result.front = naive_front(aadt, naive);
      break;
    }
    case Algorithm::BottomUp: {
      BottomUpOptions bottom_up = options.bottom_up;
      lend(bottom_up.pool);
      if (bottom_up.memo_stats == nullptr) bottom_up.memo_stats = &memo_stats;
      result.front = bottom_up_front(aadt, bottom_up);
      result.memo_hits = bottom_up.memo_stats->hits;
      result.memo_misses = bottom_up.memo_stats->misses;
      break;
    }
    case Algorithm::BddBu: {
      BddBuOptions bdd = options.bdd;
      lend(bdd.pool);
      result.front = bdd_bu_front(aadt, bdd);
      break;
    }
    case Algorithm::Hybrid: {
      HybridOptions hybrid = options.hybrid;
      lend(hybrid.bdd.pool);
      if (hybrid.memo_stats == nullptr) hybrid.memo_stats = &memo_stats;
      result.front = hybrid_front(aadt, hybrid);
      result.memo_hits = hybrid.memo_stats->hits;
      result.memo_misses = hybrid.memo_stats->misses;
      break;
    }
    case Algorithm::Auto:
      throw Error("analyze: unresolved Auto algorithm");
  }
  result.seconds = watch.seconds();
  return result;
}

AnalysisResult analyze_incremental(const AugmentedAdt& aadt,
                                   NodeFrontMemo& memo,
                                   const AnalysisOptions& options) {
  AnalysisOptions opts = options;
  if (opts.algorithm == Algorithm::Auto) {
    // Resolve here instead of deferring to analyze(): the incremental
    // DAG path is Hybrid (BddBu has no per-node memo - its BDD nodes are
    // not ADT subtrees).
    opts.algorithm =
        aadt.adt().is_tree() ? Algorithm::BottomUp : Algorithm::Hybrid;
  }
  if (opts.bottom_up.memo == nullptr) opts.bottom_up.memo = &memo;
  if (opts.hybrid.memo == nullptr) opts.hybrid.memo = &memo;
  return analyze(aadt, opts);
}

}  // namespace adtp
