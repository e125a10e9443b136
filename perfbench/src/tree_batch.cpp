/// tree_batch: repeated analyze_batch() calls at the default width
/// (BatchOptions{}: n_threads = 0, shared intra-model scheduler).
///
/// Pool, rebuilt from the seed in set-up: kBatches batches, each
/// kSmallTrees small random trees (30..120 nodes, at most 10 defenses),
/// two Fig. 4 staircases (n = 12..14) and kForests Fig. 4 forests
/// (kForestBlocks blocks of depth kForestN), shuffled. Auto sends every item to the
/// bottom-up walk: the small items expose per-call scheduler cost, the
/// heavy ones the k-way combine and SIMD kernels. Calls cycle through
/// the batches.
///
/// Outputs are checked item by item against a sequential
/// bottom_up_front() of the same model.

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/bottom_up.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "models.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace adtp;

namespace {

constexpr std::size_t kBatches = 6;
constexpr std::size_t kSmallTrees = 300;
constexpr std::size_t kWindowPasses = 15;  // ~2 s of calls
constexpr int kSetupRepeats = 5;
constexpr std::size_t kForestBlocks = 4;
constexpr std::size_t kForestN = 8;
/// Several small forests rather than one big one: with a single 4x9
/// forest each call's time depended on when a worker picked it up, and
/// the calls of one batch split into a 20 ms and a 34 ms mode.
constexpr std::size_t kForests = 4;

struct Batch {
  std::vector<AugmentedAdt> models;
  std::vector<BatchJob> jobs;     ///< point into models
  std::vector<Front> references;  ///< sequential bottom-up, per item
};

std::vector<Batch> make_pool(std::uint64_t seed) {
  std::vector<Batch> pool(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    Batch& batch = pool[b];
    Rng rng(derive_seed(seed, 3, b));
    for (std::size_t i = 0; i < kSmallTrees; ++i) {
      RandomAdtOptions options;
      options.target_nodes = 30 + rng.below(91);
      options.max_defenses = 10;
      batch.models.push_back(generate_random_aadt(
          options, rng(), Semiring::min_cost(), Semiring::min_cost()));
    }
    batch.models.push_back(
        catalog::fig4_exponential(12 + static_cast<int>(b % 3)));
    batch.models.push_back(
        catalog::fig4_exponential(12 + static_cast<int>((b + 1) % 3)));
    for (std::size_t f = 0; f < kForests; ++f) {
      batch.models.push_back(fig4_forest(kForestBlocks, kForestN));
    }
    std::shuffle(batch.models.begin(), batch.models.end(), rng);
    for (const AugmentedAdt& model : batch.models) {
      batch.jobs.push_back({&model, {}});
    }
  }
  return pool;
}

struct Phases {
  std::vector<double> call_ms;  ///< one per call, in pool order
  unsigned threads_used = 0;
  TaskRunStats sched;
};

/// Compares every item of \p report with the batch's references.
void check(const Batch& batch, const BatchReport& report, Outcome& out) {
  out.attempted += batch.jobs.size();
  for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
    const BatchItem& item = report.items[i];
    if (!item.ok) {
      out.mismatch("batch item " + std::to_string(i) + " failed: " +
                   item.error);
    } else if (!item.result.front.bit_identical_values(
                   batch.references[i])) {
      out.mismatch("batch item " + std::to_string(i) +
                   " front differs from sequential bottom-up");
    }
  }
}

/// analyze_batch() over the pool in whole passes until \p budget
/// seconds of wall time. Traced, each call is followed by the layer
/// replays, in spans booked to the call's span: a scheduler spawn +
/// teardown, and a sequential bottom_up_analyze() of every item (its
/// summed time is the kernel work the batch spread over its threads).
Phases measure(const std::vector<Batch>& pool, double budget, bool traced,
               Outcome& out, CombineStats& combine) {
  Phases phases;
  const BatchOptions options;
  const Clock::time_point begin = Clock::now();
  for (std::size_t i = 0; i % pool.size() != 0 ||
                          ms_between(begin, Clock::now()) / 1e3 < budget;
       ++i) {
    const Batch& batch = pool[i % pool.size()];
    BatchReport report;
    std::uint32_t call = 0;
    {
      Tracer::Scope span("core.batch", i);
      call = span.id();
      const Clock::time_point start = Clock::now();
      report = analyze_batch(std::span<const BatchJob>(batch.jobs), options);
      phases.call_ms.push_back(ms_between(start, Clock::now()));
    }
    phases.threads_used = report.threads_used;
    phases.sched += report.sched;
    check(batch, report, out);
    if (!traced) continue;
    {
      Tracer::Scope span("util.parallel.spawn", i, call);
      TaskScheduler scheduler(0);
    }
    for (const AugmentedAdt& model : batch.models) {
      Tracer::Scope span("core.bottom_up", i, call);
      const BottomUpReport item = bottom_up_analyze(model);
      const CombineStats& c = item.combine_stats;
      combine.points_examined += c.points_examined;
      combine.points_kept += c.points_kept;
      combine.simd_lanes_used += c.simd_lanes_used;
    }
  }
  return phases;
}

}  // namespace

Outcome run_tree_batch(const Config& config) {
  Outcome out;
  std::vector<Batch> pool;
  const double setup_s =
      timed_setup(kSetupRepeats, [&] { pool = make_pool(config.seed); });

  std::uint64_t digest = kDigestSeed;
  std::size_t max_nodes = 0;
  for (Batch& batch : pool) {
    for (const AugmentedAdt& model : batch.models) {
      batch.references.push_back(bottom_up_front(model));
      digest = digest_front(batch.references.back(), digest);
      max_nodes = std::max(max_nodes, model.adt().size());
    }
  }
  out.digest = hex(digest);
  out.notes.push_back(
      "pool: " + std::to_string(kBatches) + " batches of " +
      std::to_string(kSmallTrees) +
      " random trees (30..120 nodes) + fig4 n=12..14 x2 + " +
      std::to_string(kForests) + " fig4 forests " +
      std::to_string(kForestBlocks) + "x" + std::to_string(kForestN) +
      "; largest item " + std::to_string(max_nodes) + " nodes");

  CombineStats combine;
  (void)analyze_batch(std::span<const BatchJob>(pool.front().jobs),
                      BatchOptions{});  // spawn-once warm-up
  reset_peak_rss();
  const Phases plain = measure(
      pool, config.trace ? config.seconds / 2 : config.seconds, false, out,
      combine);
  const double peak_mb = peak_rss_mb();
  out.add("setup_s", "s", setup_s);
  std::vector<double> items;
  for (const Batch& batch : pool) {
    items.push_back(static_cast<double>(batch.jobs.size()));
  }
  out.add("throughput", "1/s", median_pass_rate(plain.call_ms, items));
  // Latency quantiles per window of kWindowPasses whole passes.
  const std::size_t window = kWindowPasses * pool.size();
  out.add("p50_ms", "ms", windowed_quantile(plain.call_ms, 0.5, window));
  out.add("p90_ms", "ms", windowed_quantile(plain.call_ms, 0.9, window));
  out.add("peak_rss_mb", "MB", peak_mb);
  out.notes.push_back("analyze_batch() per call: " +
                      describe_latency(plain.call_ms) + ", " +
                      std::to_string(plain.threads_used) + " threads");

  if (!config.trace) return out;

  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const Phases traced =
      measure(pool, config.seconds / 2, true, out, combine);
  tracer.set_enabled(false);

  const double calls = static_cast<double>(traced.call_ms.size());
  double batch_ms = 0;
  double spawn_ms = 0;
  double bottom_up_ms = 0;
  for (const auto& [name, totals] : tracer.totals()) {
    if (name == "core.batch") batch_ms = totals.total_ms / calls;
    if (name == "util.parallel.spawn") spawn_ms = totals.total_ms / calls;
    if (name == "core.bottom_up") bottom_up_ms = totals.total_ms / calls;
  }
  const double threads = static_cast<double>(traced.threads_used);
  out.add("core.batch_ms", "ms", batch_ms);
  out.add("core.bottom_up_ms", "ms", bottom_up_ms);
  out.add("util.parallel.spawn_ms", "ms", spawn_ms);
  out.add("util.parallel.threads_used", "count", threads);
  out.add("util.parallel.utilization", "ratio",
          bottom_up_ms / (batch_ms * threads));
  out.add("util.parallel.tasks", "count",
          static_cast<double>(traced.sched.tasks) / calls);
  out.add("util.parallel.steals", "count",
          static_cast<double>(traced.sched.steals) / calls);
  out.add("tree_batch.unattributed_ms", "ms",
          batch_ms - spawn_ms - bottom_up_ms / threads);
  out.add("core.pareto.points_examined", "count",
          static_cast<double>(combine.points_examined) / calls);
  out.add("core.pareto.keep_ratio", "ratio",
          combine.points_examined == 0
              ? 0.0
              : static_cast<double>(combine.points_kept) /
                    static_cast<double>(combine.points_examined));
  out.add("core.pareto.simd_lanes", "count",
          static_cast<double>(combine.simd_lanes_used) / calls);
  out.add("trace.overhead_pct", "%",
          100.0 * (quantile(traced.call_ms, 0.5) /
                       quantile(plain.call_ms, 0.5) -
                   1.0));
  add_self_times(out, calls, batch_ms);
  return out;
}

}  // namespace perfbench
