#include "core/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

namespace {

/// State shared by the item tasks of one analyze_batch() call.
struct BatchContext {
  std::span<const BatchJob> jobs;
  const BatchOptions& options;
  BatchReport& report;
  Deadline deadline;  ///< batch-wide; disabled when deadline_seconds <= 0
  /// The batch scheduler, lent to every item's intra-model phases.
  TaskScheduler& sched;

  /// Serializes completion bookkeeping and the on_item callback; also
  /// guards report.completion_order and report.callback_error.
  std::mutex stream_mutex;
  bool callback_failed = false;  ///< guarded by stream_mutex

  /// Latched when the batch deadline / cancel token actually affected an
  /// item (skip or in-flight abort). The report flags come from these,
  /// never from re-sampling the clock after the batch drained - a batch
  /// whose last item finished just inside the budget reports false even
  /// if the teardown crosses the line.
  std::atomic<bool> saw_deadline{false};
  std::atomic<bool> saw_cancel{false};

  BatchContext(std::span<const BatchJob> jobs_, const BatchOptions& options_,
               BatchReport& report_, TaskScheduler& sched_)
      : jobs(jobs_),
        options(options_),
        report(report_),
        deadline(options_.deadline_seconds),
        sched(sched_) {}
};

bool batch_cancelled(const BatchContext& ctx) {
  return ctx.options.cancel != nullptr && ctx.options.cancel->cancelled();
}

/// Copies the job's options and threads the batch-wide guards, the
/// slot's persistent arena, and the batch scheduler into every
/// per-algorithm slot that has not been explicitly set by the caller.
/// Precedence: a job that carries its own deadline/cancel pointer keeps
/// it for the in-flight phase (an explicit per-item guard is a
/// deliberate override); the batch-wide guards still gate that item's
/// *start* via the between-item checks.
AnalysisOptions instrument_options(const BatchContext& ctx,
                                   const AnalysisOptions& base,
                                   FrontArena<ValuePoint>& arena) {
  AnalysisOptions opts = base;
  const Deadline* deadline =
      ctx.options.deadline_seconds > 0 ? &ctx.deadline : nullptr;
  const CancelToken* cancel = ctx.options.cancel;
  auto inject = [&](const Deadline*& d, const CancelToken*& c) {
    if (d == nullptr) d = deadline;
    if (c == nullptr) c = cancel;
  };
  inject(opts.naive.deadline, opts.naive.cancel);
  inject(opts.bottom_up.deadline, opts.bottom_up.cancel);
  inject(opts.bdd.deadline, opts.bdd.cancel);
  inject(opts.hybrid.bdd.deadline, opts.hybrid.bdd.cancel);
  if (opts.bottom_up.arena == nullptr) opts.bottom_up.arena = &arena;
  if (opts.bdd.arena == nullptr) opts.bdd.arena = &arena;
  if (opts.hybrid.bdd.arena == nullptr) opts.hybrid.bdd.arena = &arena;
  // Shared-memo serving: every item consults one per-node front memo, so
  // edited variants of one model recompute only their dirty spines. The
  // memo is thread-safe and hit results are bit-identical, so injection
  // is invisible to the determinism guarantee above.
  if (ctx.options.memo != nullptr) {
    if (opts.bottom_up.memo == nullptr) opts.bottom_up.memo = ctx.options.memo;
    if (opts.hybrid.memo == nullptr) opts.hybrid.memo = ctx.options.memo;
  }
  // Scheduler sharing: lend the batch scheduler to every intra-model
  // parallel path, so an oversized item (a huge naive enumeration, one
  // giant tree or DAG) spreads over whatever slots are idle instead of
  // straggling on one - work stealing balances items against shards with
  // no hand-tuned split. Each path still applies its own work floors, so
  // small items run their cheap sequential kernels untouched. A pool the
  // job lent itself is kept.
  for (TaskScheduler** pool : {&opts.naive.pool, &opts.bottom_up.pool,
                               &opts.bdd.pool, &opts.hybrid.bdd.pool}) {
    if (*pool == nullptr) *pool = &ctx.sched;
  }
  return opts;
}

void run_item(BatchContext& ctx, const BatchJob& job, BatchItem& item,
              FrontArena<ValuePoint>& arena) {
  Stopwatch watch;
  // Between-items checks: claimed-but-unstarted work is shed the moment
  // the batch is cancelled or out of budget.
  if (batch_cancelled(ctx)) {
    ctx.saw_cancel.store(true, std::memory_order_relaxed);
    item.skipped = true;
    item.error = "analyze_batch: batch cancelled";
    item.seconds = watch.seconds();
    return;
  }
  if (ctx.deadline.expired()) {
    ctx.saw_deadline.store(true, std::memory_order_relaxed);
    item.skipped = true;
    item.error = "analyze_batch: batch deadline expired";
    item.seconds = watch.seconds();
    return;
  }
  try {
    if (job.model == nullptr) throw Error("analyze_batch: null model pointer");
    const AnalysisOptions opts = instrument_options(ctx, job.options, arena);
    FrontCache* cache = ctx.options.cache;
    if (cache != nullptr && cacheable(*job.model)) {
      // Single-flight: duplicated jobs in one batch (fleet scenarios,
      // sweeps with repeated points) analyze once; every other worker on
      // the key blocks on the computer and takes the published result as
      // a hit. The reservation MUST be resolved - publish on success,
      // abandon on any failure - or waiters hang.
      const FrontCacheKey key = front_cache_key(*job.model, opts);
      FrontCache::FlightLookup flight = cache->lookup_or_reserve(key);
      if (flight.result.has_value()) {
        item.result = std::move(*flight.result);
        item.cached = true;
        item.ok = true;
      } else {
        try {
          item.result = analyze(*job.model, opts);
        } catch (...) {
          cache->abandon(key);
          throw;
        }
        item.ok = true;
        cache->publish(key, item.result);
      }
    } else {
      item.result = analyze(*job.model, opts);
      item.ok = true;
    }
    if (!item.cached) {
      item.memo_hits = item.result.memo_hits;
      item.memo_misses = item.result.memo_misses;
    }
  } catch (const CancelledError& e) {
    // Attribute to the batch token only if it is the one that fired (the
    // job may carry its own).
    if (batch_cancelled(ctx)) {
      ctx.saw_cancel.store(true, std::memory_order_relaxed);
    }
    item.ok = false;
    item.error = e.what();
  } catch (const DeadlineError& e) {
    if (ctx.options.deadline_seconds > 0 && ctx.deadline.expired()) {
      ctx.saw_deadline.store(true, std::memory_order_relaxed);
    }
    item.ok = false;
    item.error = e.what();
  } catch (const std::exception& e) {
    item.ok = false;
    item.error = e.what();
  } catch (...) {
    // Custom Semiring hooks can throw anything; never let it escape an
    // item task (it would abort the whole batch graph).
    item.ok = false;
    item.error = "analyze_batch: non-standard exception";
  }
  item.seconds = watch.seconds();
}

/// Records the item's completion and streams it to the caller. One mutex
/// makes completion_order exactly the callback invocation order.
void finish_item(BatchContext& ctx, const BatchItem& item) {
  const std::lock_guard<std::mutex> lock(ctx.stream_mutex);
  ctx.report.completion_order.push_back(item.index);
  if (ctx.options.on_item && !ctx.callback_failed) {
    try {
      ctx.options.on_item(item);
    } catch (const std::exception& e) {
      ctx.callback_failed = true;
      ctx.report.callback_error = e.what();
    } catch (...) {
      ctx.callback_failed = true;
      ctx.report.callback_error = "analyze_batch: non-standard exception";
    }
  }
}

}  // namespace

BatchReport analyze_batch(std::span<const BatchJob> jobs,
                          const BatchOptions& options) {
  BatchReport report;
  report.items.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) report.items[i].index = i;
  report.completion_order.reserve(jobs.size());

  Stopwatch watch;
  TaskScheduler sched(static_cast<unsigned>(
      std::min<std::size_t>(resolve_thread_knob(options.n_threads),
                            std::max<std::size_t>(1, jobs.size()))));
  report.threads_used = sched.threads();
  BatchContext ctx(jobs, options, report, sched);

  // One arena per scheduler slot, alive for the whole batch: combine
  // buffers recycle across every item a slot processes, not just within
  // one analysis. Item tasks are the only users (intra-model parallel
  // kernels keep private arenas), and a slot runs one item at a time,
  // so the arenas are never shared.
  std::vector<FrontArena<ValuePoint>> arenas(sched.threads());
  auto body = [&](unsigned slot, std::uint32_t i) {
    BatchItem& item = report.items[i];
    run_item(ctx, jobs[i], item, arenas[slot]);
    finish_item(ctx, item);
  };
  TaskGraph graph;
  graph.reserve(jobs.size());
  for (std::uint32_t i = 0; i < jobs.size(); ++i) graph.add(body, i);
  // run_item/finish_item capture every exception, so the graph cannot
  // abort.
  report.sched = sched.run(graph);

  report.seconds = watch.seconds();
  report.deadline_expired =
      ctx.saw_deadline.load(std::memory_order_relaxed);
  report.cancelled = ctx.saw_cancel.load(std::memory_order_relaxed);

  for (const BatchItem& item : report.items) {
    if (!item.ok) ++report.failures;
    if (item.skipped) ++report.skipped;
    if (item.cached) ++report.cache_hits;
    report.memo_hits += item.memo_hits;
    report.memo_misses += item.memo_misses;
  }
  return report;
}

BatchReport analyze_batch(const std::vector<BatchJob>& jobs,
                          const BatchOptions& options) {
  return analyze_batch(std::span<const BatchJob>(jobs), options);
}

BatchReport analyze_batch(const std::vector<AugmentedAdt>& models,
                          const AnalysisOptions& analysis,
                          const BatchOptions& options) {
  std::vector<BatchJob> jobs;
  jobs.reserve(models.size());
  for (const AugmentedAdt& model : models) {
    jobs.push_back(BatchJob{&model, analysis});
  }
  return analyze_batch(std::span<const BatchJob>(jobs), options);
}

}  // namespace adtp
