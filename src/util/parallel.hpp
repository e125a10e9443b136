/// \file parallel.hpp
/// \brief The work-stealing task-DAG scheduler shared by every parallel
///        path in the system (batch items, naive shards, bottom-up
///        sibling folds, BDD build/propagate tasks).
///
/// One primitive replaces the old run_sharded()/barrier-WorkerPool pair:
/// a TaskScheduler executes TaskGraphs - explicit DAGs of tasks with
/// dependency edges - with per-task atomic remaining-dependency counters
/// and per-worker Chase-Lev deques. A task whose last dependency
/// completes is pushed onto the completing worker's own deque (LIFO, so
/// continuations run depth-first and hot); idle workers steal from the
/// opposite end of other workers' deques (FIFO, so thieves take the
/// oldest - widest - work). There are no level barriers anywhere: a node
/// becomes runnable the instant its children finish, which is what lets
/// sibling subtree folds, narrow BDD levels, and whole batch items share
/// one pool without idling it.
///
/// Reentrancy (the property the old WorkerPool lacked): run() may be
/// called from *inside* a running task. The nested graph's seeds go onto
/// the calling worker's own deque and the worker helps execute them -
/// restricted to tasks of the graph it is waiting on, so the stack depth
/// is bounded by the nesting depth of graphs, never by the number of
/// queued sibling tasks. This is how a batch item's intra-model phases
/// (naive shards, BDD tasks, bottom-up folds) run on the batch
/// scheduler.
///
/// Determinism contract (see docs/CONTRACTS.md): the scheduler decides
/// only *where and when* tasks run, never what they compute. Every
/// caller writes task results to disjoint slots and fixes its fold/merge
/// shapes up front, so fronts AND witnesses are bit-identical for every
/// thread count; scheduler knobs therefore never enter the FrontCache
/// key. Only which of several concurrently-raised exceptions wins can
/// vary (ties break toward the smallest task id among those that threw),
/// and every such exception abandons the whole analysis anyway.
///
/// External drivers without a slot serialize on an internal mutex: a
/// scheduler may be driven from any thread, but concurrent top-level
/// run() calls from different threads queue up rather than interleave.
/// Tasks submitting nested graphs are never subject to that (they
/// already own a slot).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace adtp {

/// Resolves a user-facing thread-count knob: 0 means "all hardware
/// threads" - overridable via the ADTP_THREADS environment variable
/// (read once; values < 1 or non-numeric are ignored) - and anything
/// else is taken literally.
[[nodiscard]] unsigned resolve_thread_knob(unsigned requested);

/// Counters of one TaskScheduler::run() call, surfaced through the
/// analysis reports so benches can see how the DAG actually executed.
struct TaskRunStats {
  std::uint64_t tasks = 0;   ///< tasks executed (graph size)
  std::uint64_t steals = 0;  ///< tasks acquired from another slot's deque
  /// Deepest any slot's ready deque got while the run was in flight -
  /// a proxy for how much parallelism the DAG exposed at once.
  std::size_t max_ready_depth = 0;

  TaskRunStats& operator+=(const TaskRunStats& o) {
    tasks += o.tasks;
    steals += o.steals;
    max_ready_depth = max_ready_depth > o.max_ready_depth
                          ? max_ready_depth
                          : o.max_ready_depth;
    return *this;
  }
};

/// An explicit task DAG: tasks are (function pointer, context, arg)
/// triples - no per-task allocation - and depends() edges order them.
/// Build the graph, then hand it to TaskScheduler::run(); the graph is
/// read-only during the run and reusable afterwards.
///
/// The templated add() overload binds a reference to a caller-owned
/// callable shared by many tasks (the per-task \p arg distinguishes
/// them); the callable must outlive the run() call, which is trivially
/// true because run() is synchronous.
class TaskGraph {
 public:
  using TaskId = std::uint32_t;
  using TaskFn = void (*)(void* ctx, unsigned slot, std::uint32_t arg);

  /// Adds a task; tasks with no depends() edges are initially ready.
  /// Ids are dense and assigned in add() order.
  TaskId add(TaskFn fn, void* ctx, std::uint32_t arg = 0) {
    tasks_.push_back(TaskSpec{fn, ctx, arg});
    return static_cast<TaskId>(tasks_.size() - 1);
  }

  /// Adds a task calling body(slot, arg) on a caller-owned callable.
  template <typename F>
  TaskId add(F& body, std::uint32_t arg = 0) {
    return add(
        [](void* ctx, unsigned slot, std::uint32_t a) {
          (*static_cast<F*>(ctx))(slot, a);
        },
        &body, arg);
  }

  /// Declares that \p task may only start after \p on completed.
  void depends(TaskId task, TaskId on) { edges_.emplace_back(on, task); }

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }
  void reserve(std::size_t tasks, std::size_t edges = 0) {
    tasks_.reserve(tasks);
    if (edges != 0) edges_.reserve(edges);
  }
  void clear() {
    tasks_.clear();
    edges_.clear();
  }

 private:
  friend class TaskScheduler;
  struct TaskSpec {
    TaskFn fn;
    void* ctx;
    std::uint32_t arg;
  };
  std::vector<TaskSpec> tasks_;
  /// (before, after) pairs; turned into CSR dependent lists per run.
  std::vector<std::pair<TaskId, TaskId>> edges_;
};

/// The work-stealing pool. The first run() spawns threads - 1 workers
/// (the driving thread always executes as one more slot), so building a
/// scheduler that never runs a graph costs no thread; destruction joins
/// them. Slot ids are dense in [0, threads()): 0 is reserved for
/// external drivers, 1.. are the spawned workers - callers size
/// per-slot scratch (arenas, partial results) by threads() and index it
/// by the slot id their tasks receive.
///
/// Only the analysis entry points - analyze() and analyze_batch() -
/// construct schedulers; every kernel borrows the caller's through its
/// options' \c pool pointer, where null means sequential.
class TaskScheduler {
 public:
  /// A scheduler of \p threads execution slots (0 resolves like every
  /// other thread knob). Thread-creation failures degrade the pool
  /// silently: the slots whose worker failed to spawn never see a task.
  explicit TaskScheduler(unsigned threads);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Execution slots, the driving thread included.
  [[nodiscard]] unsigned threads() const noexcept;

  /// Runs every task of \p graph respecting its dependency edges and
  /// returns when all completed. Callable from any thread - including
  /// from inside a running task (the nested graph shares the workers).
  /// Throws Error on a dependency cycle (detected up front, nothing
  /// runs). If tasks throw, the graph still drains (pending tasks are
  /// skipped, not abandoned) and the exception of the smallest-id
  /// throwing task is rethrown.
  TaskRunStats run(const TaskGraph& graph);

  /// Convenience fan-out of the old parallel_for shape: runs fn(slot,
  /// index) for every index in [0, count), \p grain consecutive indices
  /// per task, as one dependency-free graph.
  TaskRunStats parallel_for(std::size_t count, std::size_t grain,
                            const std::function<void(unsigned, std::size_t)>& fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs fn(shard, begin, end) over a contiguous partition of [0, total)
/// into exactly \p shards pieces. Shard results must index by the shard
/// id (stable, scheduling-independent), not the slot id. With a null
/// \p pool the shards run in order on the calling thread. Exceptions
/// rethrow by the smallest shard index, like the scheduler itself.
template <typename Fn>
void run_sharded(TaskScheduler* pool, unsigned shards, std::uint64_t total,
                 Fn&& fn) {
  if (shards <= 1) {
    fn(0u, std::uint64_t{0}, total);
    return;
  }
  const std::uint64_t base = total / shards;
  const std::uint64_t rem = total % shards;
  auto bound = [base, rem](std::uint64_t s) {
    return base * s + std::min<std::uint64_t>(s, rem);
  };
  if (pool == nullptr) {
    for (unsigned s = 0; s < shards; ++s) fn(s, bound(s), bound(s + 1));
    return;
  }
  auto body = [&](unsigned, std::uint32_t s) {
    fn(static_cast<unsigned>(s), bound(s), bound(std::uint64_t{s} + 1));
  };
  TaskGraph graph;
  graph.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) graph.add(body, s);
  pool->run(graph);
}

}  // namespace adtp
