#include "util/parallel.hpp"

#include <bit>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>

#include "util/error.hpp"

namespace adtp {

unsigned resolve_thread_knob(unsigned requested) {
  if (requested != 0) return requested;
  static const unsigned resolved = [] {
    if (const char* env = std::getenv("ADTP_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) {
        return static_cast<unsigned>(std::min<long>(v, 4096));
      }
    }
    return std::max(1u, std::thread::hardware_concurrency());
  }();
  return resolved;
}

namespace {

struct RunBatch;

/// A ready task as it travels through the deques: a stable handle into
/// the owning run's handle array (one pointer per deque entry, so the
/// Chase-Lev slots stay single atomic words).
struct ReadyTask {
  RunBatch* batch;
  std::uint32_t id;
};

/// Per-run state of one TaskScheduler::run() call. Lives on the driving
/// thread's stack; every worker touching it is drained before run()
/// returns (remaining only hits 0 after the last task's bookkeeping).
struct RunBatch {
  const TaskGraph* graph = nullptr;
  std::unique_ptr<std::atomic<std::uint32_t>[]> deps;  ///< remaining deps
  std::vector<std::uint32_t> out;        ///< CSR dependent lists
  std::vector<std::uint32_t> out_begin;  ///< size() + 1 offsets
  std::unique_ptr<ReadyTask[]> handles;
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> abort{false};

  std::mutex error_mutex;
  std::uint32_t error_task = UINT32_MAX;  ///< guarded by error_mutex
  std::exception_ptr error;               ///< guarded by error_mutex

  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::size_t> max_depth{0};

  /// Whether \p task is one of this run's handles, decided from its
  /// address alone: a thief may hold a pointer it has not yet won, whose
  /// run can finish and free the handles at any moment, so the test
  /// must never dereference it.
  [[nodiscard]] bool owns(const ReadyTask* task) const {
    const auto p = reinterpret_cast<std::uintptr_t>(task);
    const auto lo = reinterpret_cast<std::uintptr_t>(handles.get());
    return p >= lo && p - lo < graph->size() * sizeof(ReadyTask);
  }
};

/// Chase-Lev work-stealing deque over ReadyTask pointers. The owner
/// pushes and pops at the bottom (LIFO); thieves take from the top
/// (FIFO). top/bottom use seq_cst operations rather than standalone
/// fences - the original Chase-Lev formulation - because TSan models
/// atomic operations exactly but not fence-based synchronization, and
/// the scheduler stress test runs under TSan in CI. Slot entries are
/// atomics (release-published, acquire-consumed) so the task handle's
/// fields are visible to the thief that wins the CAS.
class Deque {
 public:
  Deque() : ring_(new Ring(kInitialLog)) {}
  ~Deque() {
    delete ring_.load(std::memory_order_relaxed);
    for (Ring* r : retired_) delete r;
  }
  Deque(const Deque&) = delete;
  Deque& operator=(const Deque&) = delete;

  /// Owner only.
  void push(ReadyTask* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = ring_.load(std::memory_order_relaxed);
    if (b - t >= ring->capacity()) ring = grow(ring, t, b);
    ring->slot(b).store(task, std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only. Returns the most recently pushed task, or nullptr.
  ReadyTask* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // empty: restore
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Ring* ring = ring_.load(std::memory_order_relaxed);
    ReadyTask* task = ring->slot(b).load(std::memory_order_relaxed);
    if (t != b) return task;  // more than one entry: no race possible
    // Last entry: race the thieves for it via the top counter.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      task = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return task;
  }

  /// Thieves. Takes the oldest task, or returns nullptr when the deque
  /// is empty - or when \p filter is set and the oldest task belongs to
  /// a different run (a waiter helping only the graph it waits on skips
  /// this victim; unfiltered workers will get it). The entry is only
  /// dereferenced after the CAS wins it: until then its owner may pop
  /// and run it, and its run may return and free it.
  ReadyTask* steal(const RunBatch* filter) {
    while (true) {
      std::int64_t t = top_.load(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
      if (t >= b) return nullptr;
      Ring* ring = ring_.load(std::memory_order_acquire);
      ReadyTask* task = ring->slot(t).load(std::memory_order_acquire);
      if (filter != nullptr && !filter->owns(task)) return nullptr;
      if (top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       std::memory_order_seq_cst)) {
        return task;
      }
      // Contended with another thief (who made progress): retry, so a
      // lost CAS never reports a non-empty deque as empty.
    }
  }

  /// Owner-side size estimate for the max_ready_depth counter.
  [[nodiscard]] std::size_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  struct Ring {
    explicit Ring(unsigned log)
        : mask((std::int64_t{1} << log) - 1),
          slots(new std::atomic<ReadyTask*>[std::size_t{1} << log]) {}
    [[nodiscard]] std::int64_t capacity() const { return mask + 1; }
    [[nodiscard]] std::atomic<ReadyTask*>& slot(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i & mask)];
    }
    std::int64_t mask;
    std::unique_ptr<std::atomic<ReadyTask*>[]> slots;
  };

  /// Owner only. Doubles the ring; the old one is retired, not freed,
  /// because a thief may still be reading through its pointer (entries
  /// in [top, bottom) keep their values, so such reads stay valid and
  /// the CAS on top_ rejects any that went stale).
  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Ring(
        static_cast<unsigned>(std::countr_zero(
            static_cast<std::uint64_t>(old->capacity()))) + 1);
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    ring_.store(bigger, std::memory_order_release);
    retired_.push_back(old);
    return bigger;
  }

  static constexpr unsigned kInitialLog = 6;  // 64 entries
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_;
  std::vector<Ring*> retired_;  ///< owner only; freed at destruction
};

}  // namespace

struct TaskScheduler::Impl {
  explicit Impl(unsigned threads)
      : deques(resolve_thread_knob(threads)),
        num_slots(static_cast<unsigned>(deques.size())) {}

  /// Spawns the workers, once, at the first run() that has tasks - so a
  /// scheduler whose callers all stay under their work floors costs no
  /// thread. If a spawn fails, the unspawned slots keep forever-empty
  /// deques the steal sweep skims past (only a slot's own thread ever
  /// pushes to it), and the spawned slots run everything.
  void spawn_workers() {
    std::call_once(spawned, [this] {
      workers.reserve(num_slots - 1);
      for (unsigned slot = 1; slot < num_slots; ++slot) {
        try {
          workers.emplace_back([this, slot] { worker_loop(slot); });
        } catch (const std::system_error&) {
          break;  // keep whatever did spawn
        }
      }
    });
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      shutdown = true;
      epoch.fetch_add(1, std::memory_order_seq_cst);
    }
    wake.notify_all();
    for (std::thread& t : workers) t.join();
  }

  /// One frame of the thread-local binding stack: which slot of which
  /// scheduler the current thread is executing as. Nested run() calls -
  /// and tasks running private schedulers of their own - push frames.
  struct SlotBinding {
    Impl* impl;
    unsigned slot;
    SlotBinding* prev;
  };
  static thread_local SlotBinding* tls_top;

  [[nodiscard]] SlotBinding* find_binding() const {
    for (SlotBinding* b = tls_top; b != nullptr; b = b->prev) {
      if (b->impl == this) return b;
    }
    return nullptr;
  }

  /// Cheap per-call xorshift for the steal sweep's starting victim; the
  /// sweep order affects load balance only, never results.
  [[nodiscard]] static unsigned mix(unsigned slot) {
    thread_local std::uint32_t state = 0x9E3779B9u ^ (slot + 1);
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  }

  void push_ready(unsigned slot, ReadyTask* task) {
    Deque& d = deques[slot];
    d.push(task);
    const std::size_t depth = d.size_estimate();
    std::atomic<std::size_t>& max_depth = task->batch->max_depth;
    std::size_t seen = max_depth.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth.compare_exchange_weak(seen, depth,
                                            std::memory_order_relaxed)) {
    }
    epoch.fetch_add(1, std::memory_order_seq_cst);
    if (idle.load(std::memory_order_seq_cst) > 0) {
      // Lock so the notify cannot slip between a sleeper's predicate
      // check and its wait; the contended all-busy case skips this.
      const std::lock_guard<std::mutex> lock(mutex);
      wake.notify_all();
    }
  }

  /// Own deque first (LIFO depth-first), then one steal sweep. A waiter
  /// passes the batch it waits on as \p filter and both paths skip
  /// foreign tasks - a foreign own-deque bottom is pushed straight back
  /// (it belongs to an outer frame of this same thread and surfaces
  /// again when that frame resumes; thieves can still take it from the
  /// top meanwhile).
  ReadyTask* find_task(unsigned slot, const RunBatch* filter) {
    if (ReadyTask* task = deques[slot].pop()) {
      if (filter == nullptr || filter->owns(task)) return task;
      deques[slot].push(task);
    }
    const unsigned start = mix(slot) % num_slots;
    for (unsigned k = 0; k < num_slots; ++k) {
      const unsigned victim = (start + k) % num_slots;
      if (victim == slot) continue;
      if (ReadyTask* task = deques[victim].steal(filter)) {
        task->batch->steals.fetch_add(1, std::memory_order_relaxed);
        return task;
      }
    }
    return nullptr;
  }

  void execute(ReadyTask* task, unsigned slot) {
    RunBatch& batch = *task->batch;
    const TaskGraph& graph = *batch.graph;
    if (!batch.abort.load(std::memory_order_relaxed)) {
      const TaskGraph::TaskSpec& spec = graph.tasks_[task->id];
      try {
        spec.fn(spec.ctx, slot, spec.arg);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(batch.error_mutex);
          if (!batch.error || task->id < batch.error_task) {
            batch.error = std::current_exception();
            batch.error_task = task->id;
          }
        }
        batch.abort.store(true, std::memory_order_relaxed);
      }
    }
    // Release the dependents; the graph drains even under abort so the
    // driver can safely tear the batch down.
    const std::uint32_t begin = batch.out_begin[task->id];
    const std::uint32_t end = batch.out_begin[task->id + 1];
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t dep = batch.out[e];
      if (batch.deps[dep].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        push_ready(slot, &batch.handles[dep]);
      }
    }
    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        epoch.fetch_add(1, std::memory_order_seq_cst);
      }
      wake.notify_all();
    }
  }

  /// Sleeps until the epoch moves past \p seen (sampled before the scan
  /// that came up empty, so a push between sample and sleep wakes us
  /// immediately) or shutdown.
  void idle_wait(std::uint64_t seen) {
    std::unique_lock<std::mutex> lock(mutex);
    idle.fetch_add(1, std::memory_order_seq_cst);
    wake.wait(lock, [&] {
      return shutdown || epoch.load(std::memory_order_seq_cst) != seen;
    });
    idle.fetch_sub(1, std::memory_order_relaxed);
  }

  void worker_loop(unsigned slot) {
    SlotBinding scope{this, slot, nullptr};
    tls_top = &scope;
    while (true) {
      const std::uint64_t seen = epoch.load(std::memory_order_seq_cst);
      if (ReadyTask* task = find_task(slot, nullptr)) {
        execute(task, slot);
        continue;
      }
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (shutdown) break;
        idle.fetch_add(1, std::memory_order_seq_cst);
        wake.wait(lock, [&] {
          return shutdown || epoch.load(std::memory_order_seq_cst) != seen;
        });
        idle.fetch_sub(1, std::memory_order_relaxed);
        if (shutdown) break;
      }
    }
    tls_top = nullptr;
  }

  /// Seeds the batch's initially-ready tasks onto \p slot's deque - in
  /// reverse id order, so the LIFO owner executes them in ascending id
  /// order like a sequential loop would - then helps until the batch
  /// drains, running only this batch's tasks (see find_task).
  void drive(RunBatch& batch, unsigned slot) {
    const std::size_t n = batch.graph->size();
    for (std::size_t i = n; i-- > 0;) {
      const auto id = static_cast<std::uint32_t>(i);
      if (batch.deps[id].load(std::memory_order_relaxed) == 0) {
        push_ready(slot, &batch.handles[id]);
      }
    }
    while (batch.remaining.load(std::memory_order_acquire) != 0) {
      const std::uint64_t seen = epoch.load(std::memory_order_seq_cst);
      if (ReadyTask* task = find_task(slot, &batch)) {
        execute(task, slot);
        continue;
      }
      if (batch.remaining.load(std::memory_order_acquire) == 0) break;
      idle_wait(seen);
    }
  }

  TaskRunStats run(const TaskGraph& graph) {
    TaskRunStats stats;
    const std::size_t n = graph.size();
    if (n == 0) return stats;
    if (n > UINT32_MAX - 1) {
      throw Error("TaskScheduler: graph exceeds 2^32 - 2 tasks");
    }

    RunBatch batch;
    batch.graph = &graph;
    batch.deps.reset(new std::atomic<std::uint32_t>[n]);
    for (std::size_t i = 0; i < n; ++i) {
      batch.deps[i].store(0, std::memory_order_relaxed);
    }
    batch.out_begin.assign(n + 1, 0);
    for (const auto& [before, after] : graph.edges_) {
      if (before >= n || after >= n) {
        throw Error("TaskScheduler: dependency edge references task " +
                    std::to_string(std::max(before, after)) + " of " +
                    std::to_string(n));
      }
      ++batch.out_begin[before + 1];
      batch.deps[after].fetch_add(1, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < n; ++i) {
      batch.out_begin[i + 1] += batch.out_begin[i];
    }
    batch.out.resize(graph.edges_.size());
    {
      std::vector<std::uint32_t> cursor(batch.out_begin.begin(),
                                        batch.out_begin.end() - 1);
      for (const auto& [before, after] : graph.edges_) {
        batch.out[cursor[before]++] = after;
      }
    }
    // Kahn pass: a cyclic graph would hang the drain loop, so reject it
    // before anything runs. O(V + E) in plain integers - noise next to
    // the graph build itself.
    {
      std::vector<std::uint32_t> scratch(n);
      std::vector<std::uint32_t> ready;
      ready.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        scratch[i] = batch.deps[i].load(std::memory_order_relaxed);
        if (scratch[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
      }
      std::size_t seen = 0;
      while (!ready.empty()) {
        const std::uint32_t id = ready.back();
        ready.pop_back();
        ++seen;
        for (std::uint32_t e = batch.out_begin[id];
             e < batch.out_begin[id + 1]; ++e) {
          if (--scratch[batch.out[e]] == 0) ready.push_back(batch.out[e]);
        }
      }
      if (seen != n) {
        throw Error("TaskScheduler: the task graph contains a dependency "
                    "cycle");
      }
    }
    batch.handles.reset(new ReadyTask[n]);
    for (std::size_t i = 0; i < n; ++i) {
      batch.handles[i] = ReadyTask{&batch, static_cast<std::uint32_t>(i)};
    }
    batch.remaining.store(n, std::memory_order_relaxed);

    spawn_workers();
    if (SlotBinding* nested = find_binding()) {
      drive(batch, nested->slot);
    } else {
      // Top-level external driver: serialize on slot 0. Concurrent
      // drivers queue here instead of interleaving - a deliberate
      // constraint that keeps every runnable graph reachable from some
      // slot (see the file comment in parallel.hpp).
      const std::lock_guard<std::mutex> external(external_mutex);
      SlotBinding scope{this, 0, tls_top};
      tls_top = &scope;
      try {
        drive(batch, 0);
      } catch (...) {
        tls_top = scope.prev;
        throw;
      }
      tls_top = scope.prev;
    }

    stats.tasks = n;
    stats.steals = batch.steals.load(std::memory_order_relaxed);
    stats.max_ready_depth = batch.max_depth.load(std::memory_order_relaxed);
    if (batch.error) std::rethrow_exception(batch.error);
    return stats;
  }

  std::vector<Deque> deques;
  const unsigned num_slots;
  std::once_flag spawned;
  std::vector<std::thread> workers;  ///< written once, inside spawned

  std::mutex mutex;
  std::condition_variable wake;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> idle{0};
  bool shutdown = false;  ///< guarded by mutex

  std::mutex external_mutex;  ///< serializes bindingless drivers
};

thread_local TaskScheduler::Impl::SlotBinding* TaskScheduler::Impl::tls_top =
    nullptr;

TaskScheduler::TaskScheduler(unsigned threads)
    : impl_(std::make_unique<Impl>(threads)) {}

TaskScheduler::~TaskScheduler() = default;

unsigned TaskScheduler::threads() const noexcept { return impl_->num_slots; }

TaskRunStats TaskScheduler::run(const TaskGraph& graph) {
  return impl_->run(graph);
}

TaskRunStats TaskScheduler::parallel_for(
    std::size_t count, std::size_t grain,
    const std::function<void(unsigned, std::size_t)>& fn) {
  TaskRunStats stats;
  if (count == 0) return stats;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (count + grain - 1) / grain;
  if (threads() == 1 || chunks == 1) {
    // Inline: report the slot the calling thread actually occupies so
    // slot-indexed caller scratch stays coherent under nesting.
    const Impl::SlotBinding* binding = impl_->find_binding();
    const unsigned slot = binding != nullptr ? binding->slot : 0;
    for (std::size_t i = 0; i < count; ++i) fn(slot, i);
    stats.tasks = chunks;
    return stats;
  }
  struct Body {
    const std::function<void(unsigned, std::size_t)>* fn;
    std::size_t count;
    std::size_t grain;
    void operator()(unsigned slot, std::uint32_t chunk) const {
      const std::size_t begin = std::size_t{chunk} * grain;
      const std::size_t end = std::min(count, begin + grain);
      for (std::size_t i = begin; i < end; ++i) (*fn)(slot, i);
    }
  } body{&fn, count, grain};
  TaskGraph graph;
  graph.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    graph.add(body, static_cast<std::uint32_t>(c));
  }
  return run(graph);
}

}  // namespace adtp
