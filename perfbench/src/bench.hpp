/// \file bench.hpp
/// \brief Shared pieces of the repository benchmark: run configuration,
///        metric records, sample statistics, memory probes, front digests
///        and the span recorder used by traced runs.
///
/// Every workload is a function Config -> Outcome. An Outcome carries
/// every metric the workload measured (end-to-end and per-layer alike);
/// main.cpp picks the set the run was asked for and prints the final
/// result line.

#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pareto.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured time of one run
  bool trace = false;
  std::filesystem::path workdir;  ///< scratch space inside the checkout
  /// The committed digest of the workload's reference fronts for this
  /// seed, empty when none is committed.
  std::string expected_digest;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errors and wrong outputs
  bool correct = true;
  std::string digest;        ///< hex digest of the reference fronts
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines (sizing etc.)

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Records a wrong output; the run then fails.
  void mismatch(const std::string& what) {
    ++failed;
    correct = false;
    if (notes.size() < 64) notes.push_back("MISMATCH: " + what);
  }
};

// ---- statistics -------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> sample, double q);

/// The median, over consecutive windows of \p window calls (a trailing
/// partial window is dropped), of the quantile \p q of each window's
/// calls; the plain quantile when there are fewer than two windows. A
/// burst of host interference then moves one window's figure, not the
/// run's.
[[nodiscard]] double windowed_quantile(const std::vector<double>& call_ms,
                                       double q, std::size_t window);

/// "p50 1.234 ms, p99 5.678 ms (n=12345)" for the human-readable lines:
/// the median and the highest of p99.9 / p99 / p95 / p90 / p75 with at
/// least ten samples beyond it.
[[nodiscard]] std::string describe_latency(const std::vector<double>& ms);

/// The median, over the run's whole passes, of items per second of one
/// pass. \p call_ms holds whole passes over the pool, in pool order;
/// entry i of the pool carries \p items[i] items. Every call of a pass
/// counts, so a regression that slows only some calls still shows.
[[nodiscard]] double median_pass_rate(const std::vector<double>& call_ms,
                                      const std::vector<double>& items);

// ---- memory -----------------------------------------------------------

/// Resets the kernel's peak-RSS mark to the current RSS (Linux
/// /proc/self/clear_refs); false where unsupported.
bool reset_peak_rss();

/// Peak resident set size in MiB since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();

// ---- fronts -----------------------------------------------------------

/// FNV-1a over the exact bits of every point of \p front, chained onto
/// \p h (start from kDigestSeed).
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t digest_front(const adtp::Front& front,
                                         std::uint64_t h);
[[nodiscard]] std::string hex(std::uint64_t v);

// ---- spans ------------------------------------------------------------

/// One recorded span: a named interval on one thread, nested under
/// \p parent (0 = root), tagged with the operation (request) it served.
struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Totals of one span name: count, summed duration, summed self time
/// (duration minus the durations of the spans whose parent it is).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// In-memory span recorder. Disabled (the default) it records nothing
/// and a Scope costs one branch; enabled, every thread appends to its
/// own buffer, so recording takes no lock after a thread's first span.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction. Spans
  /// opened while another is open on the same thread become its
  /// children. A replay of a phase that ran inside a measured call
  /// passes that call's span id as \p parent instead: the replay runs
  /// after the call, but its time is booked to it.
  class Scope {
   public:
    Scope(const char* name, std::uint64_t request, std::uint32_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// The span's id, 0 when tracing is off.
    [[nodiscard]] std::uint32_t id() const;

   private:
    std::vector<Span>* buffer_ = nullptr;
    std::size_t index_ = 0;
    std::uint32_t saved_parent_ = 0;
  };

  /// Per-name totals over every span recorded so far.
  [[nodiscard]] std::map<std::string, SpanTotals> totals();
  [[nodiscard]] std::size_t span_count();
  /// Writes every recorded span (at most \p max_spans) as a JSON array
  /// to \p path.
  void write(const std::filesystem::path& path, std::size_t max_spans);

 private:
  Tracer() = default;
  std::vector<Span>& thread_buffer();

  bool enabled_ = false;
  std::mutex mutex_;  ///< guards buffers_
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Appends "self.<layer>_ms" for every program layer (adt, bdd, core,
/// store, serve, util.parallel, util.json): the summed self time of the
/// layer's spans divided by \p ops, plus trace.spans. The layers must
/// add up to \p operation_ms, the measured call per operation, which
/// every other span is booked to; otherwise the run records a mismatch.
void add_self_times(Outcome& out, double ops, double operation_ms);

}  // namespace perfbench
