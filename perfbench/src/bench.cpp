#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/resource.h>
#include <unordered_map>

#include "util/json.hpp"

namespace perfbench {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sample[std::min(index, sample.size() - 1)];
}

double windowed_quantile(const std::vector<double>& call_ms, double q,
                         std::size_t window) {
  if (call_ms.size() < 2 * window) return quantile(call_ms, q);
  std::vector<double> per_window;
  for (std::size_t start = 0; start + window <= call_ms.size();
       start += window) {
    per_window.push_back(quantile(
        std::vector<double>(call_ms.begin() + static_cast<long>(start),
                            call_ms.begin() + static_cast<long>(start + window)),
        q));
  }
  return quantile(per_window, 0.5);
}

namespace {

/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 with at least ten
/// samples beyond it, as (percentile, value); (0, 0) below 20 samples.
std::pair<double, double> supported_tail(const std::vector<double>& sample) {
  const double n = static_cast<double>(sample.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      return {p, quantile(sample, p / 100.0)};
    }
  }
  return {0, 0};
}

}  // namespace

std::string describe_latency(const std::vector<double>& ms) {
  char buffer[160];
  const auto [p, tail] = supported_tail(ms);
  if (p == 0) {
    std::snprintf(buffer, sizeof buffer, "p50 %.4f ms (n=%zu)",
                  quantile(ms, 0.5), ms.size());
  } else {
    std::snprintf(buffer, sizeof buffer, "p50 %.4f ms, p%g %.4f ms (n=%zu)",
                  quantile(ms, 0.5), p, tail, ms.size());
  }
  return buffer;
}

double median_pass_rate(const std::vector<double>& call_ms,
                        const std::vector<double>& items) {
  double pass_items = 0;
  for (const double n : items) pass_items += n;
  std::vector<double> rates;
  for (std::size_t start = 0; start + items.size() <= call_ms.size();
       start += items.size()) {
    double pass_ms = 0;
    for (std::size_t c = start; c < start + items.size(); ++c) {
      pass_ms += call_ms[c];
    }
    rates.push_back(pass_items * 1e3 / pass_ms);
  }
  return quantile(rates, 0.5);
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  return static_cast<bool>(clear.flush());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t digest_front(const adtp::Front& front, std::uint64_t h) {
  auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(front.size());
  for (const adtp::ValuePoint& p : front.points()) {
    mix(std::bit_cast<std::uint64_t>(p.def));
    mix(std::bit_cast<std::uint64_t>(p.att));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

// ---- spans ------------------------------------------------------------

namespace {

std::atomic<std::uint32_t> next_span_id{1};
thread_local std::vector<Span>* tls_buffer = nullptr;
thread_local std::uint32_t tls_parent = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::vector<Span>& Tracer::thread_buffer() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 14);
    tls_buffer = buffers_.back().get();
  }
  return *tls_buffer;
}

Tracer::Scope::Scope(const char* name, std::uint64_t request,
                     std::uint32_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  buffer_ = &tracer.thread_buffer();
  Span span;
  span.name = name;
  span.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent != 0 ? parent : tls_parent;
  span.request = request;
  saved_parent_ = tls_parent;
  tls_parent = span.id;
  index_ = buffer_->size();
  span.start_ns = now_ns();
  buffer_->push_back(span);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  (*buffer_)[index_].end_ns = now_ns();
  tls_parent = saved_parent_;
}

std::uint32_t Tracer::Scope::id() const {
  return buffer_ == nullptr ? 0 : (*buffer_)[index_].id;
}

std::map<std::string, SpanTotals> Tracer::totals() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto ms = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  };
  std::unordered_map<std::uint32_t, double> child_ms;
  for (const auto& buffer : buffers_) {
    for (const Span& s : *buffer) {
      if (s.parent != 0) child_ms[s.parent] += ms(s);
    }
  }
  std::map<std::string, SpanTotals> by_name;
  for (const auto& buffer : buffers_) {
    for (const Span& s : *buffer) {
      SpanTotals& t = by_name[s.name];
      ++t.count;
      t.total_ms += ms(s);
      const auto it = child_ms.find(s.id);
      t.self_ms += ms(s) - (it == child_ms.end() ? 0.0 : it->second);
    }
  }
  return by_name;
}

std::size_t Tracer::span_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->size();
  return n;
}

void Tracer::write(const std::filesystem::path& path, std::size_t max_spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t origin = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& s : *buffer) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  adtp::JsonWriter json;
  json.begin_array();
  std::size_t written = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& s : *buffer) {
      if (written == max_spans) break;
      ++written;
      json.begin_object();
      json.key("name").value(s.name);
      json.key("id").value(static_cast<std::uint64_t>(s.id));
      json.key("parent").value(static_cast<std::uint64_t>(s.parent));
      json.key("request").value(s.request);
      json.key("start_us").value(static_cast<double>(s.start_ns - origin) / 1e3);
      json.key("end_us").value(static_cast<double>(s.end_ns - origin) / 1e3);
      json.end_object();
    }
  }
  json.end_array();
  std::ofstream(path) << json.str() << '\n';
}

namespace {

/// The layer a span name belongs to: "util.parallel" and "util.json"
/// for util spans, the first dotted component otherwise.
std::string layer_of(const std::string& span_name) {
  const std::size_t first = span_name.find('.');
  if (first == std::string::npos) return span_name;
  if (span_name.compare(0, first, "util") == 0) {
    return span_name.substr(0, span_name.find('.', first + 1));
  }
  return span_name.substr(0, first);
}

}  // namespace

void add_self_times(Outcome& out, double ops, double operation_ms) {
  static const char* const kLayers[] = {"adt",   "bdd",           "core",
                                        "store", "serve",         "util.parallel",
                                        "util.json"};
  std::map<std::string, double> self_ms;
  Tracer& tracer = Tracer::instance();
  for (const auto& [name, totals] : tracer.totals()) {
    self_ms[layer_of(name)] += totals.self_ms / ops;
  }
  double sum = 0;
  for (const char* layer : kLayers) {
    out.add(std::string("self.") + layer + "_ms", "ms", self_ms[layer]);
    sum += self_ms[layer];
  }
  // A span outside every layer, or one booked to no measured call,
  // breaks the sum.
  if (std::abs(sum - operation_ms) > 1e-9 * std::max(1.0, operation_ms)) {
    out.mismatch("self times add up to " + std::to_string(sum) +
                 " ms, not the operation's " + std::to_string(operation_ms) +
                 " ms");
  }
  out.add("trace.spans", "count", static_cast<double>(tracer.span_count()));
}

}  // namespace perfbench
