/// serve_mix: an in-process DaemonServer (default DaemonConfig, a fresh
/// store in the work directory) on a Unix socket, driven by one
/// closed-loop client - the next request sent when the reply is in, since
/// the daemon's callers wait for each reply - on one connection, with no
/// hangups.
///
/// Load, rebuilt from the seed in set-up:
///  - reads: a Zipf(1.1) choice over a hot set - the catalog models and
///    Fig. 4 n=4..12, each as a text and a JSON envelope payload and the
///    attacker-rooted ones also as ADTool XML, hottest first - all served from the daemon's cache after
///    one warm-up round (parse, key, lookup, JSON encode, socket);
///  - writes: kFreshShare of the requests carry a never-seen small random
///    model (parse, kernel, store append with fsync). The share is the
///    only measured miss rate in the repository: BENCH_10.json's warm
///    share of 0.99841 (bench/qps_sustained.cpp), i.e. 0.159 % of
///    replies computed. Each run reports the share of round-trip time
///    that computed replies took (serve.miss_time_share).
///
/// Replies are read with the benchmark's own buffered line reader, so a
/// round trip times the daemon rather than one read(2) per reply byte.
/// Every reply front is checked against an in-process analyze() of the
/// same payload: read replies by the hash of their front (one parsed
/// representative per distinct hash), fresh replies one by one, all
/// after the timed stretch.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "adt/adtool_xml.hpp"
#include "adt/text_format.hpp"
#include "core/analyzer.hpp"
#include "core/front_cache.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "models.hpp"
#include "serve/daemon.hpp"
#include "serve/socket.hpp"
#include "store/persistent_cache.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace adtp;

namespace {

constexpr double kZipfExponent = 1.1;
/// 1 - BENCH_10.json's warm_share.
constexpr double kFreshShare = 1.0 - 0.99841341795104266;
/// Enough for kFreshShare of a minute at 20 000 replies/s.
constexpr std::size_t kFreshModels = 2000;
/// A set-up takes ~0.1 s, much of it the store's fsyncs, so it is timed
/// often enough for its median to hold still.
constexpr int kSetupRepeats = 15;
constexpr double kMaxRepliesPerSecond = 100000;
/// Latency quantiles are taken per window of this many cached replies
/// (~2 s) and their median reported.
constexpr std::size_t kWindowHits = 16000;

struct Payload {
  std::string label;
  std::string format;   ///< text, xml or json
  std::string body;
  std::string request;  ///< ANALYZE header + body
  Front reference;      ///< in-process analyze() of the parsed payload
};

/// The model the daemon builds from a payload (daemon.cpp's model_from
/// and json envelope handling, through the same public parsers).
AugmentedAdt parse_payload(const std::string& format,
                           const std::string& body) {
  if (format == "json") {
    const JsonValue doc = parse_json(body);
    return parse_payload(doc.at("format").as_string(),
                         doc.at("model").as_string());
  }
  if (format == "xml") {
    AdtoolImport imported = import_adtool_xml(body);
    return AugmentedAdt(std::move(imported.adt),
                        std::move(imported.attribution), Semiring::min_cost(),
                        Semiring::min_cost());
  }
  return parse_adt_text(body).augmented();
}

Payload make_payload(std::string label, std::string format,
                     std::string body) {
  Payload p{std::move(label), std::move(format), std::move(body), {}, {}};
  p.request = "ANALYZE " + p.format + " " + std::to_string(p.body.size()) +
              "\n" + p.body;
  return p;
}

/// The hot set, hottest first: small catalog models, then Fig. 4 by n.
std::vector<Payload> make_reads() {
  std::vector<std::pair<std::string, AugmentedAdt>> models;
  models.emplace_back("fig3", catalog::fig3_example());
  models.emplace_back("fig5", catalog::fig5_example());
  models.emplace_back("money_dag", catalog::money_theft_dag());
  models.emplace_back("money_tree", catalog::money_theft_tree());
  for (int n = 4; n <= 12; ++n) {
    models.emplace_back("fig4_" + std::to_string(n),
                        catalog::fig4_exponential(n));
  }
  std::vector<Payload> reads;
  for (const auto& [name, model] : models) {
    const std::string text = to_text_format(model);
    reads.push_back(make_payload(name + ".text", "text", text));
    // ADTool XML has no defender-rooted models (the Fig. 4 family).
    if (model.adt().agent(model.adt().root()) == Agent::Attacker) {
      reads.push_back(make_payload(
          name + ".xml", "xml",
          export_adtool_xml(model.adt(), model.attribution())));
    }
    JsonWriter envelope;
    envelope.begin_object();
    envelope.key("format").value("text");
    envelope.key("model").value(text);
    envelope.end_object();
    reads.push_back(make_payload(name + ".json", "json", envelope.str()));
  }
  return reads;
}

std::vector<Payload> make_fresh(std::uint64_t seed) {
  std::vector<Payload> fresh;
  fresh.reserve(kFreshModels);
  Rng rng(derive_seed(seed, 10, 0));
  for (std::size_t i = 0; i < kFreshModels; ++i) {
    RandomAdtOptions options;
    options.target_nodes = 20 + rng.below(21);
    options.share_probability = i % 2 == 0 ? 0.0 : 0.1;
    options.max_defenses = 8;
    fresh.push_back(make_payload(
        "fresh_" + std::to_string(i), "text",
        to_text_format(generate_random_aadt(options, rng(),
                                            Semiring::min_cost(),
                                            Semiring::min_cost()))));
  }
  return fresh;
}

/// Zipf(s) sampler over [0, n) by cumulative weights.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cumulative_.push_back(total);
    }
  }
  std::size_t operator()(Rng& rng) const {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 *
                     cumulative_.back();
    return static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

/// Reads '\n'-terminated lines from a socket through a 64 KiB buffer.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd), buffer_(1 << 16) {}

  /// The next line without its '\n'; throws Error on EOF or failure.
  std::string next() {
    std::string line;
    while (true) {
      const char* start = buffer_.data() + begin_;
      const void* newline = std::memchr(start, '\n', end_ - begin_);
      if (newline != nullptr) {
        const auto n =
            static_cast<std::size_t>(static_cast<const char*>(newline) - start);
        line.append(start, n);
        begin_ += n + 1;
        return line;
      }
      line.append(start, end_ - begin_);
      begin_ = end_ = 0;
      const ssize_t got = ::read(fd_, buffer_.data(), buffer_.size());
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) throw Error("daemon closed the connection");
      end_ = static_cast<std::size_t>(got);
    }
  }

 private:
  int fd_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// The "front" array of a reply line, as text ("" when absent).
std::string_view front_text(const std::string& reply) {
  const std::size_t key = reply.find("\"front\":[");
  if (key == std::string::npos) return {};
  const std::size_t start = key + 8;
  if (reply.compare(start, 2, "[]") == 0) {
    return std::string_view(reply).substr(start, 2);
  }
  const std::size_t close = reply.find("]]", start);
  return std::string_view(reply).substr(
      start, close == std::string::npos ? std::string::npos
                                        : close + 2 - start);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = kDigestSeed;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// True iff the reply's front equals \p reference point for point.
bool reply_matches(const std::string& reply, const Front& reference) {
  const JsonValue doc = parse_json(reply);
  if (!doc.at("ok").as_bool()) return false;
  const auto& points = doc.at("front").items();
  if (points.size() != reference.size()) return false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ValuePoint& p = reference.points()[i];
    if (points[i].items().at(0).as_metric() != p.def ||
        points[i].items().at(1).as_metric() != p.att) {
      return false;
    }
  }
  return true;
}

/// The in-process replay of a request's daemon-side phases, each under
/// its span, for the traced stretch.
struct Shadow {
  FrontCache* hot = nullptr;                    ///< holds every read
  store::PersistentFrontCache* store = nullptr;  ///< fresh results go here

  /// Replays \p payload's phases in spans booked to \p round_trip.
  void replay(const Payload& payload, bool hit, std::uint64_t request,
              std::uint32_t round_trip) const {
    const char* parse_span = payload.format == "xml"    ? "adt.parse_xml"
                             : payload.format == "json" ? "adt.parse_json"
                                                        : "adt.parse_text";
    std::optional<AugmentedAdt> model;
    {
      Tracer::Scope span(parse_span, request, round_trip);
      model = parse_payload(payload.format, payload.body);
    }
    const AnalysisOptions options;
    FrontCacheKey key;
    {
      Tracer::Scope span("core.front_cache.key", request, round_trip);
      key = front_cache_key(*model, options);
    }
    std::optional<AnalysisResult> result;
    if (hit) {
      Tracer::Scope span("core.front_cache.lookup", request, round_trip);
      result = hot->lookup(key);
    } else {
      {
        Tracer::Scope span("core.analyze", request, round_trip);
        result = analyze(*model, options);
      }
      Tracer::Scope span("store.put", request, round_trip);
      store->insert(key, *result);
    }
    if (!result.has_value()) return;
    Tracer::Scope span("util.json.encode", request, round_trip);
    JsonWriter json;
    json.begin_array();
    for (const ValuePoint& p : result->front.points()) {
      json.begin_array();
      json.value(p.def);
      json.value(p.att);
      json.end_array();
    }
    json.end_array();
    (void)json.str();
  }
};

/// A connection to the daemon, closed on scope exit.
class Connection {
 public:
  explicit Connection(const serve::Endpoint& endpoint)
      : fd_(serve::connect_to(endpoint)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends \p request and returns the reply line.
  std::string exchange(const std::string& request) {
    serve::write_all_fd(fd_, request.data(), request.size());
    return reader_.next();
  }

 private:
  int fd_;
  LineReader reader_{fd_};
};

/// Everything one stretch of the closed loop observed.
struct Stretch {
  /// Touches room for \p seconds of replies at kMaxRepliesPerSecond up
  /// front, so that recording them does not grow the process's memory
  /// while its peak is measured.
  explicit Stretch(double seconds) {
    hit_ms.assign(static_cast<std::size_t>(seconds * kMaxRepliesPerSecond),
                  0.0);
    hit_ms.clear();
  }

  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  double seconds = 0;  ///< wall time of the closed loop
  std::uint64_t failed = 0;
  std::string first_error;
  /// Read payload index -> (front hash -> one reply carrying it).
  std::unordered_map<std::size_t, std::map<std::uint64_t, std::string>>
      read_fronts;
  std::vector<std::pair<std::size_t, std::string>> fresh_replies;

  [[nodiscard]] double replies_per_second() const {
    return static_cast<double>(hit_ms.size() + miss_ms.size()) / seconds;
  }
  /// The share of round-trip time that computed replies took.
  [[nodiscard]] double miss_time_share() const {
    double hit = 0;
    double miss = 0;
    for (const double ms : hit_ms) hit += ms;
    for (const double ms : miss_ms) miss += ms;
    return miss / (hit + miss);
  }
};

/// The closed loop for \p seconds: a Zipf read or, with probability
/// kFreshShare while the pool lasts, the next fresh model; the next
/// request goes out when the reply is in. Records into \p stretch.
void drive(const serve::Endpoint& endpoint, const std::vector<Payload>& reads,
           const std::vector<Payload>& fresh, std::size_t& next_fresh,
           std::uint64_t seed, double seconds, const Shadow* shadow,
           Stretch& stretch) {
  Rng rng(seed);
  const ZipfPicker zipf(reads.size(), kZipfExponent);
  const Clock::time_point begin = Clock::now();
  try {
    Connection connection(endpoint);
    for (std::uint64_t request = 0;
         ms_between(begin, Clock::now()) / 1e3 < seconds; ++request) {
      std::optional<std::size_t> fresh_index;
      if (static_cast<double>(rng() >> 11) * 0x1.0p-53 < kFreshShare &&
          next_fresh < fresh.size()) {
        fresh_index = next_fresh++;
      }
      const std::size_t read_index = fresh_index ? 0 : zipf(rng);
      const Payload& payload =
          fresh_index ? fresh[*fresh_index] : reads[read_index];
      std::string reply;
      double ms = 0;
      std::uint32_t round_trip = 0;
      {
        Tracer::Scope span("serve.round_trip", request);
        round_trip = span.id();
        const Clock::time_point start = Clock::now();
        reply = connection.exchange(payload.request);
        ms = ms_between(start, Clock::now());
      }
      if (reply.compare(0, 10, "{\"ok\":true") != 0) {
        if (stretch.failed++ == 0) stretch.first_error = reply;
        continue;
      }
      const bool hit = reply.find("\"cached\":true") != std::string::npos;
      (hit ? stretch.hit_ms : stretch.miss_ms).push_back(ms);
      if (fresh_index) {
        stretch.fresh_replies.emplace_back(*fresh_index, std::move(reply));
      } else {
        auto& seen = stretch.read_fronts[read_index];
        const std::uint64_t h = fnv1a(front_text(reply));
        if (seen.size() < 64 && seen.find(h) == seen.end()) {
          seen.emplace(h, std::move(reply));
        }
      }
      if (shadow != nullptr) shadow->replay(payload, hit, request, round_trip);
    }
  } catch (const std::exception& e) {
    if (stretch.failed++ == 0) stretch.first_error = e.what();
  }
  stretch.seconds = ms_between(begin, Clock::now()) / 1e3;
}

/// Counts the stretch's operations and checks every reply it kept.
void check(const Stretch& stretch, const std::vector<Payload>& reads,
           const std::vector<Payload>& fresh, Outcome& out) {
  out.attempted +=
      stretch.hit_ms.size() + stretch.miss_ms.size() + stretch.failed;
  out.failed += stretch.failed;
  if (stretch.failed > 0) {
    out.correct = false;
    out.notes.push_back("FAILED request: " + stretch.first_error);
  }
  for (const auto& [index, seen] : stretch.read_fronts) {
    for (const auto& [hash, reply] : seen) {
      if (!reply_matches(reply, reads[index].reference)) {
        out.mismatch(reads[index].label + ": reply front differs");
      }
    }
  }
  for (const auto& [index, reply] : stretch.fresh_replies) {
    const Payload& payload = fresh[index];
    if (!reply_matches(
            reply, analyze(parse_payload(payload.format, payload.body)).front)) {
      out.mismatch(payload.label + ": reply front differs");
    }
  }
}

/// Restricts the calling thread - and so every thread it creates while
/// the guard lives - to the last CPU it may run on (the first one takes
/// most device interrupts and kernel workers); restores the old mask on
/// destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
        return;
      }
    }
  }
  ~PinToOneCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace

Outcome run_serve_mix(const Config& config) {
  Outcome out;
  const std::filesystem::path store_dir = config.workdir / "serve-store";
  const std::filesystem::path shadow_dir = config.workdir / "shadow-store";
  serve::Endpoint endpoint;
  endpoint.path = (config.workdir / "serve.sock").string();

  // One client, pinned with every daemon thread to one CPU: on the
  // 4-vCPU reference VM two or four clients made whole runs swing between
  // two speeds (7k vs 13k replies/s for one seed) as thread placement
  // changed, and even one unpinned client moved 20 % between runs with
  // the hypervisor's cross-vCPU wake-up cost. Pinned, a round trip is the
  // daemon's own work plus same-CPU socket hand-offs.
  const PinToOneCpu pin;
  std::vector<Payload> reads;
  std::vector<Payload> fresh;
  std::unique_ptr<serve::DaemonServer> daemon;
  std::vector<double> setup_seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    daemon.reset();
    std::filesystem::remove_all(store_dir);
    const Clock::time_point start = Clock::now();
    reads = make_reads();
    fresh = make_fresh(config.seed);
    serve::DaemonConfig daemon_config;
    daemon_config.store_dir = store_dir.string();
    daemon = std::make_unique<serve::DaemonServer>(endpoint, daemon_config);
    daemon->start();
    setup_seconds.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  // References, outside every timed region.
  std::uint64_t digest = kDigestSeed;
  for (Payload& p : reads) {
    p.reference = analyze(parse_payload(p.format, p.body)).front;
    digest = digest_front(p.reference, digest);
  }
  out.digest = hex(digest);
  out.notes.push_back(
      "load: 1 closed-loop client, Zipf(" +
      std::to_string(kZipfExponent) + ") over " +
      std::to_string(reads.size()) + " hot payloads (catalog + fig4 " +
      "n=4..12 as text, json and xml), " + std::to_string(kFreshShare * 100) +
      "% never-seen 20..40-node models (" + std::to_string(fresh.size()) +
      " pre-generated)");

  // Warm-up: every hot payload once, so reads are cache hits.
  for (const Payload& p : reads) {
    if (Connection(endpoint).exchange(p.request).compare(
            0, 10, "{\"ok\":true") != 0) {
      throw Error("serve_mix: warm-up request failed for " + p.label);
    }
  }

  std::size_t next_fresh = 0;
  const double plain_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  Stretch plain(plain_seconds);
  reset_peak_rss();
  drive(endpoint, reads, fresh, next_fresh, config.seed, plain_seconds,
        nullptr, plain);
  const double peak_mb = peak_rss_mb();
  check(plain, reads, fresh, out);
  out.add("setup_s", "s", quantile(setup_seconds, 0.5));
  out.add("throughput", "1/s", plain.replies_per_second());
  // The latency figures are those of the primary operation, a cached
  // read; computed replies have their own per-layer figures.
  out.add("p50_ms", "ms", windowed_quantile(plain.hit_ms, 0.5, kWindowHits));
  out.add("p90_ms", "ms", windowed_quantile(plain.hit_ms, 0.9, kWindowHits));
  out.add("peak_rss_mb", "MB", peak_mb);
  out.add("serve.hit_p50_ms", "ms", quantile(plain.hit_ms, 0.5));
  out.add("serve.hit_p99_ms", "ms", quantile(plain.hit_ms, 0.99));
  out.add("serve.miss_p50_ms", "ms", quantile(plain.miss_ms, 0.5));
  out.add("serve.miss_p90_ms", "ms", quantile(plain.miss_ms, 0.9));
  out.add("serve.miss_time_share", "ratio", plain.miss_time_share());
  out.notes.push_back("round trip, cached: " +
                      describe_latency(plain.hit_ms));
  out.notes.push_back("round trip, computed: " +
                      describe_latency(plain.miss_ms) + ", " +
                      std::to_string(100 * plain.miss_time_share()) +
                      "% of round-trip time");

  if (config.trace) {
    FrontCache hot(reads.size());
    for (const Payload& p : reads) {
      const AugmentedAdt model = parse_payload(p.format, p.body);
      (void)hot.insert(front_cache_key(model, AnalysisOptions{}),
                       analyze(model));
    }
    std::filesystem::remove_all(shadow_dir);
    store::PersistentFrontCache shadow_store(shadow_dir.string());
    const Shadow shadow{&hot, &shadow_store};
    Tracer& tracer = Tracer::instance();
    tracer.set_enabled(true);
    Stretch traced(config.seconds / 2);
    drive(endpoint, reads, fresh, next_fresh, config.seed + 1,
          config.seconds / 2, &shadow, traced);
    tracer.set_enabled(false);
    check(traced, reads, fresh, out);

    const auto requests =
        static_cast<double>(traced.hit_ms.size() + traced.miss_ms.size());
    std::map<std::string, double> mean_ms;
    double round_trip_ms = 0;  // per request
    double replayed_ms = 0;    // per request
    for (const auto& [name, totals] : tracer.totals()) {
      mean_ms[name] = totals.total_ms / static_cast<double>(totals.count);
      (name == "serve.round_trip" ? round_trip_ms : replayed_ms) +=
          totals.total_ms / requests;
    }
    out.add("adt.parse_text_ms", "ms", mean_ms["adt.parse_text"]);
    out.add("adt.parse_xml_ms", "ms", mean_ms["adt.parse_xml"]);
    out.add("adt.parse_json_ms", "ms", mean_ms["adt.parse_json"]);
    out.add("core.front_cache.key_us", "us",
            mean_ms["core.front_cache.key"] * 1e3);
    out.add("core.front_cache.lookup_us", "us",
            mean_ms["core.front_cache.lookup"] * 1e3);
    out.add("util.json.encode_ms", "ms", mean_ms["util.json.encode"]);
    out.add("core.analyze_ms", "ms", mean_ms["core.analyze"]);
    out.add("store.put_ms", "ms", mean_ms["store.put"]);
    out.add("serve.unattributed_ms", "ms", round_trip_ms - replayed_ms);
    out.add("trace.overhead_pct", "%",
            100.0 * (quantile(traced.hit_ms, 0.5) /
                         quantile(plain.hit_ms, 0.5) -
                     1.0));
    add_self_times(out, requests, round_trip_ms);
  }

  const JsonValue stats =
      parse_json(Connection(endpoint).exchange("STATS\n"));
  daemon->stop();
  daemon.reset();
  std::filesystem::remove_all(store_dir);
  std::filesystem::remove_all(shadow_dir);
  std::filesystem::remove(endpoint.path);
  if (next_fresh == fresh.size()) {
    out.notes.push_back("fresh pool ran out: later writes became reads");
  }
  out.add("serve.hit_ratio", "ratio", stats.at("hit_rate").as_number());
  out.add("core.front_cache.coalesced", "count",
          stats.at("memory").at("coalesced").as_number());
  out.add("store.writes", "count",
          stats.at("store").at("writes").as_number());
  out.add("store.errors", "count",
          stats.at("store").at("errors").as_number());
  out.add("serve.rejected", "count", stats.at("rejected").as_number());
  return out;
}

}  // namespace perfbench
