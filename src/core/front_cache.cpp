#include "core/front_cache.hpp"

#include "util/error.hpp"
#include "util/hash.hpp"

namespace adtp {

namespace {

std::uint64_t structure_hash(const Adt& adt) {
  Fnv1a h;
  h.size(adt.size());
  h.u32(adt.root());
  for (const Node& n : adt.nodes()) {
    h.u8(static_cast<std::uint8_t>(n.type));
    h.u8(static_cast<std::uint8_t>(n.agent));
    h.size(n.children.size());
    for (NodeId c : n.children) h.u32(c);
  }
  return h.digest();
}

std::uint64_t attribution_hash(const AugmentedAdt& aadt) {
  Fnv1a h;
  // Built-in kinds are fully described by their enum tag (one/zero and the
  // operators are functions of the kind).
  h.u8(static_cast<std::uint8_t>(aadt.defender_domain().kind()));
  h.u8(static_cast<std::uint8_t>(aadt.attacker_domain().kind()));
  const Adt& adt = aadt.adt();
  h.size(adt.num_attacks());
  for (std::size_t i = 0; i < adt.num_attacks(); ++i) {
    h.f64(aadt.attack_value(i));
  }
  h.size(adt.num_defenses());
  for (std::size_t i = 0; i < adt.num_defenses(); ++i) {
    h.f64(aadt.defense_value(i));
  }
  return h.digest();
}

void hash_bdd_options(Fnv1a& h, const BddBuOptions& options) {
  h.u8(static_cast<std::uint8_t>(options.order_heuristic));
  h.u64(options.order_seed);
  h.size(options.node_limit);
  h.size(options.max_front_points);
  h.boolean(options.order.has_value());
  if (options.order.has_value()) {
    for (NodeId id : options.order->sequence()) h.u32(id);
  }
}

std::uint64_t options_hash(const AnalysisOptions& options) {
  // Every field that can change the produced front *or* turn a success
  // into a guard failure participates; the deadline/cancel/arena/pool
  // pointers do not (see the header's key contract). intra_model_threads
  // and the parallel_node_floor are likewise excluded: intra-model
  // parallelism is result-invariant by construction, so a sequential run
  // must hit the cache entry a sharded run stored, and vice versa.
  Fnv1a h;
  h.u8(static_cast<std::uint8_t>(options.algorithm));
  h.size(options.naive.max_bits);
  h.size(options.bottom_up.max_front_points);
  hash_bdd_options(h, options.bdd);
  hash_bdd_options(h, options.hybrid.bdd);
  return h.digest();
}

}  // namespace

bool cacheable(const AugmentedAdt& aadt) {
  return aadt.defender_domain().kind() != SemiringKind::Custom &&
         aadt.attacker_domain().kind() != SemiringKind::Custom;
}

FrontCacheKey front_cache_key(const AugmentedAdt& aadt,
                              const AnalysisOptions& options) {
  if (!cacheable(aadt)) {
    throw Error(
        "front_cache_key: custom semiring domains cannot be content-hashed");
  }
  FrontCacheKey key;
  key.structure = structure_hash(aadt.adt());
  key.attribution = attribution_hash(aadt);
  key.options = options_hash(options);
  return key;
}

std::size_t FrontCache::KeyHash::operator()(
    const FrontCacheKey& k) const noexcept {
  std::uint64_t h = hash_combine(k.structure, k.attribution);
  h = hash_combine(h, k.options);
  return static_cast<std::size_t>(h);
}

FrontCache::FrontCache(std::size_t capacity) : capacity_(capacity) {}

FrontCache::~FrontCache() = default;

std::optional<AnalysisResult> FrontCache::lookup(const FrontCacheKey& key) {
  std::shared_ptr<const AnalysisResult> hit;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    hit = it->second->second;
  }
  return *hit;  // deep copy outside the lock
}

bool FrontCache::insert(const FrontCacheKey& key,
                        const AnalysisResult& result) {
  if (capacity_ == 0) return false;
  // Deep-copy before taking the mutex for the same reason as lookup().
  auto stored = std::make_shared<const AnalysisResult>(result);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // First writer wins: the values are identical by the determinism
    // contract, so only recency moves. Callers layering persistence key
    // off the false return to avoid storing the same entry twice.
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.duplicate_inserts;
    return false;
  }
  lru_.emplace_front(key, std::move(stored));
  map_.emplace(key, lru_.begin());
  ++stats_.insertions;
  if (lru_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

void FrontCache::settle_flight_stats(std::uint64_t n, bool coalesced) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.misses -= n;
  if (coalesced) ++stats_.coalesced;
}

FrontCache::FlightLookup FrontCache::lookup_or_reserve(
    const FrontCacheKey& key) {
  std::unique_lock<std::mutex> flight(flight_mutex_);
  // Each loop iteration's failed lookup() books a miss; all but the one
  // that sticks (the reserving worker's first) are provisional and get
  // uncounted on resolution, so a logical query counts exactly one of
  // {hit, miss}.
  std::uint64_t provisional = 0;
  for (;;) {
    if (auto hit = lookup(key)) {
      settle_flight_stats(provisional, /*coalesced=*/provisional > 0);
      return FlightLookup{std::move(hit), /*must_compute=*/false};
    }
    ++provisional;
    if (in_flight_.insert(key).second) {
      settle_flight_stats(provisional - 1, /*coalesced=*/false);
      return FlightLookup{std::nullopt, /*must_compute=*/true};
    }
    flight_cv_.wait(flight);
  }
}

void FrontCache::publish(const FrontCacheKey& key,
                         const AnalysisResult& result) {
  {
    const std::lock_guard<std::mutex> flight(flight_mutex_);
    insert(key, result);
    in_flight_.erase(key);
  }
  flight_cv_.notify_all();
}

void FrontCache::abandon(const FrontCacheKey& key) {
  {
    const std::lock_guard<std::mutex> flight(flight_mutex_);
    in_flight_.erase(key);
  }
  flight_cv_.notify_all();
}

FrontCache::Stats FrontCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = lru_.size();
  return out;
}

void FrontCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  map_.clear();
  stats_ = Stats{};
}

}  // namespace adtp
