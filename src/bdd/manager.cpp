#include "bdd/manager.hpp"

#include <algorithm>
#include <cmath>

namespace adtp::bdd {

namespace {

constexpr std::size_t kDefaultNodeLimit = std::size_t{16} * 1024 * 1024;

/// Slots of the unique table's first array.
constexpr std::size_t kUniqueInitialSlots = 64;
/// Entries of a computed-cache slice's first array, and the ceiling of
/// the whole cache: 2^20 entries of 16 bytes (16 MB) across all slices.
constexpr std::size_t kCacheInitialEntries = 64;
constexpr std::size_t kCacheTotalEntries = std::size_t{1} << 20;

std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// The unique table takes its slot from the low bits of unique_hash();
// the cache takes the slice from the top bits of cache_hash() and the
// entry within it from the low bits.
std::uint64_t unique_hash(std::uint32_t v, Ref lo, Ref hi) noexcept {
  return mix(((static_cast<std::uint64_t>(lo) << 32) | hi) ^
             (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL));
}

std::uint64_t cache_hash(std::uint32_t op, Ref f, Ref g) noexcept {
  return mix(((static_cast<std::uint64_t>(f) << 32) | g) +
             (static_cast<std::uint64_t>(op) * 0x9E3779B97F4A7C15ULL));
}

/// Puts \p r into the first empty slot at or after h's home slot.
void place(Ref* slots, std::size_t capacity, std::uint64_t h, Ref r) noexcept {
  std::size_t i = h & (capacity - 1);
  while (slots[i] != 0) i = (i + 1) & (capacity - 1);
  slots[i] = r;
}

}  // namespace

Manager::Manager(std::uint32_t num_vars, std::size_t node_limit)
    : num_vars_(num_vars),
      node_limit_(std::min<std::size_t>(
          node_limit == 0 ? kDefaultNodeLimit : node_limit,
          chunk_start(kMaxChunks))) {
  // Terminals occupy indices 0 (false) and 1 (true).
  allocate(BddNode{kTermVar, kFalse, kFalse});
  allocate(BddNode{kTermVar, kTrue, kTrue});
}

Ref Manager::allocate(const BddNode& n) {
  const std::uint32_t idx = size_;
  if (idx >= node_limit_) {
    throw LimitError("bdd: node limit of " + std::to_string(node_limit_) +
                     " exceeded (the variable order may be adversarial for "
                     "this model)");
  }
  const std::uint32_t c = chunk_of(idx);
  if (chunks_[c] == nullptr) {
    chunks_[c] =
        std::make_unique<BddNode[]>(std::size_t{1} << (kFirstChunkBits + c));
  }
  chunks_[c][idx - chunk_start(c)] = n;
  size_ = idx + 1;
  return idx;
}

ManagerStats Manager::stats() const {
  ManagerStats out;
  out.num_nodes = num_nodes();
  out.unique_hits = unique_hits_;
  for (const CacheSlice& s : cache_) {
    out.cache_hits += s.hits;
    out.cache_misses += s.misses;
  }
  return out;
}

std::uint32_t Manager::var(Ref f) const {
  if (is_terminal(f)) {
    throw ModelError("bdd: terminal nodes carry no variable");
  }
  return node(f).var;
}

Ref Manager::low(Ref f) const {
  if (is_terminal(f)) throw ModelError("bdd: terminals have no children");
  return node(f).low;
}

Ref Manager::high(Ref f) const {
  if (is_terminal(f)) throw ModelError("bdd: terminals have no children");
  return node(f).high;
}

Ref Manager::mk(std::uint32_t v, Ref lo, Ref hi) {
  if (v >= num_vars_) {
    throw ModelError("bdd: variable " + std::to_string(v) +
                     " out of range (num_vars = " + std::to_string(num_vars_) +
                     ")");
  }
  if (lo >= size_ || hi >= size_) {
    throw ModelError("bdd: mk() child out of range");
  }
  // Ordering invariant: children must test strictly later variables.
  if ((!is_terminal(lo) && node(lo).var <= v) ||
      (!is_terminal(hi) && node(hi).var <= v)) {
    throw ModelError("bdd: mk() would violate the variable order");
  }
  if (lo == hi) return lo;  // reduction rule 2
  const std::uint64_t h = unique_hash(v, lo, hi);
  if (unique_capacity_ != 0) {
    const std::size_t mask = unique_capacity_ - 1;
    for (std::size_t i = h & mask; unique_[i] != 0; i = (i + 1) & mask) {
      const Ref r = unique_[i];
      const BddNode& n = node(r);
      if (n.var == v && n.low == lo && n.high == hi) {
        ++unique_hits_;
        return r;  // reduction rule 1
      }
    }
  }
  const Ref ref = allocate(BddNode{v, lo, hi});
  if (2 * (unique_count_ + 1) > unique_capacity_) {
    // Double at load 1/2, re-placing every key read back from the arena.
    const std::size_t capacity =
        std::max(kUniqueInitialSlots, 2 * unique_capacity_);
    auto slots = std::make_unique<Ref[]>(capacity);
    for (std::size_t j = 0; j < unique_capacity_; ++j) {
      if (const Ref r = unique_[j]; r != 0) {
        const BddNode& n = node(r);
        place(slots.get(), capacity, unique_hash(n.var, n.low, n.high), r);
      }
    }
    unique_ = std::move(slots);
    unique_capacity_ = capacity;
  }
  place(unique_.get(), unique_capacity_, h, ref);
  ++unique_count_;
  return ref;
}

Ref Manager::make_var(std::uint32_t v) { return mk(v, kFalse, kTrue); }

Ref Manager::make_nvar(std::uint32_t v) { return mk(v, kTrue, kFalse); }

std::optional<Ref> Manager::cache_lookup(Op op, Ref f, Ref g) {
  const std::uint64_t h = cache_hash(static_cast<std::uint32_t>(op), f, g);
  CacheSlice& slice = cache_[h >> kSliceShift];
  if (slice.capacity != 0) {
    const CacheEntry& e = slice.entries[h & (slice.capacity - 1)];
    if (e.op == op && e.f == f && e.g == g) {
      ++slice.hits;
      return e.result;
    }
  }
  ++slice.misses;
  return std::nullopt;
}

void Manager::cache_insert(Op op, Ref f, Ref g, Ref result) {
  const std::uint64_t h = cache_hash(static_cast<std::uint32_t>(op), f, g);
  CacheSlice& slice = cache_[h >> kSliceShift];
  if (++slice.inserts > slice.capacity &&
      slice.capacity < kCacheTotalEntries / kCacheSlices) {
    // Double while inserts outnumber slots, keeping what still fits.
    const std::size_t capacity =
        std::max(kCacheInitialEntries, 2 * slice.capacity);
    auto entries = std::make_unique<CacheEntry[]>(capacity);
    for (std::size_t j = 0; j < slice.capacity; ++j) {
      const CacheEntry& e = slice.entries[j];
      if (e.op == Op{}) continue;
      entries[cache_hash(static_cast<std::uint32_t>(e.op), e.f, e.g) &
              (capacity - 1)] = e;
    }
    slice.entries = std::move(entries);
    slice.capacity = capacity;
  }
  slice.entries[h & (slice.capacity - 1)] = CacheEntry{f, g, result, op};
}

Ref Manager::apply(Op op, Ref f, Ref g) {
  // Terminal cases, including short circuits.
  switch (op) {
    case Op::And:
      if (f == kFalse || g == kFalse) return kFalse;
      if (f == kTrue) return g;
      if (g == kTrue) return f;
      if (f == g) return f;
      break;
    case Op::Or:
      if (f == kTrue || g == kTrue) return kTrue;
      if (f == kFalse) return g;
      if (g == kFalse) return f;
      if (f == g) return f;
      break;
    case Op::Xor:
      if (f == kFalse) return g;
      if (g == kFalse) return f;
      if (f == g) return kFalse;
      if (f == kTrue) return apply_not(g);
      if (g == kTrue) return apply_not(f);
      break;
    default:  // apply() only takes the binary operations
      break;
  }

  // Normalize commutative operands for better cache hit rates.
  if (f > g) std::swap(f, g);
  if (const auto cached = cache_lookup(op, f, g)) return *cached;

  const std::uint32_t fv = is_terminal(f) ? kTermVar : node(f).var;
  const std::uint32_t gv = is_terminal(g) ? kTermVar : node(g).var;
  const std::uint32_t v = std::min(fv, gv);

  const Ref f0 = (fv == v) ? node(f).low : f;
  const Ref f1 = (fv == v) ? node(f).high : f;
  const Ref g0 = (gv == v) ? node(g).low : g;
  const Ref g1 = (gv == v) ? node(g).high : g;

  const Ref lo = apply(op, f0, g0);
  const Ref hi = apply(op, f1, g1);
  const Ref result = mk(v, lo, hi);
  cache_insert(op, f, g, result);
  return result;
}

Ref Manager::apply_and(Ref f, Ref g) { return apply(Op::And, f, g); }
Ref Manager::apply_or(Ref f, Ref g) { return apply(Op::Or, f, g); }
Ref Manager::apply_xor(Ref f, Ref g) { return apply(Op::Xor, f, g); }

Ref Manager::apply_not(Ref f) {
  if (f == kFalse) return kTrue;
  if (f == kTrue) return kFalse;
  if (const auto cached = cache_lookup(Op::Not, f, 0)) return *cached;
  const Ref result =
      mk(node(f).var, apply_not(node(f).low), apply_not(node(f).high));
  cache_insert(Op::Not, f, 0, result);
  return result;
}

Ref Manager::ite(Ref f, Ref g, Ref h) {
  // (f AND g) OR (NOT f AND h); adequate for this library's workloads.
  return apply_or(apply_and(f, g), apply_and(apply_not(f), h));
}

Ref Manager::restrict_var(Ref f, std::uint32_t v, bool value) {
  if (is_terminal(f)) return f;
  const BddNode& n = node(f);
  if (n.var > v) return f;  // v does not occur below here
  if (n.var == v) return value ? n.high : n.low;
  const Op op = value ? Op::Restrict1 : Op::Restrict0;
  if (const auto cached = cache_lookup(op, f, v)) return *cached;
  const Ref lo = restrict_var(n.low, v, value);
  const Ref hi = restrict_var(n.high, v, value);
  const Ref result = mk(n.var, lo, hi);
  cache_insert(op, f, v, result);
  return result;
}

bool Manager::evaluate(Ref f, const std::vector<bool>& assignment) const {
  if (assignment.size() != num_vars_) {
    throw ModelError("bdd: evaluate() needs one value per variable");
  }
  while (!is_terminal(f)) {
    const BddNode& n = node(f);
    f = assignment[n.var] ? n.high : n.low;
  }
  return f == kTrue;
}

double Manager::sat_count(Ref f) const {
  // Count over reachable nodes, then scale by skipped variables. counts[i]
  // belongs to order[i]; order ascends, so a child's position is found by
  // binary search and is always already filled.
  const auto order = reachable(f);
  std::vector<double> counts(order.size());
  auto count_of = [&](Ref r) {
    return counts[static_cast<std::size_t>(
        std::lower_bound(order.begin(), order.end(), r) - order.begin())];
  };
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Ref r = order[i];
    if (is_terminal(r)) {
      counts[i] = r == kTrue ? 1 : 0;
      continue;
    }
    const BddNode& n = node(r);
    auto weight = [&](Ref child) {
      const std::uint32_t child_var =
          is_terminal(child) ? num_vars_ : node(child).var;
      const double skipped = static_cast<double>(child_var - n.var - 1);
      return count_of(child) * std::pow(2.0, skipped);
    };
    counts[i] = weight(n.low) + weight(n.high);
  }
  const std::uint32_t root_var = is_terminal(f) ? num_vars_ : node(f).var;
  return count_of(f) * std::pow(2.0, static_cast<double>(root_var));
}

std::size_t Manager::size(Ref f) const { return reachable(f).size(); }

std::vector<std::vector<std::int8_t>> Manager::enumerate_paths(
    Ref f, Ref target, std::size_t max_paths) const {
  if (target != kFalse && target != kTrue) {
    throw ModelError("bdd: enumerate_paths target must be a terminal");
  }
  std::vector<std::vector<std::int8_t>> paths;
  std::vector<std::int8_t> current(num_vars_, kDontCare);

  auto recurse = [&](auto&& self, Ref w) -> void {
    if (is_terminal(w)) {
      if (w == target) {
        if (paths.size() >= max_paths) {
          throw LimitError("bdd: more than " + std::to_string(max_paths) +
                           " paths");
        }
        paths.push_back(current);
      }
      return;
    }
    const BddNode& n = node(w);
    current[n.var] = 0;
    self(self, n.low);
    current[n.var] = 1;
    self(self, n.high);
    current[n.var] = kDontCare;
  };
  recurse(recurse, f);
  return paths;
}

std::vector<Ref> Manager::reachable(Ref f) const {
  std::vector<char> seen(num_nodes(), 0);
  std::vector<Ref> stack{f};
  seen[f] = 1;
  while (!stack.empty()) {
    const Ref r = stack.back();
    stack.pop_back();
    if (is_terminal(r)) continue;
    const BddNode& n = node(r);
    for (Ref child : {n.low, n.high}) {
      if (!seen[child]) {
        seen[child] = 1;
        stack.push_back(child);
      }
    }
  }
  std::vector<Ref> out;
  const Ref total = static_cast<Ref>(seen.size());
  for (Ref r = 0; r < total; ++r) {
    if (seen[r]) out.push_back(r);
  }
  return out;
}

}  // namespace adtp::bdd
