/// \file manager.hpp
/// \brief A from-scratch ROBDD engine (Definition 10).
///
/// Classic index-based reduced ordered binary decision diagrams without
/// complement edges:
///  - nodes are (var, low, high) triples hash-consed in a unique table, so
///    structurally equal functions share one node (reduction rule 1);
///  - mk() collapses nodes with identical children (reduction rule 2);
///  - binary operations go through a memoized apply(); negation and
///    restriction have their own memoized recursions.
///
/// Variables are dense indices 0..num_vars-1 and the index *is* the order:
/// smaller variables are tested closer to the root. Mapping ADT leaves to
/// variable indices (including the paper's defense-first orders) is the job
/// of bdd/order.hpp.
///
/// Storage: nodes live in a chunked arena whose chunks never move, so a
/// `const BddNode&` stays valid across later mk() calls (restrict_var()
/// holds one while it recurses). The unique table is one
/// open-addressing array of Refs (0 marks an empty slot; terminals are
/// never stored) probed linearly; a slot's key (var, low, high) is read
/// back from the arena. It is allocated on the first insert and doubles
/// at load 1/2. The computed cache is a lossy direct-mapped array of
/// {f, g, result, op} entries in which a colliding insert overwrites the
/// old entry, split into kCacheSlices slices by the top bits of the key's
/// hash; a slice doubles while its inserts outnumber its slots, up to a
/// fixed ceiling for the whole cache. The cache is lossy, not the table:
/// an evicted operation recomputes into nodes that already exist, so the
/// node set, the node count and the node numbering are those of an
/// unbounded cache. Destroying a manager frees the arena chunks and
/// 1 + kCacheSlices arrays, not one heap node per entry.
///
/// Threading: the manager has no locks. Calls that may allocate (mk(),
/// the apply family, restrict_var()) must not overlap with any other
/// call; the const queries (var(), low(), high(), reachable(), ...) may
/// run on several threads at once while nothing allocates - the pooled
/// Pareto propagation in core/bdd_bu.cpp reads a finished manager so.
///
/// Nodes are never garbage collected: the analyses in this library build a
/// bounded number of functions per manager, and node indices stay stable,
/// which the Pareto propagation (core/bdd_bu.cpp) relies on. A configurable
/// node limit guards against ordering-induced blow-up; exceeding it throws
/// LimitError rather than exhausting memory.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace adtp::bdd {

/// Index of a BDD node within its manager. 0 and 1 are the terminals.
using Ref = std::uint32_t;

inline constexpr Ref kFalse = 0;
inline constexpr Ref kTrue = 1;

/// One nonterminal BDD node. Terminals use var = kTermVar.
struct BddNode {
  std::uint32_t var;
  Ref low;
  Ref high;
};

/// Aggregate statistics of a manager (for benches and reports). Like the
/// BDD itself, every counter is a deterministic function of the
/// operations called.
struct ManagerStats {
  std::size_t num_nodes = 0;     ///< total allocated, incl. both terminals
  std::size_t unique_hits = 0;   ///< mk() calls answered from the table
  std::size_t cache_hits = 0;    ///< apply/not calls answered from cache
  std::size_t cache_misses = 0;
};

class Manager {
 public:
  /// A manager over \p num_vars variables; \p node_limit bounds the total
  /// number of allocated nodes (0 means the default of 16M; larger values
  /// are clamped to the 2^32 - 1024 nodes a Ref can address).
  explicit Manager(std::uint32_t num_vars, std::size_t node_limit = 0);

  [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return size_; }

  /// A snapshot of the counters (the cache's summed across slices).
  [[nodiscard]] ManagerStats stats() const;

  [[nodiscard]] bool is_terminal(Ref f) const noexcept { return f <= kTrue; }

  /// Variable index of a nonterminal node; throws for terminals.
  [[nodiscard]] std::uint32_t var(Ref f) const;
  [[nodiscard]] Ref low(Ref f) const;
  [[nodiscard]] Ref high(Ref f) const;

  /// The hash-consing constructor: returns the canonical node for
  /// (var, low, high), applying both ROBDD reduction rules.
  Ref mk(std::uint32_t var, Ref low, Ref high);

  /// The function "variable v" and its negation.
  Ref make_var(std::uint32_t v);
  Ref make_nvar(std::uint32_t v);

  // Memoized Boolean operations.
  Ref apply_and(Ref f, Ref g);
  Ref apply_or(Ref f, Ref g);
  Ref apply_xor(Ref f, Ref g);
  Ref apply_not(Ref f);

  /// if-then-else: f ? g : h.
  Ref ite(Ref f, Ref g, Ref h);

  /// Cofactor: f with variable \p v fixed to \p value. Memoized, so its
  /// cost is linear in the nodes above \p v, not in the paths.
  Ref restrict_var(Ref f, std::uint32_t v, bool value);

  /// Evaluates f under a full assignment (index = variable).
  [[nodiscard]] bool evaluate(Ref f, const std::vector<bool>& assignment) const;

  /// Number of satisfying assignments of f over all num_vars() variables.
  [[nodiscard]] double sat_count(Ref f) const;

  /// Number of nodes reachable from f (terminals included) - the |W| of
  /// the paper's complexity bound.
  [[nodiscard]] std::size_t size(Ref f) const;

  /// Nodes reachable from \p f in ascending index order (children before
  /// parents - a node's children exist before mk() can reference them, so
  /// index order is topological).
  [[nodiscard]] std::vector<Ref> reachable(Ref f) const;

  /// A path assignment: one entry per variable; 0/1 for decisions taken
  /// along the path, DontCare for variables the path skips (the paper's
  /// Example 6 writes these as '*').
  static constexpr std::int8_t kDontCare = -1;

  /// Enumerates every root-to-\p target path of \p f as partial
  /// assignments (the paper's "paths in the BDD correspond to evaluations
  /// of the structure function"). Throws LimitError when more than
  /// \p max_paths paths exist (path counts are worst-case exponential).
  [[nodiscard]] std::vector<std::vector<std::int8_t>> enumerate_paths(
      Ref f, Ref target, std::size_t max_paths = 1u << 20) const;

 private:
  /// Computed-cache tags. 0 marks an empty cache entry; the restrict
  /// tags key (f, variable).
  enum class Op : std::uint32_t {
    And = 1,
    Or,
    Xor,
    Not,
    Restrict0,
    Restrict1
  };

  /// Slices of the computed cache. Each grows on its own, so a doubling
  /// holds the old and the new array of one slice at once, not of the
  /// whole cache: one array doubling to the 16 MB ceiling briefly holds
  /// 24 MB (perfbench dag_cold peak RSS: 17.0-17.2 MB sliced, up to
  /// 21.3 MB as one array).
  static constexpr std::size_t kCacheSlices = 64;
  static constexpr unsigned kSliceShift = 58;  // top 6 bits of a hash
  static_assert(kCacheSlices == std::size_t{1} << (64 - kSliceShift));

  struct CacheEntry {
    Ref f;
    Ref g;
    Ref result;
    Op op;
  };
  static_assert(sizeof(CacheEntry) == 16);
  struct CacheSlice {
    std::unique_ptr<CacheEntry[]> entries;  ///< null until first insert
    std::size_t capacity = 0;               ///< a power of two, or 0
    std::size_t inserts = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  // Chunked node arena: chunk c holds 2^(kFirstChunkBits + c) nodes and
  // starts at index (2^c - 1) << kFirstChunkBits, so capacity doubles
  // while small managers only ever touch the first 1K-node chunk. Chunks
  // never move, so node references survive allocation.
  static constexpr std::uint32_t kFirstChunkBits = 10;
  static constexpr std::size_t kMaxChunks = 22;
  static_assert(((std::uint64_t{1} << kMaxChunks) - 1) << kFirstChunkBits <=
                    std::numeric_limits<Ref>::max(),
                "every chunk_start(c), c <= kMaxChunks, must fit in a Ref");

  static std::uint32_t chunk_of(Ref f) noexcept {
    return static_cast<std::uint32_t>(
               std::bit_width((f >> kFirstChunkBits) + 1)) -
           1;
  }
  static Ref chunk_start(std::uint32_t c) noexcept {
    return ((Ref{1} << c) - 1) << kFirstChunkBits;
  }

  /// \p f must be an allocated nonterminal Ref.
  [[nodiscard]] const BddNode& node(Ref f) const noexcept {
    const std::uint32_t c = chunk_of(f);
    return chunks_[c][f - chunk_start(c)];
  }

  /// Appends a node to the arena and enforces the node limit.
  Ref allocate(const BddNode& n);

  Ref apply(Op op, Ref f, Ref g);

  /// The cached result of (op, f, g), if the cache still holds it;
  /// counts the hit or miss.
  std::optional<Ref> cache_lookup(Op op, Ref f, Ref g);
  /// Stores (op, f, g) -> result, overwriting whatever shared its slot.
  void cache_insert(Op op, Ref f, Ref g, Ref result);

  std::uint32_t num_vars_;
  std::size_t node_limit_;

  std::array<std::unique_ptr<BddNode[]>, kMaxChunks> chunks_;
  std::uint32_t size_ = 0;

  std::unique_ptr<Ref[]> unique_;  ///< 0 = empty; null until first insert
  std::size_t unique_capacity_ = 0;  ///< a power of two, or 0
  std::size_t unique_count_ = 0;     ///< occupied slots
  std::size_t unique_hits_ = 0;

  std::array<CacheSlice, kCacheSlices> cache_;

  static constexpr std::uint32_t kTermVar = 0xFFFFFFFFu;
};

}  // namespace adtp::bdd
