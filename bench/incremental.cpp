/// Incremental-recompute bench: edit latency vs cold re-analysis through
/// the per-node front memo (node_memo.hpp), plus counterfactual sweep
/// throughput.
///
/// The model is the bu_scaling "Fig. 4 forest": an attacker AND over k
/// independent blocks, each two Fig. 4 subtrees of depth n meeting at a
/// defender AND (the expensive staircase cross product) behind an INH
/// carrier and a bypass that truncates the block front. A one-leaf edit
/// dirties exactly one block's spine, so an incremental re-analysis
/// replays k-1 block fronts from the memo and recomputes one - the
/// speedup target of ISSUE 8's acceptance bar (>= 5x at the default
/// k = 8, n = 14) rides on the untouched blocks, not on luck.
///
/// Every incremental run is gated on the determinism contract
/// (docs/CONTRACTS.md, "Incremental equals cold"): fronts AND witnesses
/// bit-identical to the cold run, sequentially and at --threads workers;
/// any mismatch fails the process, as does a speedup below --min-speedup
/// (0 disables the gate, for hardware-agnostic smoke runs).
///
/// Usage: bench_incremental [--blocks K] [--block-n N] [--repeats R]
///                          [--threads T] [--min-speedup S] [--cf-n N]
///                          [--json PATH]
///
/// CI runs this in bench-smoke; BENCH_8.json pins a reference run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "core/node_memo.hpp"
#include "core/whatif.hpp"
#include "gen/catalog.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace adtp;

namespace {

/// The bu_scaling forest (see bench/bu_scaling.cpp for the full rationale):
/// k independent expensive blocks under one root AND, block fronts
/// truncated by a flat bypass so the root fold stays a small tail.
AugmentedAdt fig4_forest(std::size_t blocks, std::size_t n) {
  Adt adt;
  Attribution beta;
  std::vector<NodeId> block_roots;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::string bs = std::to_string(b);
    auto fig4 = [&](const char* side) {
      std::vector<NodeId> gates;
      for (std::size_t i = 1; i <= n; ++i) {
        const std::string suffix =
            "_" + std::string(side) + bs + "_" + std::to_string(i);
        const NodeId d = adt.add_basic("d" + suffix, Agent::Defender);
        const NodeId a = adt.add_basic("a" + suffix, Agent::Attacker);
        gates.push_back(adt.add_inhibit("I" + suffix, d, a));
        const double weight = std::ldexp(1.0, static_cast<int>(i) - 1);
        beta.set("d" + suffix, weight);
        beta.set("a" + suffix, weight);
      }
      return adt.add_gate("fig4_" + std::string(side) + bs, GateType::Or,
                          Agent::Defender, std::move(gates));
    };
    const NodeId defenses = adt.add_gate(
        "defenses_" + bs, GateType::And, Agent::Defender,
        {fig4("l"), fig4("r")});
    const NodeId a_main = adt.add_basic("main_" + bs, Agent::Attacker);
    beta.set("main_" + bs, 1.0);
    const NodeId carrier = adt.add_inhibit("carrier_" + bs, a_main, defenses);
    const NodeId bypass = adt.add_basic("bypass_" + bs, Agent::Attacker);
    beta.set("bypass_" + bs,
             std::ldexp(1.0, static_cast<int>(n > 4 ? n - 4 : 1)));
    block_roots.push_back(adt.add_gate("block" + bs, GateType::Or,
                                       Agent::Attacker, {carrier, bypass}));
  }
  const NodeId root = adt.add_gate("top", GateType::And, Agent::Attacker,
                                   std::move(block_roots));
  adt.set_root(root);
  adt.freeze();
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

/// The edited variant of repeat \p r: one defense weight inside block
/// r mod k tweaked to a fresh value, so every repeat recomputes a real
/// dirty spine instead of replaying the previous repeat's root.
AugmentedAdt edited_variant(const AugmentedAdt& base, std::size_t blocks,
                            std::size_t r) {
  const std::string leaf = "d_l" + std::to_string(r % blocks) + "_1";
  Attribution beta = base.attribution();
  beta.set(leaf, beta.get(leaf) + 0.5 + static_cast<double>(r));
  return AugmentedAdt(base.adt(), std::move(beta), base.defender_domain(),
                      base.attacker_domain());
}

bool witnesses_identical(const WitnessFront& a, const WitnessFront& b) {
  if (!a.bit_identical_values(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.points()[i].defense != b.points()[i].defense) return false;
    if (a.points()[i].attack != b.points()[i].attack) return false;
  }
  return true;
}

struct BenchResult {
  double cold_seconds = 0;         ///< median cold re-analysis of an edit
  double incremental_seconds = 0;  ///< median memoized re-analysis
  double speedup = 0;
  double hit_rate = 0;  ///< memo hit rate across the edit repeats
  std::size_t front_size = 0;
  bool identical = true;
  // Counterfactual sweep.
  std::size_t cf_variants = 0;
  double cf_seconds = 0;
  double cf_variants_per_second = 0;
  double cf_hit_rate = 0;
};

[[nodiscard]] bool write_json(const std::string& path, std::size_t blocks,
                              std::size_t block_n, std::size_t cf_n,
                              const BenchResult& r) {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("incremental");
  json.key("blocks").value(static_cast<std::uint64_t>(blocks));
  json.key("block_n").value(static_cast<std::uint64_t>(block_n));
  json.key("cold_seconds").value(r.cold_seconds);
  json.key("incremental_seconds").value(r.incremental_seconds);
  json.key("speedup").value(r.speedup);
  json.key("memo_hit_rate").value(r.hit_rate);
  json.key("front_size").value(static_cast<std::uint64_t>(r.front_size));
  json.key("identical").value(r.identical);
  json.key("counterfactual_n").value(static_cast<std::uint64_t>(cf_n));
  json.key("counterfactual_variants")
      .value(static_cast<std::uint64_t>(r.cf_variants));
  json.key("counterfactual_seconds").value(r.cf_seconds);
  json.key("counterfactual_variants_per_second")
      .value(r.cf_variants_per_second);
  json.key("counterfactual_memo_hit_rate").value(r.cf_hit_rate);
  json.end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  if (!out.good()) {
    std::cerr << "FAILED to write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t blocks = bench::arg_size_t(argc, argv, "--blocks", 8);
  const std::size_t block_n = bench::arg_size_t(argc, argv, "--block-n", 14);
  const std::size_t repeats = bench::arg_size_t(argc, argv, "--repeats", 3);
  const unsigned threads =
      static_cast<unsigned>(bench::arg_size_t(argc, argv, "--threads", 8));
  const std::size_t cf_n = bench::arg_size_t(argc, argv, "--cf-n", 10);
  const double min_speedup =
      std::stod(bench::arg_value(argc, argv, "--min-speedup").value_or("5"));
  const auto json_path = bench::arg_value(argc, argv, "--json");

  bench::banner("Incremental recompute (subtree-front memo, Fig. 4 forest)");
  bench::assert_kernel_guards(catalog::fig3_example());

  const AugmentedAdt base = fig4_forest(blocks, block_n);
  std::cout << "model: " << blocks << " blocks x n = " << block_n << " ("
            << base.adt().size() << " nodes); one-leaf edits, "
            << repeats << " repeats\n\n";

  NodeFrontMemo memo(std::max<std::size_t>(4096, 8 * base.adt().size()));
  BenchResult result;

  // Warm the memo with the baseline analysis (the serving loop's state
  // after the first request).
  const AnalysisResult baseline = analyze_incremental(base, memo);
  result.front_size = baseline.front.size();

  std::vector<double> cold_times;
  std::vector<double> incremental_times;
  std::uint64_t edit_hits = 0;
  std::uint64_t edit_misses = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    const AugmentedAdt variant = edited_variant(base, blocks, r);

    AnalysisResult cold;
    cold_times.push_back(
        bench::time_call([&] { cold = analyze(variant); }));

    AnalysisResult incremental;
    incremental_times.push_back(bench::time_call(
        [&] { incremental = analyze_incremental(variant, memo); }));
    edit_hits += incremental.memo_hits;
    edit_misses += incremental.memo_misses;

    if (!incremental.front.bit_identical_values(cold.front)) {
      result.identical = false;
      std::cerr << "MISMATCH: incremental front diverged from cold (repeat "
                << r << ")\n";
    }
    // The contract holds at every thread count: re-run the memoized
    // analysis on the parallel task-DAG path and gate it too.
    AnalysisOptions parallel;
    parallel.intra_model_threads = threads;
    const AnalysisResult wide =
        analyze_incremental(variant, memo, parallel);
    if (!wide.front.bit_identical_values(cold.front)) {
      result.identical = false;
      std::cerr << "MISMATCH: incremental front diverged at " << threads
                << " threads (repeat " << r << ")\n";
    }
  }

  // Witness determinism gate, once: memoized witness fronts replayed
  // through the same memo must match the cold witness run bit for bit.
  // Witness folds are several times the value-fold cost, so the gate runs
  // on a capped forest - it checks the contract, not throughput.
  {
    const std::size_t gate_n = std::min<std::size_t>(block_n, 11);
    const AugmentedAdt gate_model =
        gate_n == block_n ? base : fig4_forest(blocks, gate_n);
    NodeFrontMemo gate_memo(memo.capacity());
    (void)analyze_incremental(gate_model, gate_memo);
    const AugmentedAdt variant = edited_variant(gate_model, blocks, repeats);
    const WitnessFront cold_witness = bottom_up_front_witness(variant);
    for (const unsigned t : {1u, threads}) {
      TaskScheduler pool(t);
      BottomUpOptions bu;
      bu.pool = &pool;
      bu.memo = &gate_memo;
      if (!witnesses_identical(bottom_up_front_witness(variant, bu),
                               cold_witness)) {
        result.identical = false;
        std::cerr << "MISMATCH: memoized witnesses diverged at " << t
                  << " threads\n";
      }
    }
  }

  result.cold_seconds = bench::median(cold_times);
  result.incremental_seconds = bench::median(incremental_times);
  result.speedup = result.incremental_seconds > 0
                       ? result.cold_seconds / result.incremental_seconds
                       : 0.0;
  const std::uint64_t edit_lookups = edit_hits + edit_misses;
  result.hit_rate = edit_lookups == 0
                        ? 0.0
                        : static_cast<double>(edit_hits) /
                              static_cast<double>(edit_lookups);

  TextTable table({"mode", "median time", "speedup", "memo hit rate"});
  table.add_row({"cold re-analysis", format_seconds(result.cold_seconds), "1.00x",
                 "-"});
  table.add_row({"incremental edit", format_seconds(result.incremental_seconds),
                 format_value(result.speedup, 2) + "x",
                 format_value(100.0 * result.hit_rate, 1) + "%"});
  std::cout << table.to_text();

  // Counterfactual sweep throughput: every single-deletion variant of a
  // Fig. 4 instance, all sharing one memo.
  {
    const AugmentedAdt cf_model =
        catalog::fig4_exponential(static_cast<int>(cf_n));
    CounterfactualReport sweep;
    result.cf_seconds =
        bench::time_call([&] { sweep = counterfactual_sweep(cf_model); });
    result.cf_variants = sweep.variants.size();
    result.cf_variants_per_second =
        result.cf_seconds > 0
            ? static_cast<double>(result.cf_variants) / result.cf_seconds
            : 0.0;
    const std::uint64_t cf_lookups = sweep.memo_hits + sweep.memo_misses;
    result.cf_hit_rate = cf_lookups == 0
                             ? 0.0
                             : static_cast<double>(sweep.memo_hits) /
                                   static_cast<double>(cf_lookups);
    for (const CounterfactualVariant& v : sweep.variants) {
      if (!v.ok) {
        result.identical = false;
        std::cerr << "FAILED variant " << v.name << ": " << v.error << "\n";
      }
    }
    std::cout << "\ncounterfactual sweep (fig4 n = " << cf_n << "): "
              << result.cf_variants << " variants in "
              << format_seconds(result.cf_seconds) << " ("
              << format_value(result.cf_variants_per_second, 1)
              << " variants/s, memo hit rate "
              << format_value(100.0 * result.cf_hit_rate, 1) << "%)\n";
  }

  std::cout << "\nSpeedup is cold re-analysis over memoized re-analysis of "
               "a one-leaf edit; the memo replays every untouched block "
               "front, so the ideal is ~k for k blocks.\n";

  if (json_path &&
      !write_json(*json_path, blocks, block_n, cf_n, result)) {
    return 1;
  }
  if (!result.identical) return 1;
  if (min_speedup > 0 && result.speedup < min_speedup) {
    std::cerr << "FAILED: incremental speedup " << result.speedup
              << "x below the --min-speedup bar " << min_speedup << "x\n";
    return 1;
  }
  std::cout << "\n[incremental] done\n";
  return 0;
}
