/// Reproduces Fig. 4 / Example 4: the worst-case family with |PF| = 2^n.
///
/// For each n the bench builds the defender-rooted AADT of Fig. 4
/// (I_i = INH(d_i | a_i) with weights 2^(i-1) under an OR root), runs all
/// three algorithms, and reports the Pareto-front size (which must equal
/// 2^n = 2^|D|), the runtimes, and the combine-engine throughput:
/// points/sec is the rate at which the bottom-up run emitted Pareto
/// points, and "examined" counts the product points the k-way tournament
/// actually popped - the gap to the full cross product is the
/// upper-envelope pruning win on the paper's worst-case family.
///
/// With --json the same rows are written machine-readably (the CI
/// bench-smoke artifact).
///
/// With --bdd-threads T (> 1) every row additionally runs BDDBU with a
/// T-slot work-stealing task-DAG propagate (the BDD build stays serial),
/// reports the speedup over the sequential run, and verifies the fronts
/// are bit-identical - the single-huge-DAG scaling measurement of the
/// intra-model parallelism work (bench_bdd_scaling covers more shapes).
///
/// Usage: bench_fig4_exponential [--max-n N] [--naive-max N] [--json PATH]
///                               [--bdd-threads T]

#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace adtp;

namespace {

struct Row {
  std::size_t n = 0;
  std::size_t nodes = 0;
  std::size_t pf_size = 0;
  bool sizes_ok = false;
  double bu_seconds = 0;
  double bu_points_per_second = 0;   ///< |PF| / BU time
  std::uint64_t bu_points_examined = 0;
  std::uint64_t bu_kway_combines = 0;
  double bdd_seconds = 0;
  double naive_seconds = -1;  ///< < 0 when skipped
  // --bdd-threads sweep (threads <= 1 leaves these unset).
  unsigned bdd_threads = 1;
  double bdd_par_seconds = -1;      ///< < 0 when the sweep is off
  double bdd_par_speedup = 0;       ///< bdd_seconds / bdd_par_seconds
  std::uint64_t bdd_sched_tasks = 0;
  std::uint64_t bdd_sched_steals = 0;
  bool bdd_par_identical = true;    ///< parallel front == sequential front
};

[[nodiscard]] bool write_json(const std::string& path,
                              const std::vector<Row>& rows) {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("fig4_exponential");
  json.key("rows").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("n").value(static_cast<std::uint64_t>(row.n));
    json.key("nodes").value(static_cast<std::uint64_t>(row.nodes));
    json.key("pf_size").value(static_cast<std::uint64_t>(row.pf_size));
    json.key("sizes_ok").value(row.sizes_ok);
    json.key("bu_seconds").value(row.bu_seconds);
    json.key("bu_points_per_second").value(row.bu_points_per_second);
    json.key("bu_points_examined").value(row.bu_points_examined);
    json.key("bu_kway_combines").value(row.bu_kway_combines);
    json.key("bdd_seconds").value(row.bdd_seconds);
    if (row.naive_seconds >= 0) {
      json.key("naive_seconds").value(row.naive_seconds);
    }
    if (row.bdd_par_seconds >= 0) {
      json.key("bdd_threads").value(static_cast<std::uint64_t>(
          row.bdd_threads));
      json.key("bdd_par_seconds").value(row.bdd_par_seconds);
      json.key("bdd_par_speedup").value(row.bdd_par_speedup);
      json.key("bdd_sched_tasks").value(row.bdd_sched_tasks);
      json.key("bdd_sched_steals").value(row.bdd_sched_steals);
      json.key("bdd_par_identical").value(row.bdd_par_identical);
    }
    json.end_object();
  }
  json.end_array();
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
  const std::size_t max_n = bench::arg_size_t(argc, argv, "--max-n", 12);
  const std::size_t naive_max = bench::arg_size_t(argc, argv, "--naive-max", 9);
  const auto json_path = bench::arg_value(argc, argv, "--json");
  const unsigned bdd_threads = static_cast<unsigned>(
      bench::arg_size_t(argc, argv, "--bdd-threads", 1));

  bench::banner("Fig. 4: |PF(T)| = 2^n worst-case family (min cost / min "
                "cost)");
  std::vector<std::string> headers{"n", "|N|", "|PF|", "= 2^n", "BU time",
                                   "BU pts/s", "examined", "BDDBU time",
                                   "Naive time"};
  if (bdd_threads > 1) {
    headers.push_back("BDDBU x" + std::to_string(bdd_threads));
    headers.push_back("speedup");
  }
  TextTable table(headers);

  std::vector<Row> rows;
  for (std::size_t n = 1; n <= max_n; ++n) {
    const AugmentedAdt aadt = catalog::fig4_exponential(static_cast<int>(n));
    Row row;
    row.n = n;
    row.nodes = aadt.adt().size();

    const BottomUpReport bu = bottom_up_analyze(aadt);
    row.bu_seconds = bu.seconds;
    row.pf_size = bu.front.size();
    row.bu_points_per_second =
        bu.seconds > 0 ? static_cast<double>(bu.front.size()) / bu.seconds
                       : 0.0;
    row.bu_points_examined = bu.combine_stats.points_examined;
    row.bu_kway_combines = bu.combine_stats.kway_combines;

    Front bdd_front;
    row.bdd_seconds =
        bench::time_call([&] { bdd_front = bdd_bu_front(aadt); });

    if (bdd_threads > 1) {
      TaskScheduler pool(bdd_threads);
      BddBuOptions par;
      par.pool = &pool;
      BddBuReport par_report;
      row.bdd_par_seconds =
          bench::time_call([&] { par_report = bdd_bu_analyze(aadt, par); });
      row.bdd_threads = par_report.threads_used;
      row.bdd_par_speedup = row.bdd_par_seconds > 0
                                ? row.bdd_seconds / row.bdd_par_seconds
                                : 0.0;
      row.bdd_sched_tasks = par_report.sched.tasks;
      row.bdd_sched_steals = par_report.sched.steals;
      // The task-DAG engine's contract: bit-identical fronts.
      row.bdd_par_identical = par_report.front.bit_identical_values(bdd_front);
      if (!row.bdd_par_identical) {
        std::cerr << "MISMATCH: parallel BDDBU diverged at n = " << n << "\n";
      }
    }

    std::string naive_cell = "skipped";
    if (n <= naive_max) {
      Front naive;
      row.naive_seconds = bench::time_call([&] { naive = naive_front(aadt); });
      naive_cell = format_seconds(row.naive_seconds);
      if (naive.size() != bu.front.size()) naive_cell += " (MISMATCH)";
    }

    row.sizes_ok = bu.front.size() == (std::size_t{1} << n) &&
                   bdd_front.size() == (std::size_t{1} << n);
    std::vector<std::string> cells{
        std::to_string(n), std::to_string(row.nodes),
        std::to_string(row.pf_size), row.sizes_ok ? "yes" : "NO",
        format_seconds(row.bu_seconds),
        std::to_string(
            static_cast<std::uint64_t>(row.bu_points_per_second)),
        std::to_string(row.bu_points_examined),
        format_seconds(row.bdd_seconds), naive_cell};
    if (bdd_threads > 1) {
      cells.push_back(format_seconds(row.bdd_par_seconds) +
                      (row.bdd_par_identical ? "" : " (MISMATCH)"));
      cells.push_back(format_value(row.bdd_par_speedup, 2) + "x");
    }
    table.add_row(std::move(cells));
    rows.push_back(row);
  }
  std::cout << table.to_text();
  std::cout << "\nEvery algorithm is worst-case exponential here: the "
               "front itself has 2^|D| points (all (k, k) are "
               "Pareto-optimal).\nThe k-way combine keeps the bottom-up "
               "fold sort-free: 'examined' stays near 2 * |PF| per level "
               "instead of the |PF| * 2 * log sort cost.\n";

  if (json_path && !write_json(*json_path, rows)) return 1;
  // Like bench_bdd_scaling: a parallel front that diverges from the
  // sequential one is a determinism regression - fail the run, not just
  // the table, so CI's thread-sweep step gates on it.
  for (const Row& row : rows) {
    if (!row.bdd_par_identical) return 1;
  }
  std::cout << "\n[fig4_exponential] done\n";
  return 0;
}
