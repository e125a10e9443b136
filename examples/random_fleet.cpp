/// Random-model fleet analysis: generates a batch of random ADTs (the
/// paper's appendix generator), analyzes the whole fleet concurrently with
/// analyze_batch(), and prints a summary table - a miniature of the
/// paper's experimental pipeline, and a template for users who want to
/// stress their own models.
///
/// Usage: random_fleet [--count N] [--nodes N] [--dag P] [--seed S]
///                     [--threads N]

#include <iostream>
#include <string>

#include "core/analyzer.hpp"
#include "core/batch.hpp"
#include "example_args.hpp"
#include "gen/random_adt.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace adtp;
using examples::flag;
using examples::flag_d;

int main(int argc, char** argv) {
  const std::size_t count = flag(argc, argv, "count", 12);
  const std::size_t nodes = flag(argc, argv, "nodes", 80);
  const double dag_probability = flag_d(argc, argv, "dag", 0.2);
  const std::uint64_t seed = flag(argc, argv, "seed", 1);
  const auto threads = static_cast<unsigned>(flag(argc, argv, "threads", 0));

  std::cout << "generating " << count << " random ADTs (~" << nodes
            << " nodes, share probability " << dag_probability << ")\n\n";

  std::vector<AugmentedAdt> fleet;
  fleet.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    RandomAdtOptions options;
    options.target_nodes = nodes;
    options.share_probability = dag_probability;
    options.max_defenses = 16;
    fleet.push_back(generate_random_aadt(options, rng(), Semiring::min_cost(),
                                         Semiring::min_cost()));
  }

  AnalysisOptions analysis;
  analysis.bdd.node_limit = 8u << 20;
  analysis.bdd.max_front_points = 200000;

  // Serve the fleet through the job API: shared analysis options here,
  // but per-item options are one assignment away (see serving_loop for
  // the full treatment with deadlines, cancellation, and a FrontCache).
  BatchOptions serving;
  serving.n_threads = threads;
  std::size_t completed = 0;
  serving.on_item = [&completed, count](const BatchItem&) {
    // Streaming progress: items arrive as they finish, not when the
    // whole batch drains.
    ++completed;
    std::cerr << "\ranalyzed " << completed << "/" << count << std::flush;
  };
  const BatchReport batch = analyze_batch(fleet, analysis, serving);
  std::cerr << "\r";

  TextTable table({"#", "nodes", "|A|", "|D|", "shape", "algorithm",
                   "front size", "front head", "time"});
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const AugmentedAdt& aadt = fleet[i];
    const BatchItem& item = batch.items[i];
    if (item.ok) {
      const Front& front = item.result.front;
      std::string head = "{";
      for (std::size_t k = 0; k < std::min<std::size_t>(2, front.size());
           ++k) {
        const auto& p = front.points()[k];
        head += (k ? ", " : "") + std::string("(") + format_value(p.def) +
                ", " + format_value(p.att) + ")";
      }
      if (front.size() > 2) head += ", ...";
      head += "}";
      table.add_row({std::to_string(i), std::to_string(aadt.adt().size()),
                     std::to_string(aadt.adt().num_attacks()),
                     std::to_string(aadt.adt().num_defenses()),
                     aadt.adt().is_tree() ? "tree" : "dag",
                     to_string(item.result.used),
                     std::to_string(front.size()), head,
                     format_seconds(item.seconds)});
    } else {
      // Show the per-item error (resource caps and genuine failures alike).
      std::string why = item.error;
      if (why.size() > 40) why = why.substr(0, 37) + "...";
      table.add_row({std::to_string(i), std::to_string(aadt.adt().size()),
                     std::to_string(aadt.adt().num_attacks()),
                     std::to_string(aadt.adt().num_defenses()),
                     aadt.adt().is_tree() ? "tree" : "dag", "-", "-", why,
                     "-"});
    }
  }
  std::cout << table.to_text();
  std::cout << "\n" << batch.items.size() - batch.failures << "/"
            << batch.items.size() << " analyzed on " << batch.threads_used
            << " thread(s) in " << format_seconds(batch.seconds) << " ("
            << batch.items_per_second() << " items/sec)\n";
  return 0;
}
