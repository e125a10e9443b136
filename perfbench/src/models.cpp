#include "models.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "gen/random_adt.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace adtp;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t state = seed;
  state = splitmix64(state) ^ (stream * 0x9e3779b97f4a7c15ULL);
  state = splitmix64(state) ^ index;
  return splitmix64(state);
}

AugmentedAdt counter_countered(int m, int k, std::uint64_t seed) {
  Adt adt;
  std::vector<NodeId> chain(static_cast<std::size_t>(2 * m + 2), 0);
  std::vector<bool> built(chain.size(), false);
  auto leaf = [&](int j) {
    const auto slot = static_cast<std::size_t>(j);
    if (!built[slot]) {
      const std::string s = std::to_string(j);
      const NodeId b = adt.add_basic("b" + s, Agent::Attacker);
      const NodeId d = adt.add_basic("d" + s, Agent::Defender);
      const NodeId c = adt.add_basic("c" + s, Agent::Attacker);
      const NodeId counter = adt.add_inhibit("co" + s, d, c);
      chain[slot] = adt.add_inhibit("cp" + s, b, counter);
      built[slot] = true;
    }
    return chain[slot];
  };
  std::vector<NodeId> ors;
  int next = 1;
  for (int i = 0; i < m; ++i) {
    ors.push_back(adt.add_gate("or" + std::to_string(i + 1), GateType::Or,
                               Agent::Attacker, {leaf(next), leaf(next + 1)}));
    next += next < k ? 1 : 2;
  }
  adt.set_root(
      adt.add_gate("root", GateType::And, Agent::Attacker, std::move(ors)));
  adt.freeze();
  Attribution beta =
      random_attribution(adt, Semiring::min_cost(), Semiring::min_cost(), seed);
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

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
    const NodeId defenses = adt.add_gate("defenses_" + bs, GateType::And,
                                         Agent::Defender,
                                         {fig4("l"), fig4("r")});
    const NodeId main_attack = adt.add_basic("main_" + bs, Agent::Attacker);
    beta.set("main_" + bs, 1.0);
    const NodeId carrier =
        adt.add_inhibit("carrier_" + bs, main_attack, defenses);
    const NodeId bypass = adt.add_basic("bypass_" + bs, Agent::Attacker);
    beta.set("bypass_" + bs,
             std::ldexp(1.0, static_cast<int>(n > 4 ? n - 4 : 1)));
    block_roots.push_back(adt.add_gate("block" + bs, GateType::Or,
                                       Agent::Attacker, {carrier, bypass}));
  }
  adt.set_root(adt.add_gate("top", GateType::And, Agent::Attacker,
                            std::move(block_roots)));
  adt.freeze();
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

}  // namespace perfbench
