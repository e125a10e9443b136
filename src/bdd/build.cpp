#include "bdd/build.hpp"

#include "util/error.hpp"

namespace adtp::bdd {

std::vector<Ref> build_all(Manager& manager, const Adt& adt,
                           const VarOrder& order) {
  if (manager.num_vars() != order.num_vars()) {
    throw ModelError("bdd::build_all: manager has " +
                     std::to_string(manager.num_vars()) +
                     " variables but the order defines " +
                     std::to_string(order.num_vars()));
  }

  std::vector<Ref> value(adt.size(), kFalse);
  std::vector<Ref> ops;
  std::vector<Ref> next;
  for (NodeId v : adt.topological_order()) {
    const Node& n = adt.node(v);
    if (n.type == GateType::BasicStep) {
      value[v] = manager.make_var(order.var_of(v));
      continue;
    }
    if (n.type == GateType::Inhibit) {
      // Definition 3: f(inhibited) AND NOT f(trigger).
      value[v] = manager.apply_and(value[n.children[0]],
                                   manager.apply_not(value[n.children[1]]));
      continue;
    }
    const bool is_and = n.type == GateType::And;
    ops.clear();
    for (NodeId c : n.children) ops.push_back(value[c]);
    while (ops.size() > 1) {
      next.clear();
      for (std::size_t p = 0; p + 1 < ops.size(); p += 2) {
        next.push_back(is_and ? manager.apply_and(ops[p], ops[p + 1])
                              : manager.apply_or(ops[p], ops[p + 1]));
      }
      if (ops.size() % 2 != 0) next.push_back(ops.back());
      ops.swap(next);
    }
    // AND/OR gates are validated non-empty; a one-child gate simply
    // aliases its child's function.
    value[v] = ops.front();
  }
  return value;
}

Ref build_structure_function(Manager& manager, const Adt& adt,
                             const VarOrder& order) {
  return build_all(manager, adt, order)[adt.root()];
}

}  // namespace adtp::bdd
