#include "faults/bridge.hpp"

#include <set>
#include <stdexcept>

namespace cpsinw::faults {

using logic::LogicV;
using logic::Pattern;

const char* to_string(BridgeBehavior behavior) {
  switch (behavior) {
    case BridgeBehavior::kWiredAnd: return "wired-AND";
    case BridgeBehavior::kWiredOr: return "wired-OR";
    case BridgeBehavior::kDominantA: return "dominant-A";
    case BridgeBehavior::kDominantB: return "dominant-B";
  }
  return "?";
}

std::vector<BridgeFault> enumerate_adjacent_bridges(
    const logic::Circuit& ckt) {
  std::set<std::pair<logic::NetId, logic::NetId>> pairs;
  for (const logic::GateInst& g : ckt.gates()) {
    // Input-input pairs of the same gate.
    for (int i = 0; i < g.input_count(); ++i) {
      for (int j = i + 1; j < g.input_count(); ++j) {
        const logic::NetId a = g.in[static_cast<std::size_t>(i)];
        const logic::NetId b = g.in[static_cast<std::size_t>(j)];
        if (a != b) pairs.insert({std::min(a, b), std::max(a, b)});
      }
    }
    // Output-input pairs of the same gate.
    for (int i = 0; i < g.input_count(); ++i) {
      const logic::NetId a = g.in[static_cast<std::size_t>(i)];
      if (a != g.out) pairs.insert({std::min(a, g.out), std::max(a, g.out)});
    }
  }
  std::vector<BridgeFault> out;
  for (const auto& [a, b] : pairs) {
    if (is_binary(ckt.constant_of(a)) || is_binary(ckt.constant_of(b)))
      continue;  // bridges to rails are the stuck-at universe
    for (const BridgeBehavior beh :
         {BridgeBehavior::kWiredAnd, BridgeBehavior::kWiredOr,
          BridgeBehavior::kDominantA, BridgeBehavior::kDominantB})
      out.push_back({a, b, beh});
  }
  return out;
}

namespace {

/// Wired resolution of the two bridged net values.
std::pair<LogicV, LogicV> resolve(BridgeBehavior behavior, LogicV a,
                                  LogicV b) {
  const auto and2 = [](LogicV x, LogicV y) {
    if (x == LogicV::k0 || y == LogicV::k0) return LogicV::k0;
    if (x == LogicV::k1 && y == LogicV::k1) return LogicV::k1;
    return LogicV::kX;
  };
  const auto or2 = [](LogicV x, LogicV y) {
    if (x == LogicV::k1 || y == LogicV::k1) return LogicV::k1;
    if (x == LogicV::k0 && y == LogicV::k0) return LogicV::k0;
    return LogicV::kX;
  };
  switch (behavior) {
    case BridgeBehavior::kWiredAnd: {
      const LogicV w = and2(a, b);
      return {w, w};
    }
    case BridgeBehavior::kWiredOr: {
      const LogicV w = or2(a, b);
      return {w, w};
    }
    case BridgeBehavior::kDominantA: return {a, a};
    case BridgeBehavior::kDominantB: return {b, b};
  }
  return {LogicV::kX, LogicV::kX};
}

}  // namespace

std::vector<LogicV> simulate_bridge(const logic::Circuit& ckt,
                                    const BridgeFault& fault,
                                    const Pattern& pattern) {
  if (fault.a < 0 || fault.b < 0 || fault.a == fault.b ||
      fault.a >= ckt.net_count() || fault.b >= ckt.net_count())
    throw std::invalid_argument("simulate_bridge: bad net pair");
  const logic::Simulator sim(ckt);

  // Fixpoint iteration over levelized evaluation with the wired values
  // substituted after each pass; a bridge inside a (now closed) loop that
  // keeps flipping resolves to X.
  std::vector<LogicV> values = sim.simulate(pattern).net_values;
  for (int round = 0; round < 4; ++round) {
    // Apply the bridge to the driver values.
    const auto [wa, wb] =
        resolve(fault.behavior, values[static_cast<std::size_t>(fault.a)],
                values[static_cast<std::size_t>(fault.b)]);
    std::vector<LogicV> next = values;
    next[static_cast<std::size_t>(fault.a)] = wa;
    next[static_cast<std::size_t>(fault.b)] = wb;
    // Re-evaluate downstream logic with the wired values pinned; the
    // bridged nets' own drivers keep their computed values (the short
    // overrides them electrically).
    for (const int gid : ckt.topo_order()) {
      const logic::GateInst& g = ckt.gate(gid);
      if (g.out == fault.a || g.out == fault.b) continue;
      const auto in_at = [&](int i) {
        return g.in[static_cast<std::size_t>(i)] >= 0
                   ? next[static_cast<std::size_t>(
                         g.in[static_cast<std::size_t>(i)])]
                   : LogicV::kX;
      };
      next[static_cast<std::size_t>(g.out)] =
          logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
    }
    // Recompute the *driver* values of the bridged nets from the updated
    // fanin (feedback handling), then check for a fixpoint.
    std::vector<LogicV> driver_values = next;
    for (const int gid : ckt.topo_order()) {
      const logic::GateInst& g = ckt.gate(gid);
      if (g.out != fault.a && g.out != fault.b) continue;
      const auto in_at = [&](int i) {
        return g.in[static_cast<std::size_t>(i)] >= 0
                   ? next[static_cast<std::size_t>(
                         g.in[static_cast<std::size_t>(i)])]
                   : LogicV::kX;
      };
      driver_values[static_cast<std::size_t>(g.out)] =
          logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
    }
    if (driver_values == values) return next;
    values = std::move(driver_values);
  }
  // Oscillating feedback bridge: the looped nets are unknown.
  std::vector<LogicV> conservative = sim.simulate(pattern).net_values;
  conservative[static_cast<std::size_t>(fault.a)] = LogicV::kX;
  conservative[static_cast<std::size_t>(fault.b)] = LogicV::kX;
  for (const int gid : ckt.topo_order()) {
    const logic::GateInst& g = ckt.gate(gid);
    if (g.out == fault.a || g.out == fault.b) continue;
    const auto in_at = [&](int i) {
      return g.in[static_cast<std::size_t>(i)] >= 0
                 ? conservative[static_cast<std::size_t>(
                       g.in[static_cast<std::size_t>(i)])]
                 : LogicV::kX;
    };
    conservative[static_cast<std::size_t>(g.out)] =
        logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
  }
  return conservative;
}

bool bridge_detected_by_output(const logic::Circuit& ckt,
                               const BridgeFault& fault,
                               const Pattern& pattern) {
  const logic::Simulator sim(ckt);
  const std::vector<LogicV> good = sim.simulate(pattern).net_values;
  const std::vector<LogicV> bad = simulate_bridge(ckt, fault, pattern);
  for (const logic::NetId po : ckt.primary_outputs()) {
    const LogicV g = good[static_cast<std::size_t>(po)];
    const LogicV b = bad[static_cast<std::size_t>(po)];
    if (is_binary(g) && is_binary(b) && g != b) return true;
  }
  return false;
}

bool bridge_excited_for_iddq(const logic::Circuit& ckt,
                             const BridgeFault& fault,
                             const Pattern& pattern) {
  const logic::Simulator sim(ckt);
  const logic::SimResult r = sim.simulate(pattern);
  const LogicV va = r.value(fault.a);
  const LogicV vb = r.value(fault.b);
  return is_binary(va) && is_binary(vb) && va != vb;
}

}  // namespace cpsinw::faults
