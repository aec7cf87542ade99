// The serial transistor-fault oracle shared by the equivalence suites: the
// seed's algorithm, verbatim — scalar good machine per pattern, ad-hoc
// analyze_fault, retained-state threading through the whole net vector —
// plus the first-only break.  Every fast transistor path (binary planes,
// dual-rail planes, the library's own serial fallback) is pinned against
// it, so it must never share code with them beyond the scalar simulator.
#pragma once

#include <vector>

#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults::test {

inline DetectionRecord reference_transistor(
    const logic::Circuit& ckt, const Fault& fault,
    const std::vector<logic::Pattern>& patterns,
    const FaultSimOptions& options) {
  using logic::LogicV;
  const logic::Simulator sim(ckt);
  const logic::GateFault gf{fault.gate, fault.cell_fault};
  const gates::FaultAnalysis fa =
      gates::analyze_fault(ckt.gate(fault.gate).kind, fault.cell_fault);

  DetectionRecord rec;
  std::vector<LogicV> state;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const logic::Pattern& p = patterns[pi];
    const logic::SimResult good = sim.simulate(p);
    const logic::SimResult bad = sim.simulate_faulty_with(
        p, gf, fa, options.sequential_patterns && !state.empty() ? &state
                                                                 : nullptr);
    if (options.sequential_patterns) state = bad.net_values;

    bool hit = false;
    if (bad.iddq_flag && options.observe_iddq) {
      rec.detected_iddq = true;
      hit = true;
    }
    for (const logic::NetId po : ckt.primary_outputs()) {
      const LogicV g = good.value(po);
      const LogicV b = bad.value(po);
      if (is_binary(g) && is_binary(b) && g != b) {
        rec.detected_output = true;
        hit = true;
      } else if (is_binary(g) && !is_binary(b)) {
        rec.potential = true;
      }
    }
    if (hit && rec.first_pattern < 0)
      rec.first_pattern = static_cast<int>(pi);
    if (rec.first_pattern >= 0 &&
        options.detection_mode == DetectionMode::kFirstOnly)
      break;
  }
  return rec;
}

}  // namespace cpsinw::faults::test
