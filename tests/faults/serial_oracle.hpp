// The slow oracles shared by the equivalence suites and the benches'
// "before" legs.  Every fast path of the library is pinned against them, so
// they share no code with it beyond the interpreted packed evaluator of
// logic_sim (pack_patterns, simulate_packed, eval_cell_packed):
//   * interp::simulate / interp::simulate_faulty — the seed's scalar
//     evaluators, frozen: they walk GateInst records through topo_order()
//     and re-consult dictionary rows per gate;
//   * reference_line — the seed's line stuck-at algorithm: 64-pattern
//     slices packed by pack_patterns, the good machine by simulate_packed,
//     the faulty one by an interpreted walk with the line forced, first
//     detecting bit;
//   * reference_transistor — the seed's transistor algorithm, verbatim:
//     interpreted good machine per pattern, ad-hoc analyze_fault,
//     retained-state threading through the whole net vector — plus the
//     first-only break.
// The header is test-framework free, so bench code includes it too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/logic_sim.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults::test {

/// `count` uniformly random binary patterns from `seed`.
inline std::vector<logic::Pattern> random_patterns(const logic::Circuit& ckt,
                                                   int count,
                                                   std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<logic::Pattern> out;
  for (int k = 0; k < count; ++k) {
    logic::Pattern p(ckt.primary_inputs().size());
    for (logic::LogicV& v : p) v = logic::from_bool(rng.chance(0.5));
    out.push_back(std::move(p));
  }
  return out;
}

namespace interp {

using logic::Circuit;
using logic::GateInst;
using logic::LogicV;
using logic::NetId;
using logic::Pattern;
using logic::SimResult;

inline LogicV eval_gate(const GateInst& g, const std::vector<LogicV>& values) {
  const auto bits = logic::Simulator::local_input(g, values);
  if (!bits) {
    const auto in_at = [&](int i) {
      return g.in[static_cast<std::size_t>(i)] >= 0
                 ? values[static_cast<std::size_t>(
                       g.in[static_cast<std::size_t>(i)])]
                 : LogicV::kX;
    };
    return logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
  }
  return logic::from_bool(gates::good_output(g.kind, *bits) != 0);
}

inline std::vector<LogicV> seed_values(const Circuit& ckt,
                                       const Pattern& pattern) {
  std::vector<LogicV> values(static_cast<std::size_t>(ckt.net_count()),
                             LogicV::kX);
  for (NetId n = 0; n < ckt.net_count(); ++n) {
    const LogicV c = ckt.constant_of(n);
    if (is_binary(c)) values[static_cast<std::size_t>(n)] = c;
  }
  for (std::size_t i = 0; i < pattern.size(); ++i)
    values[static_cast<std::size_t>(ckt.primary_inputs()[i])] = pattern[i];
  return values;
}

inline SimResult simulate(const Circuit& ckt, const Pattern& pattern) {
  SimResult r;
  r.net_values = seed_values(ckt, pattern);
  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    r.net_values[static_cast<std::size_t>(g.out)] = eval_gate(g, r.net_values);
  }
  return r;
}

/// Faulty machine with `fault_gate` evaluated from the dictionary rows:
/// floating rows retain `previous_state` (X without one), any X local
/// input yields X.
inline SimResult simulate_faulty(const Circuit& ckt, const Pattern& pattern,
                                 int fault_gate, const gates::FaultAnalysis& fa,
                                 const std::vector<LogicV>* previous_state) {
  SimResult r;
  r.net_values = seed_values(ckt, pattern);
  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    if (gid != fault_gate) {
      r.net_values[static_cast<std::size_t>(g.out)] =
          eval_gate(g, r.net_values);
      continue;
    }
    const auto bits = logic::Simulator::local_input(g, r.net_values);
    if (!bits) {
      r.net_values[static_cast<std::size_t>(g.out)] = LogicV::kX;
      continue;
    }
    const gates::FaultRow& row = fa.rows[*bits];
    if (row.faulty.contention) r.iddq_flag = true;
    const int fv =
        row.faulty.floating ? -2 : gates::logic_value(row.faulty.out);
    LogicV out = LogicV::kX;
    if (fv == 0) {
      out = LogicV::k0;
    } else if (fv == 1) {
      out = LogicV::k1;
    } else if (fv == -2) {
      out = previous_state != nullptr
                ? (*previous_state)[static_cast<std::size_t>(g.out)]
                : LogicV::kX;
      if (out == LogicV::kZ) out = LogicV::kX;
    }
    r.net_values[static_cast<std::size_t>(g.out)] = out;
  }
  return r;
}

/// Interpreted packed faulty walk with one line forced to a constant:
/// per-net words for the 64 patterns packed in `pi`.
inline std::vector<std::uint64_t> packed_line(
    const Circuit& ckt, const std::vector<std::uint64_t>& pi,
    const Fault& fault) {
  std::vector<std::uint64_t> values(
      static_cast<std::size_t>(ckt.net_count()), 0);
  for (NetId n = 0; n < ckt.net_count(); ++n)
    if (ckt.constant_of(n) == LogicV::k1)
      values[static_cast<std::size_t>(n)] = ~0ull;
  for (std::size_t i = 0; i < pi.size(); ++i)
    values[static_cast<std::size_t>(ckt.primary_inputs()[i])] = pi[i];

  const std::uint64_t forced = fault.stuck_at_one ? ~0ull : 0ull;
  if (fault.site == FaultSite::kNet)
    values[static_cast<std::size_t>(fault.net)] = forced;

  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    std::uint64_t in[3] = {0, 0, 0};
    for (int i = 0; i < g.input_count(); ++i) {
      in[i] =
          values[static_cast<std::size_t>(g.in[static_cast<std::size_t>(i)])];
      if (fault.site == FaultSite::kGateInput && fault.gate == gid &&
          fault.pin == i)
        in[i] = forced;
    }
    std::uint64_t out = logic::eval_cell_packed(g.kind, in[0], in[1], in[2]);
    if (fault.site == FaultSite::kNet && g.out == fault.net) out = forced;
    values[static_cast<std::size_t>(g.out)] = out;
  }
  return values;
}

}  // namespace interp

/// Line stuck-at record over a binary pattern sequence: the first pattern
/// whose primary outputs differ from the good machine's.
inline DetectionRecord reference_line(
    const logic::Circuit& ckt, const Fault& fault,
    const std::vector<logic::Pattern>& patterns) {
  DetectionRecord rec;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t count =
        std::min<std::size_t>(64, patterns.size() - base);
    const std::vector<logic::Pattern> slice(
        patterns.begin() + static_cast<long>(base),
        patterns.begin() + static_cast<long>(base + count));
    const auto pi_words = logic::pack_patterns(ckt, slice);
    const auto good = logic::simulate_packed(ckt, pi_words);
    const auto bad = interp::packed_line(ckt, pi_words, fault);
    const std::uint64_t active =
        count == 64 ? ~0ull : ((1ull << count) - 1ull);
    std::uint64_t diff = 0;
    for (const logic::NetId po : ckt.primary_outputs())
      diff |= good[static_cast<std::size_t>(po)] ^
              bad[static_cast<std::size_t>(po)];
    diff &= active;
    if (diff != 0) {
      rec.detected_output = true;
      rec.first_pattern = static_cast<int>(base) + __builtin_ctzll(diff);
      break;
    }
  }
  return rec;
}

inline DetectionRecord reference_transistor(
    const logic::Circuit& ckt, const Fault& fault,
    const std::vector<logic::Pattern>& patterns,
    const FaultSimOptions& options) {
  using logic::LogicV;
  const gates::FaultAnalysis fa =
      gates::analyze_fault(ckt.gate(fault.gate).kind, fault.cell_fault);

  DetectionRecord rec;
  std::vector<LogicV> state;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const logic::Pattern& p = patterns[pi];
    const logic::SimResult good = interp::simulate(ckt, p);
    const logic::SimResult bad = interp::simulate_faulty(
        ckt, p, fault.gate, fa,
        options.sequential_patterns && !state.empty() ? &state : nullptr);
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

/// Oracle record of a line or transistor fault.
inline DetectionRecord reference_record(
    const logic::Circuit& ckt, const Fault& fault,
    const std::vector<logic::Pattern>& patterns,
    const FaultSimOptions& options) {
  return fault.site == FaultSite::kGateTransistor
             ? reference_transistor(ckt, fault, patterns, options)
             : reference_line(ckt, fault, patterns);
}

}  // namespace cpsinw::faults::test
