#include "faults/random_patterns.hpp"

#include <cstdint>
#include <stdexcept>

#include "gates/dictionary_cache.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {

using logic::LogicV;
using logic::Pattern;

RandomPatternResult run_random_patterns(const logic::Circuit& ckt,
                                        const std::vector<Fault>& faults,
                                        const RandomPatternOptions& options) {
  if (options.max_patterns < 1)
    throw std::invalid_argument("run_random_patterns: max_patterns >= 1");
  if (options.one_probability <= 0.0 || options.one_probability >= 1.0)
    throw std::invalid_argument(
        "run_random_patterns: one_probability must be in (0,1)");

  const logic::Simulator sim(ckt);
  // One compilation for the whole run (also backing `sim`); building an
  // EvalContext per generated pattern would recompile the circuit each
  // time.
  const logic::CompiledCircuit& cc = sim.compiled();
  util::SplitMix64 rng(options.seed);

  // Per-transistor-fault cached dictionary and retained net state, so that
  // floating outputs carry charge across the random sequence (chance
  // two-pattern stuck-open detection); per-line-fault validated compiled
  // descriptors.
  struct TransState {
    logic::GateFault gf;
    const gates::FaultAnalysis* fa = nullptr;
    std::vector<LogicV> state;
  };
  std::vector<TransState> trans(faults.size());
  std::vector<logic::CompiledCircuit::LineFault> line(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Fault& f = faults[fi];
    if (f.site != FaultSite::kGateTransistor) {
      line[fi] = checked_line_fault(ckt, f);
      continue;
    }
    trans[fi].gf = {f.gate, f.cell_fault};
    trans[fi].fa = &gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
  }

  RandomPatternResult result;
  result.total_faults = static_cast<int>(faults.size());
  std::vector<char> detected(faults.size(), 0);
  int detected_count = 0;
  int stale = 0;

  // Every buffer the per-pattern verification loop touches is hoisted here
  // and reused — the one-word PI and good planes, the batch kernel's lane
  // scratch, the scalar good/faulty values — matching the run_range scratch
  // pattern: no allocation per (pattern, fault) candidate.  (Retained
  // transistor state moves by swap: `faulty_values` hands its storage to
  // ts.state and takes the stale buffer back for the next candidate.)
  using logic::CompiledCircuit;
  const std::size_t stride = CompiledCircuit::plane_stride(1);
  std::vector<std::uint64_t> pi_planes(ckt.primary_inputs().size() * stride);
  std::vector<std::uint64_t> good_planes;
  std::vector<std::uint64_t> lane_scratch;
  const std::uint64_t active = 1;  // the pattern is bit 0 of word 0
  std::uint64_t det[CompiledCircuit::kBatchLanes];
  std::vector<LogicV> good_values;
  std::vector<LogicV> faulty_values;
  for (int k = 0; k < options.max_patterns; ++k) {
    Pattern p(ckt.primary_inputs().size());
    for (auto& v : p)
      v = logic::from_bool(rng.chance(options.one_probability));

    // Per generated pattern: the scalar good machine and the good planes
    // are computed once here, not once per fault below.
    cc.init_scalar(p, good_values);
    cc.eval_scalar(good_values);
    for (std::size_t i = 0; i < p.size(); ++i)
      pi_planes[i * stride] = p[i] == LogicV::k1 ? 1ull : 0ull;
    cc.init_packed_planes(pi_planes.data(), stride, good_planes);
    cc.eval_packed_planes(good_planes, stride);

    bool progress = false;
    const auto mark_detected = [&](std::size_t fi) {
      detected[fi] = 1;
      ++detected_count;
      progress = true;
    };
    // Transistor faults: one scalar walk each, retained state threaded
    // through the whole sequence (detected ones keep their state moving).
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (faults[fi].site != FaultSite::kGateTransistor) continue;
      TransState& ts = trans[fi];
      const bool has_state =
          options.sim.sequential_patterns && !ts.state.empty();
      cc.init_scalar(p, faulty_values);
      const bool iddq = cc.eval_scalar_faulty(
          faulty_values, ts.gf.gate, *ts.fa, has_state ? &ts.state : nullptr);
      bool hit = iddq && options.sim.observe_iddq;
      for (const logic::NetId po : ckt.primary_outputs()) {
        const LogicV g = good_values[static_cast<std::size_t>(po)];
        const LogicV b = faulty_values[static_cast<std::size_t>(po)];
        if (is_binary(g) && is_binary(b) && g != b) hit = true;
      }
      if (options.sim.sequential_patterns) ts.state.swap(faulty_values);
      if (hit && !detected[fi]) mark_detected(fi);
    }
    // Undetected line faults: kBatchLanes at a time through the batch
    // kernel over the one-word planes.
    std::size_t lanes[CompiledCircuit::kBatchLanes];
    CompiledCircuit::LineFault lfs[CompiledCircuit::kBatchLanes];
    std::size_t n = 0;
    const auto flush = [&] {
      (void)cc.eval_packed_line_batch(good_planes.data(), stride, 1, &active,
                                      lfs, n, det, lane_scratch);
      for (std::size_t j = 0; j < n; ++j)
        if (det[j] != 0) mark_detected(lanes[j]);
      n = 0;
    };
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (faults[fi].site == FaultSite::kGateTransistor || detected[fi])
        continue;
      lanes[n] = fi;
      lfs[n++] = line[fi];
      if (n == CompiledCircuit::kBatchLanes) flush();
    }
    if (n > 0) flush();

    result.patterns.push_back(std::move(p));
    result.curve.push_back(
        {k + 1, detected_count,
         faults.empty() ? 1.0
                        : static_cast<double>(detected_count) /
                              static_cast<double>(faults.size())});

    stale = progress ? 0 : stale + 1;
    if (stale >= options.stale_limit) break;
    if (detected_count == static_cast<int>(faults.size())) break;
  }
  return result;
}

}  // namespace cpsinw::faults
