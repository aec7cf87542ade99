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

  const logic::CompiledCircuit cc(ckt);
  util::SplitMix64 rng(options.seed);

  // Per-transistor-fault cached dictionary and retained output, so that
  // floating outputs carry charge across the random sequence (chance
  // two-pattern stuck-open detection); per-line-fault validated compiled
  // descriptors.
  struct TransState {
    const gates::FaultAnalysis* fa = nullptr;
    logic::CompiledCircuit::RetainedOutput retained;
  };
  std::vector<TransState> trans(faults.size());
  std::vector<logic::CompiledCircuit::LineFault> line(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Fault& f = faults[fi];
    if (f.site != FaultSite::kGateTransistor) {
      line[fi] = checked_line_fault(ckt, f);
      continue;
    }
    trans[fi].fa = &gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
  }

  RandomPatternResult result;
  result.total_faults = static_cast<int>(faults.size());
  std::vector<char> detected(faults.size(), 0);
  int detected_count = 0;
  int stale = 0;

  // Every buffer the per-pattern verification loop touches is hoisted here
  // and reused — the one-word PI and good planes, the kernels' scratch and
  // result words — matching the run_range scratch pattern: no allocation
  // per (pattern, fault) candidate.  The pattern fills every lane of word
  // 0, so the word's last lane (what a floating output carries into the
  // next call) is the pattern itself; bit 0 is read back.
  using logic::CompiledCircuit;
  const std::size_t stride = CompiledCircuit::plane_stride(1);
  std::vector<std::uint64_t> pi_planes(ckt.primary_inputs().size() * stride);
  std::vector<std::uint64_t> good_planes;
  std::vector<std::uint64_t> lane_scratch;
  std::vector<std::uint64_t> trans_scratch;
  const std::uint64_t active = 1;
  std::uint64_t det[CompiledCircuit::kBatchLanes];
  std::uint64_t diff = 0;
  std::uint64_t contention = 0;
  std::uint64_t potential = 0;
  for (int k = 0; k < options.max_patterns; ++k) {
    Pattern p(ckt.primary_inputs().size());
    for (auto& v : p)
      v = logic::from_bool(rng.chance(options.one_probability));

    // Per generated pattern: the good planes are computed once here, not
    // once per fault below.
    for (std::size_t i = 0; i < p.size(); ++i)
      pi_planes[i * stride] = p[i] == LogicV::k1 ? ~0ull : 0ull;
    cc.init_packed_planes(pi_planes.data(), stride, good_planes);
    cc.eval_packed_planes(good_planes, stride);

    bool progress = false;
    const auto mark_detected = [&](std::size_t fi) {
      detected[fi] = 1;
      ++detected_count;
      progress = true;
    };
    // Undetected transistor faults: one plane-kernel word each, retained
    // output threaded through the whole sequence.
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (faults[fi].site != FaultSite::kGateTransistor || detected[fi])
        continue;
      TransState& ts = trans[fi];
      cc.eval_packed_faulty_planes(
          good_planes.data(), nullptr, stride, 1, faults[fi].gate, *ts.fa,
          &diff, &contention, &potential,
          options.sim.sequential_patterns ? &ts.retained : nullptr,
          trans_scratch);
      if (((diff | (options.sim.observe_iddq ? contention : 0)) & active) !=
          0)
        mark_detected(fi);
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
