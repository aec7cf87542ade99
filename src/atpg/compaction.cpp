#include "atpg/compaction.hpp"

namespace cpsinw::atpg {

CompactionResult compact_patterns(const logic::Circuit& ckt,
                                  const std::vector<faults::Fault>& faults,
                                  const std::vector<logic::Pattern>& patterns,
                                  const faults::FaultSimOptions& options) {
  const faults::FaultSimulator fsim(ckt);
  CompactionResult out;
  out.original_count = static_cast<int>(patterns.size());
  out.coverage_before = fsim.run(faults, patterns, options).coverage();

  // Reverse greedy keeps a pattern iff it is the last one that detects
  // some fault on its own: walking backwards, a fault is still uncovered
  // at p iff no later pattern detects it.  So one first-only pass over the
  // reversed list finds every kept pattern; sequence threading is off so
  // each pattern is judged alone, as in a one-pattern context.
  faults::FaultSimOptions alone = options;
  alone.sequential_patterns = false;
  alone.detection_mode = faults::DetectionMode::kFirstOnly;
  const std::vector<logic::Pattern> reversed(patterns.rbegin(),
                                             patterns.rend());
  std::vector<char> keep(patterns.size(), 0);
  for (const faults::DetectionRecord& r :
       fsim.run(faults, reversed, alone).records)
    if (r.first_pattern >= 0)
      keep[patterns.size() - 1 - static_cast<std::size_t>(r.first_pattern)] =
          1;
  for (std::size_t i = 0; i < patterns.size(); ++i)
    if (keep[i]) out.patterns.push_back(patterns[i]);
  out.coverage_after = fsim.run(faults, out.patterns, options).coverage();
  return out;
}

}  // namespace cpsinw::atpg
