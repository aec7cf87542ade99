// Test-set compaction: reverse-order fault-simulation-based compaction
// (drop patterns that detect no not-yet-covered fault) for combinational
// test sets, computed in one reversed fault-simulation pass.
#pragma once

#include <vector>

#include "faults/fault_sim.hpp"

namespace cpsinw::atpg {

/// Result of a compaction pass.
struct CompactionResult {
  std::vector<logic::Pattern> patterns;  ///< the compacted set
  int original_count = 0;
  double coverage_before = 0.0;
  double coverage_after = 0.0;
};

/// Reverse-order compaction: walking patterns last-to-first, keep a
/// pattern only if it detects at least one fault not detected by the
/// already-kept ones.  The kept set is exactly each fault's last detecting
/// pattern, every pattern judged alone (a floating output starts at X),
/// in original order.  Coverage never decreases when
/// `options.sequential_patterns` is off; with it on, coverage_before may
/// count retention sequences that the kept set no longer contains.
/// @param faults the fault universe to preserve coverage for
/// @throws std::invalid_argument when `faults` holds a line fault and a
///   pattern carries X
[[nodiscard]] CompactionResult compact_patterns(
    const logic::Circuit& ckt, const std::vector<faults::Fault>& faults,
    const std::vector<logic::Pattern>& patterns,
    const faults::FaultSimOptions& options = {});

}  // namespace cpsinw::atpg
