// End-to-end CP test generation flow: classical line stuck-at ATPG plus the
// paper's extensions (functional polarity-fault tests, IDDQ tests,
// two-pattern stuck-open tests for SP gates, channel-break procedure for
// DP gates), with verification by fault simulation and optional
// compaction.  One PodemEngine and one FaultSimulator serve every fault of
// a run, so the circuit is compiled and SCOAP computed once per flow, not
// once per fault.
#pragma once

#include <vector>

#include "atpg/channel_break.hpp"
#include "atpg/compaction.hpp"
#include "atpg/podem.hpp"
#include "atpg/two_pattern.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"

namespace cpsinw::core {

/// How a fault ended up covered.
enum class CoverageMethod {
  kStuckAtPattern,     ///< classical PODEM pattern
  kFunctionalPattern,  ///< output-observable polarity/stuck-on test
  kIddqPattern,        ///< leakage-observable test (paper Table III)
  kTwoPattern,         ///< stuck-open two-pattern sequence
  kChannelBreak,       ///< the paper's new DP procedure
  kUncovered,          ///< no test found (untestable or aborted)
};

/// Readable method name.
[[nodiscard]] const char* to_string(CoverageMethod method);

/// Per-fault outcome of the flow.
struct FaultOutcome {
  faults::Fault fault;
  CoverageMethod method = CoverageMethod::kUncovered;
  atpg::AtpgStatus status = atpg::AtpgStatus::kUntestable;
};

/// Flow controls.
struct TestFlowOptions {
  atpg::PodemOptions podem;
  bool compact = true;
  bool observe_iddq = true;
  /// Disable the new fault models (baseline comparison: classical flow).
  bool classical_only = false;
};

/// Calls and wall time of one flow stage.
struct StageCost {
  int calls = 0;
  double seconds = 0.0;
};

/// Where a flow run's time went, stage by stage.  Wall time varies from
/// run to run; everything else in a TestSuite is deterministic.
struct FlowStages {
  StageCost line;           ///< line stuck-at PODEM, one call per line fault
  StageCost functional;     ///< functional PODEM for output-visible faults
  StageCost iddq;           ///< IDDQ PODEM
  StageCost two_pattern;    ///< two-pattern stuck-open generation
  StageCost channel_break;  ///< DP cell test derivation plus justification
  StageCost compaction;     ///< compaction of the voltage-observed set
};

/// The generated test artifacts.
struct TestSuite {
  std::vector<logic::Pattern> logic_patterns;    ///< voltage-observed tests
  std::vector<logic::Pattern> iddq_patterns;     ///< IDDQ-observed tests
  std::vector<atpg::TwoPatternTest> two_pattern_tests;
  std::vector<atpg::ChannelBreakTest> channel_break_tests;
  std::vector<FaultOutcome> outcomes;
  FlowStages stages;

  [[nodiscard]] int covered_count() const;
  [[nodiscard]] int count(CoverageMethod method) const;
  [[nodiscard]] double coverage() const;
};

/// Runs the complete flow over the circuit's fault universe.
[[nodiscard]] TestSuite run_test_flow(const logic::Circuit& ckt,
                                      const TestFlowOptions& options = {});

}  // namespace cpsinw::core
