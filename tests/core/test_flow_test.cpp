#include "core/test_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../faults/compaction_oracle.hpp"
#include "core/cp_fault_models.hpp"
#include "gates/dictionary_cache.hpp"
#include "logic/bench_format.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::core {
namespace {

TEST(TestFlow, FullAdderReachesHighCoverageWithNewModels) {
  const logic::Circuit ckt = logic::full_adder();
  const TestSuite suite = run_test_flow(ckt);
  EXPECT_GT(suite.coverage(), 0.95);
  // The DP-only full adder needs the new methods for its transistor
  // faults: both IDDQ patterns and channel-break tests must appear.
  EXPECT_GT(suite.count(CoverageMethod::kIddqPattern), 0);
  EXPECT_GT(suite.count(CoverageMethod::kChannelBreak), 0);
  EXPECT_GT(suite.count(CoverageMethod::kStuckAtPattern), 0);
}

TEST(TestFlow, ClassicalFlowLeavesDpFaultsUncovered) {
  const logic::Circuit ckt = logic::full_adder();
  TestFlowOptions classical;
  classical.classical_only = true;
  const TestSuite base = run_test_flow(ckt, classical);
  const TestSuite full = run_test_flow(ckt);
  EXPECT_LT(base.coverage(), full.coverage());
  EXPECT_EQ(base.count(CoverageMethod::kIddqPattern), 0);
  EXPECT_EQ(base.count(CoverageMethod::kChannelBreak), 0);
  // The coverage gap is exactly the paper's point: DP polarity faults and
  // masked channel breaks escape the classical flow.
  EXPECT_GT(full.coverage() - base.coverage(), 0.15);
}

TEST(TestFlow, SpCircuitUsesTwoPatternTests) {
  const logic::Circuit ckt = logic::c17();
  const TestSuite suite = run_test_flow(ckt);
  EXPECT_GT(suite.count(CoverageMethod::kTwoPattern), 0);
  EXPECT_EQ(suite.count(CoverageMethod::kChannelBreak), 0);  // no DP gates
  EXPECT_GT(suite.coverage(), 0.9);
}

TEST(TestFlow, OutcomesCoverEveryFault) {
  const logic::Circuit ckt = logic::parity_tree(4);
  const TestSuite suite = run_test_flow(ckt);
  faults::FaultListOptions flo;
  flo.collapse = true;
  flo.observe_iddq = true;  // the default flow targets IDDQ tests
  const auto universe = generate_fault_list(ckt, flo);
  EXPECT_EQ(suite.outcomes.size(), universe.size());
  EXPECT_EQ(suite.covered_count(),
            static_cast<int>(suite.outcomes.size()) -
                suite.count(CoverageMethod::kUncovered));
}

TEST(TestFlow, CompactionKeepsPatternsUseful) {
  const logic::Circuit ckt = logic::multiplier_2x2();
  TestFlowOptions with;
  with.compact = true;
  TestFlowOptions without;
  without.compact = false;
  const TestSuite a = run_test_flow(ckt, with);
  const TestSuite b = run_test_flow(ckt, without);
  EXPECT_LE(a.logic_patterns.size(), b.logic_patterns.size());
  EXPECT_NEAR(a.coverage(), b.coverage(), 1e-12);
}

// The flow's one-pass compaction yields exactly the suite the per-candidate
// greedy oracle makes of the uncompacted flow, on a native circuit and on
// one ingested through the `.bench` front end.
TEST(TestFlow, CompactedSuiteEqualsOracleCompaction) {
  const logic::Circuit ingested =
      logic::read_bench_string(logic::to_bench_string(logic::alu_array(4)));
  for (const logic::Circuit& ckt : {logic::c17(), ingested}) {
    TestFlowOptions without;
    without.compact = false;
    TestSuite want = run_test_flow(ckt, without);
    const std::size_t uncompacted = want.logic_patterns.size();
    faults::test::reference_flow_compaction(ckt, want);
    EXPECT_LT(want.logic_patterns.size(), uncompacted);
    EXPECT_EQ(faults::test::suite_text(ckt, run_test_flow(ckt)),
              faults::test::suite_text(ckt, want));
  }
}

// Stage call counts follow the flow's method ladder: every line fault gets
// one line PODEM call; a transistor fault tries functional, then IDDQ,
// then two-pattern generation, stopping at the first method that covers it.
TEST(TestFlow, StageCallCountsOnC17) {
  const logic::Circuit ckt = logic::c17();
  const TestSuite suite = run_test_flow(ckt);
  int line = 0;
  int functional = 0;
  int iddq = 0;
  int two_pattern = 0;
  for (const FaultOutcome& o : suite.outcomes) {
    if (o.fault.site != faults::FaultSite::kGateTransistor) {
      ++line;
      continue;
    }
    const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
        ckt.gate(o.fault.gate).kind, o.fault.cell_fault);
    if (fa.output_detectable) ++functional;
    if (o.method == CoverageMethod::kFunctionalPattern) continue;
    if (fa.iddq_detectable) ++iddq;
    if (o.method == CoverageMethod::kIddqPattern) continue;
    if (fa.needs_sequence &&
        o.fault.cell_fault.kind == gates::TransistorFault::kStuckOpen)
      ++two_pattern;
  }
  const FlowStages& s = suite.stages;
  EXPECT_GT(line, 0);
  EXPECT_GT(functional, 0);
  EXPECT_GT(iddq, 0);
  EXPECT_GT(two_pattern, 0);
  EXPECT_EQ(s.line.calls, line);
  EXPECT_EQ(s.functional.calls, functional);
  EXPECT_EQ(s.iddq.calls, iddq);
  EXPECT_EQ(s.two_pattern.calls, two_pattern);
  EXPECT_EQ(s.channel_break.calls, 0);  // c17 has no DP gates
  EXPECT_EQ(s.compaction.calls, 1);
  EXPECT_GT(s.line.seconds, 0.0);
  EXPECT_GT(s.compaction.seconds, 0.0);

  TestFlowOptions without;
  without.compact = false;
  EXPECT_EQ(run_test_flow(ckt, without).stages.compaction.calls, 0);
}

TEST(CpFaultModels, CatalogueIsConsistent) {
  for (const CpFaultModel m :
       {CpFaultModel::kStuckAt, CpFaultModel::kStuckOpen,
        CpFaultModel::kStuckOn, CpFaultModel::kDelayFault,
        CpFaultModel::kIddq, CpFaultModel::kBridge,
        CpFaultModel::kStuckAtNType, CpFaultModel::kStuckAtPType,
        CpFaultModel::kChannelBreakProcedure}) {
    EXPECT_STRNE(to_string(m), "?");
    EXPECT_STRNE(description_of(m), "?");
  }
  EXPECT_TRUE(is_new_model(CpFaultModel::kStuckAtNType));
  EXPECT_TRUE(is_new_model(CpFaultModel::kChannelBreakProcedure));
  EXPECT_FALSE(is_new_model(CpFaultModel::kStuckAt));
}

TEST(CpFaultModels, RecommendationMatrixMatchesPaper) {
  // DP nanowire break -> the new procedure.
  const auto dp_break = recommended_models(
      faults::DefectMechanism::kNanowireBreak, true);
  EXPECT_NE(std::find(dp_break.begin(), dp_break.end(),
                      CpFaultModel::kChannelBreakProcedure),
            dp_break.end());
  // DP gate bridge -> both new polarity models.
  const auto dp_bridge =
      recommended_models(faults::DefectMechanism::kGateBridge, true);
  EXPECT_NE(std::find(dp_bridge.begin(), dp_bridge.end(),
                      CpFaultModel::kStuckAtNType),
            dp_bridge.end());
  EXPECT_NE(std::find(dp_bridge.begin(), dp_bridge.end(),
                      CpFaultModel::kStuckAtPType),
            dp_bridge.end());
  // SP break -> classical stuck-open only.
  const auto sp_break = recommended_models(
      faults::DefectMechanism::kNanowireBreak, false);
  EXPECT_EQ(sp_break.size(), 1u);
  EXPECT_EQ(sp_break.front(), CpFaultModel::kStuckOpen);
}

}  // namespace
}  // namespace cpsinw::core
