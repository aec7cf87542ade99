// The frozen per-candidate reverse-greedy compaction that
// atpg::compact_patterns is pinned against: walk the candidates last to
// first, fault-simulate every fault against each candidate in a context of
// its own (one full compile plus planes per candidate), and keep a
// candidate iff it detects a fault no kept candidate detects yet; stop once
// every fault is covered.  Alongside it: the test flow's compaction step
// run through that oracle, and a canonical text dump of a TestSuite for
// byte-for-byte comparisons.  Shared by the compaction and test-flow suites
// and by bench_context's "atpg" leg, so the header is test-framework free.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/compaction.hpp"
#include "core/test_flow.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"

namespace cpsinw::faults::test {

inline atpg::CompactionResult reference_compaction(
    const logic::Circuit& ckt, const std::vector<Fault>& faults,
    const std::vector<logic::Pattern>& patterns,
    const FaultSimOptions& options = {}) {
  const FaultSimulator fsim(ckt);
  atpg::CompactionResult out;
  out.original_count = static_cast<int>(patterns.size());
  const EvalContext before_ctx(ckt, patterns);
  out.coverage_before = fsim.run(before_ctx, faults, options).coverage();

  std::vector<logic::Pattern> kept;
  std::vector<char> covered(faults.size(), 0);
  int covered_count = 0;
  for (auto it = patterns.rbegin(); it != patterns.rend(); ++it) {
    bool adds = false;
    const EvalContext pattern_ctx(ckt, {*it});
    const FaultSimReport rep = fsim.run(pattern_ctx, faults, options);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (covered[fi]) continue;
      if (rep.records[fi].detected(options.observe_iddq)) {
        covered[fi] = 1;
        ++covered_count;
        adds = true;
      }
    }
    if (adds) kept.push_back(*it);
    if (covered_count == static_cast<int>(faults.size())) break;
  }
  std::reverse(kept.begin(), kept.end());
  out.patterns = std::move(kept);
  out.coverage_after = fsim.run(faults, out.patterns, options).coverage();
  return out;
}

/// core::run_test_flow's compaction step applied with the oracle to a
/// suite generated with `compact = false`: the voltage-observed patterns
/// are compacted over every line fault plus the functionally covered
/// transistor faults, IDDQ off and sequences off, and replaced only when
/// coverage does not drop.
inline void reference_flow_compaction(const logic::Circuit& ckt,
                                      core::TestSuite& suite) {
  if (suite.logic_patterns.empty()) return;
  std::vector<Fault> comb;
  for (const core::FaultOutcome& o : suite.outcomes)
    if (o.fault.site != FaultSite::kGateTransistor ||
        o.method == core::CoverageMethod::kFunctionalPattern)
      comb.push_back(o.fault);
  FaultSimOptions fso;
  fso.observe_iddq = false;
  fso.sequential_patterns = false;
  const atpg::CompactionResult cr =
      reference_compaction(ckt, comb, suite.logic_patterns, fso);
  if (cr.coverage_after >= cr.coverage_before)
    suite.logic_patterns = cr.patterns;
}

/// Every deterministic field of a suite as text (the stage timings are
/// left out): two suites are the same test set iff their dumps are equal.
inline std::string suite_text(const logic::Circuit& ckt,
                              const core::TestSuite& suite) {
  std::ostringstream os;
  const auto pattern = [&os](const logic::Pattern& p) {
    for (const logic::LogicV v : p)
      os << (v == logic::LogicV::k0   ? '0'
             : v == logic::LogicV::k1 ? '1'
                                      : 'X');
    os << '\n';
  };
  for (const core::FaultOutcome& o : suite.outcomes)
    os << o.fault.describe(ckt) << ' ' << core::to_string(o.method) << ' '
       << static_cast<int>(o.status) << '\n';
  os << "logic " << suite.logic_patterns.size() << '\n';
  for (const logic::Pattern& p : suite.logic_patterns) pattern(p);
  os << "iddq " << suite.iddq_patterns.size() << '\n';
  for (const logic::Pattern& p : suite.iddq_patterns) pattern(p);
  os << "two_pattern " << suite.two_pattern_tests.size() << '\n';
  for (const atpg::TwoPatternTest& t : suite.two_pattern_tests) {
    os << t.fault.describe(ckt) << ' ' << t.init_cube << ' ' << t.test_cube
       << '\n';
    pattern(t.init);
    pattern(t.test);
  }
  os << "channel_break " << suite.channel_break_tests.size() << '\n';
  for (const atpg::ChannelBreakTest& t : suite.channel_break_tests) {
    os << t.gate << ' ' << t.transistor << ' '
       << static_cast<int>(t.emulated_polarity) << ' ' << t.local_vector
       << ' ' << t.rails.true_bits << ' ' << t.rails.bar_bits << ' '
       << t.expected_intact.out_read << t.expected_intact.iddq << ' '
       << t.expected_broken.out_read << t.expected_broken.iddq << ' '
       << t.broken_is_clean << t.intact_shows_iddq
       << t.intact_shows_output_error << t.pi_accessible << '\n';
    if (t.pattern) pattern(*t.pattern);
  }
  return os.str();
}

}  // namespace cpsinw::faults::test
