#include "faults/random_patterns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "logic/benchmarks.hpp"
#include "serial_oracle.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

/// The whole run rebuilt from the oracles: the same seeded pattern stream,
/// each fault's first detecting pattern over that stream from
/// reference_line or the retained-state reference_transistor, and the
/// curve and stopping rules applied to those indices.
RandomPatternResult oracle_run(const logic::Circuit& ckt,
                               const std::vector<Fault>& faults,
                               const RandomPatternOptions& opt) {
  util::SplitMix64 rng(opt.seed);
  std::vector<logic::Pattern> stream(
      static_cast<std::size_t>(opt.max_patterns),
      logic::Pattern(ckt.primary_inputs().size()));
  for (logic::Pattern& p : stream)
    for (logic::LogicV& v : p)
      v = logic::from_bool(rng.chance(opt.one_probability));
  std::vector<int> first;
  for (const Fault& f : faults)
    first.push_back(
        f.site == FaultSite::kGateTransistor
            ? test::reference_transistor(ckt, f, stream, opt.sim).first_pattern
            : test::reference_line(ckt, f, stream).first_pattern);

  RandomPatternResult r;
  r.total_faults = static_cast<int>(faults.size());
  int detected = 0;
  int stale = 0;
  for (int k = 0; k < opt.max_patterns; ++k) {
    const int fresh =
        static_cast<int>(std::count(first.begin(), first.end(), k));
    detected += fresh;
    r.patterns.push_back(stream[static_cast<std::size_t>(k)]);
    r.curve.push_back({k + 1, detected,
                       static_cast<double>(detected) /
                           static_cast<double>(faults.size())});
    stale = fresh > 0 ? 0 : stale + 1;
    if (stale >= opt.stale_limit || detected == r.total_faults) break;
  }
  return r;
}

TEST(RandomPatterns, PatternsAndCurveMatchTheOracles) {
  const std::vector<std::pair<std::string, logic::Circuit>> roster = {
      {"c17", logic::c17()},
      {"alu_slice", logic::alu_slice()},
      {"parity_tree_9", logic::parity_tree(9)}};
  for (const auto& [name, ckt] : roster) {
    const std::vector<Fault> faults = generate_fault_list(ckt);
    for (const std::uint64_t seed : {3ull, 11ull})
      for (const double one : {0.5, 0.3})
        for (const bool iddq : {false, true})
          for (const bool seq : {false, true}) {
            RandomPatternOptions opt;
            opt.seed = seed;
            opt.max_patterns = 96;
            opt.stale_limit = 24;
            opt.one_probability = one;
            opt.sim.observe_iddq = iddq;
            opt.sim.sequential_patterns = seq;
            const std::string label =
                name + " seed=" + std::to_string(seed) + " p1=" +
                std::to_string(one) + " iddq=" + std::to_string(iddq) +
                " seq=" + std::to_string(seq);
            const RandomPatternResult got =
                run_random_patterns(ckt, faults, opt);
            const RandomPatternResult want = oracle_run(ckt, faults, opt);
            EXPECT_EQ(got.patterns, want.patterns) << label;
            EXPECT_EQ(got.total_faults, want.total_faults) << label;
            ASSERT_EQ(got.curve.size(), want.curve.size()) << label;
            for (std::size_t k = 0; k < got.curve.size(); ++k) {
              EXPECT_EQ(got.curve[k].patterns, want.curve[k].patterns);
              EXPECT_EQ(got.curve[k].detected, want.curve[k].detected)
                  << label << " pattern " << k;
              EXPECT_EQ(got.curve[k].coverage, want.curve[k].coverage);
            }
          }
  }
}

TEST(RandomPatterns, CoverageCurveIsMonotoneAndReproducible) {
  const logic::Circuit ckt = logic::c17();
  const auto faults = generate_fault_list(ckt);
  RandomPatternOptions opt;
  opt.seed = 7;
  opt.max_patterns = 64;
  const RandomPatternResult a = run_random_patterns(ckt, faults, opt);
  const RandomPatternResult b = run_random_patterns(ckt, faults, opt);
  ASSERT_FALSE(a.curve.empty());
  ASSERT_EQ(a.curve.size(), b.curve.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_GE(a.curve[i].coverage, prev);
    prev = a.curve[i].coverage;
    EXPECT_DOUBLE_EQ(a.curve[i].coverage, b.curve[i].coverage);
  }
}

TEST(RandomPatterns, IddqObservationLiftsTheCeiling) {
  // The paper's message as a random-pattern experiment: without IDDQ the
  // pull-up polarity faults of DP logic cap the achievable coverage.
  const logic::Circuit ckt = logic::full_adder();
  const auto faults = generate_fault_list(ckt);
  RandomPatternOptions with;
  with.max_patterns = 128;
  RandomPatternOptions without = with;
  without.sim.observe_iddq = false;
  const double cov_with =
      run_random_patterns(ckt, faults, with).final_coverage();
  const double cov_without =
      run_random_patterns(ckt, faults, without).final_coverage();
  EXPECT_GT(cov_with, cov_without + 0.1);
}

TEST(RandomPatterns, SequentialSimulationCatchesStuckOpens) {
  // With retention threaded between consecutive random patterns, SP
  // stuck-opens become detectable by chance two-pattern sequences.
  const logic::Circuit ckt = logic::c17();
  std::vector<Fault> opens;
  for (const logic::GateInst& g : ckt.gates())
    for (int t = 0; t < 4; ++t)
      opens.push_back(
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen));
  RandomPatternOptions opt;
  opt.max_patterns = 192;
  opt.sim.sequential_patterns = true;
  const RandomPatternResult r = run_random_patterns(ckt, opens, opt);
  EXPECT_GT(r.final_coverage(), 0.5);
}

TEST(RandomPatterns, StaleLimitStopsEarly) {
  const logic::Circuit ckt = logic::c17();
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  RandomPatternOptions opt;
  opt.max_patterns = 10000;
  opt.stale_limit = 8;
  const RandomPatternResult r = run_random_patterns(ckt, faults, opt);
  EXPECT_LT(static_cast<int>(r.patterns.size()), 10000);
}

TEST(RandomPatterns, ValidatesOptions) {
  const logic::Circuit ckt = logic::c17();
  RandomPatternOptions bad;
  bad.max_patterns = 0;
  EXPECT_THROW((void)run_random_patterns(ckt, {}, bad),
               std::invalid_argument);
  bad = RandomPatternOptions{};
  bad.one_probability = 1.0;
  EXPECT_THROW((void)run_random_patterns(ckt, {}, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace cpsinw::faults
