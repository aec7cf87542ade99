#include "atpg/compaction.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "../faults/compaction_oracle.hpp"
#include "../faults/serial_oracle.hpp"
#include "atpg/podem.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::atpg {
namespace {

using faults::Fault;
using logic::LogicV;
using logic::Pattern;

std::vector<Pattern> exhaustive_patterns(const logic::Circuit& ckt) {
  const int n = static_cast<int>(ckt.primary_inputs().size());
  std::vector<Pattern> out;
  for (unsigned v = 0; v < (1u << n); ++v) {
    Pattern p(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      p[static_cast<std::size_t>(i)] = logic::from_bool((v >> i) & 1u);
    out.push_back(std::move(p));
  }
  return out;
}

TEST(Compaction, PreservesCoverageWhileShrinking) {
  const logic::Circuit ckt = logic::c17();
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  const auto patterns = exhaustive_patterns(ckt);  // 32 patterns

  faults::FaultSimOptions fso;
  fso.observe_iddq = false;
  fso.sequential_patterns = false;
  const CompactionResult r = compact_patterns(ckt, faults, patterns, fso);
  EXPECT_EQ(r.original_count, 32);
  EXPECT_LT(r.patterns.size(), 32u);
  EXPECT_GE(r.coverage_after, r.coverage_before);
  EXPECT_DOUBLE_EQ(r.coverage_after, 1.0);
  // c17's minimal complete stuck-at test set is famously tiny.
  EXPECT_LE(r.patterns.size(), 10u);
}

TEST(Compaction, EmptyInputsAreHandled) {
  const logic::Circuit ckt = logic::c17();
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  const CompactionResult r = compact_patterns(ckt, faults, {});
  EXPECT_TRUE(r.patterns.empty());
  EXPECT_EQ(r.original_count, 0);
}

TEST(Compaction, AtpgSetCompactsWithoutCoverageLoss) {
  const logic::Circuit ckt = logic::multiplier_2x2();
  const PodemEngine engine(ckt);
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);

  std::vector<Pattern> patterns;
  for (const Fault& f : faults) {
    const AtpgResult r = engine.generate_line(f);
    if (r.status == AtpgStatus::kDetected) patterns.push_back(r.pattern);
  }
  faults::FaultSimOptions fso;
  fso.observe_iddq = false;
  fso.sequential_patterns = false;
  const CompactionResult r = compact_patterns(ckt, faults, patterns, fso);
  EXPECT_LT(r.patterns.size(), patterns.size());
  EXPECT_GE(r.coverage_after, r.coverage_before - 1e-12);
}

void expect_same(const CompactionResult& got, const CompactionResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.original_count, want.original_count) << where;
  EXPECT_EQ(got.patterns, want.patterns) << where;
  EXPECT_EQ(got.coverage_before, want.coverage_before) << where;
  EXPECT_EQ(got.coverage_after, want.coverage_after) << where;
}

/// Every combination of IDDQ observation, sequence threading and detection
/// mode, with a readable tag.
std::vector<std::pair<faults::FaultSimOptions, std::string>> option_grid() {
  std::vector<std::pair<faults::FaultSimOptions, std::string>> out;
  for (const bool iddq : {false, true})
    for (const bool seq : {false, true})
      for (const faults::DetectionMode mode :
           {faults::DetectionMode::kFull, faults::DetectionMode::kFirstOnly}) {
        faults::FaultSimOptions o;
        o.observe_iddq = iddq;
        o.sequential_patterns = seq;
        o.detection_mode = mode;
        out.emplace_back(
            o, std::string(" iddq=") + (iddq ? "1" : "0") +
                   " seq=" + (seq ? "1" : "0") + " mode=" +
                   (mode == faults::DetectionMode::kFull ? "full" : "first"));
      }
  return out;
}

// The one-pass form keeps exactly the per-candidate greedy's set: each
// fault's last detecting candidate, judged alone.  Candidate counts straddle
// the 64-pattern word boundary; the duplicate set checks that the later copy
// of a repeated candidate is the one kept.
TEST(Compaction, OnePassMatchesGreedyOracle) {
  const std::vector<std::pair<std::string, logic::Circuit>> circuits = {
      {"c17", logic::c17()},
      {"alu_array_2", logic::alu_array(2)},
      {"xor3_parity_chain_7", logic::xor3_parity_chain(7)},
      {"ripple_adder_4", logic::ripple_adder(4)},
      {"parity_tree_9", logic::parity_tree(9)},
      {"tmr_voter_3", logic::tmr_voter(3)},
      {"adder_tree_3x3", logic::adder_tree(3, 3)}};
  std::uint64_t seed = 1;
  for (const auto& [name, ckt] : circuits) {
    std::vector<std::vector<Pattern>> candidate_sets;
    for (const int count : {1, 5, 63, 64, 65, 300})
      candidate_sets.push_back(
          faults::test::random_patterns(ckt, count, seed++));
    std::vector<Pattern> dup = faults::test::random_patterns(ckt, 40, seed++);
    dup.push_back(dup[3]);
    dup.insert(dup.begin() + 20, dup[7]);
    candidate_sets.push_back(dup);

    for (const auto& [opt, tag] : option_grid()) {
      faults::FaultListOptions flo;
      flo.observe_iddq = opt.observe_iddq;
      const std::vector<Fault> universe = generate_fault_list(ckt, flo);
      for (const std::vector<Pattern>& cands : candidate_sets) {
        const std::string where = name + " n=" +
                                  std::to_string(cands.size()) + tag;
        expect_same(compact_patterns(ckt, universe, cands, opt),
                    faults::test::reference_compaction(ckt, universe, cands,
                                                       opt),
                    where);
      }
    }
  }
}

/// Random candidates where every `x_every`-th one has one input left at X
/// (the input moves from one X-bearing candidate to the next).
std::vector<Pattern> x_bearing_patterns(const logic::Circuit& ckt, int count,
                                        std::uint64_t seed, int x_every) {
  std::vector<Pattern> out = faults::test::random_patterns(ckt, count, seed);
  const auto step = static_cast<std::size_t>(x_every);
  for (std::size_t k = 0; k < out.size(); k += step)
    out[k][(k / step) % out[k].size()] = LogicV::kX;
  return out;
}

// X-bearing candidates put every transistor fault on the dual rails over the
// good machine's X rail; the kept set must still match the oracle.
TEST(Compaction, XBearingTransistorUniverseMatchesGreedyOracle) {
  for (const logic::Circuit& ckt :
       {logic::c17(), logic::alu_array(2), logic::parity_tree(9)}) {
    faults::FaultListOptions flo;
    flo.include_line_stuck_at = false;
    const std::vector<Fault> universe = generate_fault_list(ckt, flo);
    const std::vector<Pattern> cands = x_bearing_patterns(ckt, 70, 17, 3);
    ASSERT_FALSE(faults::EvalContext(ckt, cands).packed());
    for (const auto& [opt, tag] : option_grid()) {
      const CompactionResult want =
          faults::test::reference_compaction(ckt, universe, cands, opt);
      EXPECT_FALSE(want.patterns.empty());
      expect_same(compact_patterns(ckt, universe, cands, opt), want,
                  std::to_string(ckt.gate_count()) + " gates" + tag);
    }
  }
}

TEST(Compaction, XBearingCandidatesWithLineFaultsThrow) {
  const logic::Circuit ckt = logic::c17();
  const std::vector<Fault> universe = faults::generate_fault_list(ckt, {});
  const std::vector<Pattern> cands = x_bearing_patterns(ckt, 8, 5, 3);
  EXPECT_THROW((void)compact_patterns(ckt, universe, cands),
               std::invalid_argument);
}

}  // namespace
}  // namespace cpsinw::atpg
