// Golden-equivalence suite for the shared evaluation context: the
// context-based run/run_range paths — including the plane transistor
// kernel on both rails — must be bit-identical to the seed's serial
// algorithms (serial_oracle.hpp).
#include "faults/eval_context.hpp"

#include <gtest/gtest.h>

#include "atpg/two_pattern.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"
#include "serial_oracle.hpp"

namespace cpsinw::faults {
namespace {

using logic::LogicV;
using logic::Pattern;
using test::reference_line;
using test::reference_transistor;

using test::random_patterns;

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

struct Workload {
  std::string name;
  logic::Circuit ckt;
  std::vector<Fault> faults;
  std::vector<Pattern> patterns;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "full_adder";
    w.ckt = logic::full_adder();
    FaultListOptions flo;
    flo.collapse = false;  // keep every dictionary shape in play
    w.faults = generate_fault_list(w.ckt, flo);
    // 70 patterns: crosses the 64-pattern batch boundary.
    w.patterns = random_patterns(w.ckt, 70, 11);
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "multiplier_2x2";
    w.ckt = logic::multiplier_2x2();
    w.faults = generate_fault_list(w.ckt, {});
    w.patterns = random_patterns(w.ckt, 66, 23);
    out.push_back(std::move(w));
  }
  return out;
}

TEST(EvalContext, RunMatchesSeedSerialReferenceForAllFaultClasses) {
  for (const Workload& w : workloads()) {
    const FaultSimulator fsim(w.ckt);
    const EvalContext ctx(w.ckt, w.patterns);
    ASSERT_TRUE(ctx.packed()) << w.name;
    for (const bool observe_iddq : {true, false}) {
      for (const bool sequential : {true, false}) {
        FaultSimOptions opt;
        opt.observe_iddq = observe_iddq;
        opt.sequential_patterns = sequential;
        const FaultSimReport got = fsim.run(ctx, w.faults, opt);
        ASSERT_EQ(got.records.size(), w.faults.size());
        for (std::size_t fi = 0; fi < w.faults.size(); ++fi) {
          const Fault& f = w.faults[fi];
          const DetectionRecord want =
              test::reference_record(w.ckt, f, w.patterns, opt);
          expect_record_eq(got.records[fi], want,
                           w.name + " fault " + std::to_string(fi) +
                               " iddq=" + std::to_string(observe_iddq) +
                               " seq=" + std::to_string(sequential));
        }
      }
    }
  }
}

TEST(EvalContext, BothTransistorRailShapesMatchSerialOracle) {
  for (const Workload& w : workloads()) {
    const FaultSimulator fsim(w.ckt);
    const EvalContext ctx(w.ckt, w.patterns);

    // The universe must actually exercise both plane paths: binary
    // dictionaries on the value rail, marginal/floating ones on dual rails.
    int binary = 0, dual = 0;
    for (const Fault& f : w.faults) {
      if (f.site != FaultSite::kGateTransistor) continue;
      const gates::FaultAnalysis& fa =
          ctx.dictionary(w.ckt.gate(f.gate).kind, f.cell_fault);
      fa.compiled_binary ? ++binary : ++dual;
    }
    ASSERT_GT(binary, 0) << w.name;
    ASSERT_GT(dual, 0) << w.name;

    TransistorPathStats paths;
    const std::vector<DetectionRecord> got =
        fsim.run_range(ctx, w.faults, 0, w.faults.size(), {}, nullptr, &paths);
    EXPECT_EQ(paths.packed, static_cast<std::size_t>(binary)) << w.name;
    EXPECT_EQ(paths.dual_rail, static_cast<std::size_t>(dual)) << w.name;
    for (std::size_t fi = 0; fi < w.faults.size(); ++fi) {
      if (w.faults[fi].site != FaultSite::kGateTransistor) continue;
      expect_record_eq(got[fi],
                       reference_transistor(w.ckt, w.faults[fi], w.patterns,
                                            {}),
                       w.name + " fault " + std::to_string(fi));
    }
  }
}

TEST(EvalContext, RunRangePartitionConcatenationMatchesWholeRun) {
  const Workload w = workloads()[0];
  const FaultSimulator fsim(w.ckt);
  const EvalContext ctx(w.ckt, w.patterns);
  const FaultSimReport whole = fsim.run(ctx, w.faults);

  std::vector<DetectionRecord> stitched;
  const std::size_t step = 7;
  for (std::size_t begin = 0; begin < w.faults.size(); begin += step) {
    const std::size_t end = std::min(w.faults.size(), begin + step);
    const auto part = fsim.run_range(ctx, w.faults, begin, end, {});
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  ASSERT_EQ(stitched.size(), whole.records.size());
  for (std::size_t fi = 0; fi < stitched.size(); ++fi)
    expect_record_eq(stitched[fi], whole.records[fi],
                     "fault " + std::to_string(fi));
}

TEST(EvalContext, ContextFreeWrappersMatchContextPath) {
  const Workload w = workloads()[1];
  const FaultSimulator fsim(w.ckt);
  const EvalContext ctx(w.ckt, w.patterns);
  const FaultSimReport via_ctx = fsim.run(ctx, w.faults);
  const FaultSimReport via_wrapper = fsim.run(w.faults, w.patterns);
  ASSERT_EQ(via_ctx.records.size(), via_wrapper.records.size());
  for (std::size_t fi = 0; fi < via_ctx.records.size(); ++fi)
    expect_record_eq(via_ctx.records[fi], via_wrapper.records[fi],
                     "fault " + std::to_string(fi));
}

TEST(EvalContext, TwoPatternStuckOpenSequencesRetainState) {
  // c17 is NAND-only: its stuck-opens have floating rows, so two-pattern
  // retention tests exist (dynamic-polarity XOR cells have none).
  const logic::Circuit ckt = logic::c17();
  const FaultSimulator fsim(ckt);
  int verified = 0;
  for (const logic::GateInst& g : ckt.gates()) {
    const int nt = static_cast<int>(gates::cell(g.kind).transistors.size());
    for (int t = 0; t < nt; ++t) {
      const Fault f =
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen);
      const atpg::TwoPatternResult r = atpg::generate_two_pattern(ckt, f, {});
      if (r.status != atpg::AtpgStatus::kDetected || !r.test) continue;
      ++verified;
      // The (init, test) retention sequence must detect through the
      // context path (the dual-rail planes: floating dictionaries) exactly
      // as through the seed serial check.
      const std::vector<Pattern> seq = {r.test->init, r.test->test};
      const EvalContext ctx(ckt, seq);
      ASSERT_TRUE(ctx.packed());
      const FaultSimReport got = fsim.run(ctx, {f}, {});
      EXPECT_TRUE(got.records[0].detected_output) << g.name << ".t" << t;
      EXPECT_EQ(got.records[0].first_pattern, 1) << g.name << ".t" << t;
      expect_record_eq(got.records[0], reference_transistor(ckt, f, seq, {}),
                       g.name + ".t" + std::to_string(t));
      // Without sequence threading the retained value is lost: the same
      // two patterns must not report a definite output detection.
      FaultSimOptions no_seq;
      no_seq.sequential_patterns = false;
      const FaultSimReport rep =
          fsim.run(ctx, {f}, no_seq);
      EXPECT_FALSE(rep.records[0].detected_output) << g.name << ".t" << t;
    }
  }
  EXPECT_GT(verified, 0);
}

TEST(EvalContext, XBearingPatternsCarryAGoodXRailAndRejectLineFaults) {
  const logic::Circuit ckt = logic::full_adder();
  std::vector<Pattern> patterns = random_patterns(ckt, 4, 3);
  patterns[2][0] = LogicV::kX;
  const EvalContext ctx(ckt, patterns);
  EXPECT_FALSE(ctx.packed());
  ASSERT_NE(ctx.good_x_planes(), nullptr);
  EXPECT_EQ(EvalContext(ckt, random_patterns(ckt, 4, 3)).good_x_planes(),
            nullptr);
  // The packed good machine reads X exactly where the interpreted one is
  // not binary, and the interpreted value elsewhere.
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const logic::SimResult want = test::interp::simulate(ckt, patterns[pi]);
    for (logic::NetId n = 0; n < ckt.net_count(); ++n) {
      const LogicV w = want.value(n);
      EXPECT_EQ(ctx.good_value(pi, n), is_binary(w) ? w : LogicV::kX)
          << "pattern " << pi << " net " << n;
    }
  }

  const FaultSimulator fsim(ckt);
  // Transistor faults still simulate (dual rails over the X rail)...
  std::vector<Fault> trans;
  for (const Fault& f : generate_fault_list(ckt, {}))
    if (f.site == FaultSite::kGateTransistor) trans.push_back(f);
  ASSERT_FALSE(trans.empty());
  const FaultSimReport got = fsim.run(ctx, trans, {});
  ASSERT_EQ(got.records.size(), trans.size());
  for (std::size_t fi = 0; fi < trans.size(); ++fi)
    expect_record_eq(got.records[fi],
                     reference_transistor(ckt, trans[fi], patterns, {}),
                     "fault " + std::to_string(fi));

  // ...while the packed line path refuses, like the seed did.
  const Fault line = Fault::net_stuck(ckt.primary_outputs()[0], false);
  EXPECT_THROW((void)fsim.run(ctx, {line}, {}), std::invalid_argument);
  // The single-pattern check still answers for a binary pattern of the
  // context and refuses the X-bearing one.
  EXPECT_EQ(fsim.line_fault_detected(ctx, line, 1),
            reference_line(ckt, line, {patterns[1]}).detected_output);
  EXPECT_THROW((void)fsim.line_fault_detected(ctx, line, 2),
               std::invalid_argument);
}

TEST(EvalContext, LineFaultDetectedOverloadsMatchOracle) {
  // 300 patterns: indices land in every word of the first kSimdWords
  // strip and past it, so the one-lane strip starts at aligned words > 0.
  const Workload w = workloads()[0];
  const std::vector<Pattern> patterns = random_patterns(w.ckt, 300, 17);
  const FaultSimulator fsim(w.ckt);
  const EvalContext ctx(w.ckt, patterns);
  int line_faults = 0;
  for (const Fault& f : w.faults) {
    if (f.site == FaultSite::kGateTransistor) continue;
    if (++line_faults % 3 != 0) continue;  // subsample for speed
    for (std::size_t pi = 0; pi < patterns.size(); pi += 7) {
      const bool want =
          reference_line(w.ckt, f, {patterns[pi]}).detected_output;
      EXPECT_EQ(fsim.line_fault_detected(ctx, f, pi), want)
          << "pattern " << pi;
      EXPECT_EQ(fsim.line_fault_detected(f, patterns[pi]), want)
          << "pattern " << pi;
    }
  }
  EXPECT_GT(line_faults, 0);
}

TEST(EvalContext, RejectsForeignCircuitAndBadRanges) {
  const logic::Circuit a = logic::full_adder();
  const logic::Circuit b = logic::c17();
  const FaultSimulator fsim(a);
  const EvalContext ctx_b(b, random_patterns(b, 4, 5));
  EXPECT_THROW((void)fsim.run(ctx_b, {}, {}), std::invalid_argument);

  const EvalContext ctx_a(a, random_patterns(a, 4, 5));
  const std::vector<Fault> faults = generate_fault_list(a, {});
  EXPECT_THROW(
      (void)fsim.run_range(ctx_a, faults, 2, 1, {}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)fsim.run_range(ctx_a, faults, 0, faults.size() + 1, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace cpsinw::faults
