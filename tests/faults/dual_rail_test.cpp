// Bit-identity suite for the plane transistor path: every transistor fault
// on a packed context — binary dictionaries on the value rail, marginal
// and floating ones on value + X rails — must produce exactly the serial
// oracle's record (serial_oracle.hpp) under every combination of IDDQ
// observation, pattern sequencing and detection mode, with fault dropping
// always on, on every SIMD backend this build and CPU can run.  Pattern
// sets are long enough (>= 300) to cross the 64-pattern word boundary and
// the first dropping strip (kSimdWords words), which is where the retained
// output of a floating gate has to be carried.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/two_pattern.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/simd.hpp"
#include "serial_oracle.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

using logic::Circuit;
using logic::LogicV;
using logic::Pattern;
using test::reference_transistor;

using test::random_patterns;

struct Named {
  std::string name;
  Circuit ckt;
};

/// c17 is NAND-only, so its stuck-opens float; the ALU array mixes every
/// cell kind; the XOR3 chain is all dynamic-polarity cells.
std::vector<Named> roster() {
  std::vector<Named> out;
  out.push_back({"c17", logic::c17()});
  out.push_back({"alu_array_2", logic::alu_array(2)});
  out.push_back({"xor3_parity_chain_7", logic::xor3_parity_chain(7)});
  return out;
}

std::vector<Fault> transistor_faults(const Circuit& ckt) {
  FaultListOptions flo;
  flo.include_line_stuck_at = false;
  flo.cross_class_collapse = false;
  return generate_fault_list(ckt, flo);
}

const gates::FaultAnalysis& dictionary(const EvalContext& ctx,
                                       const Fault& f) {
  return ctx.dictionary(ctx.circuit().gate(f.gate).kind, f.cell_fault);
}

/// Pins the portable backend for its lifetime (false: the widest one).
struct ForcePortable {
  explicit ForcePortable(bool on) { logic::simd::force_portable(on); }
  ~ForcePortable() { logic::simd::force_portable(false); }
};

/// Every backend to run: portable always, plus the compiled wide one.
std::vector<bool> portable_settings() {
  if (logic::simd::compiled_backend() == logic::simd::Backend::kPortable)
    return {true};
  return {true, false};
}

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

/// The eight record-shaping option combinations.
std::vector<FaultSimOptions> record_options() {
  std::vector<FaultSimOptions> out;
  for (const bool iddq : {false, true})
    for (const bool seq : {false, true})
      for (const DetectionMode mode :
           {DetectionMode::kFull, DetectionMode::kFirstOnly}) {
        FaultSimOptions o;
        o.observe_iddq = iddq;
        o.sequential_patterns = seq;
        o.detection_mode = mode;
        out.push_back(o);
      }
  return out;
}

std::string describe(const FaultSimOptions& o) {
  return std::string(" iddq=") + (o.observe_iddq ? "1" : "0") +
         " seq=" + (o.sequential_patterns ? "1" : "0") +
         (o.detection_mode == DetectionMode::kFirstOnly ? " first_only"
                                                        : " full");
}

/// A stuck-open with a two-pattern test: the (init, test) pair plus the
/// fault.  Found on c17, whose NAND stuck-opens float.
struct TwoPattern {
  Fault fault;
  Pattern init;
  Pattern test;
};

std::vector<TwoPattern> c17_two_pattern_tests(const Circuit& ckt) {
  std::vector<TwoPattern> out;
  for (const logic::GateInst& g : ckt.gates()) {
    const int nt = static_cast<int>(gates::cell(g.kind).transistors.size());
    for (int t = 0; t < nt; ++t) {
      const Fault f =
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen);
      const atpg::TwoPatternResult r = atpg::generate_two_pattern(ckt, f, {});
      if (r.status != atpg::AtpgStatus::kDetected || !r.test) continue;
      out.push_back({f, r.test->init, r.test->test});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

TEST(DualRail, RandomizedRosterMatchesSerialOracleEverywhere) {
  for (const Named& w : roster()) {
    const std::vector<Pattern> patterns = random_patterns(w.ckt, 300, 41);
    const EvalContext ctx(w.ckt, patterns);
    ASSERT_TRUE(ctx.packed());
    ASSERT_GT(ctx.word_count(), logic::CompiledCircuit::kSimdWords);
    const std::vector<Fault> faults = transistor_faults(w.ckt);
    std::size_t dual = 0;
    for (const Fault& f : faults)
      if (!dictionary(ctx, f).compiled_binary) ++dual;
    ASSERT_GT(dual, 0u) << w.name << ": no dual-rail dictionaries";

    const FaultSimulator fsim(w.ckt);
    for (const FaultSimOptions& base : record_options()) {
      std::vector<DetectionRecord> want;
      for (const Fault& f : faults)
        want.push_back(reference_transistor(w.ckt, f, patterns, base));
      for (const bool portable : portable_settings()) {
        const ForcePortable pin(portable);
        TransistorPathStats paths;
        const std::vector<DetectionRecord> got = fsim.run_range(
            ctx, faults, 0, faults.size(), base, nullptr, &paths);
        EXPECT_EQ(paths.dual_rail, dual) << w.name;
        EXPECT_EQ(paths.packed + paths.dual_rail, faults.size()) << w.name;
        for (std::size_t i = 0; i < faults.size(); ++i)
          expect_record_eq(got[i], want[i],
                           w.name + " fault " + std::to_string(i) +
                               describe(base) +
                               (portable ? " portable" : " simd"));
      }
    }
  }
}

// The retained output of a floating gate crosses pattern words (63 -> 64),
// the first dropping strip (255 -> 256) and later wide strips: the init
// pattern fills every slot, the test pattern sits right after a boundary.
TEST(DualRail, RetentionCarriesAcrossWordAndStripBoundaries) {
  const Circuit ckt = logic::c17();
  const std::vector<TwoPattern> tests = c17_two_pattern_tests(ckt);
  ASSERT_FALSE(tests.empty());
  const FaultSimulator fsim(ckt);
  for (const TwoPattern& tp : tests) {
    for (const std::size_t at : {64u, 256u, 1280u}) {
      std::vector<Pattern> patterns(at + 70, tp.init);
      patterns[at] = tp.test;
      const EvalContext ctx(ckt, patterns);
      for (const FaultSimOptions& base : record_options()) {
        const DetectionRecord want =
            reference_transistor(ckt, tp.fault, patterns, base);
        if (base.sequential_patterns) {
          ASSERT_TRUE(want.detected_output);
          ASSERT_EQ(want.first_pattern, static_cast<int>(at));
        }
        for (const bool portable : portable_settings()) {
          const ForcePortable pin(portable);
          expect_record_eq(fsim.run_range(ctx, {tp.fault}, 0, 1, base)[0],
                           want,
                           "pair at " + std::to_string(at) + describe(base));
        }
      }
    }
  }
}

// Under kFirstOnly the record covers patterns up to the first counted hit
// only: an X reaching a PO after it — in the same word or a later one —
// must not set `potential`.
void expect_potential_masked(const FaultSimulator& fsim, const Circuit& ckt,
                             const Fault& f,
                             const std::vector<Pattern>& patterns,
                             bool iddq, const std::string& label) {
  FaultSimOptions first;
  first.observe_iddq = iddq;
  first.detection_mode = DetectionMode::kFirstOnly;
  const DetectionRecord want = reference_transistor(ckt, f, patterns, first);
  ASSERT_GE(want.first_pattern, 0) << label;
  ASSERT_FALSE(want.potential) << label;
  const EvalContext ctx(ckt, patterns);
  for (const bool portable : portable_settings()) {
    const ForcePortable pin(portable);
    const DetectionRecord got = fsim.run_range(ctx, {f}, 0, 1, first)[0];
    expect_record_eq(got, want, label + describe(first));
  }
}

TEST(DualRail, FirstOnlyMasksPotentialAfterFirstHit) {
  // Same word: random patterns, kept where full mode sees an X only after
  // the first hit and before the end of its word.
  std::size_t same_word = 0;
  for (const Named& w : roster()) {
    const std::vector<Pattern> patterns = random_patterns(w.ckt, 300, 43);
    const FaultSimulator fsim(w.ckt);
    for (const Fault& f : transistor_faults(w.ckt)) {
      for (const bool iddq : {false, true}) {
        FaultSimOptions first;
        first.observe_iddq = iddq;
        first.detection_mode = DetectionMode::kFirstOnly;
        const DetectionRecord want =
            reference_transistor(w.ckt, f, patterns, first);
        if (want.first_pattern < 0 || want.potential) continue;
        FaultSimOptions full = first;
        full.detection_mode = DetectionMode::kFull;
        const std::size_t word_end = std::min<std::size_t>(
            patterns.size(),
            (static_cast<std::size_t>(want.first_pattern) / 64 + 1) * 64);
        const std::vector<Pattern> to_word_end(
            patterns.begin(), patterns.begin() + static_cast<long>(word_end));
        if (!reference_transistor(w.ckt, f, to_word_end, full).potential)
          continue;
        ++same_word;
        expect_potential_masked(fsim, w.ckt, f, patterns, iddq, w.name);
      }
    }
  }
  EXPECT_GT(same_word, 0u) << "no X after the first hit within its word";

  // Later word, built on purpose: a fault with contention and marginal
  // rows (no floating ones, so patterns act independently), its IDDQ hit
  // at pattern 0, quiet patterns to the end of the word and beyond, and
  // the X-producing pattern at 70.
  std::size_t later_word = 0;
  for (const Named& w : roster()) {
    const std::vector<Pattern> pool = random_patterns(w.ckt, 64, 59);
    const FaultSimulator fsim(w.ckt);
    for (const Fault& f : transistor_faults(w.ckt)) {
      const gates::FaultAnalysis fa =
          gates::analyze_fault(w.ckt.gate(f.gate).kind, f.cell_fault);
      if (!fa.iddq_detectable || !fa.marginal_detectable || fa.needs_sequence)
        continue;
      FaultSimOptions full;
      const Pattern* hit = nullptr;
      const Pattern* x = nullptr;
      const Pattern* quiet = nullptr;
      for (const Pattern& p : pool) {
        const DetectionRecord r = reference_transistor(w.ckt, f, {p}, full);
        if (r.detected_iddq && !r.potential && hit == nullptr) hit = &p;
        if (r.potential && !r.detected(true) && x == nullptr) x = &p;
        if (!r.potential && !r.detected(true) && quiet == nullptr) quiet = &p;
      }
      if (hit == nullptr || x == nullptr || quiet == nullptr) continue;
      std::vector<Pattern> patterns(130, *quiet);
      patterns[0] = *hit;
      patterns[70] = *x;
      ASSERT_TRUE(reference_transistor(w.ckt, f, patterns, full).potential);
      ++later_word;
      expect_potential_masked(fsim, w.ckt, f, patterns, true, w.name);
    }
  }
  EXPECT_GT(later_word, 0u) << "no fault with both IDDQ and X signatures";
}

// A floating dictionary with no kWrongValue row (a NAND pull-up
// stuck-open) is detected only through retention.  The two binary-only
// shortcuts of the plane path — the early empty-record return and the
// output-final rule under dropping — must not apply to it: here the
// first pattern floats from the initial X (so the potential side is
// settled in the first strip) and the only detection comes in word 4.
TEST(DualRail, FloatingOnlyDictionaryDetectedThroughRetention) {
  const Circuit ckt = logic::c17();
  const FaultSimulator fsim(ckt);
  std::size_t checked = 0;
  for (const TwoPattern& tp : c17_two_pattern_tests(ckt)) {
    const gates::FaultAnalysis fa = gates::analyze_fault(
        ckt.gate(tp.fault.gate).kind, tp.fault.cell_fault);
    if (fa.output_detectable || !fa.needs_sequence) continue;
    ++checked;
    std::vector<Pattern> patterns(300, tp.init);
    patterns[0] = tp.test;
    patterns[261] = tp.test;
    const EvalContext ctx(ckt, patterns);
    for (const FaultSimOptions& base : record_options()) {
      const DetectionRecord want =
          reference_transistor(ckt, tp.fault, patterns, base);
      EXPECT_TRUE(want.potential);
      if (base.sequential_patterns) {
        EXPECT_TRUE(want.detected_output);
        EXPECT_EQ(want.first_pattern, 261);
      }
      expect_record_eq(fsim.run_range(ctx, {tp.fault}, 0, 1, base)[0], want,
                       describe(base));
    }
  }
  EXPECT_GT(checked, 0u) << "c17 has no floating-only stuck-open";
}

// X-bearing explicit patterns give the context a good-machine X rail;
// every transistor fault, binary dictionary or not, then takes the dual
// rails, still matching the oracle.
TEST(DualRail, XBearingPatternsTakeTheDualRails) {
  const Circuit ckt = logic::c17();
  std::vector<Pattern> patterns = random_patterns(ckt, 70, 53);
  patterns[5][2] = LogicV::kX;
  patterns[66][0] = LogicV::kX;
  const EvalContext ctx(ckt, patterns);
  ASSERT_FALSE(ctx.packed());
  ASSERT_NE(ctx.good_x_planes(), nullptr);
  const std::vector<Fault> faults = transistor_faults(ckt);
  const FaultSimulator fsim(ckt);
  for (const FaultSimOptions& opt : record_options()) {
    for (const bool portable : portable_settings()) {
      const ForcePortable pin(portable);
      TransistorPathStats paths;
      const std::vector<DetectionRecord> got =
          fsim.run_range(ctx, faults, 0, faults.size(), opt, nullptr, &paths);
      EXPECT_EQ(paths.dual_rail, faults.size());
      EXPECT_EQ(paths.packed, 0u);
      for (std::size_t i = 0; i < faults.size(); ++i)
        expect_record_eq(got[i],
                         reference_transistor(ckt, faults[i], patterns, opt),
                         "fault " + std::to_string(i) + describe(opt) +
                             (portable ? " portable" : " simd"));
    }
  }
}

/// `count` random patterns over `ckt`: each input X with probability
/// `density`, otherwise a fair binary draw; pin 0 X throughout when
/// `pin0_x`.  The set always carries at least one X.
std::vector<Pattern> x_patterns(const Circuit& ckt, std::size_t count,
                                double density, bool pin0_x,
                                std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Pattern> out;
  bool any_x = false;
  for (std::size_t k = 0; k < count; ++k) {
    Pattern p(ckt.primary_inputs().size());
    for (LogicV& v : p) {
      v = rng.chance(density) ? LogicV::kX : logic::from_bool(rng.chance(0.5));
      any_x = any_x || v == LogicV::kX;
    }
    if (pin0_x) p[0] = LogicV::kX;
    out.push_back(std::move(p));
  }
  if (!any_x && !pin0_x) out.back()[seed % out.back().size()] = LogicV::kX;
  return out;
}

// X-bearing pattern sets on the plane path, against the serial oracle:
// X at the faulted gate's inputs, X from the good machine into cone gates,
// POs whose good value is X, retention of an X-driven output, and faults
// whose dictionary has no detectable row at all (an X at their gate's
// inputs can still reach a PO whose good value is defined: potential
// only).  Pattern counts cross word (64) and first-strip (256) boundaries.
TEST(DualRail, XBearingSetsMatchSerialOracleEverywhere) {
  std::vector<Named> circuits;
  circuits.push_back({"c17", logic::c17()});
  circuits.push_back({"alu_slice", logic::alu_slice()});
  circuits.push_back({"full_adder", logic::full_adder()});
  circuits.push_back({"parity_tree_9", logic::parity_tree(9)});
  circuits.push_back({"tmr_voter_3", logic::tmr_voter(3)});
  circuits.push_back({"xor3_parity_chain_7", logic::xor3_parity_chain(7)});
  struct Density {
    const char* name;
    double p;
    bool pin0_x;
  };
  const Density densities[] = {
      {"x5%", 0.05, false}, {"x30%", 0.30, false}, {"pin0=X", 0.0, true}};
  std::size_t rowless = 0;          // dictionaries with no detectable row
  std::size_t rowless_potential = 0;  // ...that still report potential
  std::uint64_t seed = 71;
  for (const Named& w : circuits) {
    FaultListOptions flo;
    flo.include_line_stuck_at = false;
    flo.collapse = false;
    const std::vector<Fault> faults = generate_fault_list(w.ckt, flo);
    const FaultSimulator fsim(w.ckt);
    for (const Density& d : densities) {
      for (const std::size_t count : {1u, 63u, 64u, 65u, 257u, 300u}) {
        const std::vector<Pattern> patterns =
            x_patterns(w.ckt, count, d.p, d.pin0_x, ++seed);
        const EvalContext ctx(w.ckt, patterns);
        ASSERT_FALSE(ctx.packed());
        const std::string label =
            w.name + " " + d.name + " n=" + std::to_string(count);
        for (const FaultSimOptions& opt : record_options()) {
          std::vector<DetectionRecord> want;
          for (const Fault& f : faults) {
            want.push_back(reference_transistor(w.ckt, f, patterns, opt));
            const gates::FaultAnalysis& fa = dictionary(ctx, f);
            if (fa.output_detectable || fa.marginal_detectable ||
                fa.needs_sequence || fa.iddq_detectable)
              continue;
            ++rowless;
            if (want.back().potential) ++rowless_potential;
          }
          for (const bool portable : portable_settings()) {
            const ForcePortable pin(portable);
            TransistorPathStats paths;
            const std::vector<DetectionRecord> got = fsim.run_range(
                ctx, faults, 0, faults.size(), opt, nullptr, &paths);
            EXPECT_EQ(paths.dual_rail, faults.size()) << label;
            for (std::size_t i = 0; i < faults.size(); ++i)
              expect_record_eq(got[i], want[i],
                               label + " fault " + std::to_string(i) +
                                   describe(opt) +
                                   (portable ? " portable" : " simd"));
          }
        }
      }
    }
  }
  EXPECT_GT(rowless, 0u) << "no fault without a detectable row";
  EXPECT_GT(rowless_potential, 0u) << "no row-less fault reported potential";
}

}  // namespace
}  // namespace cpsinw::faults
