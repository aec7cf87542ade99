// Golden-equivalence suite for the compiled circuit core: every kernel of
// logic::CompiledCircuit — scalar good/faulty, plane good machine, batched
// line fault, plane transistor substitution — must be bit-identical to the
// seed's interpreted evaluators, re-implemented here verbatim as the
// frozen reference (the library itself no longer carries the interpreted
// walk, so the references live in tests/faults/serial_oracle.hpp).
#include "logic/compiled_circuit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/transition.hpp"
#include "engine/shard.hpp"
#include "faults/bridge.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"
#include "logic/logic_sim.hpp"
#include "../faults/serial_oracle.hpp"
#include "util/rng.hpp"

namespace cpsinw::logic {
namespace {

using faults::DetectionRecord;
using faults::Fault;
using faults::FaultSimOptions;
using faults::FaultSite;

// ---------------------------------------------------------------------------
// Interpreted reference: the seed algorithms, frozen (serial_oracle.hpp),
// plus the bridge evaluation.
namespace interp {

using faults::test::interp::simulate;
using faults::test::interp::simulate_faulty;

/// Reference bridge evaluation, mirroring the engine's hit semantics.
DetectionRecord bridge_fault(const Circuit& ckt,
                             const faults::BridgeFault& bridge,
                             const std::vector<Pattern>& patterns,
                             const FaultSimOptions& options) {
  DetectionRecord rec;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const SimResult good = simulate(ckt, patterns[pi]);
    bool hit = false;
    if (!rec.detected_output) {
      const std::vector<LogicV> bad =
          faults::simulate_bridge(ckt, bridge, patterns[pi]);
      for (const NetId po : ckt.primary_outputs()) {
        const LogicV g = good.net_values[static_cast<std::size_t>(po)];
        const LogicV b = bad[static_cast<std::size_t>(po)];
        if (is_binary(g) && is_binary(b) && g != b) {
          rec.detected_output = true;
          hit = true;
          break;
        }
      }
    }
    if (options.observe_iddq) {
      const LogicV va = good.net_values[static_cast<std::size_t>(bridge.a)];
      const LogicV vb = good.net_values[static_cast<std::size_t>(bridge.b)];
      if (is_binary(va) && is_binary(vb) && va != vb) {
        rec.detected_iddq = true;
        hit = true;
      }
    }
    if (hit && rec.first_pattern < 0) rec.first_pattern = static_cast<int>(pi);
    if (rec.detected_output && (rec.detected_iddq || !options.observe_iddq))
      break;
  }
  return rec;
}

}  // namespace interp

// ---------------------------------------------------------------------------

using faults::test::random_patterns;

struct Named {
  std::string name;
  Circuit ckt;
};

/// Every logic::benchmarks generator.
std::vector<Named> benchmark_roster() {
  std::vector<Named> out;
  out.push_back({"full_adder", full_adder()});
  out.push_back({"ripple_adder_4", ripple_adder(4)});
  out.push_back({"parity_tree_9", parity_tree(9)});
  out.push_back({"multiplier_2x2", multiplier_2x2()});
  out.push_back({"tmr_voter_3", tmr_voter(3)});
  out.push_back({"c17", c17()});
  out.push_back({"alu_slice", alu_slice()});
  out.push_back({"xor3_parity_chain_5", xor3_parity_chain(5)});
  return out;
}

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

TEST(CompiledCircuit, StructureMirrorsTopoOrderAndTables) {
  for (const Named& w : benchmark_roster()) {
    const CompiledCircuit cc(w.ckt);
    ASSERT_EQ(cc.gates().size(), w.ckt.topo_order().size()) << w.name;
    for (std::size_t k = 0; k < cc.gates().size(); ++k) {
      const CompiledCircuit::GateRec& r = cc.gates()[k];
      const int gid = w.ckt.topo_order()[k];
      EXPECT_EQ(r.id, gid) << w.name;
      EXPECT_EQ(cc.position_of(gid), k) << w.name;
      const GateInst& g = w.ckt.gate(gid);
      EXPECT_EQ(r.kind, g.kind);
      EXPECT_EQ(r.out, g.out);
      for (int i = 0; i < g.input_count(); ++i)
        EXPECT_EQ(r.in[static_cast<std::size_t>(i)],
                  g.in[static_cast<std::size_t>(i)]);
    }
  }
  // Tables agree with good_output on binary codes and eval_cell_x on all.
  const LogicV decode[3] = {LogicV::k0, LogicV::k1, LogicV::kX};
  for (const gates::CellKind kind : gates::all_cell_kinds()) {
    const LogicV* table = CompiledCircuit::good_table(kind);
    for (unsigned a = 0; a < 3; ++a)
      for (unsigned b = 0; b < 3; ++b)
        for (unsigned c = 0; c < 3; ++c) {
          const LogicV got = table[a | (b << 2) | (c << 4)];
          EXPECT_EQ(got, eval_cell_x(kind, decode[a], decode[b], decode[c]));
        }
    const int n = gates::input_count(kind);
    for (unsigned v = 0; v < (1u << n); ++v) {
      const unsigned idx = (v & 1u) | (((v >> 1) & 1u) << 2) |
                           (((v >> 2) & 1u) << 4);
      EXPECT_EQ(table[idx], from_bool(gates::good_output(kind, v) != 0));
    }
  }
}

TEST(CompiledCircuit, ScalarGoodMatchesInterpretedReference) {
  for (const Named& w : benchmark_roster()) {
    const Simulator sim(w.ckt);
    std::vector<Pattern> patterns = random_patterns(w.ckt, 24, 7);
    // X-bearing patterns exercise the 4-valued table paths.
    util::SplitMix64 rng(13);
    for (int k = 0; k < 12; ++k) {
      Pattern p(w.ckt.primary_inputs().size());
      for (LogicV& v : p)
        v = rng.chance(0.3) ? LogicV::kX : from_bool(rng.chance(0.5));
      patterns.push_back(std::move(p));
    }
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      const SimResult got = sim.simulate(patterns[pi]);
      const SimResult want = interp::simulate(w.ckt, patterns[pi]);
      ASSERT_EQ(got.net_values, want.net_values)
          << w.name << " pattern " << pi;
    }
  }
}

TEST(CompiledCircuit, ScalarFaultyMatchesInterpretedReference) {
  for (const Named& w : benchmark_roster()) {
    const Simulator sim(w.ckt);
    std::vector<Pattern> patterns = random_patterns(w.ckt, 10, 19);
    patterns[3][0] = LogicV::kX;  // X at the fault site's cone
    for (const GateInst& g : w.ckt.gates()) {
      for (const gates::CellFault& cf :
           gates::enumerate_transistor_faults(g.kind)) {
        const gates::FaultAnalysis fa = gates::analyze_fault(g.kind, cf);
        std::vector<LogicV> state_got;
        std::vector<LogicV> state_want;
        for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
          const SimResult got = sim.simulate_faulty_with(
              patterns[pi], GateFault{g.id, cf}, fa,
              state_got.empty() ? nullptr : &state_got);
          const SimResult want = interp::simulate_faulty(
              w.ckt, patterns[pi], g.id, fa,
              state_want.empty() ? nullptr : &state_want);
          ASSERT_EQ(got.net_values, want.net_values)
              << w.name << " gate " << g.id << " t" << cf.transistor
              << " pattern " << pi;
          ASSERT_EQ(got.iddq_flag, want.iddq_flag)
              << w.name << " gate " << g.id << " t" << cf.transistor;
          state_got = got.net_values;
          state_want = want.net_values;
        }
      }
    }
  }
}

TEST(CompiledCircuit, PackedGoodMatchesInterpretedSimulatePacked) {
  for (const Named& w : benchmark_roster()) {
    const std::vector<Pattern> patterns = random_patterns(w.ckt, 64, 31);
    const auto pi_words = pack_patterns(w.ckt, patterns);
    // The free simulate_packed() is the interpreted reference the library
    // keeps on purpose.
    const auto want = simulate_packed(w.ckt, pi_words);
    // Context good planes are built by the compiled plane kernel; word 0
    // of every net's row must match the interpreted single-word words.
    const faults::EvalContext ctx(w.ckt, patterns);
    ASSERT_TRUE(ctx.packed());
    ASSERT_EQ(ctx.word_count(), 1u);
    for (std::size_t i = 0; i < w.ckt.primary_inputs().size(); ++i)
      EXPECT_EQ(ctx.pi_planes()[i * ctx.plane_stride()], pi_words[i])
          << w.name << " pi " << i;
    for (logic::NetId n = 0; n < w.ckt.net_count(); ++n)
      EXPECT_EQ(ctx.good_plane(n)[0], want[static_cast<std::size_t>(n)])
          << w.name << " net " << n;
  }
}

TEST(CompiledCircuit, AllFiveFaultClassesMatchInterpretedReferences) {
  for (const Named& w : benchmark_roster()) {
    // Keep the biggest circuits to a subsample for runtime.
    const std::vector<Pattern> patterns = random_patterns(w.ckt, 70, 43);

    std::vector<engine::CampaignFault> universe;
    faults::FaultListOptions flo;
    flo.collapse = false;  // keep every dictionary shape in play
    for (const Fault& f : faults::generate_fault_list(w.ckt, flo))
      universe.push_back(engine::CampaignFault::from_fault(f));
    const auto bridges = faults::enumerate_adjacent_bridges(w.ckt);
    for (std::size_t i = 0; i < bridges.size(); i += 5)
      universe.push_back(engine::CampaignFault::from_bridge(bridges[i]));

    bool seen[engine::kFaultClassCount] = {};
    for (const engine::CampaignFault& cf : universe)
      seen[static_cast<int>(cf.cls)] = true;
    for (int c = 0; c < engine::kFaultClassCount; ++c)
      ASSERT_TRUE(seen[c]) << w.name << " class " << c;

    engine::Shard shard;
    shard.begin = 0;
    shard.end = universe.size();
    const engine::ShardExecOptions options;
    const engine::ShardResult got =
        engine::run_shard(w.ckt, universe, patterns, shard, options);
    ASSERT_EQ(got.results.size(), universe.size());

    for (std::size_t i = 0; i < universe.size(); ++i) {
      const engine::CampaignFault& cf = universe[i];
      const DetectionRecord want =
          cf.cls == engine::FaultClass::kBridge
              ? interp::bridge_fault(w.ckt, cf.bridge, patterns, options.sim)
              : faults::test::reference_record(w.ckt, cf.fault, patterns,
                                               options.sim);
      expect_record_eq(got.results[i].record, want,
                       w.name + " fault " + std::to_string(i));
    }
  }
}

TEST(CompiledCircuit, XBearingPatternsMatchInterpretedScalarPath) {
  const Circuit ckt = alu_slice();
  std::vector<Pattern> patterns = random_patterns(ckt, 6, 3);
  patterns[1][0] = LogicV::kX;
  patterns[4][2] = LogicV::kX;
  const faults::EvalContext ctx(ckt, patterns);
  EXPECT_FALSE(ctx.packed());
  const faults::FaultSimulator fsim(ckt);
  std::vector<Fault> trans;
  for (const Fault& f : faults::generate_fault_list(ckt, {}))
    if (f.site == FaultSite::kGateTransistor) trans.push_back(f);
  ASSERT_FALSE(trans.empty());
  const faults::FaultSimReport got = fsim.run(ctx, trans, {});
  for (std::size_t i = 0; i < trans.size(); ++i)
    expect_record_eq(got.records[i],
                     faults::test::reference_transistor(ckt, trans[i],
                                                        patterns, {}),
                     "fault " + std::to_string(i));
}

TEST(CompiledCircuit, TwoPatternStuckOpenRetentionMatchesReference) {
  // c17 is NAND-only: its stuck-opens have floating rows, so retention
  // across an (init, test) sequence is what detection hinges on.
  const Circuit ckt = c17();
  const faults::FaultSimulator fsim(ckt);
  const std::vector<Pattern> seqs = random_patterns(ckt, 40, 57);
  int exercised = 0;
  for (const GateInst& g : ckt.gates()) {
    const int nt = static_cast<int>(gates::cell(g.kind).transistors.size());
    for (int t = 0; t < nt; ++t) {
      const Fault f =
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen);
      for (std::size_t k = 0; k + 1 < seqs.size(); k += 2) {
        const std::vector<Pattern> pair = {seqs[k], seqs[k + 1]};
        const DetectionRecord want =
            faults::test::reference_transistor(ckt, f, pair, {});
        const faults::EvalContext ctx(ckt, pair);
        const faults::FaultSimReport got = fsim.run(ctx, {f}, {});
        expect_record_eq(got.records[0], want,
                         g.name + ".t" + std::to_string(t) + " seq " +
                             std::to_string(k));
        EXPECT_EQ(fsim.stuck_open_detected(f, pair[0], pair[1]),
                  want.detected_output);
        ++exercised;
      }
    }
  }
  EXPECT_GT(exercised, 0);
}

TEST(CompiledCircuit, MalformedLineFaultsAreRejectedNotUndefined) {
  // The compiled kernels index fault fields unchecked, so the public
  // entry points must validate them: out-of-range pins/gates/nets (e.g.
  // from a hostile shard_io document) throw instead of corrupting memory.
  const Circuit ckt = c17();
  const faults::FaultSimulator fsim(ckt);
  const std::vector<Pattern> patterns = random_patterns(ckt, 4, 9);
  const faults::EvalContext ctx(ckt, patterns);
  EXPECT_THROW((void)fsim.run(ctx, {Fault::input_stuck(0, 5, false)}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.run(ctx, {Fault::input_stuck(99, 0, false)}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.run(ctx, {Fault::net_stuck(ckt.net_count(), true)},
                              {}),
               std::invalid_argument);
  EXPECT_THROW((void)atpg::transition_detected(
                   ckt, atpg::TransitionFault{ckt.net_count(), true},
                   patterns[0], patterns[1]),
               std::invalid_argument);
  // An empty pattern set simulates nothing but still validates.
  const faults::EvalContext empty(ckt, std::vector<Pattern>{});
  EXPECT_THROW((void)fsim.run_range(empty,
                                    {Fault::net_stuck(ckt.net_count() + 5,
                                                      true)},
                                    0, 1, {}),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.run(empty, {Fault::input_stuck(0, 5, false)}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.line_fault_detected(
                   Fault::net_stuck(ckt.net_count(), false), patterns[0]),
               std::invalid_argument);
}

TEST(CompiledCircuit, RandomizedCircuitPropertyTest) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Circuit ckt =
        random_circuit(seed, 4 + static_cast<int>(seed % 3), 18);
    const std::string label = "seed " + std::to_string(seed);
    const Simulator sim(ckt);
    const std::vector<Pattern> patterns = random_patterns(ckt, 70, seed * 97);

    // Scalar equivalence.
    for (const Pattern& p : patterns)
      ASSERT_EQ(sim.simulate(p).net_values,
                interp::simulate(ckt, p).net_values)
          << label;

    // Full fault-simulation equivalence (line + transistor).
    faults::FaultListOptions flo;
    flo.collapse = false;
    const std::vector<Fault> universe = faults::generate_fault_list(ckt, flo);
    const faults::FaultSimulator fsim(ckt);
    const faults::EvalContext ctx(ckt, patterns);
    const faults::FaultSimReport got = fsim.run(ctx, universe, {});
    ASSERT_EQ(got.records.size(), universe.size()) << label;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const Fault& f = universe[i];
      const DetectionRecord want =
          faults::test::reference_record(ckt, f, patterns, {});
      expect_record_eq(got.records[i], want,
                       label + " fault " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace cpsinw::logic
