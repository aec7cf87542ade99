// Work-reduction equivalence suite: fault dropping and critical-path
// tracing are always on, and must be invisible in full detection mode —
// records and campaign JSON equal to the exhaustive interpreted oracles
// (serial_oracle.hpp) — the first-only detection mode must be a
// well-defined truncation contract that the plane paths and the oracles
// agree on, and sampled-coverage accounting must survive shard failures.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/executor.hpp"
#include "engine/report.hpp"
#include "engine/shard.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "serial_oracle.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

using logic::Circuit;
using logic::LogicV;
using logic::Pattern;

using test::random_patterns;
using test::reference_record;

struct Named {
  std::string name;
  Circuit ckt;
};

std::vector<Named> roster() {
  std::vector<Named> out;
  out.push_back({"c17", logic::c17()});
  out.push_back({"full_adder", logic::full_adder()});
  out.push_back({"alu_slice", logic::alu_slice()});
  out.push_back({"parity_tree_9", logic::parity_tree(9)});
  out.push_back({"ripple_adder_4", logic::ripple_adder(4)});
  out.push_back({"random_a", logic::random_circuit(11, 6, 30)});
  out.push_back({"random_b", logic::random_circuit(23, 8, 60)});
  return out;
}

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

// In full detection mode the dropping and tracing paths must produce the
// exhaustive oracles' records, for universes mixing all fault classes,
// with and without IDDQ observation.
TEST(WorkReduction, FullModeRecordsMatchOracles) {
  for (const Named& w : roster()) {
    // 130 patterns: > 2 words, so the strip schedule (4-word first strip,
    // 16-word wide strips) exercises narrow, wide and ragged strips.
    const auto patterns = random_patterns(w.ckt, 130, 7);
    const EvalContext ctx(w.ckt, patterns);
    const FaultSimulator fsim(w.ckt);
    FaultListOptions flo;
    flo.cross_class_collapse = false;  // keep every class in the universe
    const std::vector<Fault> universe = generate_fault_list(w.ckt, flo);

    for (const bool iddq : {false, true}) {
      FaultSimOptions opt;
      opt.observe_iddq = iddq;
      const std::vector<DetectionRecord> got =
          fsim.run_range(ctx, universe, 0, universe.size(), opt);
      ASSERT_EQ(got.size(), universe.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        expect_record_eq(got[i],
                         reference_record(w.ckt, universe[i], patterns, opt),
                         w.name + " iddq=" + std::to_string(iddq) +
                             " fault " + std::to_string(i));
    }
  }
}

// Critical-path tracing arms exactly on single-output fan-out-free cones
// and resolves the whole line universe there without a kernel pass; any
// other shape takes the batch kernel.
TEST(WorkReduction, CriticalPathTracingQualificationAndStats) {
  const Circuit tree = logic::parity_tree(9);
  const EvalContext tree_ctx(tree, random_patterns(tree, 200, 11));
  EXPECT_TRUE(tree_ctx.cpt_available());

  const Circuit c17 = logic::c17();  // fanout stems and two POs
  const EvalContext c17_ctx(c17, random_patterns(c17, 64, 11));
  EXPECT_FALSE(c17_ctx.cpt_available());

  FaultListOptions flo;
  flo.include_transistor_faults = false;
  const std::vector<Fault> universe = generate_fault_list(tree, flo);
  LineBatchStats stats;
  const FaultSimulator fsim(tree);
  (void)fsim.run_range(tree_ctx, universe, 0, universe.size(), {}, &stats);
  EXPECT_EQ(stats.cpt_faults, universe.size());
  EXPECT_EQ(stats.groups, 0u);

  const std::vector<Fault> c17_universe = generate_fault_list(c17, flo);
  LineBatchStats c17_stats;
  (void)FaultSimulator(c17).run_range(c17_ctx, c17_universe, 0,
                                      c17_universe.size(), {}, &c17_stats);
  EXPECT_EQ(c17_stats.cpt_faults, 0u);
  EXPECT_GT(c17_stats.groups, 0u);
}

// First-only mode: a fault's record equals the full-mode record of the
// pattern list truncated right after the full-mode first_pattern — and the
// plane transistor paths agree with the serial oracle on it.
TEST(WorkReduction, FirstOnlyModeIsExactTruncationAndPathsAgree) {
  for (const Named& w : roster()) {
    const auto patterns = random_patterns(w.ckt, 130, 23);
    const EvalContext ctx(w.ckt, patterns);
    const FaultSimulator fsim(w.ckt);
    FaultListOptions flo;
    flo.cross_class_collapse = false;
    const std::vector<Fault> universe = generate_fault_list(w.ckt, flo);

    for (const bool iddq : {false, true}) {
      FaultSimOptions full;
      full.observe_iddq = iddq;
      FaultSimOptions first = full;
      first.detection_mode = DetectionMode::kFirstOnly;

      const auto full_rec =
          fsim.run_range(ctx, universe, 0, universe.size(), full);
      const auto got =
          fsim.run_range(ctx, universe, 0, universe.size(), first);
      for (std::size_t i = 0; i < universe.size(); ++i) {
        const std::string label = w.name + " iddq=" + std::to_string(iddq) +
                                  " fault " + std::to_string(i);
        // Plane first-only equals the oracles' first-only.
        expect_record_eq(got[i],
                         reference_record(w.ckt, universe[i], patterns, first),
                         label + " (paths)");
        // Same first counted detection as full mode; flags are the
        // truncated-pattern-list reference.
        EXPECT_EQ(got[i].first_pattern, full_rec[i].first_pattern) << label;
        if (full_rec[i].first_pattern < 0) {
          expect_record_eq(got[i], full_rec[i], label + " (undetected)");
        } else {
          const std::vector<Pattern> prefix(
              patterns.begin(),
              patterns.begin() + full_rec[i].first_pattern + 1);
          const EvalContext trunc_ctx(w.ckt, prefix);
          const DetectionRecord want =
              fsim.run_range(trunc_ctx, universe, i, i + 1, full)[0];
          expect_record_eq(got[i], want, label + " (truncation)");
        }
      }
    }
  }
}

/// The campaign of an inline, bridge-free spec rebuilt from the oracles:
/// the same universes, patterns and shards, sampling replayed by
/// fill_failed_shard, every simulated record taken from the oracles.
engine::CampaignReport oracle_campaign(const engine::CampaignSpec& spec) {
  const util::SplitMix64 campaign_rng(spec.seed);
  engine::CampaignReport report;
  report.seed = spec.seed;
  report.shard_size = spec.shard_size;
  report.pattern_source = engine::to_string(spec.patterns.kind);
  report.fault_sample_fraction = spec.fault_sample_fraction;
  report.observe_iddq = spec.sim.observe_iddq;
  report.detection_mode = spec.detection_mode;
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    const Circuit& ckt = spec.jobs[j].circuit;
    const std::vector<engine::CampaignFault> universe =
        engine::build_universe(ckt, spec.models, spec.sim.observe_iddq);
    const std::vector<Pattern> patterns = engine::build_patterns(
        ckt, spec.patterns, campaign_rng.fork(2 * j));
    const std::vector<engine::Shard> shards =
        engine::make_shards(static_cast<int>(j), universe.size(),
                            spec.shard_size, campaign_rng.fork(2 * j + 1));
    engine::JobReport jr;
    jr.circuit = spec.jobs[j].name;
    jr.gate_count = ckt.gate_count();
    jr.transistor_count = ckt.transistor_count();
    jr.pattern_count = static_cast<int>(patterns.size());
    for (const engine::Shard& shard : shards) {
      engine::ShardResult sr;
      engine::fill_failed_shard(universe, shard, spec.fault_sample_fraction,
                                sr);
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        engine::FaultResult& r = sr.results[i - shard.begin];
        if (!r.sampled_out)
          r.record =
              reference_record(ckt, universe[i].fault, patterns, spec.sim);
      }
      engine::accumulate_shard(jr, sr, jr.pattern_count,
                               spec.sim.observe_iddq);
    }
    report.jobs.push_back(std::move(jr));
  }
  return report;
}

// Campaign level: the thread-pool campaign with work reduction is
// byte-identical to the oracle rebuild in full mode, including under fault
// sampling — work reduction must never touch the sampled universe that
// forms the coverage denominator.  parity_tree_7 takes critical-path
// tracing, c17 the batch kernel.
TEST(WorkReduction, CampaignJsonMatchesOracleCampaign) {
  for (const double fraction : {1.0, 0.6}) {
    engine::CampaignSpec spec;
    spec.jobs.push_back({"c17", logic::c17()});
    spec.jobs.push_back({"parity_tree_7", logic::parity_tree(7)});
    spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
    spec.patterns.random_count = 128;
    spec.seed = 99;
    spec.shard_size = 5;
    spec.threads = 2;
    spec.fault_sample_fraction = fraction;
    spec.executor.backend = engine::ExecutorBackend::kThreadPool;

    const engine::CampaignReport got = engine::run_campaign(spec);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.to_json(), oracle_campaign(spec).to_json())
        << "fraction=" << fraction;
  }
}

// The first-only detection mode is an explicit campaign field: it flows to
// every shard, merges deterministically, and marks the report JSON.
TEST(WorkReduction, FirstOnlyCampaignDeterministicAndMarked) {
  engine::CampaignSpec spec;
  spec.jobs.push_back({"alu_slice", logic::alu_slice()});
  spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 96;
  spec.seed = 7;
  spec.shard_size = 6;
  spec.detection_mode = DetectionMode::kFirstOnly;
  spec.executor.backend = engine::ExecutorBackend::kThreadPool;

  std::string first;
  for (const int threads : {1, 2, 8}) {
    spec.threads = threads;
    const engine::CampaignReport report = engine::run_campaign(spec);
    ASSERT_TRUE(report.ok()) << report.error;
    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"detection_mode\":\"first_only\""),
              std::string::npos);
    if (first.empty())
      first = json;
    else
      EXPECT_EQ(json, first) << "threads=" << threads;
  }

  // Default (full) mode leaves the historical JSON untouched.
  spec.detection_mode = DetectionMode::kFull;
  spec.threads = 1;
  const engine::CampaignReport full = engine::run_campaign(spec);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.to_json().find("detection_mode"), std::string::npos);
}

// A failed shard's placeholder replays the shard's sampling decisions, so
// the coverage denominator matches what a successful run would have used.
TEST(WorkReduction, FailedShardPlaceholderReplaysSampling) {
  const Circuit ckt = logic::c17();
  std::vector<engine::CampaignFault> universe;
  FaultListOptions flo;
  for (const Fault& f : generate_fault_list(ckt, flo)) {
    engine::CampaignFault cf;
    cf.cls = engine::classify(f);
    cf.fault = f;
    universe.push_back(cf);
  }
  const util::SplitMix64 job_rng(1234);
  const std::vector<engine::Shard> shards =
      engine::make_shards(0, universe.size(), 8, job_rng);

  const EvalContext ctx(ckt, random_patterns(ckt, 64, 5));
  engine::ShardExecOptions options;
  options.fault_sample_fraction = 0.5;
  for (const engine::Shard& shard : shards) {
    const engine::ShardResult real =
        engine::run_shard(ctx, universe, shard, options);
    engine::ShardResult placeholder;
    engine::fill_failed_shard(universe, shard,
                              options.fault_sample_fraction, placeholder);
    ASSERT_EQ(placeholder.results.size(), real.results.size());
    bool any_sampled_out = false;
    for (std::size_t i = 0; i < real.results.size(); ++i) {
      EXPECT_EQ(placeholder.results[i].sampled_out,
                real.results[i].sampled_out)
          << "shard " << shard.index << " slot " << i;
      EXPECT_EQ(placeholder.results[i].cls, real.results[i].cls);
      any_sampled_out |= real.results[i].sampled_out;
    }
    EXPECT_FALSE(placeholder.results.empty());
    (void)any_sampled_out;
  }
}

}  // namespace
}  // namespace cpsinw::faults
