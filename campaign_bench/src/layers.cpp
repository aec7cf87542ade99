// The traced run: per-layer metrics, each timed from outside around a
// public call into that layer, plus the engine's own telemetry from
// traced campaign passes.
//
// Layer replays (universe, context, simulation, shard_io) run the same
// public functions the campaign calls, on the same inputs, single
// threaded and off the campaign's blocking path.  The blocking path of a
// traced pass is load -> setup -> shard phase -> merge -> to_json; its
// parts are reported as logic.load_s, engine.* and
// trace.attributed_frac.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include <malloc.h>

#include "bench.hpp"
#include "core/test_flow.hpp"
#include "engine/json_reader.hpp"
#include "engine/net.hpp"
#include "engine/shard_io.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "gates/dictionary_cache.hpp"
#include "logic/netlist_ingest.hpp"

namespace campaign_bench {
namespace {

namespace core = cpsinw::core;
namespace faults = cpsinw::faults;
namespace gates = cpsinw::gates;
namespace util = cpsinw::util;
using engine::FaultClass;

// Serial-path faults replayed per class and job: the serial path costs
// about 1 ms per fault on the full workloads, so replaying all of them
// would double the traced run.  Packed and line paths replay in full.
constexpr std::size_t kSerialCap = 512;
// shard_io replays every shard when a workload has at most kAllShards
// (then net.bytes_sent is exact), otherwise kShardSample spread evenly.
constexpr std::size_t kAllShards = 256;
constexpr std::size_t kShardSample = 16;
// Shards executed to obtain real result documents for result parsing.
constexpr std::size_t kResultSample = 8;

constexpr FaultClass kClasses[] = {FaultClass::kLineStuckAt,
                                   FaultClass::kPolarity,
                                   FaultClass::kStuckOpen,
                                   FaultClass::kStuckOn};

enum class SimPath { kLineBatched, kTransistorPacked, kSerial };

const char* to_string(SimPath path) {
  switch (path) {
    case SimPath::kLineBatched: return "line_batched";
    case SimPath::kTransistorPacked: return "transistor_packed";
    case SimPath::kSerial: return "serial";
  }
  return "?";
}

/// One job's replay inputs; the context borrows the circuit, so neither
/// may move once built.
struct ReplayJob {
  logic::Circuit ckt;
  std::vector<engine::CampaignFault> universe;
  std::unique_ptr<faults::EvalContext> ctx;
};

faults::FaultListOptions fault_list_options(
    const engine::FaultModelSelection& models, bool collapse) {
  faults::FaultListOptions flo;
  flo.include_line_stuck_at = models.line_stuck_at;
  flo.include_transistor_faults =
      models.polarity || models.stuck_open || models.stuck_on;
  flo.collapse = collapse;
  flo.observe_iddq = true;
  return flo;
}

/// The path FaultSimulator::run_range takes for `f` (line faults batch;
/// transistor faults pack only when their dictionary is purely binary).
SimPath sim_path(const faults::EvalContext& ctx,
                 const engine::CampaignFault& f) {
  if (f.cls == FaultClass::kLineStuckAt) return SimPath::kLineBatched;
  const gates::CellKind kind = ctx.circuit().gate(f.fault.gate).kind;
  return ctx.packed() && ctx.dictionary(kind, f.fault.cell_fault)
                             .compiled_binary
             ? SimPath::kTransistorPacked
             : SimPath::kSerial;
}

template <class T>
std::vector<T> stride_sample(const std::vector<T>& all, std::size_t cap) {
  if (all.size() <= cap) return all;
  std::vector<T> out;
  for (std::size_t k = 0; k < cap; ++k)
    out.push_back(all[k * all.size() / cap]);
  return out;
}

/// Universe, collapse, pattern source, context and per-class/per-path
/// simulation replays.  Returns the built jobs for the shard_io replay.
std::vector<std::unique_ptr<ReplayJob>> replay_faults(const Session& s,
                                                      Trace* trace,
                                                      Metrics& out) {
  const char* root = "bench.layers";
  const Workload& w = s.workload;
  const util::SplitMix64 campaign_rng(s.seed);
  double dict_cold_s = 0.0, universe_s = 0.0, flow_s = 0.0, context_s = 0.0;
  double context_rss_mb = 0.0;
  std::size_t collapsed = 0, uncollapsed = 0, universe_faults = 0;
  // kAtpg only: generated tests and fault outcomes, summed over jobs.
  std::size_t logic_patterns = 0, iddq_patterns = 0, two_pattern_tests = 0;
  std::size_t flow_faults = 0, flow_covered = 0;
  std::map<FaultClass, double> class_s;
  std::map<FaultClass, std::size_t> class_faults;
  std::map<SimPath, double> path_s;
  std::map<SimPath, std::size_t> path_faults;
  faults::LineBatchStats line_stats;
  faults::FaultSimOptions sim;  // the campaign's defaults

  std::vector<std::unique_ptr<ReplayJob>> jobs;
  for (std::size_t j = 0; j < s.files.size(); ++j) {
    auto job = std::make_unique<ReplayJob>();
    double t = 0.0;
    job->ckt = logic::load_circuit_file(s.files[j]);

    // gates: the first build_universe of the process derives every
    // dictionary it needs; a warm repeat isolates that cost.
    double cold = 0.0;
    (void)timed(trace, "engine.build_universe(cold)", root, cold, [&] {
      return engine::build_universe(job->ckt, w.models, sim.observe_iddq);
    });
    job->universe = timed(trace, "engine.build_universe", root, t, [&] {
      return engine::build_universe(job->ckt, w.models, sim.observe_iddq);
    });
    dict_cold_s += cold - t;
    universe_s += t;
    universe_faults += job->universe.size();
    collapsed += faults::generate_fault_list(
                     job->ckt, fault_list_options(w.models, true))
                     .size();
    uncollapsed +=
        faults::generate_fault_list(job->ckt,
                                    fault_list_options(w.models, false))
            .size();

    // atpg/core: the workload's pattern source.
    const util::SplitMix64 job_rng = campaign_rng.fork(2 * j);
    std::vector<logic::Pattern> patterns;
    if (w.patterns.kind == engine::PatternSourceSpec::Kind::kAtpg) {
      core::TestFlowOptions opt;
      opt.compact = w.patterns.atpg_compact;
      const core::TestSuite suite =
          timed(trace, "core.run_test_flow", root, t,
                [&] { return core::run_test_flow(job->ckt, opt); });
      flow_s += t;
      logic_patterns += suite.logic_patterns.size();
      iddq_patterns += suite.iddq_patterns.size();
      two_pattern_tests += suite.two_pattern_tests.size();
      flow_faults += suite.outcomes.size();
      flow_covered += static_cast<std::size_t>(suite.covered_count());
      patterns = engine::build_patterns(job->ckt, w.patterns, job_rng);
    } else {
      patterns = timed(trace, "engine.build_patterns", root, t, [&] {
        return engine::build_patterns(job->ckt, w.patterns, job_rng);
      });
      flow_s += t;
    }

    // faults: the evaluation context, with the resident set it adds.
    malloc_trim(0);
    const double rss_before = current_rss_mb();
    job->ctx = timed(trace, "faults.EvalContext", root, t, [&] {
      return std::make_unique<faults::EvalContext>(job->ckt,
                                                   std::move(patterns));
    });
    context_s += t;
    context_rss_mb += current_rss_mb() - rss_before;

    // faults: simulation by class and evaluation path.
    std::map<std::pair<FaultClass, SimPath>, std::vector<faults::Fault>>
        groups;
    for (const engine::CampaignFault& f : job->universe)
      groups[{f.cls, sim_path(*job->ctx, f)}].push_back(f.fault);
    const faults::FaultSimulator simulator(job->ckt);
    for (auto& [key, list] : groups) {
      const auto [cls, path] = key;
      if (path == SimPath::kSerial) list = stride_sample(list, kSerialCap);
      const std::string name = std::string("faults.run_range.") +
                               engine::to_string(cls) + "." + to_string(path);
      (void)timed(trace, name, root, t, [&] {
        return simulator.run_range(
            *job->ctx, list, 0, list.size(), sim,
            path == SimPath::kLineBatched ? &line_stats : nullptr);
      });
      class_s[cls] += t;
      class_faults[cls] += list.size();
      path_s[path] += t;
      path_faults[path] += list.size();
    }
    jobs.push_back(std::move(job));
  }

  out["gates.dict_entries"] = {
      static_cast<double>(gates::DictionaryCache::global().size()), "count"};
  out["gates.dict_cold_s"] = {dict_cold_s, "s"};
  out["faults.universe_s"] = {universe_s, "s"};
  out["faults.universe_faults"] = {static_cast<double>(universe_faults),
                                   "count"};
  out["faults.collapse_ratio"] = {
      static_cast<double>(collapsed) / static_cast<double>(uncollapsed),
      "fraction"};
  out["faults.context_s"] = {context_s, "s"};
  out["faults.context_rss_mb"] = {context_rss_mb, "MB"};
  for (FaultClass cls : kClasses) {
    const std::string prefix = std::string("faults.sim.") +
                               engine::to_string(cls);
    out[prefix + "_s"] = {class_s[cls], "s"};
    out[prefix + "_faults"] = {static_cast<double>(class_faults[cls]),
                               "count"};
  }
  out["faults.path.serial_faults"] = {
      static_cast<double>(path_faults[SimPath::kSerial]), "count"};
  out["faults.path.serial_s"] = {path_s[SimPath::kSerial], "s"};
  out["faults.path.transistor_packed_s"] = {
      path_s[SimPath::kTransistorPacked], "s"};
  out["faults.path.line_batched_s"] = {path_s[SimPath::kLineBatched], "s"};
  out["faults.line.cpt_faults"] = {static_cast<double>(line_stats.cpt_faults),
                                   "count"};
  const double lane_slots_max =
      static_cast<double>(line_stats.groups) *
      static_cast<double>(logic::CompiledCircuit::kBatchLanes);
  out["faults.line.lane_fill"] = {
      lane_slots_max > 0.0
          ? static_cast<double>(line_stats.lane_slots) / lane_slots_max
          : 0.0,
      "fraction"};
  out["faults.line.words"] = {static_cast<double>(line_stats.words), "count"};
  out["atpg.flow_s"] = {flow_s, "s"};
  out["atpg.logic_patterns"] = {static_cast<double>(logic_patterns), "count"};
  out["atpg.iddq_patterns"] = {static_cast<double>(iddq_patterns), "count"};
  out["atpg.two_pattern_tests"] = {static_cast<double>(two_pattern_tests),
                                   "count"};
  out["atpg.coverage"] = {flow_faults == 0
                              ? 0.0
                              : static_cast<double>(flow_covered) /
                                    static_cast<double>(flow_faults),
                          "fraction"};
  return jobs;
}

/// shard_io encode/decode on the workload's own shards; on kRemote every
/// shard is encoded, which gives the bytes one campaign sends.
void replay_shard_io(const Session& s,
                     const std::vector<std::unique_ptr<ReplayJob>>& jobs,
                     Trace* trace, Metrics& out) {
  const char* root = "bench.layers";
  const engine::CampaignSpec spec = make_spec(s, {}, PassKind::kPlain);
  engine::ShardExecOptions exec;
  exec.sim = spec.sim;
  exec.sim.detection_mode = spec.detection_mode;
  exec.fault_sample_fraction = spec.fault_sample_fraction;
  const util::SplitMix64 campaign_rng(s.seed);

  struct Item {
    const ReplayJob* job;
    engine::Shard shard;
  };
  std::vector<Item> all;
  for (std::size_t j = 0; j < jobs.size(); ++j)
    for (const engine::Shard& sh :
         engine::make_shards(static_cast<int>(j), jobs[j]->universe.size(),
                             spec.shard_size, campaign_rng.fork(2 * j + 1)))
      all.push_back({jobs[j].get(), sh});
  const std::vector<Item> sample =
      stride_sample(all, all.size() <= kAllShards ? all.size() : kShardSample);

  std::vector<double> serialize_s, parse_s, result_parse_s;
  double bytes = 0.0, frame_bytes = 0.0;
  const std::size_t result_stride =
      (sample.size() + kResultSample - 1) / kResultSample;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const Item& it = sample[k];
    const faults::EvalContext& ctx = *it.job->ctx;
    double t = 0.0;
    const std::string doc =
        timed(trace, "engine.serialize_shard_input", root, t, [&] {
          return engine::serialize_shard_input(ctx.circuit(), ctx.patterns(),
                                               it.job->universe, it.shard,
                                               exec);
        });
    serialize_s.push_back(t);
    bytes += static_cast<double>(doc.size());
    frame_bytes += static_cast<double>(
        doc.size() + std::string(engine::net::kFrameMagic).size() + 2 +
        std::to_string(doc.size()).size());
    (void)timed(trace, "engine.parse_shard_input", root, t,
                [&] { return engine::parse_shard_input(doc); });
    parse_s.push_back(t);
    if (k % result_stride == 0) {
      const std::string result = engine::serialize_shard_result(
          engine::run_shard(ctx, it.job->universe, it.shard, exec));
      (void)timed(trace, "engine.parse_shard_result", root, t,
                  [&] { return engine::parse_shard_result(result); });
      result_parse_s.push_back(t);
    }
  }
  const bool remote = s.workload.backend == engine::ExecutorBackend::kRemote;
  out["shard_io.input_bytes_per_shard"] = {
      sample.empty() ? 0.0 : bytes / static_cast<double>(sample.size()),
      "bytes"};
  out["shard_io.serialize_s"] = {median(serialize_s), "s"};
  out["shard_io.parse_s"] = {median(parse_s), "s"};
  out["shard_io.result_parse_s"] = {median(result_parse_s), "s"};
  out["net.bytes_sent"] = {remote ? frame_bytes : 0.0, "bytes"};
}

double histogram_sum(const engine::telemetry::RegistrySnapshot& snap,
                     const std::string& name) {
  const auto* h = snap.find_histogram(name);
  return h != nullptr ? h->sum_s : 0.0;
}

/// Quantile over every histogram whose name starts with `prefix` and ends
/// with `suffix` (the per-endpoint remote histograms), merged by bucket.
engine::telemetry::HistogramValue merged_histogram(
    const engine::telemetry::RegistrySnapshot& snap, const std::string& prefix,
    const std::string& suffix) {
  engine::telemetry::HistogramValue merged;
  merged.buckets.assign(engine::telemetry::Histogram::kBucketCount, 0);
  for (const auto& h : snap.histograms) {
    if (h.name.size() < prefix.size() + suffix.size() ||
        h.name.compare(0, prefix.size(), prefix) != 0 ||
        h.name.compare(h.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
      continue;
    merged.count += h.count;
    merged.sum_s += h.sum_s;
    for (std::size_t i = 0; i < h.buckets.size() && i < merged.buckets.size();
         ++i)
      merged.buckets[i] += h.buckets[i];
  }
  return merged;
}

std::uint64_t counter(const engine::telemetry::RegistrySnapshot& snap,
                      const std::string& name) {
  const auto* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

/// Engine and remote metrics of the median traced pass.
void engine_metrics(const Pass& p, Metrics& out) {
  const engine::CampaignTiming& timing = p.report.timing;
  const auto& snap = p.report.telemetry;
  const double shard_phase_s = histogram_sum(snap, "campaign.shard_phase_s");
  const auto exec = merged_histogram(snap, timing.backend, ".shard_exec_s");
  const auto wait = merged_histogram(snap, timing.backend, ".queue_wait_s");
  out["logic.load_s"] = {p.load_s, "s"};
  out["engine.setup_s"] = {timing.setup_s, "s"};
  out["engine.shard_phase_s"] = {shard_phase_s, "s"};
  out["engine.merge_s"] = {timing.merge_s, "s"};
  out["engine.report_json_s"] = {p.json_s, "s"};
  out["engine.shards"] = {static_cast<double>(timing.shard_count), "count"};
  out["engine.shard_exec_p50_s"] = {exec.quantile_s(0.5), "s"};
  out["engine.shard_exec_p99_s"] = {exec.quantile_s(0.99), "s"};
  out["engine.shard_exec_samples"] = {static_cast<double>(exec.count),
                                      "count"};
  out["engine.queue_wait_p50_s"] = {wait.quantile_s(0.5), "s"};
  out["engine.pool_busy_frac"] = {
      shard_phase_s > 0.0 ? timing.shard_time_sum_s /
                                (shard_phase_s * timing.threads)
                          : 0.0,
      "fraction"};
  out["trace.attributed_frac"] = {
      (p.load_s + timing.setup_s + shard_phase_s + timing.merge_s +
       p.json_s) /
          p.campaign_s,
      "fraction"};

  out["remote.send_s_p50"] = {
      merged_histogram(snap, "remote.", ".send_s").quantile_s(0.5), "s"};
  out["remote.recv_s_p50"] = {
      merged_histogram(snap, "remote.", ".recv_s").quantile_s(0.5), "s"};
  out["remote.retries"] = {static_cast<double>(counter(snap, "remote.retries")),
                           "count"};
}

/// Re-times the campaign's own trace file into `trace`, aligned to the
/// pass whose run_campaign started at `run_start` (the campaign's trace
/// epoch is taken on entry).
void import_campaign_trace(const std::string& path,
                           Clock::time_point run_start, Trace& trace) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in) return;
  const engine::JsonValue doc = engine::parse_json(text.str());
  for (const engine::JsonValue& ev : doc.at("traceEvents").as_array("events")) {
    const double ts_us = ev.at("ts").as_double("ts");
    const double dur_us = ev.at("dur").as_double("dur");
    const auto end = run_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::micro>(
                                         ts_us + dur_us));
    trace.add_remote_span(ev.at("name").as_string("name"),
                          ev.at("cat").as_string("cat"), end, dur_us * 1e-6,
                          ev.at("tid").as_int("tid"));
  }
}

}  // namespace

Metrics layer_metrics(const Session& s, double seconds,
                      const std::string& trace_file, Measurement& m) {
  Trace trace;
  trace.enable();
  Metrics out;
  const auto jobs = replay_faults(s, &trace, out);
  replay_shard_io(s, jobs, &trace, out);

  Pass ref;
  if (!reference_pass(s, &ref, m)) return out;
  for (FaultClass cls : kClasses) {
    engine::ClassStats stats;
    for (const engine::JobReport& job : ref.report.jobs)
      stats.add(job.by_class[static_cast<std::size_t>(cls)]);
    out[std::string("faults.detected_frac.") + engine::to_string(cls)] = {
        stats.sampled > 0 ? static_cast<double>(stats.detected) /
                                static_cast<double>(stats.sampled)
                          : 0.0,
        "fraction"};
  }
  out["logic.gates"] = {0.0, "count"};
  for (const engine::JobReport& job : ref.report.jobs)
    out["logic.gates"].value += job.gate_count;

  m = measure(s, ref.stable_json, seconds, true, &trace);
  out["failed_frac"] = {static_cast<double>(m.failed_shards) /
                            static_cast<double>(m.attempted_shards),
                        "fraction"};
  if (m.traced.empty()) return out;
  engine_metrics(m.traced[median_pass(m.traced)], out);
  std::vector<double> plain, traced;
  for (const Pass& p : m.plain) plain.push_back(p.campaign_s);
  for (const Pass& p : m.traced) traced.push_back(p.campaign_s);
  out["trace.campaign_s"] = {median(traced), "s"};
  out["trace.overhead_frac"] = {median(traced) / median(plain) - 1.0,
                                "fraction"};

  import_campaign_trace(s.work_dir + "/campaign_trace.json",
                        m.traced.back().run_start, trace);
  std::ofstream(trace_file) << trace.to_chrome_json() << "\n";
  return out;
}

}  // namespace campaign_bench
