// Workload table, one file-to-report pass, the correctness gate and the
// timed measurement loop.
#include <algorithm>
#include <fstream>

#include <malloc.h>

#include "bench.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_ingest.hpp"

namespace campaign_bench {

namespace {

using engine::ExecutorBackend;
using engine::PatternSourceSpec;

// Line stuck-at and stuck-on faults only: on the generated circuits
// neither class takes the serial transistor path.
engine::FaultModelSelection line_and_stuck_on() {
  engine::FaultModelSelection m;
  m.polarity = false;
  m.stuck_open = false;
  return m;
}

PatternSourceSpec random_patterns(int count) {
  PatternSourceSpec p;
  p.kind = PatternSourceSpec::Kind::kRandom;
  p.random_count = count;
  return p;
}

std::string file_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.substr(0, base.find_last_of('.'));
}

}  // namespace

bool make_workload(const std::string& name, Scale scale, Workload* out) {
  const bool toy = scale == Scale::kToy;
  const CircuitSource c17{"c17", [] { return logic::c17(); }};
  const CircuitSource alu64{"alu_array_64",
                            [] { return logic::alu_array(64); }};
  Workload w;
  if (name == "fiveclass_random") {
    // All four default classes: polarity and stuck-open faults take the
    // serial transistor path, which dominates campaign time.
    w.circuits = {toy ? c17 : alu64};
    w.patterns = random_patterns(toy ? 8 : 128);
  } else if (name == "packed_large") {
    // Line and stuck-on faults only, on four large netlists: every fault
    // takes a packed path and setup is a large share.  Four jobs keep the
    // per-job setup (mostly EvalContext) spread over all four threads, so
    // one slow core does not set the pass time.
    if (toy) {
      w.circuits = {c17};
    } else {
      w.circuits = {
          {"adder_tree_8x96", [] { return logic::adder_tree(8, 96); }},
          {"alu_array_192", [] { return logic::alu_array(192); }},
          {"ripple_adder_512", [] { return logic::ripple_adder(512); }},
          {"adder_tree_16x32", [] { return logic::adder_tree(16, 32); }}};
    }
    w.models = line_and_stuck_on();
    w.patterns = random_patterns(toy ? 8 : 4096);
  } else if (name == "atpg_flow") {
    // The CP test-generation flow supplies the patterns; it runs inside
    // each job's setup and dominates the campaign.  Eleven small netlists,
    // largest ATPG first, so the pool spreads the flows over all threads
    // instead of one job running serially on one core.
    if (toy) {
      w.circuits = {c17};
    } else {
      w.circuits = {
          {"adder_tree_4x8", [] { return logic::adder_tree(4, 8); }},
          {"alu_array_7", [] { return logic::alu_array(7); }},
          {"ripple_adder_24", [] { return logic::ripple_adder(24); }},
          {"alu_array_6", [] { return logic::alu_array(6); }},
          {"adder_tree_4x6", [] { return logic::adder_tree(4, 6); }},
          {"alu_array_5", [] { return logic::alu_array(5); }},
          {"parity_tree_128", [] { return logic::parity_tree(128); }},
          {"ripple_adder_16", [] { return logic::ripple_adder(16); }},
          {"alu_array_4", [] { return logic::alu_array(4); }},
          {"tmr_voter_16", [] { return logic::tmr_voter(16); }},
          {"xor3_parity_chain_95",
           [] { return logic::xor3_parity_chain(95); }}};
    }
    w.models = line_and_stuck_on();
    w.patterns.kind = PatternSourceSpec::Kind::kAtpg;
    w.patterns.atpg_compact = true;
  } else if (name == "remote_loopback") {
    // Same universe as fiveclass_random minus the serial classes, shipped
    // to loopback shard servers: shard_io encoding and net transport.
    w.circuits = {toy ? c17 : alu64};
    w.models = line_and_stuck_on();
    w.patterns = random_patterns(toy ? 8 : 128);
    w.backend = ExecutorBackend::kRemote;
    w.threads = 2;
    w.servers = toy ? 1 : 2;
  } else {
    return false;
  }
  if (toy && w.backend != ExecutorBackend::kRemote) w.threads = 2;
  *out = std::move(w);
  return true;
}

std::vector<std::string> write_netlists(const Workload& w,
                                        const std::string& dir) {
  std::vector<std::string> files;
  for (const CircuitSource& c : w.circuits) {
    const std::string path = dir + "/" + c.name + ".bench";
    logic::save_circuit_file(c.make(), path);
    files.push_back(path);
  }
  return files;
}

engine::CampaignSpec make_spec(const Session& s,
                               std::vector<engine::CircuitJobSpec> jobs,
                               PassKind kind) {
  const Workload& w = s.workload;
  engine::CampaignSpec spec;
  spec.jobs = std::move(jobs);
  spec.models = w.models;
  spec.patterns = w.patterns;
  spec.seed = s.seed;
  spec.threads = w.threads;
  spec.executor.backend =
      kind == PassKind::kReference ? ExecutorBackend::kInline : w.backend;
  if (spec.executor.backend == ExecutorBackend::kRemote)
    spec.executor.endpoints = s.endpoints;
  if (kind == PassKind::kTraced) {
    spec.emit_telemetry = true;
    spec.trace_path = s.work_dir + "/campaign_trace.json";
  }
  return spec;
}

Pass run_pass(const Session& s, PassKind kind, Trace* trace) {
  Trace* tr = kind == PassKind::kTraced ? trace : nullptr;
  const char* root = "bench.pass";
  Pass p;
  malloc_trim(0);
  // Resets VmHWM to the current resident set (Linux 4.0 and later).
  std::ofstream("/proc/self/clear_refs") << "5";
  const Clock::time_point t0 = Clock::now();
  std::vector<engine::CircuitJobSpec> jobs;
  timed(tr, "logic.load_circuit_file", root, p.load_s, [&] {
    for (const std::string& f : s.files)
      jobs.push_back({file_stem(f), logic::load_circuit_file(f)});
  });
  const engine::CampaignSpec spec = make_spec(s, std::move(jobs), kind);
  double run_s = 0.0;
  p.run_start = Clock::now();
  p.report = timed(tr, "engine.run_campaign", root, run_s,
                   [&] { return engine::run_campaign(spec); });
  std::string json = timed(tr, "engine.report_to_json", root, p.json_s,
                           [&] { return p.report.to_json(false); });
  const Clock::time_point t1 = Clock::now();
  if (tr != nullptr) tr->add_span(root, "bench", t0, t1);
  p.campaign_s = seconds_between(t0, t1);
  p.peak_rss_mb = peak_rss_mb();
  p.setup_s = p.load_s + p.report.timing.setup_s;
  if (p.report.emit_telemetry) {
    p.report.emit_telemetry = false;
    json = p.report.to_json(false);
    p.report.emit_telemetry = true;
  }
  p.stable_json = std::move(json);
  return p;
}

std::string gate(const engine::CampaignReport& report,
                 const std::string& stable_json,
                 const std::string& reference) {
  if (!report.error.empty()) return "shard failure: " + report.error;
  if (stable_json == reference) return {};
  const auto diff = std::mismatch(stable_json.begin(), stable_json.end(),
                                  reference.begin(), reference.end());
  return "stable JSON differs from the inline reference at byte " +
         std::to_string(diff.first - stable_json.begin());
}

bool reference_pass(const Session& s, Pass* ref, Measurement& m) {
  *ref = run_pass(s, PassKind::kReference, nullptr);
  if (ref->report.ok()) return true;
  m.attempted_shards = m.failed_shards =
      static_cast<std::uint64_t>(ref->report.timing.shard_count);
  m.first_failure = "inline reference failed: " + ref->report.error;
  return false;
}

Measurement measure(const Session& s, const std::string& reference,
                    double seconds, bool traced, Trace* trace) {
  constexpr std::size_t kMinPasses = 3;
  Measurement m;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced_pass = traced && i % 2 == 1;
    Pass p = run_pass(s, traced_pass ? PassKind::kTraced : PassKind::kPlain,
                      trace);
    const std::string why = gate(p.report, p.stable_json, reference);
    const auto shards =
        static_cast<std::uint64_t>(p.report.timing.shard_count);
    m.attempted_shards += shards;
    p.stable_json.clear();
    (traced_pass ? m.traced : m.plain).push_back(std::move(p));
    if (!why.empty()) {
      // A pass that fails the gate counts as fully failed; stop timing a
      // program that gives wrong answers.
      m.failed_shards += shards;
      m.first_failure = why;
      break;
    }
    const bool enough = m.plain.size() >= kMinPasses &&
                        (!traced || m.traced.size() >= kMinPasses);
    if (enough && seconds_between(start, Clock::now()) >= seconds) break;
  }
  return m;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t median_pass(const std::vector<Pass>& passes) {
  std::vector<std::size_t> order(passes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return passes[a].campaign_s < passes[b].campaign_s;
  });
  return order.empty() ? 0 : order[(order.size() - 1) / 2];
}

namespace {

/// A "Key:   N kB" field of /proc/self/status, in MB (0 if absent).
double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.compare(0, key.size(), key) == 0)
      return std::stod(line.substr(key.size())) / 1024.0;
  return 0.0;
}

}  // namespace

double current_rss_mb() { return status_mb("VmRSS:"); }

double peak_rss_mb() { return status_mb("VmHWM:"); }

}  // namespace campaign_bench
