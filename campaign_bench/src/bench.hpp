// Shared declarations of the campaign benchmark: workloads, one
// file-to-report pass, the correctness gate, and the traced layer run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/telemetry.hpp"

namespace campaign_bench {

namespace engine = cpsinw::engine;
namespace logic = cpsinw::logic;
using Clock = std::chrono::steady_clock;
using Trace = engine::telemetry::TraceRecorder;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Runs `fn`, stores its wall time in `seconds`, and records it as a span
/// on `trace` (when non-null).  The span's category names its parent
/// span, so the trace file keeps the (name, start, end, parent) tuple.
template <class Fn>
auto timed(Trace* trace, const std::string& name, const char* parent,
           double& seconds, Fn&& fn) -> decltype(fn()) {
  const Clock::time_point start = Clock::now();
  const auto finish = [&] {
    const Clock::time_point end = Clock::now();
    seconds = seconds_between(start, end);
    if (trace != nullptr) trace->add_span(name, parent, start, end);
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    finish();
  } else {
    auto result = fn();
    finish();
    return result;
  }
}

/// One named result value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Full size (the measured workloads) or toy size (c17, a few patterns,
/// one server: the smoke test of the benchmark itself).
enum class Scale { kFull, kToy };

/// One circuit of a workload: the job name (also the file stem) and the
/// generator that produces it before timing starts.
struct CircuitSource {
  std::string name;
  std::function<logic::Circuit()> make;
};

/// A named campaign shape: circuits, fault models, pattern source and
/// executor.  The random pattern stream comes from the run's seed.
struct Workload {
  std::vector<CircuitSource> circuits;
  engine::FaultModelSelection models;
  engine::PatternSourceSpec patterns;
  engine::ExecutorBackend backend = engine::ExecutorBackend::kThreadPool;
  int threads = 4;
  int servers = 0;  ///< loopback shard servers (kRemote only)
};

/// The workload called `name` at `scale`; false when unknown.
[[nodiscard]] bool make_workload(const std::string& name, Scale scale,
                                 Workload* out);

/// Generates each circuit of `w` and writes it to `<dir>/<name>.bench`;
/// returns the file paths (parsing them is part of every timed pass).
[[nodiscard]] std::vector<std::string> write_netlists(const Workload& w,
                                                      const std::string& dir);

/// Everything a pass needs: the workload, its netlist files, the seed and
/// (kRemote) the loopback endpoints.
struct Session {
  Workload workload;
  std::vector<std::string> files;
  std::uint64_t seed = 1;
  std::vector<std::string> endpoints;
  std::string work_dir;
};

/// How a pass runs.
enum class PassKind {
  kReference,  ///< kInline backend, untimed: the correctness reference
  kPlain,      ///< the workload's backend, no telemetry or tracing
  kTraced,     ///< plus emit_telemetry, trace_path and benchmark spans
};

/// One file-to-report run of the workload.
struct Pass {
  double campaign_s = 0.0;  ///< open the netlists .. stable JSON string
  double load_s = 0.0;      ///< logic::load_circuit_file, all jobs
  double json_s = 0.0;      ///< CampaignReport::to_json
  double setup_s = 0.0;     ///< load_s + the report's timing.setup_s
  double peak_rss_mb = 0.0; ///< resident-set high-water mark of the pass
  Clock::time_point run_start;  ///< when run_campaign was entered
  engine::CampaignReport report;
  /// to_json(false) with the telemetry block off: what the gate compares.
  std::string stable_json;
};

/// The campaign spec of `s` over `jobs` for a pass of `kind`.
[[nodiscard]] engine::CampaignSpec make_spec(
    const Session& s, std::vector<engine::CircuitJobSpec> jobs,
    PassKind kind);

/// Runs one pass.  Traced passes record their spans on `trace`.  Freed
/// heap is returned to the system and the resident-set high-water mark is
/// reset before the pass, so its peak does not depend on earlier passes.
[[nodiscard]] Pass run_pass(const Session& s, PassKind kind, Trace* trace);

/// Correctness gate: "" when `report` has no shard failure and
/// `stable_json` equals `reference` byte for byte, otherwise the reason.
[[nodiscard]] std::string gate(const engine::CampaignReport& report,
                               const std::string& stable_json,
                               const std::string& reference);

/// Timed passes of one run plus the gate's failure accounting.
struct Measurement {
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::uint64_t attempted_shards = 0;
  /// Shards of passes that failed the gate (a failed pass counts whole).
  std::uint64_t failed_shards = 0;
  std::string first_failure;
};

/// Runs the inline reference pass into `*ref`.  Returns false, with the
/// failure recorded in `m`, when the reference reports a shard failure.
[[nodiscard]] bool reference_pass(const Session& s, Pass* ref,
                                  Measurement& m);

/// Repeats passes for at least `seconds` (and at least three of each
/// kind), alternating plain and traced passes when `traced` is set, and
/// gates every pass against `reference`.
[[nodiscard]] Measurement measure(const Session& s,
                                  const std::string& reference,
                                  double seconds, bool traced, Trace* trace);

/// Median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);

/// Index of the pass with the median campaign_s.
[[nodiscard]] std::size_t median_pass(const std::vector<Pass>& passes);

/// Resident set now and its high-water mark, in MB (/proc/self/status).
[[nodiscard]] double current_rss_mb();
[[nodiscard]] double peak_rss_mb();

/// The per-layer metrics of the traced run (see README.md for the
/// metric -> layer -> workload map).  Runs the layer replays first, while
/// the process's dictionary cache is still cold, then the inline
/// reference, then alternating plain and traced passes for `seconds`.
/// Writes the Chrome trace to `trace_file`.
[[nodiscard]] Metrics layer_metrics(const Session& s, double seconds,
                                    const std::string& trace_file,
                                    Measurement& measurement);

/// End-to-end metrics of plain passes for `seconds`.
[[nodiscard]] Metrics end_to_end_metrics(const Session& s, double seconds,
                                         Measurement& measurement);

}  // namespace campaign_bench
