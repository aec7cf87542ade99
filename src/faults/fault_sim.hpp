// Fault simulation over a shared EvalContext.  Every fault runs on the
// context's SoA bit planes, one kernel per fault shape:
//   * line stuck-at faults through the multi-fault batch kernel, or by
//     critical-path tracing wherever the context's circuit is a fan-out-free
//     single-output cone (chosen by circuit shape, not by an option);
//   * transistor faults through one fan-out-cone kernel — binary
//     dictionaries as a table substitution on the value rail, dictionaries
//     with marginal (X) or floating rows on dual rails, where floating
//     outputs retain the previous pattern's value (what two-pattern
//     stuck-open tests rely on) and X reaching a PO is a potential
//     detection.  X-bearing pattern sets put every dictionary on the dual
//     rails, reading the context's good-machine X rail;
//   * IDDQ observation of the paper's polarity faults from the
//     dictionary's contention rows.
// Line faults need fully specified patterns.  Fault dropping is always on:
// a fault leaves the walk once nothing more can be learned about it, which
// never changes a kFull record.  The slow references these paths are
// pinned against live in the tests and benches.
//
// All fault-independent work (pattern packing, the good machine, the
// switch-level dictionaries) lives in a faults::EvalContext built once per
// (circuit, pattern set) and shared across the whole fault universe — and,
// in the campaign engine, across every shard of a job.  The context-free
// signatures are thin wrappers that build a local context, so ATPG
// verification and campaigns take the same paths.
#pragma once

#include <array>
#include <vector>

#include "faults/eval_context.hpp"
#include "faults/fault.hpp"
#include "faults/fault_list.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults {

/// How a fault was (or was not) detected by a pattern set.
struct DetectionRecord {
  bool detected_output = false;  ///< definite wrong value at some PO
  bool detected_iddq = false;    ///< IDDQ anomaly excited (contention)
  bool potential = false;        ///< X reached a PO where good is defined
  /// Index of the first *counted* detection under the run's observation
  /// options: the first pattern whose hit contributes to detected() with
  /// the run's `observe_iddq` — an IDDQ-only excitation advances it only
  /// when IDDQ observation is on.  -1 when nothing counted.
  int first_pattern = -1;

  [[nodiscard]] bool detected(bool count_iddq) const {
    return detected_output || (count_iddq && detected_iddq);
  }
};

/// What a DetectionRecord promises about patterns after the first counted
/// detection.
enum class DetectionMode {
  /// Flags aggregate over the whole pattern set: detected_output,
  /// detected_iddq and potential reflect every pattern (the historical
  /// semantics; fault dropping and critical-path tracing only skip work
  /// whose outcome is already decided, so records match an exhaustive
  /// walk bit for bit).
  kFull,
  /// Simulation of a fault may stop at its first counted detection:
  /// flags reflect only patterns up to and including that one (exactly
  /// as if the pattern list were truncated there).  Deterministic —
  /// independent of batching, threading and strip schedule — but a
  /// different contract, so campaigns opt in explicitly.
  kFirstOnly,
};

/// Controls for a fault-simulation run.
struct FaultSimOptions {
  /// Count IDDQ anomalies as detections (the paper's polarity faults in
  /// pull-up networks are *only* detectable this way).
  bool observe_iddq = true;
  /// Thread net state across consecutive patterns so floating outputs
  /// retain charge (enables two-pattern stuck-open detection).
  bool sequential_patterns = true;
  /// Contract for per-fault flags after the first counted detection (see
  /// DetectionMode).  kFirstOnly is serialized on the shard_io wire — it
  /// changes records, so every worker must agree.
  DetectionMode detection_mode = DetectionMode::kFull;
};

/// Occupancy accounting for the batched line-fault kernel, filled by
/// run_range when a caller passes a sink (the engine shard loop feeds
/// these into the `engine.faults_batched` / `engine.batch_width` counters
/// and the `shard.batch_fill` histogram).
struct LineBatchStats {
  std::size_t faults = 0;      ///< line faults handled (counted once each)
  std::size_t groups = 0;      ///< kernel invocations (strips re-group, so a
                               ///< fault can ride several invocations)
  /// Lanes that actually carried a fault, summed over invocations — NOT
  /// groups x kBatchLanes: a partially filled group contributes only its
  /// occupied lanes, so occupancy = lane_slots / (groups * kBatchLanes).
  std::size_t lane_slots = 0;
  std::size_t words = 0;       ///< pattern words evaluated (post early-exit)
  /// Line faults resolved by critical-path tracing alone (no kernel pass).
  std::size_t cpt_faults = 0;
  /// fill[k]: kernel invocations that carried k+1 faults.
  std::array<std::size_t, logic::CompiledCircuit::kBatchLanes> fill{};

  void merge(const LineBatchStats& o) {
    faults += o.faults;
    groups += o.groups;
    lane_slots += o.lane_slots;
    words += o.words;
    cpt_faults += o.cpt_faults;
    for (std::size_t k = 0; k < fill.size(); ++k) fill[k] += o.fill[k];
  }
};

/// Transistor faults per evaluation path, filled by run_range when a
/// caller passes a sink (the engine shard loop feeds these into the
/// `engine.faults_transistor_<path>` counters).  Counted by the path the
/// dictionary and context select, including faults resolved without a
/// kernel pass.
struct TransistorPathStats {
  std::size_t packed = 0;  ///< binary dictionary and patterns, value rail
  /// marginal/floating rows or X-bearing patterns, value + X rails
  std::size_t dual_rail = 0;

  void merge(const TransistorPathStats& o) {
    packed += o.packed;
    dual_rail += o.dual_rail;
  }
};

/// Aggregate result over a fault list.
struct FaultSimReport {
  std::vector<DetectionRecord> records;  ///< parallel to the fault list
  FaultSimOptions options;

  [[nodiscard]] int detected_count() const;
  [[nodiscard]] double coverage() const;  ///< detected / total
};

/// Validates a line stuck-at fault against the circuit and converts it to
/// the compiled-kernel descriptor.  The compiled kernels index with the
/// fault's fields unchecked (asserts in debug), so every path into them
/// funnels through this check — including faults parsed from untrusted
/// shard_io documents.
/// @throws std::invalid_argument on a transistor fault or out-of-range
///   net/gate/pin fields
[[nodiscard]] logic::CompiledCircuit::LineFault checked_line_fault(
    const logic::Circuit& ckt, const Fault& fault);

/// Fault simulator bound to one circuit.
class FaultSimulator {
 public:
  /// @param ckt finalized circuit; must outlive the simulator
  explicit FaultSimulator(const logic::Circuit& ckt);

  /// Simulates all faults against all patterns (builds a local context).
  [[nodiscard]] FaultSimReport run(const std::vector<Fault>& faults,
                                   const std::vector<logic::Pattern>& patterns,
                                   const FaultSimOptions& options = {}) const;

  /// Context-based variant: the good machine, packed words and
  /// dictionaries come from `ctx` (built once, shared by every caller).
  [[nodiscard]] FaultSimReport run(const EvalContext& ctx,
                                   const std::vector<Fault>& faults,
                                   const FaultSimOptions& options = {}) const;

  /// Engine hook: simulates the contiguous sub-range [begin, end) of a
  /// fault list, returning records parallel to that range.  Each fault is
  /// self-contained (line faults via their own detection words, transistor
  /// faults via their own retained-state sequence), so concatenating the
  /// records of a partition of [0, size) is bit-identical to one `run` over
  /// the whole list — this is what makes campaign sharding deterministic.
  [[nodiscard]] std::vector<DetectionRecord> run_range(
      const std::vector<Fault>& faults, std::size_t begin, std::size_t end,
      const std::vector<logic::Pattern>& patterns,
      const FaultSimOptions& options = {}) const;

  /// Context-based range hook: what campaign shards actually execute.  All
  /// shards of a job share one EvalContext instead of re-packing patterns
  /// and re-simulating the good machine per shard.  When `stats` is
  /// non-null, the line faults' occupancy accounting is merged in; when
  /// `paths` is non-null, the transistor faults of the range are counted
  /// per evaluation path.
  [[nodiscard]] std::vector<DetectionRecord> run_range(
      const EvalContext& ctx, const std::vector<Fault>& faults,
      std::size_t begin, std::size_t end, const FaultSimOptions& options = {},
      LineBatchStats* stats = nullptr,
      TransistorPathStats* paths = nullptr) const;

  /// Single line-fault / single-pattern check (builds a local one-pattern
  /// context).
  /// @throws std::invalid_argument on a transistor fault, a malformed
  ///   line fault, or an X in the pattern
  [[nodiscard]] bool line_fault_detected(const Fault& fault,
                                         const logic::Pattern& pattern) const;

  /// Context-based variant for ATPG verification loops: checks the fault
  /// against pattern `pattern_index` of the context with the batch kernel
  /// at one lane, without re-packing or re-simulating the good machine.
  [[nodiscard]] bool line_fault_detected(const EvalContext& ctx,
                                         const Fault& fault,
                                         std::size_t pattern_index) const;

  /// One transistor fault over a pattern sequence (builds a local
  /// context, so it takes the same path as a campaign would).
  [[nodiscard]] DetectionRecord simulate_transistor_fault(
      const Fault& fault, const std::vector<logic::Pattern>& patterns,
      const FaultSimOptions& options = {}) const;

  /// Context-based variant: shares the precomputed good machine's planes.
  [[nodiscard]] DetectionRecord simulate_transistor_fault(
      const EvalContext& ctx, const Fault& fault,
      const FaultSimOptions& options = {}) const;

  /// Explicit two-pattern stuck-open check: `init` sets up the output,
  /// `test` exposes the retained (wrong) value.
  [[nodiscard]] bool stuck_open_detected(const Fault& fault,
                                         const logic::Pattern& init,
                                         const logic::Pattern& test) const;

  [[nodiscard]] const logic::Circuit& circuit() const { return ckt_; }

 private:
  /// Line-fault path of run_range: validates and gathers the line faults
  /// of [begin, end), sorts them by injection position, and feeds
  /// kBatchLanes-sized groups through eval_packed_line_batch, deriving
  /// each fault's DetectionRecord from its detection words.  The word
  /// range is walked in strips and detected faults leave the groups
  /// between strips (freed lanes refill from the surviving faults).  With
  /// critical-path tracing available the whole range resolves from the
  /// good planes instead.  Both shapes bit-identical.
  void run_line_faults_batched(const EvalContext& ctx,
                               const std::vector<Fault>& faults,
                               std::size_t begin, std::size_t end,
                               std::vector<DetectionRecord>& records,
                               LineBatchStats* stats) const;

  /// Scratch buffers for the packed transistor path, hoisted by run_range
  /// so a whole fault range shares one set of allocations (the plane
  /// kernel's epoch bookkeeping lives in `lanes` and persists across
  /// faults, so reuse also skips its per-call re-zeroing).
  struct TransistorScratch {
    std::vector<std::uint64_t> diff;
    std::vector<std::uint64_t> contention;
    std::vector<std::uint64_t> potential;
    std::vector<std::uint64_t> lanes;
    /// Direct-index memo over (cell kind, transistor, fault kind) for the
    /// context's dictionary lookups: DictionaryCache::lookup takes a
    /// mutex and walks a std::map, which dominated the per-fault cost of
    /// the packed path once the kernels were batched.  Entries stay valid
    /// for the cache's lifetime, so memoizing pointers is safe.
    std::vector<const gates::FaultAnalysis*> dicts;
  };

  /// Dispatching body of simulate_transistor_fault with caller-owned
  /// scratch (the public overload wraps it with a local set); counts the
  /// path taken into `paths` when non-null.
  [[nodiscard]] DetectionRecord simulate_transistor_scratch(
      const EvalContext& ctx, const Fault& fault,
      const FaultSimOptions& options, TransistorScratch& scratch,
      TransistorPathStats* paths) const;

  /// Plane transistor path: the value rail for binary dictionaries on
  /// binary patterns, value + X rails for marginal/floating ones and for
  /// every dictionary on X-bearing patterns.
  [[nodiscard]] DetectionRecord simulate_transistor_packed(
      const EvalContext& ctx, const Fault& fault,
      const gates::FaultAnalysis& fa, const FaultSimOptions& options,
      TransistorScratch& scratch) const;

  void check_context(const EvalContext& ctx) const;

  const logic::Circuit& ckt_;
};

}  // namespace cpsinw::faults
