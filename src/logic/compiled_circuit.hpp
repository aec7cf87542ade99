// One-time compilation of a finalized Circuit into levelized, table-driven
// arrays: the single evaluation kernel under scalar simulation, fault
// simulation on SoA bit planes, and the ATPG forward-implication passes.
// There is one packed representation (the planes below) and one kernel per
// fault shape: eval_packed_line_batch for line stuck-at faults and
// eval_packed_faulty_planes for transistor faults, on binary and X-bearing
// pattern sets alike (the latter add a good-machine X rail).
//
// The compiler flattens the gate list into topological order (exactly
// Circuit::topo_order(), so every consumer sees the same evaluation
// sequence as the interpreted walk it replaced), resolves every pin to a
// value slot (slot == NetId; unused pins alias slot 0, whose value the
// tables ignore), and attaches to each record the 64-entry 4-valued
// good-machine truth table of its cell kind.  A faulty gate substitutes a
// compiled table derived from its switch-level fault dictionary
// (gates::FaultAnalysis::compiled_*), so the fault-simulation hot loops
// never re-consult dictionary rows per pattern.
//
// Invariants:
//   * the circuit is borrowed and must outlive the CompiledCircuit;
//   * a Circuit is immutable after finalize(), so the tables are built
//     once per CompiledCircuit and never rebuilt — a new Circuit object
//     needs a new compilation;
//   * every kernel is bit-identical to the interpreted evaluator it
//     replaced (pinned by tests/logic/compiled_circuit_test.cpp and the
//     campaign engine's byte-identical-JSON suites).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "gates/fault_dictionary.hpp"
#include "logic/circuit.hpp"
#include "logic/types.hpp"

namespace cpsinw::logic {

class CompiledCircuit {
 public:
  /// Scalar table codes, 2 bits per pin: k0 -> 0, k1 -> 1, kX/kZ -> 2.
  static constexpr unsigned kCode0 = 0;
  static constexpr unsigned kCode1 = 1;
  static constexpr unsigned kCodeX = 2;

  /// One levelized gate record.  `table` points at the shared 64-entry
  /// 4-valued good table of the cell kind, indexed by the packed codes of
  /// the three pins (unused pins contribute don't-care bits: every entry
  /// that differs only in them holds the same value).
  struct GateRec {
    const LogicV* table = nullptr;
    gates::CellKind kind = gates::CellKind::kInv;
    std::uint8_t n_in = 1;
    int id = -1;                          ///< original Circuit gate id
    std::array<NetId, 3> in = {0, 0, 0};  ///< input slots (unused -> 0)
    NetId out = 0;
  };

  /// A line stuck-at fault at the logic layer: either a stem (`net` >= 0)
  /// or an input branch (`gate`, `pin`).
  struct LineFault {
    NetId net = -1;
    int gate = -1;
    int pin = -1;
    bool stuck_one = false;
  };

  /// @param ckt finalized circuit; borrowed, must outlive this object
  /// @throws std::invalid_argument when not finalized
  explicit CompiledCircuit(const Circuit& ckt);

  [[nodiscard]] const Circuit& circuit() const { return *ckt_; }

  /// Gate records in Circuit::topo_order() order.
  [[nodiscard]] const std::vector<GateRec>& gates() const { return gates_; }

  /// Levelized position of a gate id inside gates().
  [[nodiscard]] std::size_t position_of(int gate_id) const {
    assert(gate_id >= 0 &&
           static_cast<std::size_t>(gate_id) < position_.size());
    return position_[static_cast<std::size_t>(gate_id)];
  }

  /// Scalar table code of a value (kZ reads as kX, exactly like the
  /// interpreted X-aware evaluation treated it).
  [[nodiscard]] static unsigned code(LogicV v) {
    constexpr unsigned kCodes[4] = {kCodeX, kCodeX, kCode0, kCode1};
    return kCodes[(static_cast<unsigned>(static_cast<int>(v)) + 2u) & 3u];
  }

  /// The 64-entry 4-valued good table of a cell kind (shared static
  /// storage, derived once per process from eval_cell_x / good_output).
  [[nodiscard]] static const LogicV* good_table(gates::CellKind kind);

  // ---- scalar kernels -----------------------------------------------------

  /// Seeds `values` for a scalar pass: X everywhere, binary constants,
  /// then the pattern over the primary inputs (pattern arity must match;
  /// asserted in debug, callers validate).
  void init_scalar(const std::vector<LogicV>& pattern,
                   std::vector<LogicV>& values) const;

  /// Good-machine forward pass over the whole circuit, in place.
  void eval_scalar(std::vector<LogicV>& values) const;

  /// Forward pass with `fault_gate`'s output produced by the compiled
  /// faulty table of `fa`: binary local inputs index compiled_logic
  /// (floating rows retain `previous_state`, marginal rows read X); any X
  /// local input yields X.  @returns true when a contention row was
  /// excited (the IDDQ observable).
  bool eval_scalar_faulty(std::vector<LogicV>& values, int fault_gate,
                          const gates::FaultAnalysis& fa,
                          const std::vector<LogicV>* previous_state) const;

  // ---- SoA bit-plane kernels (multi-word, multi-fault, SIMD) ---------------
  //
  // Layout: planes[net * stride + w] holds pattern word `w` of net `net` —
  // structure-of-arrays, so one net's words are contiguous and a group of
  // kSimdWords words is one aligned-width vector load.  `stride` must come
  // from plane_stride(): padded to a multiple of kSimdWords so the group
  // kernels have no tail loop (padding words are computed but never read —
  // callers mask by their active words).  The good machine has one value
  // plane per net, plus one X plane per net when a pattern carries X (X
  // lanes read 0 on the value plane); the transistor kernel grows its own
  // X rail over the faulted gate's fan-out cone.

  /// Pattern words processed per SIMD step (4 x 64 = 256 patterns).
  static constexpr std::size_t kSimdWords = 4;
  /// Line faults evaluated per eval_packed_line_batch pass (one per SIMD
  /// lane).
  static constexpr std::size_t kBatchLanes = 4;

  /// Plane stride in words for `n_words` pattern words.
  [[nodiscard]] static constexpr std::size_t plane_stride(
      std::size_t n_words) {
    return (n_words + kSimdWords - 1) / kSimdWords * kSimdWords;
  }

  /// Seeds the SoA plane buffer: 0 everywhere, ~0 on constant-1 rows, and
  /// the PI plane rows copied in.  `pi_planes` uses the same layout with
  /// one row per primary input (pack_patterns order).
  void init_packed_planes(const std::uint64_t* pi_planes, std::size_t stride,
                          std::vector<std::uint64_t>& planes) const;

  /// Good-machine forward pass over every plane word, in place.  Walks
  /// kSimdWords-word groups in the outer loop so each group's working set
  /// is one vector register per net.  Bit-identical to the interpreted
  /// simulate_packed per word on every backend (the 2-input cells'
  /// 4-valued tables reduce to the same bitwise forms on binary planes).
  void eval_packed_planes(std::vector<std::uint64_t>& planes,
                          std::size_t stride) const;

  /// Multi-fault batched line kernel: up to kBatchLanes faults share one
  /// forward walk per pattern word.  The fault-free prefix comes straight
  /// from `good_planes` (broadcast into the lanes), and the walk starts at
  /// the earliest injection position; per-fault overrides (stem forces,
  /// branch pin overrides) are applied as per-lane events at their gate
  /// positions.  For fault f and word w, `det[f * n_words + w]` receives
  /// the PO-difference word masked by `active[w]`.  Early exit: once every
  /// fault in the batch has at least one nonzero detection word, remaining
  /// words are skipped (their det words stay zero) — callers that only
  /// need (detected, first_pattern) observe no difference.
  /// @param faults validated descriptors (see faults::checked_line_fault);
  ///   n_faults must be in [1, kBatchLanes]
  /// @param lane_scratch reused across calls; resized internally
  /// @returns the number of pattern words actually evaluated
  std::size_t eval_packed_line_batch(const std::uint64_t* good_planes,
                                     std::size_t stride, std::size_t n_words,
                                     const std::uint64_t* active,
                                     const LineFault* faults,
                                     std::size_t n_faults, std::uint64_t* det,
                                     std::vector<std::uint64_t>& lane_scratch)
      const;

  /// Dual-rail output of a faulted gate carried from the last pattern of
  /// one eval_packed_faulty_planes call to the first pattern of the next:
  /// what a floating row retains.  Starts as X, like the scalar path's
  /// first pattern with no previous state.
  struct RetainedOutput {
    bool value = false;
    bool x = true;
  };

  /// Plane-wide transistor-fault kernel: `fault_gate` substituted by the
  /// compiled dictionary `fa` over all pattern words in kSimdWords groups,
  /// sharing the good planes as the fault-free prefix; only the gate's
  /// fan-out cone is walked.  Writes, per word (unmasked — callers AND
  /// with their active words):
  ///   * `diff` — a definite PO value differs from the good machine;
  ///   * `contention` — a contention row is excited (the IDDQ observable);
  ///   * `potential` — X reached a PO (dual-rail dictionaries only).
  /// On binary planes (null `good_x`), binary dictionaries
  /// (fa.compiled_binary) are a table substitution on the value rail alone;
  /// `potential` and `retained` are ignored and may be null.  Otherwise an
  /// X rail rides along: marginal rows drive X, floating rows retain the
  /// gate's own output from the previous pattern (threaded through
  /// `retained` across calls; a null `retained` makes them read X), and
  /// cone gates propagate X exactly as good_table does.  A non-null
  /// `good_x` (same layout as `good_planes`, set where the good value is
  /// X) takes that X rail for every dictionary: an X local input of the
  /// faulted gate drives X (no contention, retained as X), cone gates read
  /// X from it, and POs count only where the good value is defined.
  /// Bit-identical to eval_scalar_faulty pattern by pattern.  No early
  /// exit: IDDQ-only excitations in late words must still be observed.
  void eval_packed_faulty_planes(const std::uint64_t* good_planes,
                                 const std::uint64_t* good_x,
                                 std::size_t stride, std::size_t n_words,
                                 int fault_gate, const gates::FaultAnalysis& fa,
                                 std::uint64_t* diff, std::uint64_t* contention,
                                 std::uint64_t* potential,
                                 RetainedOutput* retained,
                                 std::vector<std::uint64_t>& lane_scratch)
      const;

 private:
  void eval_scalar_range(LogicV* values, std::size_t from,
                         std::size_t to) const;

  const Circuit* ckt_;
  std::vector<GateRec> gates_;          ///< levelized (topo) order
  std::vector<std::size_t> position_;   ///< gate id -> index into gates_
  std::vector<NetId> const_one_;        ///< slots tied to constant 1
  /// Binary constants for scalar seeding (net, value).
  std::vector<std::pair<NetId, LogicV>> const_binary_;
};

}  // namespace cpsinw::logic
