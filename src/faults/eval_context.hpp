// Shared evaluation context: everything about one (circuit, pattern set)
// pair that is independent of any particular fault, computed once and
// reused across the whole fault universe.  The seed hot loop re-simulated
// the good machine and re-packed patterns for *every single fault*
// (O(faults x patterns) good-machine work); an EvalContext makes that
// O(patterns): packed PI words and the good machine as SoA bit planes
// (with a second, X plane per net when a pattern carries X) plus a
// memoized fault-dictionary cache.
//
// Ownership and lifetime rules:
//   * the circuit is held by reference and must outlive the context;
//   * the pattern set is owned (copied/moved in), so a context can be
//     shared across shards and threads without aliasing the builder's
//     buffers;
//   * the context is immutable after construction — concurrent readers
//     need no synchronization;
//   * the dictionary cache is borrowed (default: the process-wide
//     gates::DictionaryCache::global()) and must outlive the context.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "gates/dictionary_cache.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults {

class EvalContext {
 public:
  /// Builds the context: packed PI and good-machine planes, plus the good
  /// machine's X rail when a pattern carries X.  Transistor faults run on
  /// either; line faults require binary patterns (packed()).
  /// @throws std::invalid_argument on a pattern arity mismatch
  /// @param ckt finalized circuit; must outlive the context
  /// @param cache borrowed dictionary cache; nullptr selects global()
  EvalContext(const logic::Circuit& ckt, std::vector<logic::Pattern> patterns,
              gates::DictionaryCache* cache = nullptr);

  [[nodiscard]] const logic::Circuit& circuit() const { return *ckt_; }
  [[nodiscard]] const std::vector<logic::Pattern>& patterns() const {
    return patterns_;
  }
  [[nodiscard]] std::size_t pattern_count() const { return patterns_.size(); }

  /// True when no pattern carries X (every pattern is fully specified).
  [[nodiscard]] bool packed() const { return packed_; }

  // ---- SoA bit-planes ------------------------------------------------------

  /// Pattern words: ceil(pattern_count() / 64).
  [[nodiscard]] std::size_t word_count() const { return n_words_; }
  /// Row stride of the plane buffers, in words: word_count() padded to a
  /// multiple of CompiledCircuit::kSimdWords (padding words are computed
  /// but masked off by active_words()).
  [[nodiscard]] std::size_t plane_stride() const { return stride_; }
  /// Good-machine plane base: word `w` of net `n` is
  /// good_planes()[n * plane_stride() + w].  Lanes where the good value is
  /// X read 0.
  [[nodiscard]] const std::uint64_t* good_planes() const {
    return good_planes_.data();
  }
  /// Good-machine X rail, same layout: bit set where the good value is X
  /// (or Z).  Null when packed(): binary sets have no X to mark.
  [[nodiscard]] const std::uint64_t* good_x_planes() const {
    return packed_ ? nullptr : good_x_planes_.data();
  }
  /// Row of good-machine words for one net.
  [[nodiscard]] const std::uint64_t* good_plane(logic::NetId net) const {
    return good_planes_.data() + static_cast<std::size_t>(net) * stride_;
  }
  /// Packed-PI plane base, same layout with one row per primary input.
  [[nodiscard]] const std::uint64_t* pi_planes() const {
    return pi_planes_.data();
  }
  /// Per pattern word: the valid-pattern mask (low bits set for the
  /// patterns the word holds).
  [[nodiscard]] const std::vector<std::uint64_t>& active_words() const {
    return active_words_;
  }

  // ---- criticality planes (critical-path tracing) --------------------------

  /// True when the criticality planes were built: packed(), at least one
  /// pattern word, exactly one primary output, and every net feeding at
  /// most one gate pin.  On that shape (a fan-out-free single-output
  /// cone) critical-path tracing is exact — no reconvergent path exists
  /// to mask a sensitized line — so line-fault detection can be deduced
  /// from the good machine alone.
  [[nodiscard]] bool cpt_available() const { return cpt_; }
  /// Criticality row of one net: bit p set when flipping the net's value
  /// under pattern p flips the primary output.
  [[nodiscard]] const std::uint64_t* crit_plane(logic::NetId net) const {
    assert(cpt_);
    return crit_planes_.data() + static_cast<std::size_t>(net) * stride_;
  }

  /// Fault-free value of `net` under pattern `pattern`, read from the
  /// good-machine planes: kX where the X rail is set, binary otherwise.
  [[nodiscard]] logic::LogicV good_value(std::size_t pattern,
                                         logic::NetId net) const {
    assert(pattern < pattern_count());
    const std::size_t i =
        static_cast<std::size_t>(net) * stride_ + pattern / 64;
    const unsigned bit = pattern % 64;
    if (!packed_ && ((good_x_planes_[i] >> bit) & 1u) != 0)
      return logic::LogicV::kX;
    return logic::from_bool(((good_planes_[i] >> bit) & 1u) != 0);
  }

  /// Memoized switch-level dictionary of (kind, fault).
  [[nodiscard]] const gates::FaultAnalysis& dictionary(
      gates::CellKind kind, const gates::CellFault& fault) const {
    return cache_->lookup(kind, fault);
  }

  [[nodiscard]] gates::DictionaryCache& cache() const { return *cache_; }

  /// The circuit compilation the context's good machine was produced by
  /// (one compile per context; shared by every shard of a job).
  [[nodiscard]] const logic::CompiledCircuit& compiled() const {
    return sim_.compiled();
  }

 private:
  const logic::Circuit* ckt_;
  gates::DictionaryCache* cache_;
  std::vector<logic::Pattern> patterns_;
  logic::Simulator sim_;
  std::size_t n_words_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> pi_planes_;    ///< [pi][stride_] PI words
  std::vector<std::uint64_t> good_planes_;  ///< [net][stride_] good words
  std::vector<std::uint64_t> good_x_planes_;  ///< [net][stride_] (!packed_)
  std::vector<std::uint64_t> active_words_;
  std::vector<std::uint64_t> crit_planes_;  ///< [net][stride_] criticality
  bool packed_ = false;
  bool cpt_ = false;

  void build_crit_planes();
};

}  // namespace cpsinw::faults
