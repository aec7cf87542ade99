#include "faults/eval_context.hpp"

#include <algorithm>
#include <stdexcept>

#include "gates/cell.hpp"

namespace cpsinw::faults {

namespace {

const logic::Circuit& require_finalized(const logic::Circuit& ckt) {
  if (!ckt.finalized())
    throw std::invalid_argument("EvalContext: circuit not finalized");
  return ckt;
}

/// Word-parallel cell evaluation over input words already in hand: the
/// 2^n-minterm expansion of the cell's Boolean function (n <= 3, so at
/// most 8 minterms).
std::uint64_t eval_cell_word(gates::CellKind kind, unsigned n_in,
                             const std::uint64_t* in) {
  std::uint64_t out = 0;
  const unsigned combos = 1u << n_in;
  for (unsigned v = 0; v < combos; ++v) {
    if (gates::good_output(kind, v) == 0) continue;
    std::uint64_t m = ~0ull;
    for (unsigned i = 0; i < n_in; ++i)
      m &= ((v >> i) & 1u) != 0 ? in[i] : ~in[i];
    out |= m;
  }
  return out;
}

}  // namespace

EvalContext::EvalContext(const logic::Circuit& ckt,
                         std::vector<logic::Pattern> patterns,
                         gates::DictionaryCache* cache)
    : ckt_(&ckt),
      cache_(cache != nullptr ? cache : &gates::DictionaryCache::global()),
      patterns_(std::move(patterns)),
      sim_(require_finalized(ckt)) {
  const std::size_t n_pi = ckt.primary_inputs().size();
  for (const logic::Pattern& p : patterns_)
    if (p.size() != n_pi)
      throw std::invalid_argument("EvalContext: pattern arity mismatch");

  packed_ = true;
  for (const logic::Pattern& p : patterns_)
    packed_ = packed_ && std::all_of(p.begin(), p.end(), logic::is_binary);

  // SoA bit-planes: word `w` of net `n` lives at [n * stride + w], so the
  // multi-word kernels stream one net's words contiguously.  The stride
  // pads up to the SIMD group width; padding columns evaluate the
  // all-zero-input pattern and are masked off by active_words().
  n_words_ = (patterns_.size() + 63) / 64;
  stride_ = logic::CompiledCircuit::plane_stride(n_words_);
  pi_planes_.assign(n_pi * stride_, 0);
  active_words_.assign(n_words_, 0);
  for (std::size_t p = 0; p < patterns_.size(); ++p) {
    const std::size_t w = p / 64;
    const std::uint64_t bit = 1ull << (p % 64);
    active_words_[w] |= bit;
    for (std::size_t i = 0; i < n_pi; ++i)
      if (patterns_[p][i] == logic::LogicV::k1)
        pi_planes_[i * stride_ + w] |= bit;
  }
  const logic::CompiledCircuit& cc = sim_.compiled();
  if (!packed_) {
    // X-bearing set: the binary plane kernel cannot carry X, so the good
    // machine is the per-pattern scalar pass packed into the value planes
    // (X lanes read 0) and the X rail.  Padding columns stay all zero.
    const std::size_t n_net = static_cast<std::size_t>(ckt.net_count());
    good_planes_.assign(n_net * stride_, 0);
    good_x_planes_.assign(n_net * stride_, 0);
    std::vector<logic::LogicV> values;
    for (std::size_t p = 0; p < patterns_.size(); ++p) {
      cc.init_scalar(patterns_[p], values);
      cc.eval_scalar(values);
      const std::uint64_t bit = 1ull << (p % 64);
      for (std::size_t n = 0; n < n_net; ++n) {
        const std::size_t i = n * stride_ + p / 64;
        if (values[n] == logic::LogicV::k1)
          good_planes_[i] |= bit;
        else if (!is_binary(values[n]))
          good_x_planes_[i] |= bit;
      }
    }
    return;
  }
  cc.init_packed_planes(pi_planes_.data(), stride_, good_planes_);
  cc.eval_packed_planes(good_planes_, stride_);

  // Criticality planes, built only where critical-path tracing is exact:
  // one primary output and every net feeding at most one gate pin
  // (fanout() is per-pin, so a net wired to two pins of one gate also
  // disqualifies — those pins reconverge inside the cell).
  bool cpt = n_words_ > 0 && ckt.primary_outputs().size() == 1;
  for (logic::NetId n = 0; cpt && n < ckt.net_count(); ++n)
    cpt = ckt.fanout(n).size() <= 1;
  if (cpt) build_crit_planes();
}

void EvalContext::build_crit_planes() {
  // Backward walk over the levelized gate list: the PO is critical under
  // every pattern; an input pin is critical exactly when its gate's output
  // is critical and the pin is sensitized (flipping it flips the output).
  // |= accumulates so a net that is both the PO and a gate input keeps its
  // direct criticality.
  const logic::CompiledCircuit& cc = sim_.compiled();
  crit_planes_.assign(good_planes_.size(), 0);
  const auto po = static_cast<std::size_t>(ckt_->primary_outputs()[0]);
  std::uint64_t* const crit_po = crit_planes_.data() + po * stride_;
  for (std::size_t w = 0; w < n_words_; ++w) crit_po[w] = ~0ull;

  const std::vector<logic::CompiledCircuit::GateRec>& gates = cc.gates();
  for (std::size_t k = gates.size(); k-- > 0;) {
    const logic::CompiledCircuit::GateRec& g = gates[k];
    const std::uint64_t* const crit_out =
        crit_planes_.data() + static_cast<std::size_t>(g.out) * stride_;
    const std::uint64_t* const good_out =
        good_planes_.data() + static_cast<std::size_t>(g.out) * stride_;
    for (unsigned i = 0; i < g.n_in; ++i) {
      std::uint64_t* const crit_in =
          crit_planes_.data() + static_cast<std::size_t>(g.in[i]) * stride_;
      for (std::size_t w = 0; w < n_words_; ++w) {
        std::uint64_t ins[3] = {0, 0, 0};
        for (unsigned j = 0; j < g.n_in; ++j)
          ins[j] =
              good_planes_[static_cast<std::size_t>(g.in[j]) * stride_ + w];
        ins[i] = ~ins[i];
        const std::uint64_t sens =
            eval_cell_word(g.kind, g.n_in, ins) ^ good_out[w];
        crit_in[w] |= crit_out[w] & sens;
      }
    }
  }
  cpt_ = true;
}

}  // namespace cpsinw::faults
