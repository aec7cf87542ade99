// Two benchmark legs over the evaluation spine, each cross-checked fault
// by fault — a speedup only counts when the answer is bit-identical:
//
//  1. "context" (BENCH_context.json): the PR-2 shared-evaluation-context
//     win on the transistor-fault hot loop.  "before" replays the seed
//     algorithm verbatim — interpreted scalar simulation, good machine
//     re-simulated and the switch-level dictionary re-derived for every
//     fault; "after" is the library context path.  Gate: >= 2x.
//
//  2. "compiled" (BENCH_compiled.json): the compiled-core win on top of
//     the context/packing layer.  "before" replays the PR-2-era engine —
//     packed batches and dictionary substitution, but interpreted: every
//     gate re-walks GateInst records through topo_order() with per-gate
//     fault checks and a fresh values vector per fault per batch.
//     "after" is the library path (logic::CompiledCircuit underneath).
//     Same fault universe (line + transistor), same records required
//     bit-identically.  Gate: >= 1.5x at 1 thread on the roster.
//
//  3. "batched" (a sub-object of BENCH_compiled.json): the vectorized-core
//     win on top of the compiled core.  "before" is the pr5:: replica of
//     the single-fault packed path (one word-at-a-time circuit walk per
//     fault per 64-pattern batch, over array-of-structs batches); "after"
//     is the pr7:: driver over the multi-fault batch kernel (kBatchLanes
//     faults share one suffix walk over kSimdWords-wide plane groups) with
//     no work reduction, measured once with the portable uint64x4 backend
//     and once with whatever SIMD backend this build selected.  Gates: batched
//     portable >= 2x over single-fault; SIMD >= 1.15x over portable where
//     a vector backend is compiled in (the ratio shrinks whenever the
//     portable path gets faster — it dropped from ~1.33x to ~1.2x when the
//     work-reduction layer's restructuring improved portable code layout —
//     so the gate only guards against the backend losing its edge
//     outright).  All three paths bit-identical.
//
//  4. "dropping" (a sub-object of BENCH_compiled.json): the library, with
//     its always-on work reduction (fault dropping + critical-path
//     tracing), vs the pr7:: driver, same universe, bit-identical records
//     required.  Gate: >= 1.5x.
//
//  5. "large_circuit" (a sub-object of BENCH_compiled.json): the first
//     circuit-scale leg — alu_array(64) exported to `.bench` and
//     re-ingested through the foreign-netlist front end (~2.1k CP gates
//     after MAJ3 decomposition), so the measured circuit is the parser's
//     output, not the generator's.  Checks: parsed circuit functionally
//     matches the generator; a five-class fault campaign (line stuck-at,
//     both polarity faults, stuck-open, stuck-on) produces byte-identical
//     stable JSON at 1, 2, and 8 threads; and the pr7:: batched driver
//     holds its >= 1.5x win over the pr5:: single-fault walk at this scale.
//
//  6. "end_to_end" (a sub-object of BENCH_compiled.json): that same
//     five-class campaign timed whole at 1 thread, run_campaign against a
//     frozen replica of the campaign with the serial transistor path for
//     marginal and floating dictionaries (polarity and stuck-open faults,
//     which dominated its wall time).  Gate: >= 10x with byte-identical
//     stable JSON.
//
//  7. "atpg" (a sub-object of BENCH_compiled.json): the CP test-generation
//     flow over the atpg_flow campaign workload's eleven netlists, ingested
//     through `.bench`, at 1 thread: a frozen replica of the flow with the
//     per-candidate greedy compaction and per-fault two-pattern engines
//     against core::run_test_flow.  Gate: >= 1.5x with byte-identical
//     test suites.
//
// Legs 1 and 2 time the library as shipped, so their "after" includes the
// work reduction that legs 3 and 5 keep out.  The last line printed is the
// JSON object of the *compiled* leg (with the other legs merged in as
// sub-objects); both objects carry the host fingerprint and are written to
// their BENCH_*.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "atpg/channel_break.hpp"
#include "atpg/two_pattern.hpp"
#include "bench_host.hpp"
#include "core/test_flow.hpp"
#include "engine/campaign.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "gates/dictionary_cache.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/bench_format.hpp"
#include "logic/benchmarks.hpp"
#include "logic/simd.hpp"
#include "util/rng.hpp"
#include "../tests/faults/compaction_oracle.hpp"
#include "../tests/faults/serial_oracle.hpp"

namespace {

using namespace cpsinw;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

using faults::test::random_patterns;

bool records_identical(const faults::DetectionRecord& a,
                       const faults::DetectionRecord& b) {
  return a.detected_output == b.detected_output &&
         a.detected_iddq == b.detected_iddq && a.potential == b.potential &&
         a.first_pattern == b.first_pattern;
}

/// Per-pass wall times of competing paths.  One pass of paths[pilot]
/// calibrates a repetition count so small circuits (c17 is 6 gates)
/// measure well above timer resolution; the paths then interleave over
/// nine rounds and each keeps its minimum: this box shows 2x wall-clock
/// swings between back-to-back identical runs, and the minimum of
/// interleaved blocks is the standard noise-resistant estimate of
/// uncontended cost.
struct Timing {
  int reps = 1;
  std::vector<double> best_s;  ///< parallel to the paths
};

Timing time_interleaved(const std::vector<std::function<void()>>& paths,
                        std::size_t pilot = 0) {
  auto t0 = Clock::now();
  paths[pilot]();
  const double pilot_s = seconds_since(t0);
  Timing t;
  t.reps = std::max(
      1, static_cast<int>(std::ceil(0.03 / std::max(pilot_s, 1e-7))));
  t.best_s.assign(paths.size(), 1e30);
  for (int round = 0; round < 9; ++round)
    for (std::size_t i = 0; i < paths.size(); ++i) {
      t0 = Clock::now();
      for (int r = 0; r < t.reps; ++r) paths[i]();
      t.best_s[i] = std::min(t.best_s[i], seconds_since(t0) / t.reps);
    }
  return t;
}

/// The serial transistor-fault record, pattern by pattern with the whole
/// net vector retained: `good(pi)` and `bad(pi, previous_state)` supply the
/// two machines, so each replica below keeps its own evaluation cost.
template <class Good, class Bad>
faults::DetectionRecord serial_record(const logic::Circuit& ckt,
                                      std::size_t n_patterns, Good good,
                                      Bad bad,
                                      const faults::FaultSimOptions& opt) {
  faults::DetectionRecord rec;
  std::vector<logic::LogicV> state;
  for (std::size_t pi = 0; pi < n_patterns; ++pi) {
    const logic::SimResult& g_res = good(pi);
    const logic::SimResult b_res = bad(
        pi, opt.sequential_patterns && !state.empty() ? &state : nullptr);
    if (opt.sequential_patterns) state = b_res.net_values;

    bool hit = false;
    if (b_res.iddq_flag && opt.observe_iddq) {
      rec.detected_iddq = true;
      hit = true;
    }
    for (const logic::NetId po : ckt.primary_outputs()) {
      const logic::LogicV g = g_res.value(po);
      const logic::LogicV b = b_res.value(po);
      if (is_binary(g) && is_binary(b) && g != b) {
        rec.detected_output = true;
        hit = true;
      } else if (is_binary(g) && !is_binary(b)) {
        rec.potential = true;
      }
    }
    if (hit && rec.first_pattern < 0) rec.first_pattern = static_cast<int>(pi);
    if (rec.first_pattern >= 0 &&
        opt.detection_mode == faults::DetectionMode::kFirstOnly)
      break;
  }
  return rec;
}

// ---------------------------------------------------------------------------
// The PR-2-era engine, interpreted: the pre-compiled-core library
// algorithms, frozen over the seed evaluators the equivalence suites pin
// the library against (tests/faults/serial_oracle.hpp).
namespace interp {

using logic::Circuit;
using logic::GateInst;
using logic::LogicV;
using logic::NetId;
using logic::Pattern;
using logic::SimResult;

using faults::test::interp::packed_line;
using faults::test::interp::simulate;
using faults::test::interp::simulate_faulty;

/// Interpreted replica of the PR-2 context: packed batches built by the
/// interpreted simulate_packed, scalar goods by the interpreted simulator,
/// memoized-enough dictionaries (derived once per fault here; the
/// interesting cost is the per-gate walk, not the 2^n rows).
struct Context {
  std::vector<Pattern> patterns;
  std::vector<SimResult> good;
  struct Batch {
    std::size_t base = 0;
    std::uint64_t active = 0;
    std::vector<std::uint64_t> pi_words;
    std::vector<std::uint64_t> net_words;
  };
  std::vector<Batch> batches;
};

Context build_context(const Circuit& ckt, const std::vector<Pattern>& ps) {
  Context ctx;
  ctx.patterns = ps;
  for (const Pattern& p : ps) ctx.good.push_back(simulate(ckt, p));
  for (std::size_t base = 0; base < ps.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, ps.size() - base);
    Context::Batch b;
    b.base = base;
    b.active = count == 64 ? ~0ull : ((1ull << count) - 1ull);
    const std::vector<Pattern> slice(ps.begin() + static_cast<long>(base),
                                     ps.begin() +
                                         static_cast<long>(base + count));
    b.pi_words = logic::pack_patterns(ckt, slice);
    b.net_words = logic::simulate_packed(ckt, b.pi_words);
    ctx.batches.push_back(std::move(b));
  }
  return ctx;
}

faults::DetectionRecord transistor_serial(const Circuit& ckt,
                                          const Context& ctx,
                                          const faults::Fault& fault,
                                          const gates::FaultAnalysis& fa,
                                          const faults::FaultSimOptions& opt) {
  return serial_record(
      ckt, ctx.patterns.size(),
      [&](std::size_t pi) -> const SimResult& { return ctx.good[pi]; },
      [&](std::size_t pi, const std::vector<LogicV>* state) {
        return simulate_faulty(ckt, ctx.patterns[pi], fault.gate, fa, state);
      },
      opt);
}

faults::DetectionRecord transistor_packed(const Circuit& ckt,
                                          const Context& ctx,
                                          const faults::Fault& fault,
                                          const gates::FaultAnalysis& fa,
                                          const faults::FaultSimOptions& opt) {
  faults::DetectionRecord rec;
  std::vector<std::uint64_t> values(
      static_cast<std::size_t>(ckt.net_count()), 0);
  for (const Context::Batch& batch : ctx.batches) {
    for (NetId n = 0; n < ckt.net_count(); ++n)
      values[static_cast<std::size_t>(n)] =
          ckt.constant_of(n) == LogicV::k1 ? ~0ull : 0ull;
    for (std::size_t i = 0; i < batch.pi_words.size(); ++i)
      values[static_cast<std::size_t>(ckt.primary_inputs()[i])] =
          batch.pi_words[i];

    std::uint64_t contention = 0;
    for (const int gid : ckt.topo_order()) {
      const GateInst& g = ckt.gate(gid);
      std::uint64_t in[3] = {0, 0, 0};
      for (int i = 0; i < g.input_count(); ++i)
        in[i] = values[static_cast<std::size_t>(
            g.in[static_cast<std::size_t>(i)])];
      std::uint64_t out;
      if (gid == fault.gate) {
        out = 0;
        for (const gates::FaultRow& row : fa.rows) {
          std::uint64_t minterm = ~0ull;
          for (int i = 0; i < g.input_count(); ++i)
            minterm &= ((row.input >> i) & 1u) != 0 ? in[i] : ~in[i];
          if (fa.faulty_logic(row.input) == 1) out |= minterm;
          if (row.faulty.contention) contention |= minterm;
        }
      } else {
        out = logic::eval_cell_packed(g.kind, in[0], in[1], in[2]);
      }
      values[static_cast<std::size_t>(g.out)] = out;
    }

    std::uint64_t diff = 0;
    for (const NetId po : ckt.primary_outputs())
      diff |= (batch.net_words[static_cast<std::size_t>(po)] ^
               values[static_cast<std::size_t>(po)]);
    diff &= batch.active;
    contention &= batch.active;

    if (diff != 0) rec.detected_output = true;
    const std::uint64_t iddq = opt.observe_iddq ? contention : 0;
    if (iddq != 0) rec.detected_iddq = true;
    const std::uint64_t hit = diff | iddq;
    if (hit != 0 && rec.first_pattern < 0)
      rec.first_pattern = static_cast<int>(batch.base) + __builtin_ctzll(hit);
  }
  return rec;
}

/// The PR-2-era run_range, interpreted: packed line batches with fault
/// dropping and a fresh values vector per fault per batch, packed
/// transistor substitution for binary dictionaries, retained-state serial
/// for the rest.
std::vector<faults::DetectionRecord> run_range(
    const Circuit& ckt, const Context& ctx,
    const std::vector<faults::Fault>& fault_list,
    const faults::FaultSimOptions& opt) {
  std::vector<faults::DetectionRecord> records(fault_list.size());

  for (const Context::Batch& batch : ctx.batches) {
    for (std::size_t fi = 0; fi < fault_list.size(); ++fi) {
      const faults::Fault& f = fault_list[fi];
      if (f.site == faults::FaultSite::kGateTransistor) continue;
      faults::DetectionRecord& rec = records[fi];
      if (rec.detected_output) continue;  // fault dropping
      const auto faulty = packed_line(ckt, batch.pi_words, f);
      std::uint64_t diff = 0;
      for (const NetId po : ckt.primary_outputs())
        diff |= (batch.net_words[static_cast<std::size_t>(po)] ^
                 faulty[static_cast<std::size_t>(po)]);
      diff &= batch.active;
      if (diff != 0) {
        rec.detected_output = true;
        rec.first_pattern =
            static_cast<int>(batch.base) + __builtin_ctzll(diff);
      }
    }
  }

  for (std::size_t fi = 0; fi < fault_list.size(); ++fi) {
    const faults::Fault& f = fault_list[fi];
    if (f.site != faults::FaultSite::kGateTransistor) continue;
    const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
    records[fi] = !fa.needs_sequence && !fa.marginal_detectable
                      ? transistor_packed(ckt, ctx, f, fa, opt)
                      : transistor_serial(ckt, ctx, f, fa, opt);
  }
  return records;
}

}  // namespace interp

// ---------------------------------------------------------------------------
// Frozen PR-5 fault simulation: the word-at-a-time packed path the
// vectorized core replaced.  Array-of-structs batches (one PI word per
// input per 64 patterns) and single-word kernels over the compiled gate
// records: one whole-circuit walk per fault per batch, a line fault
// dropped once detected, a binary transistor dictionary substituted as
// minterm masks.  The library keeps only the SoA planes, so the replica
// lives here, built on CompiledCircuit's public records.
namespace pr5 {

using logic::CompiledCircuit;
using logic::NetId;

struct Batch {
  std::size_t base = 0;
  std::uint64_t active = 0;
  std::vector<std::uint64_t> pi_words;  ///< per PI (pack_patterns order)
};

std::vector<Batch> make_batches(const logic::Circuit& ckt,
                                const std::vector<logic::Pattern>& ps) {
  std::vector<Batch> out;
  for (std::size_t base = 0; base < ps.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, ps.size() - base);
    Batch b;
    b.base = base;
    b.active = count == 64 ? ~0ull : ((1ull << count) - 1ull);
    b.pi_words = logic::pack_patterns(
        ckt, {ps.begin() + static_cast<long>(base),
              ps.begin() + static_cast<long>(base + count)});
    out.push_back(std::move(b));
  }
  return out;
}

/// The compiled records and constant-1 slots, held by value as the PR-5
/// kernels held them.
struct Kernels {
  const CompiledCircuit& cc;
  std::vector<CompiledCircuit::GateRec> gates;
  std::vector<NetId> const_one;

  explicit Kernels(const CompiledCircuit& c) : cc(c), gates(c.gates()) {
    for (NetId n = 0; n < cc.circuit().net_count(); ++n)
      if (cc.circuit().constant_of(n) == logic::LogicV::k1)
        const_one.push_back(n);
  }

  void init(const std::vector<std::uint64_t>& pi_words,
            std::vector<std::uint64_t>& values) const {
    values.assign(static_cast<std::size_t>(cc.circuit().net_count()), 0);
    for (const NetId n : const_one)
      values[static_cast<std::size_t>(n)] = ~0ull;
    const std::vector<NetId>& pis = cc.circuit().primary_inputs();
    for (std::size_t i = 0; i < pi_words.size(); ++i)
      values[static_cast<std::size_t>(pis[i])] = pi_words[i];
  }

  void eval_range(std::uint64_t* v, std::size_t from, std::size_t to) const {
    for (std::size_t k = from; k < to; ++k) {
      const CompiledCircuit::GateRec& g = gates[k];
      v[g.out] = logic::eval_cell_packed(g.kind, v[g.in[0]], v[g.in[1]],
                                         v[g.in[2]]);
    }
  }

  /// One line forced: a stem skips its driver, a branch overrides one pin.
  void eval_line(std::vector<std::uint64_t>& values,
                 const CompiledCircuit::LineFault& fault) const {
    std::uint64_t* const v = values.data();
    const std::size_t n_gates = gates.size();
    const std::uint64_t forced = fault.stuck_one ? ~0ull : 0ull;
    if (fault.net >= 0) {
      v[fault.net] = forced;
      const int driver = cc.circuit().driver_of(fault.net);
      if (driver < 0) return eval_range(v, 0, n_gates);
      const std::size_t pos = cc.position_of(driver);
      eval_range(v, 0, pos);
      return eval_range(v, pos + 1, n_gates);
    }
    const std::size_t pos = cc.position_of(fault.gate);
    eval_range(v, 0, pos);
    const CompiledCircuit::GateRec& g = gates[pos];
    std::uint64_t in[3] = {v[g.in[0]], v[g.in[1]], v[g.in[2]]};
    in[fault.pin] = forced;
    v[g.out] = logic::eval_cell_packed(g.kind, in[0], in[1], in[2]);
    eval_range(v, pos + 1, n_gates);
  }

  /// `fault_gate` substituted by the binary dictionary's truth and
  /// contention masks; returns the contention word.
  std::uint64_t eval_faulty(std::vector<std::uint64_t>& values,
                            int fault_gate,
                            const gates::FaultAnalysis& fa) const {
    std::uint64_t* const v = values.data();
    const std::size_t pos = cc.position_of(fault_gate);
    eval_range(v, 0, pos);
    const CompiledCircuit::GateRec& g = gates[pos];
    const std::uint64_t in[3] = {v[g.in[0]], v[g.in[1]], v[g.in[2]]};
    std::uint64_t out = 0;
    std::uint64_t contention = 0;
    const unsigned rows = fa.compiled_truth | fa.compiled_contention;
    for (unsigned vec = 0; vec < (1u << g.n_in); ++vec) {
      if (((rows >> vec) & 1u) == 0) continue;
      std::uint64_t minterm = ~0ull;
      for (unsigned i = 0; i < g.n_in; ++i)
        minterm &= ((vec >> i) & 1u) != 0 ? in[i] : ~in[i];
      if (((fa.compiled_truth >> vec) & 1u) != 0) out |= minterm;
      if (((fa.compiled_contention >> vec) & 1u) != 0) contention |= minterm;
    }
    v[g.out] = out;
    eval_range(v, pos + 1, gates.size());
    return contention;
  }
};

/// The PR-5 run_range over a universe of line faults and binary-dictionary
/// transistor faults (full detection mode, no X patterns).  Good outputs
/// come from the context's planes, as PR-5's batches carried them.
std::vector<faults::DetectionRecord> run_range(
    const Kernels& k, const faults::EvalContext& ctx,
    const std::vector<Batch>& batches,
    const std::vector<faults::Fault>& universe,
    const faults::FaultSimOptions& opt) {
  const logic::Circuit& ckt = k.cc.circuit();
  std::vector<faults::DetectionRecord> records(universe.size());
  std::vector<std::uint64_t> values;
  const auto po_diff = [&](std::size_t bi) {
    std::uint64_t diff = 0;
    for (const NetId po : ckt.primary_outputs())
      diff |= ctx.good_plane(po)[bi] ^ values[static_cast<std::size_t>(po)];
    return diff & batches[bi].active;
  };
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    for (std::size_t fi = 0; fi < universe.size(); ++fi) {
      const faults::Fault& f = universe[fi];
      if (f.site == faults::FaultSite::kGateTransistor) continue;
      faults::DetectionRecord& rec = records[fi];
      if (rec.detected_output) continue;  // fault dropping
      k.init(batches[bi].pi_words, values);
      k.eval_line(values, faults::checked_line_fault(ckt, f));
      const std::uint64_t diff = po_diff(bi);
      if (diff != 0) {
        rec.detected_output = true;
        rec.first_pattern =
            static_cast<int>(batches[bi].base) + __builtin_ctzll(diff);
      }
    }
  }
  for (std::size_t fi = 0; fi < universe.size(); ++fi) {
    const faults::Fault& f = universe[fi];
    if (f.site != faults::FaultSite::kGateTransistor) continue;
    const gates::FaultAnalysis& fa =
        ctx.dictionary(ckt.gate(f.gate).kind, f.cell_fault);
    faults::DetectionRecord& rec = records[fi];
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      k.init(batches[bi].pi_words, values);
      const std::uint64_t cont = k.eval_faulty(values, f.gate, fa);
      const std::uint64_t diff = po_diff(bi);
      const std::uint64_t iddq =
          opt.observe_iddq ? cont & batches[bi].active : 0;
      if (diff != 0) rec.detected_output = true;
      if (iddq != 0) rec.detected_iddq = true;
      const std::uint64_t hit = diff | iddq;
      if (hit != 0 && rec.first_pattern < 0)
        rec.first_pattern =
            static_cast<int>(batches[bi].base) + __builtin_ctzll(hit);
    }
  }
  return records;
}

}  // namespace pr5

// ---------------------------------------------------------------------------
// Frozen PR-7 driver: today's batch kernels with no work reduction.  Line
// faults sorted by injection position and fed kBatchLanes at a time through
// one full-width eval_packed_line_batch pass per group; each binary-
// dictionary transistor fault through one full-width
// eval_packed_faulty_planes pass, flags OR-accumulated, then a scan for the
// first detecting pattern.  The library now always drops detected faults
// (and traces critical paths where exact), so this shape lives here.
namespace pr7 {

using logic::CompiledCircuit;

std::vector<faults::DetectionRecord> run_range(
    const faults::EvalContext& ctx,
    const std::vector<faults::Fault>& universe,
    const faults::FaultSimOptions& opt,
    faults::LineBatchStats* stats = nullptr) {
  const logic::Circuit& ckt = ctx.circuit();
  const CompiledCircuit& cc = ctx.compiled();
  const std::size_t n_words = ctx.word_count();
  const std::uint64_t* const active = ctx.active_words().data();
  std::vector<faults::DetectionRecord> records(universe.size());

  // Line faults: gather, stable counting sort by the earliest position the
  // fault can diverge at, full-width groups.
  struct Entry {
    std::size_t rec;
    CompiledCircuit::LineFault lf;
    std::size_t pos;
  };
  std::vector<Entry> entries;
  for (std::size_t fi = 0; fi < universe.size(); ++fi) {
    const faults::Fault& f = universe[fi];
    if (f.site == faults::FaultSite::kGateTransistor) continue;
    Entry e{fi, faults::checked_line_fault(ckt, f), 0};
    if (e.lf.net >= 0) {
      const int driver = ckt.driver_of(e.lf.net);
      e.pos = driver < 0 ? 0 : cc.position_of(driver);
    } else {
      e.pos = cc.position_of(e.lf.gate);
    }
    entries.push_back(e);
  }
  std::vector<std::uint32_t> counts(cc.gates().size() + 2, 0);
  for (const Entry& e : entries) ++counts[e.pos + 1];
  for (std::size_t p = 1; p < counts.size(); ++p) counts[p] += counts[p - 1];
  std::vector<Entry> sorted(entries.size());
  for (const Entry& e : entries) sorted[counts[e.pos]++] = e;

  faults::LineBatchStats local;
  local.faults = sorted.size();
  std::vector<std::uint64_t> det(CompiledCircuit::kBatchLanes * n_words);
  std::vector<std::uint64_t> lane_scratch;
  for (std::size_t g = 0; g < sorted.size() && n_words > 0;
       g += CompiledCircuit::kBatchLanes) {
    const std::size_t n = std::min(CompiledCircuit::kBatchLanes,
                                   sorted.size() - g);
    CompiledCircuit::LineFault lfs[CompiledCircuit::kBatchLanes];
    for (std::size_t j = 0; j < n; ++j) lfs[j] = sorted[g + j].lf;
    const std::size_t words_done = cc.eval_packed_line_batch(
        ctx.good_planes(), ctx.plane_stride(), n_words, active, lfs, n,
        det.data(), lane_scratch);
    for (std::size_t j = 0; j < n; ++j) {
      faults::DetectionRecord& rec = records[sorted[g + j].rec];
      const std::uint64_t* fd = det.data() + j * n_words;
      for (std::size_t w = 0; w < words_done; ++w) {
        if (fd[w] == 0) continue;
        rec.detected_output = true;
        rec.first_pattern = static_cast<int>(w * 64) + __builtin_ctzll(fd[w]);
        break;
      }
    }
    ++local.groups;
    local.lane_slots += n;
    local.words += words_done;
    ++local.fill[n - 1];
  }
  if (stats != nullptr) stats->merge(local);

  // Binary-dictionary transistor faults: one full pass each.  Dictionaries
  // are memoized per (cell kind, fault kind, transistor) like the
  // library's, so the lookup mutex stays off the per-fault path.
  std::vector<std::uint64_t> diff(n_words);
  std::vector<std::uint64_t> contention(n_words);
  std::vector<std::uint64_t> lanes;
  std::vector<const gates::FaultAnalysis*> dicts;
  for (std::size_t fi = 0; fi < universe.size(); ++fi) {
    const faults::Fault& f = universe[fi];
    if (f.site != faults::FaultSite::kGateTransistor) continue;
    const gates::CellKind kind = ckt.gate(f.gate).kind;
    const std::size_t slot =
        (static_cast<std::size_t>(kind) * 5 +
         static_cast<std::size_t>(f.cell_fault.kind)) * 33 +
        static_cast<std::size_t>(f.cell_fault.transistor + 1);
    if (dicts.size() <= slot) dicts.resize(slot + 1, nullptr);
    if (dicts[slot] == nullptr)
      dicts[slot] = &ctx.dictionary(kind, f.cell_fault);
    const gates::FaultAnalysis& fa = *dicts[slot];
    cc.eval_packed_faulty_planes(ctx.good_planes(), nullptr,
                                 ctx.plane_stride(), n_words, f.gate, fa,
                                 diff.data(), contention.data(), nullptr,
                                 nullptr, lanes);
    std::uint64_t any_d = 0;
    std::uint64_t any_c = 0;
    for (std::size_t w = 0; w < n_words; ++w) {
      any_d |= diff[w] & active[w];
      any_c |= contention[w] & active[w];
    }
    faults::DetectionRecord& rec = records[fi];
    rec.detected_output = any_d != 0;
    rec.detected_iddq = opt.observe_iddq && any_c != 0;
    for (std::size_t w = 0;
         w < n_words && (rec.detected_output || rec.detected_iddq); ++w) {
      const std::uint64_t hit =
          (diff[w] | (opt.observe_iddq ? contention[w] : 0)) & active[w];
      if (hit != 0) {
        rec.first_pattern = static_cast<int>(w * 64) + __builtin_ctzll(hit);
        break;
      }
    }
  }
  return records;
}

}  // namespace pr7

// ---------------------------------------------------------------------------
// Leg 1: shared-context speedup on the transistor hot loop (seed "before").

int run_context_leg() {
  const logic::Circuit ckt = logic::parity_tree(64);

  faults::FaultListOptions flo;
  flo.include_line_stuck_at = false;
  flo.include_transistor_faults = true;
  const std::vector<faults::Fault> universe = faults::generate_fault_list(ckt, flo);
  const std::vector<logic::Pattern> patterns = random_patterns(ckt, 128, 1);

  const faults::FaultSimOptions options;
  const double work = static_cast<double>(universe.size()) *
                      static_cast<double>(patterns.size());

  std::cout << "=== Shared-context transistor-fault throughput: "
            << "parity_tree(64), " << universe.size() << " faults x "
            << patterns.size() << " patterns, 1 thread ===\n";

  // ---- Before: seed algorithm, O(faults x patterns) interpreted
  // good-machine work plus an ad-hoc analyze_fault per fault.
  std::vector<faults::DetectionRecord> before_records;
  const auto t_before = Clock::now();
  for (const faults::Fault& f : universe) {
    const gates::FaultAnalysis fa =
        gates::analyze_fault(ckt.gate(f.gate).kind, f.cell_fault);
    logic::SimResult good;
    const faults::DetectionRecord rec = serial_record(
        ckt, patterns.size(),
        [&](std::size_t pi) -> const logic::SimResult& {
          return good = interp::simulate(ckt, patterns[pi]);
        },
        [&](std::size_t pi, const std::vector<logic::LogicV>* state) {
          return interp::simulate_faulty(ckt, patterns[pi], f.gate, fa, state);
        },
        options);
    before_records.push_back(rec);
  }
  const double before_s = seconds_since(t_before);

  // ---- After: one context (includes its build cost), context run.
  const faults::FaultSimulator fsim(ckt);
  const auto t_after = Clock::now();
  const faults::EvalContext ctx(ckt, patterns);
  const faults::FaultSimReport after = fsim.run(ctx, universe, options);
  const double after_s = seconds_since(t_after);

  bool identical = after.records.size() == before_records.size();
  for (std::size_t i = 0; identical && i < before_records.size(); ++i)
    identical = records_identical(before_records[i], after.records[i]);

  const double before_rate = before_s > 0.0 ? work / before_s : 0.0;
  const double after_rate = after_s > 0.0 ? work / after_s : 0.0;
  const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;

  std::cout << "before (seed serial):   " << before_s * 1e3 << " ms, "
            << before_rate << " faults x patterns / s\n";
  std::cout << "after (shared context): " << after_s * 1e3 << " ms, "
            << after_rate << " faults x patterns / s\n";
  std::cout << "speedup: " << speedup << "x, records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  const std::string json =
      "{\"bench\":\"context\",\"circuit\":\"parity_tree_64\",\"faults\":" +
      std::to_string(universe.size()) +
      ",\"patterns\":" + std::to_string(patterns.size()) +
      ",\"before_s\":" + std::to_string(before_s) +
      ",\"after_s\":" + std::to_string(after_s) +
      ",\"before_fault_patterns_per_s\":" + std::to_string(before_rate) +
      ",\"after_fault_patterns_per_s\":" + std::to_string(after_rate) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"identical\":" + (identical ? "true" : "false") + "," +
      bench::host_json_member() + "}";
  std::ofstream("BENCH_context.json") << json << "\n";
  std::cout << json << "\n\n";

  return identical && speedup >= 2.0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 2: compiled core vs the interpreted PR-2 engine, full fault classes.

int run_compiled_leg(std::string& json_out) {
  struct Entry {
    std::string name;
    logic::Circuit ckt;
  };
  std::vector<Entry> roster;
  roster.push_back({"parity_tree_48", logic::parity_tree(48)});
  roster.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  roster.push_back({"alu_slice", logic::alu_slice()});
  roster.push_back({"tmr_voter_5", logic::tmr_voter(5)});
  roster.push_back({"c17", logic::c17()});

  const faults::FaultSimOptions options;
  double before_total = 0.0;
  double after_total = 0.0;
  bool identical = true;
  std::size_t total_faults = 0;
  std::string per_circuit_json = "[";

  std::cout << "=== Compiled-core fault simulation vs interpreted engine "
            << "(line + transistor, 128 patterns, 1 thread) ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    const std::vector<faults::Fault> universe =
        faults::generate_fault_list(e.ckt, {});
    const std::vector<logic::Pattern> patterns =
        random_patterns(e.ckt, 128, 17 + ci);
    total_faults += universe.size();

    // ---- Before: interpreted engine (context build + run, all walking
    // GateInst records).
    const auto t_before = Clock::now();
    const interp::Context ictx = interp::build_context(e.ckt, patterns);
    const std::vector<faults::DetectionRecord> before =
        interp::run_range(e.ckt, ictx, universe, options);
    const double before_s = seconds_since(t_before);

    // ---- After: the library path (compiled core), context build
    // included.
    const faults::FaultSimulator fsim(e.ckt);
    const auto t_after = Clock::now();
    const faults::EvalContext ctx(e.ckt, patterns);
    const faults::FaultSimReport after = fsim.run(ctx, universe, options);
    const double after_s = seconds_since(t_after);

    bool circuit_identical = after.records.size() == before.size();
    for (std::size_t i = 0; circuit_identical && i < before.size(); ++i)
      circuit_identical = records_identical(before[i], after.records[i]);
    identical = identical && circuit_identical;

    const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;
    std::cout << e.name << ": " << universe.size() << " faults, "
              << before_s * 1e3 << " ms -> " << after_s * 1e3 << " ms ("
              << speedup << "x, "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << ")\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"faults\":" + std::to_string(universe.size()) +
                        ",\"before_s\":" + std::to_string(before_s) +
                        ",\"after_s\":" + std::to_string(after_s) +
                        ",\"speedup\":" + std::to_string(speedup) + "}";
    before_total += before_s;
    after_total += after_s;
  }
  per_circuit_json += "]";

  const double speedup =
      after_total > 0.0 ? before_total / after_total : 0.0;
  std::cout << "roster: " << before_total * 1e3 << " ms -> "
            << after_total * 1e3 << " ms, speedup " << speedup
            << "x, records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  json_out =
      "{\"bench\":\"compiled\",\"faults\":" + std::to_string(total_faults) +
      ",\"patterns\":128,\"before_s\":" + std::to_string(before_total) +
      ",\"after_s\":" + std::to_string(after_total) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":1.5,\"circuits\":" + per_circuit_json + "}";

  return identical && speedup >= 1.5 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 3: the vectorized packed core (multi-fault batched line kernel +
// SoA transistor planes + SIMD widening) vs the PR-5 single-fault packed
// path.  The universe is every packed-eligible fault: all line faults plus
// every transistor fault with a purely binary dictionary.  Floating and
// marginal-row faults (the dual-rail path, which leg 6 measures) are
// excluded, as they were when this leg was written.
//
// "Before" is the pr5:: replica (one whole-circuit word walk per fault per
// 64-pattern batch); "after" is the pr7:: driver over the library's batch
// kernels, with no work reduction — the dropping leg measures that on top.

int run_batched_leg(std::string& json_out) {
  struct Entry {
    std::string name;
    logic::Circuit ckt;
  };
  std::vector<Entry> roster;
  roster.push_back({"parity_tree_48", logic::parity_tree(48)});
  roster.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  roster.push_back({"alu_slice", logic::alu_slice()});
  roster.push_back({"tmr_voter_5", logic::tmr_voter(5)});
  roster.push_back({"c17", logic::c17()});

  const faults::FaultSimOptions options;
  const logic::simd::Backend backend = logic::simd::compiled_backend();
  const bool have_simd = backend != logic::simd::Backend::kPortable;

  double before_total = 0.0;
  double portable_total = 0.0;
  double simd_total = 0.0;
  bool identical = true;
  std::size_t total_faults = 0;
  std::size_t total_excluded = 0;
  faults::LineBatchStats stats;
  std::string per_circuit_json = "[";

  std::cout << "=== Vectorized packed core vs PR-5 single-fault packed path "
            << "(line + binary-dictionary transistor faults, 4096 patterns, "
            << "1 thread, backend " << logic::simd::backend_name(backend)
            << ") ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    // Packed-eligible universe, line faults first.  Cross-class collapse
    // is off so the kernel workload stays comparable across commits — the
    // collapse mostly removes binary-dictionary stuck-ons, i.e. exactly
    // the plane-kernel work this leg measures.
    faults::FaultListOptions flo;
    flo.cross_class_collapse = false;
    const std::vector<faults::Fault> all =
        faults::generate_fault_list(e.ckt, flo);
    std::vector<faults::Fault> universe;
    std::vector<faults::Fault> trans;
    std::size_t excluded = 0;
    for (const faults::Fault& f : all) {
      if (f.site != faults::FaultSite::kGateTransistor) {
        universe.push_back(f);
        continue;
      }
      const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
          e.ckt.gate(f.gate).kind, f.cell_fault);
      if (fa.compiled_binary)
        trans.push_back(f);
      else
        ++excluded;
    }
    const std::size_t n_line = universe.size();
    universe.insert(universe.end(), trans.begin(), trans.end());
    const std::vector<logic::Pattern> patterns =
        random_patterns(e.ckt, 4096, 29 + ci);
    total_faults += universe.size();
    total_excluded += excluded;

    const faults::EvalContext ctx(e.ckt, patterns);  // shared by all paths
    const pr5::Kernels pr5_kernels(ctx.compiled());
    const std::vector<pr5::Batch> batches = pr5::make_batches(e.ckt, patterns);
    const auto run_before = [&]() {
      return pr5::run_range(pr5_kernels, ctx, batches, universe, options);
    };

    const std::vector<faults::DetectionRecord> reference = run_before();
    faults::LineBatchStats circuit_stats;
    logic::simd::force_portable(true);
    const std::vector<faults::DetectionRecord> portable_records =
        pr7::run_range(ctx, universe, options, &circuit_stats);
    logic::simd::force_portable(false);
    const std::vector<faults::DetectionRecord> simd_records =
        pr7::run_range(ctx, universe, options);
    const Timing timing = time_interleaved(
        {[&] { (void)run_before(); },
         [&] {
           logic::simd::force_portable(true);
           (void)pr7::run_range(ctx, universe, options);
           logic::simd::force_portable(false);
         },
         [&] { (void)pr7::run_range(ctx, universe, options); }});
    const int reps = timing.reps;
    const double before_s = timing.best_s[0];
    const double portable_s = timing.best_s[1];
    const double simd_s = timing.best_s[2];
    stats.merge(circuit_stats);

    bool circuit_identical =
        portable_records.size() == reference.size() &&
        simd_records.size() == reference.size();
    for (std::size_t i = 0; circuit_identical && i < reference.size(); ++i)
      circuit_identical =
          records_identical(reference[i], portable_records[i]) &&
          records_identical(reference[i], simd_records[i]);
    identical = identical && circuit_identical;

    const double speedup = portable_s > 0.0 ? before_s / portable_s : 0.0;
    const double simd_speedup = simd_s > 0.0 ? portable_s / simd_s : 0.0;
    std::cout << e.name << ": " << n_line << " line + "
              << universe.size() - n_line << " transistor faults ("
              << excluded << " serial excluded), " << before_s * 1e6
              << " us -> " << portable_s * 1e6 << " us portable (" << speedup
              << "x) -> " << simd_s * 1e6 << " us simd (" << simd_speedup
              << "x), "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << "\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"faults\":" + std::to_string(universe.size()) +
                        ",\"line_faults\":" + std::to_string(n_line) +
                        ",\"serial_excluded\":" + std::to_string(excluded) +
                        ",\"reps\":" + std::to_string(reps) +
                        ",\"before_s\":" + std::to_string(before_s) +
                        ",\"batched_portable_s\":" + std::to_string(portable_s) +
                        ",\"batched_simd_s\":" + std::to_string(simd_s) +
                        ",\"speedup\":" + std::to_string(speedup) +
                        ",\"simd_speedup\":" + std::to_string(simd_speedup) +
                        "}";
    before_total += before_s;
    portable_total += portable_s;
    simd_total += simd_s;
  }
  per_circuit_json += "]";

  const double speedup =
      portable_total > 0.0 ? before_total / portable_total : 0.0;
  const double simd_speedup =
      simd_total > 0.0 ? portable_total / simd_total : 0.0;
  const double lane_fill =
      stats.groups > 0
          ? static_cast<double>(stats.lane_slots) /
                static_cast<double>(stats.groups *
                                    logic::CompiledCircuit::kBatchLanes)
          : 0.0;
  std::cout << "roster: " << before_total * 1e3 << " ms -> "
            << portable_total * 1e3 << " ms portable (" << speedup
            << "x) -> " << simd_total * 1e3 << " ms simd (" << simd_speedup
            << "x), lane fill " << lane_fill << ", records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  json_out =
      std::string("{\"patterns\":4096,\"backend\":\"") +
      logic::simd::backend_name(backend) +
      "\",\"faults\":" + std::to_string(total_faults) +
      ",\"serial_excluded\":" + std::to_string(total_excluded) +
      ",\"before_s\":" + std::to_string(before_total) +
      ",\"batched_portable_s\":" + std::to_string(portable_total) +
      ",\"batched_simd_s\":" + std::to_string(simd_total) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"simd_speedup\":" + std::to_string(simd_speedup) +
      ",\"lane_fill\":" + std::to_string(lane_fill) +
      ",\"kernel_words\":" + std::to_string(stats.words) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":2.0,\"simd_threshold\":1.15,\"simd_gated\":" +
      (have_simd ? "true" : "false") +
      ",\"circuits\":" + per_circuit_json + "}";

  const bool simd_ok = !have_simd || simd_speedup >= 1.15;
  return identical && speedup >= 2.0 && simd_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 4: the work-reduction layer (fault dropping + critical-path tracing)
// vs the PR-7 batched path it sits on.  Both sides run the same batched
// kernels over the same packed-eligible universe; "before" is the pr7::
// driver (no work reduction), "after" is the library (dropping always on,
// CPT where the circuit shape admits it, full detection mode).  The records
// must stay bit-identical — dropping only skips work whose outcome is
// already decided, and CPT is an exact analytical shortcut on its
// qualified cones.  Gate: >= 1.5x.

int run_dropping_leg(std::string& json_out) {
  struct Entry {
    std::string name;
    logic::Circuit ckt;
  };
  std::vector<Entry> roster;
  roster.push_back({"parity_tree_48", logic::parity_tree(48)});
  roster.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  roster.push_back({"alu_slice", logic::alu_slice()});
  roster.push_back({"tmr_voter_5", logic::tmr_voter(5)});
  roster.push_back({"c17", logic::c17()});

  const faults::FaultSimOptions options;

  double before_total = 0.0;
  double after_total = 0.0;
  bool identical = true;
  std::size_t total_faults = 0;
  faults::LineBatchStats stats;
  std::string per_circuit_json = "[";

  std::cout << "=== Work reduction (fault dropping + critical-path tracing) "
            << "vs the batched path (line + binary-dictionary transistor "
            << "faults, 4096 patterns, 1 thread) ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    // Same packed-eligible universe shape as the batched leg: line faults
    // first, then every transistor fault with a purely binary dictionary.
    const std::vector<faults::Fault> all =
        faults::generate_fault_list(e.ckt, {});
    std::vector<faults::Fault> universe;
    std::vector<faults::Fault> trans;
    for (const faults::Fault& f : all) {
      if (f.site != faults::FaultSite::kGateTransistor) {
        universe.push_back(f);
        continue;
      }
      const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
          e.ckt.gate(f.gate).kind, f.cell_fault);
      if (fa.compiled_binary) trans.push_back(f);
    }
    universe.insert(universe.end(), trans.begin(), trans.end());
    const std::vector<logic::Pattern> patterns =
        random_patterns(e.ckt, 4096, 43 + ci);
    total_faults += universe.size();

    const faults::FaultSimulator fsim(e.ckt);
    const faults::EvalContext ctx(e.ckt, patterns);

    // Correctness first: one run of each side, record for record.
    const std::vector<faults::DetectionRecord> reference =
        pr7::run_range(ctx, universe, options);
    faults::LineBatchStats circuit_stats;
    const std::vector<faults::DetectionRecord> after = fsim.run_range(
        ctx, universe, 0, universe.size(), options, &circuit_stats);
    stats.merge(circuit_stats);

    bool circuit_identical = after.size() == reference.size();
    for (std::size_t i = 0; circuit_identical && i < reference.size(); ++i)
      circuit_identical = records_identical(reference[i], after[i]);
    identical = identical && circuit_identical;

    const Timing timing = time_interleaved(
        {[&] { (void)pr7::run_range(ctx, universe, options); },
         [&] {
           (void)fsim.run_range(ctx, universe, 0, universe.size(), options);
         }});
    const int reps = timing.reps;
    const double before_s = timing.best_s[0];
    const double after_s = timing.best_s[1];

    const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;
    std::cout << e.name << ": " << universe.size() << " faults, "
              << before_s * 1e6 << " us -> " << after_s * 1e6 << " us ("
              << speedup << "x, cpt " << circuit_stats.cpt_faults << "/"
              << circuit_stats.faults << " line faults, "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << ")\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"faults\":" + std::to_string(universe.size()) +
                        ",\"cpt_line_faults\":" +
                        std::to_string(circuit_stats.cpt_faults) +
                        ",\"reps\":" + std::to_string(reps) +
                        ",\"before_s\":" + std::to_string(before_s) +
                        ",\"after_s\":" + std::to_string(after_s) +
                        ",\"speedup\":" + std::to_string(speedup) + "}";
    before_total += before_s;
    after_total += after_s;
  }
  per_circuit_json += "]";

  const double speedup =
      after_total > 0.0 ? before_total / after_total : 0.0;
  std::cout << "roster: " << before_total * 1e3 << " ms -> "
            << after_total * 1e3 << " ms, speedup " << speedup
            << "x, records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  json_out =
      "{\"patterns\":4096,\"faults\":" + std::to_string(total_faults) +
      ",\"before_s\":" + std::to_string(before_total) +
      ",\"after_s\":" + std::to_string(after_total) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"cpt_line_faults\":" + std::to_string(stats.cpt_faults) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":1.5,\"circuits\":" + per_circuit_json + "}";

  return identical && speedup >= 1.5 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 5: circuit scale through the ingestion front end.  Everything the
// engine sees went through write_bench -> read_bench, so foreign-gate
// decomposition, net-name mangling, and PI/PO ordering are all on the
// measured path.

int run_large_circuit_leg(std::string& json_out) {
  const logic::Circuit native = logic::alu_array(64);
  const logic::Circuit ckt =
      logic::read_bench_string(logic::to_bench_string(native));
  const bool big_enough = ckt.gate_count() >= 1000;

  std::cout << "=== Large circuit via .bench ingestion (alu_array_64: "
            << native.gate_count() << " native -> " << ckt.gate_count()
            << " parsed gates) ===\n";

  // Functional check: the parsed circuit is the generator's circuit.
  bool equivalent = ckt.primary_inputs().size() ==
                        native.primary_inputs().size() &&
                    ckt.primary_outputs().size() ==
                        native.primary_outputs().size();
  if (equivalent) {
    const logic::Simulator sim_native(native);
    const logic::Simulator sim_parsed(ckt);
    const std::vector<logic::Pattern> checks = random_patterns(native, 32, 71);
    for (const logic::Pattern& p : checks) {
      const logic::SimResult ra = sim_native.simulate(p);
      const logic::SimResult rb = sim_parsed.simulate(p);
      for (std::size_t k = 0;
           equivalent && k < native.primary_outputs().size(); ++k)
        equivalent = ra.value(native.primary_outputs()[k]) ==
                     rb.value(ckt.primary_outputs()[k]);
      if (!equivalent) break;
    }
  }

  // Five-class campaign (line stuck-at + polarity n/p + stuck-open +
  // stuck-on), byte-identical stable JSON across thread counts.
  std::string reference_json;
  bool campaign_identical = true;
  std::size_t campaign_faults = 0;
  double campaign_s = 0.0;
  for (const int threads : {1, 2, 8}) {
    engine::CampaignSpec spec;
    spec.jobs.push_back({"alu_array_64_bench", ckt});
    spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
    spec.patterns.random_count = 128;
    spec.seed = 97;
    spec.threads = threads;
    const auto t0 = Clock::now();
    const engine::CampaignReport report = engine::run_campaign(spec);
    if (threads == 1) {
      campaign_s = seconds_since(t0);
      reference_json = report.to_json();
      campaign_faults = engine::build_universe(ckt, spec.models).size();
    } else {
      campaign_identical =
          campaign_identical && report.to_json() == reference_json;
    }
  }

  // Perf gate at scale: the pr7:: batched driver vs the pr5:: single-fault
  // word walk (no work reduction beyond PR-5's line dropping, as in the
  // batched leg), on a slice of the packed-eligible universe.
  const faults::FaultSimOptions options;

  const std::vector<faults::Fault> all = faults::generate_fault_list(ckt, {});
  std::vector<faults::Fault> universe;
  for (const faults::Fault& f : all) {
    if (f.site != faults::FaultSite::kGateTransistor) {
      universe.push_back(f);
      continue;
    }
    const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
    if (fa.compiled_binary) universe.push_back(f);
  }
  universe.resize(std::min<std::size_t>(universe.size(), 1536));
  const std::size_t slice = universe.size();
  const std::vector<logic::Pattern> patterns = random_patterns(ckt, 256, 73);
  const faults::EvalContext ctx(ckt, patterns);
  const pr5::Kernels pr5_kernels(ctx.compiled());
  const std::vector<pr5::Batch> batches = pr5::make_batches(ckt, patterns);
  const auto run_before = [&]() {
    return pr5::run_range(pr5_kernels, ctx, batches, universe, options);
  };

  const std::vector<faults::DetectionRecord> reference = run_before();
  const std::vector<faults::DetectionRecord> after =
      pr7::run_range(ctx, universe, options);
  bool identical = after.size() == reference.size();
  for (std::size_t i = 0; identical && i < reference.size(); ++i)
    identical = records_identical(reference[i], after[i]);

  const Timing timing = time_interleaved(
      {[&] { (void)run_before(); },
       [&] { (void)pr7::run_range(ctx, universe, options); }},
      1);
  const double before_s = timing.best_s[0];
  const double after_s = timing.best_s[1];
  const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;

  std::cout << "campaign: " << campaign_faults << " classified faults, "
            << campaign_s * 1e3 << " ms at 1 thread, 1/2/8-thread JSON "
            << (campaign_identical ? "byte-identical" : "MISMATCH") << "\n";
  std::cout << "batched kernel: " << slice << " faults x 256 patterns, "
            << before_s * 1e3 << " ms -> " << after_s * 1e3 << " ms ("
            << speedup << "x, "
            << (identical ? "bit-identical" : "MISMATCH") << ", generator "
            << (equivalent ? "equivalent" : "MISMATCH") << ")\n\n";

  json_out =
      "{\"circuit\":\"alu_array_64_bench\",\"gates\":" +
      std::to_string(ckt.gate_count()) +
      ",\"native_gates\":" + std::to_string(native.gate_count()) +
      ",\"campaign_faults\":" + std::to_string(campaign_faults) +
      ",\"campaign_s\":" + std::to_string(campaign_s) +
      ",\"threads_identical\":" + (campaign_identical ? "true" : "false") +
      ",\"generator_equivalent\":" + (equivalent ? "true" : "false") +
      ",\"bench_faults\":" + std::to_string(slice) +
      ",\"before_s\":" + std::to_string(before_s) +
      ",\"after_s\":" + std::to_string(after_s) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":1.5}";

  return big_enough && equivalent && campaign_identical && identical &&
                 speedup >= 1.5
             ? 0
             : 1;
}

// ---------------------------------------------------------------------------
// Leg 6: the whole five-class campaign, end to end.  "Before" is a frozen
// replica of the campaign as it ran while marginal and floating
// dictionaries took the serial transistor path: the same universe,
// patterns and shards, line faults and binary transistor faults on the
// library's plane paths (which that change did not touch), and every other
// transistor fault walked pattern by pattern through the scalar simulator
// with the previous pattern's whole net vector retained.  "After" is
// engine::run_campaign.  Both build everything from the circuit up, at one
// thread.

namespace serial_replica {

/// The retired serial transistor routine: one scalar faulty walk per
/// pattern (the good ones precomputed per job, as the context used to hold
/// them), one SimResult and one state copy per pattern.
faults::DetectionRecord transistor(const logic::Circuit& ckt,
                                   const logic::Simulator& sim,
                                   const std::vector<logic::SimResult>& good,
                                   const std::vector<logic::Pattern>& patterns,
                                   const faults::Fault& fault,
                                   const gates::FaultAnalysis& fa,
                                   const faults::FaultSimOptions& opt) {
  const logic::GateFault gf{fault.gate, fault.cell_fault};
  return serial_record(
      ckt, patterns.size(),
      [&](std::size_t pi) -> const logic::SimResult& { return good[pi]; },
      [&](std::size_t pi, const std::vector<logic::LogicV>* state) {
        return sim.simulate_faulty_with(patterns[pi], gf, fa, state);
      },
      opt);
}

/// engine::run_campaign for an inline, unsampled, bridge-free campaign,
/// with the serial transistor routine above in its shard loop.
engine::CampaignReport run_campaign(const engine::CampaignSpec& spec) {
  faults::FaultSimOptions sim = spec.sim;
  sim.detection_mode = spec.detection_mode;
  const util::SplitMix64 campaign_rng(spec.seed);
  engine::CampaignReport report;
  report.seed = spec.seed;
  report.shard_size = spec.shard_size;
  report.pattern_source = engine::to_string(spec.patterns.kind);
  report.fault_sample_fraction = spec.fault_sample_fraction;
  report.observe_iddq = spec.sim.observe_iddq;
  report.detection_mode = spec.detection_mode;
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    const logic::Circuit& ckt = spec.jobs[j].circuit;
    const std::vector<engine::CampaignFault> universe =
        engine::build_universe(ckt, spec.models, spec.sim.observe_iddq);
    const std::uint64_t job = j;
    const std::vector<logic::Pattern> patterns = engine::build_patterns(
        ckt, spec.patterns, campaign_rng.fork(2 * job));
    const std::vector<engine::Shard> shards = engine::make_shards(
        static_cast<int>(j), universe.size(), spec.shard_size,
        campaign_rng.fork(2 * job + 1));
    const faults::EvalContext ctx(ckt, patterns);
    const logic::Simulator scalar(ckt);
    std::vector<logic::SimResult> good;
    for (const logic::Pattern& p : patterns) good.push_back(scalar.simulate(p));
    const faults::FaultSimulator fsim(ckt);

    engine::JobReport jr;
    jr.circuit = spec.jobs[j].name;
    jr.gate_count = ckt.gate_count();
    jr.transistor_count = ckt.transistor_count();
    jr.pattern_count = static_cast<int>(patterns.size());
    for (const engine::Shard& shard : shards) {
      engine::ShardResult sr;
      sr.job = shard.job;
      sr.index = shard.index;
      sr.results.resize(shard.end - shard.begin);
      std::vector<faults::Fault> packed;
      std::vector<std::size_t> packed_slot;
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        engine::FaultResult& r = sr.results[i - shard.begin];
        r.cls = universe[i].cls;
        const faults::Fault& f = universe[i].fault;
        if (f.site == faults::FaultSite::kGateTransistor) {
          const gates::FaultAnalysis& fa =
              ctx.dictionary(ckt.gate(f.gate).kind, f.cell_fault);
          if (!fa.compiled_binary) {
            r.record = transistor(ckt, scalar, good, patterns, f, fa, sim);
            continue;
          }
        }
        packed.push_back(f);
        packed_slot.push_back(i - shard.begin);
      }
      const std::vector<faults::DetectionRecord> records =
          fsim.run_range(ctx, packed, 0, packed.size(), sim);
      for (std::size_t k = 0; k < records.size(); ++k)
        sr.results[packed_slot[k]].record = records[k];
      engine::accumulate_shard(jr, sr, jr.pattern_count, spec.sim.observe_iddq);
    }
    report.jobs.push_back(std::move(jr));
  }
  return report;
}

}  // namespace serial_replica

int run_end_to_end_leg(std::string& json_out) {
  const logic::Circuit ckt =
      logic::read_bench_string(logic::to_bench_string(logic::alu_array(64)));
  engine::CampaignSpec spec;
  spec.jobs.push_back({"alu_array_64_bench", ckt});
  spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 128;
  spec.seed = 97;
  spec.threads = 1;

  std::size_t dual_faults = 0;
  const std::vector<engine::CampaignFault> universe =
      engine::build_universe(ckt, spec.models, spec.sim.observe_iddq);
  for (const engine::CampaignFault& f : universe)
    if (f.fault.site == faults::FaultSite::kGateTransistor &&
        !gates::DictionaryCache::global()
             .lookup(ckt.gate(f.fault.gate).kind, f.fault.cell_fault)
             .compiled_binary)
      ++dual_faults;

  std::cout << "=== End-to-end five-class campaign: alu_array_64 via .bench ("
            << ckt.gate_count() << " gates, " << universe.size()
            << " faults, " << dual_faults
            << " with marginal/floating dictionaries), 128 patterns, "
            << "1 thread ===\n";

  // One serial pass (it takes seconds); the fast side is the best of five.
  auto t0 = Clock::now();
  const std::string before_json = serial_replica::run_campaign(spec).to_json();
  const double before_s = seconds_since(t0);
  std::string after_json;
  double after_s = 1e30;
  for (int round = 0; round < 5; ++round) {
    t0 = Clock::now();
    const engine::CampaignReport report = engine::run_campaign(spec);
    after_s = std::min(after_s, seconds_since(t0));
    after_json = report.to_json();
  }
  const bool identical = after_json == before_json;
  const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;

  std::cout << "before (serial transistor path): " << before_s * 1e3
            << " ms\nafter (run_campaign): " << after_s * 1e3
            << " ms\nspeedup: " << speedup << "x, stable JSON "
            << (identical ? "byte-identical" : "MISMATCH") << "\n\n";

  json_out = "{\"circuit\":\"alu_array_64_bench\",\"gates\":" +
             std::to_string(ckt.gate_count()) +
             ",\"faults\":" + std::to_string(universe.size()) +
             ",\"dual_rail_faults\":" + std::to_string(dual_faults) +
             ",\"patterns\":128,\"threads\":1,\"before_s\":" +
             std::to_string(before_s) +
             ",\"after_s\":" + std::to_string(after_s) +
             ",\"speedup\":" + std::to_string(speedup) +
             ",\"identical\":" + (identical ? "true" : "false") +
             ",\"threshold\":10}";
  return identical && speedup >= 10.0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 7: the CP test-generation flow on the atpg_flow campaign workload's
// eleven netlists, each ingested through `.bench`, at one thread.
// "Before" is a frozen replica of the flow as it ran while compaction built
// one EvalContext per candidate pattern (the greedy oracle of
// tests/faults/compaction_oracle.hpp) and every two-pattern call built its
// own PodemEngine and FaultSimulator; "after" is core::run_test_flow.

namespace flow_replica {

using atpg::AtpgResult;
using atpg::AtpgStatus;
using core::CoverageMethod;
using core::FaultOutcome;
using faults::Fault;
using faults::FaultSite;

core::TestSuite run_test_flow(const logic::Circuit& ckt,
                              const core::TestFlowOptions& options) {
  const atpg::PodemEngine engine(ckt);
  core::TestSuite suite;
  faults::FaultListOptions flo;
  flo.collapse = true;
  flo.observe_iddq = options.observe_iddq && !options.classical_only;
  for (const Fault& f : generate_fault_list(ckt, flo)) {
    FaultOutcome outcome;
    outcome.fault = f;
    if (f.site != FaultSite::kGateTransistor) {
      const AtpgResult r = engine.generate_line(f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected) {
        outcome.method = CoverageMethod::kStuckAtPattern;
        suite.logic_patterns.push_back(r.pattern);
      }
      suite.outcomes.push_back(outcome);
      continue;
    }
    const logic::GateInst& g = ckt.gate(f.gate);
    const gates::FaultAnalysis& fa =
        gates::DictionaryCache::global().lookup(g.kind, f.cell_fault);
    if (fa.output_detectable) {
      const AtpgResult r = engine.generate_functional(f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected) {
        outcome.method = CoverageMethod::kFunctionalPattern;
        suite.logic_patterns.push_back(r.pattern);
        suite.outcomes.push_back(outcome);
        continue;
      }
    }
    if (!options.classical_only && fa.iddq_detectable &&
        options.observe_iddq) {
      const AtpgResult r = engine.generate_iddq(f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected) {
        outcome.method = CoverageMethod::kIddqPattern;
        suite.iddq_patterns.push_back(r.pattern);
        suite.outcomes.push_back(outcome);
        continue;
      }
    }
    if (fa.needs_sequence &&
        f.cell_fault.kind == gates::TransistorFault::kStuckOpen) {
      const atpg::TwoPatternResult r =
          atpg::generate_two_pattern(ckt, f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected && r.test) {
        outcome.method = CoverageMethod::kTwoPattern;
        suite.two_pattern_tests.push_back(*r.test);
        suite.outcomes.push_back(outcome);
        continue;
      }
    }
    if (!options.classical_only &&
        f.cell_fault.kind == gates::TransistorFault::kStuckOpen &&
        gates::is_dynamic_polarity(g.kind)) {
      auto test = atpg::derive_cell_test(g.kind, f.cell_fault.transistor);
      if (test) {
        test->gate = f.gate;
        bool pi_fed = true;
        for (int i = 0; i < g.input_count(); ++i)
          if (!ckt.is_primary_input(g.in[static_cast<std::size_t>(i)]))
            pi_fed = false;
        test->pi_accessible = pi_fed;
        const AtpgResult just = engine.justify_gate_cube(
            f.gate, test->local_vector, options.podem);
        if (just.status == AtpgStatus::kDetected) {
          test->pattern = just.pattern;
          outcome.method = CoverageMethod::kChannelBreak;
          outcome.status = AtpgStatus::kDetected;
          suite.channel_break_tests.push_back(*test);
          suite.outcomes.push_back(outcome);
          continue;
        }
      }
    }
    suite.outcomes.push_back(outcome);
  }
  if (options.compact) faults::test::reference_flow_compaction(ckt, suite);
  return suite;
}

}  // namespace flow_replica

int run_atpg_leg(std::string& json_out) {
  // The atpg_flow workload's roster (campaign_bench/src/workloads.cpp).
  const std::vector<std::pair<std::string, logic::Circuit>> natives = {
      {"adder_tree_4x8", logic::adder_tree(4, 8)},
      {"alu_array_7", logic::alu_array(7)},
      {"ripple_adder_24", logic::ripple_adder(24)},
      {"alu_array_6", logic::alu_array(6)},
      {"adder_tree_4x6", logic::adder_tree(4, 6)},
      {"alu_array_5", logic::alu_array(5)},
      {"parity_tree_128", logic::parity_tree(128)},
      {"ripple_adder_16", logic::ripple_adder(16)},
      {"alu_array_4", logic::alu_array(4)},
      {"tmr_voter_16", logic::tmr_voter(16)},
      {"xor3_parity_chain_95", logic::xor3_parity_chain(95)}};
  std::vector<logic::Circuit> circuits;
  int gates = 0;
  for (const auto& [name, native] : natives) {
    circuits.push_back(
        logic::read_bench_string(logic::to_bench_string(native)));
    gates += circuits.back().gate_count();
  }
  std::cout << "=== ATPG flow: " << circuits.size()
            << " netlists via .bench (" << gates << " gates), 1 thread ===\n";

  const core::TestFlowOptions options;
  std::string before_text;
  std::string after_text;
  std::size_t patterns = 0;
  const auto flow = [&](bool before) {
    std::string text;
    std::size_t n = 0;
    for (const logic::Circuit& ckt : circuits) {
      const core::TestSuite suite = before ? flow_replica::run_test_flow(ckt, options)
                                           : core::run_test_flow(ckt, options);
      text += faults::test::suite_text(ckt, suite);
      n += suite.logic_patterns.size() + suite.iddq_patterns.size() +
           2 * suite.two_pattern_tests.size();
    }
    (before ? before_text : after_text) = std::move(text);
    patterns = n;
  };
  // Two interleaved rounds, each side keeping its faster pass.
  double before_s = 1e30;
  double after_s = 1e30;
  for (int round = 0; round < 2; ++round) {
    auto t0 = Clock::now();
    flow(true);
    before_s = std::min(before_s, seconds_since(t0));
    t0 = Clock::now();
    flow(false);
    after_s = std::min(after_s, seconds_since(t0));
  }
  const bool identical = before_text == after_text;
  const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;

  std::cout << "before (per-candidate compaction, per-fault two-pattern "
               "engines): "
            << before_s * 1e3 << " ms\nafter (run_test_flow): "
            << after_s * 1e3 << " ms\nspeedup: " << speedup
            << "x, test suites "
            << (identical ? "byte-identical" : "MISMATCH") << " ("
            << patterns << " campaign patterns, " << after_text.size()
            << " bytes dumped)\n\n";

  json_out = "{\"netlists\":" + std::to_string(circuits.size()) +
             ",\"gates\":" + std::to_string(gates) +
             ",\"campaign_patterns\":" + std::to_string(patterns) +
             ",\"threads\":1,\"before_s\":" + std::to_string(before_s) +
             ",\"after_s\":" + std::to_string(after_s) +
             ",\"speedup\":" + std::to_string(speedup) +
             ",\"identical\":" + (identical ? "true" : "false") +
             ",\"threshold\":1.5}";
  return identical && speedup >= 1.5 ? 0 : 1;
}

}  // namespace

int main() {
  const int context_rc = run_context_leg();
  std::string compiled_json;
  std::string batched_json;
  std::string dropping_json;
  std::string large_json;
  const int compiled_rc = run_compiled_leg(compiled_json);
  const int batched_rc = run_batched_leg(batched_json);
  const int dropping_rc = run_dropping_leg(dropping_json);
  const int large_rc = run_large_circuit_leg(large_json);
  std::string end_to_end_json;
  const int end_to_end_rc = run_end_to_end_leg(end_to_end_json);
  std::string atpg_json;
  const int atpg_rc = run_atpg_leg(atpg_json);

  // One BENCH_compiled.json: the compiled-leg object with the batched,
  // dropping, large-circuit, end-to-end and ATPG legs merged in as
  // sub-objects, so the bench trajectory stays a single file per commit.
  const std::string json = compiled_json.substr(0, compiled_json.size() - 1) +
                           ",\"batched\":" + batched_json +
                           ",\"dropping\":" + dropping_json +
                           ",\"large_circuit\":" + large_json +
                           ",\"end_to_end\":" + end_to_end_json +
                           ",\"atpg\":" + atpg_json + "," +
                           bench::host_json_member() + "}";
  std::ofstream("BENCH_compiled.json") << json << "\n";
  std::cout << json << "\n";

  if (context_rc != 0) return context_rc;
  if (compiled_rc != 0) return compiled_rc;
  if (batched_rc != 0) return batched_rc;
  if (dropping_rc != 0) return dropping_rc;
  if (large_rc != 0) return large_rc;
  return end_to_end_rc != 0 ? end_to_end_rc : atpg_rc;
}
