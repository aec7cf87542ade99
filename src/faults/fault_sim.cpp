#include "faults/fault_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace cpsinw::faults {

using logic::Pattern;

int FaultSimReport::detected_count() const {
  int n = 0;
  for (const DetectionRecord& r : records)
    if (r.detected(options.observe_iddq)) ++n;
  return n;
}

double FaultSimReport::coverage() const {
  if (records.empty()) return 1.0;
  return static_cast<double>(detected_count()) /
         static_cast<double>(records.size());
}

FaultSimulator::FaultSimulator(const logic::Circuit& ckt) : ckt_(ckt) {}

void FaultSimulator::check_context(const EvalContext& ctx) const {
  if (&ctx.circuit() != &ckt_)
    throw std::invalid_argument(
        "FaultSimulator: context built for a different circuit");
}

logic::CompiledCircuit::LineFault checked_line_fault(
    const logic::Circuit& ckt, const Fault& fault) {
  logic::CompiledCircuit::LineFault lf;
  lf.stuck_one = fault.stuck_at_one;
  if (fault.site == FaultSite::kNet) {
    if (fault.net < 0 || fault.net >= ckt.net_count())
      throw std::invalid_argument("line fault: net id out of range");
    lf.net = fault.net;
    return lf;
  }
  if (fault.site != FaultSite::kGateInput)
    throw std::invalid_argument("line fault: transistor fault");
  if (fault.gate < 0 || fault.gate >= ckt.gate_count())
    throw std::invalid_argument("line fault: gate id out of range");
  if (fault.pin < 0 || fault.pin >= ckt.gate(fault.gate).input_count())
    throw std::invalid_argument("line fault: pin out of range");
  lf.gate = fault.gate;
  lf.pin = fault.pin;
  return lf;
}

FaultSimReport FaultSimulator::run(const std::vector<Fault>& faults,
                                   const std::vector<Pattern>& patterns,
                                   const FaultSimOptions& options) const {
  const EvalContext ctx(ckt_, patterns);
  return run(ctx, faults, options);
}

FaultSimReport FaultSimulator::run(const EvalContext& ctx,
                                   const std::vector<Fault>& faults,
                                   const FaultSimOptions& options) const {
  FaultSimReport report;
  report.options = options;
  report.records = run_range(ctx, faults, 0, faults.size(), options);
  return report;
}

std::vector<DetectionRecord> FaultSimulator::run_range(
    const std::vector<Fault>& faults, std::size_t begin, std::size_t end,
    const std::vector<Pattern>& patterns,
    const FaultSimOptions& options) const {
  const EvalContext ctx(ckt_, patterns);
  return run_range(ctx, faults, begin, end, options);
}

std::vector<DetectionRecord> FaultSimulator::run_range(
    const EvalContext& ctx, const std::vector<Fault>& faults,
    std::size_t begin, std::size_t end, const FaultSimOptions& options,
    LineBatchStats* stats, TransistorPathStats* paths) const {
  check_context(ctx);
  if (begin > end || end > faults.size())
    throw std::invalid_argument("run_range: bad fault range");
  std::vector<DetectionRecord> records(end - begin);

  bool any_line_fault = false;
  for (std::size_t fi = begin; fi < end && !any_line_fault; ++fi)
    any_line_fault = faults[fi].site != FaultSite::kGateTransistor;
  if (any_line_fault && !ctx.packed())
    throw std::invalid_argument(
        "run_range: line faults need fully-specified (packable) patterns");

  // --- Line faults: groups of kBatchLanes faults share one forward walk
  // per pattern word over the context's SoA good planes (or none at all
  // under critical-path tracing).  Each fault's record derives from its own
  // detection words, so grouping never changes results — concatenating
  // shard ranges stays bit-identical to one whole-list run.  Every line
  // fault is validated here, whatever the pattern count. -------------------
  if (any_line_fault)
    run_line_faults_batched(ctx, faults, begin, end, records, stats);

  // --- Transistor faults: the plane kernel, with the good X rail on
  // X-bearing contexts.  One scratch set serves the whole range (the plane
  // kernel's cone cache persists across faults, so reuse also skips its
  // per-call re-zeroing); path counts accumulate locally and reach the
  // caller's sink once. ----------------------------------------------------
  TransistorScratch scratch;
  TransistorPathStats local_paths;
  for (std::size_t fi = begin; fi < end; ++fi) {
    const Fault& f = faults[fi];
    if (f.site != FaultSite::kGateTransistor) continue;
    records[fi - begin] =
        simulate_transistor_scratch(ctx, f, options, scratch, &local_paths);
  }
  if (paths != nullptr) paths->merge(local_paths);
  return records;
}

void FaultSimulator::run_line_faults_batched(
    const EvalContext& ctx, const std::vector<Fault>& faults,
    std::size_t begin, std::size_t end, std::vector<DetectionRecord>& records,
    LineBatchStats* stats) const {
  using logic::CompiledCircuit;
  const CompiledCircuit& cc = ctx.compiled();

  // Gather + validate, then sort by injection position: the kernel skips
  // every gate before its group's earliest event, so co-locating faults
  // with deep injection points maximizes the shared skipped prefix.
  struct Entry {
    std::size_t rec;  ///< index into `records`
    CompiledCircuit::LineFault lf;
    std::size_t pos;  ///< earliest position the fault can diverge at
  };
  std::vector<Entry> entries;
  entries.reserve(end - begin);
  for (std::size_t fi = begin; fi < end; ++fi) {
    const Fault& f = faults[fi];
    if (f.site == FaultSite::kGateTransistor) continue;
    Entry e;
    e.rec = fi - begin;
    e.lf = checked_line_fault(ckt_, f);
    if (e.lf.net >= 0) {
      const int driver = ckt_.driver_of(e.lf.net);
      e.pos = driver < 0 ? 0 : cc.position_of(driver);
    } else {
      e.pos = cc.position_of(e.lf.gate);
    }
    entries.push_back(e);
  }

  // --- Critical-path tracing: on a single-output fan-out-free cone the
  // detection word of SA-v on net L is crit(L) & (good(L) != v) & active —
  // exact there (no reconvergent path can mask a sensitized line), so the
  // whole range resolves from the good machine with no faulty pass.  A
  // branch fault reads its input net's planes: fanout <= 1 makes branch
  // and stem the same line. ------------------------------------------------
  if (ctx.cpt_available()) {
    const std::uint64_t* const active = ctx.active_words().data();
    const std::size_t nw = ctx.word_count();
    for (const Entry& e : entries) {
      const logic::NetId net =
          e.lf.net >= 0
              ? e.lf.net
              : ckt_.gate(e.lf.gate).in[static_cast<std::size_t>(e.lf.pin)];
      const std::uint64_t* crit = ctx.crit_plane(net);
      const std::uint64_t* good = ctx.good_plane(net);
      DetectionRecord& rec = records[e.rec];
      for (std::size_t w = 0; w < nw; ++w) {
        const std::uint64_t det =
            crit[w] & (e.lf.stuck_one ? ~good[w] : good[w]) & active[w];
        if (det == 0) continue;
        rec.detected_output = true;
        rec.first_pattern =
            static_cast<int>(w * 64) + __builtin_ctzll(det);
        break;
      }
    }
    if (stats != nullptr) {
      LineBatchStats local;
      local.faults = entries.size();
      local.cpt_faults = entries.size();
      stats->merge(local);
    }
    return;
  }
  // Stable counting sort by position — positions are bounded by the gate
  // count, so two counting passes replace comparison sorting (which showed
  // up as the single largest fixed cost of this wrapper, ahead of the
  // kernel itself on shallow circuits).
  const std::size_t n_pos = cc.gates().size() + 1;
  std::vector<std::uint32_t> counts(n_pos + 1, 0);
  for (const Entry& e : entries) ++counts[e.pos + 1];
  for (std::size_t p = 1; p <= n_pos; ++p) counts[p] += counts[p - 1];
  std::vector<Entry> sorted(entries.size());
  for (const Entry& e : entries) sorted[counts[e.pos]++] = e;
  entries.swap(sorted);

  const std::size_t n_words = ctx.word_count();
  std::vector<std::uint64_t> lane_scratch;
  LineBatchStats local;
  local.faults = entries.size();

  // --- Fault dropping: walk the word range in strips and re-form the lane
  // groups from the *surviving* faults between strips, so a detected fault
  // stops consuming a lane for the rest of the walk (= mid-walk lane
  // refill from pending faults).  A fault's detection words depend only on
  // the fault, never on its group (the kernel early-exits a group only
  // once every lane detected), so any strip/group schedule yields the same
  // record — dropping is bit-identical to one full-width pass.  The
  // first strip is narrow: most detectable faults die within a few words,
  // so the expensive full-width walks only ever see the hard tail.
  // Strips start on kSimdWords boundaries, which keeps the plane pointer
  // offsets aligned with the padded row stride. ----------------------------
  constexpr std::size_t kFirstStrip = CompiledCircuit::kSimdWords;
  constexpr std::size_t kWideStrip = 4 * CompiledCircuit::kSimdWords;
  std::vector<std::uint64_t> det(CompiledCircuit::kBatchLanes * kWideStrip);
  std::vector<std::uint32_t> live(entries.size());
  for (std::size_t i = 0; i < live.size(); ++i)
    live[i] = static_cast<std::uint32_t>(i);

  std::size_t w0 = 0;
  std::size_t strip = kFirstStrip;
  while (w0 < n_words && !live.empty()) {
    const std::size_t nw = std::min(strip, n_words - w0);
    strip = kWideStrip;
    std::size_t survivors = 0;
    for (std::size_t g = 0; g < live.size();
         g += CompiledCircuit::kBatchLanes) {
      const std::size_t n =
          std::min(CompiledCircuit::kBatchLanes, live.size() - g);
      CompiledCircuit::LineFault lfs[CompiledCircuit::kBatchLanes];
      for (std::size_t j = 0; j < n; ++j) lfs[j] = entries[live[g + j]].lf;
      const std::size_t words_done = cc.eval_packed_line_batch(
          ctx.good_planes() + w0, ctx.plane_stride(), nw,
          ctx.active_words().data() + w0, lfs, n, det.data(), lane_scratch);
      for (std::size_t j = 0; j < n; ++j) {
        DetectionRecord& rec = records[entries[live[g + j]].rec];
        const std::uint64_t* fd = det.data() + j * nw;
        bool hit = false;
        for (std::size_t w = 0; w < words_done; ++w) {
          if (fd[w] == 0) continue;
          rec.detected_output = true;
          rec.first_pattern =
              static_cast<int>((w0 + w) * 64) + __builtin_ctzll(fd[w]);
          hit = true;
          break;
        }
        // Order-preserving compaction: survivors keep their position-
        // sorted order, so regrouped lanes stay co-located by depth.
        if (!hit) live[survivors++] = live[g + j];
      }
      ++local.groups;
      local.lane_slots += n;
      local.words += words_done;
      ++local.fill[n - 1];
    }
    live.resize(survivors);
    w0 += nw;
  }
  if (stats != nullptr) stats->merge(local);
}

bool FaultSimulator::line_fault_detected(const Fault& fault,
                                         const Pattern& pattern) const {
  const EvalContext ctx(ckt_, {pattern});
  return line_fault_detected(ctx, fault, 0);
}

bool FaultSimulator::line_fault_detected(const EvalContext& ctx,
                                         const Fault& fault,
                                         std::size_t pattern_index) const {
  using logic::CompiledCircuit;
  check_context(ctx);
  if (fault.site == FaultSite::kGateTransistor)
    throw std::invalid_argument("line_fault_detected: transistor fault");
  if (pattern_index >= ctx.pattern_count())
    throw std::invalid_argument("line_fault_detected: bad pattern index");
  const CompiledCircuit::LineFault lf = checked_line_fault(ckt_, fault);
  if (!ctx.packed()) {
    // Other patterns of the context carry X; this one may still be binary,
    // and then its value-rail lanes are its exact good machine.
    const Pattern& p = ctx.patterns()[pattern_index];
    if (!std::all_of(p.begin(), p.end(), logic::is_binary))
      throw std::invalid_argument("line_fault_detected: X in pattern");
  }
  // The batch kernel with one lane, over the strip from the kSimdWords-
  // aligned word holding the pattern (plane offsets must stay aligned with
  // the padded stride) and an active mask selecting that pattern alone.
  const std::size_t w = pattern_index / 64;
  const std::size_t w0 = w / CompiledCircuit::kSimdWords *
                         CompiledCircuit::kSimdWords;
  std::uint64_t active[CompiledCircuit::kSimdWords] = {};
  active[w - w0] = 1ull << (pattern_index % 64);
  std::uint64_t det[CompiledCircuit::kSimdWords] = {};
  std::vector<std::uint64_t> lane_scratch;
  (void)ctx.compiled().eval_packed_line_batch(
      ctx.good_planes() + w0, ctx.plane_stride(), w - w0 + 1, active, &lf, 1,
      det, lane_scratch);
  return det[w - w0] != 0;
}

DetectionRecord FaultSimulator::simulate_transistor_fault(
    const Fault& fault, const std::vector<Pattern>& patterns,
    const FaultSimOptions& options) const {
  const EvalContext ctx(ckt_, patterns);
  return simulate_transistor_fault(ctx, fault, options);
}

DetectionRecord FaultSimulator::simulate_transistor_fault(
    const EvalContext& ctx, const Fault& fault,
    const FaultSimOptions& options) const {
  TransistorScratch scratch;
  return simulate_transistor_scratch(ctx, fault, options, scratch, nullptr);
}

DetectionRecord FaultSimulator::simulate_transistor_scratch(
    const EvalContext& ctx, const Fault& fault,
    const FaultSimOptions& options, TransistorScratch& scratch,
    TransistorPathStats* paths) const {
  check_context(ctx);
  if (fault.site != FaultSite::kGateTransistor)
    throw std::invalid_argument("simulate_transistor_fault: wrong site");
  if (fault.gate < 0 || fault.gate >= ckt_.gate_count())
    throw std::invalid_argument("simulate_transistor_fault: bad gate id");
  const gates::CellKind kind = ckt_.gate(fault.gate).kind;
  const gates::CellFault& cf = fault.cell_fault;
  // Memoized dictionary lookup: index by (kind, fault kind, transistor),
  // falling back to the locked cache for out-of-band transistor indices.
  const gates::FaultAnalysis* fap = nullptr;
  constexpr std::size_t kTSlots = 33;  // transistor -1..31
  const std::size_t tslot = static_cast<std::size_t>(cf.transistor + 1);
  if (cf.transistor + 1 >= 0 && tslot < kTSlots) {
    const std::size_t idx = (static_cast<std::size_t>(kind) * 5 +
                             static_cast<std::size_t>(cf.kind)) *
                                kTSlots +
                            tslot;
    if (scratch.dicts.size() <= idx) scratch.dicts.resize(idx + 1, nullptr);
    const gates::FaultAnalysis*& slot = scratch.dicts[idx];
    if (slot == nullptr) slot = &ctx.dictionary(kind, cf);
    fap = slot;
  } else {
    fap = &ctx.dictionary(kind, cf);
  }
  const gates::FaultAnalysis& fa = *fap;

  if (paths != nullptr)
    ++(fa.compiled_binary && ctx.packed() ? paths->packed : paths->dual_rail);
  return simulate_transistor_packed(ctx, fault, fa, options, scratch);
}

DetectionRecord FaultSimulator::simulate_transistor_packed(
    const EvalContext& ctx, const Fault& fault,
    const gates::FaultAnalysis& fa, const FaultSimOptions& options,
    TransistorScratch& scratch) const {
  // Faulty machine: every gate evaluates normally except the faulted one,
  // whose output words come from its compiled dictionary — pattern words
  // share the context's good planes.  Dictionaries with marginal or
  // floating rows, and every dictionary on an X-bearing context, add the X
  // rail, and with it the potential words.
  DetectionRecord rec;
  const bool first_only = options.detection_mode == DetectionMode::kFirstOnly;
  const std::uint64_t* const good_x = ctx.good_x_planes();
  const bool dual = !fa.compiled_binary || good_x != nullptr;
  // Which observables can ever fire: a definite PO flip needs a
  // kWrongValue row or a floating row (which may retain a wrong value), X
  // at a PO a marginal or floating row — or, on an X-bearing context, an X
  // at the faulted gate's inputs where the good output is defined — and an
  // IDDQ hit a contending row.  An X alone never flips a PO: every defined
  // value downstream of an X holds for both of its completions, the good
  // one included.
  const bool output_possible = fa.output_detectable || fa.needs_sequence;
  const bool potential_possible =
      fa.marginal_detectable || fa.needs_sequence || good_x != nullptr;
  const bool iddq_possible = options.observe_iddq && fa.iddq_detectable;
  // With none of them possible the empty record is exact without any pass.
  if (!output_possible && !potential_possible && !iddq_possible) return rec;
  const logic::CompiledCircuit& cc = ctx.compiled();
  const std::size_t n_words = ctx.word_count();
  std::vector<std::uint64_t>& diff = scratch.diff;
  std::vector<std::uint64_t>& contention = scratch.contention;
  std::vector<std::uint64_t>& potential = scratch.potential;
  const std::uint64_t* const active = ctx.active_words().data();
  // What a floating output retains from one kernel call to the next; none
  // without sequence threading (floating rows then read X).
  logic::CompiledCircuit::RetainedOutput retained;
  logic::CompiledCircuit::RetainedOutput* const carry =
      options.sequential_patterns ? &retained : nullptr;

  // --- Strip-mined walk with fault dropping.  In full mode the walk stops
  // only once no later word can change the record: output, IDDQ and
  // potential sides each either seen or impossible — so the record is
  // bit-identical to one pass over every word.  In first-only mode
  // the walk stops at the word holding the first counted detection, with
  // that word's contributions masked to patterns at or before the hit
  // bit: exactly the prefix the serial path sees before its break.  The
  // retained output carries from strip to strip through `carry`. ---------
  constexpr std::size_t kFirstStrip = logic::CompiledCircuit::kSimdWords;
  constexpr std::size_t kWideStrip = 4 * logic::CompiledCircuit::kSimdWords;
  diff.resize(kWideStrip);
  contention.resize(kWideStrip);
  if (dual) potential.resize(kWideStrip);
  std::uint64_t any_d = 0;
  std::uint64_t any_c = 0;
  std::uint64_t any_x = 0;
  std::size_t w0 = 0;
  std::size_t strip = kFirstStrip;
  while (w0 < n_words) {
    const std::size_t nw = std::min(strip, n_words - w0);
    strip = kWideStrip;
    cc.eval_packed_faulty_planes(
        ctx.good_planes() + w0, good_x != nullptr ? good_x + w0 : nullptr,
        ctx.plane_stride(), nw, fault.gate, fa, diff.data(),
        contention.data(), potential.data(), carry, scratch.lanes);
    for (std::size_t w = 0; w < nw; ++w) {
      const std::uint64_t d = diff[w] & active[w0 + w];
      const std::uint64_t c = contention[w] & active[w0 + w];
      const std::uint64_t x = dual ? potential[w] & active[w0 + w] : 0;
      const std::uint64_t hit = d | (options.observe_iddq ? c : 0);
      if (rec.first_pattern < 0 && hit != 0) {
        const int b = __builtin_ctzll(hit);
        rec.first_pattern = static_cast<int>((w0 + w) * 64) + b;
        if (first_only) {
          const std::uint64_t mask = b == 63 ? ~0ull : ((1ull << (b + 1)) - 1);
          any_d |= d & mask;
          any_c |= c & mask;
          any_x |= x & mask;
          break;
        }
      }
      any_d |= d;
      any_c |= c;
      any_x |= x;
    }
    if (first_only && rec.first_pattern >= 0) break;
    w0 += nw;
    if (!first_only) {
      const bool out_final = any_d != 0 || !output_possible;
      const bool iddq_final =
          !options.observe_iddq || any_c != 0 || !fa.iddq_detectable;
      const bool potential_final = any_x != 0 || !potential_possible;
      if (out_final && iddq_final && potential_final) break;
    }
  }
  rec.detected_output = any_d != 0;
  rec.detected_iddq = options.observe_iddq && any_c != 0;
  rec.potential = any_x != 0;
  return rec;
}

bool FaultSimulator::stuck_open_detected(const Fault& fault,
                                         const Pattern& init,
                                         const Pattern& test) const {
  return simulate_transistor_fault(fault, {init, test}, {})
      .detected_output;
}

}  // namespace cpsinw::faults
