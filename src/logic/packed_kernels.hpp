// Internal: the SoA plane kernels behind CompiledCircuit's packed
// evaluation, written once as templates over a 4x64-bit vector type and
// instantiated per SIMD backend — U64x4 (portable, always built; also the
// NEON shape on aarch64, where the compiler lowers it to q-register ops)
// in compiled_circuit.cpp, an __m256i wrapper in
// compiled_circuit_avx2.cpp (the only TU compiled with -mavx2), and an
// __m256i + VPTERNLOGQ wrapper in compiled_circuit_avx512.cpp (the only
// TU compiled with -mavx512f -mavx512vl; the gate-evaluation overload of
// eval_cell_vec collapses every cell to one ternary-logic instruction).
//
// The vector concept: load/store/splat, the four bitwise ops, and scalar
// lane access.  Lane access is deliberately rare — it appears only at
// fault-injection events and when extracting per-word detection results,
// never in the per-gate walk.
//
// Not installed API: include only from compiled_circuit*.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "logic/compiled_circuit.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace cpsinw::logic::kernels {

// ---- portable vector ------------------------------------------------------

/// The vector concept's reference model: 4x64 bits as a plain struct,
/// every op a 4-iteration loop the compiler unrolls (and, where the
/// baseline ISA allows, auto-vectorizes).  Always built; the backend the
/// SIMD instantiations are pinned bit-identical against.
struct U64x4 {
  std::uint64_t w[4];

  static U64x4 load(const std::uint64_t* p) {
    return U64x4{{p[0], p[1], p[2], p[3]}};
  }
  static void store(std::uint64_t* p, const U64x4& v) {
    p[0] = v.w[0];
    p[1] = v.w[1];
    p[2] = v.w[2];
    p[3] = v.w[3];
  }
  static U64x4 splat(std::uint64_t x) { return U64x4{{x, x, x, x}}; }
  void set_lane(std::size_t i, std::uint64_t x) { w[i] = x; }
  [[nodiscard]] std::uint64_t lane(std::size_t i) const { return w[i]; }

  friend U64x4 operator&(const U64x4& a, const U64x4& b) {
    return U64x4{{a.w[0] & b.w[0], a.w[1] & b.w[1], a.w[2] & b.w[2],
                  a.w[3] & b.w[3]}};
  }
  friend U64x4 operator|(const U64x4& a, const U64x4& b) {
    return U64x4{{a.w[0] | b.w[0], a.w[1] | b.w[1], a.w[2] | b.w[2],
                  a.w[3] | b.w[3]}};
  }
  friend U64x4 operator^(const U64x4& a, const U64x4& b) {
    return U64x4{{a.w[0] ^ b.w[0], a.w[1] ^ b.w[1], a.w[2] ^ b.w[2],
                  a.w[3] ^ b.w[3]}};
  }
  friend U64x4 operator~(const U64x4& a) {
    return U64x4{{~a.w[0], ~a.w[1], ~a.w[2], ~a.w[3]}};
  }
};

#if defined(__aarch64__)

/// The NEON shape of the vector concept: two uint64x2_t q registers.
/// Lane ops need immediate indices, hence the switches (cold paths only).
struct U64x2x2 {
  uint64x2_t v[2];

  static U64x2x2 load(const std::uint64_t* p) {
    return U64x2x2{{vld1q_u64(p), vld1q_u64(p + 2)}};
  }
  static void store(std::uint64_t* p, const U64x2x2& x) {
    vst1q_u64(p, x.v[0]);
    vst1q_u64(p + 2, x.v[1]);
  }
  static U64x2x2 splat(std::uint64_t x) {
    const uint64x2_t s = vdupq_n_u64(x);
    return U64x2x2{{s, s}};
  }
  void set_lane(std::size_t i, std::uint64_t x) {
    switch (i) {
      case 0: v[0] = vsetq_lane_u64(x, v[0], 0); break;
      case 1: v[0] = vsetq_lane_u64(x, v[0], 1); break;
      case 2: v[1] = vsetq_lane_u64(x, v[1], 0); break;
      default: v[1] = vsetq_lane_u64(x, v[1], 1); break;
    }
  }
  [[nodiscard]] std::uint64_t lane(std::size_t i) const {
    switch (i) {
      case 0: return vgetq_lane_u64(v[0], 0);
      case 1: return vgetq_lane_u64(v[0], 1);
      case 2: return vgetq_lane_u64(v[1], 0);
      default: return vgetq_lane_u64(v[1], 1);
    }
  }

  friend U64x2x2 operator&(const U64x2x2& a, const U64x2x2& b) {
    return U64x2x2{{vandq_u64(a.v[0], b.v[0]), vandq_u64(a.v[1], b.v[1])}};
  }
  friend U64x2x2 operator|(const U64x2x2& a, const U64x2x2& b) {
    return U64x2x2{{vorrq_u64(a.v[0], b.v[0]), vorrq_u64(a.v[1], b.v[1])}};
  }
  friend U64x2x2 operator^(const U64x2x2& a, const U64x2x2& b) {
    return U64x2x2{{veorq_u64(a.v[0], b.v[0]), veorq_u64(a.v[1], b.v[1])}};
  }
  friend U64x2x2 operator~(const U64x2x2& a) {
    const uint64x2_t ones = vdupq_n_u64(~0ull);
    return U64x2x2{{veorq_u64(a.v[0], ones), veorq_u64(a.v[1], ones)}};
  }
};

#endif  // __aarch64__

// ---- shared kernel bodies -------------------------------------------------

/// Vector form of eval_cell_packed: on binary planes the 4-valued tables
/// collapse to these bitwise forms (pinned against the table kernel by
/// tests/logic/compiled_batch_test.cpp).
template <class V>
inline V eval_cell_vec(gates::CellKind kind, const V& a, const V& b,
                       const V& c) {
  using gates::CellKind;
  switch (kind) {
    case CellKind::kInv: return ~a;
    case CellKind::kBuf: return a;
    case CellKind::kNand2: return ~(a & b);
    case CellKind::kNor2: return ~(a | b);
    case CellKind::kXor2: return a ^ b;
    case CellKind::kXor3: return a ^ b ^ c;
    case CellKind::kMaj3: return (a & b) | (b & c) | (a & c);
  }
  return V::splat(0);
}

/// Good-machine pass over SoA planes, kSimdWords words per step.
template <class V>
void eval_planes_t(const CompiledCircuit& cc, std::uint64_t* planes,
                   std::size_t stride) {
  const auto& gates = cc.gates();
  for (std::size_t wg = 0; wg < stride; wg += CompiledCircuit::kSimdWords) {
    for (const CompiledCircuit::GateRec& g : gates) {
      const V a = V::load(planes + static_cast<std::size_t>(g.in[0]) * stride +
                          wg);
      const V b = V::load(planes + static_cast<std::size_t>(g.in[1]) * stride +
                          wg);
      const V c = V::load(planes + static_cast<std::size_t>(g.in[2]) * stride +
                          wg);
      V::store(planes + static_cast<std::size_t>(g.out) * stride + wg,
               eval_cell_vec(g.kind, a, b, c));
    }
  }
}

/// Batched line-fault kernel: kBatchLanes faults, one per SIMD lane, one
/// forward walk per pattern word starting at the earliest injection
/// position.  See CompiledCircuit::eval_packed_line_batch for the
/// contract; this body is shared verbatim by every backend, so the
/// backends are bit-identical by construction.
template <class V>
std::size_t eval_line_batch_t(const CompiledCircuit& cc,
                              const std::uint64_t* good, std::size_t stride,
                              std::size_t n_words, const std::uint64_t* active,
                              const CompiledCircuit::LineFault* faults,
                              std::size_t n_faults, std::uint64_t* det,
                              std::vector<std::uint64_t>& lane_scratch) {
  constexpr std::size_t kLanes = CompiledCircuit::kBatchLanes;
  // Words walked together per strip: the walk keeps one lane vector per
  // word, so a strip carries up to kGroups independent dependency chains —
  // on the cone-restricted suffixes the single-word walk is latency-bound
  // on its gate-to-gate chain, and the extra chains fill the idle ALU
  // slots while the scalar epoch bookkeeping is paid once per strip.  The
  // first strip stays narrow: most line faults detect within the first
  // couple of words, and a wide first strip would evaluate words the
  // word-granular early exit never needed.  Survivors get full-width
  // strips, where the ILP is worth the coarser exit.
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kFirstStrip = 2;
  const auto& gates = cc.gates();
  const Circuit& ckt = cc.circuit();
  const std::size_t n_net = static_cast<std::size_t>(ckt.net_count());
  // Lane storage plus a per-net epoch tail and a running epoch counter: a
  // net's lanes are only valid when its epoch equals the current strip's;
  // every other net reads straight from the good planes.  This keeps the
  // per-word cost proportional to the walked suffix, not to net_count (a
  // full per-word broadcast of the good machine would cost as much as a
  // whole-circuit walk per fault and cancel the batching win).  The
  // counter persists across calls sharing the scratch, so the epochs are
  // zeroed once per scratch lifetime, not once per kernel call.
  const std::size_t need = n_net * (kLanes * kGroups + 1) + 1;
  if (lane_scratch.size() != need) lane_scratch.assign(need, 0);
  std::uint64_t* const lanes = lane_scratch.data();
  std::uint64_t* const epoch = lane_scratch.data() + n_net * kLanes * kGroups;
  std::uint64_t& counter = lane_scratch[need - 1];
  std::fill_n(det, n_faults * n_words, 0ull);

  // Injection plan.  A stem fault forces its net's lane at seed time and
  // re-forces it right after the driver's write (a post event); a branch
  // fault overrides one pin of one gate's local inputs (a pre event).
  // Gates before the earliest event position would recompute the good
  // machine, so the walk skips them — their values come from `good`.
  struct Seed {
    NetId net;
    std::size_t lane;
    std::uint64_t word;
  };
  struct Event {
    std::size_t pos;
    std::size_t lane;
    int pin;  ///< >= 0: pre-compute pin override; < 0: post-compute re-force
    std::uint64_t word;
  };
  Seed seeds[kLanes];
  Event events[kLanes];
  std::size_t n_seed = 0;
  std::size_t n_ev = 0;
  std::size_t min_pos = gates.size();
  for (std::size_t f = 0; f < n_faults; ++f) {
    const CompiledCircuit::LineFault& lf = faults[f];
    const std::uint64_t forced = lf.stuck_one ? ~0ull : 0ull;
    if (lf.net >= 0) {
      seeds[n_seed++] = {lf.net, f, forced};
      const int driver = ckt.driver_of(lf.net);
      if (driver < 0) {
        min_pos = 0;  // a PI/constant stem: every reader must see the force
      } else {
        const std::size_t pos = cc.position_of(driver);
        events[n_ev++] = {pos, f, -1, forced};
        min_pos = std::min(min_pos, pos);
      }
    } else {
      const std::size_t pos = cc.position_of(lf.gate);
      events[n_ev++] = {pos, f, lf.pin, forced};
      min_pos = std::min(min_pos, pos);
    }
  }
  // Insertion sort by position: at most kLanes events, and the walk only
  // needs same-position events adjacent (they touch disjoint lanes, so
  // their relative order is immaterial).
  for (std::size_t i = 1; i < n_ev; ++i) {
    const Event e = events[i];
    std::size_t j = i;
    for (; j > 0 && events[j - 1].pos > e.pos; --j) events[j] = events[j - 1];
    events[j] = e;
  }

  std::uint64_t undetected = (1ull << n_faults) - 1ull;

  // One strip: NW consecutive pattern words walked together (NW is a
  // compile-time constant so the per-word loops fully unroll and the NW
  // dependency chains stay in registers).
  const auto strip = [&]<std::size_t NW>(std::size_t w, std::uint64_t cur) {
    // Lanes diverge from the good machine only at seeded nets and walked
    // gate outputs; everything else reads the good plane lazily below.
    for (std::size_t s = 0; s < n_seed; ++s) {
      const std::size_t n = static_cast<std::size_t>(seeds[s].net);
      if (epoch[n] != cur) {
        for (std::size_t gi = 0; gi < NW; ++gi)
          V::store(lanes + n * kLanes * kGroups + gi * kLanes,
                   V::splat(good[n * stride + w + gi]));
        epoch[n] = cur;
      }
      for (std::size_t gi = 0; gi < NW; ++gi)
        lanes[n * kLanes * kGroups + gi * kLanes + seeds[s].lane] =
            seeds[s].word;
    }

    std::size_t ei = 0;
    for (std::size_t k = min_pos; k < gates.size(); ++k) {
      const CompiledCircuit::GateRec& g = gates[k];
      const std::size_t n0 = static_cast<std::size_t>(g.in[0]);
      const std::size_t n1 = static_cast<std::size_t>(g.in[1]);
      const std::size_t n2 = static_cast<std::size_t>(g.in[2]);
      const bool d0 = epoch[n0] == cur;
      const bool d1 = epoch[n1] == cur;
      const bool d2 = epoch[n2] == cur;
      // Cone restriction: a gate with no diverged input and no injection
      // event computes exactly the good machine — skip it, leaving its
      // output epoch stale so downstream readers take the good plane.
      if (!d0 && !d1 && !d2 && !(ei < n_ev && events[ei].pos == k)) continue;
      V a[NW], b[NW], c[NW];
      for (std::size_t gi = 0; gi < NW; ++gi) {
        a[gi] = d0 ? V::load(lanes + n0 * kLanes * kGroups + gi * kLanes)
                   : V::splat(good[n0 * stride + w + gi]);
        b[gi] = d1 ? V::load(lanes + n1 * kLanes * kGroups + gi * kLanes)
                   : V::splat(good[n1 * stride + w + gi]);
        c[gi] = d2 ? V::load(lanes + n2 * kLanes * kGroups + gi * kLanes)
                   : V::splat(good[n2 * stride + w + gi]);
      }
      std::size_t post_n = 0;
      Seed post[kLanes];
      while (ei < n_ev && events[ei].pos == k) {
        const Event& e = events[ei++];
        if (e.pin < 0) {
          post[post_n++] = {g.out, e.lane, e.word};
        } else {
          V* const dst = e.pin == 0 ? a : e.pin == 1 ? b : c;
          for (std::size_t gi = 0; gi < NW; ++gi)
            dst[gi].set_lane(e.lane, e.word);
        }
      }
      for (std::size_t gi = 0; gi < NW; ++gi)
        V::store(lanes + static_cast<std::size_t>(g.out) * kLanes * kGroups +
                     gi * kLanes,
                 eval_cell_vec(g.kind, a[gi], b[gi], c[gi]));
      epoch[static_cast<std::size_t>(g.out)] = cur;
      for (std::size_t p = 0; p < post_n; ++p)
        for (std::size_t gi = 0; gi < NW; ++gi)
          lanes[static_cast<std::size_t>(post[p].net) * kLanes * kGroups +
                gi * kLanes + post[p].lane] = post[p].word;
    }

    // A PO the walk never wrote still equals the good machine in every
    // lane — zero contribution, skipped.
    V diff[NW];
    for (std::size_t gi = 0; gi < NW; ++gi) diff[gi] = V::splat(0);
    for (const NetId po : ckt.primary_outputs()) {
      const std::size_t n = static_cast<std::size_t>(po);
      if (epoch[n] != cur) continue;
      for (std::size_t gi = 0; gi < NW; ++gi)
        diff[gi] = diff[gi] | (V::load(lanes + n * kLanes * kGroups +
                                       gi * kLanes) ^
                               V::splat(good[n * stride + w + gi]));
    }
    // One vector store, then scalar reads: per-lane extract instructions
    // would round-trip through memory once per lane on AVX2.
    for (std::size_t gi = 0; gi < NW; ++gi) {
      alignas(32) std::uint64_t dbuf[kLanes];
      V::store(dbuf, diff[gi]);
      const std::uint64_t act = active[w + gi];
      for (std::size_t f = 0; f < n_faults; ++f) {
        const std::uint64_t d = dbuf[f] & act;
        det[f * n_words + w + gi] = d;
        if (d != 0) undetected &= ~(1ull << f);
      }
    }
  };

  std::size_t w = 0;
  bool first = true;
  while (w < n_words && undetected != 0) {
    const std::uint64_t cur = ++counter;  // never reused: epochs stay valid
    const std::size_t rem = n_words - w;
    if (!first && rem >= kGroups) {
      strip.template operator()<kGroups>(w, cur);
      w += kGroups;
    } else if (rem >= kFirstStrip) {
      strip.template operator()<kFirstStrip>(w, cur);
      w += kFirstStrip;
      first = false;
    } else {
      strip.template operator()<1>(w, cur);
      w += 1;
      first = false;
    }
  }
  return w;
}

/// X rail of eval_cell_vec: a lane's output is X exactly when the binary
/// completions of its X inputs disagree — eval_cell_x, and so the 4-valued
/// good tables.  `a`/`b`/`c` are value rails (arbitrary in X lanes),
/// `xa`/`xb`/`xc` the X rails.  Wherever the result is 0, eval_cell_vec
/// over the value rails already gives the defined output: an X lane holds
/// one binary completion, and all completions agree there.
template <class V>
inline V eval_cell_x_vec(gates::CellKind kind, const V& a, const V& b,
                         const V& c, const V& xa, const V& xb, const V& xc) {
  using gates::CellKind;
  switch (kind) {
    case CellKind::kInv:
    case CellKind::kBuf: return xa;
    // A known 0 (NAND) or known 1 (NOR) on either pin forces the output.
    case CellKind::kNand2: return (xa | xb) & (a | xa) & (b | xb);
    case CellKind::kNor2: return (xa | xb) & (~a | xa) & (~b | xb);
    case CellKind::kXor2: return xa | xb;
    case CellKind::kXor3: return xa | xb | xc;
    // Defined exactly when two known pins agree.
    case CellKind::kMaj3:
      return (xa | xb | (a ^ b)) & (xa | xc | (a ^ c)) & (xb | xc | (b ^ c));
  }
  return V::splat(0);
}

/// Plane-wide transistor kernel: minterm expansion of the compiled
/// dictionary at the faulted gate over kSimdWords words per step, then a
/// walk of its fan-out cone.  kDual adds the X rail that marginal and
/// floating rows need (contract: CompiledCircuit::eval_packed_faulty_planes);
/// without it this is the binary table substitution, and `potential` and
/// `retained` are never touched.  kGoodX (only with kDual) reads the good
/// machine's X rail `good_x` as well: an X local input drives the faulted
/// gate's output to X, cone gates take X from the good inputs they read,
/// and POs where the good machine is X count for nothing.
template <class V, bool kDual, bool kGoodX>
void eval_faulty_planes_rails(const CompiledCircuit& cc,
                              const std::uint64_t* good,
                              const std::uint64_t* good_x, std::size_t stride,
                              std::size_t n_words, int fault_gate,
                              const gates::FaultAnalysis& fa,
                              std::uint64_t* diff, std::uint64_t* contention,
                              std::uint64_t* potential,
                              CompiledCircuit::RetainedOutput* retained,
                              std::vector<std::uint64_t>& lane_scratch) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  // Strip widening: independent word-group chains walked together hide
  // the gate-to-gate latency (a single chain is serial through each cone
  // gate) and amortize the per-fault scalar costs.  Wider than the line
  // kernel's strips because this kernel has no early exit to lose.
  constexpr std::size_t kGroups = 4;
  // Lane words per cone net: as many word groups as one strip walks, so a
  // short pattern set (fewer than kGroups groups) gets short rows.
  const std::size_t row = kW * std::min(kGroups, (n_words + kW - 1) / kW);
  const auto& gates = cc.gates();
  const Circuit& ckt = cc.circuit();
  const std::size_t n_net = static_cast<std::size_t>(ckt.net_count());
  const std::size_t n_po = ckt.primary_outputs().size();
  // Cached cone, then lane storage for it.  The fan-out cone of the
  // faulted gate — which gates diverge, which of their inputs read lanes
  // vs. good planes, which POs can differ — is a property of the graph,
  // not of the pattern words, so it is discovered once (versioned marks +
  // persistent counter) and reused by every strip and by consecutive
  // faults on the same gate (fault lists enumerate several transistor
  // faults per gate back to back).  With the cone precomputed the strip
  // walk is branch-free vector work.
  //
  // Layout: [counter][cone key][cone length][po count][fixed size]
  //         [marks: n_net][slots: n_net][cone: n_gates][po list: n_po]
  //         [value lanes][X lanes]
  // Lanes are indexed by cone slot — slot 0 holds the faulted gate's
  // output, slot i + 1 the output of cone gate i — so one lane row per
  // rail per cone net is all a fault touches, stored in walk order.  The
  // lane region only grows, to the largest cone (times two rails once a
  // dual-rail fault ran) seen by this scratch; the cone cache in front
  // survives the growth, so binary and dual-rail faults on one gate
  // share it.
  const std::size_t n_gates = gates.size();
  const std::size_t fixed = 5 + 2 * n_net + n_gates + n_po;
  if (lane_scratch.size() < fixed || lane_scratch[4] != fixed) {
    lane_scratch.assign(fixed, 0);
    lane_scratch[4] = fixed;
  }
  const std::size_t pos = cc.position_of(fault_gate);
  const CompiledCircuit::GateRec& fg = gates[pos];
  const unsigned combos = 1u << fg.n_in;
  unsigned marginal = 0;
  unsigned floating = 0;
  if constexpr (kDual) {
    for (unsigned vec = 0; vec < combos; ++vec) {
      if (fa.compiled_logic[vec] == -1) marginal |= 1u << vec;
      if (fa.compiled_logic[vec] == -2) floating |= 1u << vec;
    }
  }
  const unsigned rows =
      fa.compiled_truth | fa.compiled_contention | marginal | floating;

  if (lane_scratch[1] != static_cast<std::uint64_t>(fault_gate) + 1) {
    std::uint64_t* const head = lane_scratch.data();
    std::uint64_t* const marks = head + 5;
    std::uint64_t* const slot = marks + n_net;
    std::uint64_t* const cone = slot + n_net;
    std::uint64_t* const po_list = cone + n_gates;
    const std::uint64_t cur = ++head[0];  // never reused: marks stay valid
    marks[static_cast<std::size_t>(fg.out)] = cur;
    slot[static_cast<std::size_t>(fg.out)] = 0;
    std::uint64_t len = 0;
    for (std::size_t k = pos + 1; k < n_gates; ++k) {
      const CompiledCircuit::GateRec& g = gates[k];
      const std::uint64_t dmask =
          (marks[static_cast<std::size_t>(g.in[0])] == cur ? 1u : 0u) |
          (marks[static_cast<std::size_t>(g.in[1])] == cur ? 2u : 0u) |
          (marks[static_cast<std::size_t>(g.in[2])] == cur ? 4u : 0u);
      if (dmask == 0) continue;  // outside the faulted gate's cone
      marks[static_cast<std::size_t>(g.out)] = cur;
      slot[static_cast<std::size_t>(g.out)] = len + 1;
      cone[len++] = (static_cast<std::uint64_t>(k) << 3) | dmask;
    }
    head[2] = len;
    std::uint64_t plen = 0;
    for (const NetId po : ckt.primary_outputs())
      if (marks[static_cast<std::size_t>(po)] == cur)
        po_list[plen++] = static_cast<std::uint64_t>(po);
    head[3] = plen;
    head[1] = static_cast<std::uint64_t>(fault_gate) + 1;
  }
  const std::size_t cone_len = lane_scratch[2];
  const std::size_t lanes_sz = (cone_len + 1) * row;
  const std::size_t need = fixed + (kDual ? 2 : 1) * lanes_sz;
  if (lane_scratch.size() < need) lane_scratch.resize(need, 0);
  const std::uint64_t* const slot = lane_scratch.data() + 5 + n_net;
  const std::uint64_t* const cone = slot + n_net;
  const std::uint64_t* const po_list = cone + n_gates;
  const std::size_t po_len = lane_scratch[3];
  std::uint64_t* const lv = lane_scratch.data() + fixed;
  std::uint64_t* const lx = lv + lanes_sz;  // X lanes (kDual only)

  // Clamped group store: full groups go straight to the output array
  // (shallow cones spend more time extracting than walking, so a scalar
  // roundtrip here would be the kernel's largest fixed cost); only the
  // ragged tail takes the buffered path.
  const auto store_group = [&](std::uint64_t* dst, std::size_t base, V v) {
    if (base >= n_words) return;
    if (n_words - base >= kW) {
      V::store(dst + base, v);
      return;
    }
    alignas(32) std::uint64_t buf[kW];
    V::store(buf, v);
    const std::size_t lim = n_words - base;
    for (std::size_t j = 0; j < lim; ++j) dst[base + j] = buf[j];
  };

  // Floating rows retain the faulted gate's own output from the previous
  // pattern: a forward fill of the last driven (value, X) pair along the
  // pattern sequence, carried word to word and across calls by
  // `retained`.  Within a word it is a log-step scan — after the step
  // with shift s every lane holds the last driven lane among the 2s lanes
  // ending at it, or nothing yet — and lanes still undriven at the end
  // take the carry.  Padding words past n_words leave the carry alone.
  const auto retain = [&](V& out, V& xo, const V& flt,
                          std::size_t base_word) {
    alignas(32) std::uint64_t vb[kW], xb[kW], fb[kW];
    V::store(vb, out);
    V::store(xb, xo);
    V::store(fb, flt);
    for (std::size_t j = 0; j < kW && base_word + j < n_words; ++j) {
      std::uint64_t known = ~fb[j];
      std::uint64_t v = vb[j] & known;
      std::uint64_t x = xb[j] & known;
      for (unsigned s = 1; s < 64; s <<= 1) {
        v |= (v << s) & ~known;
        x |= (x << s) & ~known;
        known |= known << s;
      }
      vb[j] = v | (retained->value ? ~known : 0ull);
      xb[j] = x | (retained->x ? ~known : 0ull);
      retained->value = (vb[j] >> 63) != 0;
      retained->x = (xb[j] >> 63) != 0;
    }
    out = V::load(vb);
    xo = V::load(xb);
  };

  // One strip: NW word groups (NW * kW pattern words) walked together.
  // No vector value stays live across the sub-loops (contention is final
  // at expansion time, PO results accumulate per group), so wide strips
  // add independent chains without spilling registers.
  const auto strip = [&]<std::size_t NW>(std::size_t wg) {
    // Faulted gate: its local inputs equal the good machine's (single
    // faulted gate, acyclic circuit — they cannot be in its own cone), so
    // on binary planes the contention accumulation is the per-pattern IDDQ
    // excitation mask.
    for (std::size_t gi = 0; gi < NW; ++gi) {
      const V in[3] = {
          V::load(good + static_cast<std::size_t>(fg.in[0]) * stride + wg +
                  gi * kW),
          V::load(good + static_cast<std::size_t>(fg.in[1]) * stride + wg +
                  gi * kW),
          V::load(good + static_cast<std::size_t>(fg.in[2]) * stride + wg +
                  gi * kW)};
      V out = V::splat(0);
      V cont = V::splat(0);
      V xo = V::splat(0);
      V flt = V::splat(0);
      for (unsigned vec = 0; vec < combos; ++vec) {
        if (((rows >> vec) & 1u) == 0) continue;
        V minterm = V::splat(~0ull);
        for (unsigned i = 0; i < fg.n_in; ++i)
          minterm = minterm & (((vec >> i) & 1u) != 0 ? in[i] : ~in[i]);
        if (((fa.compiled_truth >> vec) & 1u) != 0) out = out | minterm;
        if (((fa.compiled_contention >> vec) & 1u) != 0)
          cont = cont | minterm;
        if constexpr (kDual) {
          if (((marginal >> vec) & 1u) != 0) xo = xo | minterm;
          if (((floating >> vec) & 1u) != 0) flt = flt | minterm;
        }
      }
      if constexpr (kGoodX) {
        // An X local input yields X, driven (retained as X by a later
        // floating row), with no contention.
        V xin = V::splat(0);
        for (unsigned i = 0; i < fg.n_in; ++i)
          xin = xin | V::load(good_x + static_cast<std::size_t>(fg.in[i]) *
                                          stride +
                              wg + gi * kW);
        cont = cont & ~xin;
        flt = flt & ~xin;
        xo = xo | xin;
      }
      if constexpr (kDual) {
        // Without sequence threading a floating output reads X.
        if (floating != 0) {
          if (retained == nullptr)
            xo = xo | flt;
          else
            retain(out, xo, flt, wg + gi * kW);
        }
        V::store(lx + gi * kW, xo);
      }
      V::store(lv + gi * kW, out);
      store_group(contention, wg + gi * kW, cont);
    }

    // Cone walk: topological order guarantees every lane slot read below
    // was stored earlier in this strip (by the faulted gate or a cone
    // predecessor), so no per-gate validity checks remain.  Inputs read
    // from the good planes take their X rail from `good_x` (zero on binary
    // planes).
    for (std::size_t idx = 0; idx < cone_len; ++idx) {
      const std::uint64_t e = cone[idx];
      const CompiledCircuit::GateRec& g = gates[e >> 3];
      const std::size_t n0 = static_cast<std::size_t>(g.in[0]);
      const std::size_t n1 = static_cast<std::size_t>(g.in[1]);
      const std::size_t n2 = static_cast<std::size_t>(g.in[2]);
      // Lane rows of the diverged inputs (slots are valid only for them).
      const std::size_t r0 = (e & 1) != 0 ? slot[n0] * row : 0;
      const std::size_t r1 = (e & 2) != 0 ? slot[n1] * row : 0;
      const std::size_t r2 = (e & 4) != 0 ? slot[n2] * row : 0;
      const std::size_t o = (idx + 1) * row;
      for (std::size_t gi = 0; gi < NW; ++gi) {
        const std::size_t k = gi * kW;
        const V a = (e & 1) != 0 ? V::load(lv + r0 + k)
                                 : V::load(good + n0 * stride + wg + k);
        const V b = (e & 2) != 0 ? V::load(lv + r1 + k)
                                 : V::load(good + n1 * stride + wg + k);
        const V c = (e & 4) != 0 ? V::load(lv + r2 + k)
                                 : V::load(good + n2 * stride + wg + k);
        V::store(lv + o + k, eval_cell_vec(g.kind, a, b, c));
        if constexpr (kDual) {
          const auto good_xrail = [&](std::size_t n) {
            if constexpr (kGoodX)
              return V::load(good_x + n * stride + wg + k);
            else
              return V::splat(0);
          };
          const V xa = (e & 1) != 0 ? V::load(lx + r0 + k) : good_xrail(n0);
          const V xb = (e & 2) != 0 ? V::load(lx + r1 + k) : good_xrail(n1);
          const V xc = (e & 4) != 0 ? V::load(lx + r2 + k) : good_xrail(n2);
          V::store(lx + o + k, eval_cell_x_vec(g.kind, a, b, c, xa, xb, xc));
        }
      }
    }

    // Cone POs: a definite flip is a detection, an X is a potential one
    // (neither counts where the good machine itself is X).
    for (std::size_t gi = 0; gi < NW; ++gi) {
      V d = V::splat(0);
      V p = V::splat(0);
      for (std::size_t i = 0; i < po_len; ++i) {
        const std::size_t n = static_cast<std::size_t>(po_list[i]);
        const std::size_t r = slot[n] * row + gi * kW;
        const V flip =
            V::load(lv + r) ^ V::load(good + n * stride + wg + gi * kW);
        if constexpr (kGoodX) {
          const V x = V::load(lx + r);
          const V known = ~V::load(good_x + n * stride + wg + gi * kW);
          d = d | (flip & ~x & known);
          p = p | (x & known);
        } else if constexpr (kDual) {
          const V x = V::load(lx + r);
          d = d | (flip & ~x);
          p = p | x;
        } else {
          d = d | flip;
        }
      }
      store_group(diff, wg + gi * kW, d);
      if constexpr (kDual) store_group(potential, wg + gi * kW, p);
    }
  };

  for (std::size_t wg = 0; wg < n_words; wg += kW * kGroups) {
    // Groups whose first word is in range: their loads stay inside the
    // kSimdWords-padded plane stride even when the last word group is
    // partial (the extraction loop clamps what is written back).
    switch (std::min(kGroups, (n_words - wg + kW - 1) / kW)) {
      case 4: strip.template operator()<4>(wg); break;
      case 3: strip.template operator()<3>(wg); break;
      case 2: strip.template operator()<2>(wg); break;
      default: strip.template operator()<1>(wg); break;
    }
  }
}

/// Entry shape shared by every backend: on binary planes (null `good_x`)
/// binary dictionaries take the value rail alone and the rest the dual-rail
/// instantiation; an X-bearing good machine takes the dual rails with the
/// good X rail for every dictionary.
template <class V>
void eval_faulty_planes_t(const CompiledCircuit& cc, const std::uint64_t* good,
                          const std::uint64_t* good_x, std::size_t stride,
                          std::size_t n_words, int fault_gate,
                          const gates::FaultAnalysis& fa, std::uint64_t* diff,
                          std::uint64_t* contention, std::uint64_t* potential,
                          CompiledCircuit::RetainedOutput* retained,
                          std::vector<std::uint64_t>& lane_scratch) {
  if (good_x != nullptr)
    eval_faulty_planes_rails<V, true, true>(cc, good, good_x, stride, n_words,
                                            fault_gate, fa, diff, contention,
                                            potential, retained, lane_scratch);
  else if (fa.compiled_binary)
    eval_faulty_planes_rails<V, false, false>(
        cc, good, nullptr, stride, n_words, fault_gate, fa, diff, contention,
        potential, retained, lane_scratch);
  else
    eval_faulty_planes_rails<V, true, false>(
        cc, good, nullptr, stride, n_words, fault_gate, fa, diff, contention,
        potential, retained, lane_scratch);
}

// ---- AVX2 entry points (defined in compiled_circuit_avx2.cpp) -------------

// The __m256i instantiations of the three template kernels above, behind
// out-of-line entry points so -mavx2 code exists in exactly one TU.
// Contracts (arguments, results, scratch reuse) are identical to the
// templates'; compiled_circuit.cpp dispatches here when the running CPU
// reports AVX2.
#if defined(CPSINW_SIMD_AVX2)
void eval_planes_avx2(const CompiledCircuit& cc, std::uint64_t* planes,
                      std::size_t stride);
std::size_t eval_line_batch_avx2(const CompiledCircuit& cc,
                                 const std::uint64_t* good, std::size_t stride,
                                 std::size_t n_words,
                                 const std::uint64_t* active,
                                 const CompiledCircuit::LineFault* faults,
                                 std::size_t n_faults, std::uint64_t* det,
                                 std::vector<std::uint64_t>& lane_scratch);
void eval_faulty_planes_avx2(const CompiledCircuit& cc,
                             const std::uint64_t* good,
                             const std::uint64_t* good_x, std::size_t stride,
                             std::size_t n_words, int fault_gate,
                             const gates::FaultAnalysis& fa,
                             std::uint64_t* diff, std::uint64_t* contention,
                             std::uint64_t* potential,
                             CompiledCircuit::RetainedOutput* retained,
                             std::vector<std::uint64_t>& lane_scratch);
#endif

// ---- AVX-512VL entry points (defined in compiled_circuit_avx512.cpp) ------

// Same 256-bit planes as AVX2, but eval_cell_vec collapses every gate to
// one VPTERNLOGQ; the only TU built with -mavx512f -mavx512vl.  Taken
// when the CPU reports AVX512F + AVX512VL.
#if defined(CPSINW_SIMD_AVX512)
void eval_planes_avx512(const CompiledCircuit& cc, std::uint64_t* planes,
                        std::size_t stride);
std::size_t eval_line_batch_avx512(
    const CompiledCircuit& cc, const std::uint64_t* good, std::size_t stride,
    std::size_t n_words, const std::uint64_t* active,
    const CompiledCircuit::LineFault* faults, std::size_t n_faults,
    std::uint64_t* det, std::vector<std::uint64_t>& lane_scratch);
void eval_faulty_planes_avx512(const CompiledCircuit& cc,
                               const std::uint64_t* good,
                               const std::uint64_t* good_x, std::size_t stride,
                               std::size_t n_words, int fault_gate,
                               const gates::FaultAnalysis& fa,
                               std::uint64_t* diff, std::uint64_t* contention,
                               std::uint64_t* potential,
                               CompiledCircuit::RetainedOutput* retained,
                               std::vector<std::uint64_t>& lane_scratch);
#endif

}  // namespace cpsinw::logic::kernels
