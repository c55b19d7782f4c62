#include "partition/fm_refinement.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/metrics.hpp"
#include "partition/gain_heap.hpp"
#include "partition/partitioning.hpp"

namespace ordo {

BisectionBalance bisection_balance(std::int64_t total_weight,
                                   double target_fraction, double tolerance) {
  const double total = static_cast<double>(total_weight);
  BisectionBalance balance;
  balance.min_weight0 = static_cast<std::int64_t>(
      std::floor(total * target_fraction * (1.0 - tolerance)));
  balance.max_weight0 = static_cast<std::int64_t>(
      std::ceil(total * target_fraction * (1.0 + tolerance)));
  return balance;
}

std::int64_t fm_move_gain(const Graph& g, const std::vector<index_t>& part,
                          index_t v) {
  std::int64_t external = 0, internal = 0;
  const auto neighbors = g.neighbors(v);
  const offset_t base = g.adj_ptr()[v];
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
    if (part[static_cast<std::size_t>(neighbors[k])] !=
        part[static_cast<std::size_t>(v)]) {
      external += w;
    } else {
      internal += w;
    }
  }
  return external - internal;
}

namespace {

// A gain model tells the core what a move is worth; the core owns the
// heaps, the balance window, the locks and the rollback. A model provides:
//   begin_pass(part, enqueue)     per-pass set-up (e.g. net pin counts),
//                                 then enqueue every vertex on the cut;
//   gain(part, v)                 v's gain from scratch;
//   apply_move(part, v, from, core)
//                                 after part[v] flipped, report neighbour
//                                 gain deltas (core.add_gain) and vertices
//                                 newly on the boundary (core.enqueue).

// Edge-cut gains on a graph (GP and ND). Only boundary vertices (those with a
// neighbour across the cut) are seeded; an interior vertex can only become
// worth moving after a neighbour moves, at which point apply_move enqueues
// it. This keeps a pass proportional to the cut region.
class EdgeCutModel {
 public:
  explicit EdgeCutModel(const Graph& g) : g_(g) {}

  index_t num_vertices() const { return g_.num_vertices(); }
  std::int64_t vertex_weight(index_t v) const { return g_.vertex_weight(v); }

  template <typename Enqueue>
  void begin_pass(const std::vector<index_t>& part, Enqueue&& enqueue) {
    for (index_t v = 0; v < g_.num_vertices(); ++v) {
      for (index_t u : g_.neighbors(v)) {
        if (part[static_cast<std::size_t>(u)] !=
            part[static_cast<std::size_t>(v)]) {
          enqueue(v);
          break;
        }
      }
    }
  }

  std::int64_t gain(const std::vector<index_t>& part, index_t v) const {
    return fm_move_gain(g_, part, v);
  }

  template <typename Core>
  void apply_move(const std::vector<index_t>& part, index_t v, index_t,
                  Core& core) {
    const auto neighbors = g_.neighbors(v);
    const offset_t base = g_.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (core.locked(u)) continue;
      if (!core.queued(u)) {
        core.enqueue(u);  // gain computed against the post-move state
        continue;
      }
      const std::int64_t w = g_.edge_weight(base + static_cast<offset_t>(k));
      // v moved to u's side iff their parts are now equal.
      const bool joined = part[static_cast<std::size_t>(u)] ==
                          part[static_cast<std::size_t>(v)];
      core.add_gain(u, joined ? -2 * w : 2 * w);
    }
  }

 private:
  const Graph& g_;
};

// Cut-net gains on a hypergraph (HP). pins_in_[e][p] counts net e's pins in
// part p. Gains are maintained with exact delta updates on each move: a
// net's pins are only revisited when its pin counts cross a critical value
// (0, 1 or 2 on either side), the standard FM trick that keeps a pass
// near-linear in the number of pins.
class CutNetModel {
 public:
  explicit CutNetModel(const Hypergraph& h) : h_(h) {}

  index_t num_vertices() const { return h_.num_vertices(); }
  std::int64_t vertex_weight(index_t v) const { return h_.vertex_weight(v); }

  template <typename Enqueue>
  void begin_pass(const std::vector<index_t>& part, Enqueue&& enqueue) {
    pins_in_.assign(static_cast<std::size_t>(h_.num_nets()), {0, 0});
    for (index_t e = 0; e < h_.num_nets(); ++e) {
      auto& counts = pins_in_[static_cast<std::size_t>(e)];
      for (index_t pin : h_.net_pins(e)) {
        counts[static_cast<std::size_t>(part[static_cast<std::size_t>(pin)])]++;
      }
    }
    for (index_t e = 0; e < h_.num_nets(); ++e) {
      const auto& counts = pins_in_[static_cast<std::size_t>(e)];
      if (counts[0] > 0 && counts[1] > 0) {
        for (index_t pin : h_.net_pins(e)) enqueue(pin);
      }
    }
  }

  // Cut-net gain of moving v from side s to 1-s:
  //   +w(e) for nets where v is the last pin on side s (net becomes uncut),
  //   -w(e) for nets fully on side s with >1 pins (net becomes cut).
  std::int64_t gain(const std::vector<index_t>& part, index_t v) const {
    const index_t s = part[static_cast<std::size_t>(v)];
    std::int64_t gain = 0;
    for (index_t e : h_.vertex_nets(v)) {
      const auto& counts = pins_in_[static_cast<std::size_t>(e)];
      const index_t same = counts[static_cast<std::size_t>(s)];
      const index_t other = counts[static_cast<std::size_t>(1 - s)];
      if (same == 1 && other >= 1) gain += h_.net_weight(e);
      if (other == 0 && same >= 2) gain -= h_.net_weight(e);
    }
    return gain;
  }

  template <typename Core>
  void apply_move(const std::vector<index_t>& part, index_t v, index_t from,
                  Core& core) {
    // Vertices that newly reach the boundary are enqueued only after every
    // net of v has had its counts updated, so their full gain is computed
    // against the post-move state.
    newly_boundary_.clear();
    for (index_t e : h_.vertex_nets(v)) {
      auto& counts = pins_in_[static_cast<std::size_t>(e)];
      // Pin counts *before* the move; v still counts toward `from`.
      const index_t f = counts[static_cast<std::size_t>(from)];
      const index_t t = counts[static_cast<std::size_t>(1 - from)];
      const index_t w = h_.net_weight(e);
      if (f == 1 || f == 2 || t == 0 || t == 1) {
        for (index_t u : h_.net_pins(e)) {
          if (u == v || core.locked(u)) continue;
          if (!core.queued(u)) {
            newly_boundary_.push_back(u);
            continue;
          }
          std::int64_t delta = 0;
          if (part[static_cast<std::size_t>(u)] == from) {
            if (f == 2) delta += w;  // u becomes the last `from` pin
            if (t == 0) delta += w;  // e is no longer uncut-on-`from`
          } else {
            if (f == 1) delta -= w;  // e becomes uncut-on-`to`
            if (t == 1) delta -= w;  // u is no longer the last `to` pin
          }
          if (delta != 0) core.add_gain(u, delta);
        }
      }
      counts[static_cast<std::size_t>(from)]--;
      counts[static_cast<std::size_t>(1 - from)]++;
    }
    for (index_t u : newly_boundary_) core.enqueue(u);
  }

 private:
  const Hypergraph& h_;
  std::vector<std::array<index_t, 2>> pins_in_;
  std::vector<index_t> newly_boundary_;
};

// The FM pass loop shared by every gain model. Each side keeps its unlocked,
// queued vertices in an addressable max-heap keyed by (gain, vertex). Every
// step moves the largest (gain, vertex) over both sides that the balance
// window admits: the order a single lazy std::priority_queue of
// (gain, vertex) pairs would pop them in, without its stale entries. A heap
// top the window rejects is parked off its heap and comes back once a later
// move makes it admissible; a side whose window admits no vertex weight at
// all is not popped. Parked vertices still receive gain updates, so they
// return with their current gain. See DESIGN.md §17.
template <typename Model>
class FmCore {
 public:
  FmCore(Model& model, std::vector<index_t>& part,
         const BisectionBalance& balance)
      : model_(model), part_(part), balance_(balance) {
    const index_t n = model_.num_vertices();
    gain_.resize(static_cast<std::size_t>(n));
    moves_.reserve(static_cast<std::size_t>(n));
    for (index_t v = 0; v < n; ++v) {
      const std::int64_t w = model_.vertex_weight(v);
      min_weight_ = v == 0 ? w : std::min(min_weight_, w);
      max_weight_ = v == 0 ? w : std::max(max_weight_, w);
    }
  }

  std::int64_t refine(int max_passes) {
    std::int64_t total = 0;
    std::int64_t passes = 0;
    while (passes < max_passes) {
      const std::int64_t improvement = pass();
      total += improvement;
      ++passes;
      if (improvement <= 0) break;
    }
    ORDO_COUNTER_ADD("partition.fm.passes", passes);
    ORDO_COUNTER_ADD("partition.fm.cut_improvement", total);
    return total;
  }

  // The model's view of the pass state.
  bool locked(index_t v) const { return state(v) == kLocked; }
  bool queued(index_t v) const { return state(v) != kFree; }
  void enqueue(index_t v) {
    if (state(v) != kFree) return;
    const std::int64_t gain = model_.gain(part_, v);
    gain_[static_cast<std::size_t>(v)] = gain;
    state_[static_cast<std::size_t>(v)] = kHeaped;
    heaps_[side(v)].push(v, gain);
  }
  void add_gain(index_t v, std::int64_t delta) {
    const std::int64_t gain = gain_[static_cast<std::size_t>(v)] += delta;
    if (state(v) == kHeaped) heaps_[side(v)].update(v, gain);
  }

 private:
  enum State : unsigned char { kFree, kHeaped, kParked, kLocked };

  State state(index_t v) const {
    return static_cast<State>(state_[static_cast<std::size_t>(v)]);
  }
  std::size_t side(index_t v) const {
    return static_cast<std::size_t>(part_[static_cast<std::size_t>(v)]);
  }

  // Part 0's weight after moving `weight` off side `s`.
  std::int64_t weight0_after(std::size_t s, std::int64_t weight) const {
    return s == 0 ? weight0_ - weight : weight0_ + weight;
  }
  bool admissible(std::size_t s, std::int64_t weight) const {
    const std::int64_t w0 = weight0_after(s, weight);
    return w0 >= balance_.min_weight0 && w0 <= balance_.max_weight0;
  }
  // Whether any vertex weight in [min_weight_, max_weight_] fits the window
  // when moved off side `s`. The weight0_after map is monotone in the
  // weight, so the admissible weights form an interval.
  bool side_open(std::size_t s) const {
    const std::int64_t a = weight0_after(s, min_weight_);
    const std::int64_t b = weight0_after(s, max_weight_);
    return std::max(a, b) >= balance_.min_weight0 &&
           std::min(a, b) <= balance_.max_weight0;
  }

  // (gain, vertex) order, the order the heaps pop in.
  bool ranks_below(index_t a, index_t b) const {
    const std::int64_t ga = gain_[static_cast<std::size_t>(a)];
    const std::int64_t gb = gain_[static_cast<std::size_t>(b)];
    return ga < gb || (ga == gb && a < b);
  }

  // The best admissible vertex on side `s`, or -1. Rejected tops are parked.
  index_t admissible_top(std::size_t s) {
    if (!side_open(s)) return -1;
    GainHeap<std::int64_t>& heap = heaps_[s];
    while (!heap.empty()) {
      const index_t v = heap.top();
      if (admissible(s, model_.vertex_weight(v))) return v;
      heap.pop();
      state_[static_cast<std::size_t>(v)] = kParked;
      parked_[s].push_back(v);
    }
    return -1;
  }

  // Returns every parked vertex the window now admits to its heap.
  void unpark() {
    for (std::size_t s = 0; s < 2; ++s) {
      std::vector<index_t>& parked = parked_[s];
      if (parked.empty() || !side_open(s)) continue;
      for (std::size_t i = 0; i < parked.size();) {
        const index_t v = parked[i];
        if (!admissible(s, model_.vertex_weight(v))) {
          ++i;
          continue;
        }
        state_[static_cast<std::size_t>(v)] = kHeaped;
        heaps_[s].push(v, gain_[static_cast<std::size_t>(v)]);
        parked[i] = parked.back();
        parked.pop_back();
      }
    }
  }

  // One FM pass. Returns the improvement achieved (>= 0); part_ is updated
  // to the best prefix of the move sequence.
  std::int64_t pass() {
    const index_t n = model_.num_vertices();
    state_.assign(static_cast<std::size_t>(n), kFree);
    for (auto& heap : heaps_) heap.reset(n);
    for (auto& parked : parked_) parked.clear();
    moves_.clear();

    model_.begin_pass(part_, [this](index_t v) { enqueue(v); });
    weight0_ = 0;
    for (index_t v = 0; v < n; ++v) {
      if (part_[static_cast<std::size_t>(v)] == 0) {
        weight0_ += model_.vertex_weight(v);
      }
    }

    std::int64_t cumulative = 0, best_cumulative = 0;
    std::size_t best_prefix = 0;
    // Classic FM moves every vertex once per pass; in practice all
    // improvement comes early, so a pass aborts after a long run of
    // non-improving moves.
    const std::size_t stall_limit = 64 + static_cast<std::size_t>(n) / 32;
    while (moves_.size() - best_prefix <= stall_limit) {
      const index_t top0 = admissible_top(0);
      const index_t top1 = admissible_top(1);
      if (top0 < 0 && top1 < 0) break;
      const index_t v =
          top0 < 0 || (top1 >= 0 && ranks_below(top0, top1)) ? top1 : top0;
      const std::size_t from = side(v);
      heaps_[from].pop();
      state_[static_cast<std::size_t>(v)] = kLocked;
      part_[static_cast<std::size_t>(v)] = static_cast<index_t>(1 - from);
      weight0_ = weight0_after(from, model_.vertex_weight(v));
      cumulative += gain_[static_cast<std::size_t>(v)];
      moves_.push_back(v);
      if (cumulative > best_cumulative) {
        best_cumulative = cumulative;
        best_prefix = moves_.size();
      }
      model_.apply_move(part_, v, static_cast<index_t>(from), *this);
      unpark();  // the balance shifted
    }

    // Roll back every move after the best prefix.
    for (std::size_t k = moves_.size(); k > best_prefix; --k) {
      const index_t v = moves_[k - 1];
      part_[static_cast<std::size_t>(v)] =
          1 - part_[static_cast<std::size_t>(v)];
    }
    return best_cumulative;
  }

  Model& model_;
  std::vector<index_t>& part_;
  const BisectionBalance balance_;
  std::int64_t min_weight_ = 0, max_weight_ = 0;
  std::int64_t weight0_ = 0;
  std::vector<std::int64_t> gain_;
  std::vector<unsigned char> state_;
  std::array<GainHeap<std::int64_t>, 2> heaps_;
  std::array<std::vector<index_t>, 2> parked_;
  std::vector<index_t> moves_;
};

template <typename Model>
std::int64_t refine_with(Model model, std::vector<index_t>& part,
                         const BisectionBalance& balance, int max_passes) {
  require(part.size() == static_cast<std::size_t>(model.num_vertices()),
          "fm_refine_bisection: partition size mismatch");
  return FmCore<Model>(model, part, balance).refine(max_passes);
}

}  // namespace

std::int64_t fm_refine_bisection(const Graph& g, std::vector<index_t>& part,
                                 const BisectionBalance& balance,
                                 int max_passes) {
  return refine_with(EdgeCutModel(g), part, balance, max_passes);
}

std::int64_t fm_refine_bisection(const Hypergraph& h,
                                 std::vector<index_t>& part,
                                 const BisectionBalance& balance,
                                 int max_passes) {
  return refine_with(CutNetModel(h), part, balance, max_passes);
}

}  // namespace ordo
