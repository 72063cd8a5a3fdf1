#include "pack/packer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace vpga::pack {
namespace {

using core::ConfigKind;
using core::PlbArchitecture;
using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeType;

/// True for nodes that occupy PLB component slots.
bool consumes_slots(const Netlist& nl, NodeId id) {
  const auto& n = nl.node(id);
  if (n.type == NodeType::kDff) return true;
  return n.type == NodeType::kComb && n.has_config();
}

/// True for nodes that live in a tile but use no slots (PLB input buffers).
bool is_free_rider(const Netlist& nl, NodeId id) {
  const auto& n = nl.node(id);
  return n.type == NodeType::kComb && !n.has_config();
}

ConfigKind config_of(const Netlist& nl, NodeId id) {
  const auto& n = nl.node(id);
  if (n.type == NodeType::kDff) return ConfigKind::kFf;
  return static_cast<ConfigKind>(n.config_tag);
}

/// An atomic packing unit: a single configuration node, or a multi-output
/// macro (full adder) whose members must land in the same tile and share the
/// representative's one combined configuration.
struct Group {
  std::uint32_t rep = 0;
  ConfigKind config{};
};

constexpr int kNoGroup = -1;

/// The packing groups in order of first member, and the group of every node
/// (kNoGroup for nodes that use no slots).
struct Grouping {
  std::vector<Group> groups;
  std::vector<int> group_of_node;
};

Grouping build_groups(const Netlist& nl) {
  Grouping out;
  out.group_of_node.assign(nl.num_nodes(), kNoGroup);
  // Reps are node ids, so a dense index beats a hash map in the packer's
  // hottest entry path.
  std::vector<int> index_of_rep(nl.num_nodes(), kNoGroup);
  for (NodeId id : nl.all_nodes()) {
    if (!consumes_slots(nl, id)) continue;
    const auto& n = nl.node(id);
    const std::uint32_t rep = n.in_macro() ? n.macro_rep.value() : id.value();
    int& slot = index_of_rep[rep];
    if (slot == kNoGroup) {
      slot = static_cast<int>(out.groups.size());
      out.groups.push_back(Group{rep, config_of(nl, NodeId(rep))});
    }
    out.group_of_node[id.index()] = slot;
  }
  return out;
}

/// Interned tile contents. Whether a configuration fits a tile depends only
/// on the multiset of configurations already in it, so each distinct
/// multiset the packer meets gets a small state id, and the exact
/// fits_in_one_plb model is asked about each multiset at most once. Tiles in
/// the same state are interchangeable.
class TileStates {
 public:
  using Counts = std::array<int, core::kNumConfigKinds>;
  static constexpr int kEmpty = 0;
  static constexpr int kNoFit = -1;

  explicit TileStates(const PlbArchitecture& arch) : arch_(arch) {
    ids_.emplace(Counts{}, kEmpty);
    add_state(Counts{});
  }

  /// The state of a `state` tile after adding `k`, or kNoFit.
  int next(int state, ConfigKind k) {
    const auto ki = static_cast<std::size_t>(k);
    if (const int known = next_[static_cast<std::size_t>(state)][ki]; known != kUnknown)
      return known;
    Counts grown = counts_[static_cast<std::size_t>(state)];
    ++grown[ki];
    // Different (state, kind) pairs can reach one multiset: ask about it once.
    const auto [it, fresh] = ids_.try_emplace(grown, kNoFit);
    if (fresh && fits(grown)) it->second = add_state(grown);
    const int to = it->second;
    auto& from_next = next_[static_cast<std::size_t>(state)];  // after add_state: it may reallocate
    from_next[ki] = to;
    if (to != kNoFit) {
      // What does not fit this tile does not fit it with more in it either
      // (fits_in_one_plb is monotone), so `to` inherits those answers.
      auto& to_next = next_[static_cast<std::size_t>(to)];
      for (std::size_t j = 0; j < to_next.size(); ++j)
        if (from_next[j] == kNoFit) to_next[j] = kNoFit;
    }
    return to;
  }
  /// How many of each ConfigKind a `state` tile holds.
  [[nodiscard]] const Counts& counts(int state) const {
    return counts_[static_cast<std::size_t>(state)];
  }
  [[nodiscard]] int size() const { return static_cast<int>(counts_.size()); }

 private:
  static constexpr int kUnknown = -2;

  bool fits(const Counts& c) const {
    std::vector<ConfigKind> contents;
    for (std::size_t k = 0; k < c.size(); ++k)
      contents.insert(contents.end(), static_cast<std::size_t>(c[k]), static_cast<ConfigKind>(k));
    return core::fits_in_one_plb(arch_, contents);
  }

  int add_state(const Counts& c) {
    counts_.push_back(c);
    next_.emplace_back().fill(kUnknown);
    return size() - 1;
  }

  const PlbArchitecture& arch_;
  std::vector<Counts> counts_;
  std::vector<std::array<int, core::kNumConfigKinds>> next_;
  std::map<Counts, int> ids_;  // every multiset asked about: its state, or kNoFit
};

/// First-fit bin packing in group order: each group joins the lowest-index
/// open tile it fits, else opens a tile. Open tiles sit in per-state buckets
/// ordered by tile index, so the first fitting tile is the lowest bucket
/// front over the states whose transition on the group's configuration is
/// legal — the same tile a linear scan over all open tiles picks.
int first_fit_tile_count(const std::vector<Group>& groups, TileStates& states) {
  struct Bucket {
    std::vector<int> tiles;  // ascending; tiles[0, head) have left the state
    std::size_t head = 0;
  };
  constexpr int kNone = std::numeric_limits<int>::max();
  std::vector<Bucket> open;
  std::vector<int> front;  // per state: its lowest open tile, or kNone
  // States in the order they first held a tile; per kind, how many of them
  // were checked so far and which of those take the kind.
  std::vector<int> occupied;
  occupied.reserve(groups.size());  // each group occupies at most one new state
  std::array<std::size_t, core::kNumConfigKinds> checked{};
  std::array<std::vector<int>, core::kNumConfigKinds> accepting;
  int tiles = 0;
  for (const auto& g : groups) {
    const auto k = static_cast<std::size_t>(g.config);
    for (; checked[k] < occupied.size(); ++checked[k])
      if (const int s = occupied[checked[k]]; states.next(s, g.config) != TileStates::kNoFit)
        accepting[k].push_back(s);
    int from = TileStates::kEmpty;
    int tile = tiles;  // default: open a new tile
    for (const int s : accepting[k])
      if (front[static_cast<std::size_t>(s)] < tile) {
        from = s;
        tile = front[static_cast<std::size_t>(s)];
      }
    if (tile == tiles) {
      ++tiles;
    } else {
      Bucket& b = open[static_cast<std::size_t>(from)];
      ++b.head;
      front[static_cast<std::size_t>(from)] = b.head < b.tiles.size() ? b.tiles[b.head] : kNone;
    }
    // A configuration that does not fit even an empty tile still opens one,
    // which nothing else can join (fits_in_one_plb is monotone).
    const int to = states.next(from, g.config);
    if (to == TileStates::kNoFit) continue;
    open.resize(static_cast<std::size_t>(states.size()));
    front.resize(static_cast<std::size_t>(states.size()), kNone);
    Bucket& b = open[static_cast<std::size_t>(to)];
    if (b.tiles.empty()) occupied.push_back(to);
    if (b.tiles.empty() || b.tiles.back() < tile)
      b.tiles.push_back(tile);  // the usual case: tiles mostly arrive in index order
    else
      b.tiles.insert(std::upper_bound(b.tiles.begin() + static_cast<std::ptrdiff_t>(b.head),
                                      b.tiles.end(), tile),
                     tile);
    front[static_cast<std::size_t>(to)] = b.tiles[b.head];
  }
  return tiles;
}

/// Per-class demand tally. ComponentClass is a bitmask over the
/// kNumPlbComponents component kinds, so every possible class fits in a flat
/// array of 2^kNumPlbComponents counters — trivially copyable and walked
/// without node churn inside the Hall subset loop.
using DemandTally = std::array<int, std::size_t{1} << core::kNumPlbComponents>;

/// Hall-condition feasibility of a demand multiset against `tiles` copies of
/// the architecture's slots (necessary aggregate condition used to balance
/// quadrants; per-tile grouping is enforced later by fits_in_one_plb).
bool hall_feasible(const PlbArchitecture& arch, int tiles, const DemandTally& demand) {
  for (unsigned subset = 0; subset < (1u << core::kNumPlbComponents); ++subset) {
    int cap = 0;
    for (int c = 0; c < core::kNumPlbComponents; ++c)
      if (subset & (1u << c)) cap += tiles * arch.component_count[static_cast<std::size_t>(c)];
    int need = 0;
    for (unsigned mask = 0; mask < demand.size(); ++mask)
      if ((mask & ~subset) == 0) need += demand[mask];
    if (need > cap) return false;
  }
  return true;
}

void add_demand(DemandTally& d, const Group& g) {
  for (auto cls : core::config_spec(g.config).needs) ++d[cls];
}

}  // namespace

int first_fit_tile_count(const Netlist& nl, const PlbArchitecture& arch) {
  TileStates states(arch);
  return first_fit_tile_count(build_groups(nl).groups, states);
}

PackedDesign pack(const Netlist& nl, const place::Placement& placed,
                  const PlbArchitecture& arch, const PackOptions& opts) {
  PackedDesign out;
  out.tile_size_um = std::sqrt(arch.tile_area_um2);
  out.legal = placed;
  out.tile_of_node.assign(nl.num_nodes(), -1);

  const Grouping grouping = build_groups(nl);
  const std::vector<Group>& groups = grouping.groups;
  const std::vector<int>& group_of_node = grouping.group_of_node;
  obs::count("pack.groups", static_cast<long long>(groups.size()));

  TileStates states(arch);
  int lower_bound = 0;
  {
    const obs::Span bound_span("pack.lower_bound");
    lower_bound = std::max(1, first_fit_tile_count(groups, states));
  }
  int target_tiles = std::max(
      1, static_cast<int>(std::ceil(static_cast<double>(lower_bound) * opts.initial_margin)));

  // A group is as critical as its most critical member.
  std::vector<double> criticality(groups.size(), 0.0);
  if (!opts.criticality.empty())
    for (std::size_t v = 0; v < group_of_node.size(); ++v)
      if (const int g = group_of_node[v]; g != kNoGroup)
        criticality[static_cast<std::size_t>(g)] =
            std::max(criticality[static_cast<std::size_t>(g)], opts.criticality[v]);

  // Scratch reused across grow attempts: the grid dimensions change per
  // attempt but the heap capacity carries over.
  std::vector<int> tile_state;  // TileStates id per tile
  std::vector<int> tile_of;     // tile per group
  for (;; target_tiles = std::max(target_tiles + 1,
                                  static_cast<int>(target_tiles * 1.06)),
          ++out.grow_attempts) {
    const obs::Span attempt_span("pack.attempt");
    const int gw = std::max(1, static_cast<int>(std::ceil(std::sqrt(target_tiles))));
    const int gh = (target_tiles + gw - 1) / gw;
    tile_state.assign(static_cast<std::size_t>(gw) * gh, TileStates::kEmpty);
    tile_of.assign(groups.size(), -1);

    // Map placed coordinates onto the tile grid (group position = its rep's).
    const double sx = placed.width_um > 0 ? gw / placed.width_um : 1.0;
    const double sy = placed.height_um > 0 ? gh / placed.height_um : 1.0;
    auto tile_x = [&](const Group& g) {
      return std::clamp(static_cast<int>(placed.pos[g.rep].x * sx), 0, gw - 1);
    };
    auto tile_y = [&](const Group& g) {
      return std::clamp(static_cast<int>(placed.pos[g.rep].y * sy), 0, gh - 1);
    };

    // --- recursive quadrisection: region assignment balancing supply/demand.
    // Each region is a tile rectangle plus the groups currently assigned to
    // it; when a quadrant's demand violates the Hall condition against its
    // slot supply, its least-critical groups spill to the sibling with slack.
    struct Region {
      int x0, y0, w, h;
      std::vector<std::size_t> items;  // indices into `groups`
    };
    std::vector<Region> leaves;
    auto quadrisect = [&](auto&& self, Region r) -> void {
      if (r.w <= 1 && r.h <= 1) {
        leaves.push_back(std::move(r));
        return;
      }
      const int wl = std::max(1, r.w / 2), hl = std::max(1, r.h / 2);
      Region quad[4];
      const int splits_x = r.w > 1 ? 2 : 1;
      const int splits_y = r.h > 1 ? 2 : 1;
      int nq = 0;
      for (int qy = 0; qy < splits_y; ++qy)
        for (int qx = 0; qx < splits_x; ++qx) {
          quad[nq].x0 = r.x0 + qx * wl;
          quad[nq].y0 = r.y0 + qy * hl;
          quad[nq].w = qx == splits_x - 1 ? r.w - qx * wl : wl;
          quad[nq].h = qy == splits_y - 1 ? r.h - qy * hl : hl;
          ++nq;
        }
      auto quadrant_of = [&](std::size_t gi) {
        const int tx = tile_x(groups[gi]), ty = tile_y(groups[gi]);
        for (int q = 0; q < nq; ++q)
          if (tx >= quad[q].x0 && tx < quad[q].x0 + quad[q].w && ty >= quad[q].y0 &&
              ty < quad[q].y0 + quad[q].h)
            return q;
        return 0;
      };
      DemandTally demand[4]{};
      for (auto gi : r.items) {
        const int q = quadrant_of(gi);
        quad[q].items.push_back(gi);
        add_demand(demand[q], groups[gi]);
      }
      // Rebalance: spill least-critical groups from infeasible quadrants.
      for (int q = 0; q < nq; ++q) {
        auto& src = quad[q];
        std::sort(src.items.begin(), src.items.end(), [&](std::size_t a, std::size_t b) {
          return criticality[a] > criticality[b];
        });
        while (!src.items.empty() &&
               !hall_feasible(arch, src.w * src.h, demand[q])) {
          const auto gi = src.items.back();
          src.items.pop_back();
          for (auto cls : core::config_spec(groups[gi].config).needs) --demand[q][cls];
          // Receiver: the sibling with the most slack that stays feasible.
          int best = -1;
          int best_slack = -1;
          for (int q2 = 0; q2 < nq; ++q2) {
            if (q2 == q) continue;
            auto d2 = demand[q2];
            add_demand(d2, groups[gi]);
            if (!hall_feasible(arch, quad[q2].w * quad[q2].h, d2)) continue;
            int cap = 0, used = 0;
            for (int c = 0; c < core::kNumPlbComponents; ++c)
              cap += quad[q2].w * quad[q2].h * arch.component_count[static_cast<std::size_t>(c)];
            for (int count : d2) used += count;
            if (cap - used > best_slack) {
              best_slack = cap - used;
              best = q2;
            }
          }
          if (best < 0) {  // parent region too tight: keep and let spiral fix
            src.items.push_back(gi);
            add_demand(demand[q], groups[gi]);
            break;
          }
          quad[best].items.push_back(gi);
          add_demand(demand[best], groups[gi]);
        }
      }
      for (int q = 0; q < nq; ++q) self(self, std::move(quad[q]));
    };
    Region root{0, 0, gw, gh, {}};
    root.items.resize(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) root.items[i] = i;
    {
      const obs::Span quad_span("pack.quadrisect");
      quadrisect(quadrisect, std::move(root));
    }

    // --- leaf filling + spiral relocation for overflow -----------------------
    bool ok = true;
    auto try_place = [&](std::size_t gi, int tx, int ty) {
      int& state = tile_state[static_cast<std::size_t>(ty) * gw + tx];
      const int to = states.next(state, groups[gi].config);
      if (to == TileStates::kNoFit) return false;
      state = to;
      tile_of[gi] = ty * gw + tx;
      return true;
    };
    // Two-phase fill, wide footprints first: a full-adder macro needs a
    // completely free tile, so all macros claim tiles (leaf position, then
    // nearest-available spiral) before single configurations trickle in —
    // otherwise stranded macros force array growth.
    auto footprint = [&](std::size_t gi) {
      return core::config_spec(groups[gi].config).needs.size();
    };
    // Rings of growing radius around the group's tile, each walked row by
    // row: the full top row, the two side cells of each middle row, then the
    // full bottom row.
    auto spiral_place = [&](std::size_t gi) {
      const int cx = tile_x(groups[gi]), cy = tile_y(groups[gi]);
      auto try_at = [&](int dx, int dy) {
        const int tx = cx + dx, ty = cy + dy;
        return tx >= 0 && ty >= 0 && tx < gw && ty < gh && try_place(gi, tx, ty);
      };
      if (try_at(0, 0)) return true;
      for (int radius = 1; radius < gw + gh; ++radius) {
        for (int dx = -radius; dx <= radius; ++dx)
          if (try_at(dx, -radius)) return true;
        for (int dy = -radius + 1; dy < radius; ++dy)
          if (try_at(-radius, dy) || try_at(radius, dy)) return true;
        for (int dx = -radius; dx <= radius; ++dx)
          if (try_at(dx, radius)) return true;
      }
      return false;
    };
    constexpr std::size_t kBigFootprint = 3;  // >= XOANDMX / FA class
    {
      const obs::Span fill_span("pack.fill");
      std::vector<std::size_t> overflow;
      overflow.reserve(groups.size());  // worst case: nothing fits its leaf
      for (const bool big_phase : {true, false}) {
        overflow.clear();
        for (const auto& leaf : leaves)
          for (auto gi : leaf.items) {
            if ((footprint(gi) >= kBigFootprint) != big_phase) continue;
            if (!try_place(gi, leaf.x0, leaf.y0)) overflow.push_back(gi);
          }
        std::sort(overflow.begin(), overflow.end(), [&](std::size_t a, std::size_t b) {
          if (footprint(a) != footprint(b)) return footprint(a) > footprint(b);
          return criticality[a] > criticality[b];
        });
        obs::count("pack.spiral_relocations", static_cast<long long>(overflow.size()));
        for (auto gi : overflow)
          if (!spiral_place(gi)) { ok = false; break; }
        if (!ok) break;
      }
    }
    if (!ok) continue;  // grow the array and retry

    // --- success: finalize ----------------------------------------------------
    out.grid_w = gw;
    out.grid_h = gh;
    for (std::size_t v = 0; v < group_of_node.size(); ++v)
      if (const int g = group_of_node[v]; g != kNoGroup)
        out.tile_of_node[v] = tile_of[static_cast<std::size_t>(g)];
    out.die_area_um2 = static_cast<double>(gw) * gh * arch.tile_area_um2;
    // Legalized positions: tile centers; I/O scaled onto the new die.
    out.legal.width_um = gw * out.tile_size_um;
    out.legal.height_um = gh * out.tile_size_um;
    const double ix = placed.width_um > 0 ? out.legal.width_um / placed.width_um : 1.0;
    const double iy = placed.height_um > 0 ? out.legal.height_um / placed.height_um : 1.0;
    for (NodeId id : nl.all_nodes()) {
      out.legal.pos[id.index()] = {placed.pos[id.index()].x * ix,
                                   placed.pos[id.index()].y * iy};
    }
    double total_disp = 0.0, max_disp = 0.0;
    for (NodeId id : nl.all_nodes()) {
      const int t = out.tile_of_node[id.index()];
      if (t < 0) continue;
      const place::Point center = {(t % gw + 0.5) * out.tile_size_um,
                                   (t / gw + 0.5) * out.tile_size_um};
      const double dx = center.x - out.legal.pos[id.index()].x;
      const double dy = center.y - out.legal.pos[id.index()].y;
      const double d = std::sqrt(dx * dx + dy * dy);
      obs::observe("pack.displacement_um", d);
      total_disp += d;
      max_disp = std::max(max_disp, d);
      out.legal.pos[id.index()] = center;
    }
    out.total_displacement_um = total_disp;
    out.max_displacement_um = max_disp;
    // Free riders (input buffers/inverters) ride in their driver's tile when
    // possible, else stay put (they consume no slots).
    for (NodeId id : nl.all_nodes()) {
      if (!is_free_rider(nl, id)) continue;
      const auto& n = nl.node(id);
      if (n.num_fanins() > 0 && nl.fanin(id, 0).valid()) {
        const int t = out.tile_of_node[nl.fanin(id, 0).index()];
        if (t >= 0) {
          out.tile_of_node[id.index()] = t;
          out.legal.pos[id.index()] = {(t % gw + 0.5) * out.tile_size_um,
                                       (t / gw + 0.5) * out.tile_size_um};
        }
      }
    }
    int used = 0;
    std::array<int, core::kNumPlbComponents> slots_used{};
    for (const int state : tile_state) {
      if (state == TileStates::kEmpty) continue;
      ++used;
      const auto& counts = states.counts(state);
      for (std::size_t k = 0; k < counts.size(); ++k)
        for (auto cls : core::config_spec(static_cast<ConfigKind>(k)).needs)
          for (int c = 0; c < core::kNumPlbComponents; ++c)
            if (core::class_accepts(cls, static_cast<core::PlbComponent>(c))) {
              // Attribution for the report only: count against the first
              // accepting component kind.
              slots_used[static_cast<std::size_t>(c)] += counts[k];
              break;
            }
    }
    out.plbs_used = used;
    obs::count("pack.grow_attempts", out.grow_attempts);
    for (int c = 0; c < core::kNumPlbComponents; ++c) {
      const int cap = used * arch.component_count[static_cast<std::size_t>(c)];
      out.slot_utilization[static_cast<std::size_t>(c)] =
          cap > 0 ? static_cast<double>(slots_used[static_cast<std::size_t>(c)]) / cap : 0.0;
    }
    return out;
  }
}

}  // namespace vpga::pack
