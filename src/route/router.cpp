#include "route/router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace vpga::route {
namespace {

using netlist::Netlist;
using netlist::NodeId;

/// Least usage over the edges crossing one grid boundary, and how many of
/// them carry it.
struct CutMin {
  int usage = 0;
  int count = 0;
};

/// Edge-usage grid: horizontal edges (x,y)->(x+1,y) and vertical edges.
/// Writes go through bump(), which also keeps the least usage across each
/// column boundary (the horizontal edges between x and x+1) and each row
/// boundary exact for the maze search's cut bound; a boundary is rescanned
/// only when the last of its least-used edges gains a track.
struct UsageGrid {
  int w, h;
  std::vector<int> horiz;  // (w-1) * h
  std::vector<int> vert;   // w * (h-1)
  std::vector<CutMin> col_min;  // w-1 column boundaries
  std::vector<CutMin> row_min;  // h-1 row boundaries

  UsageGrid(int w_, int h_)
      : w(w_), h(h_), horiz(static_cast<std::size_t>(std::max(0, w - 1)) * h, 0),
        vert(static_cast<std::size_t>(w) * std::max(0, h - 1), 0),
        col_min(static_cast<std::size_t>(std::max(0, w - 1)), CutMin{0, h}),
        row_min(static_cast<std::size_t>(std::max(0, h - 1)), CutMin{0, w}) {}

  int h_edge(int x, int y) const { return horiz[static_cast<std::size_t>(y) * (w - 1) + x]; }
  int v_edge(int x, int y) const { return vert[static_cast<std::size_t>(y) * w + x]; }

  /// Adds `delta` tracks to the horizontal edge (x,y)->(x+1,y) or the
  /// vertical edge (x,y)->(x,y+1).
  void bump(bool horizontal, int x, int y, int delta) {
    if (horizontal) {
      const int after = horiz[static_cast<std::size_t>(y) * (w - 1) + x] += delta;
      CutMin& m = col_min[static_cast<std::size_t>(x)];
      if (!track(m, after - delta, after)) return;
      m = {h_edge(x, 0), 0};
      for (int k = 0; k < h; ++k) add(m, h_edge(x, k));
    } else {
      const int after = vert[static_cast<std::size_t>(y) * w + x] += delta;
      CutMin& m = row_min[static_cast<std::size_t>(y)];
      if (!track(m, after - delta, after)) return;
      m = {v_edge(0, y), 0};
      for (int k = 0; k < w; ++k) add(m, v_edge(k, y));
    }
  }

 private:
  /// Updates `m` for one edge moving from `before` to `after`; true when
  /// the boundary must be rescanned (its last least-used edge went up).
  static bool track(CutMin& m, int before, int after) {
    if (after < m.usage) {
      m = {after, 1};
    } else if (after == m.usage) {
      ++m.count;
    } else if (before == m.usage) {
      return --m.count == 0;
    }
    return false;
  }
  static void add(CutMin& m, int usage) {
    if (usage < m.usage) m = {usage, 0};
    if (usage == m.usage) ++m.count;
  }
};

struct TwoPin {
  std::uint32_t driver;
  int x0, y0, x1, y1;
};

/// Calls `edge(horizontal, x, y)` for each grid edge of an L-route
/// (x-first or y-first), naming an edge by its lower-left cell.
template <class Edge>
void for_each_l_edge(const TwoPin& c, bool x_first, Edge&& edge) {
  auto seg_h = [&](int xa, int xb, int y) {
    for (int x = std::min(xa, xb); x < std::max(xa, xb); ++x) edge(true, x, y);
  };
  auto seg_v = [&](int ya, int yb, int x) {
    for (int y = std::min(ya, yb); y < std::max(ya, yb); ++y) edge(false, x, y);
  };
  if (x_first) {
    seg_h(c.x0, c.x1, c.y0);
    seg_v(c.y0, c.y1, c.x1);
  } else {
    seg_v(c.y0, c.y1, c.x0);
    seg_h(c.x0, c.x1, c.y1);
  }
}

/// Applies an L-route to the usage grid (delta = +1 or -1).
void walk_l(UsageGrid& g, const TwoPin& c, bool x_first, int delta) {
  for_each_l_edge(c, x_first,
                  [&](bool horizontal, int x, int y) { g.bump(horizontal, x, y, delta); });
}

/// The max usage an L-route would see (for orientation choice).
int probe_l(const UsageGrid& g, const TwoPin& c, bool x_first) {
  int peak = 0;
  for_each_l_edge(c, x_first, [&](bool horizontal, int x, int y) {
    peak = std::max(peak, horizontal ? g.h_edge(x, y) : g.v_edge(x, y));
  });
  return peak;
}

/// Cost of taking one more track on an edge: 1 + quadratic penalty above
/// capacity. Always a whole number, so path costs compare exactly.
std::int64_t edge_cost(int usage, int capacity) {
  const std::int64_t over = usage + 1 - capacity;
  return 1 + (over > 0 ? 4 * over * over : 0);
}

/// Monotone min-queue of (key, cell) pairs with non-negative keys: a radix
/// heap. Popped keys never decrease, so an entry waits in the bucket of the
/// highest bit in which its key differs from the last key popped.
class RadixHeap {
 public:
  using Entry = std::pair<std::uint64_t, int>;

  void clear() {
    for (auto& b : buckets_) b.clear();
    last_ = 0;
    size_ = 0;
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void push(std::int64_t key, int cell) {
    const auto k = static_cast<std::uint64_t>(key);
    buckets_[bucket(k)].emplace_back(k, cell);
    ++size_;
  }
  /// Removes an entry with the least key; returns (key, cell).
  std::pair<std::int64_t, int> pop() {
    if (buckets_[0].empty()) {
      std::size_t i = 1;
      while (buckets_[i].empty()) ++i;
      auto& from = buckets_[i];
      last_ = std::min_element(from.begin(), from.end())->first;
      for (const auto& e : from) buckets_[bucket(e.first)].push_back(e);
      from.clear();
    }
    const Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return {static_cast<std::int64_t>(e.first), e.second};
  }

 private:
  [[nodiscard]] std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>(std::bit_width(key ^ last_));
  }
  std::array<std::vector<Entry>, 65> buckets_;
  std::uint64_t last_ = 0;
  std::size_t size_ = 0;
};

/// Congestion-aware maze router for connections the L-shapes cannot place
/// without overflow. One instance serves every repair of a route() call and
/// keeps its per-cell scratch across searches, invalidated by epoch stamps.
///
/// The search is A* under a cut bound: a path from a cell to the sink must
/// cross every column boundary between them at least once, and each
/// crossing costs at least the cheapest horizontal edge across that
/// boundary; likewise for rows and vertical edges. Prefix sums over the
/// per-boundary minima give h(v) in O(1). Each step crosses exactly one
/// boundary, so h is admissible and consistent.
///
/// The returned path is the one a plain Dijkstra popping (cost, cell index)
/// in lexicographic order records through strict-improvement predecessors:
/// walking back from the sink, each cell's predecessor is its tight
/// neighbour (g[p] + c(p,v) == g[v]) with the least (g, index). The search
/// therefore settles every cell with f <= f* before stopping, so that every
/// tight neighbour along every optimal path has its exact g.
class MazeRouter {
 public:
  MazeRouter(int w, int h, int capacity)
      : w_(w), h_(h), capacity_(capacity), g_(static_cast<std::size_t>(w) * h),
        stamp_(static_cast<std::size_t>(w) * h, 0),
        col_prefix_(static_cast<std::size_t>(w), 0), row_prefix_(static_cast<std::size_t>(h), 0) {}

  /// Routes `c` on `grid`, applies its usage and returns its length in
  /// edges (-1 if the sink is unreachable).
  int route(UsageGrid& grid, const TwoPin& c);

  [[nodiscard]] long long settled() const { return settled_; }

 private:
  void refresh_bounds(const UsageGrid& grid);
  [[nodiscard]] bool reached(int v) const { return stamp_[static_cast<std::size_t>(v)] == epoch_; }

  int w_, h_, capacity_;
  std::vector<std::int64_t> g_;       // cost from the source, valid where reached
  std::vector<std::uint32_t> stamp_;  // epoch of the search that last reached the cell
  std::uint32_t epoch_ = 0;
  RadixHeap heap_;  // (f, cell)
  std::vector<std::int64_t> col_prefix_, row_prefix_;
  long long settled_ = 0;
};

void MazeRouter::refresh_bounds(const UsageGrid& grid) {
  for (int x = 0; x + 1 < w_; ++x)
    col_prefix_[static_cast<std::size_t>(x) + 1] =
        col_prefix_[static_cast<std::size_t>(x)] +
        edge_cost(grid.col_min[static_cast<std::size_t>(x)].usage, capacity_);
  for (int y = 0; y + 1 < h_; ++y)
    row_prefix_[static_cast<std::size_t>(y) + 1] =
        row_prefix_[static_cast<std::size_t>(y)] +
        edge_cost(grid.row_min[static_cast<std::size_t>(y)].usage, capacity_);
}

int MazeRouter::route(UsageGrid& grid, const TwoPin& c) {
  refresh_bounds(grid);
  ++epoch_;
  const int src = c.y0 * w_ + c.x0, dst = c.y1 * w_ + c.x1;
  const auto g = [&](int v) -> std::int64_t& { return g_[static_cast<std::size_t>(v)]; };
  // Cost of the edge between cell v and its neighbour k (0..3: +x -x +y -y).
  const auto step_cost = [&](int x, int y, int k) {
    switch (k) {
      case 0: return edge_cost(grid.h_edge(x, y), capacity_);
      case 1: return edge_cost(grid.h_edge(x - 1, y), capacity_);
      case 2: return edge_cost(grid.v_edge(x, y), capacity_);
      default: return edge_cost(grid.v_edge(x, y - 1), capacity_);
    }
  };
  const int dx[4] = {1, -1, 0, 0}, dy[4] = {0, 0, 1, -1};
  const auto in_grid = [&](int x, int y) { return x >= 0 && y >= 0 && x < w_ && y < h_; };

  // h(v): the cut bound's cost from v's column and row to the sink's.
  const std::int64_t sink_col = col_prefix_[static_cast<std::size_t>(c.x1)];
  const std::int64_t sink_row = row_prefix_[static_cast<std::size_t>(c.y1)];
  const auto h = [&](int x, int y) {
    return std::abs(col_prefix_[static_cast<std::size_t>(x)] - sink_col) +
           std::abs(row_prefix_[static_cast<std::size_t>(y)] - sink_row);
  };
  std::int64_t sink_g = std::numeric_limits<std::int64_t>::max();  // g(dst) once reached

  heap_.clear();
  g(src) = 0;
  stamp_[static_cast<std::size_t>(src)] = epoch_;
  heap_.push(h(c.x0, c.y0), src);
  while (!heap_.empty()) {
    const auto [f, v] = heap_.pop();
    if (f > sink_g) break;  // every cell with f <= f* is settled
    const int y = v / w_, x = v - y * w_;
    const std::int64_t gv = g(v);
    if (f != gv + h(x, y)) continue;  // superseded entry
    ++settled_;
    for (int k = 0; k < 4; ++k) {
      const int nx = x + dx[k], ny = y + dy[k];
      if (!in_grid(nx, ny)) continue;
      const int u = ny * w_ + nx;
      const std::int64_t nd = gv + step_cost(x, y, k);
      if (reached(u) && nd >= g(u)) continue;
      g(u) = nd;
      stamp_[static_cast<std::size_t>(u)] = epoch_;
      if (u == dst) sink_g = nd;
      const std::int64_t nf = nd + h(nx, ny);
      if (nf > sink_g) continue;  // can never be settled
      heap_.push(nf, u);
    }
  }
  if (!reached(dst)) return -1;
  // Walk back along the least (g, index) tight predecessor, applying usage.
  // Bumping the edge just taken cannot change a later choice: its far end
  // has a larger g than any predecessor still to be chosen.
  int edges = 0;
  for (int v = dst; v != src; ++edges) {
    const int x = v % w_, y = v / w_;
    int pred = -1, pred_k = 0;
    for (int k = 0; k < 4; ++k) {
      const int px = x + dx[k], py = y + dy[k];
      if (!in_grid(px, py)) continue;
      const int p = py * w_ + px;
      if (!reached(p) || g(p) + step_cost(x, y, k) != g(v)) continue;
      if (pred < 0 || g(p) < g(pred) || (g(p) == g(pred) && p < pred)) {
        pred = p;
        pred_k = k;
      }
    }
    VPGA_ASSERT(pred >= 0);
    grid.bump(dy[pred_k] == 0, std::min(x, x + dx[pred_k]), std::min(y, y + dy[pred_k]), +1);
    v = pred;
  }
  return edges;
}

}  // namespace

RoutingResult route(const Netlist& nl, const place::Placement& placed, double tile_um,
                    const RouterOptions& opts) {
  RoutingResult r;
  VPGA_ASSERT(tile_um > 0.0);
  r.tile_um = tile_um;
  r.grid_w = std::max(2, static_cast<int>(std::ceil(placed.width_um / tile_um)) + 1);
  r.grid_h = std::max(2, static_cast<int>(std::ceil(placed.height_um / tile_um)) + 1);
  r.net_length_um.assign(nl.num_nodes(), 0.0);

  auto gx = [&](double x) { return std::clamp(static_cast<int>(x / tile_um), 0, r.grid_w - 1); };
  auto gy = [&](double y) { return std::clamp(static_cast<int>(y / tile_um), 0, r.grid_h - 1); };

  // Net decomposition: minimum spanning tree over {driver, sinks} (Prim,
  // Manhattan metric) — close to a Steiner topology for the small post-
  // buffering fanouts and far shorter than a star for multi-sink nets.
  std::optional<obs::Span> decompose_span(std::in_place, "route.decompose");
  std::vector<std::vector<std::uint32_t>> sinks(nl.num_nodes());
  for (NodeId id : nl.all_nodes()) {
    for (NodeId fi : nl.fanins(id))
      if (fi.valid()) sinks[fi.index()].push_back(id.value());
  }
  std::vector<TwoPin> pins;
  std::size_t total_sinks = 0;
  for (const auto& net : sinks) total_sinks += net.size();
  pins.reserve(total_sinks);  // one two-pin connection per MST edge
  // Per-net Prim scratch, hoisted out of the net loop and sized for the
  // largest terminal set up front.
  std::size_t max_terms = 0;
  for (const auto& net : sinks) max_terms = std::max(max_terms, net.size() + 1);
  std::vector<std::pair<int, int>> pts;
  pts.reserve(max_terms);
  std::vector<char> in_tree;
  std::vector<int> best_dist, best_from;
  for (NodeId id : nl.all_nodes()) {
    const auto& net = sinks[id.index()];
    if (net.empty()) continue;
    // Terminal grid coordinates: driver first.
    pts.clear();
    pts.emplace_back(gx(placed.pos[id.index()].x), gy(placed.pos[id.index()].y));
    for (auto s : net) pts.emplace_back(gx(placed.pos[s].x), gy(placed.pos[s].y));
    // Prim's MST from the driver.
    in_tree.assign(pts.size(), 0);
    best_dist.assign(pts.size(), 1 << 29);
    best_from.assign(pts.size(), 0);
    in_tree[0] = 1;
    for (std::size_t k = 0; k < pts.size(); ++k) {
      if (!in_tree[k]) {
        best_dist[k] = std::abs(pts[k].first - pts[0].first) +
                       std::abs(pts[k].second - pts[0].second);
      }
    }
    for (std::size_t added = 1; added < pts.size(); ++added) {
      std::size_t pick = 0;
      int pick_dist = 1 << 30;
      for (std::size_t k = 1; k < pts.size(); ++k)
        if (!in_tree[k] && best_dist[k] < pick_dist) {
          pick = k;
          pick_dist = best_dist[k];
        }
      in_tree[pick] = 1;
      TwoPin c;
      c.driver = id.value();
      c.x0 = pts[static_cast<std::size_t>(best_from[pick])].first;
      c.y0 = pts[static_cast<std::size_t>(best_from[pick])].second;
      c.x1 = pts[pick].first;
      c.y1 = pts[pick].second;
      pins.push_back(c);
      for (std::size_t k = 1; k < pts.size(); ++k) {
        if (in_tree[k]) continue;
        const int d = std::abs(pts[k].first - pts[pick].first) +
                      std::abs(pts[k].second - pts[pick].second);
        if (d < best_dist[k]) {
          best_dist[k] = d;
          best_from[k] = static_cast<int>(pick);
        }
      }
    }
  }
  // Longer connections first: they have the least flexibility.
  std::sort(pins.begin(), pins.end(), [](const TwoPin& a, const TwoPin& b) {
    return std::abs(a.x1 - a.x0) + std::abs(a.y1 - a.y0) >
           std::abs(b.x1 - b.x0) + std::abs(b.y1 - b.y0);
  });
  decompose_span.reset();
  long long nets = 0;
  for (const auto& net : sinks) nets += net.empty() ? 0 : 1;
  obs::count("route.nets", nets);
  obs::count("route.connections", static_cast<long long>(pins.size()));

  UsageGrid grid(r.grid_w, r.grid_h);
  std::vector<char> x_first(pins.size(), 1);
  {
    const obs::Span initial_span("route.initial");
    for (std::size_t i = 0; i < pins.size(); ++i) {
      const int px = probe_l(grid, pins[i], true);
      const int py = probe_l(grid, pins[i], false);
      x_first[i] = px <= py ? 1 : 0;
      walk_l(grid, pins[i], x_first[i] != 0, +1);
    }
  }

  // Negotiation: rip up connections through overloaded edges and re-choose
  // the orientation under the updated congestion picture.
  {
    const obs::Span negotiate_span("route.negotiate");
    long long ripups = 0;  // counted once below
    for (int iter = 0; iter < opts.ripup_iterations; ++iter) {
      bool any = false;
      for (std::size_t i = 0; i < pins.size(); ++i) {
        const int current = probe_l(grid, pins[i], x_first[i] != 0);
        if (current <= opts.capacity_per_edge) continue;
        ++ripups;
        walk_l(grid, pins[i], x_first[i] != 0, -1);
        const int px = probe_l(grid, pins[i], true);
        const int py = probe_l(grid, pins[i], false);
        const char nf = px <= py ? 1 : 0;
        any = any || nf != x_first[i];
        x_first[i] = nf;
        walk_l(grid, pins[i], x_first[i] != 0, +1);
      }
      if (!any) break;
    }
    obs::count("route.ripups", ripups);
  }

  // Final repair: connections still riding overloaded edges abandon their
  // L-shape for a congestion-priced maze detour.
  std::vector<int> edges_of(pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i)
    edges_of[i] = std::abs(pins[i].x1 - pins[i].x0) + std::abs(pins[i].y1 - pins[i].y0);
  if (opts.ripup_iterations > 0) {
    const obs::Span repair_span("route.maze_repair");
    long long maze_routes = 0;  // counted once below
    std::optional<MazeRouter> maze;  // scratch allocated on the first repair
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (probe_l(grid, pins[i], x_first[i] != 0) <= opts.capacity_per_edge) continue;
      walk_l(grid, pins[i], x_first[i] != 0, -1);
      ++maze_routes;
      if (!maze) maze.emplace(r.grid_w, r.grid_h, opts.capacity_per_edge);
      const int detour = maze->route(grid, pins[i]);
      if (detour >= 0) {
        edges_of[i] = detour;
      } else {
        walk_l(grid, pins[i], x_first[i] != 0, +1);  // restore; keep the L
      }
    }
    obs::count("route.maze_routes", maze_routes);
    obs::count("route.maze_settled", maze ? maze->settled() : 0);
  }

  // Statistics and per-net lengths.
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const double len = edges_of[i] * tile_um;
    r.net_length_um[pins[i].driver] += len;
    r.total_wirelength_um += len;
  }
  int overflow = 0;
  int peak = 0;
  for (int u : grid.horiz) {
    peak = std::max(peak, u);
    overflow += u > opts.capacity_per_edge ? 1 : 0;
  }
  for (int u : grid.vert) {
    peak = std::max(peak, u);
    overflow += u > opts.capacity_per_edge ? 1 : 0;
  }
  r.overflow_edges = overflow;
  r.peak_congestion = static_cast<double>(peak) / std::max(1, opts.capacity_per_edge);
  obs::count("route.overflow_edges", overflow);
  obs::gauge("route.peak_congestion", r.peak_congestion);
  return r;
}

}  // namespace vpga::route
