// Tests for the global router and the static timing analyzer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "obs/obs.hpp"
#include "place/placement.hpp"
#include "route/router.hpp"
#include "synth/mapper.hpp"
#include "timing/sta.hpp"

namespace vpga {
namespace {

using core::PlbArchitecture;

struct Prepared {
  netlist::Netlist nl;
  place::Placement placed;
};

Prepared prepare(const netlist::Netlist& src) {
  const auto arch = PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact(mapped.netlist, arch);
  Prepared p{std::move(comp.netlist), {}};
  p.placed = place::place(p.nl);
  return p;
}

TEST(Route, WirelengthAtLeastHpwl) {
  const auto p = prepare(designs::make_ripple_adder(16));
  const auto r = route::route(p.nl, p.placed, 8.0);
  // Rectilinear MST length >= HPWL on a per-net basis (grid-quantized, so
  // allow slack of one tile per connection).
  EXPECT_GT(r.total_wirelength_um, 0.0);
  EXPECT_GE(r.grid_w, 2);
  EXPECT_GE(r.grid_h, 2);
}

TEST(Route, NetLengthsConsistentWithTotal) {
  const auto p = prepare(designs::make_ripple_adder(12));
  const auto r = route::route(p.nl, p.placed, 8.0);
  double sum = 0.0;
  for (double l : r.net_length_um) sum += l;
  EXPECT_NEAR(sum, r.total_wirelength_um, 1e-6);
}

TEST(Route, CongestionNegotiationReducesOverflow) {
  const auto p = prepare(designs::make_alu(8).netlist);
  route::RouterOptions tight;
  tight.capacity_per_edge = 2;
  tight.ripup_iterations = 0;
  const auto r0 = route::route(p.nl, p.placed, 8.0, tight);
  tight.ripup_iterations = 3;
  const auto r1 = route::route(p.nl, p.placed, 8.0, tight);
  // Negotiation + maze detours trade hotspots for mild spread: the peak must
  // drop (or hold) even if more edges sit slightly over a tiny capacity.
  EXPECT_LE(r1.peak_congestion, r0.peak_congestion + 1e-9);
  EXPECT_LT(r1.peak_congestion, r0.peak_congestion);
  EXPECT_LE(r1.overflow_edges, 2 * r0.overflow_edges + 2);
  // Detours lengthen wires, but boundedly.
  EXPECT_GE(r1.total_wirelength_um, r0.total_wirelength_um);
  EXPECT_LE(r1.total_wirelength_um, 2.0 * r0.total_wirelength_um);
}

TEST(Route, DeterministicAndFinite) {
  const auto p = prepare(designs::make_counter(8));
  const auto r1 = route::route(p.nl, p.placed, 8.0);
  const auto r2 = route::route(p.nl, p.placed, 8.0);
  EXPECT_DOUBLE_EQ(r1.total_wirelength_um, r2.total_wirelength_um);
  EXPECT_GE(r1.peak_congestion, 0.0);
}

/// FNV-1a over the bit patterns of the per-net lengths: any moved path
/// changes some net's length or where its length is charged.
std::uint64_t length_hash(const std::vector<double>& lengths) {
  std::uint64_t h = 14695981039346656037ull;
  for (double l : lengths) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &l, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Routed {
  route::RoutingResult r;
  long long maze_routes = 0;
  long long maze_settled = 0;
};

Routed route_counted(const Prepared& p, double tile_um, const route::RouterOptions& o) {
  obs::ObsContext ctx(false, true);
  Routed out;
  {
    const obs::ScopedObs bind(&ctx);
    out.r = route::route(p.nl, p.placed, tile_um, o);
  }
  out.maze_routes = ctx.report().counter("route.maze_routes");
  out.maze_settled = ctx.report().counter("route.maze_settled");
  return out;
}

// Pins the router's output on congested cases where maze repair runs, so a
// faster maze search must reproduce the same paths bit for bit, and the cells
// it settles, so a search that does more work fails here even when its paths
// are the same.
TEST(Route, CongestedRoutePinned) {
  const auto p = prepare(designs::make_alu(8).netlist);
  route::RouterOptions o;
  o.capacity_per_edge = 2;
  const auto [r, maze_routes, maze_settled] = route_counted(p, 8.0, o);
  EXPECT_EQ(r.grid_w, 9);
  EXPECT_EQ(r.grid_h, 9);
  EXPECT_EQ(maze_routes, 443);
  EXPECT_EQ(maze_settled, 2151);
  EXPECT_EQ(r.total_wirelength_um, 7496.0);
  EXPECT_EQ(r.overflow_edges, 136);
  EXPECT_EQ(r.peak_congestion, 5.0);
  EXPECT_EQ(length_hash(r.net_length_um), 16881040475480531354ull);
}

// The placement squeezed onto a 2x2 grid: many connections have both
// endpoints in one cell, and the rest contend for four edges.
TEST(Route, TwoByTwoGridPinned) {
  auto p = prepare(designs::make_alu(8).netlist);
  const double tile = 8.0;
  for (auto& pt : p.placed.pos) {
    pt.x = pt.x / p.placed.width_um * 2.0 * tile;
    pt.y = pt.y / p.placed.height_um * 2.0 * tile;
  }
  p.placed.width_um = p.placed.height_um = tile;
  route::RouterOptions o;
  o.capacity_per_edge = 1;
  // Some connection has both endpoints in one cell.
  const auto cell = [&](const place::Point& pt) {
    return std::pair{std::min(1, static_cast<int>(pt.x / tile)),
                     std::min(1, static_cast<int>(pt.y / tile))};
  };
  bool shared_cell = false;
  for (netlist::NodeId id : p.nl.all_nodes())
    for (netlist::NodeId fi : p.nl.fanins(id))
      if (fi.valid() && cell(p.placed.pos[fi.index()]) == cell(p.placed.pos[id.index()]))
        shared_cell = true;
  EXPECT_TRUE(shared_cell);
  const auto [r, maze_routes, maze_settled] = route_counted(p, tile, o);
  EXPECT_EQ(r.grid_w, 2);
  EXPECT_EQ(r.grid_h, 2);
  EXPECT_EQ(maze_routes, 127);
  EXPECT_EQ(maze_settled, 265);
  EXPECT_EQ(r.total_wirelength_um, 1072.0);
  EXPECT_EQ(r.overflow_edges, 4);
  EXPECT_EQ(r.peak_congestion, 37.0);
  EXPECT_EQ(length_hash(r.net_length_um), 11937716584612182517ull);
}

TEST(Sta, CombinationalDelayPositive) {
  const auto p = prepare(designs::make_ripple_adder(8));
  timing::StaOptions o;
  o.clock_period_ps = 10000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(t.critical_delay_ps, 0.0);
  EXPECT_LE(t.critical_delay_ps, o.clock_period_ps - t.wns_ps + 1e-6);
}

TEST(Sta, SlackDecreasesWithClockPeriod) {
  const auto p = prepare(designs::make_ripple_adder(8));
  timing::StaOptions o1, o2;
  o1.clock_period_ps = 10000;
  o2.clock_period_ps = 5000;
  const auto t1 = timing::analyze(p.nl, p.placed, o1);
  const auto t2 = timing::analyze(p.nl, p.placed, o2);
  EXPECT_NEAR(t1.wns_ps - t2.wns_ps, 5000.0, 1e-6);
  EXPECT_NEAR(t1.avg_slack_top10_ps - t2.avg_slack_top10_ps, 5000.0, 1e-6);
}

TEST(Sta, TopEndpointsSortedWorstFirst) {
  const auto p = prepare(designs::make_alu(8).netlist);
  timing::StaOptions o;
  o.clock_period_ps = 4000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  ASSERT_FALSE(t.top_endpoints.empty());
  for (std::size_t i = 1; i < t.top_endpoints.size(); ++i)
    EXPECT_GE(t.top_endpoints[i].slack_ps, t.top_endpoints[i - 1].slack_ps);
  EXPECT_LE(t.top_endpoints.size(), 10u);
  EXPECT_DOUBLE_EQ(t.top_endpoints.front().slack_ps, t.wns_ps);
}

TEST(Sta, WireParasiticsSlowThingsDown) {
  const auto p = prepare(designs::make_ripple_adder(16));
  timing::StaOptions o;
  o.clock_period_ps = 10000;
  place::Placement zero = p.placed;
  for (auto& pt : zero.pos) pt = {0.0, 0.0};
  const auto ideal = timing::analyze(p.nl, zero, o);
  const auto real = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(real.critical_delay_ps, ideal.critical_delay_ps);
}

TEST(Sta, RoutedLengthsOverrideHpwl) {
  const auto p = prepare(designs::make_ripple_adder(16));
  const auto r = route::route(p.nl, p.placed, 8.0);
  timing::StaOptions o;
  o.clock_period_ps = 10000;
  o.net_length_um = r.net_length_um;
  const auto t = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(t.critical_delay_ps, 0.0);
}

TEST(Sta, CriticalityInUnitRange) {
  const auto p = prepare(designs::make_alu(8).netlist);
  timing::StaOptions o;
  o.clock_period_ps = 4000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  ASSERT_EQ(t.criticality.size(), p.nl.num_nodes());
  double max_crit = 0.0;
  for (double c : t.criticality) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    max_crit = std::max(max_crit, c);
  }
  EXPECT_GT(max_crit, 0.0);
}

TEST(Sta, SequentialPathsTimed) {
  // A counter's critical path is FF -> increment -> FF.
  const auto p = prepare(designs::make_counter(16));
  timing::StaOptions o;
  o.clock_period_ps = 5000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(t.critical_delay_ps, 0.0);
  bool endpoint_is_dff = false;
  for (const auto& e : t.top_endpoints)
    if (p.nl.node(e.endpoint).type == netlist::NodeType::kDff) endpoint_is_dff = true;
  EXPECT_TRUE(endpoint_is_dff);
}

TEST(Sta, LutArchSlowerThanGranular) {
  // Same design, same flow stage: the LUT-based implementation must show a
  // longer critical path (the paper's Table 2 direction).
  const auto src = designs::make_ripple_adder(16);
  auto run = [&](const PlbArchitecture& arch) {
    const auto mapped =
        synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
    auto comp = compact::compact(mapped.netlist, arch);
    const auto placed = place::place(comp.netlist);
    timing::StaOptions o;
    o.clock_period_ps = 10000;
    return timing::analyze(comp.netlist, placed, o).critical_delay_ps;
  };
  EXPECT_LT(run(PlbArchitecture::granular()), run(PlbArchitecture::lut_based()));
}

}  // namespace
}  // namespace vpga
