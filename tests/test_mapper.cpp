// Tests for the technology mapper: functional equivalence, target legality,
// and the architectural properties the paper relies on.

#include "synth/mapper.hpp"

#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "sim_check.hpp"
#include "synth/buffering.hpp"

namespace vpga::synth {
namespace {

using core::PlbArchitecture;

void expect_only_cells(const netlist::Netlist& nl,
                       std::initializer_list<library::CellKind> allowed) {
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type != netlist::NodeType::kComb) continue;
    ASSERT_TRUE(n.cell.has_value());
    bool ok = false;
    for (auto k : allowed) ok = ok || *n.cell == k;
    EXPECT_TRUE(ok) << "unexpected cell " << library::to_string(*n.cell);
  }
}

TEST(Mapper, LutTargetMapsAdderEquivalently) {
  const auto src = designs::make_ripple_adder(8);
  const auto r = tech_map(src, cell_target(PlbArchitecture::lut_based()), Objective::kDelay);
  EXPECT_TRUE(r.netlist.check().ok);
  EXPECT_TRUE(test::sim_equivalent(src, r.netlist, 300));
  expect_only_cells(r.netlist, {library::CellKind::kLut3, library::CellKind::kNd3wi,
                                library::CellKind::kInv, library::CellKind::kBuf});
}

TEST(Mapper, GranularTargetMapsAdderEquivalently) {
  const auto src = designs::make_ripple_adder(8);
  const auto r = tech_map(src, cell_target(PlbArchitecture::granular()), Objective::kDelay);
  EXPECT_TRUE(r.netlist.check().ok);
  EXPECT_TRUE(test::sim_equivalent(src, r.netlist, 300));
  expect_only_cells(r.netlist, {library::CellKind::kMux2, library::CellKind::kNd3wi,
                                library::CellKind::kInv, library::CellKind::kBuf});
}

TEST(Mapper, SequentialDesignsSurviveMapping) {
  const auto src = designs::make_counter(6);
  const auto r = tech_map(src, cell_target(PlbArchitecture::granular()), Objective::kDelay);
  EXPECT_TRUE(r.netlist.check().ok);
  EXPECT_EQ(r.netlist.dffs().size(), 6u);
  EXPECT_TRUE(test::sim_equivalent(src, r.netlist, 200));
}

TEST(Mapper, AluMapsOnBothArchitectures) {
  const auto d = designs::make_alu(8);
  for (const auto& arch : {PlbArchitecture::lut_based(), PlbArchitecture::granular()}) {
    const auto r = tech_map(d.netlist, cell_target(arch), Objective::kDelay);
    EXPECT_TRUE(r.netlist.check().ok) << arch.name;
    EXPECT_TRUE(test::sim_equivalent(d.netlist, r.netlist, 150)) << arch.name;
    EXPECT_GT(r.stats.area_um2, 0.0);
    EXPECT_GT(r.stats.depth, 0);
  }
}

TEST(Mapper, AreaObjectiveNeverLarger) {
  const auto d = designs::make_alu(8);
  const auto t = cell_target(PlbArchitecture::lut_based());
  const auto delay = tech_map(d.netlist, t, Objective::kDelay);
  const auto area = tech_map(d.netlist, t, Objective::kArea);
  EXPECT_LE(area.stats.area_um2, delay.stats.area_um2 * 1.001);
  EXPECT_TRUE(test::sim_equivalent(delay.netlist, area.netlist, 150));
}

TEST(Mapper, DelayObjectiveNeverSlower) {
  const auto d = designs::make_alu(8);
  const auto t = cell_target(PlbArchitecture::granular());
  const auto delay = tech_map(d.netlist, t, Objective::kDelay);
  const auto area = tech_map(d.netlist, t, Objective::kArea);
  EXPECT_LE(delay.stats.est_delay_ps, area.stats.est_delay_ps * 1.001);
}

TEST(Mapper, ConfigTargetProducesConfigTags) {
  const auto src = designs::make_ripple_adder(6);
  const auto r = tech_map(src, config_target(PlbArchitecture::granular()), Objective::kArea);
  EXPECT_TRUE(test::sim_equivalent(src, r.netlist, 200));
  int tagged = 0;
  for (netlist::NodeId id : r.netlist.all_nodes()) {
    const auto& n = r.netlist.node(id);
    if (n.type == netlist::NodeType::kComb && n.has_config()) ++tagged;
  }
  EXPECT_GT(tagged, 0);
}

TEST(Mapper, XorChainsPreferMuxOnGranular) {
  // A pure xor tree: on the granular target every node should map to MUX2
  // (an ND3WI cannot express xor).
  netlist::Netlist src("xor_tree");
  auto a = src.add_input("a");
  for (int i = 0; i < 7; ++i) a = src.add_xor(a, src.add_input("x" + std::to_string(i)));
  src.add_output(a, "y");
  const auto r = tech_map(src, cell_target(PlbArchitecture::granular()), Objective::kDelay);
  for (netlist::NodeId id : r.netlist.all_nodes()) {
    const auto& n = r.netlist.node(id);
    if (n.type == netlist::NodeType::kComb && n.num_fanins() >= 2) {
      EXPECT_EQ(*n.cell, library::CellKind::kMux2);
    }
  }
  EXPECT_TRUE(test::sim_equivalent(src, r.netlist, 200));
}

TEST(Mapper, GranularMappingBeatsLutDelayEstimate) {
  // The paper's performance claim at the mapping level: granular components
  // realize the same logic with lower stage delay than 3-LUTs.
  const auto d = designs::make_alu(16);
  const auto lut = tech_map(d.netlist, cell_target(PlbArchitecture::lut_based()),
                            Objective::kDelay);
  const auto gran = tech_map(d.netlist, cell_target(PlbArchitecture::granular()),
                             Objective::kDelay);
  EXPECT_LT(gran.stats.est_delay_ps, lut.stats.est_delay_ps);
}

TEST(Buffering, CapsFanout) {
  netlist::Netlist nl("fanout");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_and(a, b);
  for (int i = 0; i < 40; ++i) nl.add_output(nl.add_not(g), "o" + std::to_string(i));
  const int inserted = insert_buffers(nl, 8);
  EXPECT_GT(inserted, 0);
  const auto fan = nl.fanout_counts();
  for (netlist::NodeId id : nl.all_nodes())
    if (nl.node(id).type != netlist::NodeType::kOutput) {
      EXPECT_LE(fan[id.index()], 8) << id.index();
    }
  EXPECT_TRUE(nl.check().ok);
}

TEST(Buffering, PreservesFunction) {
  const auto src = designs::make_ripple_adder(8);
  auto buffered = src;
  insert_buffers(buffered, 3);
  EXPECT_TRUE(test::sim_equivalent(src, buffered, 200));
}

TEST(Buffering, NoChangeBelowLimit) {
  auto nl = designs::make_ripple_adder(4);
  const auto before = nl.num_nodes();
  EXPECT_EQ(insert_buffers(nl, 64), 0);
  EXPECT_EQ(nl.num_nodes(), before);
}

}  // namespace
}  // namespace vpga::synth
