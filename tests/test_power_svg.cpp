// Tests for the power estimator and the SVG layout renderer.

#include <gtest/gtest.h>

#include <vector>

#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "pack/layout_svg.hpp"
#include "place/placement.hpp"
#include "synth/mapper.hpp"
#include "timing/power.hpp"

namespace vpga {
namespace {

struct Prepared {
  netlist::Netlist nl;
  place::Placement placed;
};

Prepared prepare(const netlist::Netlist& src,
                 const core::PlbArchitecture& arch = core::PlbArchitecture::granular()) {
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact_from(src, mapped.netlist, arch);
  Prepared p{std::move(comp.netlist), {}};
  p.placed = place::place(p.nl);
  return p;
}

TEST(Power, PositiveAndDecomposed) {
  const auto p = prepare(designs::make_alu(8).netlist);
  timing::PowerOptions o;
  o.clock_period_ps = 4500;
  const auto r = timing::estimate_power(p.nl, p.placed, o);
  EXPECT_GT(r.dynamic_mw, 0.0);
  EXPECT_GT(r.clock_mw, 0.0);
  EXPECT_NEAR(r.total_mw, r.dynamic_mw + r.clock_mw, 1e-12);
  EXPECT_GT(r.avg_toggle_rate, 0.0);
  EXPECT_LT(r.avg_toggle_rate, 1.0);
}

TEST(Power, ScalesWithFrequency) {
  const auto p = prepare(designs::make_ripple_adder(8));
  timing::PowerOptions slow, fast;
  slow.clock_period_ps = 10000;
  fast.clock_period_ps = 5000;
  const auto rs = timing::estimate_power(p.nl, p.placed, slow);
  const auto rf = timing::estimate_power(p.nl, p.placed, fast);
  EXPECT_NEAR(rf.total_mw / rs.total_mw, 2.0, 1e-6);
}

TEST(Power, DeterministicForSeed) {
  const auto p = prepare(designs::make_counter(8));
  timing::PowerOptions o;
  const auto r1 = timing::estimate_power(p.nl, p.placed, o);
  const auto r2 = timing::estimate_power(p.nl, p.placed, o);
  EXPECT_DOUBLE_EQ(r1.total_mw, r2.total_mw);
}

TEST(Power, IdleLogicTogglesLess) {
  // A counter with enable low toggles almost nowhere; compare toggle rate
  // against free-running inputs by fixing the PI probability through seeds is
  // impractical, so compare against a pure combinational xor network instead.
  const auto counter = prepare(designs::make_counter(8));
  timing::PowerOptions o;
  const auto rc = timing::estimate_power(counter.nl, counter.placed, o);
  // A free-running LFSR toggles its state bits nearly every other cycle.
  const auto lfsr = prepare(designs::make_lfsr(8, 0b10111000));
  const auto rl = timing::estimate_power(lfsr.nl, lfsr.placed, o);
  EXPECT_GT(rl.avg_toggle_rate, 0.1);
  EXPECT_GT(rc.total_mw, 0.0);
}

TEST(Power, LutArchitectureBurnsMore) {
  // Same function, larger input capacitances and extra wire: the LUT-based
  // implementation should not be cheaper in dynamic power.
  const auto src = designs::make_ripple_adder(16);
  const auto g = prepare(src, core::PlbArchitecture::granular());
  const auto l = prepare(src, core::PlbArchitecture::lut_based());
  timing::PowerOptions o;
  o.clock_period_ps = 8000;
  const auto rg = timing::estimate_power(g.nl, g.placed, o);
  const auto rl = timing::estimate_power(l.nl, l.placed, o);
  EXPECT_LE(rg.dynamic_mw, rl.dynamic_mw * 1.05);
}

// Pins the estimator's exact figures on one sequential and one combinational
// design (default options: 256 cycles, so each toggle rate is k / 255). Any
// change to the activity simulation must reproduce them bit for bit.
void expect_pinned(const timing::PowerReport& r, double dynamic_mw, double avg_toggle_rate,
                   const std::vector<int>& toggles) {
  EXPECT_DOUBLE_EQ(r.dynamic_mw, dynamic_mw);
  EXPECT_DOUBLE_EQ(r.avg_toggle_rate, avg_toggle_rate);
  ASSERT_EQ(r.toggle_rate.size(), toggles.size());
  for (std::size_t i = 0; i < toggles.size(); ++i)
    EXPECT_DOUBLE_EQ(r.toggle_rate[i], toggles[i] / 255.0) << "node " << i;
}

TEST(Power, PinnedCounterFigures) {
  const auto p = prepare(designs::make_counter(8));
  expect_pinned(timing::estimate_power(p.nl, p.placed, {}), 0.026501731360940986,
                0.12296015180265653, {
    120, 126, 63, 31, 15, 7, 3, 1, 0, 62, 30, 14, 6, 2, 0, 0, 1, 3, 7, 15, 31,
    63, 126, 126, 63, 31, 15, 7, 3, 1, 0, 126, 63, 31, 15, 7, 3, 1, 0});
}

TEST(Power, PinnedAluFigures) {
  const auto p = prepare(designs::make_alu(8).netlist);
  expect_pinned(timing::estimate_power(p.nl, p.placed, {}), 1.0037632185254544,
                0.42227689554909426, {
    116, 122, 130, 118, 115, 141, 136, 127, 136, 133, 111, 123, 126, 130, 128,
    122, 125, 110, 122, 115, 122, 129, 118, 115, 142, 136, 127, 136, 133, 110,
    123, 125, 130, 127, 121, 126, 110, 123, 133, 117, 111, 121, 103, 116, 122,
    124, 44, 96, 122, 100, 62, 100, 125, 86, 40, 128, 114, 134, 56, 120, 32,
    128, 122, 110, 43, 98, 104, 50, 78, 131, 95, 33, 93, 52, 116, 58, 86, 133,
    117, 72, 131, 52, 129, 113, 105, 94, 80, 135, 21, 117, 117, 89, 116, 131,
    21, 135, 135, 121, 116, 17, 117, 134, 89, 129, 127, 23, 125, 103, 60, 8,
    130, 102, 36, 124, 125, 47, 125, 122, 54, 124, 140, 122, 76, 133, 127, 121,
    73, 122, 132, 124, 76, 123, 129, 133, 129, 125, 132, 138, 118, 123, 129,
    130, 140, 123, 129, 122, 120, 120, 98, 106, 128, 66, 123, 133, 81, 58, 115,
    34, 122, 136, 114, 125, 135, 83, 134, 146, 98, 122, 128, 90, 131, 113, 99,
    133, 111, 99, 129, 115, 99, 133, 107, 117, 125, 140, 134, 107, 114, 132,
    130, 118, 50, 122, 64, 136, 115, 48, 84, 44, 98, 36, 80, 18, 50, 110, 30,
    89, 129, 133, 121, 117, 112, 135, 121, 125, 111, 4, 132, 131, 139, 141, 123,
    38, 120, 124, 128, 128, 104, 85, 34, 116, 153, 139, 135, 121, 133, 6, 126,
    126, 126, 130, 124, 125, 20, 6, 119, 125, 123, 131, 116, 120, 133, 133, 133,
    87, 43, 133, 117, 111, 121, 103, 116, 122, 124, 44, 133, 117, 111, 121, 104,
    116, 123, 124});
}

TEST(LayoutSvg, WellFormedAndAnnotated) {
  const auto arch = core::PlbArchitecture::granular();
  const auto p = prepare(designs::make_ripple_adder(16), arch);
  const auto packed = pack::pack(p.nl, p.placed, arch);
  const auto svg = pack::layout_svg(p.nl, packed, arch);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("ripple_adder16"), std::string::npos);
  // The adder fuses FAs: orange macro outlines must appear.
  EXPECT_NE(svg.find("#d95f02"), std::string::npos);
  // Rect count >= grid size.
  std::size_t rects = 0;
  for (std::size_t at = svg.find("<rect"); at != std::string::npos;
       at = svg.find("<rect", at + 1))
    ++rects;
  EXPECT_GE(rects, static_cast<std::size_t>(packed.grid_w * packed.grid_h));
}

TEST(LayoutSvg, WritesFile) {
  const auto arch = core::PlbArchitecture::granular();
  const auto p = prepare(designs::make_counter(6), arch);
  const auto packed = pack::pack(p.nl, p.placed, arch);
  EXPECT_TRUE(pack::write_layout_svg("/tmp/vpga_layout_test.svg", p.nl, packed, arch));
  EXPECT_FALSE(pack::write_layout_svg("/nonexistent/dir/x.svg", p.nl, packed, arch));
}

}  // namespace
}  // namespace vpga
