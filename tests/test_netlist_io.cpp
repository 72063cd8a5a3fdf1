// Tests for the plain-text netlist serialization.

#include "netlist/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"
#include "sim_check.hpp"
#include "synth/mapper.hpp"

namespace vpga::netlist {
namespace {

Netlist round_trip(const Netlist& nl) {
  std::ostringstream os;
  write_netlist(os, nl);
  std::istringstream is(os.str());
  auto r = read_netlist(is);
  EXPECT_TRUE(r.ok) << r.error;
  return std::move(r.netlist);
}

TEST(NetlistIo, RoundTripCombinational) {
  const auto nl = designs::make_ripple_adder(8);
  const auto back = round_trip(nl);
  EXPECT_EQ(back.num_nodes(), nl.num_nodes());
  EXPECT_EQ(back.name(), nl.name());
  EXPECT_TRUE(test::sim_equivalent(nl, back, 200));
}

TEST(NetlistIo, RoundTripSequentialWithFeedback) {
  const auto nl = designs::make_counter(6);
  const auto back = round_trip(nl);
  EXPECT_TRUE(test::sim_equivalent(nl, back, 100));
}

TEST(NetlistIo, RoundTripPreservesAnnotations) {
  const auto src = designs::make_ripple_adder(8);
  const auto arch = core::PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact_from(src, mapped.netlist, arch);
  const auto back = round_trip(comp.netlist);
  ASSERT_EQ(back.num_nodes(), comp.netlist.num_nodes());
  for (NodeId id : comp.netlist.all_nodes()) {
    const auto& a = comp.netlist.node(id);
    const auto& b = back.node(id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.config_tag, b.config_tag) << id.index();
    EXPECT_EQ(a.cell.has_value(), b.cell.has_value());
    if (a.cell) {
      EXPECT_EQ(*a.cell, *b.cell);
    }
    EXPECT_EQ(a.macro_rep, b.macro_rep);
    EXPECT_EQ(a.func.bits(), b.func.bits());
  }
  EXPECT_TRUE(test::sim_equivalent(comp.netlist, back, 200));
}

TEST(NetlistIo, RoundTripMovesReadersAfterLaterFanins) {
  // A reader rewired to a buffer appended after it, as buffer insertion
  // does: the writer must emit the buffer first.
  Netlist nl("rewired");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_and(a, b);
  const NodeId ff = nl.add_dff(g, "q");
  nl.add_output(ff, "y");
  nl.add_output(g, "z");
  nl.set_fanin(g, 0, nl.add_buf(a));
  std::ostringstream os;
  write_netlist(os, nl);
  std::istringstream is(os.str());
  const auto r = read_netlist(is);
  ASSERT_TRUE(r.ok) << r.error;  // the reader checks fanin order
  ASSERT_EQ(r.netlist.num_nodes(), nl.num_nodes());
  EXPECT_EQ(r.netlist.name_of(r.netlist.outputs()[0]), "y");
  EXPECT_EQ(r.netlist.name_of(r.netlist.outputs()[1]), "z");
  EXPECT_TRUE(test::sim_equivalent(nl, r.netlist, 16));
  // A netlist in loadable order is written unchanged.
  std::ostringstream again;
  write_netlist(again, r.netlist);
  EXPECT_EQ(again.str(), os.str());
}

TEST(NetlistIo, RejectsMissingHeader) {
  std::istringstream is("node 0 input a\nend\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("header"), std::string::npos);
}

TEST(NetlistIo, RejectsOutOfOrderIds) {
  std::istringstream is("vpga-netlist 1\nnode 1 input a\nend\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("dense"), std::string::npos);
}

TEST(NetlistIo, RejectsForwardCombFanin) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 2 8 0 2\n"
      "node 2 input b\n"
      "end\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
}

TEST(NetlistIo, RejectsMissingEnd) {
  std::istringstream is("vpga-netlist 1\nnode 0 input a\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("end"), std::string::npos);
}

TEST(NetlistIo, RejectsBadTruthTable) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 zz 0\n"
      "end\n");
  EXPECT_FALSE(read_netlist(is).ok);
}

TEST(NetlistIo, RejectsTruthTableWithTrailingGarbage) {
  // A valid hex prefix ("3") must not be accepted for the whole token.
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 3zz 0\n"
      "end\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("line 3: ", 0), 0u) << r.error;
}

TEST(NetlistIo, RejectsTruthTableBitsBeyondItsRows) {
  // A 1-input table has 2 rows, so its value must be below 4.
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 ff 0\n"
      "end\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("line 3: ", 0), 0u) << r.error;
  std::istringstream full(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 3 0\n"
      "end\n");
  EXPECT_TRUE(read_netlist(full).ok);
}

TEST(NetlistIo, RejectsUnknownDffAttribute) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 dff 0 bogus=1\n"
      "end\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("line 3: ", 0), 0u) << r.error;
  EXPECT_NE(r.error.find("unknown attribute"), std::string::npos) << r.error;
}

TEST(NetlistIo, RejectsUnknownCell) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 2 0 cell=BOGUS\n"
      "end\n");
  EXPECT_FALSE(read_netlist(is).ok);
}

namespace {

/// Parses a small netlist whose one comb node (line 3) carries `attr`.
ParseResult read_with_attr(const std::string& attr) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 2 0 " + attr + "\n"
      "node 2 output 1 y\n"
      "node 3 input b\n"
      "end\n");
  return read_netlist(is);
}

}  // namespace

TEST(NetlistIo, RejectsNonNumericConfigTag) {
  const auto r = read_with_attr("config=abc");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("line 3: ", 0), 0u) << r.error;
}

TEST(NetlistIo, RejectsConfigTagAbove255) {
  const auto r = read_with_attr("config=300");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("0..255"), std::string::npos) << r.error;
  EXPECT_TRUE(read_with_attr("config=255").ok);
}

TEST(NetlistIo, RejectsMacroIdBeyondAnyInteger) {
  const auto r = read_with_attr("macro=99999999999999999999");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("line 3: ", 0), 0u) << r.error;
}

TEST(NetlistIo, RejectsMacroIdThatIsNotANode) {
  const auto r = read_with_attr("macro=77");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("line 3: ", 0), 0u) << r.error;
  EXPECT_NE(r.error.find("not a node"), std::string::npos) << r.error;
  // A representative declared later in the file is still a node.
  EXPECT_TRUE(read_with_attr("macro=3").ok);
}

TEST(NetlistIo, DffForwardReferenceAllowed) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "name toggler\n"
      "node 0 dff 2 name=q\n"
      "node 1 const 1\n"
      "node 2 comb 2 6 0 1\n"
      "node 3 output 0 y\n"
      "end\n");
  const auto r = read_netlist(is);
  ASSERT_TRUE(r.ok) << r.error;
  BitSimulator sim(r.netlist);
  bool expected = false;
  for (int t = 0; t < 4; ++t) {
    sim.eval();
    EXPECT_EQ(sim.output(0), test::broadcast(expected));
    sim.step();
    expected = !expected;
  }
}

TEST(NetlistIo, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "# a comment\n"
      "\n"
      "node 0 input a\n"
      "node 1 output 0 y\n"
      "end\n");
  EXPECT_TRUE(read_netlist(is).ok);
}

TEST(NetlistIo, FileRoundTrip) {
  const auto nl = designs::make_lfsr(8, 0b10111000);
  ASSERT_TRUE(save_netlist("/tmp/vpga_io_test.vnl", nl));
  const auto r = load_netlist("/tmp/vpga_io_test.vnl");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(test::sim_equivalent(nl, r.netlist, 100));
}

TEST(NetlistIo, LoadMissingFileFails) {
  const auto r = load_netlist("/tmp/definitely_not_here.vnl");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace vpga::netlist
