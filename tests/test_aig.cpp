// Tests for the and-inverter graph: hashing, folding, conversion round trips.

#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "designs/designs.hpp"
#include "sim_check.hpp"

namespace vpga::aig {
namespace {

TEST(Aig, ConstantFoldingRules) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  EXPECT_EQ(g.add_and(a, kFalse), kFalse);
  EXPECT_EQ(g.add_and(kTrue, b), b);
  EXPECT_EQ(g.add_and(a, a), a);
  EXPECT_EQ(g.add_and(a, negate(a)), kFalse);
}

TEST(Aig, StructuralHashingDeduplicates) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.num_nodes(), 4u);  // const + 2 inputs + 1 and
}

TEST(Aig, XorEvaluates) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  g.add_output(g.add_xor(a, b));
  for (int v = 0; v < 4; ++v) {
    const auto out = g.eval({(v & 1) != 0, (v & 2) != 0});
    EXPECT_EQ(out[0], ((v & 1) ^ ((v >> 1) & 1)) != 0);
  }
}

TEST(Aig, MuxEvaluates) {
  Aig g;
  const Lit s = g.add_input();
  const Lit d0 = g.add_input();
  const Lit d1 = g.add_input();
  g.add_output(g.add_mux(s, d0, d1));
  for (int v = 0; v < 8; ++v) {
    const bool sv = v & 1, d0v = (v >> 1) & 1, d1v = (v >> 2) & 1;
    EXPECT_EQ(g.eval({sv, d0v, d1v})[0], sv ? d1v : d0v);
  }
}

TEST(Aig, BuildFunctionMatchesTruthTable) {
  common::Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    const logic::TruthTable f(3, rng.next_u64() & 0xFF);
    Aig g;
    const std::vector<Lit> leaves = {g.add_input(), g.add_input(), g.add_input()};
    g.add_output(g.build_function(f, leaves));
    for (unsigned row = 0; row < 8; ++row) {
      const auto out = g.eval({(row & 1) != 0, (row & 2) != 0, (row & 4) != 0});
      EXPECT_EQ(out[0], f.eval(row)) << f.to_string() << " row " << row;
    }
  }
}

TEST(Aig, BuildFunctionHandlesConstantsAndLiterals) {
  Aig g;
  const std::vector<Lit> leaves = {g.add_input(), g.add_input()};
  EXPECT_EQ(g.build_function(logic::TruthTable::constant(2, false), leaves), kFalse);
  EXPECT_EQ(g.build_function(logic::TruthTable::constant(2, true), leaves), kTrue);
  EXPECT_EQ(g.build_function(logic::TruthTable::var(2, 0), leaves), leaves[0]);
  EXPECT_EQ(g.build_function(~logic::TruthTable::var(2, 1), leaves), negate(leaves[1]));
}

TEST(Aig, LevelsAndDepth) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(x, c);
  g.add_output(y);
  EXPECT_EQ(g.depth(), 2);
  EXPECT_EQ(g.count_reachable_ands(), 2u);
}

TEST(Aig, RoundTripCombinational) {
  const auto nl = designs::make_ripple_adder(6);
  const auto m = from_netlist(nl);
  EXPECT_EQ(m.num_pis, nl.inputs().size());
  EXPECT_EQ(m.num_pos, nl.outputs().size());
  const auto back = to_netlist(m);
  EXPECT_TRUE(back.check().ok);
  EXPECT_TRUE(test::sim_equivalent(nl, back, 200));
}

TEST(Aig, RoundTripSequential) {
  const auto nl = designs::make_counter(5);
  const auto m = from_netlist(nl);
  EXPECT_EQ(m.num_latches, 5u);
  const auto back = to_netlist(m);
  EXPECT_TRUE(back.check().ok);
  EXPECT_TRUE(test::sim_equivalent(nl, back, 100));
}

TEST(Aig, RoundTripAlu) {
  const auto d = designs::make_alu(8);
  const auto m = from_netlist(d.netlist);
  const auto back = to_netlist(m);
  EXPECT_TRUE(test::sim_equivalent(d.netlist, back, 100));
}

TEST(Aig, RoundTripFirewire) {
  const auto d = designs::make_firewire(4, 8);
  const auto back = to_netlist(from_netlist(d.netlist));
  EXPECT_TRUE(test::sim_equivalent(d.netlist, back, 100));
}

TEST(Aig, HashingShrinksRedundantNetlists) {
  // Build the same function twice; strashing must share the structure.
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto x = nl.add_and(a, b);
  const auto y = nl.add_and(a, b);  // duplicate
  nl.add_output(nl.add_or(x, y), "o");
  const auto m = from_netlist(nl);
  EXPECT_EQ(m.aig.count_reachable_ands(), 1u);  // or of identical = identity
}

}  // namespace
}  // namespace vpga::aig
