// Tests for the exact equivalence checker (verify/cec.hpp): seeded mutations
// that random stimulus provably misses, counterexample replay, tier routing,
// resource limits and byte-stable determinism.

#include "verify/cec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/plb.hpp"
#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "synth/mapper.hpp"
#include "verify/equiv.hpp"

namespace vpga::verify {
namespace {

using netlist::BitSimulator;
using netlist::Netlist;
using netlist::NodeId;

/// Replays a counterexample through both original netlists and returns true
/// iff the diverging point really computes different values — the
/// independent witness check the tests insist on for every refutation.
bool cex_witnesses_diff(const Netlist& a, const Netlist& b, const CecCounterexample& cex) {
  BitSimulator sa(a);
  BitSimulator sb(b);
  for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
    const std::uint64_t w = cex.inputs[i] != 0 ? ~std::uint64_t{0} : 0;
    sa.set_input(i, w);
    sb.set_input(i, w);
  }
  for (std::size_t d = 0; d < cex.state.size(); ++d) {
    const std::uint64_t w = cex.state[d] != 0 ? ~std::uint64_t{0} : 0;
    sa.set_state(d, w);
    sb.set_state(d, w);
  }
  sa.eval();
  sb.eval();
  const std::uint64_t va = cex.is_state ? sa.next_state(cex.point_index) : sa.output(cex.point_index);
  const std::uint64_t vb = cex.is_state ? sb.next_state(cex.point_index) : sb.output(cex.point_index);
  return ((va ^ vb) & 1u) != 0;
}

/// A `width`-input AND tree whose output is 1 only on the all-ones vector —
/// the classic needle random stimulus cannot find. `mutate_at` >= 0 replaces
/// that leaf-pair gate with OR (a gate-type flip visible only when the whole
/// tree is driven to 1).
Netlist make_and_tree(int width, int mutate_at = -1) {
  Netlist nl("and_tree");
  std::vector<NodeId> layer;
  for (int i = 0; i < width; ++i) layer.push_back(nl.add_input("x" + std::to_string(i)));
  int gate = 0;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(gate == mutate_at ? nl.add_or(layer[i], layer[i + 1])
                                       : nl.add_and(layer[i], layer[i + 1]));
      ++gate;
    }
    if (layer.size() % 2 != 0) next.push_back(layer.back());
    layer = std::move(next);
  }
  nl.add_output(layer[0], "y");
  return nl;
}

/// How a parity chain folds its inputs. Parity is fully symmetric, so every
/// fold computes the same function — but through disjoint internal nodes, so
/// structural hashing and signature sweeping find nothing to merge between
/// two different folds and the verdict rests entirely on the closing tier.
enum class Fold {
  kForward,   ///< x0 ^ x1 ^ x2 ^ ...
  kReversed,  ///< ... ^ x2 ^ x1 ^ x0 (suffix parities vs prefix parities)
  /// A fixed pseudo-random input order. The XOR miter of a forward vs a
  /// shuffled fold is a Tseitin formula over the union of two Hamiltonian
  /// paths — an expander, the canonical resolution-hard family — while the
  /// BDD of every intermediate (a parity of some input subset) stays linear
  /// under any variable order. This is the shape that separates the tiers.
  kShuffled,
};

Netlist make_parity_chain(int width, Fold fold) {
  Netlist nl("parity");
  std::vector<NodeId> xs;
  for (int i = 0; i < width; ++i) xs.push_back(nl.add_input("x" + std::to_string(i)));
  std::vector<std::size_t> ord(static_cast<std::size_t>(width));
  for (std::size_t i = 0; i < ord.size(); ++i)
    ord[i] = fold == Fold::kReversed ? ord.size() - 1 - i : i;
  if (fold == Fold::kShuffled) {  // deterministic Fisher-Yates, fixed seed
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = ord.size() - 1; i > 0; --i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(ord[i], ord[(s >> 33) % (i + 1)]);
    }
  }
  NodeId acc = xs[ord[0]];
  for (std::size_t i = 1; i < ord.size(); ++i) acc = nl.add_xor(acc, xs[ord[i]]);
  nl.add_output(acc, "p");
  return nl;
}

/// Clones `src` with its registers *declared* in `perm` order (new DFF
/// position i holds the register at src position perm[i]); every function and
/// wire is otherwise identical. The checker pairs registers by position, so
/// such a pair is refuted: the state encoding itself has changed.
Netlist permute_registers(const Netlist& src, const std::vector<std::size_t>& perm) {
  Netlist dst(src.name());
  std::vector<NodeId> map(src.num_nodes());
  // DFF Q pins act as combinational leaves, so declaring every register up
  // front (in permuted order) keeps all later references resolvable.
  for (const std::size_t at : perm) {
    const NodeId old = src.dffs()[at];
    map[old.index()] = dst.add_dff(NodeId(), src.name_of(old));
  }
  for (const NodeId id : src.all_nodes()) {
    const auto& n = src.node(id);
    switch (n.type) {
      case netlist::NodeType::kInput:
        map[id.index()] = dst.add_input(src.name_of(id));
        break;
      case netlist::NodeType::kConst:
        map[id.index()] = dst.add_constant((n.func.bits() & 1u) != 0);
        break;
      case netlist::NodeType::kComb: {
        std::vector<NodeId> fins;
        for (const NodeId f : src.fanins(id)) fins.push_back(map[f.index()]);
        map[id.index()] = dst.add_comb(n.func, fins, src.name_of(id));
        break;
      }
      case netlist::NodeType::kOutput:
        dst.add_output(map[src.fanin(id, 0).index()], src.name_of(id));
        break;
      case netlist::NodeType::kDff:
        break;  // declared above; D wired below once its cone exists
    }
  }
  for (const NodeId dff : src.dffs())
    dst.set_dff_input(map[dff.index()], map[src.fanin(dff, 0).index()]);
  return dst;
}

/// The random-stimulus gate at its defaults (64 cycles x 64 lanes) — used to
/// demonstrate which mutations it misses.
bool random_equiv_passes(const Netlist& golden, const Netlist& revised) {
  VerifyReport report;
  check_equivalence(golden, revised, "test", report, EquivOptions{});
  return !report.has_errors();
}

TEST(Cec, IdenticalNetlistsProveStructurally) {
  const Netlist nl = make_and_tree(32);
  const CecReport rep = check_combinational_equivalence(nl, nl);
  EXPECT_TRUE(rep.proven());
  EXPECT_EQ(rep.checks, 1);
  EXPECT_EQ(rep.tier_struct, 1);
  EXPECT_EQ(rep.tier_sat, 0);
}

TEST(Cec, ReassociatedAddersProve) {
  // Three adder architectures computing the same function with completely
  // different structure: ripple vs carry-select (exhaustive-tier supports)
  // and ripple vs Kogge-Stone prefix.
  const Netlist ripple = designs::make_ripple_adder(12);
  const Netlist csel = designs::make_carry_select_adder(12, 4);
  const Netlist prefix = designs::make_prefix_adder(12);
  EXPECT_TRUE(check_combinational_equivalence(ripple, csel).proven());
  const CecReport rep = check_combinational_equivalence(ripple, prefix);
  EXPECT_TRUE(rep.proven());
  EXPECT_EQ(rep.checks, 13);  // 12 sums + carry-out
}

TEST(Cec, GateTypeFlipEscapesRandomButIsCaught) {
  // Flip one leaf AND to OR deep inside a 40-input AND tree. The outputs
  // differ only when the other 38 inputs are all 1 (probability 2^-38 per
  // pattern), so the random gate's 4096 patterns miss it essentially surely
  // — while the exact gate returns a replayable counterexample.
  const Netlist golden = make_and_tree(40);
  const Netlist mutated = make_and_tree(40, /*mutate_at=*/3);
  EXPECT_TRUE(random_equiv_passes(golden, mutated));

  const CecReport rep = check_combinational_equivalence(golden, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_FALSE(rep.cex->is_state);
  EXPECT_TRUE(cex_witnesses_diff(golden, mutated, *rep.cex));
}

TEST(Cec, FaninSwapEscapesRandomButIsCaught) {
  // out = AND(x0..x35) & MUX(s, d0, d1): swapping the mux data fanins only
  // shows when every tree input is 1 and d0 != d1 — invisible to random
  // stimulus, found exactly by the miter.
  auto build = [](bool swap) {
    Netlist nl("gated_mux");
    std::vector<NodeId> xs;
    for (int i = 0; i < 36; ++i) xs.push_back(nl.add_input("x" + std::to_string(i)));
    const NodeId s = nl.add_input("s");
    const NodeId d0 = nl.add_input("d0");
    const NodeId d1 = nl.add_input("d1");
    NodeId acc = xs[0];
    for (int i = 1; i < 36; ++i) acc = nl.add_and(acc, xs[i]);
    const NodeId m = swap ? nl.add_mux(s, d1, d0) : nl.add_mux(s, d0, d1);
    nl.add_output(nl.add_and(acc, m), "y");
    return nl;
  };
  const Netlist golden = build(false);
  const Netlist mutated = build(true);
  EXPECT_TRUE(random_equiv_passes(golden, mutated));

  const CecReport rep = check_combinational_equivalence(golden, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_TRUE(cex_witnesses_diff(golden, mutated, *rep.cex));
}

TEST(Cec, ConstantStuckOutputEscapesRandomButIsCaught) {
  // The output of a 40-input AND tree is 0 on all but one of 2^40 vectors;
  // sticking it at constant 0 passes every random pattern, but the exact
  // checker must produce the all-ones witness.
  const Netlist golden = make_and_tree(40);
  Netlist stuck("and_tree");
  for (int i = 0; i < 40; ++i) stuck.add_input("x" + std::to_string(i));
  stuck.add_output(stuck.add_constant(false), "y");
  EXPECT_TRUE(random_equiv_passes(golden, stuck));

  const CecReport rep = check_combinational_equivalence(golden, stuck);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  for (const std::uint8_t v : rep.cex->inputs) EXPECT_EQ(v, 1);  // the needle
  EXPECT_TRUE(cex_witnesses_diff(golden, stuck, *rep.cex));
}

TEST(Cec, StateDivergenceIsCaughtWithStateWitness) {
  // Corrupt one next-state function of a counter: increment becomes hold on
  // the top bit. The witness must be a state assignment (is_state = true).
  auto build = [](bool corrupt) {
    Netlist nl("cnt");
    std::vector<NodeId> q;
    for (int i = 0; i < 4; ++i) q.push_back(nl.add_dff(NodeId(), "q" + std::to_string(i)));
    NodeId carry = nl.add_constant(true);
    for (int i = 0; i < 4; ++i) {
      const NodeId sum = nl.add_xor(q[i], carry);
      const NodeId d = (corrupt && i == 3) ? q[i] : sum;
      nl.set_dff_input(q[i], d);
      if (i + 1 < 4) carry = nl.add_and(q[i], carry);
      nl.add_output(q[i], "o" + std::to_string(i));
    }
    return nl;
  };
  const Netlist golden = build(false);
  const Netlist mutated = build(true);
  const CecReport rep = check_combinational_equivalence(golden, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_TRUE(rep.cex->is_state);
  EXPECT_EQ(rep.cex->point_index, 3u);
  EXPECT_TRUE(cex_witnesses_diff(golden, mutated, *rep.cex));
}

TEST(Cec, SmallConeRefutationPinsFirstDifferingRow) {
  // AND vs XOR over two leaves: assignments are scanned in row order (bit j =
  // merged leaf j), so the witness is the first differing row, x=1 y=0.
  Netlist a("small_a");
  Netlist b("small_b");
  {
    const NodeId x = a.add_input("x");
    const NodeId y = a.add_input("y");
    a.add_output(a.add_and(x, y), "z");
  }
  {
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    b.add_output(b.add_xor(x, y), "z");
  }
  const CecReport rep = check_combinational_equivalence(a, b);
  EXPECT_FALSE(rep.equivalent);
  EXPECT_EQ(rep.tier_table, 1);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->inputs, (std::vector<std::uint8_t>{1, 0}));
  EXPECT_TRUE(cex_witnesses_diff(a, b, *rep.cex));
}

TEST(Cec, WideConeRefutationPinsFirstDifferingRow) {
  // A 10-leaf AND tree with its (x6, x7) gate flipped to OR: the two cones
  // differ exactly when every other leaf is 1 and one of x6/x7 is. Rows with
  // x6=1 x7=0 come first, so the witness drives both the 64-lane word
  // (leaves 0..5) and the block bits (leaves 6..9).
  const Netlist golden = make_and_tree(10);
  const Netlist mutated = make_and_tree(10, /*mutate_at=*/3);
  const CecReport rep = check_combinational_equivalence(golden, mutated);
  EXPECT_FALSE(rep.equivalent);
  EXPECT_EQ(rep.tier_exhaustive, 1);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->inputs, (std::vector<std::uint8_t>{1, 1, 1, 1, 1, 1, 1, 0, 1, 1}));
  EXPECT_TRUE(cex_witnesses_diff(golden, mutated, *rep.cex));
}

TEST(Cec, ConstantConeRefutationPinsAllZeroWitness) {
  // Constant 0 vs constant 1 has an empty support: the only row is row 0,
  // and every interface input of the witness stays 0.
  Netlist a("const_a");
  Netlist b("const_b");
  for (Netlist* nl : {&a, &b}) {
    nl->add_input("x");
    nl->add_input("y");
  }
  a.add_output(a.add_constant(false), "z");
  b.add_output(b.add_constant(true), "z");
  const CecReport rep = check_combinational_equivalence(a, b);
  EXPECT_FALSE(rep.equivalent);
  EXPECT_EQ(rep.tier_table, 1);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->inputs, (std::vector<std::uint8_t>{0, 0}));
  EXPECT_EQ(rep.cex->point, "z");
  EXPECT_TRUE(cex_witnesses_diff(a, b, *rep.cex));
}

TEST(Cec, CounterexampleDumpEscapesNames) {
  // VPGA_CEC_CEX_PATH receives a JSON document; names carrying quotes and
  // backslashes must be escaped so the dump parses back intact.
  Netlist a("de\"sign");
  Netlist b("de\"sign");
  {
    const NodeId x = a.add_input("x");
    const NodeId y = a.add_input("y");
    a.add_output(a.add_and(x, y), "o\"x\\y");
  }
  {
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    b.add_output(b.add_or(x, y), "o\"x\\y");
  }
  const std::string path = ::testing::TempDir() + "vpga_cec_cex_escape.json";
  std::remove(path.c_str());
  ::setenv("VPGA_CEC_CEX_PATH", path.c_str(), 1);
  VerifyReport r;
  check_cec(a, b, "post-map", r);
  ::unsetenv("VPGA_CEC_CEX_PATH");
  EXPECT_TRUE(r.fired("cec.output-diverges")) << r.summary();

  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "no counterexample dump at " << path;
  const std::string text((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  obs::json::Value doc;
  std::string err;
  ASSERT_TRUE(obs::json::parse(text, doc, &err)) << err << "\n" << text;
  ASSERT_NE(doc.find("design"), nullptr);
  ASSERT_NE(doc.find("point"), nullptr);
  EXPECT_EQ(doc.find("design")->string, "de\"sign");
  EXPECT_EQ(doc.find("point")->string, "o\"x\\y");
  EXPECT_EQ(doc.find("stage")->string, "post-map");
  std::remove(path.c_str());
}

TEST(Cec, InterfaceMismatchRefusesToCompare) {
  const Netlist small = designs::make_ripple_adder(4);
  const Netlist large = designs::make_ripple_adder(8);
  const CecReport rep = check_combinational_equivalence(small, large);
  EXPECT_FALSE(rep.interface_ok);
  EXPECT_FALSE(rep.proven());
}

TEST(Cec, ExhaustedBudgetReportsUnknownNotVerdict) {
  // With the sweep and BDD tiers disabled, the exhaustive tier capped below
  // the adders' support and a zero conflict budget, wide points must come
  // back unknown — never a wrong verdict.
  const Netlist ripple = designs::make_ripple_adder(16);
  const Netlist prefix = designs::make_prefix_adder(16);
  CecOptions opts;
  opts.sat_sweep = false;
  opts.bdd_tier = false;
  opts.max_exhaustive_inputs = 6;
  opts.sat_conflict_budget = 0;
  const CecReport rep = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_TRUE(rep.equivalent);  // nothing refuted...
  EXPECT_GT(rep.unknown, 0);    // ...but wide points are undecided
  EXPECT_FALSE(rep.proven());
  EXPECT_FALSE(rep.unknown_points.empty());
}

TEST(Cec, SweepCollapsesMappedDesign) {
  // Technology mapping rewrites the ALU into restricted cells; the sweep
  // must rediscover the internal equivalences and merge nodes across sides.
  const auto design = designs::make_alu(8);
  const auto arch = core::PlbArchitecture::granular();
  const auto mapped = synth::tech_map(design.netlist, synth::cell_target(arch),
                                      synth::Objective::kDelay);
  const CecReport rep = check_combinational_equivalence(design.netlist, mapped.netlist);
  EXPECT_TRUE(rep.proven()) << "ALU tech-map must prove exactly";
}

TEST(Cec, VerdictAndCounterexampleAreByteStable) {
  const Netlist golden = make_and_tree(40);
  const Netlist mutated = make_and_tree(40, /*mutate_at=*/3);
  const CecReport first = check_combinational_equivalence(golden, mutated);
  ASSERT_TRUE(first.cex.has_value());
  for (int i = 0; i < 3; ++i) {
    const CecReport again = check_combinational_equivalence(golden, mutated);
    ASSERT_TRUE(again.cex.has_value());
    EXPECT_EQ(again.cex->inputs, first.cex->inputs);
    EXPECT_EQ(again.cex->state, first.cex->state);
    EXPECT_EQ(again.cex->point_index, first.cex->point_index);
    EXPECT_EQ(again.equivalent, first.equivalent);
    EXPECT_EQ(again.sat_stats.conflicts, first.sat_stats.conflicts);
    EXPECT_EQ(again.sat_stats.decisions, first.sat_stats.decisions);
    EXPECT_EQ(again.sat_stats.propagations, first.sat_stats.propagations);
  }
}

TEST(Cec, ProofStatisticsAreByteStable) {
  const Netlist ripple = designs::make_ripple_adder(14);
  const Netlist prefix = designs::make_prefix_adder(14);
  const CecReport first = check_combinational_equivalence(ripple, prefix);
  EXPECT_TRUE(first.proven());
  const CecReport again = check_combinational_equivalence(ripple, prefix);
  EXPECT_EQ(again.tier_struct, first.tier_struct);
  EXPECT_EQ(again.tier_table, first.tier_table);
  EXPECT_EQ(again.tier_exhaustive, first.tier_exhaustive);
  EXPECT_EQ(again.tier_sat, first.tier_sat);
  EXPECT_EQ(again.sweep_merges, first.sweep_merges);
  EXPECT_EQ(again.sat_stats.conflicts, first.sat_stats.conflicts);
  EXPECT_EQ(again.sat_stats.propagations, first.sat_stats.propagations);
}

TEST(Cec, WideParityConeBeyondSatBudgetProvesByBdd) {
  // 128-input parity, forward vs shuffled fold: the XOR miter is an
  // expander-graph Tseitin formula, so with the BDD tier disabled the SAT
  // miter exhausts the *default* conflict budget (2^20 conflicts — this arm
  // deliberately burns them to prove the separation), while the default
  // ladder proves the same point in the BDD tier without a SAT fallback.
  const Netlist fwd = make_parity_chain(128, Fold::kForward);
  const Netlist shuf = make_parity_chain(128, Fold::kShuffled);
  CecOptions sat_only;
  sat_only.bdd_tier = false;
  sat_only.sat_sweep = false;
  const CecReport hard = check_combinational_equivalence(fwd, shuf, sat_only);
  EXPECT_TRUE(hard.equivalent);  // never a wrong verdict...
  EXPECT_GT(hard.unknown, 0);    // ...the point is undecided within budget
  EXPECT_FALSE(hard.proven());
  EXPECT_GE(hard.sat_stats.conflicts, CecOptions{}.sat_conflict_budget);

  const CecReport rep = check_combinational_equivalence(fwd, shuf);
  EXPECT_TRUE(rep.proven());
  EXPECT_EQ(rep.tier_bdd, 1);
  EXPECT_EQ(rep.bdd_fallbacks, 0);
  EXPECT_EQ(rep.unknown, 0);
}

TEST(Cec, ParityChainMutationRefutedByBddWithWitness) {
  // Complement one inner XOR of the reversed fold: the diff is parity-flipped
  // on every assignment touching that link, and the BDD tier must return a
  // replay-verified counterexample rather than just "not equal".
  const Netlist fwd = make_parity_chain(24, Fold::kForward);
  Netlist mutated = make_parity_chain(24, Fold::kReversed);
  for (const NodeId id : mutated.all_nodes()) {
    auto& n = mutated.node(id);
    if (n.type == netlist::NodeType::kComb) {
      n.func = ~n.func;  // XOR -> XNOR on the first chain link
      break;
    }
  }
  const CecReport rep = check_combinational_equivalence(fwd, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_TRUE(cex_witnesses_diff(fwd, mutated, *rep.cex));
}

TEST(Cec, PermutedRegistersRefuteWithReplayedWitness) {
  // Reverse the declaration order of the counter's registers: registers pair
  // by position, so bit 0 meets bit 7. Outputs are checked first and
  // count[0] reads register 0's Q, so the first divergence is that output,
  // with a witness the independent replay confirms.
  const Netlist golden = designs::make_counter(8);
  std::vector<std::size_t> perm(golden.dffs().size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  const Netlist revised = permute_registers(golden, perm);
  const CecReport rep = check_combinational_equivalence(golden, revised);
  EXPECT_TRUE(rep.interface_ok);
  EXPECT_FALSE(rep.equivalent);
  EXPECT_FALSE(rep.proven());
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_FALSE(rep.cex->is_state);
  EXPECT_EQ(rep.cex->point_index, 0u);
  EXPECT_TRUE(cex_witnesses_diff(golden, revised, *rep.cex));
}

TEST(Cec, PermutedPaperDesignRefutesWithReplayedWitness) {
  // A register-permuted Firewire controller (the sequential-dominated paper
  // design) fails the exact gate end to end via the check_cec wrapper with
  // one replay-confirmed divergence: its first output reads a register.
  const Netlist golden = designs::make_firewire(4, 8).netlist;
  ASSERT_GT(golden.dffs().size(), 1u);
  std::vector<std::size_t> perm(golden.dffs().size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  const Netlist revised = permute_registers(golden, perm);
  const CecReport rep = check_combinational_equivalence(golden, revised);
  EXPECT_FALSE(rep.proven());
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->point, "rd_data[0]");
  EXPECT_TRUE(cex_witnesses_diff(golden, revised, *rep.cex));

  VerifyReport r;
  check_cec(golden, revised, "test", r);
  EXPECT_EQ(r.error_count(), 1) << r.summary();
  EXPECT_TRUE(r.fired("cec.output-diverges")) << r.summary();
}

TEST(Cec, ForcedBddTierIsCompleteAndByteStable) {
  // force_bdd routes every point straight to the BDD tier (SAT remains only
  // as the exhaustion fallback); verdict and statistics must be byte-stable.
  const Netlist ripple = designs::make_ripple_adder(12);
  const Netlist prefix = designs::make_prefix_adder(12);
  CecOptions opts;
  opts.force_bdd = true;
  const CecReport first = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_TRUE(first.proven());
  EXPECT_EQ(first.tier_struct, 0);
  EXPECT_EQ(first.tier_table, 0);
  EXPECT_EQ(first.tier_exhaustive, 0);
  EXPECT_EQ(first.tier_bdd, first.checks);
  const CecReport again = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_EQ(again.bdd_nodes, first.bdd_nodes);
  EXPECT_EQ(again.bdd_ite_calls, first.bdd_ite_calls);
  EXPECT_EQ(again.bdd_cache_hits, first.bdd_cache_hits);
}

TEST(Cec, BddBudgetExhaustionFallsThroughToSat) {
  // A node budget too small for the adders' BDDs: the tier must give up
  // cleanly (bdd_fallbacks counts it) and SAT still proves the points.
  const Netlist ripple = designs::make_ripple_adder(12);
  const Netlist prefix = designs::make_prefix_adder(12);
  CecOptions opts;
  opts.force_bdd = true;
  opts.bdd_node_budget = 16;
  opts.sat_sweep = false;  // real per-point miters, so the fallback shows as tier_sat
  const CecReport rep = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_TRUE(rep.proven()) << "SAT fallback must close what the BDD budget cannot";
  EXPECT_GT(rep.bdd_fallbacks, 0);
  EXPECT_GT(rep.tier_sat, 0);
}

TEST(Cec, PaperSuiteMapsProveExactly) {
  // Every paper design survives technology mapping with an exact proof on
  // both architectures (the flow-level equivalent of the CI exact gate).
  for (const auto& arch : {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
    for (const auto& design : designs::paper_suite(0.2)) {
      const auto mapped =
          synth::tech_map(design.netlist, synth::cell_target(arch), synth::Objective::kDelay);
      const CecReport rep =
          check_combinational_equivalence(design.netlist, mapped.netlist);
      EXPECT_TRUE(rep.proven()) << design.netlist.name() << " on " << arch.name;
      EXPECT_EQ(rep.checks,
                static_cast<int>(design.netlist.outputs().size() + design.netlist.dffs().size()));
    }
  }
}

}  // namespace
}  // namespace vpga::verify
