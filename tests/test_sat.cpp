// Tests for the CDCL SAT solver (sat/solver.hpp): verdicts, models,
// assumptions, incremental reuse, conflict budgets and determinism.

#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace vpga::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, UnitPropagationFixesModel) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({neg(a), pos(b)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({neg(a)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_FALSE(s.ok());
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver s;
  (void)s.new_var();
  s.add_clause(std::initializer_list<Lit>{});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, DuplicateAndTautologicalLiterals) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(a), pos(a)});   // collapses to a unit
  s.add_clause({pos(b), neg(b), pos(a)});   // tautology, dropped
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, ModelSatisfiesEveryClause) {
  // 3-SAT instance with enough structure to force real search.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i + 2 < 12; ++i) {
    clauses.push_back({pos(v[i]), neg(v[i + 1]), pos(v[i + 2])});
    clauses.push_back({neg(v[i]), pos(v[i + 1]), neg(v[i + 2])});
  }
  for (const auto& c : clauses) s.add_clause(std::span<const Lit>(c));
  ASSERT_EQ(s.solve(), Result::kSat);
  for (const auto& c : clauses) {
    bool satisfied = false;
    for (const Lit l : c) satisfied |= s.model_value(l.var()) != l.negated();
    EXPECT_TRUE(satisfied);
  }
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons in n holes, classically
/// hard for resolution — exercises learning, restarts and VSIDS.
void add_pigeonhole(Solver& s, int pigeons, int holes, std::vector<std::vector<Var>>& at) {
  at.assign(static_cast<std::size_t>(pigeons), {});
  for (int p = 0; p < pigeons; ++p)
    for (int h = 0; h < holes; ++h) at[static_cast<std::size_t>(p)].push_back(s.new_var());
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> any;
    for (int h = 0; h < holes; ++h) any.push_back(pos(at[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    s.add_clause(std::span<const Lit>(any));
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({neg(at[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
                      neg(at[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)])});
}

TEST(SatSolver, PigeonholeIsUnsat) {
  Solver s;
  std::vector<std::vector<Var>> at;
  add_pigeonhole(s, 6, 5, at);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0);
}

TEST(SatSolver, PigeonholeExactFitIsSat) {
  Solver s;
  std::vector<std::vector<Var>> at;
  add_pigeonhole(s, 5, 5, at);
  ASSERT_EQ(s.solve(), Result::kSat);
  // The model must place every pigeon in a distinct hole.
  std::vector<int> hole_of(5, -1);
  for (int p = 0; p < 5; ++p) {
    for (int h = 0; h < 5; ++h) {
      if (!s.model_value(at[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)])) continue;
      EXPECT_EQ(hole_of[static_cast<std::size_t>(h)], -1);
      hole_of[static_cast<std::size_t>(h)] = p;
    }
  }
}

TEST(SatSolver, AssumptionsAreTemporary) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({neg(a), pos(b)});
  const Lit assume_a[1] = {pos(a)};
  ASSERT_EQ(s.solve(std::span<const Lit>(assume_a, 1)), Result::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  // A conflicting assumption pair is UNSAT without poisoning the solver.
  s.add_clause({neg(b), neg(a)});
  ASSERT_EQ(s.solve(std::span<const Lit>(assume_a, 1)), Result::kUnsat);
  EXPECT_TRUE(s.ok());  // only unsat *under the assumption*
  EXPECT_EQ(s.solve(), Result::kSat);  // still satisfiable without it
}

TEST(SatSolver, IncrementalSelectorRetirement) {
  // The CEC usage pattern: miters guarded by selector variables, retired by
  // unit clauses after each query.
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  s.add_clause({pos(x), pos(y)});
  const Lit sel1(s.new_var(), false);
  s.add_clause({~sel1, neg(x)});
  s.add_clause({~sel1, neg(y)});
  const Lit a1[1] = {sel1};
  EXPECT_EQ(s.solve(std::span<const Lit>(a1, 1)), Result::kUnsat);
  s.add_clause({~sel1});  // retire
  const Lit sel2(s.new_var(), false);
  s.add_clause({~sel2, neg(x)});
  const Lit a2[1] = {sel2};
  ASSERT_EQ(s.solve(std::span<const Lit>(a2, 1)), Result::kSat);
  EXPECT_FALSE(s.model_value(x));
  EXPECT_TRUE(s.model_value(y));
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  Solver s;
  std::vector<std::vector<Var>> at;
  add_pigeonhole(s, 8, 7, at);
  EXPECT_EQ(s.solve({}, 5), Result::kUnknown);
  EXPECT_LE(s.stats().conflicts, 64);  // stopped early, not after full search
  // The solver remains usable: the full-budget answer is still reachable.
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, VerdictAndStatsAreDeterministic) {
  auto run = [] {
    Solver s;
    std::vector<std::vector<Var>> at;
    add_pigeonhole(s, 6, 5, at);
    EXPECT_EQ(s.solve(), Result::kUnsat);
    return s.stats();
  };
  const SolverStats first = run();
  for (int i = 0; i < 3; ++i) {
    const SolverStats again = run();
    EXPECT_EQ(again.conflicts, first.conflicts);
    EXPECT_EQ(again.decisions, first.decisions);
    EXPECT_EQ(again.propagations, first.propagations);
    EXPECT_EQ(again.restarts, first.restarts);
    EXPECT_EQ(again.learned_clauses, first.learned_clauses);
  }
}

TEST(SatSolver, ModelIsDeterministic) {
  auto run = [] {
    Solver s;
    std::vector<Var> v;
    for (int i = 0; i < 16; ++i) v.push_back(s.new_var());
    for (int i = 0; i + 2 < 16; i += 2)
      s.add_clause({Lit(v[static_cast<std::size_t>(i)], false),
                    Lit(v[static_cast<std::size_t>(i + 1)], true),
                    Lit(v[static_cast<std::size_t>(i + 2)], false)});
    EXPECT_EQ(s.solve(), Result::kSat);
    std::vector<bool> model;
    for (const Var var : v) model.push_back(s.model_value(var));
    return model;
  };
  EXPECT_EQ(run(), run());
}

/// A random Tseitin circuit of 2-input gates over `inputs` leaves, encoded
/// identically into every solver of `solvers`. kids[g] are gate g's fanin
/// variables, funcs[g] its 4-row truth table.
struct Circuit {
  std::vector<Var> vars;  ///< leaves first, then one per gate
  std::vector<std::pair<std::size_t, std::size_t>> kids;
  std::vector<unsigned> funcs;
  std::size_t leaves = 0;

  [[nodiscard]] bool eval_gate(std::size_t g, bool a, bool b) const {
    return ((funcs[g] >> ((a ? 1u : 0u) | (b ? 2u : 0u))) & 1u) != 0;
  }
};

Circuit make_circuit(std::initializer_list<Solver*> solvers, std::size_t inputs, int gates) {
  Circuit c;
  c.leaves = inputs;
  std::uint64_t rng = 0x5C0BEDull;
  auto next = [&rng](std::uint64_t n) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::size_t>((rng >> 33) % n);
  };
  for (std::size_t i = 0; i < inputs; ++i) {
    Var x = 0;
    for (Solver* s : solvers) x = s->new_var();  // lockstep: same index everywhere
    c.vars.push_back(x);
  }
  for (int g = 0; g < gates; ++g) {
    const std::size_t a = next(c.vars.size());
    const std::size_t b = next(c.vars.size());
    const unsigned f = 1u + static_cast<unsigned>(next(14));  // never constant
    c.kids.emplace_back(a, b);
    c.funcs.push_back(f);
    Var y = 0;
    for (Solver* s : solvers) y = s->new_var();
    c.vars.push_back(y);
    const std::size_t gi = c.kids.size() - 1;
    for (unsigned r = 0; r < 4; ++r) {
      const bool ra = (r & 1u) != 0, rb = (r & 2u) != 0;
      const Lit out(y, !c.eval_gate(gi, ra, rb));
      for (Solver* s : solvers) s->add_clause({Lit(c.vars[a], ra), Lit(c.vars[b], rb), out});
    }
  }
  return c;
}

TEST(SatSolver, ScopedSolveStopsAtTheConeAndKeepsVerdicts) {
  // Miters between gate pairs of one random circuit, solved in full on one
  // solver and scoped to the pair's fanin cone on an identical one: the
  // verdicts agree, and a scoped model satisfies every gate of the cone.
  Solver full, scoped;
  const Circuit c = make_circuit({&full, &scoped}, 6, 40);
  // A clause over two variables no gate reads: a complete model must make
  // one of them true, a scoped one never touches them.
  Var y = 0, w = 0;
  for (Solver* s : {&full, &scoped}) {
    y = s->new_var();
    w = s->new_var();
    s->add_clause({Lit(y, false), Lit(w, false)});
  }
  int sats = 0, unsats = 0;
  for (std::size_t i = c.leaves; i < c.vars.size(); i += 3) {
    const std::size_t j = c.vars.size() - 1 - (i - c.leaves) / 2;
    std::vector<Var> scope;
    std::vector<bool> in_cone(c.vars.size(), false);
    std::vector<std::size_t> stack = {i, j};
    while (!stack.empty()) {
      const std::size_t n = stack.back();
      stack.pop_back();
      if (in_cone[n]) continue;
      in_cone[n] = true;
      scope.push_back(c.vars[n]);
      if (n >= c.leaves) {
        stack.push_back(c.kids[n - c.leaves].first);
        stack.push_back(c.kids[n - c.leaves].second);
      }
    }
    Result verdict[2] = {};
    for (int k = 0; k < 2; ++k) {
      Solver& s = k == 0 ? full : scoped;
      const Lit sel(s.new_var(), false);
      s.add_clause({~sel, pos(c.vars[i]), pos(c.vars[j])});
      s.add_clause({~sel, neg(c.vars[i]), neg(c.vars[j])});
      const Lit assume[1] = {sel};
      verdict[k] = k == 0 ? s.solve(std::span<const Lit>(assume, 1))
                          : s.solve(std::span<const Lit>(assume, 1), -1, scope);
      if (verdict[k] == Result::kSat && k == 1) {
        ++sats;
        EXPECT_NE(s.model_value(c.vars[i]), s.model_value(c.vars[j]));
        for (std::size_t n = c.leaves; n < c.vars.size(); ++n) {
          if (!in_cone[n]) continue;
          const auto [a, b] = c.kids[n - c.leaves];
          EXPECT_EQ(s.model_value(c.vars[n]),
                    c.eval_gate(n - c.leaves, s.model_value(c.vars[a]), s.model_value(c.vars[b])));
        }
        EXPECT_FALSE(s.model_value(y) || s.model_value(w)) << "left unassigned";
      }
      if (verdict[k] == Result::kSat && k == 0) {
        EXPECT_TRUE(s.model_value(y) || s.model_value(w));
      }
      s.add_clause({~sel});
    }
    EXPECT_EQ(verdict[0], verdict[1]) << "gates " << i << ", " << j;
    unsats += verdict[1] == Result::kUnsat ? 1 : 0;
  }
  EXPECT_GT(sats, 0);
  EXPECT_GT(unsats, 0);
  // An unscoped solve after scoped ones still finds a complete model.
  ASSERT_EQ(scoped.solve(), Result::kSat);
  EXPECT_TRUE(scoped.model_value(y) || scoped.model_value(w));
}

TEST(SatSolver, LubySequence) {
  // luby: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  const long long expect[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (int i = 0; i < 15; ++i) EXPECT_EQ(luby(i), expect[i]) << i;
}

}  // namespace
}  // namespace vpga::sat
