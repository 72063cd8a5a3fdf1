#pragma once
/// \file solver.hpp
/// Dependency-free CDCL SAT solver for the exact-equivalence engine.
///
/// A deliberately small MiniSat-style solver: two-watched-literal
/// propagation, first-UIP conflict learning, VSIDS-lite branching (activity
/// decay with lowest-index tie-breaks), phase saving, and Luby restarts.
/// Everything is deterministic by construction — no wall-clock, no pointer
/// ordering, no random numbers — so a given clause set produces byte-stable
/// verdicts, statistics, and models across runs and across threads. That is
/// the property the verify layer's `cec.*` gate advertises (docs/VERIFY.md)
/// and tests/test_determinism-style repeat/parallel comparisons rely on.
///
/// The solver is incremental in the assumption style: clauses accumulate
/// across solve() calls and each call may pin a set of assumption literals
/// (the CEC uses one selector literal per miter output so learned clauses
/// transfer between outputs). A per-call conflict budget turns
/// would-be-timeouts into an explicit Result::kUnknown instead of unbounded
/// runtime. A scoped solve branches only on a caller-given variable set (the
/// fanin cone of a circuit miter) and answers SAT once that set is assigned.

#include <cstdint>
#include <span>
#include <vector>

namespace vpga::sat {

/// 0-based propositional variable index.
using Var = std::uint32_t;

/// A literal: variable plus sign, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated) : code_(2 * v + (negated ? 1u : 0u)) {}

  [[nodiscard]] constexpr Var var() const { return code_ >> 1; }
  [[nodiscard]] constexpr bool negated() const { return (code_ & 1u) != 0; }
  [[nodiscard]] constexpr std::uint32_t code() const { return code_; }
  [[nodiscard]] constexpr bool valid() const { return code_ != kInvalidCode; }

  [[nodiscard]] constexpr Lit operator~() const { return from_code(code_ ^ 1u); }
  friend constexpr bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend constexpr bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }
  friend constexpr bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

  static constexpr Lit from_code(std::uint32_t c) {
    Lit l;
    l.code_ = c;
    return l;
  }

 private:
  static constexpr std::uint32_t kInvalidCode = 0xFFFFFFFFu;
  std::uint32_t code_ = kInvalidCode;
};

enum class Result : std::uint8_t {
  kSat,      ///< satisfying assignment found (model available)
  kUnsat,    ///< no assignment satisfies clauses + assumptions
  kUnknown,  ///< conflict budget exhausted before a verdict
};

/// Cumulative search statistics (monotone across solve() calls). Exported as
/// the `sat.*` flow counters; deterministic like everything else here.
struct SolverStats {
  long long conflicts = 0;
  long long decisions = 0;
  long long propagations = 0;
  long long restarts = 0;
  long long learned_clauses = 0;
};

/// One CDCL solver instance over an append-only clause database.
class Solver {
 public:
  Solver();

  /// Creates a fresh unassigned variable and returns its index.
  Var new_var();
  [[nodiscard]] std::size_t num_vars() const { return activity_.size(); }

  /// Adds a clause (callable only at decision level 0, i.e. outside solve()).
  /// Returns false when the clause set became trivially unsatisfiable.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Solves the current clause set under the given assumptions. A
  /// non-negative `conflict_budget` bounds the conflicts spent in *this*
  /// call; exceeding it returns kUnknown (the solver state stays valid and
  /// later calls may retry with a larger budget).
  Result solve(std::span<const Lit> assumptions = {}, long long conflict_budget = -1);

  /// Scoped solve: decides only assumptions and variables of `scope`, and
  /// returns kSat as soon as every scope variable is assigned without
  /// conflict; variables outside the scope may stay unassigned in the model
  /// (model_value reads them as false). kUnsat and kUnknown mean what they
  /// mean for solve(). Sound when every conflict-free assignment of the scope
  /// extends to a model of the whole clause set — true for a Tseitin-encoded
  /// circuit whose scope is the transitive fanin of the miter literals: the
  /// gate clauses outside it extend by simulation, and learned clauses are
  /// implied by the rest.
  Result solve(std::span<const Lit> assumptions, long long conflict_budget,
               std::span<const Var> scope);

  /// Model access, valid after a solve() that returned kSat.
  [[nodiscard]] bool model_value(Var v) const { return model_[v] == 1; }

  [[nodiscard]] const SolverStats& stats() const { return stats_; }
  /// False once the clause set is unsatisfiable independent of assumptions.
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  static constexpr std::uint32_t kNoClause = 0xFFFFFFFFu;

  struct Watch {
    std::uint32_t cref = 0;  ///< arena index of the clause header
    Lit blocker;             ///< cached literal; true => clause satisfied
  };

  [[nodiscard]] int value(Lit l) const {  // 1 true, 0 false, -1 unassigned
    const std::int8_t a = assigns_[l.var()];
    return a < 0 ? -1 : (a ^ static_cast<std::int8_t>(l.negated() ? 1 : 0));
  }
  [[nodiscard]] std::size_t decision_level() const { return trail_lim_.size(); }

  std::uint32_t alloc_clause(std::span<const Lit> lits, bool learnt);
  void watch_clause(std::uint32_t cref);
  void enqueue(Lit l, std::uint32_t reason);
  std::uint32_t propagate();
  void analyze(std::uint32_t confl, std::vector<Lit>& out_learnt, std::size_t& out_btlevel);
  void cancel_until(std::size_t level);
  void bump_var(Var v);
  void decay_activities();
  [[nodiscard]] Lit pick_branch();
  Result search(std::span<const Lit> assumptions, long long conflict_budget);
  void begin_scope();
  void add_to_scope(Var v);
  [[nodiscard]] bool in_scope(Var v) const { return scope_stamp_[v] == scope_epoch_; }

  // Variable-order max-heap keyed by (activity desc, index asc).
  [[nodiscard]] bool order_less(Var a, Var b) const {
    return activity_[a] > activity_[b] || (activity_[a] == activity_[b] && a < b);
  }
  void heap_insert(Var v);
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);
  Var heap_pop();

  bool ok_ = true;
  /// Clause arena: [size, lit codes...] records, refs are header indices.
  /// Append-only, so crefs stay stable across learning.
  std::vector<std::uint32_t> arena_;
  std::vector<std::vector<Watch>> watches_;  ///< indexed by literal code of the *falsified* literal
  std::vector<std::int8_t> assigns_;         ///< per var: -1 unassigned, 0 false, 1 true
  std::vector<std::int8_t> polarity_;        ///< per var: saved phase (last assigned value)
  std::vector<std::uint32_t> reason_;        ///< per var: implying clause or kNoClause
  std::vector<std::uint32_t> level_;         ///< per var: decision level of assignment
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;     ///< trail size at each decision level
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<std::uint32_t> heap_;          ///< variable-order heap over the scope
  std::vector<std::int32_t> heap_pos_;       ///< per var: heap index or -1
  /// Per var: the scope_epoch_ of the last solve whose scope held it (an
  /// unscoped solve's scope is every variable).
  std::vector<std::uint32_t> scope_stamp_;
  std::uint32_t scope_epoch_ = 0;

  std::vector<std::int8_t> model_;           ///< assignment snapshot of the last kSat
  std::vector<std::int8_t> seen_;            ///< analyze() scratch
  std::vector<Lit> learnt_scratch_;
  std::vector<Lit> add_scratch_;
  SolverStats stats_;
};

/// Deterministic Luby restart sequence value (1, 1, 2, 1, 1, 2, 4, ...).
[[nodiscard]] long long luby(long long i);

}  // namespace vpga::sat
