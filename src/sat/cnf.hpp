#pragma once
/// \file cnf.hpp
/// Tseitin encoding of netlist cones into a shared CNF miter.
///
/// A MiterEncoder owns the variable spaces for one golden/revised netlist
/// pair over one Solver. The two netlists share leaf variables by interface
/// position — one SAT variable per primary-input index and one per DFF index
/// (the Q pin's current value) — so encoding a driver from each side and
/// constraining the two result literals to differ is exactly the per-output
/// miter. Interior gates get Tseitin variables with full row clauses
/// (arity <= 6, so at most 64 clauses per gate), after constant/buffer/
/// inverter folding and structural hashing: two gates with the same function
/// word and the same fanin literals — on either side — share one variable,
/// which is what makes identical regions of the pre/post-stage netlists
/// collapse before the solver ever sees them.
///
/// Variable allocation follows construction + encode order only, so CNFs,
/// and therefore verdicts and models, are byte-stable across runs.
///
/// The encoder remembers each gate variable's fanin literals, so cone() can
/// hand a miter's transitive fanin to Solver's scoped solve.

#include <cstdint>
#include <vector>

#include "common/fnmap.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace vpga::sat {

class MiterEncoder {
 public:
  enum class Side : std::uint8_t { kGolden = 0, kRevised = 1 };

  /// Both netlists must agree on inputs().size() and dffs().size() (the CEC
  /// interface check runs first and refuses mismatched pairs). Input i and
  /// DFF d of the revised netlist share the leaf variable of input i and DFF
  /// d of the golden one.
  MiterEncoder(const netlist::Netlist& golden, const netlist::Netlist& revised, Solver& solver);

  /// Encodes the cone rooted at `node` (a comb node, constant, input, or DFF
  /// — not an output shell) and returns the literal holding its value.
  /// Memoized per side; repeated calls are cheap.
  Lit encode(Side side, netlist::NodeId node);

  /// Shared leaf literals, for counterexample extraction from the model.
  [[nodiscard]] Lit input_lit(std::size_t input_index) const { return input_lits_[input_index]; }
  [[nodiscard]] Lit state_lit(std::size_t state_index) const { return state_lits_[state_index]; }
  [[nodiscard]] std::size_t num_inputs() const { return input_lits_.size(); }
  [[nodiscard]] std::size_t num_states() const { return state_lits_.size(); }

  /// The lazily-created constant literal (a fresh variable pinned by a unit
  /// clause on first use).
  Lit const_lit(bool value);

  /// Overrides the literal memoized for `node` — the SAT-sweeping hook: once
  /// the CEC proves a node equal to an earlier literal (possibly from the
  /// other side), rebinding collapses every not-yet-encoded fanout onto the
  /// proven representative.
  void set_lit(Side side, netlist::NodeId node, Lit lit) {
    sides_[static_cast<int>(side)].lit_of[node.index()] = lit.code();
  }

  /// Collects into `out` the variables of the transitive fanin of `a` and
  /// `b` over the gates encoded so far (each variable once, `a` and `b`
  /// included) — the scope of a scoped miter solve between them.
  void cone(Lit a, Lit b, std::vector<Var>& out);

 private:
  struct SideState {
    const netlist::Netlist* nl = nullptr;
    /// Per node index: literal code, or kUnset.
    std::vector<std::uint32_t> lit_of;
  };
  static constexpr std::uint32_t kUnset = 0xFFFFFFFFu;

  void bind_leaves(SideState& ss);
  Lit encode_comb(const netlist::Node& n, SideState& ss, netlist::NodeId id);

  Solver& solver_;
  SideState sides_[2];
  std::vector<Lit> input_lits_;
  std::vector<Lit> state_lits_;
  Lit true_lit_;  ///< invalid until const_lit() first runs
  common::FnKeyMap hashcons_;
  /// Per variable: offset of its gate record in gate_kids_ (arity, then the
  /// fanin literal codes), or kUnset for leaves and variables the encoder did
  /// not create.
  std::vector<std::uint32_t> gate_at_;
  std::vector<std::uint32_t> gate_kids_;
  std::vector<std::uint32_t> cone_mark_;  ///< per variable: last cone() epoch
  std::uint32_t cone_epoch_ = 0;
  // Encode-loop scratch, hoisted so the hot path never allocates.
  std::vector<netlist::NodeId> stack_;
  std::vector<Var> var_stack_;
  std::vector<Lit> kid_buf_;
  std::vector<Lit> clause_buf_;
};

}  // namespace vpga::sat
