#pragma once
/// \file bitsim.hpp
/// Bit-parallel (64-pattern), cycle-accurate netlist simulation and
/// exhaustive equivalence checking.
///
/// Each node value is a 64-bit word holding 64 independent input patterns, so
/// a combinational netlist with n <= ~20 inputs can be checked against a
/// reference *exhaustively* (2^n patterns, 64 at a time) in milliseconds —
/// turning the synthesis pipeline's equivalence tests from sampling into
/// proof for adder/mux-sized cones. This is the project's only netlist
/// simulator: random co-simulation (verify/equiv), power activity
/// (timing/power) and CEC's exhaustive tier all run on it. A scalar
/// simulation is one lane of it: broadcast each input bit to the whole word
/// and read bit 0.

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"

namespace vpga::netlist {

/// Evaluates 64 input patterns at once through the combinational logic.
/// Keeps one state word per DFF (indexed like nl.dffs()): eval() drives each
/// DFF output from it, and a single global clock edge (step()) captures every
/// D word into it. State starts at, and reset() returns it to, all zeros.
class BitSimulator {
 public:
  explicit BitSimulator(const Netlist& nl);

  /// Sets the 64-pattern word of primary input i.
  void set_input(std::size_t i, std::uint64_t patterns);
  /// Sets the 64-pattern state word of DFF d (its output in the next eval()).
  void set_state(std::size_t d, std::uint64_t patterns);
  /// Propagates inputs and DFF state through all combinational logic.
  void eval();
  /// Clock edge: every DFF captures its D word. Call after eval().
  void step();
  /// Resets all DFF state to 0.
  void reset();

  [[nodiscard]] std::uint64_t output(std::size_t i) const;
  [[nodiscard]] std::uint64_t value(NodeId id) const { return values_[id.index()]; }
  /// 64-pattern word of DFF d's next-state (D pin) after eval().
  [[nodiscard]] std::uint64_t next_state(std::size_t d) const;

 private:
  const Netlist& nl_;
  std::vector<NodeId> order_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> state_;  // per-DFF (indexed like nl.dffs())
};

/// The one exhaustive sweep: evaluates two registerless netlists with the
/// same PI/PO interface on all 2^n input assignments, 64 per eval, and
/// returns the first row (bit j = input j) on which any output differs, or
/// nullopt when every row agrees. Cost 2^n / 64 evaluations; asserts on
/// registers, an interface difference or n >= 64.
[[nodiscard]] std::optional<std::uint64_t> exhaustive_mismatch(const Netlist& a,
                                                               const Netlist& b);

/// Exhaustively proves combinational equivalence of two registerless
/// netlists: exhaustive_mismatch behind an interface check. Returns false on
/// a PI/PO count difference, more than max_inputs inputs, or any mismatch.
bool exhaustive_equivalent(const Netlist& a, const Netlist& b, int max_inputs = 22);

}  // namespace vpga::netlist
