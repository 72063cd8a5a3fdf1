#include "netlist/bitsim.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace vpga::netlist {

BitSimulator::BitSimulator(const Netlist& nl)
    : nl_(nl), order_(nl.topo_order()), values_(nl.num_nodes(), 0),
      state_(nl.dffs().size(), 0) {
  for (NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    if (n.type == NodeType::kConst)
      values_[id.index()] = (n.func.bits() & 1) ? ~std::uint64_t{0} : 0;
  }
}

void BitSimulator::set_input(std::size_t i, std::uint64_t patterns) {
  VPGA_ASSERT(i < nl_.inputs().size());
  values_[nl_.inputs()[i].index()] = patterns;
}

void BitSimulator::set_state(std::size_t d, std::uint64_t patterns) {
  VPGA_ASSERT(d < state_.size());
  state_[d] = patterns;
}

void BitSimulator::eval() {
  for (std::size_t d = 0; d < state_.size(); ++d) values_[nl_.dffs()[d].index()] = state_[d];
  for (NodeId id : order_) {
    const Node& n = nl_.node(id);
    const auto fins = nl_.fanins(id);
    if (n.type == NodeType::kOutput) {
      values_[id.index()] = values_[fins[0].index()];
      continue;
    }
    // Evaluate the truth table bitwise over the fanin words: for each row r
    // of the table, AND together fanin words in the row's polarities and OR
    // into the result when f(r) = 1.
    std::uint64_t out = 0;
    const int rows = n.func.num_rows();
    for (int r = 0; r < rows; ++r) {
      if (!n.func.eval(static_cast<unsigned>(r))) continue;
      std::uint64_t term = ~std::uint64_t{0};
      for (std::size_t k = 0; k < fins.size(); ++k) {
        const std::uint64_t v = values_[fins[k].index()];
        term &= (r >> k) & 1 ? v : ~v;
      }
      out |= term;
    }
    values_[id.index()] = out;
  }
}

void BitSimulator::step() {
  for (std::size_t d = 0; d < state_.size(); ++d) state_[d] = next_state(d);
}

void BitSimulator::reset() { std::fill(state_.begin(), state_.end(), 0); }

std::uint64_t BitSimulator::output(std::size_t i) const {
  VPGA_ASSERT(i < nl_.outputs().size());
  return values_[nl_.outputs()[i].index()];
}

std::uint64_t BitSimulator::next_state(std::size_t d) const {
  VPGA_ASSERT(d < nl_.dffs().size());
  const NodeId din = nl_.fanin(nl_.dffs()[d], 0);
  VPGA_ASSERT_MSG(din.valid(), "DFF left unconnected");
  return values_[din.index()];
}

std::optional<std::uint64_t> exhaustive_mismatch(const Netlist& a, const Netlist& b) {
  VPGA_ASSERT_MSG(a.dffs().empty() && b.dffs().empty(),
                  "exhaustive_mismatch is combinational-only");
  VPGA_ASSERT(a.inputs().size() == b.inputs().size());
  VPGA_ASSERT(a.outputs().size() == b.outputs().size());
  const int n = static_cast<int>(a.inputs().size());
  VPGA_ASSERT(n < 64);

  BitSimulator sa(a), sb(b);
  // Inputs 0..5 cycle within one 64-pattern word (lane t holds bit i of t);
  // inputs >= 6 come from the block index, so one eval covers rows
  // blk * 64 .. blk * 64 + 63 and the first differing lane is the first
  // differing row. With n < 6 the word repeats every 2^n lanes, so that lane
  // is below 2^n.
  static constexpr std::uint64_t kLane[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  for (int i = 0; i < std::min(n, 6); ++i) {
    sa.set_input(static_cast<std::size_t>(i), kLane[i]);
    sb.set_input(static_cast<std::size_t>(i), kLane[i]);
  }
  const std::uint64_t blocks = n > 6 ? (std::uint64_t{1} << (n - 6)) : 1;
  for (std::uint64_t blk = 0; blk < blocks; ++blk) {
    for (int i = 6; i < n; ++i) {
      const std::uint64_t w = ((blk >> (i - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0;
      sa.set_input(static_cast<std::size_t>(i), w);
      sb.set_input(static_cast<std::size_t>(i), w);
    }
    sa.eval();
    sb.eval();
    std::uint64_t diff = 0;
    for (std::size_t o = 0; o < a.outputs().size(); ++o) diff |= sa.output(o) ^ sb.output(o);
    if (diff != 0) return blk * 64 + static_cast<std::uint64_t>(std::countr_zero(diff));
  }
  return std::nullopt;
}

bool exhaustive_equivalent(const Netlist& a, const Netlist& b, int max_inputs) {
  if (a.inputs().size() != b.inputs().size()) return false;
  if (a.outputs().size() != b.outputs().size()) return false;
  if (static_cast<int>(a.inputs().size()) > max_inputs) return false;
  return !exhaustive_mismatch(a, b).has_value();
}

}  // namespace vpga::netlist
