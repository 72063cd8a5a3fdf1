#include "netlist/io.hpp"

#include <charconv>
#include <fstream>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace vpga::netlist {
namespace {

const char* cell_token(library::CellKind k) { return library::to_string(k); }

bool parse_cell(const std::string& s, library::CellKind& out) {
  for (int i = 0; i < library::kNumCellKinds; ++i) {
    const auto k = static_cast<library::CellKind>(i);
    if (s == library::to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// Parses all of `text` as an unsigned integer in `base` no larger than
/// `max`; a sign, a prefix, trailing characters or an out-of-range value fail.
bool parse_unsigned(std::string_view text, std::uint64_t max, std::uint64_t& out,
                    int base = 10) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
  return ec == std::errc() && ptr == end && out <= max;
}

/// The order write_netlist emits nodes in: least id first among the nodes
/// whose constraints are met, where a comb or output node follows its
/// fanins and an output follows the previous output. A netlist the reader
/// already accepts keeps its order, and inputs, registers and outputs keep
/// their relative order in any case. Buffer insertion rewires readers to
/// buffers appended after them, so creation order is not always loadable.
std::vector<NodeId> write_order(const Netlist& nl) {
  const std::size_t n = nl.num_nodes();
  std::vector<int> pending(n, 0);
  std::vector<std::vector<std::uint32_t>> waiting(n);  // nodes each one unblocks
  NodeId last_output;
  for (NodeId id : nl.all_nodes()) {
    const NodeType t = nl.node(id).type;
    if (t != NodeType::kComb && t != NodeType::kOutput) continue;
    for (NodeId fi : nl.fanins(id)) {
      if (!fi.valid()) continue;
      ++pending[id.index()];
      waiting[fi.index()].push_back(id.value());
    }
    if (t == NodeType::kOutput) {
      if (last_output.valid()) {
        ++pending[id.index()];
        waiting[last_output.index()].push_back(id.value());
      }
      last_output = id;
    }
  }
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> ready;
  for (NodeId id : nl.all_nodes())
    if (pending[id.index()] == 0) ready.push(id.value());
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId id(ready.top());
    ready.pop();
    order.push_back(id);
    for (std::uint32_t r : waiting[id.index()])
      if (--pending[r] == 0) ready.push(r);
  }
  VPGA_ASSERT_MSG(order.size() == n, "write_netlist: combinational cycle");
  return order;
}

}  // namespace

void write_netlist(std::ostream& os, const Netlist& nl) {
  os << "vpga-netlist 1\n";
  if (!nl.name().empty()) os << "name " << nl.name() << "\n";
  const std::vector<NodeId> order = write_order(nl);
  std::vector<std::uint32_t> new_id(nl.num_nodes());
  for (std::size_t k = 0; k < order.size(); ++k)
    new_id[order[k].index()] = static_cast<std::uint32_t>(k);
  const auto ref = [&](NodeId id) { return new_id[id.index()]; };
  for (std::size_t k = 0; k < order.size(); ++k) {
    const NodeId id = order[k];
    const Node& n = nl.node(id);
    const std::string& name = nl.name_of(id);
    os << "node " << k << ' ';
    switch (n.type) {
      case NodeType::kInput:
        os << "input " << name;
        break;
      case NodeType::kConst:
        os << "const " << (n.func.bits() & 1);
        break;
      case NodeType::kOutput:
        os << "output " << ref(nl.fanin(id, 0)) << ' ' << name;
        break;
      case NodeType::kDff: {
        const NodeId d = nl.fanin(id, 0);
        os << "dff " << (d.valid() ? static_cast<long long>(ref(d)) : -1LL);
        if (!name.empty()) os << " name=" << name;
        break;
      }
      case NodeType::kComb: {
        os << "comb " << n.func.num_vars() << ' ' << std::hex << n.func.bits() << std::dec;
        for (NodeId fi : nl.fanins(id)) os << ' ' << ref(fi);
        if (n.cell) os << " cell=" << cell_token(*n.cell);
        if (n.has_config()) os << " config=" << static_cast<int>(n.config_tag);
        if (n.in_macro()) os << " macro=" << ref(n.macro_rep);
        if (!name.empty()) os << " name=" << name;
        break;
      }
    }
    os << '\n';
  }
  os << "end\n";
}

bool save_netlist(const std::string& path, const Netlist& nl) {
  std::ofstream os(path);
  if (!os) return false;
  write_netlist(os, nl);
  return static_cast<bool>(os);
}

ParseResult read_netlist(std::istream& is) {
  ParseResult result;
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    result.ok = false;
    result.error = "line " + std::to_string(lineno) + ": " + msg;
    return result;
  };

  if (!std::getline(is, line) || line != "vpga-netlist 1") {
    lineno = 1;
    return fail("missing 'vpga-netlist 1' header");
  }
  lineno = 1;

  Netlist nl;
  bool saw_end = false;
  // Deferred fixups: DFF D-pins may reference later nodes.
  std::vector<std::pair<NodeId, std::uint32_t>> dff_fixups;
  dff_fixups.reserve(64);
  // Deferred range checks: a macro representative may be a later node.
  // (line number, macro id)
  std::vector<std::pair<int, std::uint64_t>> macro_refs;
  macro_refs.reserve(64);
  // Scratch reused across node lines (fanin lists are tiny but frequent).
  std::vector<NodeId> fanins;
  fanins.reserve(logic::TruthTable::kMaxVars);

  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    if (kw == "name") {
      std::string nm;
      ls >> nm;
      nl = Netlist(nm);
      continue;
    }
    if (kw == "end") {
      saw_end = true;
      break;
    }
    if (kw != "node") return fail("expected 'node', 'name' or 'end'");

    std::uint32_t id;
    std::string type;
    if (!(ls >> id >> type)) return fail("malformed node line");
    if (id != nl.num_nodes())
      return fail("node ids must be dense and ordered (got " + std::to_string(id) + ")");

    if (type == "input") {
      std::string nm;
      ls >> nm;
      nl.add_input(nm);
    } else if (type == "const") {
      int v;
      if (!(ls >> v) || (v != 0 && v != 1)) return fail("const needs 0 or 1");
      nl.add_constant(v == 1);
    } else if (type == "output") {
      std::uint32_t driver;
      std::string nm;
      if (!(ls >> driver >> nm)) return fail("output needs driver and name");
      if (driver >= id) return fail("output driver must be an earlier node");
      nl.add_output(NodeId(driver), nm);
    } else if (type == "dff") {
      long long d;
      if (!(ls >> d)) return fail("dff needs a D id (or -1)");
      const NodeId ff = nl.add_dff(NodeId{});
      if (d >= 0) dff_fixups.emplace_back(ff, static_cast<std::uint32_t>(d));
      std::string attr;
      while (ls >> attr) {
        if (attr.rfind("name=", 0) != 0) return fail("unknown attribute '" + attr + "'");
        nl.set_name(ff, attr.substr(5));
      }
    } else if (type == "comb") {
      int nvars;
      std::string bits_hex;
      if (!(ls >> nvars >> bits_hex) || nvars < 0 || nvars > logic::TruthTable::kMaxVars)
        return fail("comb needs arity and hex truth table");
      // An arity-n table has 2^n rows: no bit may be set at row 2^n or above.
      const std::uint64_t rows_mask = nvars < logic::TruthTable::kMaxVars
                                          ? (std::uint64_t{1} << (1 << nvars)) - 1
                                          : std::numeric_limits<std::uint64_t>::max();
      std::uint64_t bits = 0;
      if (!parse_unsigned(bits_hex, rows_mask, bits, 16))
        return fail("'" + bits_hex + "' is not a hex truth table of " +
                    std::to_string(1 << nvars) + " rows");
      fanins.clear();
      for (int i = 0; i < nvars; ++i) {
        std::uint32_t fi;
        if (!(ls >> fi)) return fail("comb expects " + std::to_string(nvars) + " fanins");
        if (fi >= id) return fail("comb fanins must be earlier nodes");
        fanins.emplace_back(fi);
      }
      const NodeId c = nl.add_comb(logic::TruthTable(nvars, bits), fanins);
      std::string attr;
      while (ls >> attr) {
        if (attr.rfind("cell=", 0) == 0) {
          library::CellKind k;
          if (!parse_cell(attr.substr(5), k)) return fail("unknown cell '" + attr + "'");
          nl.node(c).cell = k;
        } else if (attr.rfind("config=", 0) == 0) {
          std::uint64_t tag = 0;
          if (!parse_unsigned(std::string_view(attr).substr(7), 255, tag))
            return fail("'" + attr + "' is not a config tag in 0..255");
          nl.node(c).config_tag = static_cast<std::uint8_t>(tag);
        } else if (attr.rfind("macro=", 0) == 0) {
          std::uint64_t rep = 0;
          if (!parse_unsigned(std::string_view(attr).substr(6),
                              std::numeric_limits<std::uint32_t>::max(), rep))
            return fail("'" + attr + "' is not a node of the netlist");
          nl.node(c).macro_rep = NodeId(static_cast<std::uint32_t>(rep));
          macro_refs.emplace_back(lineno, rep);
        } else if (attr.rfind("name=", 0) == 0) {
          nl.set_name(c, attr.substr(5));
        } else {
          return fail("unknown attribute '" + attr + "'");
        }
      }
    } else {
      return fail("unknown node type '" + type + "'");
    }
  }
  if (!saw_end) return fail("missing 'end'");

  for (const auto& [ff, d] : dff_fixups) {
    if (d >= nl.num_nodes()) return fail("dff D id out of range");
    nl.set_dff_input(ff, NodeId(d));
  }
  for (const auto& [at, rep] : macro_refs) {
    if (rep >= nl.num_nodes()) {
      lineno = at;
      return fail("'macro=" + std::to_string(rep) + "' is not a node of the netlist");
    }
  }
  const auto check = nl.check();
  if (!check.ok) return fail("netlist check failed: " + check.message);
  result.ok = true;
  result.netlist = std::move(nl);
  return result;
}

ParseResult load_netlist(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    ParseResult r;
    r.error = "cannot open " + path;
    return r;
  }
  return read_netlist(is);
}

}  // namespace vpga::netlist
