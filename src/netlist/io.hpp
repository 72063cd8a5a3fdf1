#pragma once
/// \file io.hpp
/// Plain-text structural netlist serialization.
///
/// A small line-oriented format ("vpga-netlist 1") that round-trips every
/// feature of the IR — node types, truth tables, mapping annotations,
/// configuration tags, macro grouping and names — so designs and flow
/// intermediates can be saved, diffed and reloaded:
///
///   vpga-netlist 1
///   name alu8
///   node 0 input a[0]
///   node 1 input a[1]
///   node 2 comb 2 8 0 1 cell=ND3WI config=ND3
///   node 3 dff 2 name=q
///   node 4 output 3 y
///   end
///
/// Node ids must be dense and in order (fanins may only reference earlier
/// ids, except DFF D-pins which may point forward). The writer keeps arena
/// order where that already holds and otherwise renumbers, moving each comb
/// or output node after its fanins; inputs, registers and outputs keep
/// their relative order.

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace vpga::netlist {

/// Writes `nl` to the stream in the format above.
void write_netlist(std::ostream& os, const Netlist& nl);
/// Convenience: to a file. Returns false when the file cannot be opened.
bool save_netlist(const std::string& path, const Netlist& nl);

/// Parse result: either a netlist or a located error message.
struct ParseResult {
  bool ok = false;
  Netlist netlist;
  std::string error;  ///< "line N: ..." when !ok
};

/// Reads a netlist from the stream (strict: any malformed line fails).
ParseResult read_netlist(std::istream& is);
/// Convenience: from a file.
ParseResult load_netlist(const std::string& path);

}  // namespace vpga::netlist
