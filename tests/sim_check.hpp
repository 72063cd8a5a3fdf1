#pragma once
/// \file sim_check.hpp
/// Test helpers over the one netlist simulator (netlist::BitSimulator): a
/// scalar simulation is lane 0 of a broadcast word, and random-simulation
/// equivalence is verify::check_equivalence.

#include <gtest/gtest.h>

#include <cstdint>

#include "netlist/netlist.hpp"
#include "verify/equiv.hpp"

namespace vpga::test {

/// The all-lanes word of one scalar bit.
constexpr std::uint64_t broadcast(bool v) { return v ? ~std::uint64_t{0} : 0; }

/// Lane 0 of a simulated word, as a scalar bit.
constexpr bool lane0(std::uint64_t w) { return (w & 1) != 0; }

/// Random co-simulation of `revised` against `golden` for `cycles` clocked
/// steps of 64 patterns each; a failure carries the gate's diagnostic.
inline ::testing::AssertionResult sim_equivalent(const netlist::Netlist& golden,
                                                 const netlist::Netlist& revised, int cycles) {
  verify::VerifyReport report;
  verify::check_equivalence(golden, revised, "test", report, {.cycles = cycles});
  if (report.error_count() == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.summary();
}

}  // namespace vpga::test
