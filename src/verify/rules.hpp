#pragma once
/// \file rules.hpp
/// The canonical catalogue of verification rule ids.
///
/// Single source of truth for every rule the checkers can emit: the docs
/// table in docs/VERIFY.md and the coverage tests in tests/test_verify.cpp
/// are both checked against this list, so a rule added to a checker without
/// a doc row and a seeded-corruption test fails CI rather than drifting.

#include <array>
#include <string_view>

namespace vpga::verify {

inline constexpr std::array<std::string_view, 27> kRuleCatalogue = {
    // Structural lint (any stage).
    "lint.invalid-fanin",
    "lint.undriven-dff",
    "lint.output-read",
    "lint.arity-mismatch",
    "lint.io-boundary",
    "lint.comb-cycle",
    "lint.duplicate-name",
    "lint.unreachable",
    // Post-map legality.
    "map.unmapped-node",
    "map.illegal-cell",
    "map.cell-function-mismatch",
    // Post-compact / post-buffer legality.
    "compact.missing-config",
    "compact.bad-config-tag",
    "compact.unsupported-config",
    "compact.config-overflow",
    "compact.macro-rep",
    // Post-pack legality.
    "pack.unassigned",
    "pack.tile-bounds",
    "pack.capacity",
    "pack.macro-split",
    // Post-route legality.
    "route.via-budget",
    // Equivalence gate.
    "equiv.interface-mismatch",
    "equiv.output-diverges",
    // Exact (SAT-backed) equivalence gate.
    "cec.interface-mismatch",
    "cec.output-diverges",
    "cec.state-diverges",
    "cec.resource-limit",
};

}  // namespace vpga::verify
