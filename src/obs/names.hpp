#pragma once
/// \file names.hpp
/// Canonical registry of observability names (docs/OBSERVABILITY.md).
///
/// Every literal span / metric name used by library instrumentation appears
/// here exactly once; fabriclint's `obs.span-name` / `obs.metric-name` rules
/// (docs/LINT.md) check call-site literals against these arrays, so a name
/// typo or an undocumented metric fails lint rather than silently forking
/// the naming scheme. Dynamic families built by concatenation —
/// "verify.<stage>" and "compact.config.<KIND>" — carry a runtime suffix and
/// are exempt from the literal check by construction.
///
/// All names follow the dotted lowercase `family.detail` convention with
/// `stage.*` reserved for the flow's top-level phases.

#include <array>
#include <string_view>

namespace vpga::obs::names {

/// Trace span names (one per obs::Span call site family).
inline constexpr std::array<std::string_view, 23> kSpanNames = {
    "stage.verify",  "stage.map",   "stage.compact", "stage.buffer",
    "stage.place",   "stage.pack",  "stage.route",   "stage.sta",
    "map.tech_map",  "compact.pricing_round",
    "pack.lower_bound", "pack.attempt", "pack.quadrisect", "pack.fill",
    "place.median_sweeps", "place.anneal",
    "route.decompose", "route.initial", "route.negotiate", "route.maze_repair",
    "sta.analyze",   "verify.cec", "verify.cec.sweep",
};

/// Counter / gauge / histogram names (obs::count, obs::gauge, obs::observe).
/// `flow.alloc_*` are the run-wide memtrack totals (per-span totals are the
/// dynamic "<span>.alloc_bytes" family, exempt by construction like every
/// concatenated name).
inline constexpr std::array<std::string_view, 51> kMetricNames = {
    "map.cuts_enumerated", "map.dp_rounds", "map.nodes_emitted",
    "compact.cover_rounds",
    "pack.groups", "pack.grow_attempts", "pack.spiral_relocations", "pack.displacement_um",
    "flow.pack_sta_iterations",
    "flow.alloc_bytes", "flow.alloc_count", "flow.peak_live_bytes",
    "place.median_sweeps", "place.sa_moves", "place.sa_accepted",
    "route.nets", "route.connections", "route.ripups", "route.maze_routes",
    "route.maze_settled", "route.overflow_edges", "route.peak_congestion",
    "sta.analyses", "sta.arrival_propagations",
    "verify.checks", "verify.findings", "verify.errors", "verify.equiv.vectors",
    "verify.via_budget.overruns",
    "cec.points", "cec.sweep_merges", "cec.sweep_refuted", "cec.sweep_budget_outs",
    "cec.sweep_patterns", "cec.unknown",
    "cec.cache_hits",
    "cec.tier_resolved.structural", "cec.tier_resolved.truth", "cec.tier_resolved.bitsim",
    "cec.tier_resolved.bdd", "cec.tier_resolved.sat",
    "cec.bdd_nodes", "cec.bdd_ite_calls", "cec.bdd_cache_hits", "cec.bdd_fallbacks",
    "sat.conflicts", "sat.decisions", "sat.propagations", "sat.restarts", "sat.learned",
};

/// True iff `name` is a registered span name.
constexpr bool known_span(std::string_view name) {
  for (std::string_view s : kSpanNames)
    if (s == name) return true;
  return false;
}

/// True iff `name` is a registered metric name.
constexpr bool known_metric(std::string_view name) {
  for (std::string_view s : kMetricNames)
    if (s == name) return true;
  return false;
}

}  // namespace vpga::obs::names
