#pragma once
/// \file cec.hpp
/// Exact combinational equivalence checking (the `verify_level = exact` gate).
///
/// Where the random-stimulus gate (equiv.hpp) samples, this checker proves.
/// Each check point — a primary output's driver or a DFF's D driver — is
/// compared between the golden and revised netlists through a tier ladder,
/// cheapest first:
///
///   1. structural: shared signature hashing across both netlists; identical
///      cones are equivalent without touching their function.
///   2. exhaustive: union support up to `max_exhaustive_inputs` is swept
///      completely by netlist::exhaustive_mismatch (2^n / 64 evaluations of
///      the 64-way bit simulator); the first differing row is the witness.
///   3. sweep: the first point above the exhaustive ceiling runs SAT
///      sweeping (the fraig loop) once for the boundary: both netlists are
///      simulated on shared deterministic stimulus, golden comb nodes are
///      classed by 256-bit signature, and each revised node is proven against
///      its class members in turn with a small cone-scoped miter. A refuting
///      model becomes a simulation pattern that skips later candidates it
///      already separates; a proof merges the revised node onto the golden
///      one. A point whose two drivers merged is settled here and counts as
///      structural, before any BDD is built.
///   4. BDD: both cones are built as ROBDDs (bdd/bdd.hpp) in one manager
///      under a shared, DFS-derived variable order, so equivalence is a root
///      edge compare. A hard node budget bounds the tier; exhausting it falls
///      through to SAT instead of growing. This is the complete tier for
///      XOR cones that differ in structure (parity chains, carry trees), where
///      no merge happens and CDCL clause learning scales exponentially but
///      BDDs stay linear.
///   5. SAT: everything else becomes a per-point miter over the same
///      incremental CDCL solver (sat/solver.hpp) — selector assumptions
///      retire solved points while learned clauses carry over to the next.
///      Every miter solve branches only on the fanin cone of its two literals
///      and reports SAT once that cone is assigned; inputs outside the cone
///      read 0 in the witness.
///
/// With `sat_sweep` off the ladder is structural, exhaustive, BDD, SAT; with
/// `force_bdd` every point goes to the BDD tier first and then to SAT.
///
/// Registers pair by position: golden DFF i is revised DFF i, one shared
/// state leaf and one next-state check point. No flow stage reorders
/// registers, and the interface check guarantees equal DFF counts, so the
/// pairing is always complete. A netlist whose registers were reordered
/// refutes with a replayed cec.output-diverges or cec.state-diverges witness;
/// proving it would take a register correspondence this checker does not
/// attempt.
///
/// Any inequivalence produces a full-interface counterexample which is
/// replayed through the bit simulator on the *original* netlists before
/// being reported, so a reported counterexample always witnesses the diff.
/// Every tier is deterministic, so verdicts, statistics and counterexamples
/// are byte-stable across runs and thread counts.
///
/// Rule ids (emitted by the check_cec wrapper):
///   cec.interface-mismatch  PI/PO/DFF counts differ between the netlists
///   cec.output-diverges     a primary output function differs (cex attached)
///   cec.state-diverges      a DFF next-state function differs (cex attached)
///   cec.resource-limit      a point exhausted the SAT conflict budget

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "verify/diagnostic.hpp"

namespace vpga::verify {

struct CecOptions {
  /// Union-support ceiling for the exhaustive tier; larger cones go to BDD
  /// and SAT. 16 => at most 1024 64-wide evaluation sweeps per point.
  int max_exhaustive_inputs = 16;
  /// Per-point SAT conflict budget; exhausting it yields cec.resource-limit
  /// (a warning) instead of an unbounded solve.
  long long sat_conflict_budget = 1 << 20;
  /// Run the SAT-sweeping tier between the exhaustive tier and BDD (disable
  /// to benchmark the raw BDD -> SAT ladder).
  bool sat_sweep = true;
  /// Run the BDD tier between the sweep and SAT (disable to benchmark the
  /// raw SAT tier).
  bool bdd_tier = true;
  /// Per-point node budget for the BDD tier; exhausting it abandons the
  /// point's BDDs and falls through to SAT instead of growing without bound.
  std::uint32_t bdd_node_budget = 1u << 18;
  /// Route every point straight to the BDD tier, bypassing the structural
  /// and exhaustive tiers (SAT remains the exhaustion fallback). The CLI sets
  /// it with --cec-force-bdd.
  bool force_bdd = false;
};

/// A witness assignment over the shared interface: inputs[i] / state[d] are
/// 0/1 values for input i / DFF d of both netlists.
struct CecCounterexample {
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint8_t> state;
  std::size_t point_index = 0;  ///< output index, or DFF index when is_state
  bool is_state = false;
  std::string point;            ///< interface name of the diverging point
};

struct CecReport {
  bool interface_ok = true;
  /// True when every point proved equivalent (unknowns excluded — see
  /// `unknown`); meaningless when interface_ok is false.
  bool equivalent = true;
  int checks = 0;           ///< points compared
  int tier_struct = 0;      ///< settled by structural signatures or a sweep merge
  int tier_table = 0;       ///< settled exhaustively over <= 6 leaves (one word)
  int tier_exhaustive = 0;  ///< settled exhaustively over > 6 leaves
  int tier_bdd = 0;         ///< settled by ROBDD root comparison
  int tier_sat = 0;         ///< settled by the SAT miter
  long long sweep_merges = 0;       ///< internal nodes proven equal by SAT sweeping
  long long sweep_refuted = 0;      ///< sweep candidates a SAT model told apart
  long long sweep_budget_outs = 0;  ///< sweep candidates left open by the budget
  long long sweep_patterns = 0;     ///< refuting models stored as sweep patterns
  int unknown = 0;          ///< points that exhausted the SAT budget
  std::vector<std::string> unknown_points;
  std::optional<CecCounterexample> cex;
  sat::SolverStats sat_stats;
  /// BDD tier statistics (cumulative over every point the tier attempted).
  long long bdd_nodes = 0;      ///< nodes allocated across all per-point managers
  long long bdd_ite_calls = 0;  ///< non-terminal ITE recursions
  long long bdd_cache_hits = 0; ///< computed-cache hits
  int bdd_fallbacks = 0;        ///< budget exhaustions that fell through to SAT

  [[nodiscard]] bool proven() const { return interface_ok && equivalent && unknown == 0; }
};

/// Proves or refutes combinational equivalence of every output and next-state
/// function. Both netlists must be structurally clean (lint first: cone
/// traversal needs valid references and acyclic logic).
[[nodiscard]] CecReport check_combinational_equivalence(const netlist::Netlist& golden,
                                                        const netlist::Netlist& revised,
                                                        const CecOptions& opts = {});

/// Order-sensitive structural fingerprint of a netlist (node types, function
/// words, fanin wiring, interface sizes), transparent to 1-input identity
/// buffers. The flow uses it to skip re-proving a stage boundary whose logic
/// function structure is unchanged since the last proven one — buffering,
/// pack, place and route do not rewrite logic, so their boundaries are
/// cache hits.
[[nodiscard]] std::uint64_t netlist_fingerprint(const netlist::Netlist& nl);

/// FlowVerifier wrapper: runs the checker and converts the outcome into
/// cec.* diagnostics on `report`. When the environment variable
/// VPGA_CEC_CEX_PATH is set, a refutation also writes the counterexample as
/// JSON to that path (the CI exact-gate uploads it as an artifact).
void check_cec(const netlist::Netlist& golden, const netlist::Netlist& revised,
               const std::string& stage, VerifyReport& report, const CecOptions& opts = {});

}  // namespace vpga::verify
