#include "verify/cec.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "bdd/bdd.hpp"
#include "common/assert.hpp"
#include "common/fnmap.hpp"
#include "common/rng.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/cone.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "sat/cnf.hpp"

namespace vpga::verify {
namespace {

using netlist::BitSimulator;
using netlist::ConeSupport;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeType;

/// One stage boundary's worth of point checks: structural signatures, the
/// lazily-built miter solver, and all loop scratch live here so the per-point
/// path never allocates beyond genuine growth. Interface positions pair the
/// two sides: input i, output i and DFF i of the golden netlist meet input i,
/// output i and DFF i of the revised one.
class PointChecker {
 public:
  PointChecker(const Netlist& golden, const Netlist& revised, const CecOptions& opts,
               CecReport& report)
      : golden_(golden), revised_(revised), opts_(opts), report_(report) {
    side_signatures(golden_, sig_[0]);
    side_signatures(revised_, sig_[1]);
  }

  /// Checks output `idx` (is_state == false) or DFF D-function `idx`
  /// (is_state == true) of both netlists. Returns false when a
  /// counterexample stopped the scan.
  bool check_point(std::size_t idx, bool is_state) {
    ++report_.checks;
    const NodeId ga = is_state ? golden_.fanin(golden_.dffs()[idx], 0)
                               : golden_.fanin(golden_.outputs()[idx], 0);
    const NodeId rb = is_state ? revised_.fanin(revised_.dffs()[idx], 0)
                               : revised_.fanin(revised_.outputs()[idx], 0);

    if (!opts_.force_bdd && sig_[0][ga.index()] == sig_[1][rb.index()]) {
      ++report_.tier_struct;
      return true;
    }

    const ConeSupport sup_a = cone_support(golden_, ga);
    const ConeSupport sup_b = cone_support(revised_, rb);
    merged_.inputs.clear();
    merged_.states.clear();
    std::set_union(sup_a.inputs.begin(), sup_a.inputs.end(), sup_b.inputs.begin(),
                   sup_b.inputs.end(), std::back_inserter(merged_.inputs));
    std::set_union(sup_a.states.begin(), sup_a.states.end(), sup_b.states.begin(),
                   sup_b.states.end(), std::back_inserter(merged_.states));
    const int m = static_cast<int>(merged_.num_leaves());

    if (opts_.force_bdd) {
      bool resolved = false;
      const bool scan = check_by_bdd(idx, is_state, ga, rb, m, resolved);
      if (resolved) return scan;
      return check_by_sat(idx, is_state, ga, rb);
    }
    if (m <= opts_.max_exhaustive_inputs) return check_exhaustive(idx, is_state, ga, rb, m);
    if (opts_.sat_sweep) {
      // Sweep first: when it merged the two drivers the point is settled
      // before any BDD is built.
      const auto [la, lb] = miter_lits(ga, rb);
      if (la == lb) {
        ++report_.tier_struct;
        return true;
      }
    }
    if (opts_.bdd_tier) {
      bool resolved = false;
      const bool scan = check_by_bdd(idx, is_state, ga, rb, m, resolved);
      if (resolved) return scan;
    }
    return check_by_sat(idx, is_state, ga, rb);
  }

  void finish() {
    if (solver_) report_.sat_stats = solver_->stats();
  }

 private:
  /// Tier 2: every assignment of the merged support is swept through both
  /// cones; the first differing row is the counterexample.
  bool check_exhaustive(std::size_t idx, bool is_state, NodeId ga, NodeId rb, int m) {
    const std::optional<std::uint64_t> row =
        netlist::exhaustive_mismatch(extract_cone(golden_, ga, merged_),
                                     extract_cone(revised_, rb, merged_));
    // A support of <= 6 leaves fits one 64-lane word: the truth-table count.
    ++(m <= logic::TruthTable::kMaxVars ? report_.tier_table : report_.tier_exhaustive);
    if (!row) return true;
    record_cex_from_row(idx, is_state, *row);
    return false;
  }

  /// Tier 3: both cones become ROBDDs in one manager under a shared
  /// DFS-derived variable order, so the verdict is a root-edge compare and a
  /// refutation is one satisfying path of the XOR of the roots. Sets
  /// `resolved` false when the node budget ran out — the point then falls
  /// through to SAT instead of this tier growing without bound.
  bool check_by_bdd(std::size_t idx, bool is_state, NodeId ga, NodeId rb, int m,
                    bool& resolved) {
    const Netlist ca = extract_cone(golden_, ga, merged_);
    const Netlist cb = extract_cone(revised_, rb, merged_);
    bdd::BddManager mgr(opts_.bdd_node_budget);
    bdd_order(ca, cb);
    const bdd::Ref fa = cone_bdd(mgr, ca);
    const bdd::Ref fb = cone_bdd(mgr, cb);
    bdd::Ref miter = bdd::kInvalid;
    if (fa != bdd::kInvalid && fb != bdd::kInvalid && fa != fb) {
      miter = mgr.bdd_xor(fa, fb);
    }
    report_.bdd_nodes += static_cast<long long>(mgr.num_nodes());
    report_.bdd_ite_calls += mgr.stats().ite_calls;
    report_.bdd_cache_hits += mgr.stats().cache_hits;
    if (mgr.exhausted()) {
      ++report_.bdd_fallbacks;
      resolved = false;
      return true;
    }
    resolved = true;
    ++report_.tier_bdd;
    if (fa == fb) return true;
    // Canonicity: distinct roots mean the XOR is satisfiable — walk one path.
    const bool sat = mgr.one_sat(miter, static_cast<std::uint32_t>(m), path_vals_);
    VPGA_ASSERT(sat && "distinct ROBDD roots must have a satisfiable XOR");
    leaf_vals_.assign(static_cast<std::size_t>(m), 0);
    for (std::size_t j = 0; j < merged_.num_leaves(); ++j) {
      leaf_vals_[j] = path_vals_[bdd_level_[j]];
    }
    record_cex_from_leaves(idx, is_state, leaf_vals_);
    return false;
  }

  static constexpr std::uint32_t kNoLevel = 0xFFFFFFFFu;

  /// Assigns BDD levels to the merged leaves in depth-first discovery order
  /// from the golden cone's root (revised-only leaves follow, then leaves
  /// neither cone reads). DFS discovery keeps the leaves of one subcone on
  /// adjacent levels — a static cut-width-style order that keeps chained and
  /// tree-shaped arithmetic linear-sized.
  void bdd_order(const Netlist& ca, const Netlist& cb) {
    bdd_level_.assign(merged_.num_leaves(), kNoLevel);
    std::uint32_t next = 0;
    bdd_order_dfs(ca, next);
    bdd_order_dfs(cb, next);
    for (std::size_t j = 0; j < bdd_level_.size(); ++j) {
      if (bdd_level_[j] == kNoLevel) bdd_level_[j] = next++;
    }
  }

  void bdd_order_dfs(const Netlist& cone, std::uint32_t& next) {
    // cone.inputs()[j] is merged leaf j by construction of extract_cone.
    bdd_leaf_of_.assign(cone.num_nodes(), kNoLevel);
    for (std::size_t j = 0; j < cone.inputs().size(); ++j) {
      bdd_leaf_of_[cone.inputs()[j].index()] = static_cast<std::uint32_t>(j);
    }
    bdd_visited_.assign(cone.num_nodes(), 0);
    bdd_stack_.clear();
    const NodeId root = cone.fanin(cone.outputs()[0], 0);
    bdd_stack_.push_back(root);
    bdd_visited_[root.index()] = 1;
    while (!bdd_stack_.empty()) {
      const NodeId id = bdd_stack_.back();
      bdd_stack_.pop_back();
      const std::uint32_t leaf = bdd_leaf_of_[id.index()];
      if (leaf != kNoLevel && bdd_level_[leaf] == kNoLevel) bdd_level_[leaf] = next++;
      const Node& nd = cone.node(id);
      if (nd.type != NodeType::kComb) continue;
      const std::span<const NodeId> fis = cone.fanins(id);
      for (std::size_t k = fis.size(); k-- > 0;) {  // reverse push: fanin 0 first
        if (bdd_visited_[fis[k].index()] == 0) {
          bdd_visited_[fis[k].index()] = 1;
          bdd_stack_.push_back(fis[k]);
        }
      }
    }
  }

  /// Builds the ROBDD of an extracted cone under the shared level map.
  bdd::Ref cone_bdd(bdd::BddManager& mgr, const Netlist& cone) {
    bdd_refs_.assign(cone.num_nodes(), bdd::kInvalid);
    for (std::size_t j = 0; j < cone.inputs().size(); ++j) {
      bdd_refs_[cone.inputs()[j].index()] = mgr.var(bdd_level_[j]);
    }
    for (const NodeId id : cone.all_nodes()) {
      const Node& nd = cone.node(id);
      if (nd.type == NodeType::kConst) {
        bdd_refs_[id.index()] = nd.func.eval(0) ? bdd::kTrue : bdd::kFalse;
      }
    }
    for (const NodeId id : cone.topo_order()) {
      const Node& nd = cone.node(id);
      if (nd.type != NodeType::kComb) continue;
      bdd::Ref args[logic::TruthTable::kMaxVars] = {};
      const std::span<const NodeId> fis = cone.fanins(id);
      for (std::size_t k = 0; k < fis.size(); ++k) args[k] = bdd_refs_[fis[k].index()];
      bdd_refs_[id.index()] = gate_bdd(mgr, nd.func, args, static_cast<int>(fis.size()));
      if (mgr.exhausted()) return bdd::kInvalid;
    }
    return bdd_refs_[cone.fanin(cone.outputs()[0], 0).index()];
  }

  /// Shannon-expands a gate's truth table over its fanin BDDs (arity <= 6, so
  /// the recursion is at most depth 6 with 2^6 leaves).
  static bdd::Ref gate_bdd(bdd::BddManager& mgr, const logic::TruthTable& tt,
                           const bdd::Ref* args, int k) {
    if (tt.bits() == 0) return bdd::kFalse;
    if (tt == logic::TruthTable::constant(k, true)) return bdd::kTrue;
    // Non-constant => k >= 1.
    const bdd::Ref hi = gate_bdd(mgr, tt.cofactor(k - 1, true), args, k - 1);
    const bdd::Ref lo = gate_bdd(mgr, tt.cofactor(k - 1, false), args, k - 1);
    return mgr.ite(args[k - 1], hi, lo);
  }

  /// The point's two miter literals on the shared solver, which is built —
  /// and, with sat_sweep, swept — on first use.
  std::pair<sat::Lit, sat::Lit> miter_lits(NodeId ga, NodeId rb) {
    if (!solver_) {
      solver_ = std::make_unique<sat::Solver>();
      encoder_ = std::make_unique<sat::MiterEncoder>(golden_, revised_, *solver_);
      if (opts_.sat_sweep) sat_sweep();
    }
    return {encoder_->encode(sat::MiterEncoder::Side::kGolden, ga),
            encoder_->encode(sat::MiterEncoder::Side::kRevised, rb)};
  }

  /// Solves "a != b" under a fresh selector assumption, branching only in the
  /// two literals' fanin cone, then retires the selector so learned clauses
  /// carry over to later miters. A kSat model is valid on that cone; inputs
  /// outside it read 0.
  sat::Result solve_miter(sat::Lit a, sat::Lit b, long long budget) {
    const sat::Lit sel(solver_->new_var(), false);
    solver_->add_clause({~sel, a, b});
    solver_->add_clause({~sel, ~a, ~b});
    encoder_->cone(a, b, scope_);
    const sat::Lit assumption[1] = {sel};
    const sat::Result res =
        solver_->solve(std::span<const sat::Lit>(assumption, 1), budget, scope_);
    solver_->add_clause({~sel});
    return res;
  }

  /// Tier 4: per-point miter under a selector assumption on the shared
  /// incremental solver.
  bool check_by_sat(std::size_t idx, bool is_state, NodeId ga, NodeId rb) {
    const auto [la, lb] = miter_lits(ga, rb);
    if (la == lb) {
      // Structural hashing inside the encoder already merged the two cones.
      ++report_.tier_struct;
      return true;
    }
    const sat::Result res = solve_miter(la, lb, opts_.sat_conflict_budget);
    if (res == sat::Result::kUnsat) {
      ++report_.tier_sat;
      return true;
    }
    if (res == sat::Result::kUnknown) {
      ++report_.unknown;
      report_.unknown_points.push_back(point_name(idx, is_state));
      return true;
    }
    ++report_.tier_sat;
    CecCounterexample cex;
    cex.inputs.assign(golden_.inputs().size(), 0);
    cex.state.assign(golden_.dffs().size(), 0);
    for (std::size_t i = 0; i < encoder_->num_inputs(); ++i) {
      cex.inputs[i] = solver_->model_value(encoder_->input_lit(i).var()) ? 1 : 0;
    }
    for (std::size_t d = 0; d < encoder_->num_states(); ++d) {
      cex.state[d] = solver_->model_value(encoder_->state_lit(d).var()) ? 1 : 0;
    }
    verify_and_store(idx, is_state, std::move(cex));
    return false;
  }

  static constexpr int kSweepWords = 4;          ///< 256 shared stimulus patterns
  static constexpr long long kSweepBudget = 100;  ///< conflicts per candidate proof
  static constexpr int kMaxPatterns = 64;         ///< refuting models kept (one word)

  /// SAT sweeping, the fraig loop: simulate both netlists on the same
  /// deterministic stimulus and class every golden comb node under its
  /// 256-pattern signature (complement-canonical), then walk the revised
  /// netlist bottom-up proving each node against the members of its class in
  /// topological order with a small cone-scoped miter. A proven match rebinds
  /// the revised node to the golden literal, so the eventual output miters are
  /// between largely-merged cones — the difference between multiplier CEC
  /// finishing in milliseconds and not finishing at all. A refuted candidate's
  /// model joins a store of simulation patterns; a member those patterns
  /// already tell apart from the node is skipped without a SAT call. Golden
  /// nodes are encoded only when compared.
  void sat_sweep() {
    const obs::Span span("verify.cec.sweep");
    common::Rng rng(0xCEC5EEDull);  // fixed seed: sweep results are byte-stable
    const std::size_t width = golden_.inputs().size() + golden_.dffs().size();
    stimulus_.resize(width * static_cast<std::size_t>(kSweepWords));
    for (auto& w : stimulus_) w = rng.next_u64();
    sim_signatures(golden_, sweep_sig_[0]);
    sim_signatures(revised_, sweep_sig_[1]);
    next_member_.assign(golden_.num_nodes(), NodeId());
    for (const NodeId id : golden_.topo_order()) {
      if (golden_.node(id).type != NodeType::kComb) continue;
      const auto cls = static_cast<std::uint32_t>(class_head_.size());
      const std::uint32_t found = sweepmap_.find_or_insert(sweep_key(0, id), cls);
      if (found == cls) {
        class_head_.push_back(id);
        class_tail_.push_back(id);
      } else {
        next_member_[class_tail_[found].index()] = id;
        class_tail_[found] = id;
      }
    }
    // Lane k of the pattern store holds refuting model k; lanes not yet
    // filled hold the all-zero assignment, which is a valid pattern too.
    pattern_words_.assign(width, 0);
    pattern_sim_[0].emplace(golden_);
    pattern_sim_[1].emplace(revised_);
    simulate_patterns();
    for (const NodeId id : revised_.topo_order()) {
      if (revised_.node(id).type != NodeType::kComb) continue;
      sweep_node(id, encoder_->encode(sat::MiterEncoder::Side::kRevised, id));
    }
  }

  /// Evaluates kSweepWords shared stimulus words through `nl`, storing every
  /// node's response words contiguously in `sig`. Input i and DFF d read the
  /// same stimulus word on both sides.
  void sim_signatures(const Netlist& nl, std::vector<std::uint64_t>& sig) {
    sig.assign(nl.num_nodes() * static_cast<std::size_t>(kSweepWords), 0);
    BitSimulator sim(nl);
    const std::size_t ni = nl.inputs().size();
    for (int w = 0; w < kSweepWords; ++w) {
      const std::uint64_t* words = stimulus_.data() +
                                   static_cast<std::size_t>(w) * (ni + nl.dffs().size());
      for (std::size_t i = 0; i < ni; ++i) sim.set_input(i, words[i]);
      for (std::size_t d = 0; d < nl.dffs().size(); ++d) {
        sim.set_state(d, words[ni + d]);
      }
      sim.eval();
      for (const NodeId id : nl.all_nodes()) {
        sig[id.index() * static_cast<std::size_t>(kSweepWords) + static_cast<std::size_t>(w)] =
            sim.value(id);
      }
    }
  }

  /// Complement-canonical phase of a node's sweep signature.
  [[nodiscard]] bool sweep_phase(int side, NodeId id) const {
    return (sweep_sig_[side][id.index() * static_cast<std::size_t>(kSweepWords)] & 1u) != 0;
  }

  /// Class key: the full 256-bit complement-canonical signature, so only
  /// genuinely signature-equal nodes ever meet.
  [[nodiscard]] common::FnKey sweep_key(int side, NodeId id) const {
    const std::uint64_t* sig =
        sweep_sig_[side].data() + id.index() * static_cast<std::size_t>(kSweepWords);
    const std::uint64_t flip = sweep_phase(side, id) ? ~std::uint64_t{0} : 0;
    common::FnKey key;
    key.tag = 5;
    key.bits = sig[0] ^ flip;
    for (int w = 1; w < kSweepWords; ++w) {
      const std::uint64_t word = sig[w] ^ flip;
      key.kids[2 * w - 2] = static_cast<std::uint32_t>(word);
      key.kids[2 * w - 1] = static_cast<std::uint32_t>(word >> 32);
    }
    return key;
  }

  /// Proves revised node `id` (literal `lit`) against its class members in
  /// order and rebinds it to the first one proven equal. A refutation stores
  /// its model as a pattern and moves on to the next member; a budget-out,
  /// or a refutation once the store is full, ends the search.
  void sweep_node(NodeId id, sat::Lit lit) {
    const std::uint32_t cls = sweepmap_.find(sweep_key(1, id));
    if (cls == common::FnKeyMap::kNotFound) return;
    const bool phase = sweep_phase(1, id);
    for (NodeId g = class_head_[cls]; g.valid(); g = next_member_[g.index()]) {
      const bool flip = phase != sweep_phase(0, g);  // candidate: id == g ^ flip
      const std::uint64_t differ = pattern_sim_[1]->value(id) ^ pattern_sim_[0]->value(g);
      if (differ != (flip ? ~std::uint64_t{0} : 0)) continue;  // a stored model separates them
      const sat::Lit glit = encoder_->encode(sat::MiterEncoder::Side::kGolden, g);
      const sat::Lit rep = flip ? ~glit : glit;
      if (rep == lit) return;  // already shared via structural hashing
      const sat::Result res = solve_miter(lit, rep, kSweepBudget);
      if (res == sat::Result::kUnsat) {
        solver_->add_clause({~lit, rep});
        solver_->add_clause({lit, ~rep});
        encoder_->set_lit(sat::MiterEncoder::Side::kRevised, id, rep);
        ++report_.sweep_merges;
        return;
      }
      if (res == sat::Result::kUnknown) {
        ++report_.sweep_budget_outs;
        return;
      }
      ++report_.sweep_refuted;
      if (!add_pattern()) return;
    }
  }

  /// Adds the solver's last model to the pattern store and re-simulates both
  /// netlists on it. False when the store is already full.
  bool add_pattern() {
    if (num_patterns_ == kMaxPatterns) return false;
    const std::uint64_t lane = std::uint64_t{1} << num_patterns_++;
    ++report_.sweep_patterns;
    for (std::size_t i = 0; i < encoder_->num_inputs(); ++i) {
      if (solver_->model_value(encoder_->input_lit(i).var())) pattern_words_[i] |= lane;
    }
    const std::size_t ni = encoder_->num_inputs();
    for (std::size_t d = 0; d < encoder_->num_states(); ++d) {
      if (solver_->model_value(encoder_->state_lit(d).var())) pattern_words_[ni + d] |= lane;
    }
    simulate_patterns();
    return true;
  }

  void simulate_patterns() {
    const std::size_t ni = golden_.inputs().size();
    for (std::optional<BitSimulator>& sim : pattern_sim_) {
      for (std::size_t i = 0; i < ni; ++i) sim->set_input(i, pattern_words_[i]);
      for (std::size_t d = 0; d < golden_.dffs().size(); ++d) {
        sim->set_state(d, pattern_words_[ni + d]);
      }
      sim->eval();
    }
  }

  /// Expands a merged-support row (bit j = leaf j) into a full-interface
  /// counterexample and stores it.
  void record_cex_from_row(std::size_t idx, bool is_state, std::uint64_t row) {
    leaf_vals_.assign(merged_.num_leaves(), 0);
    for (std::size_t j = 0; j < merged_.num_leaves(); ++j) {
      leaf_vals_[j] = static_cast<std::uint8_t>((row >> j) & 1u);
    }
    record_cex_from_leaves(idx, is_state, leaf_vals_);
  }

  /// Expands one 0/1 value per merged leaf (BDD path or exhaustive row) into
  /// a full-interface counterexample and stores it.
  void record_cex_from_leaves(std::size_t idx, bool is_state,
                              const std::vector<std::uint8_t>& leaves) {
    CecCounterexample cex;
    cex.inputs.assign(golden_.inputs().size(), 0);
    cex.state.assign(golden_.dffs().size(), 0);
    const std::size_t ni = merged_.inputs.size();
    for (std::size_t j = 0; j < merged_.num_leaves(); ++j) {
      if (j < ni) {
        cex.inputs[merged_.inputs[j]] = leaves[j];
      } else {
        cex.state[merged_.states[j - ni]] = leaves[j];
      }
    }
    verify_and_store(idx, is_state, std::move(cex));
  }

  /// Replays the counterexample through the original netlists (broadcast
  /// words on the 64-way simulator) and asserts it witnesses the divergence
  /// before it is allowed into the report.
  void verify_and_store(std::size_t idx, bool is_state, CecCounterexample cex) {
    BitSimulator sg(golden_);
    BitSimulator sr(revised_);
    for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
      const std::uint64_t w = cex.inputs[i] != 0 ? ~std::uint64_t{0} : 0;
      sg.set_input(i, w);
      sr.set_input(i, w);
    }
    for (std::size_t d = 0; d < cex.state.size(); ++d) {
      const std::uint64_t w = cex.state[d] != 0 ? ~std::uint64_t{0} : 0;
      sg.set_state(d, w);
      sr.set_state(d, w);
    }
    sg.eval();
    sr.eval();
    const std::uint64_t vg = is_state ? sg.next_state(idx) : sg.output(idx);
    const std::uint64_t vr = is_state ? sr.next_state(idx) : sr.output(idx);
    VPGA_ASSERT_MSG((vg & 1) != (vr & 1), "CEC counterexample failed simulation replay");
    cex.point_index = idx;
    cex.is_state = is_state;
    cex.point = point_name(idx, is_state);
    report_.cex = std::move(cex);
    report_.equivalent = false;
  }

  [[nodiscard]] std::string point_name(std::size_t idx, bool is_state) const {
    const NodeId id = is_state ? golden_.dffs()[idx] : golden_.outputs()[idx];
    const std::string& name = golden_.name_of(id);
    if (!name.empty()) return name;
    return (is_state ? "dff[" : "output[") + std::to_string(idx) + "]";
  }

  /// Shared structural signatures: identical cones — across both netlists —
  /// get identical dense ids, making tier 1 a single compare per point.
  /// Leaves are keyed by interface position, so DFF d is the same leaf on
  /// both sides.
  void side_signatures(const Netlist& nl, std::vector<std::uint32_t>& sig) {
    sig.assign(nl.num_nodes(), 0);
    common::FnKey key;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      key = common::FnKey();
      key.tag = 1;
      key.bits = i;
      sig[nl.inputs()[i].index()] = fresh_sig(key);
    }
    for (std::size_t d = 0; d < nl.dffs().size(); ++d) {
      key = common::FnKey();
      key.tag = 2;
      key.bits = d;
      sig[nl.dffs()[d].index()] = fresh_sig(key);
    }
    for (const NodeId id : nl.all_nodes()) {
      if (nl.node(id).type != NodeType::kConst) continue;
      key = common::FnKey();
      key.tag = 3;
      key.bits = nl.node(id).func.eval(0) ? 1 : 0;
      sig[id.index()] = fresh_sig(key);
    }
    for (const NodeId id : nl.topo_order()) {
      const Node& n = nl.node(id);
      if (n.type != NodeType::kComb) continue;
      key = common::FnKey();
      key.bits = n.func.bits();
      key.arity = static_cast<std::uint8_t>(n.num_fanins());
      const std::span<const NodeId> fis = nl.fanins(id);
      for (std::size_t k = 0; k < fis.size(); ++k) key.kids[k] = sig[fis[k].index()];
      sig[id.index()] = fresh_sig(key);
    }
  }

  std::uint32_t fresh_sig(const common::FnKey& key) {
    return sigmap_.find_or_insert(key, static_cast<std::uint32_t>(sigmap_.size()) + 1);
  }

  const Netlist& golden_;
  const Netlist& revised_;
  const CecOptions& opts_;
  CecReport& report_;
  common::FnKeyMap sigmap_;
  std::vector<std::uint32_t> sig_[2];
  common::FnKeyMap sweepmap_;  ///< canonical signature -> class index
  std::vector<NodeId> class_head_;   ///< per class: first golden member
  std::vector<NodeId> class_tail_;   ///< per class: last golden member
  std::vector<NodeId> next_member_;  ///< per golden node: next member of its class
  std::vector<std::uint64_t> stimulus_;
  std::vector<std::uint64_t> sweep_sig_[2];
  std::vector<std::uint64_t> pattern_words_;  ///< per input, then per DFF: stored models
  std::optional<BitSimulator> pattern_sim_[2];
  int num_patterns_ = 0;
  std::vector<sat::Var> scope_;
  ConeSupport merged_;
  // BDD-tier scratch, hoisted like the rest of the per-point loop state.
  std::vector<std::uint32_t> bdd_level_;
  std::vector<std::uint32_t> bdd_leaf_of_;
  std::vector<std::uint8_t> bdd_visited_;
  std::vector<NodeId> bdd_stack_;
  std::vector<bdd::Ref> bdd_refs_;
  std::vector<std::uint8_t> path_vals_;
  std::vector<std::uint8_t> leaf_vals_;
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<sat::MiterEncoder> encoder_;
};

/// Writes the counterexample as JSON (the CI exact-gate artifact format).
void dump_cex_json(const char* path, const Netlist& golden, const std::string& stage,
                   const CecCounterexample& cex) {
  std::ofstream os(path);
  if (!os) return;
  auto quoted = [](std::string_view s) {
    std::string q;
    obs::json::append_string(q, s);
    return q;
  };
  os << "{\n  \"design\": " << quoted(golden.name()) << ",\n  \"stage\": " << quoted(stage)
     << ",\n  \"point\": " << quoted(cex.point) << ",\n  \"is_state\": "
     << (cex.is_state ? "true" : "false") << ",\n  \"inputs\": [";
  for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
    os << (i == 0 ? "" : ", ") << static_cast<int>(cex.inputs[i]);
  }
  os << "],\n  \"state\": [";
  for (std::size_t d = 0; d < cex.state.size(); ++d) {
    os << (d == 0 ? "" : ", ") << static_cast<int>(cex.state[d]);
  }
  os << "]\n}\n";
}

/// Compact 0/1 string for diagnostics ("inputs=0110 state=01").
std::string bits_to_string(const std::vector<std::uint8_t>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (const std::uint8_t b : bits) s.push_back(b != 0 ? '1' : '0');
  return s;
}

}  // namespace

std::uint64_t netlist_fingerprint(const Netlist& nl) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
  };
  // Buffers (1-input identity gates) are transparent: they are skipped and
  // fanin references resolve through them, so the fingerprint is invariant
  // under high-fanout buffering — which inserts buffers by appending nodes,
  // leaving every pre-existing index in place.
  auto is_buffer = [&nl](NodeId id) {
    const Node& n = nl.node(id);
    return n.type == NodeType::kComb && n.num_fanins() == 1 && n.func.bits() == 2;
  };
  auto resolve = [&](NodeId id) {
    while (is_buffer(id)) id = nl.fanin(id, 0);
    return id;
  };
  std::uint64_t h = mix(nl.inputs().size(), nl.outputs().size());
  h = mix(h, nl.dffs().size());
  for (const NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    if (is_buffer(id)) continue;
    h = mix(h, static_cast<std::uint64_t>(n.type));
    h = mix(h, n.func.bits());
    for (const NodeId fi : nl.fanins(id)) h = mix(h, resolve(fi).index());
  }
  return h;
}

CecReport check_combinational_equivalence(const Netlist& golden, const Netlist& revised,
                                          const CecOptions& opts) {
  CecReport report;
  if (golden.inputs().size() != revised.inputs().size() ||
      golden.outputs().size() != revised.outputs().size() ||
      golden.dffs().size() != revised.dffs().size()) {
    report.interface_ok = false;
    report.equivalent = false;
    return report;
  }
  PointChecker checker(golden, revised, opts, report);
  bool scanning = true;
  for (std::size_t o = 0; scanning && o < golden.outputs().size(); ++o) {
    scanning = checker.check_point(o, false);
  }
  for (std::size_t d = 0; scanning && d < golden.dffs().size(); ++d) {
    scanning = checker.check_point(d, true);
  }
  checker.finish();
  return report;
}

void check_cec(const Netlist& golden, const Netlist& revised, const std::string& stage,
               VerifyReport& report, const CecOptions& opts) {
  const obs::Span span("verify.cec");
  const CecReport cec = check_combinational_equivalence(golden, revised, opts);

  obs::count("cec.points", cec.checks);
  obs::count("cec.sweep_merges", cec.sweep_merges);
  obs::count("cec.sweep_refuted", cec.sweep_refuted);
  obs::count("cec.sweep_budget_outs", cec.sweep_budget_outs);
  obs::count("cec.sweep_patterns", cec.sweep_patterns);
  obs::count("cec.unknown", cec.unknown);
  // The per-point tier-resolution family: one counter per ladder tier, so
  // BENCH_flow.json and --metrics-json break down where points land.
  obs::count("cec.tier_resolved.structural", cec.tier_struct);
  obs::count("cec.tier_resolved.truth", cec.tier_table);
  obs::count("cec.tier_resolved.bitsim", cec.tier_exhaustive);
  obs::count("cec.tier_resolved.bdd", cec.tier_bdd);
  obs::count("cec.tier_resolved.sat", cec.tier_sat);
  obs::count("cec.bdd_nodes", cec.bdd_nodes);
  obs::count("cec.bdd_ite_calls", cec.bdd_ite_calls);
  obs::count("cec.bdd_cache_hits", cec.bdd_cache_hits);
  obs::count("cec.bdd_fallbacks", cec.bdd_fallbacks);
  obs::count("sat.conflicts", cec.sat_stats.conflicts);
  obs::count("sat.decisions", cec.sat_stats.decisions);
  obs::count("sat.propagations", cec.sat_stats.propagations);
  obs::count("sat.restarts", cec.sat_stats.restarts);
  obs::count("sat.learned", cec.sat_stats.learned_clauses);

  if (!cec.interface_ok) {
    report.add(Severity::kError, "cec.interface-mismatch", stage, NodeId(),
               "interface differs from the equivalence baseline: inputs " +
                   std::to_string(golden.inputs().size()) + " vs " +
                   std::to_string(revised.inputs().size()) + ", outputs " +
                   std::to_string(golden.outputs().size()) + " vs " +
                   std::to_string(revised.outputs().size()) + ", dffs " +
                   std::to_string(golden.dffs().size()) + " vs " +
                   std::to_string(revised.dffs().size()));
    return;
  }
  if (cec.cex.has_value()) {
    const CecCounterexample& cex = *cec.cex;
    if (const char* path = std::getenv("VPGA_CEC_CEX_PATH"); path != nullptr) {
      dump_cex_json(path, golden, stage, cex);
    }
    report.add(Severity::kError,
               cex.is_state ? "cec.state-diverges" : "cec.output-diverges", stage, NodeId(),
               (cex.is_state ? "next-state function of '" : "output '") + cex.point +
                   "' differs from the equivalence baseline; counterexample inputs=" +
                   bits_to_string(cex.inputs) +
                   (cex.state.empty() ? std::string() : " state=" + bits_to_string(cex.state)));
  }
  if (cec.unknown > 0) {
    report.add(Severity::kWarning, "cec.resource-limit", stage, NodeId(),
               std::to_string(cec.unknown) + " point(s) exhausted the SAT conflict budget (" +
                   std::to_string(opts.sat_conflict_budget) + "), first: " +
                   cec.unknown_points.front());
  }
}

}  // namespace vpga::verify
