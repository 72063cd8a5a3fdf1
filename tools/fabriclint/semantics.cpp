/// \file semantics.cpp
/// lint_project(): the project-wide rule passes of fabriclint v3, built on
/// the per-TU symbol tables (symbols.hpp), the interprocedural call graph
/// (callgraph.hpp), the per-function dataflow facts (dataflow.hpp) and the
/// profile-guided hotness scores (hotness.hpp). Every rule here degrades to
/// silence when the C++ subset cannot resolve something — over-reporting
/// would make the lint gate unusable, and the dynamic TSan CI job backstops
/// what the subset misses.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <string>
#include <string_view>
#include <vector>

#include "callgraph.hpp"
#include "dataflow.hpp"
#include "fabriclint.hpp"
#include "hotness.hpp"
#include "symbols.hpp"

namespace vpga::fabriclint {
namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool in_src(std::string_view rel_path) {
  return rel_path.substr(0, 4) == "src/";
}

class SemanticLinter {
 public:
  SemanticLinter(const std::vector<SourceFile>& files, const ProjectOptions& options)
      : opts_(options) {
    // Per-TU analysis is independent per file: run it on a worker pool with
    // indexed result slots, so the TU order (and everything derived from it)
    // is identical to a serial run.
    tus_.resize(files.size());
    const std::size_t nworkers = std::min(
        std::max<std::size_t>(1, opts_.jobs), std::max<std::size_t>(1, files.size()));
    if (nworkers <= 1) {
      for (std::size_t i = 0; i < files.size(); ++i)
        tus_[i] = analyze_tu(files[i].rel_path, files[i].content);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> workers;
      workers.reserve(nworkers);
      for (std::size_t w = 0; w < nworkers; ++w)
        workers.emplace_back([&] {
          for (std::size_t i = next.fetch_add(1); i < files.size();
               i = next.fetch_add(1))
            tus_[i] = analyze_tu(files[i].rel_path, files[i].content);
        });
      for (std::thread& t : workers) t.join();
    }
    for (const TuSymbols& tu : tus_)
      for (const ClassInfo& c : tu.classes)
        if (classes_.count(c.name) == 0) classes_.emplace(c.name, &c);
    graph_.emplace(tus_);
    if (opts_.profile != nullptr)
      hotness_ = hotness_scores(*graph_, *opts_.profile);
    else
      hotness_.assign(static_cast<std::size_t>(graph_->function_count()), 0.0);
  }

  std::vector<Finding> run() {
    check_unguarded_access();
    check_lock_order();
    check_unjoined_threads();
    check_dropped_reports();
    check_float_accum();
    check_transitive_stdio();
    check_dataflow_rules();
    sort_findings(findings_);
    return std::move(findings_);
  }

 private:
  const CallGraph& graph() const { return *graph_; }

  void add(const TuSymbols& tu, int line, std::string rule, std::string message,
           double hotness = 0.0) {
    if (tu.is_suppressed(line, rule)) return;
    findings_.push_back(
        {tu.rel_path, line, std::move(rule), std::move(message), hotness});
  }

  /// True when `fn` holds `mutex` at token index `at` via a lexically
  /// enclosing lock event.
  static bool lock_active(const FunctionInfo& fn, std::string_view mutex,
                          std::size_t at) {
    for (const LockEvent& l : fn.locks)
      if (l.mutex == mutex && l.tok < at && at <= l.scope_end) return true;
    return false;
  }

  /// True when every caller of `fn_idx` holds `mutex` at its call site,
  /// directly or (recursively) via its own callers. A function with no
  /// callers does not hold the lock; cycles resolve optimistically so
  /// mutually recursive helpers under a locked entry point stay clean.
  bool callers_hold(int fn_idx, std::string_view mutex, std::set<int>& visiting) const {
    const auto& callers = graph().callers(fn_idx);
    if (callers.empty()) return false;
    for (const CallGraph::Edge& e : callers) {
      if (lock_active(graph().fn(e.from), mutex, e.tok)) continue;
      if (!visiting.insert(e.from).second) continue;  // cycle: optimistic
      const bool held = callers_hold(e.from, mutex, visiting);
      visiting.erase(e.from);
      if (!held) return false;
    }
    return true;
  }

  // ---------------------------------------------------------------------
  // conc.unguarded-access
  // ---------------------------------------------------------------------

  void check_unguarded_access() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path) || fn.is_ctor_or_dtor) continue;
      const auto locals = typed_locals(tu, fn, classes_);
      const auto& toks = tu.lexed.tokens;
      for (std::size_t k = fn.body_begin + 1; k + 1 < fn.body_end; ++k) {
        if (toks[k].kind != TokKind::kIdent) continue;
        // Resolve the owning class: `obj.field` / `obj->field` through a
        // local of known class type or `this`, else a bare identifier
        // inside a member function of the owning class.
        std::string cls;
        if (k >= 2 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->")) &&
            toks[k - 2].kind == TokKind::kIdent) {
          if (toks[k - 2].text == "this") {
            cls = fn.class_name;
          } else if (const auto it = locals.find(toks[k - 2].text); it != locals.end()) {
            cls = it->second;
          } else {
            continue;
          }
        } else if (k >= 1 &&
                   (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->"))) {
          continue;  // member access through an unresolved receiver
        } else {
          cls = fn.class_name;
        }
        if (cls.empty()) continue;
        const auto cit = classes_.find(cls);
        if (cit == classes_.end()) continue;
        const FieldInfo* field = nullptr;
        for (const FieldInfo& f : cit->second->fields)
          if (f.name == toks[k].text && !f.guarded_by.empty()) field = &f;
        if (field == nullptr) continue;
        if (lock_active(fn, field->guarded_by, k)) continue;
        std::set<int> visiting{i};
        if (callers_hold(i, field->guarded_by, visiting)) continue;
        add(tu, toks[k].line, "conc.unguarded-access",
            "'" + cls + "::" + field->name + "' is FABRIC_GUARDED_BY(" +
                field->guarded_by + ") but accessed in '" + fn.name +
                "' without the mutex held on every path; take a "
                "std::lock_guard first (src/common/concurrency.hpp)");
      }
    }
  }

  // ---------------------------------------------------------------------
  // conc.lock-order
  // ---------------------------------------------------------------------

  /// Mutexes `fn_idx` may acquire directly or through any callee (memoized).
  const std::set<std::string>& acquires(int fn_idx) {
    auto it = acquires_.find(fn_idx);
    if (it != acquires_.end()) return it->second;
    auto& out = acquires_[fn_idx];  // inserted empty first: cycles terminate
    for (const LockEvent& l : graph().fn(fn_idx).locks) out.insert(l.mutex);
    for (const CallGraph::Edge& e : graph().callees(fn_idx)) {
      const std::set<std::string> sub = acquires(e.to);  // copy: `out` may move
      out.insert(sub.begin(), sub.end());
    }
    return out;
  }

  void check_lock_order() {
    struct Site {
      std::string file;
      int line = 0;
    };
    std::map<std::pair<std::string, std::string>, Site> pairs;
    auto note = [&](const std::string& held, const std::string& then,
                    const TuSymbols& tu, int line) {
      if (held == then) return;
      pairs.emplace(std::make_pair(held, then), Site{tu.rel_path, line});
    };
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      for (const LockEvent& l : fn.locks) {
        for (const LockEvent& l2 : fn.locks)
          if (l2.tok > l.tok && l2.tok <= l.scope_end) note(l.mutex, l2.mutex, tu, l2.line);
        for (const CallGraph::Edge& e : graph().callees(i))
          if (e.tok > l.tok && e.tok <= l.scope_end)
            for (const std::string& b : acquires(e.to)) note(l.mutex, b, tu, e.line);
      }
    }
    for (const auto& [pair, site] : pairs) {
      if (pair.first >= pair.second) continue;  // report each unordered pair once
      const auto rev = pairs.find({pair.second, pair.first});
      if (rev == pairs.end()) continue;
      // Anchor on the lexicographically first of the two witness sites.
      const Site& a = site;
      const Site& b = rev->second;
      const bool a_first = std::tie(a.file, a.line) <= std::tie(b.file, b.line);
      const Site& anchor = a_first ? a : b;
      const Site& other = a_first ? b : a;
      const TuSymbols* tu = nullptr;
      for (const TuSymbols& t : tus_)
        if (t.rel_path == anchor.file) tu = &t;
      if (tu == nullptr) continue;
      add(*tu, anchor.line, "conc.lock-order",
          "'" + pair.first + "' and '" + pair.second +
              "' are acquired in both orders (other order at " + other.file + ":" +
              std::to_string(other.line) +
              "); pick one global order or use std::scoped_lock");
    }
  }

  // ---------------------------------------------------------------------
  // conc.unjoined-thread
  // ---------------------------------------------------------------------

  void check_unjoined_threads() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      for (const ThreadLocalVar& tv : graph().fn(i).thread_locals)
        if (!tv.joined_or_detached)
          add(tu, tv.line, "conc.unjoined-thread",
              "std::thread '" + tv.name +
                  "' is neither joined nor detached on any path; a running "
                  "thread at destruction calls std::terminate");
    }
  }

  // ---------------------------------------------------------------------
  // flow.dropped-report
  // ---------------------------------------------------------------------

  /// True when some declaration or definition named `callee` (narrowed by
  /// `qualifier` when it matches anything) returns VerifyReport/Diagnostic.
  bool returns_report(const std::string& callee, const std::string& qualifier) const {
    bool narrowed_any = false;
    bool narrowed_hit = false;
    bool any_hit = false;
    for (const TuSymbols& tu : tus_)
      for (const FunctionInfo& f : tu.functions) {
        if (f.name != callee) continue;
        const bool hit = f.returns_type("VerifyReport") || f.returns_type("Diagnostic");
        any_hit = any_hit || hit;
        if (!qualifier.empty() && f.class_name == qualifier) {
          narrowed_any = true;
          narrowed_hit = narrowed_hit || hit;
        }
      }
    return narrowed_any ? narrowed_hit : any_hit;
  }

  void check_dropped_reports() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      const auto& toks = tu.lexed.tokens;
      for (const CallSite& c : fn.calls) {
        if (!returns_report(c.callee, c.qualifier)) continue;
        // Statement-level call: the expression chain starts a statement and
        // the matching ')' is immediately followed by ';'.
        std::size_t start = c.tok;
        while (start >= 2 &&
               (is_punct(toks[start - 1], ".") || is_punct(toks[start - 1], "->") ||
                is_punct(toks[start - 1], "::")) &&
               toks[start - 2].kind == TokKind::kIdent)
          start -= 2;
        if (!(start == fn.body_begin + 1 || is_punct(toks[start - 1], ";") ||
              is_punct(toks[start - 1], "{") || is_punct(toks[start - 1], "}")))
          continue;
        int depth = 0;
        std::size_t close = std::string::npos;
        for (std::size_t k = c.tok + 1; k < fn.body_end; ++k) {
          if (is_punct(toks[k], "(")) ++depth;
          if (is_punct(toks[k], ")") && --depth == 0) {
            close = k;
            break;
          }
        }
        if (close == std::string::npos || close + 1 >= fn.body_end ||
            !is_punct(toks[close + 1], ";"))
          continue;
        add(tu, c.line, "flow.dropped-report",
            "result of '" + c.callee +
                "' (VerifyReport/Diagnostic) is discarded; inspect it or wrap "
                "the call in verify::enforce()");
      }
    }
  }

  // ---------------------------------------------------------------------
  // det.float-accum
  // ---------------------------------------------------------------------

  void check_float_accum() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      const auto& toks = tu.lexed.tokens;
      for (const ParallelRegion& region : fn.parallel_regions)
        for (std::size_t k = region.begin + 1; k + 1 < region.end; ++k) {
          if (toks[k].kind != TokKind::kIdent || k + 1 >= region.end) continue;
          if (!(is_punct(toks[k + 1], "+=") || is_punct(toks[k + 1], "-=") ||
                is_punct(toks[k + 1], "*=")))
            continue;
          // Accumulating into a float declared *outside* the region (and not
          // shadowed by a region-local redeclaration before this token).
          bool outside = false;
          bool shadowed = false;
          for (const FloatVar& v : fn.float_vars) {
            if (v.name != toks[k].text) continue;
            if (v.tok < region.begin) outside = true;
            if (v.tok > region.begin && v.tok < k) shadowed = true;
          }
          if (!outside || shadowed) continue;
          add(tu, toks[k].line, "det.float-accum",
              "floating-point accumulation into '" + toks[k].text +
                  "' inside a std::thread lambda; FP addition is not "
                  "associative, so reduce into per-thread slots and combine "
                  "in a fixed order");
        }
    }
  }

  // ---------------------------------------------------------------------
  // io.stray-stream (transitive)
  // ---------------------------------------------------------------------

  void check_transitive_stdio() {
    // Sinks: src/ functions with unsuppressed direct stdio. Suppressed sinks
    // (documented boundaries like verify::enforce) neither report nor
    // propagate. Reverse-BFS finds every function that can reach a sink; the
    // finding anchors on the call edge that enters the tainted region.
    struct Taint {
      std::string via;   ///< callee the taint flows through
      std::string sink;  ///< "file:line uses 'name'"
      std::size_t tok = 0;
      int line = 0;
    };
    std::map<int, Taint> tainted;  // fn index -> witness edge
    std::vector<int> work;
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      if (!in_src(graph().tu_of(i).rel_path) || fn.stdio_uses.empty()) continue;
      const StdioUse& u = fn.stdio_uses.front();
      tainted.emplace(i, Taint{fn.name,
                               graph().tu_of(i).rel_path + ":" +
                                   std::to_string(u.line) + " uses '" + u.callee + "'",
                               0, 0});
      work.push_back(i);
    }
    while (!work.empty()) {
      const int cur = work.back();
      work.pop_back();
      const Taint& t = tainted.at(cur);
      const std::string sink = t.sink;
      for (const CallGraph::Edge& e : graph().callers(cur)) {
        if (tainted.count(e.from) > 0) continue;
        tainted.emplace(e.from,
                        Taint{graph().fn(cur).name, sink, e.tok, e.line});
        work.push_back(e.from);
      }
    }
    for (const auto& [idx, t] : tainted) {
      if (t.line == 0) continue;  // a direct sink, handled by the token rule
      const TuSymbols& tu = graph().tu_of(idx);
      if (!in_src(tu.rel_path)) continue;
      add(tu, t.line, "io.stray-stream",
          "'" + graph().fn(idx).name + "' transitively reaches direct I/O "
              "through '" + t.via + "' (" + t.sink +
              "); route diagnostics through verify::Diagnostic or obs spans");
    }
  }

  // ---------------------------------------------------------------------
  // Dataflow rules: perf.*, lifetime.dangling-local, det.iter-invalidation
  // ---------------------------------------------------------------------

  static const std::set<std::string_view>& map_types() {
    static const std::set<std::string_view> t = {"map", "unordered_map", "multimap",
                                                 "unordered_multimap"};
    return t;
  }
  static const std::set<std::string_view>& growable_types() {
    static const std::set<std::string_view> t = {"vector", "deque", "string"};
    return t;
  }
  static const std::set<std::string_view>& container_types() {
    static const std::set<std::string_view> t = {
        "map",    "unordered_map", "multimap", "unordered_multimap",
        "set",    "unordered_set", "vector",   "deque",
        "list",   "string"};
    return t;
  }
  /// Aggregates big enough that a by-value parameter is a deep copy worth a
  /// finding (netlists, libraries and the flow/verify reports).
  static const std::set<std::string_view>& heavy_types() {
    static const std::set<std::string_view> t = {
        "Netlist",     "Aig",           "CellLibrary",      "CutDatabase",
        "VerifyReport", "BenchmarkDesign", "CompactionResult", "MapResult",
        "PackedDesign", "Placement",     "RoutingResult",    "FlowReport"};
    return t;
  }

  /// Resolves the head type of a receiver chain: a tracked local/param, or a
  /// container member of the enclosing class (`this.` prefix tolerated).
  /// Returns "" when unresolved; `var_out` gets the VarDef when it was one.
  std::string receiver_type(const FunctionDataflow& df, const FunctionInfo& fn,
                            std::string chain, const VarDef** var_out) const {
    *var_out = nullptr;
    if (chain.rfind("this.", 0) == 0) chain = chain.substr(5);
    if (chain.empty() || chain.find('.') != std::string::npos) return {};
    if (const VarDef* v = df.var(chain); v != nullptr) {
      *var_out = v;
      return v->type_head;
    }
    if (!fn.class_name.empty()) {
      const auto cit = classes_.find(fn.class_name);
      if (cit != classes_.end()) {
        const auto fit = cit->second->container_fields.find(chain);
        if (fit != cit->second->container_fields.end()) return fit->second;
      }
    }
    return {};
  }

  /// Emits a hotness-gated perf finding: always recorded on the worklist,
  /// surfaced as a regular finding only when a profile is loaded and the
  /// enclosing function is hot enough.
  void add_perf(const TuSymbols& tu, int line, std::string rule, std::string message,
                double hotness, bool gated) {
    if (tu.is_suppressed(line, rule)) return;
    if (opts_.perf_worklist != nullptr)
      opts_.perf_worklist->push_back({tu.rel_path, line, rule, message, hotness});
    if (gated && (opts_.profile == nullptr || hotness < opts_.hot_threshold)) return;
    findings_.push_back({tu.rel_path, line, std::move(rule), std::move(message), hotness});
  }

  static std::string hot_tag(double hotness) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", hotness);
    return std::string(" (hotness ") + buf + ")";
  }

  void check_dataflow_rules() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path) || !fn.is_definition) continue;
      const FunctionDataflow df = analyze_dataflow(tu, fn);
      const double hot = hotness_[static_cast<std::size_t>(i)];
      check_copy_heavy_param(tu, fn, df);
      check_dangling_local(tu, fn, df);
      check_loop_perf(tu, fn, df, hot);
      for (const LoopInfo& loop : df.loops)
        if (loop.range_for) check_iter_invalidation(tu, loop);
    }
  }

  // perf.copy-heavy-param ------------------------------------------------

  void check_copy_heavy_param(const TuSymbols& tu, const FunctionInfo& fn,
                              const FunctionDataflow& df) {
    for (const VarDef& v : df.vars) {
      if (!v.is_param || v.is_reference || heavy_types().count(v.type_head) == 0)
        continue;
      add(tu, v.line, "perf.copy-heavy-param",
          "parameter '" + v.name + "' passes " + v.type_head +
              " by value into '" + fn.name +
              "'; take const& (or std::move at every call site) — deep-copying "
              "netlist-sized aggregates dominates small-stage runtimes");
    }
  }

  // lifetime.dangling-local ----------------------------------------------

  void check_dangling_local(const TuSymbols& tu, const FunctionInfo& fn,
                            const FunctionDataflow& df) {
    if (!fn.returns_reference && !fn.returns_type("string_view")) return;
    const auto& t = tu.lexed.tokens;
    for (std::size_t k = fn.body_begin + 1; k + 2 < fn.body_end; ++k) {
      if (!(t[k].kind == TokKind::kIdent && t[k].text == "return")) continue;
      if (df.in_lambda(k)) continue;  // leaves the lambda, not the function
      if (t[k + 1].kind != TokKind::kIdent || !is_punct(t[k + 2], ";")) continue;
      const VarDef* v = df.var(t[k + 1].text);
      if (v == nullptr || v->is_param || v->is_reference || v->is_static) continue;
      const char* what = fn.returns_reference ? "a reference" : "a string_view";
      add(tu, t[k + 1].line, "lifetime.dangling-local",
          "'" + fn.name + "' returns " + what + " to local '" + v->name +
              "' (declared at line " + std::to_string(v->line) +
              "), which dies with the call; return by value or take the "
              "storage from the caller");
    }
  }

  // perf.map-in-hot-loop / perf.alloc-in-hot-loop / perf.growth-in-loop --

  /// Single scan over the function body: each candidate site is attributed
  /// to its *innermost* enclosing loop (so nested loops report once, not once
  /// per level), and sites inside run-once static-initializer lambdas are
  /// skipped — those bodies execute exactly once regardless of hotness.
  void check_loop_perf(const TuSymbols& tu, const FunctionInfo& fn,
                       const FunctionDataflow& df, double hot) {
    static const std::set<std::string_view> lookup_names = {
        "find", "at", "count", "contains", "lower_bound", "upper_bound"};
    const auto& t = tu.lexed.tokens;
    std::set<std::string> grown;  // one growth finding per (container, loop)
    for (std::size_t k = fn.body_begin + 1; k + 1 < fn.body_end; ++k) {
      if (t[k].kind != TokKind::kIdent) continue;
      const LoopInfo* loop = df.innermost_loop(k);
      if (loop == nullptr || df.in_run_once_lambda(k)) continue;
      // Node-based associative lookup through a tracked receiver.
      if (lookup_names.count(t[k].text) > 0 && k >= 2 &&
          (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")) &&
          is_punct(t[k + 1], "(")) {
        const std::string chain = receiver_chain(t, k);
        const VarDef* v = nullptr;
        const std::string type = receiver_type(df, fn, chain, &v);
        if (map_types().count(type) > 0)
          add_perf(tu, t[k].line, "perf.map-in-hot-loop",
                   "std::" + type + " lookup '" + chain + "." + t[k].text +
                       "()' inside a loop of '" + fn.name + "'" + hot_tag(hot) +
                       "; node-based lookups in hot loops thrash the cache — "
                       "use a flat vector indexed by id (SoA roadmap)",
                   hot, /*gated=*/true);
        continue;
      }
      // operator[] on a tracked map (array-of-map declarators excluded).
      if (is_punct(t[k + 1], "[") &&
          !(k > 0 && (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")))) {
        const VarDef* v = nullptr;
        const std::string type = receiver_type(df, fn, t[k].text, &v);
        if (map_types().count(type) > 0 && (v == nullptr || !v->is_array))
          add_perf(tu, t[k].line, "perf.map-in-hot-loop",
                   "std::" + type + " operator[] on '" + t[k].text +
                       "' inside a loop of '" + fn.name + "'" + hot_tag(hot) +
                       "; node-based lookups in hot loops thrash the cache — "
                       "use a flat vector indexed by id (SoA roadmap)",
                   hot, /*gated=*/true);
        continue;
      }
      // Growth into a container declared outside the loop with no dominating
      // reserve. Only locals/params: growth into a loop-local container is
      // covered by perf.alloc-in-hot-loop, and member containers may be
      // reserved far away (ctor).
      const bool grows =
          (t[k].text == "push_back" || t[k].text == "emplace_back") && k >= 2 &&
          (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")) &&
          is_punct(t[k + 1], "(");
      if (grows) {
        const std::string chain = receiver_chain(t, k);
        const VarDef* v = nullptr;
        const std::string type = receiver_type(df, fn, chain, &v);
        if (v != nullptr && v->tok < loop->body_begin &&
            (growable_types().count(type) > 0 || type == "auto") &&
            !reserve_dominates(tu, fn, chain, *loop) &&
            grown.insert(chain + "#" + std::to_string(loop->header_tok)).second)
          add_perf(tu, t[k].line, "perf.growth-in-loop",
                   "'" + chain + "." + t[k].text + "()' grows inside a loop of '" +
                       fn.name + "'" + hot_tag(hot) + " with no dominating '" +
                       chain +
                       ".reserve(...)'; repeated geometric regrowth copies every "
                       "element — reserve before the loop",
                   hot, /*gated=*/true);
        continue;
      }
      // Explicit allocation per iteration.
      const bool alloc_call =
          (t[k].text == "make_unique" || t[k].text == "make_shared") &&
          (is_punct(t[k + 1], "(") || is_punct(t[k + 1], "<"));
      if (t[k].text == "new" || alloc_call) {
        add_perf(tu, t[k].line, "perf.alloc-in-hot-loop",
                 "heap allocation ('" + t[k].text + "') inside a loop of '" +
                     fn.name + "'" + hot_tag(hot) +
                     "; hoist the allocation out of the loop or reuse a "
                     "scratch buffer",
                 hot, /*gated=*/true);
      }
    }
    // A container local constructed with an initializer inside a loop body
    // allocates every iteration.
    for (const VarDef& v : df.vars) {
      if (v.is_param || v.is_reference || v.is_static) continue;
      if (container_types().count(v.type_head) == 0) continue;
      const LoopInfo* loop = df.innermost_loop(v.tok);
      if (loop == nullptr || df.in_run_once_lambda(v.tok)) continue;
      const bool has_init = v.tok + 1 < fn.body_end &&
                            (is_punct(t[v.tok + 1], "=") || is_punct(t[v.tok + 1], "{") ||
                             is_punct(t[v.tok + 1], "("));
      if (!has_init) continue;
      add_perf(tu, v.line, "perf.alloc-in-hot-loop",
               "std::" + v.type_head + " '" + v.name +
                   "' constructed every iteration of a loop in '" + fn.name + "'" +
                   hot_tag(hot) +
                   "; hoist it out of the loop and clear() per iteration",
               hot, /*gated=*/true);
    }
  }

  // det.iter-invalidation ------------------------------------------------

  void check_iter_invalidation(const TuSymbols& tu, const LoopInfo& loop) {
    static const std::set<std::string_view> mutators = {
        "push_back", "emplace_back", "insert", "emplace", "erase",
        "clear",     "resize",       "pop_back"};
    const auto& t = tu.lexed.tokens;
    for (std::size_t k = loop.body_begin + 1; k + 1 < loop.body_end; ++k) {
      if (t[k].kind != TokKind::kIdent || mutators.count(t[k].text) == 0) continue;
      if (k < 2 || !(is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->"))) continue;
      if (!is_punct(t[k + 1], "(")) continue;
      const std::string chain = receiver_chain(t, k);
      if (chain.empty() || chain != loop.range_expr) continue;
      add(tu, t[k].line, "det.iter-invalidation",
          "'" + chain + "." + t[k].text + "()' mutates the container '" +
              loop.range_expr + "' being range-for iterated (loop at line " +
              std::to_string(loop.line) +
              "); growth/erase invalidates the hidden iterators — collect "
              "changes and apply them after the loop");
    }
  }

  const ProjectOptions opts_;
  std::vector<TuSymbols> tus_;
  std::map<std::string, const ClassInfo*> classes_;
  std::optional<CallGraph> graph_;
  std::vector<double> hotness_;
  std::map<int, std::set<std::string>> acquires_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> lint_project(const std::vector<SourceFile>& files,
                                  const ProjectOptions& options) {
  return SemanticLinter(files, options).run();
}

std::vector<Finding> lint_project(const std::vector<SourceFile>& files) {
  return lint_project(files, ProjectOptions{});
}

}  // namespace vpga::fabriclint
