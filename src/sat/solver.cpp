#include "sat/solver.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace vpga::sat {

long long luby(long long i) {
  // Find the subsequence [2^k - 1] containing i (1-based) and recurse.
  long long k = 1, size = 1;
  while (size < i + 1) {
    ++k;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --k;
    i = i % size;
  }
  return 1LL << (k - 1);
}

Solver::Solver() {
  trail_.reserve(64);
  trail_lim_.reserve(16);
  learnt_scratch_.reserve(32);
  add_scratch_.reserve(8);
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(activity_.size());
  activity_.push_back(0.0);
  assigns_.push_back(-1);
  polarity_.push_back(0);
  reason_.push_back(kNoClause);
  level_.push_back(0);
  heap_pos_.push_back(-1);
  scope_stamp_.push_back(0);
  model_.push_back(0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  return v;
}

std::uint32_t Solver::alloc_clause(std::span<const Lit> lits, bool learnt) {
  const std::uint32_t cref = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back(static_cast<std::uint32_t>(lits.size()));
  for (const Lit l : lits) arena_.push_back(l.code());
  if (learnt) ++stats_.learned_clauses;
  return cref;
}

void Solver::watch_clause(std::uint32_t cref) {
  const Lit l0 = Lit::from_code(arena_[cref + 1]);
  const Lit l1 = Lit::from_code(arena_[cref + 2]);
  // A clause is registered under the codes of its two watched literals'
  // negations: when one of them is assigned true (falsifying the watch),
  // propagate() visits the clause.
  watches_[(~l0).code()].push_back({cref, l1});
  watches_[(~l1).code()].push_back({cref, l0});
}

bool Solver::add_clause(std::span<const Lit> lits) {
  VPGA_ASSERT_MSG(decision_level() == 0, "add_clause is a root-level operation");
  if (!ok_) return false;

  // Normalize: sort, dedupe, drop root-false literals, detect tautology and
  // root-satisfied clauses. The sorted layout is deterministic.
  add_scratch_.assign(lits.begin(), lits.end());
  std::sort(add_scratch_.begin(), add_scratch_.end());
  std::size_t n = 0;
  Lit prev;
  for (const Lit l : add_scratch_) {
    VPGA_ASSERT(l.var() < num_vars());
    if (value(l) == 1) return true;  // already satisfied at root
    if (l == prev || value(l) == 0) continue;
    if (prev.valid() && l == ~prev) return true;  // tautology
    add_scratch_[n++] = l;
    prev = l;
  }
  add_scratch_.resize(n);

  if (n == 0) {
    ok_ = false;
    return false;
  }
  if (n == 1) {
    enqueue(add_scratch_[0], kNoClause);
    if (propagate() != kNoClause) ok_ = false;
    return ok_;
  }
  watch_clause(alloc_clause(add_scratch_, /*learnt=*/false));
  return true;
}

void Solver::enqueue(Lit l, std::uint32_t reason) {
  const Var v = l.var();
  VPGA_ASSERT(assigns_[v] < 0);
  assigns_[v] = static_cast<std::int8_t>(l.negated() ? 0 : 1);
  polarity_[v] = assigns_[v];
  reason_[v] = reason;
  level_[v] = static_cast<std::uint32_t>(decision_level());
  trail_.push_back(l);
}

std::uint32_t Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p just became true; ~p became false
    ++stats_.propagations;
    std::vector<Watch>& ws = watches_[p.code()];
    std::size_t i = 0, j = 0;
    const std::size_t end = ws.size();
    while (i < end) {
      const Watch w = ws[i];
      if (value(w.blocker) == 1) {  // clause already satisfied
        ws[j++] = ws[i++];
        continue;
      }
      const std::uint32_t cref = w.cref;
      const std::uint32_t size = arena_[cref];
      // Ensure the falsified literal sits in slot 1.
      if (Lit::from_code(arena_[cref + 1]) == ~p)
        std::swap(arena_[cref + 1], arena_[cref + 2]);
      const Lit first = Lit::from_code(arena_[cref + 1]);
      if (first != w.blocker && value(first) == 1) {
        ws[j++] = {cref, first};
        ++i;
        continue;
      }
      // Hunt for a replacement watch among the tail literals.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit lk = Lit::from_code(arena_[cref + 1 + k]);
        if (value(lk) != 0) {
          std::swap(arena_[cref + 2], arena_[cref + 1 + k]);
          watches_[(~lk).code()].push_back({cref, first});
          moved = true;
          break;
        }
      }
      if (moved) {
        ++i;  // clause left this watch list
        continue;
      }
      // No replacement: clause is unit on `first`, or conflicting.
      ws[j++] = {cref, first};
      ++i;
      if (value(first) == 0) {  // conflict
        qhead_ = trail_.size();
        while (i < end) ws[j++] = ws[i++];
        ws.resize(j);
        return cref;
      }
      enqueue(first, cref);
    }
    ws.resize(j);
  }
  return kNoClause;
}

void Solver::analyze(std::uint32_t confl, std::vector<Lit>& out_learnt,
                     std::size_t& out_btlevel) {
  // Standard first-UIP: walk the trail backwards resolving current-level
  // literals until exactly one remains; lower-level literals join the clause.
  out_learnt.clear();
  out_learnt.reserve(trail_.size() + 1);  // a learnt clause never exceeds the trail
  out_learnt.push_back(Lit());  // slot 0 reserved for the asserting literal
  int path_count = 0;
  Lit p;
  std::size_t index = trail_.size();

  for (;;) {
    VPGA_ASSERT(confl != kNoClause);
    const std::uint32_t size = arena_[confl];
    const std::uint32_t start = p.valid() ? 1 : 0;  // skip the asserting slot on reasons
    for (std::uint32_t k = start; k < size; ++k) {
      const Lit q = Lit::from_code(arena_[confl + 1 + k]);
      const Var v = q.var();
      if (seen_[v] != 0 || level_[v] == 0) continue;
      seen_[v] = 1;
      bump_var(v);
      if (level_[v] == decision_level()) {
        ++path_count;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Next current-level literal to resolve on.
    while (seen_[trail_[index - 1].var()] == 0) --index;
    --index;
    p = trail_[index];
    seen_[p.var()] = 0;
    confl = reason_[p.var()];
    if (--path_count <= 0) break;
  }
  out_learnt[0] = ~p;

  // Backtrack level: the highest level among the non-asserting literals.
  out_btlevel = 0;
  std::size_t max_at = 1;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const std::size_t lev = level_[out_learnt[k].var()];
    if (lev > out_btlevel) {
      out_btlevel = lev;
      max_at = k;
    }
  }
  if (out_learnt.size() > 1) std::swap(out_learnt[1], out_learnt[max_at]);
  for (std::size_t k = 1; k < out_learnt.size(); ++k) seen_[out_learnt[k].var()] = 0;
}

void Solver::cancel_until(std::size_t level) {
  if (decision_level() <= level) return;
  const std::uint32_t bound = trail_lim_[level];
  for (std::size_t k = trail_.size(); k > bound; --k) {
    const Var v = trail_[k - 1].var();
    assigns_[v] = -1;
    reason_[v] = kNoClause;
    if (heap_pos_[v] < 0 && in_scope(v)) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) heap_up(static_cast<std::size_t>(heap_pos_[v]));
}

void Solver::decay_activities() { var_inc_ *= (1.0 / 0.95); }

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_.size() - 1);
}

void Solver::heap_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!order_less(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_down(std::size_t i) {
  const Var v = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && order_less(heap_[child + 1], heap_[child])) ++child;
    if (!order_less(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_down(0);
  }
  return top;
}

Lit Solver::pick_branch() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (assigns_[v] < 0) return Lit(v, polarity_[v] == 0);
  }
  return Lit();
}

Result Solver::solve(std::span<const Lit> assumptions, long long conflict_budget) {
  begin_scope();
  for (Var v = 0; v < num_vars(); ++v) add_to_scope(v);
  return search(assumptions, conflict_budget);
}

Result Solver::solve(std::span<const Lit> assumptions, long long conflict_budget,
                     std::span<const Var> scope) {
  begin_scope();
  for (const Var v : scope) {
    VPGA_ASSERT(v < num_vars());
    add_to_scope(v);
  }
  return search(assumptions, conflict_budget);
}

void Solver::begin_scope() {
  for (const Var v : heap_) heap_pos_[v] = -1;  // the last call's leftovers
  heap_.clear();
  ++scope_epoch_;
}

void Solver::add_to_scope(Var v) {
  if (in_scope(v)) return;
  scope_stamp_[v] = scope_epoch_;
  if (assigns_[v] < 0) heap_insert(v);
}

Result Solver::search(std::span<const Lit> assumptions, long long conflict_budget) {
  if (!ok_) return Result::kUnsat;
  VPGA_ASSERT(decision_level() == 0);
  const long long conflict_limit =
      conflict_budget < 0 ? -1 : stats_.conflicts + conflict_budget;
  long long restarts_done = 0;
  long long conflicts_this_restart = 0;
  long long restart_limit = 100 * luby(0);

  if (propagate() != kNoClause) {
    ok_ = false;
    return Result::kUnsat;
  }

  for (;;) {
    const std::uint32_t confl = propagate();
    if (confl != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::kUnsat;
      }
      if (conflict_limit >= 0 && stats_.conflicts > conflict_limit) {
        cancel_until(0);
        return Result::kUnknown;
      }
      std::size_t bt_level = 0;
      analyze(confl, learnt_scratch_, bt_level);
      cancel_until(bt_level);
      if (learnt_scratch_.size() == 1) {
        enqueue(learnt_scratch_[0], kNoClause);
      } else {
        const std::uint32_t cref = alloc_clause(learnt_scratch_, /*learnt=*/true);
        watch_clause(cref);
        enqueue(learnt_scratch_[0], cref);
      }
      decay_activities();
      continue;
    }

    if (conflict_limit >= 0 && stats_.conflicts >= conflict_limit) {
      cancel_until(0);
      return Result::kUnknown;
    }
    if (conflicts_this_restart >= restart_limit) {
      ++stats_.restarts;
      ++restarts_done;
      conflicts_this_restart = 0;
      restart_limit = 100 * luby(restarts_done);
      cancel_until(0);
      continue;
    }

    // Next decision: pending assumptions first, then the activity order.
    Lit next;
    while (decision_level() < assumptions.size()) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == 1) {
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));  // dummy level
      } else if (value(a) == 0) {
        cancel_until(0);  // assumption contradicted by the clause set
        return Result::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (!next.valid()) {
      next = pick_branch();
      if (!next.valid()) {  // every scope variable assigned: model found
        model_.assign(assigns_.begin(), assigns_.end());
        cancel_until(0);
        return Result::kSat;
      }
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(next, kNoClause);
  }
}

}  // namespace vpga::sat
