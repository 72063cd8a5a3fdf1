#include "flowscope.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

#include "obs/json.hpp"

namespace vpga::flowscope {
namespace {

using obs::json::Value;

double num(const Value* v, double fallback = 0.0) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

/// Members of an object value as a sorted name->number map.
std::map<std::string, double> number_map(const Value* v) {
  std::map<std::string, double> out;
  if (v == nullptr || !v->is_object()) return out;
  for (const auto& [k, member] : v->object)
    if (member.is_number()) out[k] = member.number;
  return out;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 1.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct MeanCv {
  double mean = 0;
  double cv = 0;
  int n = 0;
};

MeanCv mean_cv(const std::vector<double>& xs) {
  MeanCv out;
  out.n = static_cast<int>(xs.size());
  if (xs.empty()) return out;
  for (const double x : xs) out.mean += x;
  out.mean /= static_cast<double>(xs.size());
  if (xs.size() >= 2 && out.mean > 0) {
    double ss = 0;
    for (const double x : xs) ss += (x - out.mean) * (x - out.mean);
    out.cv = std::sqrt(ss / static_cast<double>(xs.size() - 1)) / out.mean;
  }
  return out;
}

/// Aggregates one snapshot's per-stage time across all its runs.
std::map<std::string, double> aggregate_stages(const Snapshot& s) {
  std::map<std::string, double> agg;
  for (const auto& [key, run] : s.runs)
    for (const auto& [stage, us] : run.stage_us) agg[stage] += us;
  return agg;
}

std::map<std::string, double> shares(const std::map<std::string, double>& agg) {
  double total = 0;
  for (const auto& [stage, us] : agg) total += us;
  std::map<std::string, double> out;
  if (total <= 0) return out;
  for (const auto& [stage, us] : agg) out[stage] = us / total;
  return out;
}

/// Aggregates one snapshot's memory columns ("span/field" keys) across runs.
std::map<std::string, double> aggregate_memory(const Snapshot& s) {
  std::map<std::string, double> agg;
  for (const auto& [key, run] : s.runs)
    for (const auto& [col, v] : run.memory) agg[col] += v;
  return agg;
}

void classify_relative(Delta& d, double tol, bool increase_is_regress = true) {
  if (d.delta_rel > tol)
    d.verdict = increase_is_regress ? Verdict::kRegress : Verdict::kImprove;
  else if (d.delta_rel < -tol)
    d.verdict = increase_is_regress ? Verdict::kImprove : Verdict::kRegress;
  else
    d.verdict = Verdict::kNeutral;
}

std::string fmt(double v) { return obs::json::format_double(v); }

std::string percent(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", rel * 100.0);
  return buf;
}

}  // namespace

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::kNeutral: return "neutral";
    case Verdict::kImprove: return "improve";
    case Verdict::kRegress: return "regress";
    case Verdict::kNew: return "new";
    case Verdict::kGone: return "gone";
  }
  return "?";
}

bool load_snapshot(std::string_view text, std::string_view path, Snapshot& out,
                   std::string* error) {
  out = Snapshot{};
  out.path = path;
  Value doc;
  if (!obs::json::parse(text, doc, error)) return false;
  const Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    if (error != nullptr) *error = "missing \"schema\"";
    return false;
  }
  if (schema->string == "vpga.flow_bench.v1") {
    out.schema_version = 1;
  } else if (schema->string == "vpga.flow_bench.v2") {
    out.schema_version = 2;
  } else {
    if (error != nullptr) *error = "unsupported schema \"" + schema->string + "\"";
    return false;
  }
  out.scale = num(doc.find("scale"), 1.0);
  const Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    if (error != nullptr) *error = "missing \"runs\" array";
    return false;
  }
  for (const Value& rv : runs->array) {
    const Value* design = rv.find("design");
    const Value* arch = rv.find("arch");
    const Value* flow = rv.find("flow");
    if (design == nullptr || arch == nullptr || flow == nullptr) {
      if (error != nullptr) *error = "run missing design/arch/flow";
      return false;
    }
    Run run;
    run.total_us = num(rv.find("total_us"));
    run.stage_us = number_map(rv.find("stages"));
    run.counters = number_map(rv.find("counters"));
    run.report = number_map(rv.find("report"));
    // v2 memory: {"stage.map": {"alloc_bytes": ...}, ...} flattened to
    // "stage.map/alloc_bytes" (v1 snapshots simply have none).
    if (const Value* mem = rv.find("memory"); mem != nullptr && mem->is_object()) {
      for (const auto& [span, fields] : mem->object)
        for (const auto& [field, v] : number_map(&fields))
          run.memory[span + "/" + field] = v;
    }
    out.runs[design->string + "/" + arch->string + "/" + flow->string] = run;
  }
  return true;
}

Analysis analyze(const std::vector<Snapshot>& baselines, const Snapshot& candidate,
                 const Options& options) {
  Analysis a;
  a.options = options;
  for (const Snapshot& b : baselines) a.baseline_paths.push_back(b.path);
  a.candidate_path = candidate.path;
  const int repeats = static_cast<int>(baselines.size());

  // ---- Stage times: median-ratio normalization + cv thresholds ----
  std::vector<std::map<std::string, double>> base_aggs;
  base_aggs.reserve(baselines.size());
  for (const Snapshot& b : baselines) base_aggs.push_back(aggregate_stages(b));
  const std::map<std::string, double> cand_agg = aggregate_stages(candidate);
  for (const auto& agg : base_aggs) a.stage_share.push_back(shares(agg));
  a.stage_share.push_back(shares(cand_agg));

  // Per-stage baseline mean/cv over repeats.
  std::map<std::string, MeanCv> base_stats;
  {
    std::map<std::string, std::vector<double>> samples;
    for (const auto& agg : base_aggs)
      for (const auto& [stage, us] : agg) samples[stage].push_back(us);
    for (const auto& [stage, xs] : samples) base_stats[stage] = mean_cv(xs);
  }

  // Machine-speed factor: median of candidate/baseline ratios across stages
  // present on both sides. A uniformly faster or slower runner moves every
  // ratio equally and cancels out here.
  std::vector<double> ratios;
  for (const auto& [stage, st] : base_stats) {
    const auto it = cand_agg.find(stage);
    if (it != cand_agg.end() && st.mean > 0) ratios.push_back(it->second / st.mean);
  }
  const double speed = ratios.empty() ? 1.0 : median(ratios);

  // Mean baseline share decides which stages are load-bearing enough to gate.
  std::map<std::string, double> mean_share;
  {
    double total = 0;
    for (const auto& [stage, st] : base_stats) total += st.mean;
    if (total > 0)
      for (const auto& [stage, st] : base_stats) mean_share[stage] = st.mean / total;
  }

  for (const auto& [stage, st] : base_stats) {
    Delta d;
    d.kind = "time";
    d.id = stage;
    d.baseline = st.mean;
    d.repeats = repeats;
    const auto it = cand_agg.find(stage);
    if (it == cand_agg.end()) {
      d.verdict = Verdict::kGone;
      d.gated = false;
      a.deltas.push_back(d);
      continue;
    }
    d.candidate = it->second;
    d.cv = repeats >= 2 ? std::max(st.cv, options.min_cv) : options.default_cv;
    d.threshold = options.z * d.cv + options.min_rel;
    d.delta_rel = speed > 0 && st.mean > 0
                      ? (it->second / st.mean) / speed - 1.0
                      : 0.0;
    d.gated = mean_share[stage] >= options.min_share;
    classify_relative(d, d.threshold);
    a.deltas.push_back(d);
  }
  for (const auto& [stage, us] : cand_agg) {
    if (base_stats.find(stage) != base_stats.end()) continue;
    Delta d;
    d.kind = "time";
    d.id = stage;
    d.candidate = us;
    d.repeats = repeats;
    d.verdict = Verdict::kNew;
    d.gated = false;
    a.deltas.push_back(d);
  }

  // ---- Counters: deterministic, compared exactly against the most recent
  // baseline, per run key ----
  const Snapshot* reference = baselines.empty() ? nullptr : &baselines.back();
  if (reference != nullptr) {
    for (const auto& [key, brun] : reference->runs) {
      const auto crun = candidate.runs.find(key);
      for (const auto& [name, bval] : brun.counters) {
        Delta d;
        d.kind = "counter";
        d.id = key + "/" + name;
        d.baseline = bval;
        d.repeats = repeats;
        if (crun == candidate.runs.end() ||
            crun->second.counters.find(name) == crun->second.counters.end()) {
          d.verdict = Verdict::kGone;
          d.gated = false;
          a.deltas.push_back(d);
          continue;
        }
        d.candidate = crun->second.counters.at(name);
        d.threshold = options.counter_tol;
        d.delta_rel =
            (d.candidate - d.baseline) / std::max(std::fabs(d.baseline), 1.0);
        classify_relative(d, d.threshold);
        a.deltas.push_back(d);
      }
      if (crun == candidate.runs.end()) continue;
      for (const auto& [name, cval] : crun->second.counters) {
        if (brun.counters.find(name) != brun.counters.end()) continue;
        Delta d;
        d.kind = "counter";
        d.id = key + "/" + name;
        d.candidate = cval;
        d.repeats = repeats;
        d.verdict = Verdict::kNew;
        d.gated = false;
        a.deltas.push_back(d);
      }
    }
  }

  // ---- Memory columns: mean across baselines that carry them (v1 carries
  // none), wide tolerance — allocation sizes are libc/compiler-dependent ----
  {
    std::map<std::string, std::vector<double>> samples;
    for (const Snapshot& b : baselines)
      for (const auto& [col, v] : aggregate_memory(b)) samples[col].push_back(v);
    const std::map<std::string, double> cand_mem = aggregate_memory(candidate);
    for (const auto& [col, xs] : samples) {
      Delta d;
      d.kind = "memory";
      d.id = col;
      const MeanCv st = mean_cv(xs);
      d.baseline = st.mean;
      d.repeats = st.n;
      const auto it = cand_mem.find(col);
      if (it == cand_mem.end()) {
        d.verdict = Verdict::kGone;
        d.gated = false;
        a.deltas.push_back(d);
        continue;
      }
      d.candidate = it->second;
      d.threshold = options.mem_tol;
      d.delta_rel =
          (d.candidate - d.baseline) / std::max(std::fabs(d.baseline), 1.0);
      classify_relative(d, d.threshold);
      a.deltas.push_back(d);
    }
    for (const auto& [col, v] : cand_mem) {
      if (samples.find(col) != samples.end()) continue;
      Delta d;
      d.kind = "memory";
      d.id = col;
      d.candidate = v;
      d.repeats = repeats;
      d.verdict = Verdict::kNew;
      d.gated = false;
      a.deltas.push_back(d);
    }
  }

  // ---- Report (QoR): near-exact, all quantities lower-is-better ----
  if (reference != nullptr) {
    for (const auto& [key, brun] : reference->runs) {
      const auto crun = candidate.runs.find(key);
      for (const auto& [name, bval] : brun.report) {
        Delta d;
        d.kind = "report";
        d.id = key + "/" + name;
        d.baseline = bval;
        d.repeats = repeats;
        if (crun == candidate.runs.end() ||
            crun->second.report.find(name) == crun->second.report.end()) {
          d.verdict = Verdict::kGone;
          d.gated = false;
          a.deltas.push_back(d);
          continue;
        }
        d.candidate = crun->second.report.at(name);
        d.threshold = options.report_tol;
        d.delta_rel =
            (d.candidate - d.baseline) / std::max(std::fabs(d.baseline), 1.0);
        classify_relative(d, d.threshold);
        a.deltas.push_back(d);
      }
    }
  }

  std::sort(a.deltas.begin(), a.deltas.end(), [](const Delta& x, const Delta& y) {
    return x.kind != y.kind ? x.kind < y.kind : x.id < y.id;
  });
  for (const Delta& d : a.deltas) {
    if (!d.gated) continue;
    if (d.verdict == Verdict::kRegress) ++a.regressions;
    if (d.verdict == Verdict::kImprove) ++a.improvements;
  }
  return a;
}

std::string verdict_json(const Analysis& a) {
  std::string out = "{\"schema\":\"vpga.flowscope.v1\",\"baselines\":[";
  for (std::size_t i = 0; i < a.baseline_paths.size(); ++i) {
    if (i > 0) out += ',';
    obs::json::append_string(out, a.baseline_paths[i]);
  }
  out += "],\"candidate\":";
  obs::json::append_string(out, a.candidate_path);
  out += ",\"options\":{\"z\":" + fmt(a.options.z) +
         ",\"default_cv\":" + fmt(a.options.default_cv) +
         ",\"min_cv\":" + fmt(a.options.min_cv) +
         ",\"min_rel\":" + fmt(a.options.min_rel) +
         ",\"min_share\":" + fmt(a.options.min_share) +
         ",\"counter_tol\":" + fmt(a.options.counter_tol) +
         ",\"mem_tol\":" + fmt(a.options.mem_tol) +
         ",\"report_tol\":" + fmt(a.options.report_tol) + "}";
  out += ",\"summary\":{\"regressions\":" + std::to_string(a.regressions) +
         ",\"improvements\":" + std::to_string(a.improvements) +
         ",\"deltas\":" + std::to_string(a.deltas.size()) + "}";
  out += ",\"deltas\":[";
  bool first = true;
  for (const Delta& d : a.deltas) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":";
    obs::json::append_string(out, d.kind);
    out += ",\"id\":";
    obs::json::append_string(out, d.id);
    out += ",\"baseline\":" + fmt(d.baseline);
    out += ",\"candidate\":" + fmt(d.candidate);
    out += ",\"delta_rel\":" + fmt(d.delta_rel);
    if (d.kind == "time") out += ",\"cv\":" + fmt(d.cv);
    out += ",\"threshold\":" + fmt(d.threshold);
    out += ",\"repeats\":" + std::to_string(d.repeats);
    out += std::string(",\"gated\":") + (d.gated ? "true" : "false");
    out += ",\"verdict\":";
    obs::json::append_string(out, to_string(d.verdict));
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string trajectory_markdown(const Analysis& a) {
  std::string out = "# Flow perf trajectory\n\n";
  out += "Candidate `" + a.candidate_path + "` vs " +
         std::to_string(a.baseline_paths.size()) + " baseline snapshot(s). ";
  out += "Verdict: **" + std::to_string(a.regressions) + " regression(s), " +
         std::to_string(a.improvements) + " improvement(s)**.\n\n";

  // Stage share trajectory: one column per snapshot (baselines then
  // candidate), one row per stage seen anywhere.
  out += "## Stage time shares\n\n| stage |";
  for (std::size_t i = 0; i + 1 < a.stage_share.size(); ++i)
    out += " base" + std::to_string(i + 1) + " |";
  out += " candidate | Δ(norm) | verdict |\n|---|";
  for (std::size_t i = 0; i < a.stage_share.size(); ++i) out += "---|";
  out += "---|---|\n";
  std::map<std::string, const Delta*> time_rows;
  for (const Delta& d : a.deltas)
    if (d.kind == "time") time_rows[d.id] = &d;
  for (const auto& [stage, d] : time_rows) {
    out += "| `" + stage + "` |";
    for (const auto& share : a.stage_share) {
      const auto it = share.find(stage);
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.1f%%",
                    (it != share.end() ? it->second : 0.0) * 100.0);
      out += " " + std::string(buf) + " |";
    }
    out += " " + percent(d->delta_rel) + " | " + std::string(to_string(d->verdict)) +
           (d->gated ? "" : " (advisory)") + " |\n";
  }

  // Non-neutral rows of the other kinds, most interesting first.
  for (const std::string_view kind : {"counter", "memory", "report"}) {
    std::vector<const Delta*> rows;
    for (const Delta& d : a.deltas)
      if (d.kind == kind && d.verdict != Verdict::kNeutral) rows.push_back(&d);
    out += "\n## ";
    out += kind;
    out += rows.empty() ? " — no movement\n" : " movement\n\n";
    if (rows.empty()) continue;
    out += "| id | baseline | candidate | Δ | verdict |\n|---|---|---|---|---|\n";
    for (const Delta* d : rows) {
      out += "| `" + d->id + "` | " + fmt(d->baseline) + " | " + fmt(d->candidate) +
             " | " + percent(d->delta_rel) + " | " +
             std::string(to_string(d->verdict)) + (d->gated ? "" : " (advisory)") +
             " |\n";
    }
  }
  return out;
}

}  // namespace vpga::flowscope
