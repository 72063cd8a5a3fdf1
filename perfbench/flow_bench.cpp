// Flow benchmark driver: times the paper's design flows end to end through
// flow::run_flow, replays the same stages layer by layer for a per-layer
// profile, and checks every result it reports.
//
//   flow_bench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones. perfbench/DESIGN.md
// describes the workloads, the metrics and the checks.
//
// Every flow run happens in a forked child, so an abort (VPGA_ASSERT) or a
// run over its wall-clock limit is counted against the runs attempted
// without losing the rest of the sample. Children run one at a time: the
// driver stays serial and single-threaded.

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "designs/designs.hpp"
#include "flow/flow.hpp"
#include "library/characterize.hpp"
#include "logic/npn.hpp"
#include "obs/obs.hpp"
#include "pack/packer.hpp"
#include "place/placement.hpp"
#include "route/router.hpp"
#include "synth/buffering.hpp"
#include "synth/mapper.hpp"
#include "synth/match_index.hpp"
#include "timing/sta.hpp"
#include "verify/cec.hpp"
#include "verify/equiv.hpp"
#include "verify/verify.hpp"

namespace {

using namespace vpga;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct DesignSpec {
  const char* label;
  designs::BenchmarkDesign (*make)();
};

/// One flow run of a workload: a design on an architecture through one flow.
struct Point {
  int design = 0;  ///< index into Workload::designs
  bool lut = false;
  char flow = 'a';
  /// Wall-clock limit of this point's runs; 0 takes the workload's.
  double limit_s = 0.0;
};

struct Workload {
  const char* name;
  std::vector<DesignSpec> designs;
  std::vector<Point> points;
  verify::VerifyLevel level = verify::VerifyLevel::kOff;
  /// Wall-clock limit per flow run unless the point sets its own; a run over
  /// it is killed and counted as not completed.
  double limit_s = 0.0;
  /// Design (index) whose post-map netlist gets the known-answer check on
  /// both architectures; -1 for none.
  int known_answer_design = -1;
  /// Placements the QoR metrics average over: --seed and seeds derived
  /// from it (see Bench::qor_replays).
  int qor_placements = 1;
};

constexpr int kMutantsPerPoint = 3;
constexpr int kSetupsPerRun = 5;
constexpr std::size_t kMaxReplayPasses = 3;
constexpr double kLutFpuLimitS = 4.0;
// The FPU's top-10 slack moves by up to half between placements, most on
// the LUT PLB; suite_a_off's eight points average it out on their own.
constexpr int kQorPlacements = 8;

designs::BenchmarkDesign fpu_1lane() { return designs::make_fpu(8, 23, 1); }
designs::BenchmarkDesign alu32() { return designs::make_alu(32); }
designs::BenchmarkDesign firewire() { return designs::make_firewire(16, 16); }
designs::BenchmarkDesign switch4x64() { return designs::make_network_switch(4, 64); }

std::vector<Point> both_archs(int designs, char flow) {
  std::vector<Point> out;
  for (int d = 0; d < designs; ++d)
    for (const bool lut : {false, true}) out.push_back({d, lut, flow, 0.0});
  return out;
}

// Why each workload exists, and why the designs are below paper scale (the
// acceptance runs must fit a fixed time budget): perfbench/DESIGN.md.
std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"fpu_b_off", {{"fpu_e8m23x1", fpu_1lane}}, both_archs(1, 'b'),
               verify::VerifyLevel::kOff, 60.0, -1, kQorPlacements});
  w.push_back({"suite_a_off",
               {{"alu32", alu32},
                {"firewire16x16", firewire},
                {"fpu_e8m23x1", fpu_1lane},
                {"switch4x64", switch4x64}},
               both_archs(4, 'a'), verify::VerifyLevel::kOff, 60.0, -1, 1});
  w.push_back({"prove_exact", {{"alu32", alu32}, {"fpu_e8m23x1", fpu_1lane}},
               both_archs(2, 'b'), verify::VerifyLevel::kExact, 25.0, 0, kQorPlacements});
  // The LUT FPU point's post-map proof runs for many minutes: a short limit
  // marks it as the baseline non-completion without filling flow_s with a
  // constant.
  w.back().points.back().limit_s = kLutFpuLimitS;
  return w;
}

// ---------------------------------------------------------------------------
// Forked jobs
// ---------------------------------------------------------------------------

enum class JobStatus { kOk, kAborted, kTimedOut };

const char* status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kAborted: return "aborted";
    case JobStatus::kTimedOut: return "timed out";
  }
  return "?";
}

/// Runs `job` in a forked child under a wall-clock limit. The job writes its
/// result into a shared mapping as it goes, so `out` holds whatever the
/// child had recorded even when it was killed or aborted. The child is always
/// reaped before this returns.
template <class T>
JobStatus run_child(double limit_s, const std::function<void(T&)>& job, T& out,
                    double& elapsed_s) {
  static_assert(std::is_trivially_copyable_v<T>);
  void* mem = ::mmap(nullptr, sizeof(T), PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                     -1, 0);
  if (mem == MAP_FAILED) return JobStatus::kAborted;
  T* shared = new (mem) T{};
  int fds[2];  // the child holds the write end; EOF tells the parent it ended
  if (::pipe(fds) != 0) {
    ::munmap(mem, sizeof(T));
    return JobStatus::kAborted;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    job(*shared);
    ::_exit(0);
  }
  ::close(fds[1]);
  bool timed_out = false;
  while (pid > 0) {
    const double left_s = limit_s - seconds_since(t0);
    if (left_s <= 0.0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(std::ceil(left_s * 1000.0)));
    if (r <= 0) continue;  // EINTR or deadline: re-checked above
    char c = 0;
    const ssize_t n = ::read(fds[0], &c, 1);
    if (n == 0 || (n < 0 && errno != EINTR)) break;  // the child has ended
  }
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) {
    if (timed_out) ::kill(pid, SIGKILL);
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  elapsed_s = seconds_since(t0);
  std::memcpy(static_cast<void*>(&out), shared, sizeof(T));
  ::munmap(mem, sizeof(T));
  if (timed_out) return JobStatus::kTimedOut;
  if (pid < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return JobStatus::kAborted;
  return JobStatus::kOk;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<designs::BenchmarkDesign> designs;
  core::PlbArchitecture granular;
  core::PlbArchitecture lut;
};

/// Generates the workload's designs and architectures, fills the
/// process-wide lazy tables (NPN canonical forms, cell library, configuration
/// specs) and builds the match indices once, so no timed flow run pays for
/// first use.
Inputs set_up(const Workload& w) {
  Inputs in{{}, core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()};
  for (const DesignSpec& d : w.designs) in.designs.push_back(d.make());
  (void)logic::npn_canonical_table3();
  (void)logic::npn_classes();
  (void)logic::npn_representatives4();
  (void)core::config_specs(library::CellLibrary::standard());
  for (const core::PlbArchitecture* a : {&in.granular, &in.lut}) {
    const synth::MatchIndex cells(synth::cell_target(*a));
    const synth::MatchIndex configs(synth::config_target(*a));
  }
  return in;
}

/// Times set-ups from scratch while the benchmark runs. It forks a helper
/// before the benchmark's own set-up, so the lazy tables are still empty in
/// it; each sample is a fresh child of that helper, which sets up and
/// reports its time.
class SetupSampler {
 public:
  explicit SetupSampler(const Workload& w) {
    int req[2], resp[2];
    if (::pipe(req) != 0 || ::pipe(resp) != 0) return;
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(req[1]);
      ::close(resp[0]);
      char c = 0;
      while (::read(req[0], &c, 1) == 1) {
        double t = -1.0, elapsed = 0.0;
        const std::function<void(double&)> job = [&](double& out) {
          const Clock::time_point t0 = Clock::now();
          const Inputs in = set_up(w);
          out = seconds_since(t0);
        };
        if (run_child(w.limit_s, job, t, elapsed) != JobStatus::kOk) t = -1.0;
        if (::write(resp[1], &t, sizeof t) != sizeof t) break;
      }
      ::_exit(0);
    }
    ::close(req[0]);
    ::close(resp[1]);
    req_ = req[1];
    resp_ = resp[0];
  }
  SetupSampler(const SetupSampler&) = delete;
  SetupSampler& operator=(const SetupSampler&) = delete;
  ~SetupSampler() {
    if (req_ >= 0) ::close(req_);  // EOF ends the helper
    if (resp_ >= 0) ::close(resp_);
    if (pid_ > 0)
      while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
      }
  }

  /// One set-up time in seconds; negative when the set-up failed.
  double sample() {
    double t = -1.0;
    const char c = 's';
    if (pid_ <= 0 || ::write(req_, &c, 1) != 1) return -1.0;
    return ::read(resp_, &t, sizeof t) == sizeof t ? t : -1.0;
  }

 private:
  pid_t pid_ = -1;
  int req_ = -1;
  int resp_ = -1;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// The FlowReport fields a run reports; the replay must reproduce every one
/// of them exactly.
struct Qor {
  double die_area_um2 = 0.0;
  double avg_slack_top10_ps = 0.0;
  double wns_ps = 0.0;
  double critical_delay_ps = 0.0;
  double wirelength_um = 0.0;
  double gate_count_nand2 = 0.0;
  double max_displacement_um = 0.0;
  int plbs = 0;

  bool operator==(const Qor&) const = default;
};

Qor qor_of(const flow::FlowReport& r) {
  return {r.die_area_um2,      r.avg_slack_top10_ps, r.wns_ps,
          r.critical_delay_ps, r.wirelength_um,      r.gate_count_nand2,
          r.max_displacement_um, r.plbs};
}

int resource_limits_of(const verify::VerifyReport& rep) {
  int n = 0;
  for (const auto& d : rep.diagnostics()) n += d.rule == "cec.resource-limit" ? 1 : 0;
  return n;
}

struct FlowOutcome {
  double run_s = 0.0;
  Qor qor;
  int resource_limits = 0;  ///< cec.resource-limit findings
};

/// Layer calls the replay times.
enum Timer : int {
  kTechMap,
  kCompactFrom,
  kInsertBuffers,
  kPlace,
  kAnalyze,
  kPack,
  kRoute,
  kVerify,
  kVerifyPostMap,
  kVerifyPostCompact,
  kFirstFitProbe,
  kNumTimers,
  kNoTimer = -1,
};

/// Counters the layers record themselves, read from the replay's ObsContext.
constexpr std::array<const char*, 17> kCounters = {
    "map.cuts_enumerated",      "place.sa_moves",
    "place.sa_accepted",        "pack.grow_attempts",
    "route.connections",        "route.maze_routes",
    "route.ripups",             "route.overflow_edges",
    "cec.points",               "cec.unknown",
    "cec.tier_resolved.structural", "cec.tier_resolved.truth",
    "cec.tier_resolved.bitsim", "cec.tier_resolved.bdd",
    "cec.tier_resolved.sat",    "cec.bdd_fallbacks",
    "sat.conflicts",
};

std::size_t counter_index(const char* name) {
  for (std::size_t i = 0; i < kCounters.size(); ++i)
    if (std::strcmp(kCounters[i], name) == 0) return i;
  std::fprintf(stderr, "flow_bench: unknown counter %s\n", name);
  std::abort();
}

struct ReplayOutcome {
  Qor qor;
  double total_s = 0.0;  ///< sum of the timed layer calls, probe excluded
  std::array<double, kNumTimers> timer_s{};
  /// The layer call in progress (so a killed replay still books its time).
  std::array<int, 2> open = {kNoTimer, kNoTimer};
  double open_since_s = 0.0;
  std::array<long long, kCounters.size()> counters{};
  int pack_calls = 0;
  int overflow_edges = 0;  ///< RoutingResult::overflow_edges
  double peak_congestion = 0.0;
  int output_findings = 0;  ///< random-stimulus check of the final netlist

  /// Books the call in progress as ending `elapsed_s` after the replay began.
  void close_open(double elapsed_s) {
    if (open[0] == kNoTimer) return;
    const double s = std::max(0.0, elapsed_s - open_since_s);
    for (const int t : open)
      if (t != kNoTimer) timer_s[static_cast<std::size_t>(t)] += s;
    if (open[0] != kFirstFitProbe) total_s += s;
    open = {kNoTimer, kNoTimer};
  }
};

// ---------------------------------------------------------------------------
// The traced replay
// ---------------------------------------------------------------------------

/// Replays flow::run_flow stage by stage through each layer's public
/// functions — the same calls in the same order as src/flow/flow.cpp — and
/// times every call from here. An ObsContext bound around the replay collects
/// the counters the layers record. With `probe`, every pack() call is
/// followed by a standalone pack::first_fit_tile_count call on the same
/// netlist, timed apart from the flow.
void replay(const designs::BenchmarkDesign& design, const core::PlbArchitecture& arch,
            char which, const flow::FlowOptions& opts, bool probe, ReplayOutcome& out) {
  const Clock::time_point t0 = Clock::now();
  obs::ObsContext ctx(/*trace=*/true, /*metrics=*/true);
  const obs::ScopedObs bind(&ctx);
  auto timed = [&](Timer t, Timer sub, auto&& call) {
    out.open_since_s = seconds_since(t0);
    out.open = {t, sub};
    call();
    out.close_open(seconds_since(t0));
  };

  verify::VerifyOptions vopts;
  vopts.level = opts.verify_level;
  vopts.equiv.seed = opts.seed;
  vopts.cec = opts.cec;
  verify::FlowVerifier verifier(arch, vopts);
  const netlist::Netlist& golden = design.netlist;
  auto check = [&](verify::Stage stage, const netlist::Netlist& nl,
                   const netlist::Netlist* ref, const pack::PackedDesign* packed) {
    const Timer sub = stage == verify::Stage::kPostMap       ? kVerifyPostMap
                      : stage == verify::Stage::kPostCompact ? kVerifyPostCompact
                                                             : kNoTimer;
    verify::VerifyReport rep;
    timed(kVerify, sub, [&] { rep = verifier.check(stage, nl, ref, packed); });
    verify::enforce(rep);
  };

  check(verify::Stage::kInput, golden, nullptr, nullptr);
  synth::MapResult mapped;
  timed(kTechMap, kNoTimer, [&] {
    mapped = synth::tech_map(design.netlist, synth::cell_target(arch), synth::Objective::kDelay);
  });
  check(verify::Stage::kPostMap, mapped.netlist, &golden, nullptr);
  compact::CompactionResult compacted;
  timed(kCompactFrom, kNoTimer,
        [&] { compacted = compact::compact_from(design.netlist, mapped.netlist, arch); });
  check(verify::Stage::kPostCompact, compacted.netlist, &golden, nullptr);
  timed(kInsertBuffers, kNoTimer,
        [&] { synth::insert_buffers(compacted.netlist, opts.max_fanout); });
  check(verify::Stage::kPostBuffer, compacted.netlist, &golden, nullptr);
  const netlist::Netlist& nl = compacted.netlist;

  place::PlacerOptions popts;
  popts.seed = opts.seed;
  popts.utilization = opts.asic_utilization;
  timing::StaOptions sta;
  sta.clock_period_ps = design.clock_period_ps;
  sta.process = library::EffortModel{};
  place::Placement placed;
  timing::TimingReport t;
  timed(kPlace, kNoTimer, [&] { placed = place::place(nl, popts); });
  timed(kAnalyze, kNoTimer, [&] { t = timing::analyze(nl, placed, sta); });
  popts.criticality = t.criticality;
  timed(kPlace, kNoTimer, [&] { placed = place::place(nl, popts); });

  route::RoutingResult routed;
  const place::Placement* final_placement = &placed;
  pack::PackedDesign packed;
  if (which == 'a') {
    out.qor.die_area_um2 = place::asic_die_area(nl, opts.asic_utilization);
    const double cell_pitch = std::max(4.0, placed.width_um / 64.0);
    timed(kRoute, kNoTimer, [&] { routed = route::route(nl, placed, cell_pitch); });
  } else {
    pack::PackOptions packo;
    for (int iter = 0; iter < std::max(1, opts.pack_timing_iterations); ++iter) {
      timed(kPack, kNoTimer, [&] { packed = pack::pack(nl, placed, arch, packo); });
      ++out.pack_calls;
      if (probe)
        timed(kFirstFitProbe, kNoTimer, [&] { (void)pack::first_fit_tile_count(nl, arch); });
      timing::TimingReport pre;
      timed(kAnalyze, kNoTimer, [&] { pre = timing::analyze(nl, packed.legal, sta); });
      packo.criticality = pre.criticality;
    }
    check(verify::Stage::kPostPack, nl, &golden, &packed);
    out.qor.die_area_um2 = packed.die_area_um2;
    out.qor.plbs = packed.plbs_used;
    out.qor.max_displacement_um = packed.max_displacement_um;
    timed(kRoute, kNoTimer,
          [&] { routed = route::route(nl, packed.legal, packed.tile_size_um); });
    check(verify::Stage::kPostRoute, nl, nullptr, &packed);
    final_placement = &packed.legal;
  }
  sta.net_length_um = routed.net_length_um;
  timed(kAnalyze, kNoTimer, [&] { t = timing::analyze(nl, *final_placement, sta); });

  out.qor.gate_count_nand2 = nl.stats().nand2_equiv;
  out.qor.wirelength_um = routed.total_wirelength_um;
  out.qor.avg_slack_top10_ps = t.avg_slack_top10_ps;
  out.qor.wns_ps = t.wns_ps;
  out.qor.critical_delay_ps = t.critical_delay_ps;
  out.overflow_edges = routed.overflow_edges;
  out.peak_congestion = routed.peak_congestion;

  // Output check: the final netlist against the input design on random
  // stimulus, independent of the exact checker under test.
  verify::VerifyReport eq;
  verify::EquivOptions eo;
  eo.seed = opts.seed;
  verify::check_equivalence(golden, nl, "bench-output", eq, eo);
  out.output_findings = static_cast<int>(eq.size());

  const obs::ObsReport rep = ctx.report();
  for (std::size_t i = 0; i < kCounters.size(); ++i) out.counters[i] = rep.counter(kCounters[i]);
}

// ---------------------------------------------------------------------------
// Known-answer check of the exact checker
// ---------------------------------------------------------------------------

struct KnownAnswer {
  int mutants = 0;  ///< mutants random simulation refutes
  int refuted = 0;  ///< ...of which both checker configurations refuted
  int wrong = 0;    ///< wrong or missing verdicts
};

enum class Verdict { kProven, kRefuted, kOther };

Verdict verdict_of(const verify::CecReport& r) {
  if (r.proven()) return Verdict::kProven;
  if (r.interface_ok && !r.equivalent && r.cex.has_value()) return Verdict::kRefuted;
  return Verdict::kOther;
}

/// Maps the design and proves (golden, post-map); then flips one truth-table
/// row of seeded comb nodes until `count` mutants are found that random
/// simulation refutes, each of which the exact checker must refute too.
/// Every pair is checked twice: with the default tier ladder, and with
/// force_bdd, which skips the structural, truth-table and exhaustive tiers,
/// so the BDD tier (with SAT as its fallback) must reach the same verdicts.
void known_answer(const designs::BenchmarkDesign& design, const core::PlbArchitecture& arch,
                  std::uint64_t seed, int count, KnownAnswer& k) {
  const netlist::Netlist& golden = design.netlist;
  verify::CecOptions forced;
  forced.force_bdd = true;
  auto expect = [&](const netlist::Netlist& revised, Verdict want) {
    bool ok = true;
    for (const verify::CecOptions& o : {verify::CecOptions{}, forced})
      ok = verdict_of(verify::check_combinational_equivalence(golden, revised, o)) == want && ok;
    k.wrong += ok ? 0 : 1;
    return ok;
  };
  const synth::MapResult mapped =
      synth::tech_map(golden, synth::cell_target(arch), synth::Objective::kDelay);
  expect(mapped.netlist, Verdict::kProven);

  std::vector<netlist::NodeId> comb;
  for (const netlist::NodeId id : mapped.netlist.all_nodes())
    if (mapped.netlist.node(id).type == netlist::NodeType::kComb &&
        mapped.netlist.node(id).num_fanins() > 0)
      comb.push_back(id);
  common::Rng rng(seed);
  for (int attempt = 0; attempt < 64 * count && k.mutants < count && !comb.empty(); ++attempt) {
    netlist::Netlist mutant = mapped.netlist;
    netlist::Node& n = mutant.node(comb[rng.next_below(comb.size())]);
    const std::uint64_t row = rng.next_below(static_cast<std::uint64_t>(n.func.num_rows()));
    n.func = logic::TruthTable(n.func.num_vars(), n.func.bits() ^ (std::uint64_t{1} << row));
    verify::VerifyReport sim;
    verify::EquivOptions eo;
    eo.seed = seed;
    verify::check_equivalence(golden, mutant, "bench-mutant", sim, eo);
    if (sim.empty()) continue;  // random stimulus cannot see it: not a known answer
    ++k.mutants;
    if (expect(mutant, Verdict::kRefuted)) ++k.refuted;
  }
  if (k.mutants < count) ++k.wrong;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    s += std::string(i > 0 ? ", " : "") + "\"" + metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Peak resident set of this process and of its largest child so far, in MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc != 9) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*val == '\0' || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*val == '\0' || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") == 0 ? 0 : std::strcmp(val, "1") == 0 ? 1 : -1;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.trace >= 0 && a.seconds > 0.0;
}

struct PointRun {
  JobStatus status = JobStatus::kAborted;
  double seconds = 0.0;  ///< run_flow time, or the time until the kill
  FlowOutcome flow;

  /// Finished within the limit, and the exact checker hit no resource limit.
  [[nodiscard]] bool completed() const {
    return status == JobStatus::kOk && flow.resource_limits == 0;
  }
};

class Bench {
 public:
  Bench(const Workload& w, const Args& args) : w_(w), args_(args) {
    opts_.seed = args.seed;
    opts_.verify_level = w.level;
  }

  int run() {
    sampler_.emplace(w_);
    const Clock::time_point t0 = Clock::now();
    in_ = set_up(w_);
    setup_s_.push_back(seconds_since(t0));
    if (!timed_passes()) return 1;
    // Before the replays and known-answer jobs, whose children run with the
    // benchmark's own instrumentation.
    peak_rss_mb_ = peak_rss_mb();
    check_passes_agree();
    replays();
    if (args_.trace == 0) qor_replays();
    known_answers();
    for (std::size_t i = 0; i < w_.points.size(); ++i)
      std::fprintf(stderr, "flow_bench: %-28s %-9s %8.3f s  slack %9.1f ps  overflow %d\n",
                   label(i).c_str(), status_name(ref(i).status), ref(i).seconds,
                   replays_[i].qor.avg_slack_top10_ps, replays_[i].overflow_edges);
    print_result(correct_, attempted_, failed_, args_.trace == 0 ? end_to_end() : per_layer());
    return 0;
  }

 private:
  const core::PlbArchitecture& arch(std::size_t i) const {
    return w_.points[i].lut ? in_.lut : in_.granular;
  }
  const designs::BenchmarkDesign& design(std::size_t i) const {
    return in_.designs[static_cast<std::size_t>(w_.points[i].design)];
  }
  std::string label(std::size_t i) const {
    const Point& p = w_.points[i];
    return std::string(w_.designs[static_cast<std::size_t>(p.design)].label) + "/" +
           (p.lut ? "lut" : "granular") + "/" + p.flow;
  }
  const PointRun& ref(std::size_t i) const { return passes_.front()[i]; }
  double limit_s(std::size_t i) const {
    return w_.points[i].limit_s > 0.0 ? w_.points[i].limit_s : w_.limit_s;
  }

  void fail(const std::string& what, bool counts_as_failed_run) {
    correct_ = false;
    if (counts_as_failed_run) ++failed_;
    std::fprintf(stderr, "flow_bench: CHECK FAILED: %s\n", what.c_str());
  }

  /// Set-up kSetupsPerRun times from scratch. It runs before every timed
  /// flow run, so the samples span the whole run: a shared machine's speed
  /// can shift within seconds, and a batch taken at one moment can land in
  /// a slow spell. setup_s is the median of these samples and the benchmark's
  /// own set-up.
  bool sample_set_up() {
    for (int i = 0; i < kSetupsPerRun; ++i) {
      const double t = sampler_->sample();
      if (t < 0.0) {
        std::fprintf(stderr, "flow_bench: set-up failed\n");
        return false;
      }
      setup_s_.push_back(t);
    }
    return true;
  }

  /// Every point through flow::run_flow (trace, metrics and memtrack off),
  /// pass after pass while the next pass still fits in --seconds; at least
  /// one pass. False when a set-up sample failed.
  bool timed_passes() {
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      std::vector<PointRun> pass(w_.points.size());
      double pass_s = 0.0;
      for (std::size_t i = 0; i < pass.size(); ++i) {
        if (!sample_set_up()) return false;
        const std::function<void(FlowOutcome&)> job = [&](FlowOutcome& o) {
          const Clock::time_point start = Clock::now();
          const flow::FlowReport r = flow::run_flow(design(i), arch(i), w_.points[i].flow, opts_);
          o.run_s = seconds_since(start);
          o.qor = qor_of(r);
          o.resource_limits = resource_limits_of(r.verify);
        };
        PointRun& r = pass[i];
        r.status = run_child(limit_s(i), job, r.flow, r.seconds);
        if (r.status == JobStatus::kOk) r.seconds = r.flow.run_s;
        if (r.status == JobStatus::kAborted) fail(label(i) + ": run_flow aborted", true);
        ++attempted_;
        ++runs_;
        completed_ += r.completed() ? 1 : 0;
        pass_s += r.seconds;
      }
      passes_.push_back(std::move(pass));
      std::fprintf(stderr, "flow_bench: pass %zu: %.3f s\n", passes_.size(), pass_s);
      if (seconds_since(t0) + pass_s > args_.seconds) return true;
    }
  }

  /// QoR is deterministic: every pass must reproduce the first.
  void check_passes_agree() {
    for (std::size_t k = 1; k < passes_.size(); ++k)
      for (std::size_t i = 0; i < w_.points.size(); ++i) {
        const PointRun& a = ref(i);
        const PointRun& b = passes_[k][i];
        if (a.status != b.status || !(a.flow.qor == b.flow.qor))
          fail(label(i) + ": run_flow result differs between passes", false);
      }
  }

  /// Replays every point: the drift check against run_flow, the output
  /// check, QoR and route overflow (--trace 0) and the per-layer profile
  /// (--trace 1). Untraced runs replay once at verify=off, which leaves QoR
  /// unchanged, so points whose run_flow hit the limit report QoR too and
  /// the QoR sums always cover every point. Traced runs replay at the
  /// workload's verify level once per timed pass, under the points' limits.
  void replays() {
    const bool traced = args_.trace == 1;
    const std::size_t reps = traced ? std::min<std::size_t>(passes_.size(), kMaxReplayPasses) : 1;
    replays_.assign(w_.points.size(), ReplayOutcome{});
    for (std::size_t k = 0; k < reps; ++k) {
      std::array<double, kNumTimers> timers{};
      double total = 0.0, flow_total = 0.0;
      for (std::size_t i = 0; i < w_.points.size(); ++i) {
        const bool limited = ref(i).status == JobStatus::kTimedOut;
        if (ref(i).status == JobStatus::kAborted) continue;
        flow::FlowOptions ropts = opts_;
        if (!traced) ropts.verify_level = verify::VerifyLevel::kOff;
        const std::function<void(ReplayOutcome&)> job = [&](ReplayOutcome& r) {
          replay(design(i), arch(i), w_.points[i].flow, ropts, traced, r);
        };
        ReplayOutcome r;
        double elapsed = 0.0;
        const bool may_time_out = limited && traced;
        const JobStatus st =
            run_child(may_time_out ? limit_s(i) : 2.0 * w_.limit_s, job, r, elapsed);
        ++attempted_;
        r.close_open(elapsed);
        // A point whose run_flow hit the limit has no report to compare
        // against: untraced, its replay gets the output check; traced, it
        // only has to end without aborting.
        if (st == JobStatus::kAborted || (!may_time_out && st != JobStatus::kOk))
          fail(label(i) + ": replay " + status_name(st), true);
        else if (!limited)
          check_replay(i, k, r);
        else if (!traced && r.output_findings != 0)
          fail(label(i) + ": final netlist differs from the design on random stimulus", true);
        for (std::size_t t = 0; t < timers.size(); ++t) timers[t] += r.timer_s[t];
        total += r.total_s;
        flow_total += passes_[k][i].seconds;
        if (k == 0) replays_[i] = r;
      }
      timer_passes_.push_back(timers);
      overhead_s_.push_back(total - flow_total);
    }
  }

  /// Untraced runs: the QoR metrics average over the workload's placements.
  /// The first is the replays above, whose seed is --seed; the others replay
  /// every point at verify=off with seeds derived from it and get the output
  /// check. The drift check ties the replay to run_flow on the first.
  void qor_replays() {
    qor_replays_ = replays_;
    for (int p = 1; p < w_.qor_placements; ++p)
      for (std::size_t i = 0; i < w_.points.size(); ++i) {
        if (ref(i).status == JobStatus::kAborted) continue;
        flow::FlowOptions ropts = opts_;
        ropts.seed += static_cast<std::uint64_t>(p) * 0x9E3779B97F4A7C15ULL;
        ropts.verify_level = verify::VerifyLevel::kOff;
        const std::function<void(ReplayOutcome&)> job = [&](ReplayOutcome& r) {
          replay(design(i), arch(i), w_.points[i].flow, ropts, false, r);
        };
        ReplayOutcome r;
        double elapsed = 0.0;
        const JobStatus st = run_child(2.0 * w_.limit_s, job, r, elapsed);
        ++attempted_;
        if (st != JobStatus::kOk)
          fail(label(i) + ": replay " + status_name(st), true);
        else if (r.output_findings != 0)
          fail(label(i) + ": final netlist differs from the design on random stimulus", true);
        qor_replays_.push_back(r);
      }
  }

  void check_replay(std::size_t i, std::size_t k, const ReplayOutcome& r) {
    bool ok = true;
    auto expect = [&](bool cond, const char* what) {
      if (!cond) fail(label(i) + ": " + what, ok);
      ok = ok && cond;
    };
    expect(r.qor == ref(i).flow.qor, "replay QoR differs from run_flow's FlowReport");
    expect(r.output_findings == 0, "final netlist differs from the design on random stimulus");
    expect(r.overflow_edges == r.counters[counter_index("route.overflow_edges")],
           "route.overflow_edges counter differs from RoutingResult");
    if (k > 0)
      expect(r.qor == replays_[i].qor && r.counters == replays_[i].counters,
             "replay differs between repetitions");
  }

  /// Known-answer check of verify::check_combinational_equivalence on seeded
  /// post-map mutants of the chosen designs, both architectures.
  void known_answers() {
    for (std::size_t i = 0; i < w_.points.size(); ++i) {
      if (w_.points[i].design != w_.known_answer_design) continue;
      const std::uint64_t seed = args_.seed * 0x9E3779B97F4A7C15ULL + i;
      const std::function<void(KnownAnswer&)> job = [&](KnownAnswer& k) {
        known_answer(design(i), arch(i), seed, kMutantsPerPoint, k);
      };
      KnownAnswer k;
      double elapsed = 0.0;
      const JobStatus st = run_child(2.0 * w_.limit_s, job, k, elapsed);
      std::fprintf(stderr, "flow_bench: known-answer %s: %.3f s\n", label(i).c_str(), elapsed);
      if (st != JobStatus::kOk || k.wrong != 0)
        fail(label(i) + ": known-answer check " + status_name(st) + ", " +
                 std::to_string(k.wrong) + " wrong verdicts", false);
      known_answer_refuted_ += k.refuted;
    }
  }

  /// Sum over points of each point's median run_flow time across passes;
  /// a run that hit the limit counts its time until the kill.
  double flow_s() const {
    double total = 0.0;
    for (std::size_t i = 0; i < w_.points.size(); ++i) {
      std::vector<double> v;
      for (const auto& pass : passes_) v.push_back(pass[i].seconds);
      total += median(v);
    }
    return total;
  }

  /// QoR comes from the verify=off replays, which the drift check ties to
  /// run_flow, so it covers every point whether or not its run finished.
  /// Sums are per placement, averaged over the placements.
  std::vector<Metric> end_to_end() const {
    double area = 0.0, wire = 0.0, slack = 0.0, overflow = 0.0;
    for (const ReplayOutcome& r : qor_replays_) {
      area += r.qor.die_area_um2;
      wire += r.qor.wirelength_um;
      slack += r.qor.avg_slack_top10_ps;
      overflow += r.overflow_edges;
    }
    const double placements = w_.qor_placements;
    return {
        {"flow_s", flow_s(), "s"},
        {"setup_s", median(setup_s_), "s"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
        {"completed_share", static_cast<double>(completed_) / static_cast<double>(runs_),
         "ratio"},
        {"die_area_mm2", area / placements * 1e-6, "mm2"},
        {"slack_top10_ps", slack / static_cast<double>(qor_replays_.size()), "ps"},
        {"wirelength_m", wire / placements * 1e-6, "m"},
        {"route_overflow_edges", overflow / placements, "edges"},
    };
  }

  /// Layer times are medians over the replay passes; counters repeat exactly
  /// (checked) and are summed over the workload's points.
  std::vector<Metric> per_layer() const {
    auto timer = [&](Timer t) {
      std::vector<double> v;
      for (const auto& pass : timer_passes_) v.push_back(pass[static_cast<std::size_t>(t)]);
      return median(v);
    };
    auto counter = [&](const char* name) {
      double s = 0.0;
      for (const ReplayOutcome& r : replays_)
        s += static_cast<double>(r.counters[counter_index(name)]);
      return s;
    };
    auto share = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    double pack_calls = 0.0, plbs = 0.0, peak = 0.0;
    for (const ReplayOutcome& r : replays_) {
      pack_calls += r.pack_calls;
      plbs += r.qor.plbs;
      peak = std::max(peak, r.peak_congestion);
    }
    return {
        {"synth.tech_map_s", timer(kTechMap), "s"},
        {"compact.compact_from_s", timer(kCompactFrom), "s"},
        {"synth.insert_buffers_s", timer(kInsertBuffers), "s"},
        {"place.place_s", timer(kPlace), "s"},
        {"place.sa_accept_share", share(counter("place.sa_accepted"), counter("place.sa_moves")),
         "ratio"},
        {"timing.analyze_s", timer(kAnalyze), "s"},
        {"map.cuts_enumerated", counter("map.cuts_enumerated"), "count"},
        {"pack.pack_s", timer(kPack), "s"},
        {"pack.calls", pack_calls, "count"},
        {"pack.grow_attempts", counter("pack.grow_attempts"), "count"},
        {"pack.plbs_used", plbs, "count"},
        {"pack.first_fit_tile_count_s", share(timer(kFirstFitProbe), pack_calls), "s"},
        {"route.route_s", timer(kRoute), "s"},
        {"route.maze_routes", counter("route.maze_routes"), "count"},
        {"route.connections", counter("route.connections"), "count"},
        {"route.maze_share", share(counter("route.maze_routes"), counter("route.connections")),
         "ratio"},
        {"route.ripups", counter("route.ripups"), "count"},
        {"route.peak_congestion", peak, "ratio"},
        {"verify.check_s", timer(kVerify), "s"},
        {"verify.check.post-map_s", timer(kVerifyPostMap), "s"},
        {"verify.check.post-compact_s", timer(kVerifyPostCompact), "s"},
        {"cec.points", counter("cec.points"), "count"},
        {"cec.unknown", counter("cec.unknown"), "count"},
        {"cec.tier_resolved.structural", counter("cec.tier_resolved.structural"), "count"},
        {"cec.tier_resolved.truth", counter("cec.tier_resolved.truth"), "count"},
        {"cec.tier_resolved.bitsim", counter("cec.tier_resolved.bitsim"), "count"},
        {"cec.tier_resolved.bdd", counter("cec.tier_resolved.bdd"), "count"},
        {"cec.tier_resolved.sat", counter("cec.tier_resolved.sat"), "count"},
        {"cec.bdd_fallbacks", counter("cec.bdd_fallbacks"), "count"},
        {"sat.conflicts", counter("sat.conflicts"), "count"},
        {"cec.known_answer_refuted", static_cast<double>(known_answer_refuted_), "count"},
        {"flow.run_flow_s", flow_s(), "s"},
        {"trace_overhead_s", median(overhead_s_), "s"},
    };
  }

  const Workload& w_;
  const Args& args_;
  flow::FlowOptions opts_;
  std::optional<SetupSampler> sampler_;
  Inputs in_;
  std::vector<double> setup_s_;
  double peak_rss_mb_ = 0.0;  ///< after the timed passes
  std::vector<std::vector<PointRun>> passes_;
  std::vector<ReplayOutcome> replays_;
  std::vector<ReplayOutcome> qor_replays_;  ///< untraced: every placement
  std::vector<std::array<double, kNumTimers>> timer_passes_;
  std::vector<double> overhead_s_;  ///< per replay pass: replay total - run_flow total
  int known_answer_refuted_ = 0;
  bool correct_ = true;
  long long attempted_ = 0;
  long long runs_ = 0;       ///< timed run_flow calls
  long long completed_ = 0;  ///< ...of which completed
  long long failed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr, "usage: flow_bench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return args.workload == w.name; });
  if (it == all.end()) {
    std::fprintf(stderr, "flow_bench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return Bench(*it, args).run();
}
