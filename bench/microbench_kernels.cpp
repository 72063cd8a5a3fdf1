// Engineering microbenchmarks (google-benchmark): throughput of the CAD
// kernels that dominate the flow's runtime. Not a paper figure — used to
// keep the paper-scale benches tractable.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "compact/compact.hpp"
#include "compact/flowmap.hpp"
#include "designs/designs.hpp"
#include "logic/npn.hpp"
#include "logic/s3.hpp"
#include "obs/obs.hpp"
#include "pack/packer.hpp"
#include "place/placement.hpp"
#include "route/router.hpp"
#include "synth/cuts.hpp"
#include "synth/mapper.hpp"
#include "timing/sta.hpp"
#include "verify/cec.hpp"

namespace {

using namespace vpga;

void BM_S3Analysis(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(logic::analyze_s3());
}
BENCHMARK(BM_S3Analysis);

void BM_AigConstruction(benchmark::State& state) {
  const auto nl = designs::make_ripple_adder(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(aig::from_netlist(nl));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AigConstruction)->Arg(16)->Arg(64)->Complexity();

void BM_CutEnumeration(benchmark::State& state) {
  const auto d = designs::make_alu(static_cast<int>(state.range(0)));
  const auto m = aig::from_netlist(d.netlist);
  for (auto _ : state) benchmark::DoNotOptimize(synth::CutDatabase(m.aig));
}
BENCHMARK(BM_CutEnumeration)->Arg(8)->Arg(32);

void BM_TechMap(benchmark::State& state) {
  const auto d = designs::make_alu(static_cast<int>(state.range(0)));
  const auto target = synth::cell_target(core::PlbArchitecture::granular());
  for (auto _ : state)
    benchmark::DoNotOptimize(synth::tech_map(d.netlist, target, synth::Objective::kDelay));
}
BENCHMARK(BM_TechMap)->Arg(8)->Arg(32);

// The hottest flow stage (BENCH_flow.json: ~65% of wall-clock): the full
// pricing-round loop — three priced re-covers plus FA fusion and pool
// rebalancing — over a mapped ALU.
void BM_Compact(benchmark::State& state) {
  const auto d = designs::make_alu(static_cast<int>(state.range(0)));
  const auto arch = core::PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(d.netlist, synth::cell_target(arch), synth::Objective::kDelay);
  for (auto _ : state) benchmark::DoNotOptimize(compact::compact(mapped.netlist, arch));
}
BENCHMARK(BM_Compact)->Arg(8)->Arg(32);

// The canonicalization kernel behind the mapper's match index:
//   0: table lookup (npn_canonical4, the shipped path)
//   1: brute force (768 NPN images per query, the reference path)
// CI asserts the lookup beats brute force by a wide machine-independent
// ratio — a regression here means the lazy table got rebuilt per query.
// The exact-equivalence kernel: per-output miter proofs of a tech-mapped
// ripple adder against its golden generator netlist.
//   0: cheap-first tier ladder as shipped (every cone retires exhaustively)
//   1: SAT-only — the exhaustive and BDD tiers are disabled, so every cone
//      that survives structural hashing, however small, goes to the CDCL
//      miter
void BM_CecMiter(benchmark::State& state) {
  const auto nl = designs::make_ripple_adder(12);
  const auto target = synth::cell_target(core::PlbArchitecture::granular());
  const auto mapped = synth::tech_map(nl, target, synth::Objective::kDelay);
  verify::CecOptions opts;
  if (state.range(0) == 1) {
    opts.max_exhaustive_inputs = 0;
    opts.bdd_tier = false;
  }
  for (auto _ : state) {
    verify::VerifyReport report;
    verify::check_cec(nl, mapped.netlist, "bench", report, opts);
    benchmark::DoNotOptimize(report.error_count());
  }
}
BENCHMARK(BM_CecMiter)->Arg(0)->Arg(1);

// The BDD-tier claim: XOR-dominated cones are linear for ROBDDs and
// exponential for CDCL clause learning. A 24-bit parity cone, forward fold
// vs a fixed pseudo-random fold (the miter is a Tseitin formula over the
// union of two Hamiltonian paths — an expander, the resolution-hard family):
//   0: BDD tier forced (the shipped closing tier for such cones)
//   1: SAT-only, conflict budget capped at 4096 so the arm stays affordable —
//      the point comes back *undecided*, i.e. this measures a small fraction
//      of the real SAT cost, and CI still asserts the BDD arm wins 10x.
void BM_BddCec(benchmark::State& state) {
  netlist::Netlist fwd("parity_fwd");
  netlist::Netlist shuf("parity_shuf");
  constexpr int kWidth = 24;
  std::vector<netlist::NodeId> xf, xs;
  for (int i = 0; i < kWidth; ++i) {
    const std::string name = "x" + std::to_string(i);
    xf.push_back(fwd.add_input(name));
    xs.push_back(shuf.add_input(name));
  }
  std::vector<std::size_t> ord(kWidth);
  for (std::size_t i = 0; i < ord.size(); ++i) ord[i] = i;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;  // deterministic Fisher-Yates
  for (std::size_t i = ord.size() - 1; i > 0; --i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(ord[i], ord[(seed >> 33) % (i + 1)]);
  }
  netlist::NodeId af = xf[0], as = xs[ord[0]];
  for (std::size_t i = 1; i < ord.size(); ++i) {
    af = fwd.add_xor(af, xf[i]);
    as = shuf.add_xor(as, xs[ord[i]]);
  }
  fwd.add_output(af, "p");
  shuf.add_output(as, "p");
  verify::CecOptions opts;
  opts.sat_sweep = false;
  if (state.range(0) == 0) {
    opts.force_bdd = true;
  } else {
    opts.bdd_tier = false;
    opts.sat_conflict_budget = 4096;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::check_combinational_equivalence(fwd, shuf, opts));
  }
}
BENCHMARK(BM_BddCec)->Arg(0)->Arg(1);

void BM_NpnCanon(benchmark::State& state) {
  const bool brute = state.range(0) == 1;
  // Touch the table once so the lookup path measures steady state, not the
  // one-time orbit-flood construction.
  benchmark::DoNotOptimize(logic::npn_canonical4(0x6996));
  std::uint16_t tt = 0x1234;
  for (auto _ : state) {
    tt = static_cast<std::uint16_t>(tt * 25173u + 13849u);  // LCG probe stream
    benchmark::DoNotOptimize(brute ? logic::npn_canonical4_brute(tt)
                                   : logic::npn_canonical4(tt));
  }
}
BENCHMARK(BM_NpnCanon)->Arg(0)->Arg(1);

void BM_FlowMapLabels(benchmark::State& state) {
  const auto nl = designs::make_ripple_adder(static_cast<int>(state.range(0)));
  const auto m = aig::from_netlist(nl);
  for (auto _ : state) benchmark::DoNotOptimize(compact::flowmap_labels(m.aig));
}
BENCHMARK(BM_FlowMapLabels)->Arg(16)->Arg(64);

struct Prepared {
  netlist::Netlist nl;
  place::Placement placed;
};

Prepared prepare(int width) {
  const auto d = designs::make_alu(width);
  const auto arch = core::PlbArchitecture::granular();
  auto mapped = synth::tech_map(d.netlist, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact(mapped.netlist, arch);
  Prepared p{std::move(comp.netlist), {}};
  p.placed = place::place(p.nl);
  return p;
}

void BM_Place(benchmark::State& state) {
  const auto p = prepare(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(place::place(p.nl));
}
BENCHMARK(BM_Place)->Arg(8)->Arg(32);

void BM_Pack(benchmark::State& state) {
  const auto p = prepare(static_cast<int>(state.range(0)));
  const auto arch = core::PlbArchitecture::granular();
  for (auto _ : state) benchmark::DoNotOptimize(pack::pack(p.nl, p.placed, arch));
}
BENCHMARK(BM_Pack)->Arg(8)->Arg(32);

// The array-sizing bound alone, on BM_Pack's netlist. pack() computes it on
// every call, so CI holds it to a small fraction of BM_Pack/32: a return to
// the quadratic linear scan (nearly all of a pack call) trips that ratio.
void BM_PackLowerBound(benchmark::State& state) {
  const auto p = prepare(static_cast<int>(state.range(0)));
  const auto arch = core::PlbArchitecture::granular();
  for (auto _ : state) benchmark::DoNotOptimize(pack::first_fit_tile_count(p.nl, arch));
}
BENCHMARK(BM_PackLowerBound)->Arg(32);

// Routing on BM_Pack/32's placement at 8 tracks per edge, where maze repair
// handles most connections. Arg(0) places L-shapes only (ripup_iterations =
// 0); Arg(1) adds the default rip-up rounds and maze repair. CI holds the
// ratio of the two under a bound, so a return to a maze search that floods
// the grid on every repair trips it.
void BM_MazeRoute(benchmark::State& state) {
  const auto p = prepare(32);
  route::RouterOptions o;
  o.capacity_per_edge = 8;
  if (state.range(0) == 0) o.ripup_iterations = 0;
  for (auto _ : state) benchmark::DoNotOptimize(route::route(p.nl, p.placed, 8.0, o));
}
BENCHMARK(BM_MazeRoute)->Arg(0)->Arg(1);

void BM_Sta(benchmark::State& state) {
  const auto p = prepare(static_cast<int>(state.range(0)));
  timing::StaOptions o;
  o.clock_period_ps = 4500;
  for (auto _ : state) benchmark::DoNotOptimize(timing::analyze(p.nl, p.placed, o));
}
BENCHMARK(BM_Sta)->Arg(8)->Arg(32);

// The observability claim: kernels pay nothing when tracing/metrics are off.
// BM_Sta runs the most instrumented kernel with no bound context; the pair
// below measures the raw disabled instrumentation points themselves.
void BM_ObsDisabledInstrumentation(benchmark::State& state) {
  for (auto _ : state) {
    const obs::Span s("bench.span");
    obs::count("bench.counter");
    obs::observe("bench.histogram", 1.0);
  }
}
BENCHMARK(BM_ObsDisabledInstrumentation);

// Metrics only: an enabled tracer keeps every span, which would grow without
// bound across benchmark iterations.
void BM_ObsEnabledMetrics(benchmark::State& state) {
  obs::ObsContext ctx(/*trace=*/false, /*metrics=*/true);
  const obs::ScopedObs bind(&ctx);
  for (auto _ : state) {
    obs::count("bench.counter");
    obs::observe("bench.histogram", 1.0);
  }
}
BENCHMARK(BM_ObsEnabledMetrics);

}  // namespace

BENCHMARK_MAIN();
