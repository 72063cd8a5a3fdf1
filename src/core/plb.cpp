#include "core/plb.hpp"

#include <algorithm>
#include <bit>
#include <set>

#include "common/assert.hpp"

namespace vpga::core {

bool PlbArchitecture::supports(ConfigKind k) const {
  return std::find(configs.begin(), configs.end(), k) != configs.end();
}

PlbArchitecture PlbArchitecture::lut_based() {
  PlbArchitecture a;
  a.name = "lut_plb";
  a.component_count[static_cast<std::size_t>(PlbComponent::kLut3)] = 1;
  a.component_count[static_cast<std::size_t>(PlbComponent::kNd3)] = 2;
  a.component_count[static_cast<std::size_t>(PlbComponent::kDff)] = 1;
  a.configs = {ConfigKind::kLut3, ConfigKind::kNd3, ConfigKind::kFf};
  // Calibrated tile geometry (see DESIGN.md): only ratios matter downstream.
  a.tile_area_um2 = 80.0;
  a.comb_area_um2 = 50.0;
  return a;
}

PlbArchitecture PlbArchitecture::granular() {
  PlbArchitecture a;
  a.name = "granular_plb";
  a.component_count[static_cast<std::size_t>(PlbComponent::kXoa)] = 1;
  a.component_count[static_cast<std::size_t>(PlbComponent::kMux)] = 2;
  a.component_count[static_cast<std::size_t>(PlbComponent::kNd3)] = 1;
  a.component_count[static_cast<std::size_t>(PlbComponent::kDff)] = 1;
  a.configs = {ConfigKind::kMx,      ConfigKind::kNd3,       ConfigKind::kNdmx,
               ConfigKind::kXoamx,   ConfigKind::kXoandmx,   ConfigKind::kFf,
               ConfigKind::kFullAdder};
  // Paper: granular PLB is ~20% larger overall, ~26.6% more combinational
  // logic area than the LUT-based PLB.
  a.tile_area_um2 = 96.0;
  a.comb_area_um2 = 63.3;
  return a;
}

PlbArchitecture PlbArchitecture::granular_with_ffs(int n) {
  VPGA_ASSERT(n >= 1 && n <= 8);
  PlbArchitecture a = granular();
  a.name = "granular_plb_ff" + std::to_string(n);
  a.component_count[static_cast<std::size_t>(PlbComponent::kDff)] = n;
  // Each extra flip-flop adds its cell area plus local routing overhead.
  a.tile_area_um2 += 16.0 * (n - 1);
  return a;
}

namespace {

/// Backtracking assignment of requirement classes to distinct slot instances.
bool assign(const std::vector<ComponentClass>& needs, std::size_t i,
            std::array<int, kNumPlbComponents>& free_slots) {
  if (i == needs.size()) return true;
  for (int c = 0; c < kNumPlbComponents; ++c) {
    if (free_slots[static_cast<std::size_t>(c)] <= 0) continue;
    if (!class_accepts(needs[i], static_cast<PlbComponent>(c))) continue;
    --free_slots[static_cast<std::size_t>(c)];
    if (assign(needs, i + 1, free_slots)) {
      ++free_slots[static_cast<std::size_t>(c)];
      return true;
    }
    ++free_slots[static_cast<std::size_t>(c)];
  }
  return false;
}

}  // namespace

bool fits_in_one_plb(const PlbArchitecture& arch, const std::vector<ConfigKind>& configs) {
  const auto& specs = config_specs();  // one locked lookup per call, not per config
  std::vector<ComponentClass> needs;
  for (ConfigKind k : configs) {
    if (!arch.supports(k)) return false;
    const auto& spec = specs[static_cast<std::size_t>(k)];
    needs.insert(needs.end(), spec.needs.begin(), spec.needs.end());
  }
  // Order scarce (single-option) needs first: small speedup, same answer.
  std::sort(needs.begin(), needs.end(), [](ComponentClass a, ComponentClass b) {
    return std::popcount(a) < std::popcount(b);
  });
  auto free_slots = arch.component_count;
  return assign(needs, 0, free_slots);
}

std::vector<std::vector<ConfigKind>> maximal_packings(
    const PlbArchitecture& arch, const std::vector<ConfigKind>& comb_configs) {
  std::set<std::vector<ConfigKind>> all;
  // DFS over multisets (non-decreasing kind order avoids permutations).
  std::vector<ConfigKind> cur;
  cur.reserve(comb_configs.size());
  auto dfs = [&](auto&& self, std::size_t start) -> void {
    bool extended = false;
    for (std::size_t i = start; i < comb_configs.size(); ++i) {
      cur.push_back(comb_configs[i]);
      if (fits_in_one_plb(arch, cur)) {
        extended = true;
        self(self, i);
      }
      cur.pop_back();
    }
    if (!extended && !cur.empty()) all.insert(cur);
  };
  dfs(dfs, 0);
  // Drop multisets that are strict sub-multisets of another (non-maximal ones
  // can appear when extension succeeds only along a different branch order).
  std::vector<std::vector<ConfigKind>> out(all.begin(), all.end());
  auto is_submultiset = [](const std::vector<ConfigKind>& a, const std::vector<ConfigKind>& b) {
    if (a.size() >= b.size()) return false;
    std::array<int, kNumConfigKinds> cnt{};
    for (auto k : b) ++cnt[static_cast<std::size_t>(k)];
    for (auto k : a)
      if (--cnt[static_cast<std::size_t>(k)] < 0) return false;
    return true;
  };
  std::vector<std::vector<ConfigKind>> maximal;
  maximal.reserve(out.size());
  for (const auto& a : out) {
    bool dominated = false;
    for (const auto& b : out)
      if (is_submultiset(a, b)) { dominated = true; break; }
    if (!dominated) maximal.push_back(a);
  }
  return maximal;
}

}  // namespace vpga::core
