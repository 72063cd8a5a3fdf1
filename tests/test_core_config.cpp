// Tests for the PLB configuration table (Section 2.3 of the paper).

#include "core/config.hpp"

#include <gtest/gtest.h>

#include "logic/s3.hpp"
#include "logic/truth_table.hpp"

namespace vpga::core {
namespace {

using logic::tt3::maj3;
using logic::tt3::xor3;

std::uint8_t bits(const logic::TruthTable& t) { return static_cast<std::uint8_t>(t.bits()); }

TEST(Config, TableHasAllKinds) {
  const auto& specs = config_specs();
  for (int i = 0; i < kNumConfigKinds; ++i)
    EXPECT_EQ(specs[static_cast<std::size_t>(i)].kind, static_cast<ConfigKind>(i));
}

TEST(Config, MxCoverageIsMuxSet) {
  EXPECT_EQ(config_spec(ConfigKind::kMx).coverage, logic::mux2_set3());
}

TEST(Config, Nd3CoverageIsNd3wiSet) {
  EXPECT_EQ(config_spec(ConfigKind::kNd3).coverage, logic::nd3wi_set3());
}

TEST(Config, NdmxIsSupersetOfMxAndNd2) {
  const auto& ndmx = config_spec(ConfigKind::kNdmx).coverage;
  for (int f = 0; f < 256; ++f) {
    if (logic::mux2_set3().test(static_cast<std::size_t>(f))) {
      EXPECT_TRUE(ndmx.test(static_cast<std::size_t>(f))) << f;
    }
    if (logic::nd2wi_set3().test(static_cast<std::size_t>(f))) {
      EXPECT_TRUE(ndmx.test(static_cast<std::size_t>(f))) << f;
    }
  }
  EXPECT_GT(ndmx.count(), logic::mux2_set3().count());
}

TEST(Config, NdmxLimitsAndXoandmxCompleteness) {
  const auto& ndmx = config_spec(ConfigKind::kNdmx).coverage;
  const auto& xoamx = config_spec(ConfigKind::kXoamx).coverage;
  const auto& xoandmx = config_spec(ConfigKind::kXoandmx).coverage;
  // XOR-type cofactors put xor3 out of NDMX's reach (its driver is a NAND).
  EXPECT_FALSE(ndmx.test(bits(xor3())));
  // maj3 = MUX(a xor b; a, c): the XOA-driven mux realizes it in one config —
  // exactly the carry-propagate trick of Section 2.2.
  EXPECT_TRUE(xoamx.test(bits(maj3())));
  EXPECT_TRUE(xoandmx.test(bits(maj3())));
  EXPECT_TRUE(ndmx.test(bits(logic::tt3::nand3())));
  // XOANDMX strictly extends XOAMX.
  EXPECT_EQ((xoamx & ~xoandmx).count(), 0u);
  EXPECT_GT(xoandmx.count(), xoamx.count());
}

TEST(Config, XoamxCoversXor3) {
  // XOAMX = MUX fed by the XOA: select = a xor b from the XOA, data = c', c.
  const auto& xoamx = config_spec(ConfigKind::kXoamx).coverage;
  EXPECT_TRUE(xoamx.test(bits(xor3())));
  EXPECT_TRUE(xoamx.test(bits(logic::tt3::xnor3())));
}

TEST(Config, XoandmxCoversAll256) {
  EXPECT_EQ(config_spec(ConfigKind::kXoandmx).coverage.count(), 256u);
  EXPECT_EQ(config_spec(ConfigKind::kXoandmx).coverage, logic::modified_s3_set3());
}

TEST(Config, Lut3CoversAll256) {
  EXPECT_EQ(config_spec(ConfigKind::kLut3).coverage.count(), 256u);
}

TEST(Config, GranularConfigsAreFasterThanLut3) {
  // The heart of the paper's performance claim: every granular configuration
  // beats the 3-LUT at realistic loads.
  const double load = 3.0;
  const double lut = config_spec(ConfigKind::kLut3).arc.delay(load);
  for (auto k : {ConfigKind::kMx, ConfigKind::kNd3, ConfigKind::kNdmx,
                 ConfigKind::kXoamx, ConfigKind::kXoandmx})
    EXPECT_LT(config_spec(k).arc.delay(load), lut) << to_string(k);
}

TEST(Config, GranularConfigsAreDenserThanLut3) {
  // "several 3-input functions can be implemented with logic configurations
  // that are faster and denser than a 3-input LUT" — the common
  // configurations beat the LUT on area; the rare three-gate XOANDMX
  // catch-all is exempt (it trades density for complete coverage).
  const double lut = config_spec(ConfigKind::kLut3).mapped_area_um2;
  for (auto k : {ConfigKind::kMx, ConfigKind::kNd3, ConfigKind::kNdmx, ConfigKind::kXoamx})
    EXPECT_LT(config_spec(k).mapped_area_um2, lut) << to_string(k);
}

TEST(Config, FootprintsMatchPaperStructure) {
  EXPECT_EQ(config_spec(ConfigKind::kMx).needs.size(), 1u);
  EXPECT_EQ(config_spec(ConfigKind::kNd3).needs.size(), 1u);
  EXPECT_EQ(config_spec(ConfigKind::kNdmx).needs.size(), 2u);
  EXPECT_EQ(config_spec(ConfigKind::kXoamx).needs.size(), 2u);
  EXPECT_EQ(config_spec(ConfigKind::kXoandmx).needs.size(), 3u);
  EXPECT_EQ(config_spec(ConfigKind::kFullAdder).needs.size(), 4u);
}

TEST(Config, MxRunsOnPlainMuxOrXoa) {
  const auto cls = config_spec(ConfigKind::kMx).needs[0];
  EXPECT_TRUE(class_accepts(cls, PlbComponent::kMux));
  EXPECT_TRUE(class_accepts(cls, PlbComponent::kXoa));
  EXPECT_FALSE(class_accepts(cls, PlbComponent::kNd3));
}

TEST(Config, NdmxDriverMayBeNdOrXoa) {
  // "two NDMX functions can be packed into a single PLB. In this
  // configuration, one of the NDMX functions must be packed as an XOAMX."
  const auto driver = config_spec(ConfigKind::kNdmx).needs[0];
  EXPECT_TRUE(class_accepts(driver, PlbComponent::kNd3));
  EXPECT_TRUE(class_accepts(driver, PlbComponent::kXoa));
}

TEST(Config, CompositeArcsExceedSingleStage) {
  EXPECT_GT(config_spec(ConfigKind::kNdmx).arc.intrinsic_ps,
            config_spec(ConfigKind::kMx).arc.intrinsic_ps);
  EXPECT_GT(config_spec(ConfigKind::kXoandmx).arc.intrinsic_ps,
            config_spec(ConfigKind::kXoamx).arc.intrinsic_ps - 1e-9);
}

TEST(Config, NamesAreStable) {
  EXPECT_STREQ(to_string(ConfigKind::kXoandmx), "XOANDMX");
  EXPECT_STREQ(to_string(PlbComponent::kXoa), "XOA");
}

}  // namespace
}  // namespace vpga::core
