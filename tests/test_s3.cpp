// Tests reproducing Section 2.1 of the paper: S3 gate feasibility (196/256),
// the five infeasible categories of Figure 2, and the modified S3 cell.

#include "logic/s3.hpp"

#include <gtest/gtest.h>

#include "logic/truth_table.hpp"

namespace vpga::logic {
namespace {

TEST(S3, ImplementsExactly196Functions) {
  const auto a = analyze_s3();
  EXPECT_EQ(count(a.feasible), 196);  // paper, Section 2.1
  EXPECT_EQ(a.category_count[static_cast<int>(S3Category::kFeasible)], 196);
}

TEST(S3, FigureTwoCategoryCounts) {
  const auto a = analyze_s3();
  EXPECT_EQ(a.category_count[static_cast<int>(S3Category::kCofactorXor)], 28);
  EXPECT_EQ(a.category_count[static_cast<int>(S3Category::kCofactorXnor)], 28);
  EXPECT_EQ(a.category_count[static_cast<int>(S3Category::kTwoInputXor)], 1);
  EXPECT_EQ(a.category_count[static_cast<int>(S3Category::kTwoInputXnor)], 1);
  EXPECT_EQ(a.category_count[static_cast<int>(S3Category::kComplementaryCofactors)], 2);
}

TEST(S3, CategoriesPartitionAll256) {
  const auto a = analyze_s3();
  int total = 0;
  for (int c : a.category_count) total += c;
  EXPECT_EQ(total, 256);
}

TEST(S3, KnownFunctionClassification) {
  const auto a = analyze_s3();
  // 3-input XOR/XNOR have complementary cofactors.
  EXPECT_EQ(a.category[tt3::xor3().bits()], S3Category::kComplementaryCofactors);
  EXPECT_EQ(a.category[tt3::xnor3().bits()], S3Category::kComplementaryCofactors);
  // 2-input XOR of (a, b), independent of the select.
  EXPECT_EQ(a.category[(tt3::a() ^ tt3::b()).bits()], S3Category::kTwoInputXor);
  EXPECT_EQ(a.category[(~(tt3::a() ^ tt3::b())).bits()], S3Category::kTwoInputXnor);
  // Simple gates are feasible.
  EXPECT_EQ(a.category[tt3::nand3().bits()], S3Category::kFeasible);
  EXPECT_EQ(a.category[tt3::maj3().bits()], S3Category::kFeasible);
  EXPECT_EQ(a.category[tt3::mux().bits()], S3Category::kFeasible);
}

TEST(S3, FeasibleIffBothCofactorsNonXorType) {
  const auto a = analyze_s3();
  for (int f = 0; f < 256; ++f) {
    const auto g = static_cast<std::uint8_t>(f & 0x0F);
    const auto h = static_cast<std::uint8_t>(f >> 4);
    const bool expect = !is_xor_type2(g) && !is_xor_type2(h);
    EXPECT_EQ(a.feasible.test(static_cast<std::size_t>(f)), expect) << f;
  }
}

TEST(S3, AnySelectFreedomIsSuperset) {
  const auto designated = analyze_s3().feasible;
  const auto any = s3_feasible_any_select();
  for (int f = 0; f < 256; ++f)
    if (designated.test(static_cast<std::size_t>(f))) {
      EXPECT_TRUE(any.test(static_cast<std::size_t>(f)));
    }
  EXPECT_GE(count(any), 196);
  // 3-input XOR has XOR-type cofactors for every select choice: still out.
  EXPECT_FALSE(any.test(tt3::xor3().bits()));
  EXPECT_FALSE(any.test(tt3::xnor3().bits()));
  // 2-input XOR becomes feasible once a or b may drive the select pin:
  // a ? b' : b has cofactors b and b', both ND2WI-implementable.
  EXPECT_TRUE(any.test((tt3::a() ^ tt3::b()).bits()));
}

TEST(ModifiedS3, CoversAll256Functions) {
  EXPECT_EQ(count(modified_s3_set3()), 256);  // paper, Figure 3 claim
}

TEST(ModifiedS3, CoversEveryS3InfeasibleCategoryWitness) {
  const auto& m = modified_s3_set3();
  EXPECT_TRUE(m.test(tt3::xor3().bits()));
  EXPECT_TRUE(m.test(tt3::xnor3().bits()));
  EXPECT_TRUE(m.test((tt3::a() ^ tt3::b()).bits()));
  EXPECT_TRUE(m.test(tt3::maj3().bits()));
}

TEST(S3, CategoryNamesAreStable) {
  EXPECT_STREQ(to_string(S3Category::kFeasible), "S3-feasible");
  EXPECT_STREQ(to_string(S3Category::kComplementaryCofactors),
               "complementary cofactors (3-input XOR/XNOR)");
}

// Parameterized sweep: every feasible function must admit an explicit MUX +
// two-ND2WI realization; we verify constructively by searching cofactor pairs.
class S3FeasibleSweep : public ::testing::TestWithParam<int> {};

TEST_P(S3FeasibleSweep, FeasibleFunctionsReconstruct) {
  const int f = GetParam();
  const auto a = analyze_s3();
  const auto g = static_cast<std::uint8_t>(f & 0x0F);
  const auto h = static_cast<std::uint8_t>(f >> 4);
  if (a.feasible.test(static_cast<std::size_t>(f))) {
    // Rebuild f = s'·g + s·h and confirm identity.
    const int rebuilt = (g) | (h << 4);
    EXPECT_EQ(rebuilt, f);
    EXPECT_TRUE(nd2wi_set2().test(g));
    EXPECT_TRUE(nd2wi_set2().test(h));
  } else {
    EXPECT_TRUE(is_xor_type2(g) || is_xor_type2(h));
  }
}

INSTANTIATE_TEST_SUITE_P(All256, S3FeasibleSweep, ::testing::Range(0, 256));

}  // namespace
}  // namespace vpga::logic
