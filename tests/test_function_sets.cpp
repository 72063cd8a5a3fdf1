// Tests for the via-configured coverage sets of the PLB component cells.

#include "logic/function_sets.hpp"

#include <gtest/gtest.h>

namespace vpga::logic {
namespace {

TEST(FunctionSets, Nd2wiCoversExactlyNonXorType) {
  const auto& s = nd2wi_set2();
  EXPECT_EQ(count(s), 14);
  for (int f = 0; f < 16; ++f)
    EXPECT_EQ(s.test(static_cast<std::size_t>(f)), !is_xor_type2(static_cast<std::uint8_t>(f)))
        << "tt2=" << f;
}

TEST(FunctionSets, Mux2CoversAllTwoInputFunctions) {
  EXPECT_EQ(count(mux2_set2()), 16);
}

TEST(FunctionSets, XorTypePredicate) {
  EXPECT_TRUE(is_xor_type2(kTt2Xor));
  EXPECT_TRUE(is_xor_type2(kTt2Xnor));
  EXPECT_FALSE(is_xor_type2(0b1000));  // and
  EXPECT_FALSE(is_xor_type2(0b0111));  // nand (hmm: ~and = 0111)
  EXPECT_FALSE(is_xor_type2(0b0000));
  EXPECT_FALSE(is_xor_type2(0b1010));  // literal a... (row order: b=1 rows are 2,3)
}

TEST(FunctionSets, Nd3wiContainsNandFamilyNotXor) {
  const auto& s = nd3wi_set3();
  EXPECT_TRUE(s.test(0x7F));   // nand3
  EXPECT_TRUE(s.test(0x80));   // and3
  EXPECT_TRUE(s.test(0x01));   // nor3
  EXPECT_TRUE(s.test(0xFE));   // or3
  EXPECT_TRUE(s.test(0xAA));   // literal a (bridging + constants)
  EXPECT_TRUE(s.test(0x00));   // constant 0
  EXPECT_TRUE(s.test(0xFF));   // constant 1
  EXPECT_FALSE(s.test(0x96));  // xor3
  EXPECT_FALSE(s.test(0x69));  // xnor3
  EXPECT_FALSE(s.test(0xE8));  // maj3 needs a sum of products
}

TEST(FunctionSets, Nd3wiIsClosedUnderOutputInversion) {
  const auto& s = nd3wi_set3();
  for (int f = 0; f < 256; ++f)
    EXPECT_EQ(s.test(static_cast<std::size_t>(f)), s.test(static_cast<std::size_t>(0xFF & ~f)));
}

TEST(FunctionSets, Nd3wiIsClosedUnderInputNegationAndPermutation) {
  const auto& s = nd3wi_set3();
  for (int f = 0; f < 256; ++f) {
    if (!s.test(static_cast<std::size_t>(f))) continue;
    const TruthTable t(3, static_cast<std::uint64_t>(f));
    for (int v = 0; v < 3; ++v)
      EXPECT_TRUE(s.test(static_cast<std::size_t>(t.negate_var(v).bits())));
    EXPECT_TRUE(s.test(static_cast<std::size_t>(
        t.permute({1, 0, 2, 3, 4, 5}).bits())));
    EXPECT_TRUE(s.test(static_cast<std::size_t>(
        t.permute({2, 1, 0, 3, 4, 5}).bits())));
  }
}

TEST(FunctionSets, Nd2wiSet3IsSubsetOfNd3wiSet3) {
  // A 3-input NAND with one input tied to Vdd degenerates to the 2-input gate.
  for (int f = 0; f < 256; ++f)
    if (nd2wi_set3().test(static_cast<std::size_t>(f))) {
      EXPECT_TRUE(nd3wi_set3().test(static_cast<std::size_t>(f))) << f;
    }
}

TEST(FunctionSets, Mux2Set3ContainsMuxXorLiterals) {
  const auto& s = mux2_set3();
  EXPECT_TRUE(s.test(0xCA));  // mux: c ? b : a
  EXPECT_TRUE(s.test(0x66));  // xor(a,b) extended to 3 vars
  EXPECT_TRUE(s.test(0x99));  // xnor(a,b)
  EXPECT_TRUE(s.test(0xAA));  // a
  EXPECT_TRUE(s.test(0x00));
  EXPECT_TRUE(s.test(0xFF));
  EXPECT_FALSE(s.test(0x96));  // xor3 needs two muxes
  EXPECT_FALSE(s.test(0xE8));  // maj3 needs two levels
}

TEST(FunctionSets, Mux2Set3ClosedUnderOutputInversion) {
  // MUX(s; d0', d1') = MUX(s; d0, d1)' — programmable inversion is free.
  const auto& s = mux2_set3();
  for (int f = 0; f < 256; ++f)
    EXPECT_EQ(s.test(static_cast<std::size_t>(f)), s.test(static_cast<std::size_t>(0xFF & ~f)));
}

TEST(FunctionSets, MuxSetStrictlyLargerThanNd2wiSet) {
  // The paper's reason for the XOA element: a MUX covers everything an ND2WI
  // covers, plus the XOR-type functions.
  for (int f = 0; f < 256; ++f)
    if (nd2wi_set3().test(static_cast<std::size_t>(f))) {
      EXPECT_TRUE(mux2_set3().test(static_cast<std::size_t>(f))) << f;
    }
  EXPECT_GT(count(mux2_set3()), count(nd2wi_set3()));
}

TEST(FunctionSets, Lut3CoversEverything) {
  EXPECT_EQ(count(lut3_set3()), 256);
}

}  // namespace
}  // namespace vpga::logic
