#pragma once
/// \file truth_table.hpp
/// Complete truth tables for Boolean functions of up to 6 variables.
///
/// A function of n variables is stored as the low 2^n bits of a 64-bit word;
/// row r (the bits of the inputs, x0 = LSB) holds f(r). This is the common
/// currency between the architecture analysis (Section 2 of the paper), the
/// technology mapper (cut functions), and the netlist simulator.

#include <array>
#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace vpga::logic {

/// Value-semantic truth table over `num_vars()` ordered variables.
class TruthTable {
 public:
  static constexpr int kMaxVars = 6;

  /// The constant-0 function of n variables.
  constexpr TruthTable() = default;
  constexpr TruthTable(int num_vars, std::uint64_t bits)
      : nvars_(static_cast<std::uint8_t>(num_vars)), bits_(bits & mask(num_vars)) {}

  /// Named constructors ------------------------------------------------------

  /// f = x_var (projection).
  static TruthTable var(int num_vars, int v) {
    TruthTable t(num_vars, 0);
    for (int r = 0; r < (1 << num_vars); ++r)
      if (r & (1 << v)) t.bits_ |= std::uint64_t{1} << r;
    return t;
  }
  /// f = constant c.
  static TruthTable constant(int num_vars, bool c) {
    return TruthTable(num_vars, c ? ~std::uint64_t{0} : 0);
  }

  /// Accessors ---------------------------------------------------------------

  [[nodiscard]] constexpr int num_vars() const { return nvars_; }
  [[nodiscard]] constexpr std::uint64_t bits() const { return bits_; }
  [[nodiscard]] constexpr int num_rows() const { return 1 << nvars_; }
  /// f evaluated on input row r (bit i of r = value of x_i).
  [[nodiscard]] constexpr bool eval(unsigned row) const {
    return (bits_ >> row) & 1u;
  }

  /// Pointwise operators (operands must have equal arity) ---------------------

  friend TruthTable operator&(TruthTable a, TruthTable b) { return binop(a, b, a.bits_ & b.bits_); }
  friend TruthTable operator|(TruthTable a, TruthTable b) { return binop(a, b, a.bits_ | b.bits_); }
  friend TruthTable operator^(TruthTable a, TruthTable b) { return binop(a, b, a.bits_ ^ b.bits_); }
  TruthTable operator~() const { return TruthTable(nvars_, ~bits_); }
  friend constexpr bool operator==(TruthTable a, TruthTable b) {
    return a.nvars_ == b.nvars_ && a.bits_ == b.bits_;
  }

  /// Structure queries ---------------------------------------------------------

  /// True iff the function's value depends on x_v.
  [[nodiscard]] bool depends_on(int v) const {
    return restrict_var(v, false).bits_ != restrict_var(v, true).bits_;
  }
  /// Number of variables the function actually depends on.
  [[nodiscard]] int support_size() const {
    int n = 0;
    for (int v = 0; v < nvars_; ++v) n += depends_on(v) ? 1 : 0;
    return n;
  }

  /// Shannon cofactor with respect to x_v, keeping the arity (x_v becomes a
  /// don't-care variable the result no longer depends on).
  [[nodiscard]] TruthTable restrict_var(int v, bool value) const {
    TruthTable t(nvars_, 0);
    for (int r = 0; r < num_rows(); ++r) {
      const int src = value ? (r | (1 << v)) : (r & ~(1 << v));
      if (eval(static_cast<unsigned>(src))) t.bits_ |= std::uint64_t{1} << r;
    }
    return t;
  }

  /// Shannon cofactor with respect to x_v, *dropping* x_v: the result has one
  /// fewer variable; surviving variables keep their relative order.
  [[nodiscard]] TruthTable cofactor(int v, bool value) const {
    VPGA_ASSERT(nvars_ >= 1);
    TruthTable t(nvars_ - 1, 0);
    for (int r = 0; r < (1 << (nvars_ - 1)); ++r) {
      const int low = r & ((1 << v) - 1);
      const int high = (r >> v) << (v + 1);
      const int src = high | (value ? (1 << v) : 0) | low;
      if (eval(static_cast<unsigned>(src))) t.bits_ |= std::uint64_t{1} << r;
    }
    return t;
  }

  /// Result of permuting inputs: new variable v drives old variable perm[v],
  /// i.e. result(x) = f(y) with y[perm[v]] = x[v].
  [[nodiscard]] TruthTable permute(const std::array<int, kMaxVars>& perm) const {
    TruthTable t(nvars_, 0);
    for (int r = 0; r < num_rows(); ++r) {
      unsigned src = 0;
      for (int v = 0; v < nvars_; ++v)
        if (r & (1 << v)) src |= 1u << perm[static_cast<std::size_t>(v)];
      if (eval(src)) t.bits_ |= std::uint64_t{1} << r;
    }
    return t;
  }

  /// Result of complementing input x_v.
  [[nodiscard]] TruthTable negate_var(int v) const {
    TruthTable t(nvars_, 0);
    for (int r = 0; r < num_rows(); ++r)
      if (eval(static_cast<unsigned>(r) ^ (1u << v))) t.bits_ |= std::uint64_t{1} << r;
    return t;
  }

  /// Extends the function to `new_num_vars` variables (added variables are
  /// don't-cares appended after the existing ones).
  [[nodiscard]] TruthTable extend(int new_num_vars) const {
    VPGA_ASSERT(new_num_vars >= nvars_ && new_num_vars <= kMaxVars);
    TruthTable t(new_num_vars, 0);
    const int lowmask = (1 << nvars_) - 1;
    for (int r = 0; r < (1 << new_num_vars); ++r)
      if (eval(static_cast<unsigned>(r & lowmask))) t.bits_ |= std::uint64_t{1} << r;
    return t;
  }

  /// "01101001"-style row string, row 0 first (debugging / golden tests).
  [[nodiscard]] std::string to_string() const {
    std::string s;
    s.reserve(static_cast<std::size_t>(num_rows()));
    for (int r = 0; r < num_rows(); ++r) s.push_back(eval(static_cast<unsigned>(r)) ? '1' : '0');
    return s;
  }

 private:
  static constexpr std::uint64_t mask(int nvars) {
    return nvars >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1 << nvars)) - 1;
  }
  static TruthTable binop(TruthTable a, TruthTable b, std::uint64_t bits) {
    VPGA_ASSERT(a.nvars_ == b.nvars_);
    return TruthTable(a.nvars_, bits);
  }

  std::uint8_t nvars_ = 0;
  std::uint64_t bits_ = 0;
};

/// Common 3-variable functions used throughout the architecture analysis.
/// Variable order convention: x0 = a, x1 = b, x2 = c (or the select s).
namespace tt3 {
inline TruthTable a() { return TruthTable::var(3, 0); }
inline TruthTable b() { return TruthTable::var(3, 1); }
inline TruthTable c() { return TruthTable::var(3, 2); }
inline TruthTable xor3() { return a() ^ b() ^ c(); }
inline TruthTable xnor3() { return ~xor3(); }
inline TruthTable maj3() { return (a() & b()) | (a() & c()) | (b() & c()); }
inline TruthTable mux() { return (~c() & a()) | (c() & b()); }  // c selects b
inline TruthTable nand3() { return ~(a() & b() & c()); }
}  // namespace tt3

}  // namespace vpga::logic
