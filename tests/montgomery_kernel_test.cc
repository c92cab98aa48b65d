// Randomized cross-width equivalence suite for the Montgomery
// multiplication kernels: the generic variable-width path vs the
// compile-time-unrolled 1x64/2x64/3x64/4x64/6x64/8x64 CIOS kernels
// (portable u128, plus BMI2/ADX intrinsic variants at 4/6/8 limbs) must
// produce bit-identical Montgomery representatives for Mul, Sqr and Pow
// over random odd moduli, carry-stressing and top-bit-only moduli, and
// (at one limb) the smallest odd moduli. Intrinsic cases skip cleanly
// on hardware (or builds) without BMI2/ADX.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bigint/cios_x86.h"
#include "bigint/montgomery.h"
#include "common/rng.h"

namespace sloc {
namespace {

RandFn TestRand(uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

// A random odd modulus occupying exactly `limbs` 64-bit words.
BigInt RandomOddModulus(size_t limbs, const RandFn& rand) {
  // Top bit forced so the limb count is exact; low bit forced odd.
  BigInt m = (BigInt(1) << (64 * limbs - 1)) +
             BigInt::Random(64 * limbs - 1, rand);
  if (!m.IsOdd()) m += BigInt(1);
  return m;
}

// Whether auto dispatch has a BMI2/ADX kernel to pick at this width.
bool HasIntrinsicWidth(size_t limbs) {
  return limbs == 4 || limbs == 6 || limbs == 8;
}

struct KernelCase {
  size_t limbs;
  MulKernel fixed;
};

class MontgomeryKernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (MulKernelIsIntrinsic(GetParam().fixed) && !cios_x86::Available()) {
      GTEST_SKIP() << "BMI2/ADX not available on this CPU/build";
    }
  }
};

TEST_P(MontgomeryKernelTest, AutoSelectionPicksFixedWidth) {
  RandFn rand = TestRand(11);
  BigInt m = RandomOddModulus(GetParam().limbs, rand);
  auto auto_ctx = Montgomery::Create(m).value();
  // Auto dispatch picks the intrinsic kernel of this width when the CPU
  // supports it and one exists, the portable u128 kernel otherwise —
  // never generic for a 1/2/3/4/6/8-limb modulus.
  EXPECT_EQ(MulKernelWidth(auto_ctx.kernel()), GetParam().limbs);
  EXPECT_EQ(MulKernelIsIntrinsic(auto_ctx.kernel()),
            cios_x86::Available() && HasIntrinsicWidth(GetParam().limbs));
  // The generic kernel stays available for the same modulus.
  auto generic = Montgomery::Create(m, MulKernel::kGeneric);
  ASSERT_TRUE(generic.ok());
  EXPECT_EQ(generic->kernel(), MulKernel::kGeneric);
}

TEST_P(MontgomeryKernelTest, MulSqrMatchGenericOverRandomModuli) {
  const size_t limbs = GetParam().limbs;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandFn rand = TestRand(1000 * limbs + seed);
    BigInt m = RandomOddModulus(limbs, rand);
    auto fixed = Montgomery::Create(m, GetParam().fixed).value();
    auto generic = Montgomery::Create(m, MulKernel::kGeneric).value();
    for (int i = 0; i < 25; ++i) {
      BigInt a = BigInt::RandomBelow(m, rand);
      BigInt b = BigInt::RandomBelow(m, rand);
      Montgomery::Elem fa = fixed.ToMont(a), fb = fixed.ToMont(b);
      Montgomery::Elem ga = generic.ToMont(a), gb = generic.ToMont(b);
      // ToMont itself runs the kernel under test; representations agree.
      ASSERT_EQ(fa, ga);
      ASSERT_EQ(fb, gb);
      Montgomery::Elem fm, gm, fs, gs;
      fixed.Mul(fa, fb, &fm);
      generic.Mul(ga, gb, &gm);
      EXPECT_EQ(fm, gm) << "Mul diverged, limbs=" << limbs;
      fixed.Sqr(fa, &fs);
      generic.Sqr(ga, &gs);
      EXPECT_EQ(fs, gs) << "Sqr diverged, limbs=" << limbs;
      // Cross-check against plain BigInt arithmetic.
      EXPECT_EQ(fixed.FromMont(fm), BigInt::ModMul(a, b, m));
      EXPECT_EQ(fixed.FromMont(fs), BigInt::ModMul(a, a, m));
    }
  }
}

TEST_P(MontgomeryKernelTest, CarryStressEdgeValues) {
  const size_t limbs = GetParam().limbs;
  RandFn rand = TestRand(77 + limbs);
  // Modulus just below 2^(64*limbs) maximizes carry chains in the
  // reduction; the top-bit-only modulus 2^(64*limbs-1) + 1 has all-zero
  // middle limbs. Values at 0, 1, N-1 hit the boundary paths.
  for (const BigInt& m : {(BigInt(1) << (64 * limbs)) - BigInt(189),
                          (BigInt(1) << (64 * limbs - 1)) + BigInt(1)}) {
    ASSERT_TRUE(m.IsOdd());
    ASSERT_EQ(m.NumLimbs(), limbs);
    auto fixed = Montgomery::Create(m, GetParam().fixed).value();
    auto generic = Montgomery::Create(m, MulKernel::kGeneric).value();
    std::vector<BigInt> edges = {BigInt(0), BigInt(1), BigInt(2),
                                 m - BigInt(1), m - BigInt(2),
                                 (m - BigInt(1)) >> 1};
    for (int i = 0; i < 6; ++i) edges.push_back(BigInt::RandomBelow(m, rand));
    for (const BigInt& a : edges) {
      for (const BigInt& b : edges) {
        Montgomery::Elem fm, gm;
        fixed.Mul(fixed.ToMont(a), fixed.ToMont(b), &fm);
        generic.Mul(generic.ToMont(a), generic.ToMont(b), &gm);
        EXPECT_EQ(fm, gm);
        EXPECT_EQ(fixed.FromMont(fm), BigInt::ModMul(a, b, m));
      }
      Montgomery::Elem fs, gs;
      fixed.Sqr(fixed.ToMont(a), &fs);
      generic.Sqr(generic.ToMont(a), &gs);
      EXPECT_EQ(fs, gs);
    }
  }
}

TEST_P(MontgomeryKernelTest, PowMatchesGenericAndModPow) {
  const size_t limbs = GetParam().limbs;
  RandFn rand = TestRand(31 * limbs);
  BigInt m = RandomOddModulus(limbs, rand);
  auto fixed = Montgomery::Create(m, GetParam().fixed).value();
  auto generic = Montgomery::Create(m, MulKernel::kGeneric).value();
  for (int i = 0; i < 6; ++i) {
    BigInt base = BigInt::RandomBelow(m, rand);
    BigInt exp = BigInt::Random(64 * limbs, rand);
    Montgomery::Elem fp = fixed.Pow(fixed.ToMont(base), exp);
    Montgomery::Elem gp = generic.Pow(generic.ToMont(base), exp);
    EXPECT_EQ(fp, gp);
    EXPECT_EQ(fixed.FromMont(fp), BigInt::ModPow(base, exp, m));
  }
}

TEST_P(MontgomeryKernelTest, SqrAliasingInputAsOutput) {
  RandFn rand = TestRand(5);
  BigInt m = RandomOddModulus(GetParam().limbs, rand);
  auto fixed = Montgomery::Create(m, GetParam().fixed).value();
  BigInt a = BigInt::RandomBelow(m, rand);
  Montgomery::Elem x = fixed.ToMont(a);
  Montgomery::Elem expected;
  fixed.Sqr(x, &expected);
  fixed.Sqr(x, &x);  // in place
  EXPECT_EQ(x, expected);
}

// Intrinsic vs portable-u128 at the same width (both non-generic
// representatives of the family): belt-and-braces on top of the
// generic cross-checks above.
TEST_P(MontgomeryKernelTest, IntrinsicMatchesPortableTwin) {
  const KernelCase& param = GetParam();
  if (!MulKernelIsIntrinsic(param.fixed)) {
    GTEST_SKIP() << "portable case; twin comparison runs from the "
                    "intrinsic cases";
  }
  MulKernel portable = MulKernel::kGeneric;
  if (param.limbs == 4) portable = MulKernel::kCios4;
  if (param.limbs == 6) portable = MulKernel::kCios6;
  if (param.limbs == 8) portable = MulKernel::kCios8;
  RandFn rand = TestRand(400 + param.limbs);
  BigInt m = (BigInt(1) << (64 * param.limbs)) - BigInt(189);
  auto adx = Montgomery::Create(m, param.fixed).value();
  auto u128 = Montgomery::Create(m, portable).value();
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBelow(m, rand);
    BigInt b = BigInt::RandomBelow(m, rand);
    Montgomery::Elem am, um, as, us;
    adx.Mul(adx.ToMont(a), adx.ToMont(b), &am);
    u128.Mul(u128.ToMont(a), u128.ToMont(b), &um);
    EXPECT_EQ(am, um);
    adx.Sqr(adx.ToMont(a), &as);
    u128.Sqr(u128.ToMont(a), &us);
    EXPECT_EQ(as, us);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, MontgomeryKernelTest,
    ::testing::Values(KernelCase{1, MulKernel::kCios1},
                      KernelCase{2, MulKernel::kCios2},
                      KernelCase{3, MulKernel::kCios3},
                      KernelCase{4, MulKernel::kCios4},
                      KernelCase{6, MulKernel::kCios6},
                      KernelCase{8, MulKernel::kCios8},
                      KernelCase{4, MulKernel::kCios4Adx},
                      KernelCase{6, MulKernel::kCios6Adx},
                      KernelCase{8, MulKernel::kCios8Adx}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(MulKernelName(info.param.fixed));
    });

TEST(MontgomeryKernelSelection, MismatchedWidthRejected) {
  RandFn rand = TestRand(9);
  BigInt m5 = RandomOddModulus(5, rand);
  EXPECT_FALSE(Montgomery::Create(m5, MulKernel::kCios1).ok());
  EXPECT_FALSE(Montgomery::Create(m5, MulKernel::kCios3).ok());
  EXPECT_FALSE(Montgomery::Create(m5, MulKernel::kCios4).ok());
  EXPECT_FALSE(Montgomery::Create(m5, MulKernel::kCios6).ok());
  EXPECT_FALSE(Montgomery::Create(m5, MulKernel::kCios8).ok());
  EXPECT_FALSE(Montgomery::Create(m5, MulKernel::kCios4Adx).ok());
  EXPECT_TRUE(Montgomery::Create(m5, MulKernel::kGeneric).ok());
  EXPECT_FALSE(Montgomery::Create(BigInt(97), MulKernel::kCios2).ok());
  // A 5-limb modulus has no fixed-width kernel: auto selects generic.
  EXPECT_EQ(Montgomery::Create(m5).value().kernel(), MulKernel::kGeneric);
  // A one-limb modulus auto-selects the one-limb kernel.
  EXPECT_EQ(Montgomery::Create(BigInt(97)).value().kernel(),
            MulKernel::kCios1);
}

// The smallest odd moduli, exhaustively: every residue pair mod 3 and
// mod 97 (R = 2^64 is far larger than N, the opposite corner from the
// full-width moduli of the Widths suite).
TEST(MontgomeryKernelSelection, SmallestOddModuliExhaustive) {
  for (int64_t modulus : {int64_t{3}, int64_t{97}}) {
    const BigInt m(modulus);
    auto fixed = Montgomery::Create(m, MulKernel::kCios1).value();
    auto generic = Montgomery::Create(m, MulKernel::kGeneric).value();
    ASSERT_EQ(Montgomery::Create(m).value().kernel(), MulKernel::kCios1);
    for (int64_t a = 0; a < modulus; ++a) {
      const Montgomery::Elem fa = fixed.ToMont(BigInt(a));
      ASSERT_EQ(fa, generic.ToMont(BigInt(a)));
      Montgomery::Elem fs, gs;
      fixed.Sqr(fa, &fs);
      generic.Sqr(fa, &gs);
      ASSERT_EQ(fs, gs) << "a=" << a << " mod " << modulus;
      for (int64_t b = 0; b < modulus; ++b) {
        const Montgomery::Elem fb = fixed.ToMont(BigInt(b));
        Montgomery::Elem fm, gm;
        fixed.Mul(fa, fb, &fm);
        generic.Mul(fa, fb, &gm);
        ASSERT_EQ(fm, gm) << a << "*" << b << " mod " << modulus;
        ASSERT_EQ(fixed.FromMont(fm), BigInt(a * b % modulus));
      }
    }
  }
}

TEST(MontgomeryKernelSelection, IntrinsicRequestHonorsCpuSupport) {
  RandFn rand = TestRand(13);
  BigInt m = RandomOddModulus(6, rand);
  auto forced = Montgomery::Create(m, MulKernel::kCios6Adx);
  if (cios_x86::Available()) {
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(forced->kernel(), MulKernel::kCios6Adx);
  } else {
    // Clean Status, not a crash, on hardware/builds without BMI2/ADX.
    ASSERT_FALSE(forced.ok());
    EXPECT_EQ(forced.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(MontgomeryKernelSelection, DispatchPolicyForcesTier) {
  RandFn rand = TestRand(15);
  BigInt m = RandomOddModulus(4, rand);
  SetMulKernelDispatch(KernelDispatch::kGenericOnly);
  EXPECT_EQ(Montgomery::Create(m).value().kernel(), MulKernel::kGeneric);
  SetMulKernelDispatch(KernelDispatch::kPortableOnly);
  EXPECT_EQ(Montgomery::Create(m).value().kernel(), MulKernel::kCios4);
  SetMulKernelDispatch(KernelDispatch::kAuto);
  auto auto_ctx = Montgomery::Create(m).value();
  EXPECT_EQ(auto_ctx.kernel(), cios_x86::Available()
                                   ? MulKernel::kCios4Adx
                                   : MulKernel::kCios4);
}

// The 2-limb field of a 32-bit prime_bits group: portable CIOS under
// kAuto and kPortableOnly (there is no intrinsic variant at 2 limbs),
// generic only when forced.
TEST(MontgomeryKernelSelection, TwoLimbDispatchPolicies) {
  RandFn rand = TestRand(19);
  BigInt m = RandomOddModulus(2, rand);
  SetMulKernelDispatch(KernelDispatch::kGenericOnly);
  EXPECT_EQ(Montgomery::Create(m).value().kernel(), MulKernel::kGeneric);
  SetMulKernelDispatch(KernelDispatch::kPortableOnly);
  EXPECT_EQ(Montgomery::Create(m).value().kernel(), MulKernel::kCios2);
  SetMulKernelDispatch(KernelDispatch::kAuto);
  EXPECT_EQ(Montgomery::Create(m).value().kernel(), MulKernel::kCios2);
}

// 384-bit moduli (6 limbs) must take a fixed-width fast path now — the
// width that previously fell through to the generic kernel.
TEST(MontgomeryKernelSelection, SixLimbModuliJoinTheFastPath) {
  RandFn rand = TestRand(17);
  BigInt m = RandomOddModulus(6, rand);
  ASSERT_EQ(m.BitLength(), 384u);
  auto ctx = Montgomery::Create(m).value();
  EXPECT_EQ(MulKernelWidth(ctx.kernel()), 6u);
  EXPECT_NE(ctx.kernel(), MulKernel::kGeneric);
}

}  // namespace
}  // namespace sloc
