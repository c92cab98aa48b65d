// Property tests for the precompiled query path the batched engine runs:
// precompiled line tables walked by the shared-squaring
// MultiMillerLoopCoords vs products of individual MillerLoop pairings,
// PrecompiledToken evaluation through a slim EvalView vs the reference
// Query across random patterns and widths, batched vs per-entry final
// exponentiation, and the executed-loop / precompiled-hit counter
// accounting.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hve/hve.h"
#include "pairing/group.h"
#include "pairing/miller.h"

namespace sloc {
namespace {

RandFn TestRand(uint64_t seed = 42) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

class PairingEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 20210323;
    group_ = new PairingGroup(PairingGroup::Generate(spec).value());
  }
  static void TearDownTestSuite() {
    delete group_;
    group_ = nullptr;
  }

  static AffinePoint RandomElement(const RandFn& rand) {
    return group_->Mul(BigInt::RandomBelow(group_->params().n, rand),
                       group_->gen());
  }

  /// phi(B) (or phi(-B) when `invert`) as pre-distorted coordinates
  /// for `table`; an identity B is a skipped pair.
  static PrecompiledPairingCoords CoordsAt(const MillerLineTable& table,
                                           const AffinePoint& b,
                                           bool invert) {
    const Fp& fp = group_->fp();
    PrecompiledPairingCoords pair;
    pair.table = &table;
    pair.skip = b.infinity;
    if (b.infinity) return pair;
    fp.Neg(b.x, &pair.xq);
    pair.y_im = b.y;
    if (invert) fp.Neg(b.y, &pair.y_im);
    return pair;
  }

  /// Query's G_T element along the batched engine's path: slim view,
  /// precompiled Miller ratio, one final exponentiation, C' * ratio^-1.
  static Fp2Elem ViewQuery(const hve::PrecompiledToken& ptk,
                           const hve::Ciphertext& ct,
                           hve::QueryScratch* scratch) {
    const hve::EvalLayout layout =
        hve::MakeEvalLayout(ptk.pattern.size(), {&ptk});
    const hve::EvalView view =
        hve::MakeEvalView(*group_, layout, ct).value();
    Fp2Elem ratio =
        hve::QueryMillerPrecompiledView(*group_, ptk, layout, view, scratch)
            .value();
    ratio = FinalExponentiation(group_->fp2(), ratio,
                                group_->params().cofactor);
    return group_->GtMul(ct.c_prime, group_->GtInv(ratio));
  }

  static PairingGroup* group_;
};

PairingGroup* PairingEngineTest::group_ = nullptr;

// One shared-squaring walk over several precompiled chains must equal the
// product of the individual pairings (inverted where requested), each
// from the live MillerLoop plus a final exponentiation.
TEST_F(PairingEngineTest, PrecompiledLinesMatchLiveChain) {
  RandFn rand = TestRand(101);
  const BigInt& n = group_->params().n;
  const BigInt& cofactor = group_->params().cofactor;
  PairingScratch scratch;
  for (size_t count = 1; count <= 5; ++count) {
    std::vector<AffinePoint> as, bs;
    std::vector<MillerLineTable> tables;
    for (size_t k = 0; k < count; ++k) {
      as.push_back(RandomElement(rand));
      bs.push_back(RandomElement(rand));
      tables.push_back(PrecompileMillerLines(group_->curve(), n, as[k]));
      EXPECT_FALSE(tables[k].trivial());
    }
    std::vector<PrecompiledPairingCoords> pairs;
    Fp2Elem expected = group_->GtOne();
    for (size_t k = 0; k < count; ++k) {
      const bool invert = (rand() & 1) != 0;
      pairs.push_back(CoordsAt(tables[k], bs[k], invert));
      Fp2Elem e = FinalExponentiation(
          group_->fp2(),
          MillerLoop(group_->curve(), group_->fp2(), n, as[k], bs[k]),
          cofactor);
      expected = group_->GtMul(expected, invert ? group_->GtInv(e) : e);
    }
    size_t executed = 0;
    Fp2Elem miller = MultiMillerLoopCoords(group_->curve(), group_->fp2(),
                                           n, pairs, &scratch, &executed);
    EXPECT_EQ(executed, count);
    Fp2Elem got = FinalExponentiation(group_->fp2(), miller, cofactor);
    EXPECT_TRUE(group_->GtEqual(got, expected)) << "count " << count;
  }
}

TEST_F(PairingEngineTest, MultiMillerLoopCoordsSkipsIdentityPairs) {
  RandFn rand = TestRand(102);
  const BigInt& n = group_->params().n;
  AffinePoint a = RandomElement(rand);
  AffinePoint b = RandomElement(rand);
  AffinePoint inf = group_->curve().Infinity();
  MillerLineTable table = PrecompileMillerLines(group_->curve(), n, a);
  MillerLineTable trivial = PrecompileMillerLines(group_->curve(), n, inf);
  EXPECT_TRUE(trivial.trivial());
  std::vector<PrecompiledPairingCoords> pairs = {
      CoordsAt(table, b, false),
      CoordsAt(trivial, b, false),  // free: identity table
      CoordsAt(table, inf, true),   // free: identity evaluation point
  };
  PairingScratch scratch;
  size_t executed = 0;
  Fp2Elem miller = MultiMillerLoopCoords(group_->curve(), group_->fp2(), n,
                                         pairs, &scratch, &executed);
  EXPECT_EQ(executed, 1u);
  Fp2Elem got = FinalExponentiation(group_->fp2(), miller,
                                    group_->params().cofactor);
  EXPECT_TRUE(group_->GtEqual(got, group_->Pair(a, b)));

  // All-skipped input never touches the loop and yields 1.
  std::vector<PrecompiledPairingCoords> none = {CoordsAt(trivial, b, false)};
  Fp2Elem one = MultiMillerLoopCoords(group_->curve(), group_->fp2(), n,
                                      none, &scratch, &executed);
  EXPECT_EQ(executed, 0u);
  EXPECT_TRUE(group_->fp2().IsOne(one));
}

// PrecompiledToken evaluation must agree with the reference Query (the
// same G_T element, hence the same match outcome) for random patterns,
// including the all-star and zero-star edge cases, across widths 1-32.
TEST_F(PairingEngineTest, PrecompiledTokenMatchesQueryAcrossWidths) {
  Rng rng(777);
  RandFn rand = TestRand(104);
  hve::QueryScratch scratch;
  for (size_t width : {size_t(1), size_t(2), size_t(3), size_t(5),
                       size_t(8), size_t(16), size_t(32)}) {
    hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
    Fp2Elem marker = group_->RandomGt(rand);
    std::vector<std::string> patterns;
    patterns.push_back(std::string(width, '*'));  // all-star
    {
      std::string full(width, '0');               // zero-star
      for (auto& c : full) c = rng.NextBool() ? '1' : '0';
      patterns.push_back(full);
    }
    for (int extra = 0; extra < 2; ++extra) {
      std::string p(width, '*');
      for (auto& c : p) {
        double r = rng.NextDouble();
        c = r < 0.4 ? '*' : (r < 0.7 ? '0' : '1');
      }
      patterns.push_back(p);
    }
    std::string index(width, '0');
    for (auto& c : index) c = rng.NextBool() ? '1' : '0';
    hve::Ciphertext ct =
        hve::Encrypt(*group_, keys.pk, index, marker, rand).value();
    for (const std::string& pattern : patterns) {
      hve::Token tk =
          hve::GenToken(*group_, keys.sk, pattern, rand).value();
      hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
      Fp2Elem reference = hve::Query(*group_, tk, ct).value();
      Fp2Elem view = ViewQuery(ptk, ct, &scratch);
      EXPECT_TRUE(group_->GtEqual(reference, view))
          << "width " << width << " pattern " << pattern;
      EXPECT_EQ(hve::Matches(*group_, tk, ct, marker).value(),
                group_->GtEqual(view, marker));
    }
  }
}

TEST_F(PairingEngineTest, PrecompiledTokenReuseAcrossCiphertexts) {
  // One precompilation and one warm scratch, many evaluations: the
  // alert-scan pattern.
  RandFn rand = TestRand(105);
  const size_t width = 6;
  hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Token tk = hve::GenToken(*group_, keys.sk, "01**1*", rand).value();
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  hve::QueryScratch scratch;
  const std::vector<std::string> indexes = {"010010", "010110", "110011",
                                            "011111"};
  for (const std::string& index : indexes) {
    hve::Ciphertext ct =
        hve::Encrypt(*group_, keys.pk, index, marker, rand).value();
    EXPECT_EQ(hve::Matches(*group_, tk, ct, marker).value(),
              group_->GtEqual(ViewQuery(ptk, ct, &scratch), marker))
        << index;
  }
}

// BatchFinalExponentiation must be bit-identical to applying
// FinalExponentiation per entry — field arithmetic is exact and the
// Montgomery representation canonical, so the shared-inversion path
// yields the very same limb vectors.
TEST_F(PairingEngineTest, BatchFinalExponentiationBitIdentical) {
  RandFn rand = TestRand(301);
  const Fp2& fp2 = group_->fp2();
  const BigInt& cofactor = group_->params().cofactor;
  for (size_t count : {size_t(1), size_t(2), size_t(3), size_t(8),
                       size_t(17)}) {
    std::vector<Fp2Elem> millers;
    millers.reserve(count);
    for (size_t k = 0; k < count; ++k) {
      AffinePoint a = RandomElement(rand);
      AffinePoint b = RandomElement(rand);
      millers.push_back(MillerLoop(group_->curve(), fp2,
                                   group_->params().n, a, b));
    }
    std::vector<Fp2Elem> expected;
    expected.reserve(count);
    for (const Fp2Elem& f : millers) {
      expected.push_back(FinalExponentiation(fp2, f, cofactor));
    }
    BatchFinalExponentiation(fp2, cofactor, &millers);
    ASSERT_EQ(millers.size(), count);
    for (size_t k = 0; k < count; ++k) {
      EXPECT_EQ(millers[k].re, expected[k].re) << "count " << count;
      EXPECT_EQ(millers[k].im, expected[k].im) << "count " << count;
    }
  }
  // Empty batch is a no-op.
  std::vector<Fp2Elem> none;
  BatchFinalExponentiation(fp2, cofactor, &none);
  EXPECT_TRUE(none.empty());
}

// The raw view Miller ratio plus a final exponentiation — per entry or
// batched, bit-identically — must reproduce Query exactly.
TEST_F(PairingEngineTest, QueryMillerPlusFinalExpEqualsQuery) {
  RandFn rand = TestRand(302);
  const size_t width = 6;
  hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Token tk = hve::GenToken(*group_, keys.sk, "0*1*10", rand).value();
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  const hve::EvalLayout layout = hve::MakeEvalLayout(width, {&ptk});
  const Fp2& fp2 = group_->fp2();
  const BigInt& cofactor = group_->params().cofactor;
  hve::QueryScratch scratch;
  std::vector<Fp2Elem> ratios, expected, c_primes;
  for (const char* index : {"001110", "011010", "010101"}) {
    hve::Ciphertext ct =
        hve::Encrypt(*group_, keys.pk, index, marker, rand).value();
    expected.push_back(hve::Query(*group_, tk, ct).value());
    hve::EvalView view = hve::MakeEvalView(*group_, layout, ct).value();
    ratios.push_back(hve::QueryMillerPrecompiledView(*group_, ptk, layout,
                                                     view, &scratch)
                         .value());
    c_primes.push_back(ct.c_prime);
  }
  std::vector<Fp2Elem> batched = ratios;
  BatchFinalExponentiation(fp2, cofactor, &batched, &scratch.pairing);
  for (size_t i = 0; i < expected.size(); ++i) {
    Fp2Elem single = FinalExponentiation(fp2, ratios[i], cofactor);
    EXPECT_EQ(batched[i].re, single.re) << "ct " << i;
    EXPECT_EQ(batched[i].im, single.im) << "ct " << i;
    Fp2Elem rec = group_->GtMul(c_primes[i], group_->GtInv(batched[i]));
    EXPECT_TRUE(group_->GtEqual(rec, expected[i])) << "ct " << i;
  }
}

// The per-key G_T comb must agree with the wNAF unitary ladder for
// every exponent shape Encrypt can produce.
TEST_F(PairingEngineTest, UnitaryCombMatchesPowUnitary) {
  RandFn rand = TestRand(303);
  const Fp2& fp2 = group_->fp2();
  Fp2Elem base = group_->RandomGt(rand);
  UnitaryComb comb = group_->BuildGtComb(base);
  EXPECT_FALSE(comb.empty());
  const BigInt& n = group_->params().n;
  std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(2),
                              n - BigInt(1), -(n - BigInt(2))};
  for (int i = 0; i < 8; ++i) exps.push_back(BigInt::RandomBelow(n, rand));
  // Wider than the comb: exercises the PowUnitary fallback.
  exps.push_back(n * n + BigInt(12345));
  for (const BigInt& e : exps) {
    Fp2Elem got = comb.Pow(fp2, e);
    Fp2Elem want = fp2.PowUnitary(base, e);
    EXPECT_TRUE(fp2.Equal(got, want)) << "exp bits " << e.BitLength();
  }
  // An empty comb always falls back.
  UnitaryComb empty;
  EXPECT_TRUE(empty.empty());
}

TEST_F(PairingEngineTest, CountersChargeOnlyExecutedLoops) {
  RandFn rand = TestRand(106);
  const size_t width = 4;
  hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Ciphertext ct =
      hve::Encrypt(*group_, keys.pk, "0101", marker, rand).value();
  hve::Token tk = hve::GenToken(*group_, keys.sk, "01*1", rand).value();
  hve::QueryScratch scratch;

  // The reference Query charges every one of the 2*3+1 pairings; none
  // come from tables.
  group_->ResetCounters();
  (void)hve::Query(*group_, tk, ct).value();
  EXPECT_EQ(group_->counters().pairings, 7u);
  EXPECT_EQ(group_->counters().precomp_pairings, 0u);

  // Healthy token through the view path: all 7 loops run from tables
  // and charge both counters.
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  group_->ResetCounters();
  (void)ViewQuery(ptk, ct, &scratch);
  EXPECT_EQ(group_->counters().pairings, 7u);
  EXPECT_EQ(group_->counters().precomp_pairings, 7u);

  // Identity token components compile to trivial tables: their loops
  // are free and must not be charged.
  hve::Token maimed = tk;
  maimed.k1[1] = group_->curve().Infinity();
  maimed.k2[2] = group_->curve().Infinity();
  hve::PrecompiledToken maimed_ptk = hve::PrecompileToken(*group_, maimed);
  EXPECT_TRUE(maimed_ptk.k1[1].trivial());
  group_->ResetCounters();
  (void)ViewQuery(maimed_ptk, ct, &scratch);
  EXPECT_EQ(group_->counters().pairings, 5u);
  EXPECT_EQ(group_->counters().precomp_pairings, 5u);

  // An identity ciphertext column is a skipped pair: also free.
  hve::Ciphertext holed = ct;
  holed.c1[0] = group_->curve().Infinity();
  group_->ResetCounters();
  (void)ViewQuery(ptk, holed, &scratch);
  EXPECT_EQ(group_->counters().pairings, 6u);
  EXPECT_EQ(group_->counters().precomp_pairings, 6u);
}

}  // namespace
}  // namespace sloc
