// Miller's algorithm for the reduced Tate pairing on y^2 = x^3 + a x + b.
//
// The evaluation point is the distortion image phi(B) = (-x_B, i*y_B),
// whose x-coordinate lies in F_p and y-coordinate is purely imaginary.
// Vertical-line factors therefore land in F_p* and are erased by the final
// exponentiation (p^2-1)/N = (p-1)*c, so the loop uses denominator
// elimination and scales line values by arbitrary F_p* constants.
//
// Two evaluation strategies share the same line formulas:
//  1. MillerLoop — one pair, the reference path.
//  2. PrecompileMillerLines + MultiMillerLoopCoords — the Miller chain
//     of a *fixed* first argument is run once and its line coefficients
//     stored; later evaluations of many pairs share one pass over the
//     order bits (one f^2 squaring per bit in total) and only substitute
//     the other point's distorted coordinates (2 F_p muls per line
//     instead of a full point-arithmetic step).
//
// Both strategies can fold an inversion into the loop for free: because
// e(A, -B) = e(A, B)^-1 and phi(-B) = (-x_B, -i*y_B), flipping the sign
// of the evaluation point's y accumulates the *inverse* of a pairing
// without any Fp2 inversion. The HVE query ratio uses exactly this.

#ifndef SLOC_PAIRING_MILLER_H_
#define SLOC_PAIRING_MILLER_H_

#include <vector>

#include "ec/curve.h"
#include "field/fp2.h"

namespace sloc {

/// Accumulates f_{N,A}(phi(B)) via double-and-add over the bits of `order`.
///
/// `a` and `b` must be finite points (callers handle identities).
/// Returns the un-exponentiated Miller value in F_p^2.
Fp2Elem MillerLoop(const Curve& curve, const Fp2& fp2, const BigInt& order,
                   const AffinePoint& a, const AffinePoint& b);

/// One precompiled line: evaluated at phi(B) = (xq, i*yq_im) it equals
/// (c_x * xq + c_0) + (c_y * yq_im) i. Steps that contribute no line
/// (identity tangents, verticals) are stored as the constant 1.
struct MillerLine {
  Fp::Elem c_x;
  Fp::Elem c_0;
  Fp::Elem c_y;
};

/// The full Miller chain of one fixed first argument A, flattened in
/// execution order: for each bit below the top one doubling line, plus
/// one addition line when the order bit is set. MultiMillerLoopCoords
/// walks the same schedule, so no per-line tags are needed.
class MillerLineTable {
 public:
  /// True when A was the identity: the pairing is identically 1.
  bool trivial() const { return trivial_; }
  const std::vector<MillerLine>& lines() const { return lines_; }

 private:
  friend MillerLineTable PrecompileMillerLines(const Curve&, const BigInt&,
                                               const AffinePoint&);
  bool trivial_ = false;
  std::vector<MillerLine> lines_;
};

/// Runs the Miller chain of `a` over the bits of `order` once, recording
/// every line's coefficients. Cost is comparable to one MillerLoop; every
/// later evaluation against this table skips the point arithmetic
/// entirely.
MillerLineTable PrecompileMillerLines(const Curve& curve,
                                      const BigInt& order,
                                      const AffinePoint& a);

/// One pair of a precompiled multi-pairing whose evaluation point is
/// supplied as already-distorted coordinates: xq = -x_B and y_im = the
/// i-coefficient of phi(+-B)'s y (so the caller bakes the inversion
/// sign into y_im). This is the entry point for slim evaluation buffers
/// that store two F_p residues per point instead of the affine point;
/// `skip` marks pairs that contribute 1 (identity evaluation point or
/// trivial table).
struct PrecompiledPairingCoords {
  const MillerLineTable* table = nullptr;
  Fp::Elem xq;
  Fp::Elem y_im;
  bool skip = false;
};

/// Reusable per-worker scratch for the precompiled walkers and the
/// batch final exponentiation. Every member is a high-water-mark
/// buffer: thread one PairingScratch through a worker's queries and
/// flush rounds and, after warm-up, the whole evaluation pipeline runs
/// without touching the heap. Treat the members as opaque.
struct PairingScratch {
  /// One live pair of a precompiled schedule walk (internal layout).
  struct EvalUnit {
    const std::vector<MillerLine>* lines;
    Fp::Elem xq;
    Fp::Elem y_im;
  };
  std::vector<EvalUnit> live;      ///< schedule-walk state
  std::vector<Fp2Elem> prefix;     ///< batch-inversion prefix products
  Fp2PowScratch pow;               ///< shared-wNAF cofactor ladder
};

/// Shared-squaring evaluation of precompiled chains: per pair and line
/// only the substitution (c_x * xq + c_0) + (c_y * yq_im) i and one
/// fp2.Mul remain, and the f^2 squaring is paid once per order bit for
/// all pairs. Returns the combined un-exponentiated Miller value; apply
/// FinalExponentiation once to get the product of the pairings. Skipped
/// pairs and trivial tables contribute 1; `loops_executed` counts the
/// pairs actually evaluated. No heap allocation once `scratch` is warm.
Fp2Elem MultiMillerLoopCoords(
    const Curve& curve, const Fp2& fp2, const BigInt& order,
    const std::vector<PrecompiledPairingCoords>& pairs,
    PairingScratch* scratch, size_t* loops_executed = nullptr);

/// Final exponentiation f^((p^2-1)/N) given cofactor c = (p+1)/N:
/// computes (conj(f)/f)^c. Precondition: f != 0.
Fp2Elem FinalExponentiation(const Fp2& fp2, const Fp2Elem& f,
                            const BigInt& cofactor);

/// In-place batch final exponentiation: (*fs)[j] becomes exactly
/// FinalExponentiation(fp2, (*fs)[j], cofactor) — bit-identical, since
/// field arithmetic is exact — but the conj(f)/f unitarization shares
/// ONE Fp2 inversion across all entries via Montgomery's simultaneous
/// inversion (prefix products, 3 extra Fp2 muls per entry), instead of
/// one Fp inversion through the extended gcd per entry, and the fixed
/// cofactor power runs as one Fp2::BatchPowUnitary ladder whose wNAF
/// recoding is shared across the batch. Precondition: every entry != 0.
void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs);

/// BatchFinalExponentiation with caller-provided scratch: bit-identical
/// results, and a warm scratch makes the whole round — prefix products,
/// shared inversion, cofactor ladder — allocation-free.
void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs,
                              PairingScratch* scratch);

}  // namespace sloc

#endif  // SLOC_PAIRING_MILLER_H_
