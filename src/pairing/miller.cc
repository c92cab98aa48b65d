#include "pairing/miller.h"

#include <utility>

#include "common/check.h"

namespace sloc {

namespace {

/// Per-pair state threaded through a Miller loop: the shared contexts
/// plus the distorted coordinates of this pair's evaluation point.
struct LoopCtx {
  const Curve& curve;
  const Fp& fp;
  const Fp2& fp2;
  Fp::Elem xq;     // x-coordinate of phi(B) = -x_B (in F_p)
  Fp::Elem yq_im;  // imaginary coefficient of phi(B)'s y = +-y_B
};

/// Intermediates of one doubling step that the line (in either evaluated
/// or coefficient form) needs, all taken from the state *before* the
/// step: A = Y^2, D = 3X^2 + a Z^4, zz = Z^2, and the old X.
struct DblAux {
  Fp::Elem A;
  Fp::Elem D;
  Fp::Elem zz;
  Fp::Elem x_old;
};

/// Advances T <- 2T (Jacobian), filling `aux` from the pre-step state.
/// Returns false when T was the identity or 2-torsion: T becomes the
/// identity and the step contributes no line.
bool DoubleCore(const Curve& curve, JacobianPoint* t, DblAux* aux) {
  const Fp& fp = curve.fp();
  if (curve.IsInfinity(*t) || fp.IsZero(t->Y)) {
    *t = JacobianPoint{fp.One(), fp.One(), fp.Zero()};
    return false;
  }
  Fp::Elem B, C, tmp, z4;
  fp.Sqr(t->Y, &aux->A);               // Y^2
  fp.Mul(t->X, aux->A, &tmp);
  fp.MulSmall(tmp, 4, &B);             // 4 X Y^2
  fp.Sqr(aux->A, &tmp);
  fp.MulSmall(tmp, 8, &C);             // 8 Y^4
  fp.Sqr(t->X, &tmp);
  Fp::Elem three_x2;
  fp.MulSmall(tmp, 3, &three_x2);
  fp.Sqr(t->Z, &aux->zz);              // Z^2
  fp.Sqr(aux->zz, &z4);
  fp.Mul(curve.a(), z4, &tmp);
  fp.Add(three_x2, tmp, &aux->D);      // D = 3X^2 + a Z^4
  aux->x_old = t->X;

  JacobianPoint out;
  Fp::Elem d2, two_b;
  fp.Sqr(aux->D, &d2);
  fp.Dbl(B, &two_b);
  fp.Sub(d2, two_b, &out.X);
  fp.Sub(B, out.X, &tmp);
  Fp::Elem dt;
  fp.Mul(aux->D, tmp, &dt);
  fp.Sub(dt, C, &out.Y);
  fp.Mul(t->Y, t->Z, &tmp);
  fp.Dbl(tmp, &out.Z);                 // Z3 = 2 Y Z
  *t = std::move(out);
  return true;
}

/// Tangent-line value at the pre-step T, evaluated at phi(B); T advances.
/// Line values are scaled by 2*Y*Z^3 in F_p* (harmless).
Fp2Elem DoubleStep(const LoopCtx& ctx, JacobianPoint* t) {
  DblAux aux;
  if (!DoubleCore(ctx.curve, t, &aux)) return ctx.fp2.One();
  const Fp& fp = ctx.fp;
  // l = [-2Y^2 - D*(xq*Z^2 - X)] + [Z3 * Z^2 * yq_im] i
  Fp2Elem line;
  Fp::Elem xq_zz, diff, dterm, two_a, neg;
  fp.Mul(ctx.xq, aux.zz, &xq_zz);
  fp.Sub(xq_zz, aux.x_old, &diff);
  fp.Mul(aux.D, diff, &dterm);
  fp.Dbl(aux.A, &two_a);               // 2 Y^2
  fp.Add(two_a, dterm, &neg);
  fp.Neg(neg, &line.re);
  Fp::Elem z3zz;
  fp.Mul(t->Z, aux.zz, &z3zz);
  fp.Mul(z3zz, ctx.yq_im, &line.im);
  return line;
}

/// The constant-1 line (used for steps with no line contribution).
MillerLine TrivialLine(const Fp& fp) {
  return MillerLine{fp.Zero(), fp.One(), fp.Zero()};
}

/// Coefficient form of DoubleStep: l = (c_x*xq + c_0) + (c_y*yq_im) i
/// with c_x = -D Z^2, c_0 = D X - 2Y^2, c_y = Z3 Z^2.
MillerLine DoubleStepLines(const Curve& curve, JacobianPoint* t) {
  DblAux aux;
  if (!DoubleCore(curve, t, &aux)) return TrivialLine(curve.fp());
  const Fp& fp = curve.fp();
  MillerLine line;
  Fp::Elem d_zz, dx, two_a;
  fp.Mul(aux.D, aux.zz, &d_zz);
  fp.Neg(d_zz, &line.c_x);
  fp.Mul(aux.D, aux.x_old, &dx);
  fp.Dbl(aux.A, &two_a);
  fp.Sub(dx, two_a, &line.c_0);
  fp.Mul(t->Z, aux.zz, &line.c_y);
  return line;
}

/// How an addition step resolved.
enum class AddOutcome {
  kNormal,   // T advanced; line intermediates valid
  kTangent,  // T == P: caller must run a doubling step instead
  kTrivial,  // line is the constant 1 (identity or vertical cases)
};

/// Intermediates of one addition step needed by the line forms: the
/// slope numerator R and the new Z (Z3 = Z*H); P itself is known to the
/// caller.
struct AddAux {
  Fp::Elem r;
  Fp::Elem z3;
};

/// Advances T <- T + P (mixed). On kTangent T is left untouched.
AddOutcome AddCore(const Curve& curve, const AffinePoint& p,
                   JacobianPoint* t, AddAux* aux) {
  const Fp& fp = curve.fp();
  if (curve.IsInfinity(*t)) {
    *t = curve.ToJacobian(p);
    return AddOutcome::kTrivial;
  }
  Fp::Elem zz, zcu, u2, s2;
  fp.Sqr(t->Z, &zz);
  fp.Mul(zz, t->Z, &zcu);
  fp.Mul(p.x, zz, &u2);
  fp.Mul(p.y, zcu, &s2);
  Fp::Elem h;
  fp.Sub(u2, t->X, &h);
  fp.Sub(s2, t->Y, &aux->r);
  if (fp.IsZero(h)) {
    if (fp.IsZero(aux->r)) {
      // T == P: tangent case (vanishingly rare mid-loop).
      return AddOutcome::kTangent;
    }
    // T == -P: vertical line; value in F_p*, erased by final exp.
    *t = JacobianPoint{fp.One(), fp.One(), fp.Zero()};
    return AddOutcome::kTrivial;
  }
  Fp::Elem h2, h3, u1h2;
  fp.Sqr(h, &h2);
  fp.Mul(h2, h, &h3);
  fp.Mul(t->X, h2, &u1h2);
  JacobianPoint out;
  Fp::Elem r2, tmp, two_u1h2;
  fp.Sqr(aux->r, &r2);
  fp.Sub(r2, h3, &tmp);
  fp.Dbl(u1h2, &two_u1h2);
  fp.Sub(tmp, two_u1h2, &out.X);
  fp.Sub(u1h2, out.X, &tmp);
  Fp::Elem rt, s1h3;
  fp.Mul(aux->r, tmp, &rt);
  fp.Mul(t->Y, h3, &s1h3);
  fp.Sub(rt, s1h3, &out.Y);
  fp.Mul(t->Z, h, &out.Z);             // Z3 = Z * H
  aux->z3 = out.Z;
  *t = std::move(out);
  return AddOutcome::kNormal;
}

/// Line through T and the affine base point P, evaluated at phi(B); T
/// advances. Scaled by Z3 in F_p*.
Fp2Elem AddStep(const LoopCtx& ctx, const AffinePoint& p, JacobianPoint* t) {
  AddAux aux;
  switch (AddCore(ctx.curve, p, t, &aux)) {
    case AddOutcome::kTangent:
      return DoubleStep(ctx, t);
    case AddOutcome::kTrivial:
      return ctx.fp2.One();
    case AddOutcome::kNormal:
      break;
  }
  const Fp& fp = ctx.fp;
  // l = [-Z3*y2 - R*(xq - x2)] + [Z3 * yq_im] i
  Fp2Elem line;
  Fp::Elem z3y2, dx, rdx, sum;
  fp.Mul(aux.z3, p.y, &z3y2);
  fp.Sub(ctx.xq, p.x, &dx);
  fp.Mul(aux.r, dx, &rdx);
  fp.Add(z3y2, rdx, &sum);
  fp.Neg(sum, &line.re);
  fp.Mul(aux.z3, ctx.yq_im, &line.im);
  return line;
}

/// Coefficient form of AddStep: c_x = -R, c_0 = R x2 - Z3 y2, c_y = Z3.
MillerLine AddStepLines(const Curve& curve, const AffinePoint& p,
                        JacobianPoint* t) {
  AddAux aux;
  switch (AddCore(curve, p, t, &aux)) {
    case AddOutcome::kTangent:
      return DoubleStepLines(curve, t);
    case AddOutcome::kTrivial:
      return TrivialLine(curve.fp());
    case AddOutcome::kNormal:
      break;
  }
  const Fp& fp = curve.fp();
  MillerLine line;
  Fp::Elem rx2, z3y2;
  fp.Neg(aux.r, &line.c_x);
  fp.Mul(aux.r, p.x, &rx2);
  fp.Mul(aux.z3, p.y, &z3y2);
  fp.Sub(rx2, z3y2, &line.c_0);
  line.c_y = aux.z3;
  return line;
}

/// Builds the per-pair evaluation context: phi(B) for the plain pairing,
/// phi(-B) when accumulating the inverse.
LoopCtx MakeCtx(const Curve& curve, const Fp2& fp2, const AffinePoint& b,
                bool invert) {
  const Fp& fp = curve.fp();
  LoopCtx ctx{curve, fp, fp2, fp.Zero(), b.y};
  fp.Neg(b.x, &ctx.xq);                      // phi(B).x = -x_B
  if (invert) fp.Neg(b.y, &ctx.yq_im);       // phi(-B).y = -i*y_B
  return ctx;
}

}  // namespace

Fp2Elem MillerLoop(const Curve& curve, const Fp2& fp2, const BigInt& order,
                   const AffinePoint& a, const AffinePoint& b) {
  SLOC_CHECK(!a.infinity && !b.infinity)
      << "MillerLoop requires finite points";
  LoopCtx ctx = MakeCtx(curve, fp2, b, /*invert=*/false);

  Fp2Elem f = fp2.One();
  Fp2Elem tmp;
  JacobianPoint t = curve.ToJacobian(a);
  for (size_t i = order.BitLength() - 1; i-- > 0;) {
    fp2.Sqr(f, &tmp);
    Fp2Elem line = DoubleStep(ctx, &t);
    fp2.Mul(tmp, line, &f);
    if (order.Bit(i)) {
      Fp2Elem line_add = AddStep(ctx, a, &t);
      fp2.Mul(f, line_add, &tmp);
      f = tmp;
    }
  }
  return f;
}

MillerLineTable PrecompileMillerLines(const Curve& curve,
                                      const BigInt& order,
                                      const AffinePoint& a) {
  MillerLineTable table;
  if (a.infinity) {
    table.trivial_ = true;
    return table;
  }
  const size_t bits = order.BitLength();
  SLOC_CHECK(bits >= 1);
  table.lines_.reserve(2 * bits);
  JacobianPoint t = curve.ToJacobian(a);
  for (size_t i = bits - 1; i-- > 0;) {
    table.lines_.push_back(DoubleStepLines(curve, &t));
    if (order.Bit(i)) {
      table.lines_.push_back(AddStepLines(curve, a, &t));
    }
  }
  return table;
}

Fp2Elem MultiMillerLoopCoords(
    const Curve& curve, const Fp2& fp2, const BigInt& order,
    const std::vector<PrecompiledPairingCoords>& pairs,
    PairingScratch* scratch, size_t* loops_executed) {
  // Precompiled-chain evaluation state: the stored lines plus the
  // distorted coordinates they are substituted at. The scratch owns the
  // buffer so workers can reuse it across queries.
  using PrecompiledPairState = PairingScratch::EvalUnit;
  std::vector<PrecompiledPairState>& live = scratch->live;
  live.clear();
  live.reserve(pairs.size());
  for (const PrecompiledPairingCoords& pair : pairs) {
    SLOC_CHECK(pair.table != nullptr);
    if (pair.skip || pair.table->trivial()) continue;
    live.push_back(PrecompiledPairState{&pair.table->lines(), pair.xq,
                                        pair.y_im});
  }
  const Fp& fp = curve.fp();
  if (loops_executed != nullptr) *loops_executed = live.size();
  Fp2Elem f = fp2.One();
  if (live.empty()) return f;

  // Every table must have been compiled against this same `order`: one
  // doubling line per bit below the top plus one addition line per set
  // bit. Reject mismatched tables up front — the walk below indexes
  // unchecked.
  const size_t bits = order.BitLength();
  size_t schedule = bits - 1;
  for (size_t i = bits - 1; i-- > 0;) {
    if (order.Bit(i)) ++schedule;
  }
  for (const PrecompiledPairState& s : live) {
    SLOC_CHECK(s.lines->size() == schedule)
        << "Miller line table compiled for a different order";
  }

  // All chains share one schedule: walk it once, substituting each
  // pair's coordinates into the stored coefficients.
  Fp2Elem tmp, line;
  Fp::Elem cx_xq;
  size_t idx = 0;
  auto substitute = [&](const PrecompiledPairState& s) {
    const MillerLine& ml = (*s.lines)[idx];
    fp.Mul(ml.c_x, s.xq, &cx_xq);
    fp.Add(cx_xq, ml.c_0, &line.re);
    fp.Mul(ml.c_y, s.y_im, &line.im);
    fp2.Mul(f, line, &tmp);
    f = tmp;
  };
  for (size_t i = bits - 1; i-- > 0;) {
    fp2.Sqr(f, &tmp);
    f = tmp;
    for (const PrecompiledPairState& s : live) substitute(s);
    ++idx;
    if (order.Bit(i)) {
      for (const PrecompiledPairState& s : live) substitute(s);
      ++idx;
    }
  }
  return f;
}

Fp2Elem FinalExponentiation(const Fp2& fp2, const Fp2Elem& f,
                            const BigInt& cofactor) {
  SLOC_CHECK(!fp2.IsZero(f)) << "zero Miller value";
  // f^(p-1) = conj(f) / f.
  Fp2Elem conj;
  fp2.Conj(f, &conj);
  auto inv = fp2.Inverse(f);
  SLOC_CHECK(inv.ok());
  Fp2Elem unit;
  fp2.Mul(conj, *inv, &unit);
  // Then raise to c = (p+1)/N. conj(f)/f has norm 1 exactly (the F_p
  // norm is multiplicative), so the unitary ladder applies.
  return fp2.PowUnitary(unit, cofactor);
}

void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs) {
  PairingScratch scratch;
  BatchFinalExponentiation(fp2, cofactor, fs, &scratch);
}

void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs,
                              PairingScratch* scratch) {
  const size_t n = fs->size();
  if (n == 0) return;
  if (n == 1) {
    (*fs)[0] = FinalExponentiation(fp2, (*fs)[0], cofactor);
    return;
  }
  std::vector<Fp2Elem>& f = *fs;
  // Montgomery batch inversion: prefix[j] = f_0 * ... * f_j.
  std::vector<Fp2Elem>& prefix = scratch->prefix;
  prefix.resize(n);
  prefix[0] = f[0];
  SLOC_CHECK(!fp2.IsZero(f[0])) << "zero Miller value";
  for (size_t j = 1; j < n; ++j) {
    SLOC_CHECK(!fp2.IsZero(f[j])) << "zero Miller value";
    fp2.Mul(prefix[j - 1], f[j], &prefix[j]);
  }
  auto total_inv = fp2.Inverse(prefix[n - 1]);
  SLOC_CHECK(total_inv.ok());
  // Walk back: `acc` always holds (f_0 * ... * f_j)^-1. Each entry is
  // replaced by its unitarization conj(f_j)/f_j; the cofactor powers
  // are then taken in one shared-schedule batch ladder below.
  Fp2Elem acc = *total_inv;
  Fp2Elem conj, unit, inv_j, tmp;
  for (size_t j = n; j-- > 1;) {
    fp2.Mul(acc, prefix[j - 1], &inv_j);  // f_j^-1
    fp2.Mul(acc, f[j], &tmp);             // strip f_j from acc
    acc = tmp;
    fp2.Conj(f[j], &conj);
    fp2.Mul(conj, inv_j, &unit);          // conj(f_j)/f_j, norm 1
    f[j] = unit;
  }
  fp2.Conj(f[0], &conj);
  fp2.Mul(conj, acc, &f[0]);
  // The cofactor is one fixed exponent for the whole batch: share its
  // wNAF recoding across every unit (bit-identical to per-entry
  // PowUnitary).
  fp2.BatchPowUnitary(cofactor, fs, &scratch->pow);
}

}  // namespace sloc
