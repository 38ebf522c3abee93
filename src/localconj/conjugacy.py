"""Conjugacy of integer matrices over the p-adic integers.

The decision for one prime works modulo p^(mu+1), where mu is the largest
p-adic valuation among the nonzero invariant factors of the intertwining
operator.  Every decision and every check runs on one `SylvesterOperator`
per pair: it holds the pair's checked irreducible characteristic polynomial
f, computed once, the pair reduced at each prime, the intertwiner basis,
and mu (`sylvester._local_mu`), so the operator's integer Smith form is
never built.  After a = b, the pair reduced at p settles the verdict
when a side is a scalar or regular mod p (`sylvester.ReducedPair.settled`,
which argues each case).  Otherwise, on the general route, neither side is
regular: the span is that of the exact basis (n matrices,
`SylvesterOperator.intertwiners`), which is saturated, so it is every
solution mod p that lifts; the walk runs on the basis's own coefficients
and a unit is realized on the basis mod p^(mu+1).

On the general route a negative verdict has two ways:

- a shared null vector: when every spanning matrix mod p kills one nonzero
  vector on the right, or every one kills one on the left, so does every
  element of the span, and nothing is searched.  This route is sound, not
  complete: for n >= 3 some spaces of singular matrices share no null vector;
- an exhausted walk: otherwise the span is walked; a hit is the
  certificate and a miss is a sound rejection.  The walk needs coefficients
  only below s = min(p, n): at the last lead l where det(sum c_i X_i) is
  not identically zero it vanishes at c_l = 0, so it is c_l T with T
  homogeneous of degree n - 1, and by Alon's Combinatorial Nullstellensatz
  n residues settle T (`_unit_det_witness`).  A miss costs
  (s^dim - 1)/(s - 1) points.

Verdicts and mu do not depend on the route; certificate matrices do.
Negative verdicts carry no certificate.  `verify_cert` re-checks every
certificate from scratch; stored flags are never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .intmat import IntMatrix, Vector, _coordinates, _echelon_fp, _pair_reduced, det
from .polyfield import IntPoly, discriminant, is_irreducible
from .primes import PreconditionError, factorize, is_prime, valuation
from .sylvester import SylvesterOperator, _cyclic_krylov, unvec, vec


@dataclass(frozen=True)
class UnitModCert:
    """x with a @ x = x @ b mod modulus = p^(mu+1) and det(x) a unit mod p."""

    x: IntMatrix
    prime: int
    modulus: int


@dataclass(frozen=True)
class IntegerPairCert:
    """Exact intertwiners q, s with coprime determinants."""

    q: IntMatrix
    s: IntMatrix


Certificate = Union[UnitModCert, IntegerPairCert]


@dataclass(frozen=True)
class Verdict:
    conjugate: bool
    prime: Union[int, str]  # a prime, or "all"
    certificate: Optional[Certificate]
    mu_used: int
    per_prime: tuple["Verdict", ...] = ()
    screened: tuple[int, ...] = ()


@dataclass(frozen=True)
class EllInvariant:
    """Largest k such that the matrix is a scalar modulo p^k."""

    prime: int
    ell: int


def _det_mod(rows: list[list[int]], p: int) -> int:
    return det(IntMatrix._of(rows)) % p


def _unit_det_witness(
    gens: list[Vector], p: int, modulus: int, n: int
) -> Optional[Vector]:
    """sum c_i gens_i mod `modulus` for the first coefficients c whose
    unvectorization has determinant prime to p, or None when the span mod p
    holds no such element.

    The coefficients are walked projectively, later leads first: for each
    lead, they are 0 before it and 1 at it, and the later ones run over
    {0, ..., s - 1} with s = min(p, n), in lexicographic order; the walk
    stops at the first unit.  It is complete.  At s = p it is every
    projective point.  Below, P(c) = det(sum c_i X_i) is homogeneous of
    degree n < p; let l be the last lead where P(0, ..., 0, c_l, ...) is
    not identically zero.  There it vanishes at c_l = 0, so P = c_l T with
    T homogeneous of degree n - 1, and T(1, c_(l+1), ...) is a nonzero
    polynomial of degree below n in each coefficient: by Alon's
    Combinatorial Nullstellensatz it is not zero on {0, ..., n - 1}, so n
    residues settle T and the first hit never uses coefficient n.  A miss
    visits (s^dim - 1) / (s - 1) points, dim = len(gens).
    """
    dim = len(gens)
    mats = [[[v[j * n + i] % p for j in range(n)] for i in range(n)] for v in gens]
    residues = range(min(p, n))

    def walk(k: int, m: list[list[int]], coeffs: tuple[int, ...]):
        # tails in lexicographic order, carrying the running sum m
        if k == dim:
            return coeffs if _det_mod(m, p) else None
        for c in residues:
            if c:
                m = [[(x + y) % p for x, y in zip(row, brow)]
                     for row, brow in zip(m, mats[k])]
            found = walk(k + 1, m, coeffs + (c,))
            if found is not None:
                return found
        return None

    for lead in reversed(range(dim)):
        found = walk(lead + 1, mats[lead], (0,) * lead + (1,))
        if found is not None:
            return tuple(sum(c * x for c, x in zip(found, col)) % modulus
                         for col in zip(*gens))
    return None


def _span_shares_a_null_vector(mats: list[IntMatrix], p: int, n: int) -> bool:
    """True when the mod-p span of the n x n `mats` holds no unit because all
    of them kill one nonzero vector: on the right when their stacked rows
    have rank below n, on the left when their stacked columns do."""
    rows = [row for m in mats for row in m.entries]
    cols = [col for m in mats for col in zip(*m.entries)]
    return len(_echelon_fp(rows, p, n)) < n or len(_echelon_fp(cols, p, n)) < n


def _decide_at_prime(op: SylvesterOperator, p: int) -> Verdict:
    """Decide a ~ b over Z_p for the operator's checked pair.

    Equal matrices are conjugate.  Otherwise the reduced pair settles the
    verdict when it can (`ReducedPair.settled`), and a positive one has the
    certificate X = K_a'(w) K_b'(v)^(-1) mod p.  On the general route a
    null vector shared by the mod-p span of the exact intertwiner basis is
    a negative without a search (`_span_shares_a_null_vector`), and else
    the unit-determinant walk over that span decides and realizes its hit
    on the basis mod p^(mu+1).  mu is the operator's
    (`SylvesterOperator.mu`) in every case.
    """
    a, b, n = op.a, op.b, op.n
    mu = op.mu(p)
    modulus = p ** (mu + 1)
    if a == b:
        cert = UnitModCert(IntMatrix.identity(n), p, modulus)
        return Verdict(True, p, cert, mu)
    red = op.reduced(p)
    if red.settled is False:
        return Verdict(False, p, None, mu)
    if red.settled:
        x = (red.krylov_a[0] @ red.krylov_b[1]).mod(p)
    else:
        span = op.intertwiners
        if _span_shares_a_null_vector(span, p, n):
            return Verdict(False, p, None, mu)
        witness = _unit_det_witness([vec(m) for m in span], p, modulus, n)
        if witness is None:
            return Verdict(False, p, None, mu)
        x = unvec(witness, n)
    cert = UnitModCert(x, p, modulus)
    if not _unit_mod_holds(op, cert):
        raise AssertionError("freshly built certificate failed verification")
    return Verdict(True, p, cert, mu)


def _conjugate_at_prime(op: SylvesterOperator, p: int) -> bool:
    """The verdict of `_decide_at_prime`, with no certificate built where
    the reduced pair settles it (`ReducedPair.settled`): only the general
    route asks `_decide_at_prime`."""
    op.f  # the pair's check comes before any work at p
    if op.a == op.b:
        return True
    settled = op.reduced(p).settled
    return _decide_at_prime(op, p).conjugate if settled is None else settled


def conjugate_over_Zp(a: IntMatrix, b: IntMatrix, p: int) -> Verdict:
    """Decide similarity of a and b over the p-adic integers."""
    return _decide_at_prime(SylvesterOperator(a, b), p)


def screen_primes(f: IntPoly) -> list[int]:
    """Primes whose square divides disc(f): outside this set, all matrices
    with characteristic polynomial f are conjugate p-adically."""
    if not is_irreducible(f):
        raise PreconditionError("polynomial must be irreducible")
    disc = discriminant(f)
    if disc == 0:
        raise AssertionError("irreducible polynomial with zero discriminant")
    return sorted(p for p, e in factorize(disc).items() if e >= 2)


def conjugate_over_all_Zp(a: IntMatrix, b: IntMatrix) -> Verdict:
    """Decide similarity over the p-adic integers for every prime at once.

    Only the primes in the discriminant screen can fail, so those are
    decided one by one.  On success a pair of exact intertwiners with
    coprime determinants is added as a convenient global certificate; the
    per-prime certificates remain the authoritative proof.
    """
    op = SylvesterOperator(a, b)
    screen = screen_primes(op.f)
    per = tuple(_decide_at_prime(op, p) for p in screen)
    ok = all(v.conjugate for v in per)
    mu_used = max((v.mu_used for v in per), default=0)
    cert = _pair_cert(op, per) if ok else None
    return Verdict(ok, "all", cert, mu_used, per_prime=per, screened=tuple(screen))


def _pair_cert(op: SylvesterOperator, per: tuple[Verdict, ...]) -> IntegerPairCert:
    """Two exact intertwiners with coprime determinants.

    The operator's intertwiner basis is size-reduced first, and q is the
    basis matrix of least |det q| (nonzero because the characteristic
    polynomial is irreducible; often 1, and then no prime is left to
    decide).  For each prime p dividing det q, the coordinates of the mod-p
    witness in that basis are solved for mod p on all n^2 entries (X -> X e_1
    need not be injective mod p; the basis is saturated, so it stays
    independent mod p).  Combining them by the CRT yields s congruent to a
    unit-determinant witness modulo every such p, so det s is prime to
    det q.  Witnesses at screened primes come from `per`; every other prime
    is decided on the same operator.
    """
    n = op.n
    basis = _pair_reduced([vec(x) for x in op.intertwiners])
    mats = [unvec(v, n) for v in basis]
    q = min(mats, key=lambda x: abs(x.det()))
    decided = {v.prime: v for v in per}
    combined = [0] * len(mats)
    mod_all = 1
    for p in sorted(factorize(q.det())):
        verdict = decided.get(p) or _decide_at_prime(op, p)
        if not verdict.conjugate:
            raise AssertionError(f"no unit-determinant intertwiner mod {p}")
        coords = _coordinates(basis, vec(verdict.certificate.x), p, 1)
        inv = pow(mod_all, -1, p)
        for idx, target in enumerate(coords):
            # CRT step for coordinate idx: keep value mod mod_all, set mod p
            cur = combined[idx]
            combined[idx] = cur + mod_all * ((target - cur) * inv % p)
        mod_all *= p
    s = q
    if mod_all > 1:
        s = IntMatrix.zeros(n, n)
        for c, m in zip(combined, mats):
            if c:
                s = s + c * m
    cert = IntegerPairCert(q, s)
    if not verify_cert(op.a, op.b, cert):
        raise AssertionError("pair certificate failed verification")
    return cert


def verify_cert(a: IntMatrix, b: IntMatrix, cert: Certificate) -> bool:
    """Re-check every certificate invariant exactly; False on any violation.

    A UnitModCert is checked on the operator of (a, b) (`_unit_mod_holds`),
    so a and b must share one irreducible characteristic polynomial."""
    try:
        if isinstance(cert, UnitModCert):
            return _unit_mod_holds(SylvesterOperator(a, b), cert)
        if isinstance(cert, IntegerPairCert):
            if a @ cert.q != cert.q @ b or a @ cert.s != cert.s @ b:
                return False
            return gcd(abs(cert.q.det()), abs(cert.s.det())) == 1
    except (ValueError, ArithmeticError):
        return False
    return False


def _unit_mod_holds(op: SylvesterOperator, cert: UnitModCert) -> bool:
    """The UnitModCert invariants for the operator's pair: modulus =
    p^(mu+1) with mu the operator's at p, a x = x b mod modulus and det x
    prime to p."""
    p, x = cert.prime, cert.x
    if not is_prime(p) or x.shape != (op.n, op.n):
        return False
    if cert.modulus != p ** (op.mu(p) + 1):
        return False
    diff = op.a @ x - x @ op.b
    if any(v % cert.modulus for row in diff.entries for v in row):
        return False
    return x.det() % p != 0


def companion_test(a: IntMatrix, p: int) -> bool:
    """True iff a is similar to the companion matrix of its characteristic
    polynomial over the p-adic integers: a mod p has a cyclic vector v
    (`sylvester._cyclic_krylov`), and then K(v) = [v, a v, ..., a^(n-1) v]
    is invertible over Z_p and K(v)^(-1) a K(v) is a companion matrix of
    it.  No operator and no disc f."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    SylvesterOperator(a, a).f  # a square, with an irreducible characteristic polynomial
    return _cyclic_krylov(a, p) is not None


def ell_invariant(a: IntMatrix, p: int) -> EllInvariant:
    """For 2x2 matrices: the largest k with a = lambda*I mod p^k for some
    integer lambda.  The diagonal forces lambda, so k is the valuation at p
    of gcd(a_01, a_10, a_00 - a_11)."""
    if a.shape != (2, 2):
        raise PreconditionError("the scalar-congruence invariant needs 2x2 input")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    g = gcd(a[0, 1], a[1, 0], a[0, 0] - a[1, 1])
    if g == 0:
        raise PreconditionError("scalar matrix: the invariant is unbounded")
    return EllInvariant(prime=p, ell=valuation(g, p))
