"""The checked pair (a, b), its intertwining operator X -> a X - X b as an
n^2 x n^2 integer matrix, and what the paper defines on it at p.

mu, the p-profile and exact lifting are defined for two matrices with one
irreducible characteristic polynomial f; `SylvesterOperator.f` checks that
once per pair, and the operator keeps f and the operator matrix.

Each prime starts from the pair reduced at p (`ReducedPair`): with
lam = a[0, 0] and k the p-adic valuation of the gcd of the entries of
a - lam I and b - lam I, a' = (a - lam I) / p^k and b' = (b - lam I) / p^k
have the same intertwiners and L(a, b) = p^k L(a', b').  A side is regular
mod p when it has a cyclic vector there (`_cyclic_krylov`), that is, when
its minimal polynomial mod p is its characteristic polynomial.  By
Nakayama's lemma its Z_p[t]-module is then Z_p[t]/(g), g the shared
characteristic polynomial of a' and b'.  `ReducedPair.settled` reads the
verdict at p off a scalar or regular side and argues it; only when neither
side is regular does the decision need the exact basis (n matrices, from
one Hermite form of width n through a cyclic vector of b).

mu needs no elimination as soon as one side is regular: the cokernel of
L(a', b') is then free and the profile is (k, ..., k) (`_local_mu`).  Only
when neither side is regular does mu come from the operator's Smith form
over Z/p^k at the least k that shows it (`_profile_by_elimination`).

No case builds the operator's integer Smith form.

Vectorization is column-major throughout the package; certificates and kernel
vectors all share this one convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from math import gcd
from operator import index, mul

from .intmat import (
    IntMatrix,
    Vector,
    _coordinates,
    _dual_rows,
    _echelon_fp,
    _krylov,
    kernel_mod,
    solve,
)
from .polyfield import IntPoly, charpoly, discriminant, is_irreducible
from .primes import PreconditionError, is_prime, valuation


def vec(m: IntMatrix) -> Vector:
    """Column-major vectorization."""
    return tuple(m[i, j] for j in range(m.cols) for i in range(m.rows))


def unvec(v, n: int) -> IntMatrix:
    v = tuple(v)
    if len(v) != n * n:
        raise ValueError("vector length is not n^2")
    return IntMatrix([[v[j * n + i] for j in range(n)] for i in range(n)])


class SylvesterOperator:
    """The pair (a, b) and the matrix of X -> a X - X b on column-major
    coordinates, l = (I kron a) - (b^T kron I).

    l and f are computed on first use and kept, and so are the reduced pair
    and the profile at each prime.  Reading f checks that a and b share one
    characteristic polynomial, irreducible over Q; mu, p_profile and
    `lift_kernel` read it, so outside that domain they raise
    PreconditionError.
    """

    def __init__(self, a: IntMatrix, b: IntMatrix) -> None:
        if not (a.is_square and b.is_square) or a.rows != b.rows:
            raise PreconditionError("matrices must be square and of equal size")
        self.a = a
        self.b = b
        self.n = a.rows
        self._profiles: dict[int, PrimePartProfile] = {}
        self._reduced: dict[int, ReducedPair] = {}

    @cached_property
    def l(self) -> IntMatrix:
        # row (j, i) is entry (i, j) of a X - X b: a[i][k] at column (j, k)
        a, b, n = self.a.entries, self.b.entries, self.n
        rows = []
        for j in range(n):
            for i in range(n):
                row = [0] * (j * n) + list(a[i]) + [0] * ((n - 1 - j) * n)
                for l in range(n):  # less b[l][j] at column (l, i)
                    row[l * n + i] -= b[l][j]
                rows.append(row)
        return IntMatrix._of(rows)

    @cached_property
    def f(self) -> IntPoly:
        """The characteristic polynomial of a and of b, irreducible over Q:
        f(b) e_1 = 0 makes the irreducible f the minimal polynomial of e_1
        under b, of degree n, so b's characteristic polynomial too."""
        f = charpoly(self.a)
        if self.b != self.a and not _annihilates(f, self.b):
            raise PreconditionError("characteristic polynomials differ")
        if not is_irreducible(f):
            raise PreconditionError("characteristic polynomial is reducible over Q")
        return f

    @cached_property
    def intertwiners(self) -> list[IntMatrix]:
        """A Z-basis of the exact intertwiners {X : a X = X b}: n matrices.

        a and b must share one irreducible characteristic polynomial, so
        that e_1 is a cyclic vector of b.  With K_B = [e_1, b e_1, ...,
        b^(n-1) e_1], D = det K_B and x = X e_1, every intertwiner is
        X = K_A(x) adj(K_B) / D, where K_A(x) = [x, a x, ..., a^(n-1) x] =
        sum_j x_j K_A(e_j).  So X is integral iff sum_j x_j M_j = 0 mod D
        with M_j = K_A(e_j) adj(K_B): the x form D times the dual of the
        lattice spanned by the n^2 coefficient vectors (M_j[i, l])_j and
        D * Z^n.  One Hermite form of those rows gives a triangular basis.
        """
        a, b, n = self.a, self.b, self.n
        unit = IntMatrix.identity(n)
        d, adj_kb = solve(_krylov(b, unit.row(0)), unit)
        if d == 0:
            raise PreconditionError("e_1 is not a cyclic vector of b")
        m = [_krylov(a, unit.row(j)) @ adj_kb for j in range(n)]
        coeffs = [[mj[i, l] for mj in m] for i in range(n) for l in range(n)]
        size = abs(d)
        rows = [[c % size for c in t] for t in coeffs]
        rows += [[size * x for x in unit.row(i)] for i in range(n)]
        dual, det_h = _dual_rows(rows, n)
        basis = []
        for row in dual:
            # size * e_i lies in the span, so size * dual is integral
            if any(size * c % det_h for c in row):
                raise AssertionError("intertwiner coordinates are not integral")
            # K_A(x) adj(K_B) = sum_j x_j M_j, read entry by entry
            x = [size * c // det_h for c in row]
            total = [sum(map(mul, x, t)) for t in coeffs]
            if any(v % d for v in total):
                raise AssertionError("intertwiner is not integral")
            mat = IntMatrix._of(
                [v // d for v in total[i * n : (i + 1) * n]] for i in range(n)
            )
            if a @ mat != mat @ b:
                raise PreconditionError(
                    "the operands do not share one characteristic polynomial"
                )
            basis.append(mat)
        return basis

    def reduced(self, p: int) -> "ReducedPair":
        """The pair at p less its common scalar part (`_reduce`), kept per
        prime."""
        if p not in self._reduced:
            self._reduced[p] = _reduce(self.a, self.b, p)
        return self._reduced[p]

    def mu(self, p: int) -> int:
        return self.p_profile(p).mu

    def p_profile(self, p: int) -> PrimePartProfile:
        if p not in self._profiles:
            if not is_prime(p):
                raise PreconditionError(f"{p} is not prime")
            self._profiles[p] = _local_mu(self, p)
        return self._profiles[p]

    def solution_generators_mod(self, modulus: int) -> list[Vector]:
        """Generators of the kernel of l modulo a prime power."""
        return kernel_mod(self.l, modulus)


def _annihilates(f: IntPoly, m: IntMatrix) -> bool:
    """f(m) e_1 = 0, by Horner's rule on one vector: O(n^3)."""
    v = (0,) * m.rows
    for c in reversed(f.coeffs):
        v = m.mul_vec(v)
        v = (v[0] + c,) + v[1:]
    return not any(v)


@dataclass(frozen=True)
class ReducedPair:
    """The pair at p less its common scalar part: a = lam I + p^k a' and
    b = lam I + p^k b' with lam = a[0, 0] and k the p-adic valuation of the
    gcd of the entries of a - lam I and b - lam I (0 when both vanish).
    X intertwines (a, b) exactly when it intertwines (a', b'), and
    L(a, b) = p^k L(a', b').

    `scalar` says that a' or b' is a scalar matrix mod p.  `krylov_b` and
    `krylov_a` are `_cyclic_krylov` of b' and of a': (K, K^(-1)) mod p at a
    cyclic vector, or None when that side is derogatory mod p.  Each is
    computed on first use, so mu, which b' settles when it is regular, need
    not search a'.  `settled` is the verdict at p when these decide it."""

    prime: int
    level: int
    a: IntMatrix
    b: IntMatrix
    scalar: bool

    @cached_property
    def krylov_b(self) -> tuple[IntMatrix, IntMatrix] | None:
        return _cyclic_krylov(self.b, self.prime)

    @cached_property
    def krylov_a(self) -> tuple[IntMatrix, IntMatrix] | None:
        return _cyclic_krylov(self.a, self.prime)

    @cached_property
    def settled(self) -> bool | None:
        """For a != b, whether a ~ b over Z_p, or None when the reduced pair
        does not settle it: False when a' or b' is a scalar mod p or exactly
        one of them is regular, True when both are, None when neither is.

        A scalar side leaves no intertwiner a unit mod p.  If b' = c I mod p,
        every intertwiner X mod p has (a' - c I) X = 0, so a nonzero row of
        a' - c I kills every X on the left; if a' = c I, every X kills a
        nonzero column of b' - c I on the right.  If both are scalar,
        a' = c I and b' = d I, then c = a'[0, 0] = 0 and, as k is the
        largest level, d != 0: every X is 0 mod p.  And a ~ b over Z_p makes
        a' and b' conjugate mod p, so regular on both sides or on neither.

        When both are regular, with cyclic vectors w and v, Nakayama's lemma
        makes both Z_p[t]-modules Z_p[t]/(g), so a' and b' are conjugate over
        Z_p, and X = K_a'(w) K_b'(v)^(-1) mod p, entries in [0, p), is a
        certificate: X b'^m v = a'^m w for m < n, and b'^n v and a'^n w
        satisfy the one relation of g, so a' X = X b' mod p with det X a
        unit, and a X - X b = p^k (a' X - X b') = 0 mod p^(k+1), k being mu
        there (`_local_mu`).  No span, walk or exact basis is needed.

        A 1 x 1 pair has a' = b' = 0, a scalar, so a = b is decided first."""
        if self.scalar or (self.krylov_a is None) != (self.krylov_b is None):
            return False
        return True if self.krylov_a is not None else None


def _reduce(a: IntMatrix, b: IntMatrix, p: int) -> ReducedPair:
    lam = a[0, 0]
    da, db = (
        [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m.entries)]
        for m in (a, b)
    )
    g = gcd(*chain.from_iterable(da), *chain.from_iterable(db))
    level = valuation(g, p) if g else 0
    a1, b1 = (IntMatrix._of([[x // p**level for x in row] for row in m]) for m in (da, db))
    return ReducedPair(p, level, a1, b1, _is_scalar_mod(a1, p) or _is_scalar_mod(b1, p))


def _is_scalar_mod(m: IntMatrix, p: int) -> bool:
    d = m[0, 0]
    return all((x - d * (i == j)) % p == 0 for i, row in enumerate(m.entries)
               for j, x in enumerate(row))


def _cyclic_krylov(m: IntMatrix, p: int) -> tuple[IntMatrix, IntMatrix] | None:
    """(K, K^(-1)) mod p for K = [v, m v, ..., m^(n-1) v] at a cyclic vector
    v of m mod p, or None exactly when m is derogatory mod p.

    A scalar m (n > 1) is derogatory at once.  Otherwise the unit vectors
    are tried first, in order.  If none is cyclic, one rank test decides: m
    is regular exactly when I, m, ..., m^(n-1) are independent mod p, and
    column i of m^j is m^j e_i, read off the n Krylov sequences just
    computed.  A regular m has a cyclic vector in the grid {0, ..., s-1}^n
    with s = min(p, n + 1), walked in lexicographic order.  The walk is
    complete: v fails to be cyclic only when (g / g_i)(m) v = 0 for one of
    the at most n irreducible factors g_i of the minimal polynomial g, a
    proper subspace, which lies in a hyperplane and so meets the grid in at
    most s^(n-1) points; n s^(n-1) < s^n at s = n + 1, and at s = p the
    grid is all of F_p^n."""
    n = m.rows
    if n > 1 and _is_scalar_mod(m, p):
        return None
    rows = [[x % p for x in row] for row in m.entries]
    unit = IntMatrix.identity(n).entries

    def krylov(v) -> list[Vector]:
        seq = [v]
        for _ in range(n - 1):
            v = tuple(sum(map(mul, row, v)) % p for row in rows)
            seq.append(v)
        return seq

    def inverted(seq: list[Vector]) -> tuple[IntMatrix, IntMatrix] | None:
        reduced = _echelon_fp([k + u for k, u in zip(zip(*seq), unit)], p, n)
        if len(reduced) < n:
            return None
        return IntMatrix._of(zip(*seq)), IntMatrix._of(row[n:] for row in reduced)

    seqs = []
    for v in unit:
        seqs.append(krylov(v))
        found = inverted(seqs[-1])
        if found is not None:
            return found
    powers = [tuple(chain.from_iterable(seq[j] for seq in seqs)) for j in range(n)]
    if len(_echelon_fp(powers, p, n * n)) < n:
        return None
    for v in product(range(min(p, n + 1)), repeat=n):
        found = inverted(krylov(v))
        if found is not None:
            return found
    raise AssertionError(f"a regular matrix has no cyclic vector in the grid mod {p}")


@dataclass(frozen=True)
class PrimePartProfile:
    """p-adic valuations of the operator's nonzero invariant factors; mu is
    the largest (0 when there are no nonzero factors)."""

    prime: int
    exponents: tuple[int, ...]
    mu: int


def _local_mu(op: SylvesterOperator, p: int) -> PrimePartProfile:
    """The profile of the operator at p: the p-adic valuations of its n^2 - n
    nonzero invariant factors, and mu, the largest of them.

    Reading op.f first checks that a and b share the irreducible
    characteristic polynomial f.  Then the pair is reduced at p
    (`ReducedPair`): L(a, b) = p^k L(a', b'), so every valuation is k more
    than the one of L(a', b').  When b' is regular mod p (it has a cyclic
    vector there), the Z_p[t]-module M_b' of b' is cyclic by Nakayama's
    lemma, Z_p[t]/(g) with g the shared characteristic polynomial of a' and
    b', and the cokernel of L(a', b') is Ext^1_{Z_p[t]}(M_b', M_a') =
    M_a' / g(a') M_a' = M_a' = Z_p^n: free, so all n^2 - n nonzero invariant
    factors of L(a', b') are units, the profile is (k, ..., k) and mu = k,
    with no elimination and no disc f.  A regular a' gives the same, as
    X -> X^T turns L(a', b') into -L(b'^T, a'^T) and a'^T is regular too.
    Otherwise the profile comes from `_profile_by_elimination`."""
    op.f  # the pair's check comes before any work at p
    red = op.reduced(p)
    if red.krylov_b is None and red.krylov_a is None:
        return _profile_by_elimination(op, p)
    r = op.n * op.n - op.n
    return PrimePartProfile(p, (red.level,) * r, red.level if r else 0)


def _profile_by_elimination(op: SylvesterOperator, p: int) -> PrimePartProfile:
    """The profile of the operator at p from its Smith form over Z/p^k at
    the least k of min(2, K), 4, 8, ..., capped at K = v_p(disc f) + 1,
    that shows all n^2 - n pivots.

    L = I kron a - b^T kron I has the eigenvalues theta_i - theta_j, n of
    them zero, so its rank is r = n^2 - n and the sum of its principal r x r
    minors is +-disc f.  The product of the nonzero invariant factors
    divides every r x r minor, hence disc f: their valuations sum to less
    than K, and exactly r pivots must appear below level K.  Over Z/p^k the
    pivots are the invariant factors of valuation below k, so once r of
    them show, every nonzero invariant factor has shown at its level, as it
    would at K.  A count that stops early would not expose a rank above r,
    so the rank is fixed first: reading op.f checks that a and b share the
    irreducible characteristic polynomial f.
    """
    n = op.n
    r = n * n - n
    top = valuation(discriminant(op.f), p) + 1
    k = min(2, top)
    while True:
        pivots = _echelon_fp(op.l.entries, p, n * n, k)
        if len(pivots) == r:
            break
        if k == top:
            raise AssertionError(f"{len(pivots)} local pivots below {p}^{k}, expected {r}")
        k = min(2 * k, top)
    modulus = p**k
    levels = sorted(valuation(gcd(modulus, *row), p) for row in pivots)
    return PrimePartProfile(p, tuple(levels), levels[-1] if levels else 0)


def lift_kernel(
    op: SylvesterOperator, x_approx, p: int, lam: int
) -> Vector:
    """Turn a kernel vector mod p^(mu+lam) into an exact one.

    Given l @ x' = 0 mod p^(mu+lam), returns x with l @ x = 0 exactly and
    x = x' mod p^lam.  Every nonzero invariant factor of l has valuation at
    most mu, so x' mod p^lam is the image of an exact kernel vector, that is
    of an intertwiner.  The intertwiner basis X_1, ..., X_n is saturated, so
    it stays independent mod p and x' has unique coordinates c_i in
    [0, p^lam) in it modulo p^lam; x = sum c_i vec(X_i).
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    try:
        x_approx = tuple(map(index, x_approx))
    except TypeError as exc:
        # a float is refused, never truncated
        raise ValueError(f"vector entries must be integers: {exc}") from None
    m = op.l
    if len(x_approx) != m.cols:
        raise ValueError("vector length mismatch")
    mu_val = op.mu(p)
    check_mod = p ** (mu_val + lam)
    if any(c % check_mod for c in m.mul_vec(x_approx)):
        raise ValueError(
            f"input is not in the kernel mod {p}^{mu_val + lam}; cannot lift"
        )
    basis = [vec(x) for x in op.intertwiners]
    coords = _coordinates(basis, x_approx, p, lam)
    x = tuple(sum(c * v[i] for c, v in zip(coords, basis)) for i in range(m.cols))
    # exact postconditions, rechecked on every call
    plam = p**lam
    if any(c != 0 for c in m.mul_vec(x)):
        raise AssertionError("lifted vector is not in the exact kernel")
    if any((a - b) % plam for a, b in zip(x, x_approx)):
        raise AssertionError("lifted vector breaks the congruence constraint")
    return x
