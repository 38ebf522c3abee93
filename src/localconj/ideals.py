"""Fractional-ideal lattices in Q[t]/(f) and their arithmetic.

An ideal is stored as a positive denominator plus a row-style Hermite normal
form basis with respect to the power basis 1, beta, ..., beta^(n-1).  The
canonical form (HNF, positive pivots, reduced entries, minimal denominator)
makes equality structural.  The Hermite form of `intmat` is the only
elimination here: an intersection is read off the HNF of a 2n x 2n block
(Zassenhaus), L intersected with Z is the same meet with den * Z, and a
colon ideal (j : i) is a scaled dual of the lattice spanned by the n^2
columns of M_k adj(B_j) (M_k multiplication by the k-th basis element of i,
B_j the basis of j), read off one HNF of n^2 rows by `intmat`'s dual-lattice
routine, which `sylvester` shares for intertwiners.  An index is an exact
quotient of denominators and diagonal products.  Membership, stability,
scaling and the order axioms work on integer rows over a denominator, and a
field element is built only where a caller passes or asks for one.  So
nothing here needs a Smith form, a factorization, a field inverse or a
rational number.

Degree filtration.  Let L_m be the elements of L of degree at most m in
beta, and h_0, ..., h_(n-1) the degree-ordered (lower-triangular) Hermite
basis of L, h_m of degree m with leading coefficient d_m > 0, so that
h_0, ..., h_m span L_m.  For m < n - 1, multiplying by beta shifts the
coordinates of L_m up one degree with no reduction by f.  So if L is
stable under beta, beta L_m lies in L_(m+1); then d_(m+1) divides d_m, and
where the two are equal h_(m+1) - beta h_m lies in L_m.  Hence h_0 and the
h_(m+1) with d_(m+1) != d_m, the set S(L), generate L over Z[beta].  S(L)
is one Hermite form of the column-reversed basis (`_module_generators`).
A product x * L with L beta-stable lies in a beta-stable lattice iff each
basis row of x times each element of S(L) does, which is how
`verify_weak_witnesses` checks a weak-equivalence certificate by the
definition without the n^2 products of `mul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul as _mul

from .intmat import (
    IntMatrix,
    _adjugate_upper,
    _diagonal_product,
    _dual_rows,
    _hnf_rows,
    _zero_head_tails,
)
from .polyfield import FieldElement, NumberField
from .primes import PreconditionError, is_prime, valuation


def _meet_rows(li: list[list[int]], lj: list[list[int]], n: int) -> list[list[int]]:
    """Basis of rowspan(li) intersected with rowspan(lj) (Zassenhaus).

    The rows of [[li, li], [lj, 0]] combine to (x + y, x) with x in li's
    span and y in lj's, so the first half vanishes exactly when x = -y lies
    in both; the HNF rows whose first half is zero carry a basis of the
    meet in their second half."""
    return _zero_head_tails([r + r for r in li] + [r + [0] * n for r in lj], n)


class IdealLattice:
    """Full-rank lattice (1/den) * rowspan(basis) inside a number field."""

    __slots__ = ("field", "den", "basis")

    def __init__(self, field: NumberField, rows, den: int = 1) -> None:
        if den <= 0:
            raise ValueError("denominator must be positive")
        n = field.degree
        rows = [list(r) for r in rows]
        if any(len(r) != n for r in rows):
            raise ValueError(f"basis rows must have {n} entries, the field degree")
        # the content of the rows is a lattice invariant, so it comes out
        # before the Hermite form, which then works on smaller entries
        g = gcd(den, *(x for r in rows for x in r))
        if g > 1:
            rows = [[x // g for x in r] for r in rows]
            den //= g
        hnf = _hnf_rows(rows, n)
        if len(hnf) != n:
            raise ValueError("lattice is not of full rank")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "basis", IntMatrix(hnf))

    def __setattr__(self, name, value):
        raise AttributeError("IdealLattice is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_elements(cls, field: NumberField, elems) -> "IdealLattice":
        elems = [e for e in elems]
        if not elems:
            raise ValueError("no generators")
        den = 1
        for e in elems:
            den = lcm(den, e.den)
        rows = []
        for e in elems:
            coords, d = e.coords()
            scale = den // d
            rows.append([scale * c for c in coords])
        return cls(field, rows, den)

    @classmethod
    def zbeta(cls, field: NumberField) -> "IdealLattice":
        return cls(field, IntMatrix.identity(field.degree).to_lists(), 1)

    # -- structure ------------------------------------------------------

    def basis_elements(self) -> list[FieldElement]:
        return [self.field.element(row, self.den) for row in self.basis.entries]

    def contains(self, x: FieldElement) -> bool:
        if x.field != self.field:
            raise ValueError("element from a different field")
        coords, d = x.coords()
        return self._contains_rows([coords], d)

    def _contains_rows(self, rows, den: int) -> bool:
        """True iff every integer coordinate row over den lies in the
        lattice; the pivots sit on the diagonal because it has full rank."""
        basis, scale = self.basis.entries, self.den
        for row in rows:
            v = []
            for c in row:
                q, r = divmod(c * scale, den)
                if r:
                    return False
                v.append(q)
            for i, b in enumerate(basis):
                q, r = divmod(v[i], b[i])
                if r:
                    return False
                if q:
                    # b is zero left of its pivot
                    v = [x - q * y for x, y in zip(v, b)]
        return True

    def contains_lattice(self, other: "IdealLattice") -> bool:
        return self._contains_rows(other.basis.entries, other.den)

    def contains_one(self) -> bool:
        return self._contains_rows([(1,) + (0,) * (self.field.degree - 1)], 1)

    def is_stable_under(self, other: "IdealLattice") -> bool:
        return self.contains_lattice(mul(other, self))

    def is_stable_under_beta(self) -> bool:
        # row i of Mult(beta) holds the coordinates of beta^(i+1)
        times_beta = self.basis @ self.field.mult_matrix((0, 1))
        return self._contains_rows(times_beta.entries, self.den)

    def scaled(self, alpha: FieldElement) -> "IdealLattice":
        if alpha.is_zero:
            raise ZeroDivisionError("scaling an ideal by zero")
        rows = self.basis @ self.field.mult_matrix(alpha.num.coeffs)
        return IdealLattice(self.field, rows.entries, self.den * alpha.den)

    def smallest_positive_integer(self) -> int:
        """Generator of (this lattice) intersected with Z: the meet of the
        integer basis with den * Z * 1 is the single row c * den * e_1."""
        n = self.field.degree
        meet = _meet_rows(self.basis.to_lists(), [[self.den] + [0] * (n - 1)], n)
        if len(meet) != 1:
            raise AssertionError("integer-intersection meet should be rank one")
        return meet[0][0] // self.den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IdealLattice)
            and self.field == other.field
            and self.den == other.den
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.den, self.basis))

    def __mul__(self, other: "IdealLattice") -> "IdealLattice":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"IdealLattice(den={self.den}, basis={self.basis.to_lists()!r})"


@dataclass(frozen=True)
class Order:
    """An ideal lattice that is a ring containing Z[beta]; checked on
    construction."""

    lattice: IdealLattice

    def __post_init__(self) -> None:
        lat = self.lattice
        if not lat.contains_one():
            raise AssertionError("order must contain 1")
        if not lat._contains_rows([(0, 1) + (0,) * (lat.field.degree - 2)], 1):
            raise AssertionError("order must contain beta")
        if not lat.is_stable_under(lat):
            raise AssertionError("order is not closed under multiplication")

    @property
    def field(self) -> NumberField:
        return self.lattice.field


def zbeta_order(field: NumberField) -> Order:
    return Order(IdealLattice.zbeta(field))


def _require_same_field(i: IdealLattice, j: IdealLattice) -> None:
    if i.field != j.field:
        raise PreconditionError("ideals live in different fields")


def _module_generators(lat: IdealLattice) -> list[tuple[int, ...]]:
    """S(L): integer rows over lat.den that generate L over Z[beta] when L
    is stable under beta (the degree-filtration lemma of the module
    docstring).  One Hermite form of the column-reversed basis, reversed
    back, is the degree-ordered basis h_0, ..., h_(n-1); the rows kept are
    h_0 and each h_(m+1) whose leading coefficient differs from h_m's."""
    n = lat.field.degree
    tri = _hnf_rows([r[::-1] for r in lat.basis.entries], n)
    gens, lead = [], 0
    # row k of tri has its pivot in reversed column k: degree n - 1 - k
    for k in range(n - 1, -1, -1):
        if tri[k][k] != lead:
            lead = tri[k][k]
            gens.append(tuple(tri[k][::-1]))
    return gens


def mul(i: IdealLattice, j: IdealLattice) -> IdealLattice:
    """Ideal product: HNF of all pairwise products of basis elements."""
    _require_same_field(i, j)
    field = i.field
    rows = []
    for ri in i.basis.entries:
        m_t = field.mult_matrix(ri).transpose()
        for rj in j.basis.entries:
            rows.append(list(m_t.mul_vec(rj)))
    return IdealLattice(field, rows, i.den * j.den)


def _products_inside(
    target: IdealLattice, left: IdealLattice, right: IdealLattice
) -> bool:
    """True iff left * right lies in target, for beta-stable target and
    right: each basis row of left times each generator in S(right) must,
    because beta^k (r g) = r (beta^k g) stays in target.  It fails at the
    first generator whose products leave target."""
    den = left.den * right.den
    for g in _module_generators(right):
        # row k of left.basis @ Mult(g) holds the coordinates of g times row k
        rows = (left.basis @ target.field.mult_matrix(g)).entries
        if not target._contains_rows(rows, den):
            return False
    return True


def _product_contains_one(x: IdealLattice, y: IdealLattice) -> bool:
    """True iff 1 lies in x * y.  It is looked for first in the sublattice
    spanned by g * y for g in S(x).  That sublattice is x * y when x and y
    are beta-stable, so a miss settles the answer for them; only for other
    x or y is 1 then looked for in all n^2 products (`mul`)."""
    field = x.field
    rows = [
        r for g in _module_generators(x) for r in (y.basis @ field.mult_matrix(g)).entries
    ]
    if IdealLattice(field, rows, x.den * y.den).contains_one():
        return True
    if x.is_stable_under_beta() and y.is_stable_under_beta():
        return False
    return mul(x, y).contains_one()


def verify_weak_witnesses(
    i: IdealLattice, j: IdealLattice, x: IdealLattice, y: IdealLattice
) -> bool:
    """True iff x and y witness that i and j are weakly equivalent, by the
    definition: x lies in (i : j), y in (j : i), and 1 in x * y.  i and j
    must be stable under beta, as every ideal `bridge.ideal_of_matrix`
    builds is.

    It implies the two products `weak_equivalence_data` promises, x * j = i
    and y * i = j, because i lies in x y i, inside x j, inside i.  The
    colon ideals it writes are beta-stable, so for them the first try of
    `_product_contains_one` settles the answer.
    """
    _require_same_field(i, j)
    return (
        _products_inside(i, x, j)
        and _products_inside(j, y, i)
        and _product_contains_one(x, y)
    )


def quotient(j: IdealLattice, i: IdealLattice) -> IdealLattice:
    """Colon ideal (j : i) = {x in K : x * i inside j}, from one Hermite form.

    With M_k the multiplication matrix of the k-th basis row of i, B the HNF
    basis of j and D = det B, x * i lies in j iff x * G lies in
    (d_i * D / d_j) * Z^(n^2) for G = [M_1 adj(B) | ... | M_n adj(B)].  So
    (j : i) is d_i * D / d_j times the dual of the lattice spanned by the
    columns of G.  With H the HNF of those columns, taken as rows, the dual
    is spanned by the rows of adj(H)^T / det H.  No field inverse, scaling
    or meet is needed.
    """
    _require_same_field(j, i)
    field = i.field
    n = field.degree
    adj_cols = list(zip(*_adjugate_upper(j.basis.entries)))
    cols = []
    for s in i.basis.entries:
        m = field.mult_matrix(s).entries
        # column l of M_s adj(B), entry by entry
        cols.extend([sum(map(_mul, row, col)) for row in m] for col in adj_cols)
    dual, det_h = _dual_rows(cols, n)
    scale = i.den * _diagonal_product(j.basis.entries)
    rows = [[scale * x for x in row] for row in dual]
    return IdealLattice(field, rows, j.den * det_h)


def intersection(i: IdealLattice, j: IdealLattice) -> IdealLattice:
    """Lattice intersection: both bases over the common denominator, met by
    one HNF of the stacked 2n x 2n block."""
    _require_same_field(i, j)
    den = lcm(i.den, j.den)
    li = [[(den // i.den) * x for x in row] for row in i.basis.entries]
    lj = [[(den // j.den) * x for x in row] for row in j.basis.entries]
    return IdealLattice(i.field, _meet_rows(li, lj, i.field.degree), den)


def coeff_ring(i: IdealLattice) -> Order:
    """The coefficient ring (i : i), returned as a validated Order."""
    return Order(quotient(i, i))


def is_invertible(i: IdealLattice, r: Order) -> bool:
    """True iff i * (r : i) recovers r's lattice."""
    _require_same_field(i, r.lattice)
    if not i.is_stable_under(r.lattice):
        raise ValueError("the lattice is not an ideal of the given order")
    return mul(i, quotient(r.lattice, i)) == r.lattice


def weakly_equivalent(i: IdealLattice, j: IdealLattice) -> bool:
    """True iff 1 lies in (i : j)(j : i)."""
    ok, _, _ = weak_equivalence_data(i, j)
    return ok


def weak_equivalence_data(
    i: IdealLattice, j: IdealLattice
) -> tuple[bool, IdealLattice, IdealLattice]:
    """Decision plus the witness colon ideals x = (i : j), y = (j : i).

    When the verdict is true, x * j = i and y * i = j, so the witnesses
    certify the equivalence by two multiplications.
    """
    _require_same_field(i, j)
    x = quotient(i, j)
    y = quotient(j, i)
    return mul(x, y).contains_one(), x, y


def verify_arith_equiv(i: IdealLattice, j: IdealLattice, alpha: FieldElement) -> bool:
    """True iff alpha * i equals j structurally."""
    if alpha.is_zero:
        raise ZeroDivisionError("zero scaling witness")
    _require_same_field(i, j)
    return i.scaled(alpha) == j


def index(sub: IdealLattice, super_: IdealLattice) -> int:
    """Group index [super : sub] for nested full-rank lattices."""
    _require_same_field(sub, super_)
    if not super_.contains_lattice(sub):
        raise ValueError("first lattice is not contained in the second")
    # the bases are triangular, so their determinants are diagonal products
    n = sub.field.degree
    q, r = divmod(
        super_.den**n * _diagonal_product(sub.basis.entries),
        sub.den**n * _diagonal_product(super_.basis.entries),
    )
    if r:
        raise AssertionError("index of nested lattices must be an integer")
    return q


def in_Id_p(i: IdealLattice, r: Order, p: int) -> bool:
    """True iff [r : i] is a power of p.

    For genuine r-ideals the two companion characterizations (p^k r inside i;
    the lattice meets Z exactly in p^k Z) are cross-asserted, so a
    counterexample to either cannot pass silently.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    idx = index(i, r.lattice)
    e = valuation(idx, p)
    answer = idx == p**e
    stable = i.is_stable_under(r.lattice)
    if answer:
        pk_rows = [[p**e * x for x in row] for row in r.lattice.basis.entries]
        if not i._contains_rows(pk_rows, r.lattice.den):
            raise AssertionError("p^k * order escapes the ideal")
    if stable:
        c0 = i.smallest_positive_integer()
        if answer != (c0 == p ** valuation(c0, p)):
            raise AssertionError(
                f"index {idx} vs integer intersection {c0}Z: the p-power "
                "characterizations disagree"
            )
    return answer


def up_map(i: IdealLattice, r: Order) -> IdealLattice:
    """Extension to the larger order: r * i."""
    return mul(r.lattice, i)


def down_map(j: IdealLattice, s: Order) -> IdealLattice:
    """Contraction to the smaller order: j intersected with s."""
    return intersection(j, s.lattice)
