"""From a matrix to its fractional ideal and back.

A matrix with irreducible characteristic polynomial f has a one-dimensional
eigenspace for the residue class beta of t in Q[t]/(f); the coordinates of a
normalized eigenvector span a full-rank lattice on which the matrix acts as
multiplication by beta.  The eigenvector is a Krylov column of h(a, beta),
where f(t) - f(beta) = (t - beta) h(t, beta), so its integer coordinate rows
are one Krylov matrix times a Hankel matrix, and normalizing them is one
exact solve: the ideal is built in integer coordinates, with no field
element.  The rows V are checked, like a multiplication representation in a
report, by the integer identity a V = V C, with C the companion matrix of f.
The second matrix of a pair takes the first one's field when f(b) e_1 = 0
(`_field_of`), so a pair takes one characteristic polynomial and one
irreducibility test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .ideals import IdealLattice, coeff_ring
from .intmat import IntMatrix, _krylov, solve
from .polyfield import FieldElement, IntPoly, NumberField, charpoly, is_irreducible
from .primes import PreconditionError
from .sylvester import _annihilates


@dataclass(frozen=True)
class EigenData:
    """Right eigenvector for beta, scaled so the first nonzero coordinate
    is 1."""

    field: NumberField
    u: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        first = next((x for x in self.u if not x.is_zero), None)
        if first is None:
            raise AssertionError("eigenvector is zero")
        if first != self.field.one():
            raise AssertionError("eigenvector is not normalized")


def _field_of(a: IntMatrix, field: NumberField | None = None) -> NumberField:
    """Q[t]/(f) for the characteristic polynomial f of a, which must be
    irreducible.  A given field is taken when f(a) e_1 = 0 for its modulus
    f, an O(n^3) check: f is irreducible, so it is then the minimal
    polynomial of e_1 under a, of degree n, and a's characteristic
    polynomial.  Otherwise, or with no field, f is computed and tested."""
    if field is not None and a.shape == (field.degree,) * 2 and _annihilates(
        field.modulus, a
    ):
        return field
    f = charpoly(a)
    if not is_irreducible(f):
        raise PreconditionError("characteristic polynomial is reducible")
    return NumberField(f)


def _eigen_rows(
    a: IntMatrix, field: NumberField | None = None
) -> tuple[NumberField, list[list[int]]]:
    """The field (`_field_of`) and the primitive integer coordinate rows V
    of the eigenvector normalized by u_0, with V[0] = (den, 0, ..., 0) and
    den > 0.

    f(a) = 0, so (a - beta I) h(a, beta) = 0.  The coefficient of beta^k in
    h(a, beta) e_1 is sum_i c_(i+k+1) a^i e_1 over the coefficients c of f,
    so the coordinate rows are U = K H, with K = [e_1, a e_1, ...] and the
    Hankel matrix H_ik = c_(i+k+1).  u_0 is nonzero because the entries of
    an eigenvector are linearly independent over Q.  Dividing by u_0 is
    right multiplication by Mult(u_0)^(-1), and one solve against
    Mult(u_0)^T with right-hand side U^T gives d U Mult(u_0)^(-1),
    transposed, whose first row is d e_1.
    """
    field = _field_of(a, field)
    f = field.modulus
    n, c = a.rows, f.coeffs
    hankel = IntMatrix._of(
        [c[i + k + 1] if i + k < n else 0 for k in range(n)] for i in range(n)
    )
    u = _krylov(a, [1] + [0] * (n - 1)) @ hankel
    d, vt = solve(field.mult_matrix(u.row(0)).transpose(), u.transpose())
    if d == 0:
        raise AssertionError("eigenvector entry u_0 is zero")
    rows = _divide_content(vt.transpose().to_lists(), 1 if d > 0 else -1)
    if not _acts_as_beta(a, rows, f):
        raise AssertionError("eigenvector equation fails")
    return field, rows


def eigenvector(a: IntMatrix) -> EigenData:
    """The first column of h(a, beta), where f(t) - f(beta) = (t - beta) h(t, beta),
    scaled so its first entry is 1: u_r = V_r / V_0[0] on the integer
    coordinate rows V, which come from one exact solve."""
    field, rows = _eigen_rows(a)
    return EigenData(field=field, u=tuple(field.element(r, rows[0][0]) for r in rows))


def _check_eigen(a: IntMatrix, data: EigenData) -> None:
    if not _acts_as_beta(a, primitive_rows(data), data.field.modulus):
        raise AssertionError("eigenvector equation fails")


def _acts_as_beta(a: IntMatrix, rows: list[list[int]], f: IntPoly) -> bool:
    """True iff a V = V C, with V the integer coordinate rows and C the
    companion matrix of f: row i of a V holds the coordinates of
    sum_j a_ij u_j and row i of V C those of beta u_i, over one common
    positive denominator.  Row r of V C is r shifted right by one, less
    r[-1] times the coefficients of f below the leading 1."""
    v = IntMatrix._of(rows)
    if a.shape != v.shape:
        return False
    av = (a @ v).entries
    c = f.coeffs
    return all(
        row == tuple(x - r[-1] * y for x, y in zip((0, *r[:-1]), c))
        for row, r in zip(av, v.entries)
    )


def primitive_rows(data: EigenData) -> list[list[int]]:
    """Clear denominators and divide by the overall content: integer
    coordinate rows, one per eigenvector entry."""
    den = lcm(*(x.den for x in data.u))
    return _divide_content([[den // x.den * c for c in x.coords()[0]] for x in data.u])


def _divide_content(rows: list[list[int]], sign: int = 1) -> list[list[int]]:
    g = sign * gcd(*(v for row in rows for v in row))
    return [[v // g for v in row] for row in rows]


def ideal_of_matrix(a: IntMatrix, field: NumberField | None = None) -> IdealLattice:
    """The lattice spanned by the coordinates of the normalized eigenvector.
    For the second matrix of a pair, pass the first one's field: it is taken
    when it is a's too (`_field_of`), so a pair takes one charpoly."""
    field, rows = _eigen_rows(a, field)
    return IdealLattice(field, rows, 1)  # raises if the rank dropped


def verify_multiplication_rep(a: IntMatrix, ideal: IdealLattice, data: EigenData) -> bool:
    """True iff a is the matrix of x -> beta * x on the ideal in the basis
    given by the eigenvector coordinates.

    With V the coordinate rows and C the companion matrix (multiplication by
    beta on coordinates), that matrix is V C V^(-1), so the test is the exact
    identity a V = V C; V is invertible because the rows span a full-rank
    lattice.  The multiplication matrix is recomputed from the eigenvector
    and the field alone, so tampering with a is detected.
    """
    rows = primitive_rows(data)
    if IdealLattice(data.field, rows, 1) != ideal:
        return False
    return _acts_as_beta(a, rows, data.field.modulus)


def theta_membership(theta: FieldElement, a: IntMatrix) -> bool:
    """True iff theta(a) is an integer matrix; equivalently, theta lies in
    the coefficient ring of the ideal attached to a.  Both sides are computed
    and compared, so a disagreement (a bug) cannot pass silently."""
    field, rows = _eigen_rows(a)
    if field != theta.field:
        raise PreconditionError("matrix does not match the element's field")
    value = theta.num.eval_matrix(a)
    direct = all(x % theta.den == 0 for row in value.entries for x in row)
    ring = coeff_ring(IdealLattice(field, rows, 1))
    if direct != ring.lattice.contains(theta):
        raise AssertionError("matrix test and coefficient-ring test disagree")
    return direct
