"""From a matrix to its fractional ideal and back.

A matrix with irreducible characteristic polynomial f has a one-dimensional
eigenspace for the residue class beta of t in Q[t]/(f); the coordinates of a
normalized eigenvector span a full-rank lattice on which the matrix acts as
multiplication by beta.  The eigenvector is a Krylov column of h(a, beta),
where f(t) - f(beta) = (t - beta) h(t, beta), so it needs integer
matrix-vector products and one field inverse, no elimination over the field.
It is checked, like a multiplication representation in a report, by the
integer identity a V = V C on its coordinate rows V, with C the companion
matrix of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .ideals import IdealLattice, coeff_ring
from .intmat import IntMatrix
from .polyfield import FieldElement, NumberField, charpoly, is_irreducible
from .primes import PreconditionError


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


def eigenvector(a: IntMatrix) -> EigenData:
    """The first column of h(a, beta), where f(t) - f(beta) = (t - beta) h(t, beta).

    f(a) = 0, so (a - beta I) h(a, beta) = 0.  The coefficient of beta^k in
    h(a, beta) e_1 is sum_i c_(i+k+1) a^i e_1 over the coefficients c of f:
    integer coordinates read off the Krylov vectors a^i e_1.  The column is
    nonzero because the entries of an eigenvector are linearly independent
    over Q; it is then scaled so its first nonzero entry is 1.
    """
    f = charpoly(a)
    if not is_irreducible(f):
        raise PreconditionError("characteristic polynomial is reducible")
    field = NumberField(f)
    n = a.rows
    c = f.coeffs
    krylov = [[1] + [0] * (n - 1)]
    for _ in range(n - 1):
        krylov.append(list(a.mul_vec(krylov[-1])))
    u = [
        field.element(
            [sum(c[i + k + 1] * krylov[i][r] for i in range(n - k)) for k in range(n)]
        )
        for r in range(n)
    ]
    # an all-zero u passes through unscaled and EigenData rejects it
    first = next((x for x in u if not x.is_zero), field.one())
    inv = first.inverse()
    data = EigenData(field=field, u=tuple(x * inv for x in u))
    _check_eigen(a, data)
    return data


def _check_eigen(a: IntMatrix, data: EigenData) -> None:
    if not _acts_as_beta(a, primitive_rows(data), data.field):
        raise AssertionError("eigenvector equation fails")


def _acts_as_beta(a: IntMatrix, rows: list[list[int]], field: NumberField) -> bool:
    """True iff a V = V C, with V the integer coordinate rows and C the
    companion matrix: row i of a V holds the coordinates of
    sum_j a_ij u_j and row i of V C those of beta u_i, over one common
    positive denominator."""
    v = IntMatrix(rows)
    return a.shape == v.shape and a @ v == v @ field.modulus.companion()


def primitive_rows(data: EigenData) -> list[list[int]]:
    """Clear denominators and divide by the overall content: integer
    coordinate rows, one per eigenvector entry."""
    den = 1
    for x in data.u:
        den = lcm(den, x.den)
    rows = []
    for x in data.u:
        coords, d = x.coords()
        scale = den // d
        rows.append([scale * c for c in coords])
    g = 0
    for row in rows:
        for v in row:
            g = gcd(g, v)
    if g > 1:
        rows = [[v // g for v in row] for row in rows]
    return rows


def ideal_of_matrix(a: IntMatrix) -> IdealLattice:
    """The lattice spanned by the coordinates of the normalized eigenvector."""
    data = eigenvector(a)
    rows = primitive_rows(data)
    return IdealLattice(data.field, rows, 1)  # raises if the rank dropped


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
    return _acts_as_beta(a, rows, data.field)


def theta_membership(theta: FieldElement, a: IntMatrix) -> bool:
    """True iff theta(a) is an integer matrix; equivalently, theta lies in
    the coefficient ring of the ideal attached to a.  Both sides are computed
    and compared, so a disagreement (a bug) cannot pass silently."""
    if charpoly(a) != theta.field.modulus:
        raise PreconditionError("matrix does not match the element's field")
    value = theta.num.eval_matrix(a)
    direct = all(x % theta.den == 0 for row in value.entries for x in row)
    ring = coeff_ring(ideal_of_matrix(a))
    if direct != ring.lattice.contains(theta):
        raise AssertionError("matrix test and coefficient-ring test disagree")
    return direct
