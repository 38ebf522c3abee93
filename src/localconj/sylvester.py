"""The intertwining operator X -> A X - X B as an n^2 x n^2 integer matrix,
the lattice of exact intertwiners at n-size cost, and exact kernel lifting
from modular approximations.

The decision path reads two things here: the intertwiner basis (one Hermite
form of n^2 + n rows of width n, through a cyclic vector of B) and the
operator matrix itself, whose local Smith form gives mu.  Neither builds the
operator's integer Smith form.  That form is built on first use by the
generic operator API (mu, the kernel modulo p^k, exact lifting), which does
not assume a shared characteristic polynomial, and is shared by its readers.

Vectorization is column-major throughout the package; certificates and kernel
vectors all share this one convention.
"""

from __future__ import annotations

from functools import cached_property
from operator import index

from .intmat import (
    IntMatrix,
    PrimePartProfile,
    SNFDecomposition,
    Vector,
    _dual_rows,
    _krylov,
    p_part,
    snf,
    solve,
)
from .primes import PreconditionError, is_prime


def vec(m: IntMatrix) -> Vector:
    """Column-major vectorization."""
    return tuple(m[i, j] for j in range(m.cols) for i in range(m.rows))


def unvec(v, n: int) -> IntMatrix:
    v = tuple(v)
    if len(v) != n * n:
        raise ValueError("vector length is not n^2")
    return IntMatrix([[v[j * n + i] for j in range(n)] for i in range(n)])


class SylvesterOperator:
    """Matrix of X -> a X - X b on column-major coordinates:
    l = (I kron a) - (b^T kron I)."""

    def __init__(self, a: IntMatrix, b: IntMatrix) -> None:
        if not (a.is_square and b.is_square) or a.rows != b.rows:
            raise ValueError("operands must be square matrices of equal size")
        self.a = a
        self.b = b
        self.n = a.rows
        eye = IntMatrix.identity(self.n)
        self.l = eye.kron(a) - b.transpose().kron(eye)

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
        size = abs(d)
        rows = [[mj[i, l] % size for mj in m] for i in range(n) for l in range(n)]
        rows += [[size * x for x in unit.row(i)] for i in range(n)]
        dual, det_h = _dual_rows(rows, n)
        basis = []
        for row in dual:
            # size * e_i lies in the span, so size * dual is integral
            if any(size * c % det_h for c in row):
                raise AssertionError("intertwiner coordinates are not integral")
            total = _krylov(a, [size * c // det_h for c in row]) @ adj_kb
            if any(v % d for r in total.entries for v in r):
                raise AssertionError("intertwiner is not integral")
            mat = IntMatrix._of([[v // d for v in r] for r in total.entries])
            if a @ mat != mat @ b:
                raise PreconditionError(
                    "the operands do not share one characteristic polynomial"
                )
            basis.append(mat)
        return basis

    @cached_property
    def decomposition(self) -> SNFDecomposition:
        return snf(self.l)

    def mu(self, p: int) -> int:
        return self.p_profile(p).mu

    def p_profile(self, p: int) -> PrimePartProfile:
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        return p_part(self.decomposition, p)

    def solution_generators_mod(self, modulus: int) -> list[Vector]:
        return self.decomposition.kernel_mod(modulus)


def lift_kernel(
    op: SylvesterOperator, x_approx, p: int, lam: int
) -> Vector:
    """Turn a kernel vector mod p^(mu+lam) into an exact one.

    Given l @ x' = 0 mod p^(mu+lam), returns x with l @ x = 0 exactly and
    x = x' mod p^lam.  Construction: with l = s d t, put y = t @ x', choose w
    with w_j = 0 on the nonzero-invariant-factor coordinates and
    w_i = y_i mod p^lam on the rest, and return t^(-1) @ w: then d w = 0, and
    w = y mod p^lam because y_j = 0 mod p^lam wherever d_j != 0.  Free
    coordinates take the minimal nonnegative residue, so the output is
    deterministic.
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
    dec = op.decomposition
    r = dec.rank()
    y = dec.t.mul_vec(x_approx)
    plam = p**lam
    w = [0] * m.cols
    for i in range(m.cols):
        if i < r:
            if y[i] % plam:
                raise AssertionError("constrained coordinate fails the congruence")
        else:
            w[i] = y[i] % plam
    x = dec.t_inv.mul_vec(w)
    # exact postconditions, rechecked on every call
    if any(c != 0 for c in m.mul_vec(x)):
        raise AssertionError("lifted vector is not in the exact kernel")
    if any((a - b) % plam for a, b in zip(x, x_approx)):
        raise AssertionError("lifted vector breaks the congruence constraint")
    return x
