"""The intertwining operator X -> A X - X B as an n^2 x n^2 integer matrix,
its prime-power profile, and exact kernel lifting from modular approximations.

Each operator builds one Smith normal form, on first use, and every reader
shares it: mu, the kernel modulo p^k, exact lifting and the integer kernel
basis behind the pair certificate.  Independent re-verification (`verify`)
builds a fresh operator instead.

Vectorization is column-major throughout the package; certificates and kernel
vectors all share this one convention.
"""

from __future__ import annotations

from functools import cached_property

from .intmat import (
    IntMatrix,
    PrimePartProfile,
    SNFDecomposition,
    Vector,
    p_part,
    snf,
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
    x_approx = tuple(int(v) for v in x_approx)
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
