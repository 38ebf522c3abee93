"""Seeded input corpus for the localconj benchmark.

Standard library only and independent of ``localconj.gen``, so a change to
the program's own generator cannot change what the benchmark measures.

Every pair shares one monic irreducible characteristic polynomial and is
tagged with its ground truth:

* ``conjugate`` - b is a unimodular conjugate of a, so the pair is similar
  over Z and therefore over every Z_p, and the ideals are equivalent;
* ``not_conjugate_at:p`` - one side is congruent to a scalar modulo p and the
  other is not.  Being scalar mod p survives conjugation over Z_p, so the pair
  is not similar over Z_p.  The scalar side is lambda*I + p*C(g), whose ideal
  has the strictly larger coefficient ring Z[gamma] (beta = lambda + p*gamma),
  so the ideals are not weakly equivalent either;
* ``undetermined`` - b is a conjugate of a by a matrix of determinant p^k
  (an a-stable sublattice of index p^k).  Nothing is known by construction;
  the benchmark judges these by the agreement of the two decision paths.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

Matrix = list[list[int]]
Poly = tuple[int, ...]  # ascending coefficients, monic


@dataclass(frozen=True)
class Pair:
    """One input pair, the command that runs on it and its ground truth."""

    stratum: str
    command: str
    a: Matrix
    b: Matrix
    truth: str
    prime: int | None = None  # for conj-p

    def canonical(self) -> dict:
        return {
            "stratum": self.stratum,
            "command": self.command,
            "a": self.a,
            "b": self.b,
            "truth": self.truth,
            "prime": self.prime,
        }


# ---------------------------------------------------------------------------
# polynomials and matrices


def companion(f: Poly) -> Matrix:
    """Last-row companion matrix of a monic polynomial."""
    n = len(f) - 1
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([-c for c in f[:n]])
    return rows


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def charpoly(a: Matrix) -> Poly:
    """Faddeev-LeVerrier, ascending and monic; every division is exact."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        m = matmul(a, m)
        for i in range(n):
            m[i][i] += c
        am = matmul(a, m)
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise AssertionError("inexact Faddeev-LeVerrier step")
        c = -tr // k
        coeffs[n - k] = c
    return tuple(coeffs)


def shifted_poly(g: Poly, lam: int, p: int) -> Poly:
    """Characteristic polynomial of lam*I + p*C(g): p^n g((t - lam)/p)."""
    n = len(g) - 1
    out = [0] * (n + 1)
    for k, gk in enumerate(g):
        # gk * p^(n-k) * (t - lam)^k
        scale = gk * p ** (n - k)
        binom = 1
        for i in range(k + 1):
            out[i] += scale * binom * (-lam) ** (k - i)
            binom = binom * (k - i) // (i + 1)
    return tuple(out)


def det_mod(m: Matrix, p: int) -> int:
    """Determinant modulo a prime by elimination over F_p."""
    n = len(m)
    rows = [[x % p for x in row] for row in m]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


def max_bits(m: Matrix) -> int:
    return max(abs(x).bit_length() for row in m for x in row)


def _similarity_step(b: Matrix, rng: random.Random) -> None:
    """b <- e @ b @ e^-1 in place, for a random elementary integer matrix e."""
    n = len(b)
    i, j = rng.sample(range(n), 2)
    kind = rng.randrange(4)
    if kind < 2:  # row_i += c * row_j, then col_j -= c * col_i
        c = rng.choice((-2, -1, 1, 2))
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        for row in b:
            row[j] -= c * row[i]
    elif kind == 2:
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]
    else:
        b[i] = [-x for x in b[i]]
        for row in b:
            row[i] = -row[i]


def conjugate_unimodular(a: Matrix, rng: random.Random, lo: int, hi: int) -> Matrix:
    """A random unimodular conjugate of a whose largest entry has between lo
    and hi bits (at least 2n elementary steps, then more until lo is met)."""
    n = len(a)
    for _ in range(1000):
        b = [list(row) for row in a]
        steps = 0
        while steps < 2 * n or max_bits(b) < lo:
            _similarity_step(b, rng)
            steps += 1
            if max_bits(b) > hi:
                break
        if lo <= max_bits(b) <= hi:
            return b
    raise RuntimeError(f"no conjugate with {lo}..{hi}-bit entries")


def _roots_mod(f: Poly, p: int) -> list[int]:
    return [r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0]


def _left_null_vector_mod(m: Matrix, p: int, rng: random.Random) -> list[int] | None:
    """A random nonzero row vector phi with phi @ m = 0 mod p."""
    n = len(m)
    # solve m^T x = 0 mod p by elimination
    rows = [[m[j][i] % p for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    while True:
        x = [0] * n
        for c in free:
            x[c] = rng.randrange(p)
        if not any(x):
            continue
        for row_idx, c in enumerate(pivots):
            x[c] = -sum(rows[row_idx][k] * x[k] for k in free) % p
        return x


def sublattice_conjugate(a: Matrix, f: Poly, p: int, rng: random.Random) -> Matrix | None:
    """m^-1 @ a @ m where m spans the a-stable sublattice {x : phi . x = 0 mod p}
    for a left eigenvector phi of a mod p, so det m = p.  None when f has no
    root mod p."""
    roots = _roots_mod(f, p)
    if not roots:
        return None
    n = len(a)
    r = rng.choice(roots)
    shifted = [[a[i][j] - (r if i == j else 0) for j in range(n)] for i in range(n)]
    phi = _left_null_vector_mod(shifted, p, rng)
    if phi is None:
        return None
    j = max(i for i in range(n) if phi[i])
    inv = pow(phi[j], -1, p)
    s = [phi[i] * inv % p for i in range(n)]
    # columns e_i - s_i e_j (i != j) and p e_j
    m = identity(n)
    for i in range(n):
        if i != j:
            m[j][i] = -s[i]
    m[j][j] = p
    c = matmul(a, m)
    b = [list(row) for row in c]
    acc = list(c[j])
    for i in range(n):
        if i != j and s[i]:
            acc = [x + s[i] * y for x, y in zip(acc, c[i])]
    if any(x % p for x in acc):
        raise AssertionError("sublattice is not stable")
    b[j] = [x // p for x in acc]
    return b


# ---------------------------------------------------------------------------
# pair recipes


def unimodular_pair(f: Poly, rng: random.Random, bits: tuple[int, int]) -> tuple[Matrix, Matrix]:
    base = companion(f)
    a = conjugate_unimodular(base, rng, *bits)
    b = conjugate_unimodular(a, rng, *bits)
    return a, b


def shifted_pair(
    g: Poly, lam: int, p: int, rng: random.Random, bits: tuple[int, int], conjugate: bool
) -> tuple[Poly, Matrix, Matrix]:
    """lam*I + p*C(g) against a unimodular conjugate of itself (conjugate) or
    of its rational conjugate by diag(p, 1, ..., 1), which is integral, has a
    1 above the diagonal and so is not scalar mod p (not conjugate over Z_p)."""
    n = len(g) - 1
    cg = companion(g)
    scalar = [[p * cg[i][j] + (lam if i == j else 0) for j in range(n)] for i in range(n)]
    other = [list(row) for row in scalar]
    if not conjugate:
        other[0] = [x // p for x in other[0]]  # row 0 of p*C(g) is p*e_1
        for row in other:
            row[0] *= p
        other[0][0] = lam
    a = conjugate_unimodular(scalar, rng, *bits)
    b = conjugate_unimodular(other, rng, *bits)
    return shifted_poly(g, lam, p), a, b


def sublattice_pair(
    f: Poly, p: int, k: int, rng: random.Random, bits: tuple[int, int]
) -> tuple[Matrix, Matrix]:
    start = conjugate_unimodular(companion(f), rng, 1, 8)
    b = start
    for _ in range(k):
        nxt = sublattice_conjugate(b, f, p, rng)
        if nxt is None:
            raise ValueError(f"no root mod {p}")
        b = nxt
    return conjugate_unimodular(start, rng, *bits), conjugate_unimodular(b, rng, *bits)


def corpus_digest(pairs: list[Pair]) -> str:
    blob = json.dumps(
        [p.canonical() for p in pairs], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def radical_order_pair(
    n: int, p: int, m: int, c: int, rng: random.Random, bits: tuple[int, int]
) -> tuple[Poly, Matrix, Matrix]:
    """f = t^n - p^m c with a = C(f), ideal Z[beta], against b = multiplication
    by beta on the order spanned by beta^j / p^floor(jm/n), a ring strictly
    larger than Z[beta] when m >= 2.  Different multiplier rings: not weakly
    equivalent, and not conjugate over Z_p."""
    f = (-(p**m) * c,) + (0,) * (n - 1) + (1,)
    e = [j * m // n for j in range(n)]
    b = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        b[j + 1][j] = p ** (e[j + 1] - e[j])
    b[0][n - 1] = c * p ** (m - e[n - 1])
    return (
        f,
        conjugate_unimodular(companion(f), rng, *bits),
        conjugate_unimodular(b, rng, *bits),
    )
