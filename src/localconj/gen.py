"""Deterministic generation of same-characteristic-polynomial matrix pairs.

Strategies:
  unimodular  - conjugate by random determinant +-1 matrices; the pair is
                similar over Z, hence p-adically everywhere, and the
                conjugator is reported.
  singular:p  - conjugate the base matrix by an integer matrix whose
                determinant is a power of p (integrality of the conjugate is
                searched for); ground truth is NOT implied and must come from
                a decision procedure.
  random      - conjugate by a random integer matrix of small nonzero
                determinant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .intmat import IntMatrix, solve
from .polyfield import IntPoly, is_irreducible
from .primes import PreconditionError

STRATEGIES = ("unimodular", "singular", "random")


@dataclass(frozen=True)
class GeneratedPair:
    a: IntMatrix
    b: IntMatrix
    conjugator: IntMatrix  # b = conjugator^(-1) @ a @ conjugator
    conjugator_det: int
    strategy: str
    seed: int


def random_unimodular(n: int, rng: random.Random, ops: int | None = None) -> IntMatrix:
    m = IntMatrix.identity(n).to_lists()
    if ops is None:
        ops = 3 * n
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                m[i][col] += c * m[j][col]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


def conjugate_exact(a: IntMatrix, m: IntMatrix) -> IntMatrix | None:
    """m^(-1) @ a @ m when it is an integer matrix, else None."""
    d, x = solve(m, a @ m)
    if x is None or any(v % d for row in x.entries for v in row):
        return None
    return IntMatrix([[v // d for v in row] for row in x.entries])


def generate_pair(f: IntPoly, strategy: str, seed: int) -> GeneratedPair:
    if not f.is_monic or not is_irreducible(f):
        raise PreconditionError("the field polynomial must be monic and irreducible")
    n = f.degree
    rng = random.Random((seed, strategy, f.coeffs).__repr__())
    base = f.companion()
    p0 = random_unimodular(n, rng)
    a = conjugate_exact(base, p0)
    assert a is not None  # unimodular conjugation stays integral

    name, _, param = strategy.partition(":")
    if name not in STRATEGIES:
        raise PreconditionError(f"unknown strategy {strategy!r}")

    if name == "unimodular":
        m = random_unimodular(n, rng)
        b = conjugate_exact(a, m)
        assert b is not None
        return GeneratedPair(a, b, m, m.det(), strategy, seed)

    if name == "singular":
        try:
            p = int(param) if param else 2
        except ValueError:
            raise PreconditionError(f"unknown strategy {strategy!r}") from None
        if abs(p) < 2:
            # no conjugator of determinant 0 exists, and +-1 is unimodular
            raise PreconditionError(f"singular:{p} needs |p| >= 2")
        targets = {p, p * p}
        for _ in range(20000):
            m = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            if abs(m.det()) not in targets:
                continue
            b = conjugate_exact(a, m)
            if b is not None:
                return GeneratedPair(a, b, m, m.det(), strategy, seed)
        # no integral singular conjugate found; p * unimodular always works
        u = random_unimodular(n, rng)
        m = p * u
        b = conjugate_exact(a, m)
        assert b is not None
        return GeneratedPair(a, b, m, m.det(), strategy, seed)

    # random strategy
    for _ in range(20000):
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        d = m.det()
        if d == 0 or abs(d) > 60:
            continue
        b = conjugate_exact(a, m)
        if b is not None:
            return GeneratedPair(a, b, m, d, strategy, seed)
    m = random_unimodular(n, rng)
    b = conjugate_exact(a, m)
    assert b is not None
    return GeneratedPair(a, b, m, m.det(), strategy, seed)
