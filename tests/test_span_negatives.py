"""Negatives at n >= 4 decided by a null vector that the whole mod-p
intertwiner span shares: the span test against the walk alone and against
the ideal side's c, the least positive integer in (I_A : I_B)(I_B : I_A),
whose prime factors are exactly the primes where a ~ b fails."""

from __future__ import annotations

import random
from functools import cache
from math import gcd

import pytest

from localconj import (
    IntMatrix,
    IntPoly,
    charpoly,
    conjugate_over_Zp,
    conjugate_over_all_Zp,
    factorize,
    generate_pair,
    ideal_of_matrix,
    mul,
    parse_poly,
    random_unimodular,
    screen_primes,
    weak_equivalence_data,
)
from localconj.gen import conjugate_exact

from conftest import scalar_shifted, span_test, walk_only


def ideal_side_c(a: IntMatrix, b: IntMatrix) -> int:
    _, x, y = weak_equivalence_data(ideal_of_matrix(a), ideal_of_matrix(b))
    return mul(x, y).smallest_positive_integer()


def check_pair(monkeypatch, a: IntMatrix, b: IntMatrix, primes) -> int:
    """At each prime the decision equals the walk alone and a firing span
    test is a negative; the failing primes of conj-all are those of c."""
    for p in primes:
        fired = span_test(a, b, p)
        walk = walk_only(monkeypatch, conjugate_over_Zp, a, b, p)
        assert conjugate_over_Zp(a, b, p) == walk, p
        assert not (fired and walk.conjugate), p
    c = ideal_side_c(a, b)
    verdict = conjugate_over_all_Zp(a, b)
    assert {v.prime for v in verdict.per_prime if not v.conjugate} == set(factorize(c))
    assert verdict.conjugate == (c == 1)
    return c


def f6_residual(n: int, p: int) -> tuple[IntMatrix, IntMatrix]:
    """I + p^2 C(t^n - t - 1) against its conjugate by diag(p, 1, ..., 1):
    both are the identity mod p, so every mod-p rank agrees."""
    a = scalar_shifted(1, p, 2, f"t^{n}-t-1")
    b = conjugate_exact(a, IntMatrix.diagonal([p] + [1] * (n - 1)))
    assert b is not None and b.mod(p) == a.mod(p) == IntMatrix.identity(n)
    return a, b


class TestF6Residual:
    REPROS = [(n, p) for n in range(3, 9) for p in (3, 11)]

    @pytest.mark.parametrize("n,p", REPROS)
    def test_decided_without_a_walk(self, det_mod_calls, n, p):
        a, b = f6_residual(n, p)
        assert not conjugate_over_Zp(a, b, p).conjugate
        verdict = conjugate_over_all_Zp(a, b)
        assert [(v.prime, v.conjugate) for v in verdict.per_prime] == [(p, False)]
        assert det_mod_calls == []

    @pytest.mark.parametrize("n,p", REPROS)
    def test_agrees_with_walk_and_ideal_side(self, monkeypatch, n, p):
        a, b = f6_residual(n, p)
        # the walk alone visits (s^n - 1)/(s - 1) points, s = min(p, n):
        # it runs here where that stays below 10^4
        primes = [p] if min(p, n) ** n <= 10**4 else []
        assert span_test(a, b, p)
        assert check_pair(monkeypatch, a, b, primes) == p


@cache
def generated(field: str, strategy: str, seed: int):
    pair = generate_pair(parse_poly(field), strategy, seed)
    return pair.a, pair.b


class TestGeneratedPairs:
    PAIRS = [
        (field, strategy, seed)
        for field in ("t^4-8", "t^5-4", "t^6-2")
        for strategy in ("singular:2", "random")
        for seed in (0, 1)
    ]

    @pytest.mark.parametrize("field,strategy,seed", PAIRS)
    def test_agrees_with_walk_and_ideal_side(self, monkeypatch, field, strategy, seed):
        a, b = generated(field, strategy, seed)
        primes = sorted({2, 3, 5, 7, *screen_primes(charpoly(a))})
        check_pair(monkeypatch, a, b, primes)

    def test_negatives_are_exercised(self):
        fired = 0
        for field, strategy, seed in self.PAIRS:
            fired += span_test(*generated(field, strategy, seed), 2)
        assert fired >= 3


def radical_order_pair(n: int, p: int, m: int, c: int, seed: int):
    """C(t^n - p^m c) against multiplication by beta on the order spanned by
    beta^j / p^floor(jm/n), which is larger than Z[beta] for m >= 2, each
    conjugated by a seeded unimodular matrix.  Different multiplier rings:
    not conjugate over Z_p."""
    e = [j * m // n for j in range(n)]
    rows = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        rows[j + 1][j] = p ** (e[j + 1] - e[j])
    rows[0][n - 1] = c * p ** (m - e[n - 1])
    rng = random.Random(seed)
    a = IntPoly([-(p**m) * c] + [0] * (n - 1) + [1]).companion()
    pair = []
    for x in (a, IntMatrix(rows)):
        y = conjugate_exact(x, random_unimodular(n, rng))
        assert y is not None
        pair.append(y)
    return pair


class TestRadicalOrders:
    # gcd(m, n) = 1 makes t^n - p^m c irreducible (one Newton slope m/n at p)
    CASES = sorted(
        (n, p, m)
        for n in range(4, 9)
        for p in (2, 3)
        for m in {2, 3, n - 1}
        if m < n and gcd(m, n) == 1
    )

    @pytest.mark.parametrize("n,p,m", CASES)
    def test_span_test_fires(self, monkeypatch, n, p, m):
        a, b = radical_order_pair(n, p, m, 5, n + m)
        assert span_test(a, b, p)
        assert set(factorize(check_pair(monkeypatch, a, b, [p]))) == {p}
