"""Eigenvector extraction, the attached ideal, and the multiplication
representation round trip."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest

from localconj import (
    IdealLattice,
    IntMatrix,
    charpoly,
    conjugate_over_all_Zp,
    eigenvector,
    factorize,
    generate_pair,
    ideal_of_matrix,
    is_irreducible,
    mul,
    parse_poly,
    verify_arith_equiv,
    verify_multiplication_rep,
    weak_equivalence_data,
    weakly_equivalent,
)
from localconj.bridge import EigenData, _check_eigen
from localconj.gen import conjugate_exact
from localconj import random_unimodular

from conftest import CLASSIC_B, PRIME_BY_PRIME_PAIRS, wide_pair
from oracles import field_elimination_eigenvector, solve_exact


FIELDS = ("t^2-t-1", "t^2+3", "t^3-t-1", "t^3-4t-1")


def _generated(f_text, strategies):
    f = parse_poly(f_text)
    for strategy in strategies:
        for seed in (0, 1):
            pair = generate_pair(f, strategy, seed)
            yield from (pair.a, pair.b)


def _wide(n, seeds):
    # 32-bit entries; a matrix with a reducible polynomial has no eigenvector
    for seed in seeds:
        for m in wide_pair(n, seed):
            if is_irreducible(charpoly(m)):
                yield m


# singular and random pairs take over a second to generate at n >= 6
# (n = 8 for random), so the larger fields use the cheaper strategies
ELIMINATION_INPUTS = [
    pytest.param(partial(_generated, f_text, strategies),
                 id=f"{f_text}-{'+'.join(strategies)}")
    for f_text, strategies in (
        ("t^2+3", ("unimodular", "singular:2")),
        ("t^3-t^2-2t-8", ("unimodular", "singular:2")),
        ("t^4-10t^2+1", ("unimodular", "singular:2")),
        ("t^5-2", ("unimodular", "singular:2")),
        ("t^6-2", ("unimodular", "random")),
        ("t^7-3", ("unimodular", "random")),
        ("t^8-3", ("unimodular",)),
    )
] + [
    pytest.param(partial(_wide, n, seeds), id=f"wide-{n}x{n}-32bit")
    # seed 1 at n = 5 is irreducible modulo none of its first ten usable primes
    for n, seeds in ((3, (0,)), (4, (0,)), (5, (0, 1)))
]


class TestEigenvector:
    def test_companion_power_basis(self):
        for text in FIELDS:
            f = parse_poly(text)
            data = eigenvector(f.companion())
            k = data.field
            expected = [k.beta() ** i for i in range(f.degree)]
            assert list(data.u) == expected

    def test_conjugated_companion(self):
        rng = random.Random(6)
        f = parse_poly("t^3-t-1")
        c = f.companion()
        p = random_unimodular(3, rng)
        a = conjugate_exact(c, p)
        data = eigenvector(a)
        # substitution is asserted inside eigenvector(); spot-check anyway
        beta = data.field.beta()
        for i in range(3):
            acc = data.field.zero()
            for j in range(3):
                acc = acc + data.u[j] * a[i, j]
            assert acc == beta * data.u[i]

    @pytest.mark.parametrize("inputs", ELIMINATION_INPUTS)
    def test_matches_field_elimination(self, inputs):
        for m in inputs():
            assert eigenvector(m) == field_elimination_eigenvector(m)

    @pytest.mark.parametrize("f_text", ["t^3-t-1", "t^4-10t^2+1", "t^5-2"])
    def test_perturbed_eigenvector_rejected(self, f_text):
        a = generate_pair(parse_poly(f_text), "unimodular", 0).a
        data = eigenvector(a)
        field = data.field
        _check_eigen(a, data)
        # u_0 = 1 is the normalized entry; every other entry is perturbed
        # once, by an integer and by a fraction, and scaled once
        for k in range(1, a.rows):
            for tamper in (
                data.u[k] + field.one(),
                data.u[k] + field.element([0, 1], 7),
                data.u[k] * 2,
            ):
                u = list(data.u)
                u[k] = tamper
                with pytest.raises(AssertionError, match="eigenvector equation fails"):
                    _check_eigen(a, EigenData(field=field, u=tuple(u)))

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            eigenvector(IntMatrix.identity(2))

    def test_one_by_one_rejected(self):
        with pytest.raises(ValueError):
            eigenvector(IntMatrix([[2]]))


class TestIdealOfMatrix:
    def test_companion_gives_power_basis_ring(self):
        for text in FIELDS:
            f = parse_poly(text)
            ideal = ideal_of_matrix(f.companion())
            assert ideal == IdealLattice.zbeta(ideal.field)

    def test_classic_lattice(self):
        ideal = ideal_of_matrix(CLASSIC_B)
        assert ideal.den == 1
        assert ideal.basis == IntMatrix([[1, 1], [0, 2]])

    def test_unimodular_conjugate_same_class(self):
        rng = random.Random(9)
        for text in ("t^2+3", "t^3-t-1"):
            f = parse_poly(text)
            n = f.degree
            c = f.companion()
            p = random_unimodular(n, rng)
            b = conjugate_exact(c, p)
            ia, ib = ideal_of_matrix(c), ideal_of_matrix(b)
            alpha = _scaling_from_conjugator(c, p, b)
            assert verify_arith_equiv(ia, ib, alpha)
            assert weakly_equivalent(ia, ib)


def _scaling_from_conjugator(a, p_mat, b):
    """The exact alpha with alpha * I_a = I_b for b = p^(-1) a p with p
    unimodular: transport the eigenvector through p^(-1) and track the
    normalization and clearing scalars on both sides."""
    data = eigenvector(a)
    k = data.field
    n = p_mat.rows
    inv = solve_exact(p_mat, IntMatrix.identity(n))
    p_inv = [[int(x) for x in row] for row in inv]
    w = []
    for i in range(n):
        acc = k.zero()
        for j in range(n):
            acc = acc + data.u[j] * p_inv[i][j]
        w.append(acc)
    w_first = next(x for x in w if not x.is_zero)
    inv_first = w_first.inverse()
    wn = [x * inv_first for x in w]

    def clearing_scalar(elems) -> Fraction:
        l = 1
        for x in elems:
            l = lcm(l, x.den)
        g = 0
        for x in elems:
            coords, d = x.coords()
            for cx in coords:
                g = gcd(g, l // d * cx)
        return Fraction(l, g)

    ratio = clearing_scalar(wn) / clearing_scalar(list(data.u))
    alpha = inv_first * k.element([ratio.numerator], ratio.denominator)
    return alpha


class TestMultiplicationRep:
    def test_companion(self):
        f = parse_poly("t^3-4t-1")
        c = f.companion()
        assert verify_multiplication_rep(c, ideal_of_matrix(c), eigenvector(c))

    def test_classic(self):
        assert verify_multiplication_rep(
            CLASSIC_B, ideal_of_matrix(CLASSIC_B), eigenvector(CLASSIC_B)
        )

    def test_tampered_matrix_rejected(self):
        f = parse_poly("t^2+3")
        c = f.companion()
        ideal = ideal_of_matrix(c)
        data = eigenvector(c)
        tampered = c + IntMatrix([[0, 0], [2, 0]])
        assert not verify_multiplication_rep(tampered, ideal, data)

    def test_conjugated_pair_with_transported_basis(self):
        rng = random.Random(15)
        f = parse_poly("t^2-t-1")
        c = f.companion()
        p = random_unimodular(2, rng)
        b = conjugate_exact(c, p)
        assert verify_multiplication_rep(b, ideal_of_matrix(b), eigenvector(b))


class TestRoundTrip:
    def test_every_generated_matrix(self):
        from localconj import generate_pair

        for text in FIELDS:
            f = parse_poly(text)
            for strategy in ("unimodular", "singular:2"):
                pair = generate_pair(f, strategy, 0)
                for m in (pair.a, pair.b):
                    assert verify_multiplication_rep(
                        m, ideal_of_matrix(m), eigenvector(m)
                    )

    def test_scaled_eigenvector_same_weak_class(self):
        ideal = ideal_of_matrix(CLASSIC_B)
        k = ideal.field
        alpha = k.element([1, 2], 3)
        assert weakly_equivalent(ideal, ideal.scaled(alpha))

    def test_bridge_on_cubic_with_even_order_index(self):
        # x^3 - x^2 - 2x - 8: the power-basis ring has even index in the
        # maximal order, so singular conjugations at 2 genuinely split
        # similarity classes; both decision paths must keep agreeing
        f = parse_poly("t^3-t^2-2t-8")
        from localconj import conjugate_over_all_Zp, generate_pair

        outcomes = {True: 0, False: 0}
        for strategy in ("unimodular", "singular:2", "random"):
            for seed in range(3):
                pair = generate_pair(f, strategy, seed)
                verdict = conjugate_over_all_Zp(pair.a, pair.b).conjugate
                ideal_side = weakly_equivalent(
                    ideal_of_matrix(pair.a), ideal_of_matrix(pair.b)
                )
                assert verdict == ideal_side
                outcomes[verdict] += 1
        assert outcomes[False] > 0  # the hard direction is exercised


class TestPrimeByPrimeAgreement:
    """At n = 4, 5 the primes where the matrix side fails are exactly the
    prime factors of c, where (I_A : I_B)(I_B : I_A) meets Z in cZ."""

    @pytest.mark.parametrize("f_text,strategy", PRIME_BY_PRIME_PAIRS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_failing_primes_divide_colon_product(self, f_text, strategy, seed):
        pair = generate_pair(parse_poly(f_text), strategy, seed)
        ok, x, y = weak_equivalence_data(ideal_of_matrix(pair.a), ideal_of_matrix(pair.b))
        c = mul(x, y).smallest_positive_integer()
        verdict = conjugate_over_all_Zp(pair.a, pair.b)
        failing = {v.prime for v in verdict.per_prime if not v.conjugate}
        assert failing == set(factorize(c))
        assert ok == (c == 1) == verdict.conjugate
