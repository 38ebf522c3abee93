"""Polynomials, characteristic polynomials, discriminants, irreducibility,
and field arithmetic."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from localconj import (
    IntMatrix,
    IntPoly,
    NumberField,
    charpoly,
    discriminant,
    is_irreducible,
    parse_poly,
    random_unimodular,
    resultant,
)
from localconj.cli import conj_all_report, weak_equiv_report
from localconj.gen import conjugate_exact, generate_pair
from localconj.intmat import solve
from localconj.polyfield import (
    _degree_pattern,
    _irreducible_monic,
    squarefree_mod_p,
)
from localconj.primes import PreconditionError, next_prime

from conftest import M, P, wide_pair
from oracles import (
    brute_degree_pattern,
    degree_pattern_from_scratch,
    euclid_inverse,
    has_monic_factor_bruteforce,
    lagrange_interpolate,
    rational_poly_gcd_is_constant,
)


class TestCharpoly:
    def test_companion_roundtrip(self):
        for text in ("t^2-t-1", "t^3-4t-1", "t^4+2t+7"):
            f = P(text)
            assert charpoly(f.companion()) == f

    def test_identity(self):
        assert charpoly(IntMatrix.identity(2)) == P("t^2-2t+1")

    def test_fibonacci_matrix(self):
        assert charpoly(M([1, 1], [1, 0])) == P("t^2-t-1")

    def test_non_square(self):
        with pytest.raises(ValueError):
            charpoly(IntMatrix.zeros(2, 3))

    def test_unimodular_conjugation_invariance(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            p = random_unimodular(n, rng)
            b = conjugate_exact(a, p)
            assert b is not None
            assert charpoly(a) == charpoly(b)


class TestDiscriminant:
    def test_golden(self):
        assert discriminant(P("t^2-t-1")) == 5

    def test_gaussian(self):
        assert discriminant(P("t^2+1")) == -4

    def test_cubic(self):
        # -4p^3 - 27q^2 for t^3 + pt + q
        assert discriminant(P("t^3-t-1")) == -23

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            discriminant(IntPoly([5]))

    def test_resultant_sylvester(self):
        f = P("t^3-t-1")
        assert resultant(f, f.derivative()) == 23

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_nonzero_iff_squarefree(self, tail):
        f = IntPoly(tail + [1])
        if f.degree < 1:
            return
        assert (discriminant(f) != 0) == rational_poly_gcd_is_constant(
            f, f.derivative()
        )


class TestIrreducibility:
    def test_golden_true(self):
        assert is_irreducible(P("t^2-t-1"))

    def test_constructed_reducible(self):
        assert not is_irreducible(P("t^2-3t+2"))

    def test_t4_plus_1(self):
        # reducible modulo every prime: exercises the factor-search fallback
        assert is_irreducible(P("t^4+1"))

    def test_biquadratic_product(self):
        f = P("t^2+1") * P("t^2+3")
        assert not is_irreducible(f)

    def test_float_coefficient_rejected(self):
        # refused, never truncated to t + 1
        with pytest.raises(ValueError):
            IntPoly([1.7, 1])

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(IntPoly([1, 1, 2]))

    def test_agrees_with_bruteforce_on_grid(self):
        rng = random.Random(7)
        seen = 0
        while seen < 120:
            deg = rng.choice((2, 3, 4))
            coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [1]
            f = IntPoly(coeffs)
            if f.degree != deg:
                continue
            seen += 1
            assert is_irreducible(f) == (not has_monic_factor_bruteforce(f))


def subset_sums(pattern: list[int]) -> set[int]:
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return sums


class TestModPAcceptFirst:
    """The factor-degree patterns modulo ten primes run before the
    rational-root screen, so a polynomial they certify is never factored,
    however wide f(0) is."""

    @pytest.mark.parametrize("f", [
        IntPoly([2**61 - 1, 0, 1]),
        charpoly(wide_pair(4, 0)[0]),
        charpoly(wide_pair(5, 1)[0]),
    ], ids=["t^2+2^61-1", "wide-4x4", "wide-5x5-seed1"])
    def test_certified_polynomial_lists_no_divisors(self, divisor_calls, f):
        disc = discriminant(f)
        tried, p = [], 2
        while len(tried) < 10:
            if disc % p:
                tried.append(p)
            p = next_prime(p)
        # no degree 1..n/2 is a subset sum of every pattern
        common = set.intersection(*(subset_sums(_degree_pattern(f, q)) for q in tried))
        assert not common & set(range(1, f.degree // 2 + 1))
        _irreducible_monic.cache_clear()
        assert is_irreducible(f)
        assert divisor_calls == []

    def test_wide_quintic_is_certified_by_two_patterns(self):
        # irreducible modulo none of its first ten usable primes
        f = charpoly(wide_pair(5, 1)[0])
        assert (_degree_pattern(f, 3), _degree_pattern(f, 5)) == ([1, 4], [2, 3])

    def test_pattern_matches_trial_division(self):
        rng = random.Random(11)
        seen = 0
        while seen < 150:
            f = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 6))] + [1])
            p = rng.choice((2, 3, 5, 7))
            if not squarefree_mod_p(f, p):
                continue
            seen += 1
            assert sorted(_degree_pattern(f, p)) == brute_degree_pattern(f, p)

    def test_iterated_powers_give_the_same_patterns(self):
        # t^(p^d) as the p-th power of t^(p^(d-1)) against t^(p^d) from
        # scratch for each d, on monic polynomials of degree 2 to 8
        rng = random.Random(23)
        seen = 0
        while seen < 200:
            f = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(2, 8))] + [1])
            p = rng.choice((2, 3, 5, 7, 11, 13))
            if not squarefree_mod_p(f, p):
                continue
            seen += 1
            assert _degree_pattern(f, p) == degree_pattern_from_scratch(f, p), (f, p)

    def test_rejected_polynomial_still_screens_roots(self, divisor_calls):
        # (t - 3)(t^2 + 5) keeps the factor t - 3 modulo every prime, so
        # the mod-p test never accepts it and the root screen decides it,
        # from the roots mod p and not from the divisors of f(0)
        _irreducible_monic.cache_clear()
        assert not is_irreducible(P("t^3-3t^2+5t-15"))
        assert divisor_calls == []


def ten_patterns(f: IntPoly) -> list[list[int]]:
    """The factor-degree patterns of f at the first ten primes not
    dividing disc f."""
    disc, tried, p = discriminant(f), [], 2
    while len(tried) < 10:
        if disc % p:
            tried.append(p)
        p = next_prime(p)
    return [_degree_pattern(f, q) for q in tried]


class TestHenselRootScreen:
    """When degree 1 survives every pattern, the roots mod p are lifted by
    Newton's iteration and tested exactly; the divisors of f(0) are never
    listed."""

    def test_wide_sextic_without_divisors(self, divisor_calls):
        # 32-bit entries: f(0) has 185 bits, every pattern holds a 1 and f
        # has no rational root
        rng = random.Random(6004)
        a = IntMatrix([[rng.randrange(-(2**32), 2**32) for _ in range(6)] for _ in range(6)])
        f = charpoly(a)
        assert all(1 in pattern for pattern in ten_patterns(f))
        seconds = []
        for _ in range(3):
            _irreducible_monic.cache_clear()
            start = time.perf_counter()
            assert is_irreducible(f)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.010
        assert divisor_calls == []

    def test_finds_the_roots_of_wide_products(self, divisor_calls):
        rng = random.Random(3)
        for root in (3, -7, 2**40 + 1, -(2**70)):
            cofactor = IntPoly([rng.randrange(-(2**32), 2**32) for _ in range(3)] + [1])
            _irreducible_monic.cache_clear()
            assert not is_irreducible(IntPoly([-root, 1]) * cofactor)
        # a root the lift missed would have sent f to Kronecker's search
        assert divisor_calls == []


class TestKronecker:
    # sqrt(2) + sqrt(3) + sqrt(5): irreducible over Q, but it factors modulo
    # every prime, so only the Kronecker search can accept it
    SWINNERTON_DYER = "t^8-40t^6+352t^4-960t^2+576"

    def test_swinnerton_dyer_octic_is_irreducible(self, solve_shapes):
        f = P(self.SWINNERTON_DYER)
        # factors of degree 2 only modulo 7 leave the even degrees 2 and 4
        assert _degree_pattern(f, 7) == [2, 2, 2, 2]
        _irreducible_monic.cache_clear()
        assert is_irreducible(f)
        # one Vandermonde solve per candidate degree 2, 4
        assert solve_shapes == [(3, 3), (5, 5)]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_vandermonde_interpolation_matches_lagrange(self, k):
        # the points of the Kronecker search: 0, 1, -1, 2, -2, ...
        points = [(i + 1) // 2 * (-1) ** (i + 1) for i in range(k + 1)]
        d, w = solve(IntMatrix([[x**j for j in range(k + 1)] for x in points]),
                     IntMatrix.identity(k + 1))
        rng = random.Random(k)
        for trial in range(40):
            g = IntPoly([rng.randint(-99, 99) for _ in range(k + 1)])
            ys = [g(x) + (rng.randint(-3, 3) if trial % 2 else 0) for x in points]
            num = w.mul_vec(ys)
            expected = lagrange_interpolate(points, ys)
            if any(c % d for c in num):
                assert expected is None
            else:
                assert IntPoly([c // d for c in num]) == expected
                assert trial % 2 or expected == g


class TestIrreducibilityMemo:
    """One command tests each polynomial once: the public `is_irreducible`
    is asked several times per decision, the test behind it runs once."""

    @pytest.mark.parametrize("field", ["t^5-2", "t^4-10t^2+1"])
    def test_one_real_test_per_command(self, field):
        pair = generate_pair(P(field), "unimodular", 1)
        for report, asks in [
            (lambda: conj_all_report(pair.a, pair.b, "a", "b", cross_check=True), 4),
            (lambda: weak_equiv_report(pair.a, pair.b, "a", "b"), 2),
        ]:
            _irreducible_monic.cache_clear()
            report()
            info = _irreducible_monic.cache_info()
            assert (info.misses, info.hits) == (1, asks - 1)

    def test_precondition_errors_bypass_the_memo(self):
        _irreducible_monic.cache_clear()
        for f in (IntPoly([1, 1, 2]), IntPoly([5]), IntPoly([])):
            with pytest.raises(ValueError):
                is_irreducible(f)
        assert _irreducible_monic.cache_info().currsize == 0


@pytest.fixture
def pipeline(monkeypatch):
    """The stages `_irreducible_monic` runs while the test runs, each with
    its argument: ("disc", f), ("pattern", p), ("root", p) and
    ("kronecker", k).  The memo starts empty."""
    from localconj import polyfield

    taken = []
    for name, label, pick in (
        ("discriminant", "disc", lambda f, *rest: f),
        ("_degree_pattern", "pattern", lambda f, p: p),
        ("_has_integer_root", "root", lambda f, p: p),
        ("_kronecker_has_factor", "kronecker", lambda f, k: k),
    ):
        def counting(*args, _real=getattr(polyfield, name), _label=label, _pick=pick):
            taken.append((_label, _pick(*args)))
            return _real(*args)

        monkeypatch.setattr(polyfield, name, counting)
    _irreducible_monic.cache_clear()
    yield taken
    _irreducible_monic.cache_clear()


def stages(taken) -> list[str]:
    return [label for label, _ in taken]


class TestIrreducibilityPipeline:
    """A prime is usable when gcd(f mod p, f' mod p) = 1; the discriminant
    is taken only when the first ten primes are all unusable, and the
    patterns stop once no factor degree k >= 2 is left."""

    @pytest.mark.parametrize("f", [P("t^2+3") * P("t^2+3"), P("t-1") * P("t-1") * P("t^2+3")],
                             ids=["(t^2+3)^2", "(t-1)^2(t^2+3)"])
    def test_repeated_factor_is_caught_by_the_discriminant(self, pipeline, f):
        assert not is_irreducible(f)
        assert pipeline == [("disc", f)]

    def test_primorial_quadratic_takes_the_discriminant_fallback(self, pipeline):
        # every prime up to 31 divides disc f = 4 * 2 * 3 * ... * 31, so the
        # first usable prime is 37
        primorial = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31
        f = IntPoly([-primorial, 0, 1])
        assert is_irreducible(f)
        assert pipeline == [("disc", f), ("root", 37)]

    @pytest.mark.parametrize("text,irreducible", [
        ("t^2-t-1", True), ("t^2+3", True), ("t^2-5t+6", False),
        ("t^3-t-1", True), ("t^3-4t-1", True), ("t^3-3t^2+5t-15", False),
        ("t^3-2", True),
    ])
    def test_quadratics_and_cubics_take_the_root_test_only(self, pipeline, text, irreducible):
        assert is_irreducible(P(text)) == irreducible
        assert stages(pipeline) == ["root"]

    def test_swinnerton_dyer_quartic_takes_the_kronecker_path(self, pipeline):
        # t^4-10t^2+1, the minimal polynomial of sqrt(2) + sqrt(3), factors
        # modulo every prime, so ten patterns leave k = 2 to Kronecker
        assert is_irreducible(P("t^4-10t^2+1"))
        assert stages(pipeline).count("pattern") == 10
        assert ("kronecker", 2) in pipeline
        assert "disc" not in stages(pipeline)

    def test_t7_minus_3_stops_after_two_patterns(self, pipeline):
        # patterns [1, 3, 3] mod 2 and [1, 6] mod 5 leave only k = 1 (3 is
        # unusable), which the root test settles
        assert is_irreducible(P("t^7-3"))
        assert pipeline == [("pattern", 2), ("pattern", 5), ("root", 5)]

    def test_squarefree_polynomials_take_no_discriminant(self, pipeline):
        rng = random.Random(27)
        for _ in range(200):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 8))] + [1])
            if f.coeff(0) and discriminant(f):
                is_irreducible(f)
        assert "disc" not in stages(pipeline)


class TestFieldArithmetic:
    def test_beta_inverse_golden(self):
        k = NumberField(P("t^2-t-1"))
        assert k.beta().inverse() == k.element([-1, 1])

    def test_beta_square_golden(self):
        k = NumberField(P("t^2-t-1"))
        assert k.beta() * k.beta() == k.element([1, 1])

    def test_additive_identity(self):
        k = NumberField(P("t^3-t-1"))
        x = k.element([2, -5, 1], 3)
        assert x + k.zero() == x

    def test_inverse_roundtrip_random(self):
        rng = random.Random(11)
        for text in ("t^2-t-1", "t^2+3", "t^3-t-1", "t^3-4t-1"):
            k = NumberField(P(text))
            n = k.degree
            count = 0
            while count < 100:
                num = [rng.randint(-9, 9) for _ in range(n)]
                den = rng.randint(1, 9)
                x = k.element(num, den)
                if x.is_zero:
                    continue
                count += 1
                assert x.inverse() * x == k.one()

    @pytest.mark.parametrize(
        "text", ["t^2-t-1", "t^3-4t-1", "t^4-10t^2+1", "t^5-2", "t^6-2", "t^7-3", "t^8-3"]
    )
    def test_inverse_matches_euclid(self, text):
        k = NumberField(P(text))
        rng = random.Random(text)
        count = 0
        while count < 12:
            x = k.element([rng.randint(-10**6, 10**6) for _ in range(k.degree)],
                          rng.randint(2, 10**4))
            if x.den == 1:
                continue
            count += 1
            assert x.inverse() == euclid_inverse(x)

    def test_zero_inverse_rejected(self):
        k = NumberField(P("t^2+3"))
        with pytest.raises(ZeroDivisionError):
            k.zero().inverse()

    def test_division(self):
        k = NumberField(P("t^3-t-1"))
        x = k.element([1, 2, 0], 5)
        y = k.element([0, 0, 3], 2)
        assert (x / y) * y == x

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            NumberField(P("t^2-1"))


class TestParsing:
    def test_symbolic(self):
        assert parse_poly("t^3 - 4t - 1").coeffs == (-1, -4, 0, 1)

    def test_csv(self):
        assert parse_poly("-1,-1,1").coeffs == (-1, -1, 1)

    def test_pretty_roundtrip(self):
        f = P("t^4 - 3*t^2 + 2t - 7")
        assert parse_poly(f.pretty()) == f

    @pytest.mark.parametrize("text", ["x^3 - 4x - 1", "X^3 - 4X - 1", "t^3 - 4*t - 1"])
    def test_any_one_letter_is_the_variable(self, text):
        assert parse_poly(text).coeffs == (-1, -4, 0, 1)

    @pytest.mark.parametrize("text", ["t^2 + x + 1", "x^2 + t", "t^2 + T + 1"])
    def test_two_letters_are_refused(self, text):
        with pytest.raises(PreconditionError, match="mixes variables"):
            parse_poly(text)
