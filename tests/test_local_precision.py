"""mu at the least p-adic precision that shows it: `_local_mu` against the
full-precision Smith form over Z/p^K and the operator's integer Smith form,
the counters that pin which precisions the operator is eliminated at, the
operator check that refuses a pair before any elimination, and one
discriminant per polynomial per process."""

from __future__ import annotations

import inspect
import sys
from functools import lru_cache

import pytest

from localconj import (
    IntMatrix,
    SylvesterOperator,
    charpoly,
    companion_test,
    conjugate_over_Zp,
    discriminant,
    generate_pair,
    parse_poly,
    verify_cert,
)
from localconj import conjugacy, polyfield, sylvester
from localconj.cli import conj_all_report, conj_p_report, verify_report, weak_equiv_report
from localconj.gen import conjugate_exact
from localconj.primes import PreconditionError, valuation
from localconj.sylvester import _local_mu, _profile_by_elimination

from conftest import pair_with_conjugate, scalar_shifted
from oracles import full_precision_mu, integer_profile


def shifted_pair(n: int, p: int, k: int, conjugate: bool) -> tuple[IntMatrix, IntMatrix]:
    """I + p^k C(t^n - t - 1) against a unimodular conjugate (conjugate over
    Z_p) or its conjugate by diag(p, 1, ..., 1) (not conjugate over Z_p)."""
    a = scalar_shifted(1, p, k, f"t^{n}-t-1")
    if conjugate:
        return a, pair_with_conjugate(a, n)[1]
    return a, conjugate_exact(a, IntMatrix.diagonal([p] + [1] * (n - 1)))


def top_precision(a: IntMatrix, p: int) -> int:
    """K = v_p(disc f) + 1, the precision that bounds every valuation."""
    return valuation(discriminant(charpoly(a)), p) + 1


@pytest.fixture
def precisions(monkeypatch):
    """(rows, width, k) of every elimination over Z/p^k while the test runs;
    the operator's are the n^2 x n^2 ones."""
    calls = []
    echelon = sylvester._echelon_fp

    def counting(rows, p, width, k=1):
        calls.append((len(rows), width, k))
        return echelon(rows, p, width, k)

    monkeypatch.setattr(sylvester, "_echelon_fp", counting)
    return calls


def operator_precisions(calls, n: int) -> list[int]:
    return [k for rows, width, k in calls if rows == width == n * n]


@pytest.fixture
def discriminants(monkeypatch):
    """Polynomials whose discriminant the decision path takes (the bindings
    in `sylvester`, which `_profile_by_elimination` reads, and `conjugacy`)
    while the test runs."""
    taken = []

    def counting(f):
        taken.append(f)
        return discriminant(f)

    for module in (sylvester, conjugacy):
        monkeypatch.setattr(module, "discriminant", counting)
    return taken


class _FreshMemos(list):
    """A list whose clear() also empties the discriminant and irreducibility
    memos, as a fresh process starts with none."""

    memos = ()

    def clear(self):
        super().clear()
        for memo in self.memos:
            memo.cache_clear()


@pytest.fixture
def computed_discriminants(monkeypatch):
    """Polynomials whose discriminant is computed while the test runs, the
    irreducibility test's included.  The memos start empty, as in a fresh
    process, and `clear()` empties them again."""
    taken = _FreshMemos()
    compute = polyfield._discriminant.__wrapped__

    def counting(coeffs):
        taken.append(polyfield.IntPoly(coeffs))
        return compute(coeffs)

    taken.memos = (
        lru_cache(maxsize=32)(counting),
        lru_cache(maxsize=32)(polyfield._irreducible_monic.__wrapped__),
    )
    monkeypatch.setattr(polyfield, "_discriminant", taken.memos[0])
    monkeypatch.setattr(polyfield, "_irreducible_monic", taken.memos[1])
    return taken


def mu_cases():
    for n in (4, 5, 6):
        for conjugate in (True, False):
            yield f"shifted-{n}-{conjugate}", (*shifted_pair(n, 5, 1, conjugate), 5)
    # the F6-residual repro: scalar mod p^2, so mu = 2 needs k >= 4
    for n, p in ((4, 5), (5, 3), (6, 11)):
        yield f"f6-residual-{n}-p{p}", (*shifted_pair(n, p, 2, False), p)
    yield "scalar-mod-81", (*shifted_pair(4, 3, 4, True), 3)  # mu = 4: k = 8
    # p = 7 does not divide disc(t^5 - t - 1) = 2869 = 19 * 151, so K = 1
    pair = generate_pair(parse_poly("t^5-t-1"), "unimodular", 0)
    yield "unscreened-p7", (pair.a, pair.b, 7)
    for p in (2, 3):
        yield f"one-by-one-p{p}", (IntMatrix([[5]]), IntMatrix([[5]]), p)


MU_CASES = dict(mu_cases())


class TestMuAgainstOracles:
    @pytest.mark.parametrize("name", sorted(MU_CASES))
    def test_same_mu_as_full_precision_and_integer_smith_form(self, name):
        a, b, p = MU_CASES[name]
        f = charpoly(a)
        op = SylvesterOperator(a, b)
        mu = _local_mu(op, p).mu
        assert mu == full_precision_mu(op, f, p)
        assert mu == integer_profile(op.l, p).mu  # the operator's integer Smith form

    @pytest.mark.parametrize(
        "name,precisions_used",
        [
            ("shifted-5-True", [2]),
            ("shifted-6-False", [2]),
            ("f6-residual-4-p5", [2, 4]),
            ("f6-residual-6-p11", [2, 4]),
            ("scalar-mod-81", [2, 4, 8]),
            ("unscreened-p7", [1]),
            ("one-by-one-p2", [1]),
        ],
    )
    def test_doubles_until_every_pivot_shows(self, name, precisions_used, precisions):
        a, b, p = MU_CASES[name]
        _profile_by_elimination(SylvesterOperator(a, b), p)
        assert operator_precisions(precisions, a.rows) == precisions_used
        assert precisions_used[-1] <= top_precision(a, p)

    def test_one_by_one_pairs_decide(self):
        for p in (2, 3, 5):
            a = IntMatrix([[-4]])
            v = conjugate_over_Zp(a, a, p)
            assert (v.conjugate, v.mu_used) == (True, 0)
            assert verify_cert(a, a, v.certificate)


class TestPrecisionCounters:
    """Which precisions a decision eliminates the n^2 x n^2 operator at."""

    @pytest.mark.parametrize(
        "conjugate,precisions_used", [(True, []), (False, [2])], ids=["True", "False"]
    )
    def test_mu_one_conj_p_eliminates_only_modulo_p_squared(
        self, conjugate, precisions_used, precisions
    ):
        # the search-deep mu = 1 strata: lam I + p C(g) at n = 5, 6.  The
        # conjugate pair reduces to C(g) and a conjugate, which are regular,
        # so mu = 1 needs no elimination; the other reduces to p C(g), a
        # scalar mod p, against a matrix that is not regular mod p
        a, b = shifted_pair(5, 5, 1, conjugate)
        assert top_precision(a, 5) == 21
        verdict = conjugate_over_Zp(a, b, 5)
        assert (verdict.conjugate, verdict.mu_used) == (conjugate, 1)
        assert operator_precisions(precisions, 5) == precisions_used

    def test_mu_zero_conj_p_stops_at_the_first_precision(self, precisions):
        # the search-deep mu = 0 strata: unimodular pairs of t^5 - 7 at p = 7
        pair = generate_pair(parse_poly("t^5-7"), "unimodular", 1)
        assert top_precision(pair.a, 7) == 5
        verdict = conjugate_over_Zp(pair.a, pair.b, 7)
        assert (verdict.conjugate, verdict.mu_used) == (True, 0)
        # the reduced pair has a regular side mod 7: no elimination
        assert operator_precisions(precisions, 5) == []

    def test_conj_p_at_an_unscreened_prime_stays_at_the_cap(self, precisions):
        a, b, p = MU_CASES["unscreened-p7"]
        assert top_precision(a, p) == 1
        report = conj_p_report(a, b, "a.txt", "b.txt", p)
        assert report["verdict"]["mu"] == 0
        # cyclic mod 7, so not even the capped elimination runs
        assert operator_precisions(precisions, 5) == []

    def test_a_b_not_annihilated_by_f_is_refused_before_any_elimination(
        self, precisions
    ):
        # the operator's f refuses the pair, and _local_mu reads it first
        a = parse_poly("t^3-2").companion()
        b = parse_poly("t^3-3").companion()
        with pytest.raises(PreconditionError, match="characteristic polynomials differ"):
            _local_mu(SylvesterOperator(a, b), 3)
        assert precisions == []


class TestOneDiscriminantPerPair:
    def pair(self):
        # screened primes 2 and 3
        return generate_pair(parse_poly("t^4-10t^2+1"), "unimodular", 0)

    def test_conj_all_takes_disc_f_once(self, computed_discriminants):
        pair = self.pair()
        report = conj_all_report(pair.a, pair.b, "a.txt", "b.txt", cross_check=True)
        assert report["screened_primes"] == [2, 3]
        assert report["verdict"]["conjugate"] and report["cross_check"]["agrees"]
        assert computed_discriminants == [charpoly(pair.a)]

    def test_verify_takes_disc_f_once_per_report(self, computed_discriminants):
        pair = self.pair()
        report = conj_all_report(pair.a, pair.b, "a.txt", "b.txt")
        computed_discriminants.clear()
        assert verify_report(report, pair.a, pair.b) == (True, "all certificates verified")
        assert len(report["per_prime"]) == 2
        assert computed_discriminants == [charpoly(pair.a)]

    def test_verify_builds_one_operator_per_report(self, monkeypatch, computed_discriminants):
        # two unit-mod stanzas share one operator: one operator matrix built
        # from its entries (no Kronecker product), f once and disc f once
        pair = self.pair()
        report = conj_all_report(pair.a, pair.b, "a.txt", "b.txt")
        assert [s["prime"] for s in report["per_prime"]] == [2, 3]
        assert all(s["certificate"]["type"] == "unit_mod" for s in report["per_prime"])
        krons, charpolys = [], []
        kron = IntMatrix.kron

        def counting_kron(self, other):
            krons.append(other.shape)
            return kron(self, other)

        def counting_charpoly(m):
            charpolys.append(m)
            return charpoly(m)

        monkeypatch.setattr(IntMatrix, "kron", counting_kron)
        for name, module in list(sys.modules.items()):
            if name.startswith("localconj.") and getattr(module, "charpoly", None) is charpoly:
                monkeypatch.setattr(module, "charpoly", counting_charpoly)
        computed_discriminants.clear()
        assert verify_report(report, pair.a, pair.b) == (True, "all certificates verified")
        assert krons == []
        assert charpolys == [pair.a]
        assert computed_discriminants == [charpoly(pair.a)]

    def test_conj_p_takes_disc_f_once(self, computed_discriminants):
        pair = self.pair()
        for p in (2, 3):
            conj_p_report(pair.a, pair.b, "a.txt", "b.txt", p)
        # mu comes from a cyclic vector at both primes and the
        # irreducibility test picks its primes by gcd(f, f') mod p, so no
        # command takes disc f
        assert computed_discriminants == []


@pytest.fixture
def annihilator_checks(monkeypatch):
    """Matrices m tested by f(m) e_1 = 0 while the test runs."""
    checked = []
    annihilates = sylvester._annihilates

    def counting(f, m):
        checked.append(m)
        return annihilates(f, m)

    monkeypatch.setattr(sylvester, "_annihilates", counting)
    return checked


class TestOneCheckPerPair:
    """The operator's f is the only check of the pair: charpoly of a once,
    f(b) e_1 = 0 once, and nothing per prime."""

    def pair(self):
        return generate_pair(parse_poly("t^4-10t^2+1"), "unimodular", 0)

    def test_local_mu_reads_f_and_disc_from_the_operator(self):
        assert list(inspect.signature(_local_mu).parameters) == ["op", "p"]

    def test_one_charpoly_and_one_annihilator_check_per_operator(
        self, charpolys, annihilator_checks, precisions
    ):
        pair = self.pair()
        op = SylvesterOperator(pair.a, pair.b)
        for p in (2, 3, 5, 7):
            conjugacy._decide_at_prime(op, p)
        # the reduced pair has a regular side at every one of them
        assert operator_precisions(precisions, 4) == []
        assert charpolys == [pair.a]
        assert annihilator_checks == [pair.b]

    def test_conj_all_cross_check_takes_two_charpolys(self, charpolys, annihilator_checks):
        # one for the operator, one for the ideal side's pair
        pair = self.pair()
        report = conj_all_report(pair.a, pair.b, "a.txt", "b.txt", cross_check=True)
        assert report["verdict"]["conjugate"] and report["cross_check"]["agrees"]
        assert charpolys == [pair.a, pair.a]
        assert annihilator_checks == [pair.b]

    def test_equal_operands_need_no_annihilator_check(self, charpolys, annihilator_checks):
        a = self.pair().a
        assert conjugate_over_Zp(a, a, 2).conjugate
        assert (charpolys, annihilator_checks) == ([a], [])


class TestOneFieldPerPairOnTheIdealSide:
    """The ideal side takes the pair's field from a: b is checked by
    f(b) e_1 = 0, so a pair takes one charpoly there, and a b outside the
    field falls back to its own charpoly, with the same messages."""

    def pair(self):
        return generate_pair(parse_poly("t^5-2"), "unimodular", 1)

    def test_weak_equiv_takes_one_charpoly(self, charpolys):
        pair = self.pair()
        report = weak_equiv_report(pair.a, pair.b, "a.txt", "b.txt")
        assert report["verdict"]["weakly_equivalent"]
        assert charpolys == [pair.a]

    def test_verify_of_weak_equiv_takes_one_charpoly(self, charpolys):
        pair = self.pair()
        report = weak_equiv_report(pair.a, pair.b, "a.txt", "b.txt")
        charpolys.clear()
        assert verify_report(report, pair.a, pair.b) == (True, "witness ideals verified")
        assert charpolys == [pair.a]

    @pytest.mark.parametrize("b,message", [
        (IntMatrix([[1, 0], [0, 2]]), "characteristic polynomial is reducible"),
        (parse_poly("t^2-2").companion(), "ideals live in different fields"),
    ], ids=["reducible", "other-field"])
    def test_b_outside_the_field_takes_its_own_charpoly(self, charpolys, b, message):
        a = parse_poly("t^2+3").companion()
        with pytest.raises(PreconditionError, match=message):
            weak_equiv_report(a, b, "a.txt", "b.txt")
        assert charpolys == [a, b]


class TestNoDiscriminantWhereRegular:
    @pytest.mark.parametrize("field,p", [("t^5-2", 3), ("t^5-2", 5), ("t^7-3", 7)])
    def test_conj_p_on_a_pair_regular_at_p(self, computed_discriminants, field, p):
        pair = generate_pair(parse_poly(field), "unimodular", 0)
        report = conj_p_report(pair.a, pair.b, "a.txt", "b.txt", p)
        assert report["verdict"]["conjugate"]
        red = SylvesterOperator(pair.a, pair.b).reduced(p)
        assert red.krylov_a is not None and red.krylov_b is not None
        assert computed_discriminants == []


class TestCompanionTestByACyclicVector:
    def test_no_operator_elimination_and_no_discriminant(self, monkeypatch, discriminants):
        # the Krylov search eliminates n x 2n blocks, and n x n^2 rows for
        # the rank test when no unit vector is cyclic; never the operator
        calls = []
        echelon = sylvester._echelon_fp

        def counting(rows, p, width, k=1):
            calls.append((len(rows), width, k))
            return echelon(rows, p, width, k)

        monkeypatch.setattr(sylvester, "_echelon_fp", counting)
        monkeypatch.setattr(conjugacy, "_echelon_fp", counting)
        a = generate_pair(parse_poly("t^5-2"), "singular:2", 0).a
        answers = [companion_test(a, p) for p in (2, 3, 5, 7)]
        assert calls and all(shape in {(5, 5, 1), (5, 25, 1)} for shape in calls), calls
        assert discriminants == []
        assert True in answers

    @pytest.mark.parametrize("f_text", ["t^3-t-1", "t^4-10t^2+1", "t^5-2"])
    def test_agrees_with_mu_zero(self, f_text):
        for strategy in ("unimodular", "singular:2"):
            pair = generate_pair(parse_poly(f_text), strategy, 0)
            for m in (pair.a, pair.b):
                for p in (2, 3, 5, 7):
                    assert companion_test(m, p) == (SylvesterOperator(m, m).mu(p) == 0)
