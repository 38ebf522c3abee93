"""The decision path without the operator's integer Smith form: the n-size
intertwiner basis, mu from a Smith form over Z/p^K and the kernels from the
Hermite form, each against the integer Smith form of the test oracles, the
counters that pin the form's absence, and the reports recorded before the
change."""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from localconj import (
    IntMatrix,
    SylvesterOperator,
    charpoly,
    companion_test,
    conjugate_over_Zp,
    conjugate_over_all_Zp,
    discriminant,
    generate_pair,
    kernel_basis_Z,
    kernel_mod,
    lift_kernel,
    parse_poly,
    screen_primes,
    vec,
    verify_cert,
)
from localconj.cli import conj_all_report, conj_p_report, verify_report
from localconj.gen import conjugate_exact
from localconj.intmat import _echelon_fp, _hnf_rows
from localconj import sylvester
from localconj.primes import PreconditionError, valuation
from localconj.sylvester import _local_mu

from conftest import PRIME_BY_PRIME_PAIRS, pair_with_conjugate, scalar_shifted
from oracles import integer_profile, reference_kernel, reference_kernel_mod
from test_local_precision import MU_CASES

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "parent_reports.json"


@cache
def load_corpus():
    """The benchmark's stdlib corpus module, for the wide-entry F5 pair."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve names here
    spec.loader.exec_module(module)
    return module


def f5_pair(seed: int) -> tuple[IntMatrix, IntMatrix]:
    """t^5 - 2 conjugated twice by unimodular matrices with 30-32-bit
    entries: the operator's integer Smith form takes 0.3-0.5 s here."""
    a, b = load_corpus().unimodular_pair(
        (-2, 0, 0, 0, 0, 1), random.Random(seed), (30, 32)
    )
    return IntMatrix(a), IntMatrix(b)


def shifted_pair(n: int, conjugate: bool) -> tuple[IntMatrix, IntMatrix]:
    """I + 5 C(t^n - t - 1) against a unimodular conjugate (conjugate over
    Z_5) or its conjugate by diag(5, 1, ..., 1) (not conjugate over Z_5)."""
    a = scalar_shifted(1, 5, 1, f"t^{n}-t-1")
    if conjugate:
        return a, pair_with_conjugate(a, n)[1]
    return a, conjugate_exact(a, IntMatrix.diagonal([5] + [1] * (n - 1)))


def oracle_pairs():
    for seed in (0, 1):
        for field, strategy in PRIME_BY_PRIME_PAIRS:
            pair = generate_pair(parse_poly(field), strategy, seed)
            yield f"{field}-{strategy}-{seed}", pair.a, pair.b
    for field, seed in (("t^7-3", 0), ("t^8-3", 1)):
        pair = generate_pair(parse_poly(field), "unimodular", seed)
        yield f"{field}-unimodular-{seed}", pair.a, pair.b
    for n in (5, 6, 7):
        for conjugate in (True, False):
            a, b = shifted_pair(n, conjugate)
            yield f"shifted-{n}-{conjugate}", a, b
    for seed in range(3):
        yield (f"f5-{seed}", *f5_pair(seed))


ORACLE_PAIRS = {name: (a, b) for name, a, b in oracle_pairs()}
# the mu cases and the oracle pairs of n <= 6; a name in both is one pair
KERNEL_CASES = {name: (a, b) for name, (a, b, _) in MU_CASES.items()} | {
    name: (a, b) for name, (a, b) in ORACLE_PAIRS.items() if a.rows <= 6
}


def module_mod(gens, modulus: int, width: int) -> list[list[int]]:
    """The Hermite form of the lattice that gens and modulus * Z^width span:
    equal exactly when the gens span one module mod the modulus."""
    unit = [[modulus if i == j else 0 for j in range(width)] for i in range(width)]
    return _hnf_rows([list(g) for g in gens] + unit, width)


class TestAgainstTheIntegerSmithForm:
    @pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
    def test_basis_and_local_profile(self, name):
        a, b = ORACLE_PAIRS[name]
        n = a.rows
        f = charpoly(a)
        op = SylvesterOperator(a, b)
        mats = op.intertwiners
        assert len(mats) == n
        assert all(a @ x == x @ b for x in mats)
        # (a): the same lattice as the Smith form's saturated kernel basis
        assert _hnf_rows([list(vec(x)) for x in mats], n * n) == _hnf_rows(
            [list(v) for v in reference_kernel(op.l)], n * n
        )
        # (b): the pivot levels over Z/p^K are the valuations of the
        # nonzero invariant factors, so mu agrees
        for p in sorted({2, 3, 5, 7, *screen_primes(f)}):
            want = integer_profile(op.l, p)
            k = valuation(discriminant(f), p) + 1
            pivots = _echelon_fp(op.l.entries, p, n * n, k)
            levels = sorted(min(valuation(x, p) for x in row if x) for row in pivots)
            assert levels == sorted(want.exponents), p
            assert _local_mu(op, p) == want, p

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_hermite_form_kernels(self, name):
        # the integer kernel, the intertwiners and the kernel modulo
        # p^(mu+2) against the Smith form's t^(-1) columns
        a, b = KERNEL_CASES[name]
        op = SylvesterOperator(a, b)
        width = op.n**2
        want = _hnf_rows([list(v) for v in reference_kernel(op.l)], width)
        assert _hnf_rows([list(v) for v in kernel_basis_Z(op.l)], width) == want
        assert _hnf_rows([list(vec(x)) for x in op.intertwiners], width) == want
        for p in (2, 3):
            modulus = p ** (op.mu(p) + 2)
            got = kernel_mod(op.l, modulus)
            assert all(0 <= x < modulus for g in got for x in g) and all(map(any, got))
            assert module_mod(got, modulus, width) == module_mod(
                reference_kernel_mod(op.l, modulus), modulus, width
            ), p

    def test_pivot_count_is_checked(self, monkeypatch):
        # characteristic polynomials differ: rank n^2 - n does not hold, and
        # the operator's f refuses the pair before any elimination
        a = parse_poly("t^2+3").companion()
        b = parse_poly("t^2+7").companion()
        monkeypatch.setattr(sylvester, "_echelon_fp", None)
        with pytest.raises(PreconditionError, match="characteristic polynomials differ"):
            _local_mu(SylvesterOperator(a, b), 2)

    def test_echelon_at_level_one_is_reduced_over_fp(self):
        rows = [(2, 4, 1), (1, 2, 3), (0, 0, 5)]
        assert _echelon_fp(rows, 7, 3) == [(1, 2, 0), (0, 0, 1)]
        assert _echelon_fp(rows, 7, 3, 1) == _echelon_fp(rows, 7, 3)

    def test_echelon_levels(self):
        # diag(4, 2, 0) mixed by a unimodular matrix, over Z/2^4
        rows = [(4, 2, 0), (4, 4, 0), (0, 2, 0)]
        pivots = _echelon_fp(rows, 2, 3, 4)
        assert sorted(min(valuation(x, 2) for x in r if x) for r in pivots) == [1, 2]


def decide_everything(a, b):
    """conj-p at every screened prime, conj-all with and without the
    cross-check, and verify of the conj-all report."""
    for p in screen_primes(charpoly(a)):
        conj_p_report(a, b, "a.txt", "b.txt", p)
    conj_all_report(a, b, "a.txt", "b.txt")
    report = conj_all_report(a, b, "a.txt", "b.txt", cross_check=True)
    ok, reason = verify_report(report, a, b)
    return report, ok, reason


class TestNoIntegerSmithForm:
    @pytest.mark.parametrize(
        "field,strategy,seed",
        [("t^5-2", "unimodular", 1), ("t^3-4", "singular:2", 0),
         ("t^4+3", "singular:2", 0), ("t^6-2", "unimodular", 0)],
    )
    def test_decision_commands(self, snf_builds, det_shapes, field, strategy, seed):
        pair = generate_pair(parse_poly(field), strategy, seed)
        n = pair.a.rows
        snf_builds.clear()
        det_shapes.clear()
        report, ok, reason = decide_everything(pair.a, pair.b)
        assert ok, reason
        assert snf_builds == []
        assert (n * n, n * n) not in det_shapes

    def test_operator_api_and_every_command(self, snf_builds):
        # mu >= 1 at p = 5 on a conjugate pair of degree 5
        a, b = shifted_pair(5, True)
        snf_builds.clear()
        op = SylvesterOperator(a, b)
        profile = op.p_profile(5)
        assert op.mu(5) == profile.mu == 1 and len(profile.exponents) == 20
        x = vec(op.intertwiners[1])
        noisy = [v + 5**2 * (i % 3 - 1) for i, v in enumerate(x)]
        lifted = lift_kernel(op, noisy, 5, 1)
        assert not any(op.l.mul_vec(lifted))
        assert not companion_test(a, 5) and companion_test(a, 7)
        report = conj_p_report(a, b, "a.txt", "b.txt", 5)
        assert report["verdict"]["conjugate"] and verify_report(report, a, b)[0]
        _, ok, reason = decide_everything(a, b)
        assert ok, reason
        assert snf_builds == []

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_pair_per_prime(self, snf_builds, det_shapes, seed):
        a, b = f5_pair(seed)
        snf_builds.clear()
        for p in (2, 5):
            report = conj_p_report(a, b, "a.txt", "b.txt", p)
            assert report["verdict"]["conjugate"]
            ok, reason = verify_report(report, a, b)
            assert ok, reason
        assert snf_builds == []
        assert (25, 25) not in det_shapes

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_pair_needs_no_factoring_of_det_q(self, seed):
        # the size-reduced intertwiner basis holds a unimodular matrix
        a, b = f5_pair(seed)
        v = conjugate_over_all_Zp(a, b)
        assert v.conjugate and abs(v.certificate.q.det()) == 1
        assert verify_cert(a, b, v.certificate)


FIXTURE_ENTRIES = json.loads(FIXTURES.read_text())


def comparable(report: dict) -> dict:
    """The report without what the change may alter: timing, the pair
    certificate and the certificate matrix of every stanza (a pair with a
    cyclic vector on each side at p is certified by another witness)."""
    report = json.loads(json.dumps(report))
    report.pop("timing_seconds")
    report.pop("pair_certificate", None)
    stanzas = report.get("per_prime", [])
    if report["command"] == "conj-p":
        stanzas = [{"certificate": report["certificate"]}]
    for stanza in stanzas:
        if stanza["certificate"]:
            stanza["certificate"].pop("matrix")
    return report


class TestParentReports:
    """Reports recorded before the decision path left the integer Smith form
    (tests/fixtures/parent_reports.json)."""

    def test_fixture_covers_mu_at_least_one(self):
        mus = [e["report"]["verdict"]["mu"] for e in FIXTURE_ENTRIES
               if e["report"]["command"] == "conj-p" and e["report"]["verdict"]["conjugate"]]
        assert sum(mu >= 1 for mu in mus) >= 3

    @pytest.mark.parametrize("idx", range(len(FIXTURE_ENTRIES)))
    def test_still_verifies_and_matches(self, idx):
        entry = FIXTURE_ENTRIES[idx]
        a, b = IntMatrix(entry["a"]), IntMatrix(entry["b"])
        old = entry["report"]
        ok, reason = verify_report(old, a, b)
        assert ok, reason
        if old["command"] == "conj-p":
            new = conj_p_report(a, b, "a.txt", "b.txt", old["prime"])
        else:
            new = conj_all_report(
                a, b, "a.txt", "b.txt", cross_check="cross_check" in old
            )
        assert comparable(new) == comparable(old)
        ok, reason = verify_report(new, a, b)
        assert ok, reason


class TestLiftKernelInput:
    def test_float_vector_refused(self):
        a = IntMatrix([[0, 1], [-3, 0]])
        op = SylvesterOperator(a, a)
        with pytest.raises(ValueError, match="must be integers"):
            lift_kernel(op, (1.9, 0, 0, 1.2), 3, 1)
        assert lift_kernel(op, (1, 0, 0, 1), 3, 1) == (1, 0, 0, 1)


class TestVerifyMismatchedPair:
    def test_unit_mod_cert_against_other_polynomial(self):
        a = parse_poly("t^2+3").companion()
        cert = conjugate_over_Zp(a, a, 2).certificate
        assert verify_cert(a, a, cert)
        assert not verify_cert(a, parse_poly("t^2+7").companion(), cert)
        assert not verify_cert(a, IntMatrix([[1, 0], [0, 2]]), cert)
