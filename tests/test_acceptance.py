"""Acceptance suite.

Eight criteria, each a test that prints one PASS/FAIL line (run with -s to
see them).  Everything is exact: no tolerances anywhere, agreement means
equality.
"""

from __future__ import annotations

import random
import time

from localconj import (
    IntMatrix,
    SylvesterOperator,
    charpoly,
    coeff_ring,
    companion_test,
    conjugate_over_Zp,
    conjugate_over_all_Zp,
    down_map,
    ell_invariant,
    generate_pair,
    ideal_of_matrix,
    in_Id_p,
    kernel_mod,
    lift_kernel,
    mul,
    parse_poly,
    screen_primes,
    up_map,
    weakly_equivalent,
    zbeta_order,
)
from localconj.cli import (
    conj_all_report,
    conj_p_report,
    verify_report,
    weak_equiv_report,
)
from localconj.ideals import IdealLattice, weak_equivalence_data

from conftest import (
    CLASSIC_A,
    CLASSIC_B,
    pair_with_conjugate,
    scalar_shifted,
)
from oracles import brute_similar_mod, kernel_search_intertwiner
from test_ideals import random_ideal


def _report(name: str, ok: bool, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}, {elapsed:.1f}s)")
    assert ok, detail
    assert elapsed < budget, f"{name} exceeded the {budget:.0f}s budget"


def test_criterion_1_lifting_suite():
    """Exact kernel lifting on 200 generated instances."""
    started = time.perf_counter()
    rng = random.Random(2024)
    bases = [
        parse_poly("t^2-t-1").companion(),
        parse_poly("t^2+3").companion(),
        scalar_shifted(1, 2, 1, "t^2+3"),
        parse_poly("t^3-t-1").companion(),
        parse_poly("t^3-4t-1").companion(),
        scalar_shifted(1, 2, 1, "t^3-t-1"),
    ]
    ops = []
    for idx, base in enumerate(bases):
        variants = ((idx, None), (idx + 50, 2), (idx + 90, 3), (idx + 140, None))
        for seed, singular in variants:
            a, b, _ = pair_with_conjugate(base, seed, singular)
            ops.append(SylvesterOperator(a, b))
    count = 0
    combos = [(p, lam) for p in (2, 3, 5) for lam in (0, 1, 2)]
    for op in ops:
        for p, lam in combos:
            if count >= 200:
                break
            mu_val = op.mu(p)
            exponent = mu_val + lam
            if exponent == 0:
                x_approx = tuple(rng.randrange(7) for _ in range(op.l.cols))
            else:
                modulus = p**exponent
                gens = kernel_mod(op.l, modulus)
                acc = [0] * op.l.cols
                for g in gens:
                    c = rng.randrange(modulus)
                    acc = [(u + c * v) % modulus for u, v in zip(acc, g)]
                x_approx = tuple(acc)
            x = lift_kernel(op, x_approx, p, lam)
            assert all(v == 0 for v in op.l.mul_vec(x))
            assert all((u - v) % p**lam == 0 for u, v in zip(x, x_approx))
            count += 1
    _report("1 lifting", count == 200, f"{count}/200 lifts exact", started, 30)


def test_criterion_2_equivalence_grid(corpus40):
    """Engine decision == brute-force enumeration == exact-kernel search."""
    started = time.perf_counter()
    checked = 0
    for a, b in corpus40:
        op = SylvesterOperator(a, b)
        for p in (2, 3):
            mu_val = op.mu(p)
            engine = conjugate_over_Zp(a, b, p).conjugate
            enumerated = brute_similar_mod(a, b, p ** (mu_val + 1), p)
            searched = kernel_search_intertwiner(a, b, p, bound=3)
            assert engine == enumerated == searched, (
                a,
                b,
                p,
                engine,
                enumerated,
                searched,
            )
            checked += 1
    _report(
        "2 equivalence-grid",
        checked == 80,
        f"{checked}/80 decisions agree with both oracles",
        started,
        300,
    )


def test_criterion_3_bridge_oracle(corpus60):
    """Matrix-side all-primes verdict == ideal-side weak equivalence."""
    started = time.perf_counter()
    agree = 0
    outcomes = {True: 0, False: 0}
    for a, b, f_text, strategy in corpus60:
        verdict = conjugate_over_all_Zp(a, b).conjugate
        ideal_side = weakly_equivalent(ideal_of_matrix(a), ideal_of_matrix(b))
        assert verdict == ideal_side, (f_text, strategy, verdict, ideal_side)
        outcomes[verdict] += 1
        agree += 1
    detail = f"{agree}/60 agree (true: {outcomes[True]}, false: {outcomes[False]})"
    _report("3 bridge-oracle", agree == 60, detail, started, 600)


def test_criterion_4_discriminant_screen():
    """Empty screen for disc 5; screen {2} and the classic failure for
    t^2 + 3."""
    started = time.perf_counter()
    golden = parse_poly("t^2-t-1")
    assert screen_primes(golden) == []
    for seed in range(20):
        strategy = ("unimodular", "singular:2", "singular:3", "random")[seed % 4]
        pair = generate_pair(golden, strategy, seed)
        v = conjugate_over_all_Zp(pair.a, pair.b)
        assert v.conjugate and v.screened == ()
    assert screen_primes(parse_poly("t^2+3")) == [2]
    assert not conjugate_over_Zp(CLASSIC_A, CLASSIC_B, 2).conjugate
    for p in (3, 5, 7):
        assert conjugate_over_Zp(CLASSIC_A, CLASSIC_B, p).conjugate
    v = conjugate_over_all_Zp(CLASSIC_A, CLASSIC_B)
    assert not v.conjugate and v.screened == (2,)
    _report(
        "4 discriminant-screen",
        True,
        "empty screen vacuous-true 20/20; fixture fails exactly at 2",
        started,
        60,
    )


def test_criterion_5_companion_shortcuts(corpus40):
    """Squarefree-mod-p polynomials always pass; the v-search agrees with the
    engine against the companion everywhere."""
    from localconj.polyfield import squarefree_mod_p

    started = time.perf_counter()
    squarefree_hits = 0
    total = 0
    for a, _ in corpus40:
        f = charpoly(a)
        comp = f.companion()
        for p in (2, 3):
            ct = companion_test(a, p)
            if squarefree_mod_p(f, p):
                assert ct
                squarefree_hits += 1
            assert ct == conjugate_over_Zp(a, comp, p).conjugate
            total += 1
    detail = f"{total} entries, {squarefree_hits} squarefree shortcuts, all agree"
    _report("5 companion-shortcuts", total == 80, detail, started, 120)


def test_criterion_6_ell_invariant():
    """Equal scalar-congruence invariants at every screened prime force a
    true verdict; a differing pair is refused at its prime."""
    started = time.perf_counter()
    rng = random.Random(77)
    seeds = iter(range(1000))
    pairs = []
    shapes = [
        parse_poly("t^2+3").companion(),
        parse_poly("t^2-2").companion(),
        parse_poly("t^2+2").companion(),
        scalar_shifted(1, 2, 1, "t^2+3"),
        scalar_shifted(1, 2, 2, "t^2-t-1"),
        CLASSIC_B,
    ]
    while len(pairs) < 30:
        base = shapes[len(pairs) % len(shapes)]
        singular = (None, 2, 3)[len(pairs) % 3]
        a, b, _ = pair_with_conjugate(base, next(seeds), singular)
        pairs.append((a, b))
    exercised = 0
    for a, b in pairs:
        screen = screen_primes(charpoly(a))
        for p in screen:
            ea, eb = ell_invariant(a, p).ell, ell_invariant(b, p).ell
            verdict = conjugate_over_Zp(a, b, p).conjugate
            if ea == eb:
                assert verdict, (a, b, p, ea)
                exercised += 1
            else:
                assert not verdict, (a, b, p, ea, eb)
    # an explicitly constructed pair with differing invariants at 2
    assert ell_invariant(CLASSIC_A, 2).ell == 0
    assert ell_invariant(CLASSIC_B, 2).ell == 1
    assert not conjugate_over_Zp(CLASSIC_A, CLASSIC_B, 2).conjugate
    _report(
        "6 ell-invariant",
        exercised > 0,
        f"30 pairs consistent, {exercised} equal-invariant cases forced true",
        started,
        60,
    )


def test_criterion_7_semigroup_and_order_maps():
    """Extension/contraction are inverse on Id_p members when p misses the
    index, extension is multiplicative, and weak equivalence is an
    equivalence relation with re-verifiable witnesses."""
    started = time.perf_counter()
    field = ideal_of_matrix(CLASSIC_B).field
    s = zbeta_order(field)
    i2 = IdealLattice(field, [[2, 0], [1, 1]], 1)
    r = coeff_ring(i2)
    rng = random.Random(123)
    members = 0
    for p in (3, 5):
        for k in (1, 2):
            for _ in range(5):
                i = random_ideal(s, p, k, rng)
                assert in_Id_p(i, s, p)
                assert down_map(up_map(i, r), s) == i
                j = random_ideal(r, p, k, rng)
                assert in_Id_p(j, r, p)
                assert up_map(down_map(j, s), r) == j
                members += 2
    assert members == 40
    i_a = random_ideal(s, 3, 1, rng)
    i_b = random_ideal(s, 3, 2, rng)
    assert up_map(mul(i_a, i_b), r) == mul(up_map(i_a, r), up_map(i_b, r))

    family = [s.lattice, i2, r.lattice]
    while len(family) < 10:
        rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(3)]
        try:
            lat = IdealLattice(field, rows, rng.randint(1, 2))
        except ValueError:
            continue
        if lat.is_stable_under_beta():
            family.append(lat)
    rel = {}
    for ia, a in enumerate(family):
        for ib, b in enumerate(family):
            ok, x, y = weak_equivalence_data(a, b)
            rel[ia, ib] = ok
            if ok:
                assert mul(x, b) == a and mul(y, a) == b
    for ii in range(10):
        assert rel[ii, ii]
        for jj in range(10):
            assert rel[ii, jj] == rel[jj, ii]
            for kk in range(10):
                if rel[ii, jj] and rel[jj, kk]:
                    assert rel[ii, kk]
    _report(
        "7 order-maps",
        True,
        "u/d inverse on 40 Id_p members, u multiplicative, relation axioms on 10 ideals",
        started,
        60,
    )


def test_criterion_8_certificate_integrity(corpus40, corpus60):
    """Every true verdict re-verifies; every single-entry tamper that breaks
    a certificate invariant is rejected.

    A blind one-entry bump can land on another genuinely valid witness (the
    witness set is large for small moduli), so each tamper below is chosen,
    by direct arithmetic separate from the verifier, to violate an invariant;
    such an entry always exists."""
    started = time.perf_counter()
    verified = 0
    tampered_rejected = 0

    def check(report, a, b, mutate):
        nonlocal verified, tampered_rejected
        ok, reason = verify_report(report, a, b)
        assert ok, reason
        verified += 1
        broken = mutate(report, a, b)
        if broken is None:
            return
        ok2, _ = verify_report(broken, a, b)
        assert not ok2, "invalidated certificate slipped through"
        tampered_rejected += 1

    import copy

    def _single_entry_edits(rows):
        n = len(rows)
        for i in range(n):
            for j in range(len(rows[0])):
                for delta in (1, 2, -1):
                    yield i, j, delta

    def tamper_conj_p(report, a, b):
        blob = report["certificate"]
        if blob is None:
            return None
        modulus, p = blob["modulus"], blob["prime"]
        for i, j, delta in _single_entry_edits(blob["matrix"]):
            rows = copy.deepcopy(blob["matrix"])
            rows[i][j] += delta
            x = IntMatrix(rows)
            diff = a @ x - x @ b
            broken_congruence = any(
                v % modulus for row in diff.entries for v in row
            )
            if broken_congruence or x.det() % p == 0:
                out = copy.deepcopy(report)
                out["certificate"]["matrix"] = rows
                return out
        raise AssertionError("no invalidating single-entry edit exists")

    def tamper_conj_all(report, a, b):
        blob = report["pair_certificate"]
        if blob is not None:
            for i, j, delta in _single_entry_edits(blob["q"]):
                rows = copy.deepcopy(blob["q"])
                rows[i][j] += delta
                q = IntMatrix(rows)
                if a @ q != q @ b:
                    out = copy.deepcopy(report)
                    out["pair_certificate"]["q"] = rows
                    return out
        for idx, stanza in enumerate(report["per_prime"]):
            if stanza["certificate"] is None:
                continue
            sub = {
                "command": "conj-p",
                "verdict": {"conjugate": True, "prime": stanza["prime"]},
                "certificate": stanza["certificate"],
            }
            broken_sub = tamper_conj_p(sub, a, b)
            out = copy.deepcopy(report)
            out["per_prime"][idx]["certificate"] = broken_sub["certificate"]
            return out
        return None

    def tamper_weak(report, a, b):
        if not report["witnesses"]:
            return None
        ia, ib = ideal_of_matrix(a), ideal_of_matrix(b)
        blob = report["witnesses"]["x"]
        for i, j, delta in _single_entry_edits(blob["rows"]):
            rows = copy.deepcopy(blob["rows"])
            rows[i][j] += delta
            try:
                x = IdealLattice(ia.field, rows, blob["den"])
            except ValueError:
                x = None  # rank collapse: malformed, must be rejected
            if x is None or mul(x, ib) != ia:
                out = copy.deepcopy(report)
                out["witnesses"]["x"]["rows"] = rows
                return out
        raise AssertionError("no invalidating single-entry edit exists")

    for a, b in corpus40[::4]:
        for p in (2, 3):
            report = conj_p_report(a, b, "a", "b", p)
            if report["verdict"]["conjugate"]:
                check(report, a, b, tamper_conj_p)
    for a, b, _, _ in corpus60[::3]:
        report = conj_all_report(a, b, "a", "b")
        if report["verdict"]["conjugate"]:
            check(report, a, b, tamper_conj_all)
        report = weak_equiv_report(a, b, "a", "b")
        if report["verdict"]["weakly_equivalent"]:
            check(report, a, b, tamper_weak)
    # the classic negative pair also re-verifies (nothing to certify)
    report = conj_all_report(CLASSIC_A, CLASSIC_B, "a", "b")
    ok, _ = verify_report(report, CLASSIC_A, CLASSIC_B)
    assert ok
    detail = f"{verified} true reports verified, {tampered_rejected} tampers rejected"
    _report("8 certificate-integrity", verified > 0 and tampered_rejected > 0, detail, started, 60)
