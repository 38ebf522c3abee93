"""The decision engine against enumeration oracles, plus companion tests,
the 2x2 scalar-congruence invariant, prime screening, and certificates."""

from __future__ import annotations

import random

import pytest

from localconj import (
    IntMatrix,
    IntPoly,
    IntegerPairCert,
    SylvesterOperator,
    UnitModCert,
    charpoly,
    companion_test,
    conjugate_over_Zp,
    conjugate_over_all_Zp,
    ell_invariant,
    factorize,
    generate_pair,
    is_prime,
    parse_poly,
    random_unimodular,
    screen_primes,
    verify_cert,
)
import localconj.conjugacy as conjugacy
from localconj.intmat import _echelon_fp
from localconj.gen import conjugate_exact
from localconj.primes import next_prime
from localconj.sylvester import unvec, vec

from conftest import (
    CLASSIC_A,
    CLASSIC_B,
    M,
    PRIME_BY_PRIME_PAIRS,
    pair_with_conjugate,
    scalar_shifted,
    span_test,
    walk_only,
)
from oracles import (
    brute_companion_test,
    brute_similar_mod,
    kernel_search_intertwiner,
    projective_walk,
)


class TestConjugateOverZp:
    def test_equal_matrices_identity_certificate(self):
        a = parse_poly("t^2-t-1").companion()
        v = conjugate_over_Zp(a, a, 3)
        assert v.conjugate
        assert isinstance(v.certificate, UnitModCert)
        assert v.certificate.x == IntMatrix.identity(2)

    def test_unimodular_conjugates_true_everywhere(self):
        a, b, p_mat = pair_with_conjugate(parse_poly("t^3-t-1").companion(), 2)
        for p in (2, 3, 5, 7):
            v = conjugate_over_Zp(a, b, p)
            assert v.conjugate
            assert verify_cert(a, b, v.certificate)

    def test_classic_pair(self):
        assert not conjugate_over_Zp(CLASSIC_A, CLASSIC_B, 2).conjugate
        assert conjugate_over_Zp(CLASSIC_A, CLASSIC_B, 3).conjugate

    def test_differing_charpoly_rejected(self):
        a = parse_poly("t^2-t-1").companion()
        b = parse_poly("t^2+3").companion()
        with pytest.raises(ValueError):
            conjugate_over_Zp(a, b, 2)

    def test_reducible_charpoly_rejected(self):
        a = M([1, 1], [0, 2])
        with pytest.raises(ValueError):
            conjugate_over_Zp(a, a, 2)

    def test_composite_modulus_rejected(self):
        a = parse_poly("t^2+3").companion()
        with pytest.raises(ValueError):
            conjugate_over_Zp(a, a, 6)

    def test_against_enumeration_small_grid(self, corpus40):
        # matched against the mod-p^(mu+1) enumeration and the exact-kernel
        # lattice search on a slice of the corpus (the acceptance suite runs
        # the full grid)
        for a, b in corpus40[:10]:
            op = SylvesterOperator(a, b)
            for p in (2, 3):
                mu = op.mu(p)
                verdict = conjugate_over_Zp(a, b, p)
                assert verdict.conjugate == brute_similar_mod(
                    a, b, p ** (mu + 1), p
                )
                assert verdict.conjugate == kernel_search_intertwiner(a, b, p)

    def test_decision_stable_one_exponent_higher(self, corpus40):
        # working modulo p^(mu+2) instead of p^(mu+1) never changes the answer
        for a, b in corpus40[:6]:
            op = SylvesterOperator(a, b)
            for p in (2, 3):
                mu = op.mu(p)
                if p ** (4 * (mu + 2)) > 600_000:
                    continue
                verdict = conjugate_over_Zp(a, b, p)
                assert verdict.conjugate == brute_similar_mod(
                    a, b, p ** (mu + 2), p
                )


class TestSoundness:
    def test_true_verdicts_carry_verifying_certificates(self, corpus40):
        for a, b in corpus40[:12]:
            for p in (2, 3):
                v = conjugate_over_Zp(a, b, p)
                if v.conjugate:
                    assert isinstance(v.certificate, UnitModCert)
                    assert verify_cert(a, b, v.certificate)
                else:
                    assert v.certificate is None

    def test_determinism(self):
        a, b, _ = pair_with_conjugate(scalar_shifted(1, 2, 1, "t^2+3"), 5)
        v1 = conjugate_over_Zp(a, b, 2)
        v2 = conjugate_over_Zp(a, b, 2)
        assert v1 == v2

    def test_large_prime_sampling_path(self):
        # p > n: the walk's tail coefficients stop at n - 1, below p - 1
        a, b, _ = pair_with_conjugate(parse_poly("t^2+3").companion(), 6)
        for p in (11, 13):
            v = conjugate_over_Zp(a, b, p)
            assert v.conjugate
            assert verify_cert(a, b, v.certificate)
            assert conjugate_over_Zp(a, b, p) == v


class TestConjugateAll:
    def test_unimodular_pair_with_global_cert(self):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 4)
        v = conjugate_over_all_Zp(pair.a, pair.b)
        assert v.conjugate
        # a unimodular conjugator is a pair certificate on its own
        q = pair.conjugator
        assert abs(q.det()) == 1
        assert verify_cert(pair.a, pair.b, IntegerPairCert(q, q))

    def test_squarefree_disc_vacuous(self):
        pair = generate_pair(parse_poly("t^2-t-1"), "singular:3", 1)
        v = conjugate_over_all_Zp(pair.a, pair.b)
        assert v.conjugate
        assert v.screened == ()
        assert v.per_prime == ()

    def test_classic_pair_fails_at_two(self):
        v = conjugate_over_all_Zp(CLASSIC_A, CLASSIC_B)
        assert not v.conjugate
        assert v.screened == (2,)
        assert not v.per_prime[0].conjugate

    def test_pair_certificate_when_true(self):
        pair = generate_pair(parse_poly("t^2+3"), "singular:3", 2)
        v = conjugate_over_all_Zp(pair.a, pair.b)
        if v.conjugate and v.certificate is not None:
            assert isinstance(v.certificate, IntegerPairCert)
            assert verify_cert(pair.a, pair.b, v.certificate)


class TestPairCertAtLargePrimes:
    """det q may have a prime factor p above 2^53 * n, far above n + 1: the
    walk, whose tail coefficients stop at n, must decide it both inside the
    pair certificate and at such a prime asked for directly."""

    def check(self, a, b):
        v = conjugate_over_all_Zp(a, b)
        assert v.conjugate
        assert isinstance(v.certificate, IntegerPairCert)
        assert verify_cert(a, b, v.certificate)
        # q comes from a size-reduced basis, so its determinant is often 1
        big = next_prime(2**53 * a.rows)
        w = conjugate_over_Zp(a, b, big)
        assert w.conjugate and verify_cert(a, b, w.certificate)
        return v.certificate

    def test_singular_quintic(self):
        pair = generate_pair(parse_poly("t^5-2"), "singular:2", 1)
        self.check(pair.a, pair.b)

    def test_unimodular_quartic(self):
        a = parse_poly("t^4-10t^2+1").companion()
        m = random_unimodular(4, random.Random(400), ops=400)
        self.check(a, conjugate_exact(a, m))

    def test_ideal_class_of_large_norm(self):
        # b is multiplication by beta = sqrt(-N) on the lattice
        # aZ + (u + beta)Z of prime norm a > 2^54, with N = ac - u^2 prime
        # and 1 mod 4, so Z[beta] is maximal at 2 and the pair is conjugate
        # at every prime.  Up to sign, det X over the intertwiners is a
        # binary form equivalent to the reduced a x^2 + 2u xy + c y^2, whose
        # least value is a: the pair certificate decides the prime a.
        a_, c, u = 72057594037928017, 144115188075859757, 12346
        n_ = a_ * c - u * u
        assert is_prime(a_) and is_prime(n_) and n_ % 4 == 1
        a = IntPoly([n_, 0, 1]).companion()
        b = IntMatrix([[-u, -c], [a_, u]])
        cert = self.check(a, b)
        assert max(factorize(cert.q.det())) > 2**53 * a.rows


class TestOneSmithFormPerDecision:
    CASES = [
        ("t^5-2", "unimodular", 1, True),
        ("t^3-4", "singular:2", 0, False),
    ]

    @pytest.mark.parametrize("field,strategy,seed,conjugate", CASES)
    def test_conjugate_over_Zp(self, snf_builds, field, strategy, seed, conjugate):
        pair = generate_pair(parse_poly(field), strategy, seed)
        verdicts = []
        for p in screen_primes(charpoly(pair.a)):
            snf_builds.clear()
            verdicts.append(conjugate_over_Zp(pair.a, pair.b, p).conjugate)
            assert len(snf_builds) == 0
        assert all(verdicts) == conjugate

    @pytest.mark.parametrize("field,strategy,seed,conjugate", CASES)
    def test_conjugate_over_all_Zp(self, snf_builds, field, strategy, seed, conjugate):
        pair = generate_pair(parse_poly(field), strategy, seed)
        snf_builds.clear()
        assert conjugate_over_all_Zp(pair.a, pair.b).conjugate == conjugate
        n = pair.a.rows
        assert snf_builds == []

    def test_one_operator_determinant(self, det_shapes):
        # mu comes from a local Smith form: no n^2 x n^2 determinant at all
        pair = generate_pair(parse_poly("t^5-2"), "unimodular", 1)
        for p in screen_primes(charpoly(pair.a)):
            det_shapes.clear()
            assert conjugate_over_Zp(pair.a, pair.b, p).conjugate
            assert det_shapes.count((25, 25)) == 0, det_shapes

    def test_verify_cert_rebuilds_once(self, snf_builds):
        pair = generate_pair(parse_poly("t^5-2"), "unimodular", 1)
        cert = conjugate_over_Zp(pair.a, pair.b, 5).certificate
        assert isinstance(cert, UnitModCert)
        snf_builds.clear()
        assert verify_cert(pair.a, pair.b, cert)
        assert len(snf_builds) == 0


class TestSearchStopsAtFirstUnit:
    """The search walks the projective span of the exact basis, with tail
    coefficients below min(p, n), and stops at the first unit; only a
    negative verdict visits every point of the walk."""

    @pytest.mark.parametrize(
        "field,seed", [("t^7-3", 0), ("t^7-3", 1), ("t^7-3", 2), ("t^8-3", 1)]
    )
    def test_pair_certificate_at_small_primes(self, det_mod_calls, field, seed):
        # the screen of t^7-3 holds 7 and det q of t^8-3 seed 1 has the
        # factor 7 <= 8, where the whole span of dimension n is searched:
        # (7^7 - 1) / 6 = 137,257 and (7^8 - 1) / 6 = 960,800 points
        pair = generate_pair(parse_poly(field), "unimodular", seed)
        v = conjugate_over_all_Zp(pair.a, pair.b)
        assert v.conjugate
        assert isinstance(v.certificate, IntegerPairCert)
        assert verify_cert(pair.a, pair.b, v.certificate)
        assert len(det_mod_calls) < 1000

    def test_positive_visits_one_point(self, det_mod_calls):
        # t^3-2 is irreducible mod 7 (2 is not a cube mod 7), so every
        # nonzero vector is cyclic on both sides: the Krylov witness settles
        # it and the walk visits no point
        pair = generate_pair(parse_poly("t^3-2"), "unimodular", 0)
        assert pair.a != pair.b
        assert conjugate_over_Zp(pair.a, pair.b, 7).conjugate
        assert det_mod_calls == []

    def test_rank_mismatch_skips_the_walk(self, det_mod_calls):
        # a is scalar mod 5; its conjugate by diag(5, 1, 1) is integral and
        # not scalar mod 5, so the ranks of a - 1 and b - 1 mod 5 differ
        p = 5
        a = scalar_shifted(1, p, 1, "t^3-t-1")
        b = conjugate_exact(a, IntMatrix.diagonal([p, 1, 1]))
        assert b is not None and b.mod(p) != IntMatrix.identity(3)
        assert not conjugate_over_Zp(a, b, p).conjugate
        assert det_mod_calls == []

    def test_negative_visits_every_point(self, monkeypatch, det_mod_calls):
        # a = I + 25 C and its conjugate by diag(5, 1, 1) are both the
        # identity mod 5; without the span test only the walk can reject
        p = 5
        a = scalar_shifted(1, p, 2, "t^3-t-1")
        b = conjugate_exact(a, IntMatrix.diagonal([p, 1, 1]))
        assert b is not None and b != a and b.mod(p) == IntMatrix.identity(3)
        op = SylvesterOperator(a, b)
        gens = op.solution_generators_mod(p ** (op.mu(p) + 1))
        dim = len(_echelon_fp(gens, p, 9))
        det_mod_calls.clear()
        assert not walk_only(monkeypatch, conjugate_over_Zp, a, b, p).conjugate
        s = min(p, 3)  # tail coefficients below n, n = 3
        assert len(det_mod_calls) == (s**dim - 1) // (s - 1) == 13
        det_mod_calls.clear()
        assert not conjugate_over_Zp(a, b, p).conjugate
        assert det_mod_calls == []

    def test_residual_negative_walk_is_bounded(self, monkeypatch, det_mod_calls):
        # the same repro at n = 5, p = 11: the walk takes tails below
        # n = 5, (5^5 - 1) / 4 points, not (11^5 - 1) / 10 = 16,105
        n, p = 5, 11
        a = scalar_shifted(1, p, 2, f"t^{n}-t-1")
        b = conjugate_exact(a, IntMatrix.diagonal([p] + [1] * (n - 1)))
        assert b is not None and b != a and b.mod(p) == IntMatrix.identity(n)
        det_mod_calls.clear()
        assert not walk_only(monkeypatch, conjugate_over_Zp, a, b, p).conjugate
        assert len(det_mod_calls) == (5**5 - 1) // 4 == 781
        det_mod_calls.clear()
        assert not conjugate_over_Zp(a, b, p).conjugate
        assert det_mod_calls == []


def _seeded_span(rng: random.Random, n: int, dim: int, p: int) -> list[tuple[int, ...]]:
    """dim vectorized n x n generators: rank-one matrices (no unit when
    dim < n), a common right factor that is singular mod p (no unit), or
    random entries on a random support (mostly units)."""
    kind = rng.randrange(3)
    if kind == 0:
        mats = []
        for _ in range(dim):
            u = [rng.randrange(p) for _ in range(n)]
            w = [rng.randrange(p) for _ in range(n)]
            mats.append(IntMatrix([[x * y for y in w] for x in u]))
    elif kind == 1:
        right = IntMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
                          + [[0] * n])
        mats = [IntMatrix([[rng.randrange(-p, p) for _ in range(n)] for _ in range(n)]) @ right
                for _ in range(dim)]
    else:
        support = [[rng.random() < 0.6 for _ in range(n)] for _ in range(n)]
        mats = [IntMatrix([[rng.randrange(-p, p) if support[i][j] else 0 for j in range(n)]
                           for i in range(n)]) for _ in range(dim)]
    return [vec(m) for m in mats]


class TestWalkIsComplete:
    """The walk takes tail coefficients below s = min(p, n) only, so at
    p > n it must still agree with an exhaustive walk over all of F_p^dim:
    None exactly when the span holds no unit.  With P(c) = det(sum c_i X_i),
    let l be the last lead where P(0, ..., 0, c_l, ...) is not identically
    zero: there P = c_l T with T homogeneous of degree n - 1, so n residues
    settle T, and the first hit never uses coefficient n."""

    def check(self, gens, p, n, modulus):
        found = conjugacy._unit_det_witness(gens, p, modulus, n)
        expected = projective_walk(gens, p, n, modulus, p)
        assert (found is None) == (expected is None), gens
        if found is not None:
            assert all(0 <= x < modulus for x in found)
            assert unvec(found, n).det() % p != 0
        return found

    @pytest.mark.parametrize("p", [11, 13, 17])
    def test_agrees_with_exhaustive_walk(self, p):
        rng = random.Random(p)
        outcomes = []
        for _ in range(60):
            n, dim = rng.randint(2, 3), rng.randint(1, 3)
            gens = _seeded_span(rng, n, dim, p)
            outcomes.append(self.check(gens, p, n, p ** rng.randint(1, 2)) is None)
        assert 10 <= sum(outcomes) <= 50

    def test_span_without_unit(self):
        # every first column is zero, and so is every determinant
        n, p = 3, 11
        rng = random.Random(0)
        gens = [vec(IntMatrix([[0] + [rng.randrange(p) for _ in range(n - 1)]
                               for _ in range(n)])) for _ in range(3)]
        assert self.check(gens, p, n, p) is None

    def test_lead_line_unit_at_coefficient_n(self, det_mod_calls):
        # b0 = [[1, 0], [0, 0]] and b1 = [[0, -1], [1, -1]] have
        # det(b0 + t b1) = t(t - 1) at n = 2: on the line of the first lead
        # the only unit with t in {0, ..., n} is at t = n.  The walk visits
        # the later lead first, and det b1 = 1, the leading coefficient of
        # t(t - 1), makes b1 the witness.
        n, p = 2, 13
        b0, b1 = IntMatrix([[1, 0], [0, 0]]), IntMatrix([[0, -1], [1, -1]])
        assert [(b0 + t * b1).det() for t in range(n + 1)] == [0, 0, 2]
        found = self.check([vec(b0), vec(b1)], p, n, p)
        assert found == tuple(x % p for x in vec(b1))
        assert det_mod_calls == [p]

    def test_first_hit_is_that_of_the_walk_below_n_plus_one(self):
        # the same first hit as tails below min(p, n + 1), on generators as
        # given: some are combinations of the others, so dim exceeds the
        # rank, and some pencils first hit a unit at coefficient n - 1
        rng = random.Random(26)
        outcomes = {"hit": 0, "none": 0, "dependent": 0, "p > n": 0, "late": 0}
        for _ in range(240):
            n, p = rng.randint(2, 4), rng.choice([2, 3, 5, 7, 11, 13])
            late = rng.random() < 0.25
            if late:
                gens = _late_pencil(rng, n, p)
                want = tuple((x + (n - 1) * y) % p for x, y in zip(*gens))
            else:
                gens = _seeded_span(rng, n, rng.randint(1, 4), p)
            if len(gens) > 1 and rng.random() < 0.4:
                k = rng.randrange(len(gens))
                others = gens[:k] + gens[k + 1:]
                coeffs = [rng.randrange(-p, p) for _ in others]
                gens[k] = tuple(sum(c * g[i] for c, g in zip(coeffs, others))
                                for i in range(n * n))
                outcomes["dependent"] += 1
                late = False
            modulus = p ** rng.randint(1, 2)
            found = self.check(gens, p, n, modulus)
            assert found == projective_walk(gens, p, n, modulus, min(p, n + 1)), gens
            if late and p >= n:
                assert found is not None and tuple(x % p for x in found) == want
                outcomes["late"] += 1
            outcomes["none" if found is None else "hit"] += 1
            outcomes["p > n"] += p > n
        assert min(outcomes.values()) >= 25, outcomes


def _late_pencil(rng: random.Random, n: int, p: int) -> list[tuple[int, ...]]:
    """[g0, g1] = [U D0 V, U D1 V] with U, V invertible mod p, D1 =
    diag(0, 1, ..., 1) singular and D0 = diag(1, 0, -1, ..., 2 - n), so
    det(g0 + t g1) is a unit times t (t - 1) ... (t - n + 2): for p >= n the
    walk's first unit is g0 + (n - 1) g1, and for p < n there is none."""
    def invertible():
        while True:
            m = IntMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            if m.det() % p:
                return m
    u, v = invertible(), invertible()
    d0 = IntMatrix.diagonal([1] + [-i for i in range(n - 1)])
    d1 = IntMatrix.diagonal([0] + [1] * (n - 1))
    return [vec(u @ d0 @ v), vec(u @ d1 @ v)]


class TestSpanNullVector:
    """Negatives by a nonzero vector that every intertwiner mod p kills, on
    the right or on the left."""

    @pytest.mark.parametrize("n,p", [(7, 11), (6, 13), (8, 11)])
    def test_mid_prime_negatives_without_search(self, det_mod_calls, n, p):
        # the walk would visit (p^dim - 1) / (p - 1) points: 1.95M at n = 7,
        # p = 11
        a = scalar_shifted(1, p, 1, f"t^{n}-t-1")
        b = conjugate_exact(a, IntMatrix.diagonal([p] + [1] * (n - 1)))
        assert b is not None
        assert not conjugate_over_Zp(a, b, p).conjugate
        v = conjugate_over_all_Zp(a, b)
        assert not v.conjugate and v.screened == (p,)
        assert det_mod_calls == []

    # the pairs of test_bridge.py::TestPrimeByPrimeAgreement, then
    # unimodular positives
    PAIRS = [
        *((f, s, seed) for seed in (0, 1) for f, s in PRIME_BY_PRIME_PAIRS),
        *((f, "unimodular", seed) for seed in (0, 1)
          for f in ("t^3-t-1", "t^3-4t-1", "t^4+3", "t^4-10t^2+1")),
    ]

    @pytest.mark.parametrize("f_text,strategy,seed", PAIRS)
    def test_agrees_with_walk_and_never_fires_on_conjugates(
        self, monkeypatch, f_text, strategy, seed
    ):
        pair = generate_pair(parse_poly(f_text), strategy, seed)
        a, b = pair.a, pair.b
        primes = sorted({2, 3, 5, 7, *screen_primes(charpoly(a))})
        for p in primes:
            fired = span_test(a, b, p)
            walk = walk_only(monkeypatch, conjugate_over_Zp, a, b, p)
            assert not (fired and walk.conjugate), p
            assert conjugate_over_Zp(a, b, p) == walk
            if strategy == "unimodular":
                assert walk.conjugate
        assert conjugate_over_all_Zp(a, b) == walk_only(
            monkeypatch, conjugate_over_all_Zp, a, b
        )

    @pytest.mark.parametrize("k", [1, 2])
    def test_agrees_with_walk_on_scalar_shifted(self, monkeypatch, k):
        p = 5
        a = scalar_shifted(1, p, k, "t^3-t-1")
        b = conjugate_exact(a, IntMatrix.diagonal([p, 1, 1]))
        assert conjugate_over_Zp(a, b, p) == walk_only(
            monkeypatch, conjugate_over_Zp, a, b, p
        )
        assert span_test(a, b, p)


class TestVerifyCert:
    def test_identity_cert(self):
        a = parse_poly("t^2+3").companion()
        v = conjugate_over_Zp(a, a, 5)
        assert verify_cert(a, a, v.certificate)

    def test_tampered_unit_mod(self):
        a, b, _ = pair_with_conjugate(parse_poly("t^2+3").companion(), 3)
        v = conjugate_over_Zp(a, b, 2)
        cert = v.certificate
        rows = cert.x.to_lists()
        rows[0][0] += 1
        bad = UnitModCert(IntMatrix(rows), cert.prime, cert.modulus)
        assert not verify_cert(a, b, bad)

    def test_tampered_modulus(self):
        a, b, _ = pair_with_conjugate(scalar_shifted(1, 2, 1, "t^2-t-1"), 7)
        v = conjugate_over_Zp(a, b, 2)
        bad = UnitModCert(v.certificate.x, 2, v.certificate.modulus * 2)
        assert not verify_cert(a, b, bad)

    def test_integer_pair_roundtrip(self):
        pair = generate_pair(parse_poly("t^3-4t-1"), "unimodular", 3)
        v = conjugate_over_all_Zp(pair.a, pair.b)
        assert v.conjugate and v.certificate is not None
        assert verify_cert(pair.a, pair.b, v.certificate)
        rows = v.certificate.q.to_lists()
        rows[1][1] += 1
        assert not verify_cert(
            pair.a, pair.b, IntegerPairCert(IntMatrix(rows), v.certificate.s)
        )


class TestCompanionTest:
    def test_companion_itself(self):
        for text in ("t^2+3", "t^3-t-1"):
            c = parse_poly(text).companion()
            for p in (2, 3, 5):
                assert companion_test(c, p)

    def test_squarefree_mod_p_shortcut(self):
        # t^2+3 is squarefree mod 5, so every matrix with that polynomial
        # is similar to the companion at 5
        assert companion_test(CLASSIC_B, 5)

    def test_classic_fails_at_two(self):
        assert not companion_test(CLASSIC_B, 2)

    def test_agrees_with_brute_force_and_engine(self, corpus40):
        for a, _ in corpus40[:8]:
            c = charpoly(a).companion()
            for p in (2, 3):
                expected = brute_companion_test(a, p)
                assert companion_test(a, p) == expected
                assert conjugate_over_Zp(a, c, p).conjugate == expected


class TestEllInvariant:
    def test_forced_by_construction(self):
        m = parse_poly("t^2-t-1").companion()
        a = 3 * IntMatrix.identity(2) + 4 * m  # scalar + 2^2 * non-scalar
        inv = ell_invariant(a, 2)
        assert inv.ell == 2

    def test_zero_when_not_scalar_mod_p(self):
        assert ell_invariant(CLASSIC_A, 2).ell == 0

    def test_classic_b_is_scalar_mod_two(self):
        assert ell_invariant(CLASSIC_B, 2).ell == 1

    def test_non_2x2_rejected(self):
        with pytest.raises(ValueError):
            ell_invariant(IntMatrix.identity(3), 2)

    def test_scalar_matrix_rejected(self):
        with pytest.raises(ValueError):
            ell_invariant(2 * IntMatrix.identity(2), 3)

    def test_equal_ell_implies_conjugate(self):
        rng = random.Random(19)
        a = scalar_shifted(1, 2, 1, "t^2+3")
        for seed in range(4):
            m = random_unimodular(2, rng)
            b = conjugate_exact(a, m)
            for p in screen_primes(charpoly(a)):
                assert ell_invariant(a, p).ell == ell_invariant(b, p).ell
                assert conjugate_over_Zp(a, b, p).conjugate

    def test_different_ell_implies_not_conjugate(self):
        assert ell_invariant(CLASSIC_A, 2).ell != ell_invariant(CLASSIC_B, 2).ell
        assert not conjugate_over_Zp(CLASSIC_A, CLASSIC_B, 2).conjugate


class TestScreenPrimes:
    def test_golden_empty(self):
        assert screen_primes(parse_poly("t^2-t-1")) == []

    def test_t2_plus_3(self):
        assert screen_primes(parse_poly("t^2+3")) == [2]

    def test_cubic_empty(self):
        assert screen_primes(parse_poly("t^3-t-1")) == []

    def test_dedekind_cubic(self):
        assert screen_primes(parse_poly("t^3-t^2-2t-8")) == [2]

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            screen_primes(parse_poly("t^2-1"))

    def test_unscreened_primes_never_fail(self, corpus40):
        for a, b in corpus40[:10]:
            screen = set(screen_primes(charpoly(a)))
            for p in (2, 3, 5):
                if p not in screen:
                    assert conjugate_over_Zp(a, b, p).conjugate
