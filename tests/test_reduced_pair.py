"""The pair reduced at p (`sylvester.ReducedPair`): a = lam I + p^k a' and
b = lam I + p^k b'.  A side is regular when it has a cyclic vector mod p
(`sylvester._cyclic_krylov`, checked here against an exhaustive search),
and one regular side gives mu = k with no n^2 x n^2 work.  That leaves
three cases: a scalar a' or b', or exactly one regular side, is a negative
(reject); two regular sides give the certificate K_a'(w) K_b'(v)^(-1) mod p
with no span and no walk (both regular); and the exact intertwiner basis
decides the rest (general).  Each case against the general one run on every
pair (elimination of the operator, the exact intertwiner basis)."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from localconj import (
    IntMatrix,
    SylvesterOperator,
    charpoly,
    conjugate_over_Zp,
    conjugate_over_all_Zp,
    generate_pair,
    is_irreducible,
    parse_poly,
    random_unimodular,
    verify_cert,
)
from localconj import conjugacy, sylvester
from localconj.cli import conj_p_report, verify_report
from localconj.gen import conjugate_exact
from localconj.sylvester import _cyclic_krylov, _reduce

from conftest import scalar_shifted
from oracles import brute_companion_test
from test_span_negatives import radical_order_pair

FIELDS = ("t^2+3", "t^3-t-1", "t^4+3", "t^5-2", "t^6+t+3", "t^7-3")


def nilpotent_mod_p(n: int, p: int, rng: random.Random) -> IntMatrix:
    """lam I + E_01 + p R with an irreducible characteristic polynomial: at
    n >= 3 neither scalar nor regular mod p."""
    while True:
        rows = [[p * rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        rows[0][1] += 1
        a = rng.randrange(-3, 4) * IntMatrix.identity(n) + IntMatrix(rows)
        if is_irreducible(charpoly(a)):
            return a


def oracle_pairs():
    """(name, a, b) at n = 2..7, each with a unimodular conjugate and with
    its conjugate by diag(p, 1, ..., 1) when that is integral: C(f) in a
    seeded basis, lam I + p^k C(f) (k = 1, and k = 2 for a scalar mod p^2),
    and at n = 3, 4 a matrix y that is neither scalar nor cyclic mod p; then
    lam I + p^k C(g) against lam I + p^k y, with g the characteristic
    polynomial of y, and generated unimodular and singular:p pairs."""
    rng = random.Random(2311)
    for field in FIELDS:
        f = parse_poly(field)
        n = f.degree
        diag = {p: IntMatrix.diagonal([p] + [1] * (n - 1)) for p in (2, 3, 5)}
        for p in (2, 3, 5):
            starts = [
                (f"{k}", scalar_shifted(rng.randrange(-3, 4), p, k, field)) for k in (0, 1, 2)
            ]
            if 3 <= n <= 4:
                starts.append(("E01", nilpotent_mod_p(n, p, rng)))
            for kind, a in starts:
                a = conjugate_exact(a, random_unimodular(n, rng))
                for name, m in (("unimodular", random_unimodular(n, rng)), ("diag", diag[p])):
                    b = conjugate_exact(a, m)
                    if b is not None:
                        yield f"{field}/{kind}/{p}/{name}", a, b
            if 3 <= n <= 4:
                # C(g) is regular mod p and y is not: never conjugate
                y = nilpotent_mod_p(n, p, rng)
                c = charpoly(y).companion()
                for k in (0, 1):
                    lam = rng.randrange(-3, 4) * IntMatrix.identity(n)
                    yield f"{field}/C-against-E01/{p}^{k}", lam + p**k * c, lam + p**k * y
        for strategy in ("unimodular", "singular:2", "singular:3"):
            pair = generate_pair(f, strategy, n)
            yield f"{field}/{strategy}", pair.a, pair.b


def seeded_pairs():
    """(name, a, b, p): lam I + p^k C(f) in a seeded basis against a
    unimodular conjugate, at k = 0, 1, 2 and p = 2, 3, 5, 7."""
    rng = random.Random(2412)
    for field in FIELDS:
        n = parse_poly(field).degree
        for p in (2, 3, 5, 7):
            for k in (0, 1, 2):
                a = scalar_shifted(rng.randrange(-3, 4), p, k, field)
                a = conjugate_exact(a, random_unimodular(n, rng))
                yield f"{field}/{k}/{p}", a, conjugate_exact(a, random_unimodular(n, rng)), p


def route(op: SylvesterOperator, p: int) -> str:
    if op.a == op.b:
        return "equal"
    red = op.reduced(p)
    if red.scalar:
        return "scalar"
    regular = (red.krylov_a is not None) + (red.krylov_b is not None)
    if regular == 1:
        return "one regular"
    if regular == 0:
        return "general"
    return "both regular, k = 0" if red.level == 0 else "both regular, k > 0"


@pytest.fixture
def general_path(monkeypatch):
    """A function that runs its argument with every reduced pair marked
    neither scalar nor regular, so that mu comes from the elimination and
    the decision from the exact intertwiner basis."""

    def run(thunk):
        with monkeypatch.context() as m:
            m.setattr(sylvester, "_reduce", lambda *args: replace(_reduce(*args), scalar=False))
            m.setattr(sylvester, "_cyclic_krylov", lambda *_: None)
            return thunk()

    return run


def claims(v) -> tuple:
    """A verdict without its certificates: the two routes may find
    different ones."""
    return (v.conjugate, v.prime, v.mu_used, v.screened, tuple(map(claims, v.per_prime)))


def certified(a: IntMatrix, b: IntMatrix, v) -> bool:
    """Every certificate of the verdict passes `verify_cert`."""
    certs = [w.certificate for w in (v, *v.per_prime) if w.certificate is not None]
    return (v.certificate is None) != v.conjugate and all(verify_cert(a, b, c) for c in certs)


def is_unit_vector(v) -> bool:
    return sorted(v) == [0] * (len(v) - 1) + [1]


def first_column(m: IntMatrix) -> tuple[int, ...]:
    return tuple(row[0] for row in m.entries)


class TestAgainstTheGeneralPath:
    def test_verdict_mu_profile_and_certificate(self, general_path):
        routes = Counter()
        for name, a, b in oracle_pairs():
            for p in (2, 3, 5, 7):
                if a.rows >= 6 and p == 7:
                    continue  # the general walk at n >= 6, p = 7 is slow
                op = SylvesterOperator(a, b)
                got = conjugacy._decide_at_prime(op, p)
                general = SylvesterOperator(a, b)
                want = general_path(lambda: conjugacy._decide_at_prime(general, p))
                assert claims(got) == claims(want), (name, p)
                assert op.p_profile(p) == general.p_profile(p), (name, p)
                assert certified(a, b, got) and certified(a, b, want), (name, p)
                routes[route(op, p), got.conjugate] += 1
        # every case is taken, with both verdicts where both can occur
        assert {key for key, count in routes.items() if count >= 2} == {
            ("both regular, k = 0", True), ("both regular, k > 0", True),
            ("one regular", False), ("scalar", False),
            ("general", True), ("general", False), ("equal", True),
        }, routes

    @pytest.mark.parametrize("field", ["t^2+3", "t^4+3", "t^5-2"])
    def test_conj_all_and_pair_certificate(self, general_path, field):
        for strategy in ("unimodular", "singular:2", "singular:3"):
            pair = generate_pair(parse_poly(field), strategy, 1)
            got = conjugate_over_all_Zp(pair.a, pair.b)
            want = general_path(lambda: conjugate_over_all_Zp(pair.a, pair.b))
            assert claims(got) == claims(want)
            assert certified(pair.a, pair.b, got) and certified(pair.a, pair.b, want)


class TestBothRegular:
    """When a' and b' are both regular mod p, the decision is the Krylov
    witness K_a'(w) K_b'(v)^(-1) mod p."""

    def test_every_exit_is_a_positive_of_the_general_path(self, general_path):
        decisions = [
            (name, a, b, p)
            for name, a, b in oracle_pairs()
            for p in (2, 3, 5, 7)
            if not (a.rows >= 6 and p == 7)
        ]
        decisions += list(seeded_pairs())
        taken = Counter()
        for name, a, b, p in decisions:
            for x, y in ((a, b), (b.transpose(), a.transpose())):
                op = SylvesterOperator(x, y)
                if not route(op, p).startswith("both regular"):
                    continue
                red = op.reduced(p)
                got = conjugacy._decide_at_prime(op, p)
                general = SylvesterOperator(x, y)
                want = general_path(lambda: conjugacy._decide_at_prime(general, p))
                assert want.conjugate and claims(got) == claims(want), (name, p)
                assert op.p_profile(p) == general.p_profile(p), (name, p)
                cert = got.certificate
                assert cert.x == (red.krylov_a[0] @ red.krylov_b[1]).mod(p)
                assert cert.modulus == p ** (got.mu_used + 1)
                assert verify_cert(x, y, cert), (name, p)
                units = all(is_unit_vector(first_column(k[0])) for k in (red.krylov_a, red.krylov_b))
                taken[red.level > 0, units] += 1
        # levels 0 and above, and sides whose cyclic vector is no unit vector
        assert {key for key, count in taken.items() if count >= 2} >= {
            (False, True), (True, True), (False, False)
        }, taken


def krylov_columns(m: IntMatrix, v, p: int) -> list[tuple[int, ...]]:
    cols = [tuple(x % p for x in v)]
    for _ in range(m.rows - 1):
        cols.append(tuple(x % p for x in m.mul_vec(cols[-1])))
    return cols


class TestCyclicKrylov:
    """`_cyclic_krylov` is None exactly when an exhaustive search of F_p^n
    finds no cyclic vector; otherwise it is the Krylov matrix of a nonzero
    vector with its inverse mod p."""

    def matrices(self):
        for n, p in ((2, 2), (3, 2), (2, 3)):
            for entries in product(range(p), repeat=n * n):
                yield IntMatrix([list(entries[i * n:(i + 1) * n]) for i in range(n)]), p
        rng = random.Random(2501)
        for n, p, count in ((3, 3, 400), (4, 2, 400)):
            for _ in range(count):
                yield IntMatrix([[rng.randrange(-p, 2 * p) for _ in range(n)]
                                 for _ in range(n)]), p

    def test_agrees_with_exhaustive_search(self):
        outcomes = Counter()
        for m, p in self.matrices():
            found = _cyclic_krylov(m, p)
            assert (found is not None) == brute_companion_test(m, p), (m, p)
            if found is None:
                outcomes["derogatory"] += 1
                continue
            k, inverse = found
            v = first_column(k)
            assert any(v) and all(0 <= x < p for x in v)
            assert list(zip(*k.entries)) == krylov_columns(m, v, p), (m, p)
            assert (k @ inverse).mod(p) == IntMatrix.identity(m.rows), (m, p)
            outcomes["unit vector" if is_unit_vector(v) else "grid"] += 1
        # the grid serves regular matrices with no cyclic unit vector
        assert min(outcomes.values()) >= 10, outcomes

    def test_scalar_is_derogatory_and_one_by_one_is_regular(self):
        assert _cyclic_krylov(IntMatrix([[3, 5], [10, 8]]), 5) is None
        assert _cyclic_krylov(IntMatrix([[4]]), 2) == (IntMatrix([[1]]), IntMatrix([[1]]))


class TestReduction:
    def test_level_and_reduced_matrices(self):
        # a = 2 I + 9 C(g) and a conjugate: the common scalar part is 2 I
        # and the level at 3 is 2
        a = scalar_shifted(2, 3, 2, "t^3-t-1")
        b = conjugate_exact(a, random_unimodular(3, random.Random(0)))
        red = _reduce(a, b, 3)
        assert red.level == 2
        assert 2 * IntMatrix.identity(3) + 9 * red.a == a
        assert 2 * IntMatrix.identity(3) + 9 * red.b == b
        assert not red.scalar and red.krylov_b is not None
        assert _reduce(a, b, 5).level == 0

    def test_scalar_side_is_never_regular(self):
        # a = I + 5 C reduces to 5 C, zero mod 5, against b' with entries
        # prime to 5
        p = 5
        a = scalar_shifted(1, p, 1, "t^3-t-1")
        b = conjugate_exact(a, IntMatrix.diagonal([p, 1, 1]))
        red = _reduce(a, b, p)
        assert red.level == 0 and red.scalar
        assert red.krylov_a is None

    def test_one_by_one_pair_has_no_factors(self):
        op = SylvesterOperator(IntMatrix([[5]]), IntMatrix([[5]]))
        profile = op.p_profile(2)
        assert (profile.exponents, profile.mu) == ((), 0)

    def test_mu_leaves_a_prime_unsearched_when_b_prime_is_regular(self):
        pair = generate_pair(parse_poly("t^5-2"), "unimodular", 0)
        op = SylvesterOperator(pair.a, pair.b)
        assert op.mu(5) == 0
        red = op.reduced(5)
        assert red.krylov_b is not None and "krylov_a" not in vars(red)


class TestNoOperatorWork:
    @pytest.fixture
    def work(self, monkeypatch):
        """(rows, width) of every elimination over Z/p^k, the operator's
        being n^2 x n^2, the number of exact intertwiner bases built, of
        determinants the walk took and of span tests run while the test
        runs."""
        done = {"echelon": [], "intertwiners": 0, "det_mod": 0, "span_test": 0}
        echelon = sylvester._echelon_fp
        basis = SylvesterOperator.intertwiners.func
        det_mod, span_test = conjugacy._det_mod, conjugacy._span_shares_a_null_vector

        def counting_echelon(rows, p, width, k=1):
            done["echelon"].append((len(rows), width))
            return echelon(rows, p, width, k)

        def counting(key, func):
            def run(*args):
                done[key] += 1
                return func(*args)
            return run

        monkeypatch.setattr(sylvester, "_echelon_fp", counting_echelon)
        monkeypatch.setattr(conjugacy, "_echelon_fp", counting_echelon)
        monkeypatch.setattr(SylvesterOperator, "intertwiners",
                            property(counting("intertwiners", basis)))
        monkeypatch.setattr(conjugacy, "_det_mod", counting("det_mod", det_mod))
        monkeypatch.setattr(conjugacy, "_span_shares_a_null_vector",
                            counting("span_test", span_test))
        return done

    @pytest.mark.parametrize("field,strategy,p", [
        ("t^5-7", "unimodular", 7),  # search-deep mu = 0, positive
        ("t^5-2", "singular:2", 2),
        ("t^4+3", "singular:2", 2),  # negative: one side regular
    ])
    def test_cyclic_conj_p_makes_no_operator_elimination_and_no_basis(
        self, work, field, strategy, p
    ):
        pair = generate_pair(parse_poly(field), strategy, 0)
        n = pair.a.rows
        red = SylvesterOperator(pair.a, pair.b).reduced(p)
        assert red.level == 0 and (red.krylov_a, red.krylov_b) != (None, None)
        report = conj_p_report(pair.a, pair.b, "a", "b", p)
        assert report["verdict"]["mu"] == 0
        assert (n * n, n * n) not in work["echelon"]
        assert work["intertwiners"] == 0

    def test_positive_with_mu_one_lifts_through_the_exact_basis(self, work):
        # lam I + 5 C(g) and a unimodular conjugate: k = 1, both regular,
        # mu = 1; the witness mod 5 is a certificate mod 25 as it stands
        p = 5
        a = scalar_shifted(2, p, 1, "t^5-t-1")
        b = conjugate_exact(a, random_unimodular(5, random.Random(1)))
        v = conjugate_over_Zp(a, b, p)
        assert (v.conjugate, v.mu_used, v.certificate.modulus) == (True, 1, 25)
        assert all(0 <= x < p for row in v.certificate.x.entries for x in row)
        assert (25, 25) not in work["echelon"]
        assert work["intertwiners"] == 0

    @pytest.mark.parametrize("field,p", [
        ("t^5-7", 7),  # search-deep mu = 0, positive
        ("t^5-2", 5),
        ("t^7-3", 7),
    ])
    def test_both_cyclic_conj_p_makes_no_walk_span_or_basis(self, work, field, p):
        pair = generate_pair(parse_poly(field), "unimodular", 0)
        n = pair.a.rows
        op = SylvesterOperator(pair.a, pair.b)
        assert route(op, p).startswith("both regular")
        work.update(echelon=[], det_mod=0)
        report = conj_p_report(pair.a, pair.b, "a", "b", p)
        assert report["verdict"]["conjugate"]
        assert (n * n, n * n) not in work["echelon"]
        assert (work["det_mod"], work["intertwiners"], work["span_test"]) == (0, 0, 0)

    def test_regular_side_without_cyclic_unit_vector_makes_no_walk(self, work):
        # b' = b + I has no cyclic unit vector mod 2 but is regular there:
        # its cyclic vector comes from the grid
        a = IntMatrix([[-1, 2, 0], [2, 0, -2], [-1, -1, 2]])
        b = IntMatrix([[0, 2, -2], [2, -1, 0], [-1, -1, 2]])
        p = 2
        op = SylvesterOperator(a, b)
        red = op.reduced(p)
        assert all(IntMatrix(krylov_columns(red.b, e, p)).det() % p == 0
                   for e in IntMatrix.identity(3).entries)
        assert red.krylov_b is not None and not is_unit_vector(first_column(red.krylov_b[0]))
        work.update(echelon=[], det_mod=0)
        v = conjugate_over_Zp(a, b, p)
        assert v.conjugate and verify_cert(a, b, v.certificate)
        assert (work["det_mod"], work["intertwiners"], work["span_test"]) == (0, 0, 0)

    def test_one_sided_regular_negative_makes_no_span_test(self, work):
        # C(t^5 - 4 * 5) against beta on a larger order: a' is regular mod 2
        # and b' is not, so the reduced pair rejects with no span test
        a, b = radical_order_pair(5, 2, 2, 5, 7)
        op = SylvesterOperator(a, b)
        red = op.reduced(2)
        assert not red.scalar and red.krylov_a is not None and red.krylov_b is None
        v = conjugate_over_Zp(a, b, 2)
        assert not v.conjugate
        assert (work["det_mod"], work["intertwiners"], work["span_test"]) == (0, 0, 0)


class TestVerifyNegativeStanza:
    """`verify` checks a negative stanza from the reduced pair when it
    settles the verdict: two regular sides are conjugate with no
    certificate built, and only the general route decides afresh."""

    @pytest.fixture
    def decisions(self, monkeypatch):
        decided = []
        decide = conjugacy._decide_at_prime

        def counting(op, p):
            decided.append(p)
            return decide(op, p)

        monkeypatch.setattr(conjugacy, "_decide_at_prime", counting)
        return decided

    @staticmethod
    def flipped(a: IntMatrix, b: IntMatrix, p: int) -> dict:
        report = conj_p_report(a, b, "a", "b", p)
        assert report["verdict"]["conjugate"]
        report["verdict"]["conjugate"] = False
        report["certificate"] = None
        return report

    @pytest.mark.parametrize("field,p", [("t^5-7", 7), ("t^5-2", 5), ("t^7-3", 7)])
    def test_both_regular_flip_builds_no_certificate(self, decisions, det_shapes, field, p):
        pair = generate_pair(parse_poly(field), "unimodular", 0)
        assert route(SylvesterOperator(pair.a, pair.b), p).startswith("both regular")
        report = self.flipped(pair.a, pair.b, p)
        decisions.clear()
        det_shapes.clear()
        assert verify_report(report, pair.a, pair.b) == (
            False, "negative verdict but the pair is conjugate there"
        )
        assert (decisions, det_shapes) == ([], [])

    def test_general_route_flip_is_decided_afresh(self, decisions):
        rng = random.Random(2701)
        p = 3
        a = nilpotent_mod_p(3, p, rng)
        b = conjugate_exact(a, random_unimodular(3, rng))
        assert route(SylvesterOperator(a, b), p) == "general"
        report = self.flipped(a, b, p)
        decisions.clear()
        assert verify_report(report, a, b) == (
            False, "negative verdict but the pair is conjugate there"
        )
        assert decisions == [p]


class TestSettled:
    """`ReducedPair.settled` on each case that `route` names, and the
    decision and the verdict-only check agreeing with it."""

    def cases(self):
        rng = random.Random(2701)
        a = nilpotent_mod_p(3, 3, rng)
        yield "general", a, conjugate_exact(a, random_unimodular(3, rng)), 3, None
        pair = generate_pair(parse_poly("t^5-2"), "unimodular", 0)
        yield "both regular, k = 0", pair.a, pair.b, 5, True
        a, b = radical_order_pair(5, 2, 2, 5, 7)
        yield "one regular", a, b, 2, False
        a = scalar_shifted(1, 5, 1, "t^3-t-1")
        yield "scalar", a, conjugate_exact(a, IntMatrix.diagonal([5, 1, 1])), 5, False

    def test_each_case(self):
        for name, a, b, p, want in self.cases():
            op = SylvesterOperator(a, b)
            assert route(op, p) == name
            assert op.reduced(p).settled is want, name
            verdict = conjugacy._decide_at_prime(op, p).conjugate
            assert conjugacy._conjugate_at_prime(op, p) == verdict, name
            if want is not None:
                assert verdict == want, name

    @pytest.mark.parametrize("p", [2, 5])
    def test_one_by_one_pair_is_conjugate_though_its_reduced_pair_is_scalar(self, p):
        a = IntMatrix([[5]])
        op = SylvesterOperator(a, a)
        assert op.reduced(p).scalar and op.reduced(p).settled is False
        assert conjugate_over_Zp(a, a, p).conjugate
        assert conjugacy._conjugate_at_prime(op, p)
