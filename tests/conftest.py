"""Shared fixtures and corpus builders."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from localconj import (
    FieldElement,
    IntMatrix,
    NumberField,
    SNFDecomposition,
    SylvesterOperator,
    charpoly,
    generate_pair,
    parse_poly,
    random_unimodular,
)
import localconj.conjugacy as conjugacy
import localconj.intmat as intmat
import localconj.primes as primes
from localconj.gen import conjugate_exact
from localconj.sylvester import ReducedPair

QUADRATIC_FIELDS = ("t^2-t-1", "t^2+3", "t^2-2", "t^2+2")
BRIDGE_FIELDS = ("t^2-t-1", "t^2+3", "t^3-t-1", "t^3-4t-1")
# (field, generate_pair strategy) at n = 4, 5, generated with seeds 0 and 1,
# on which both decision paths are compared prime by prime
PRIME_BY_PRIME_PAIRS = (
    ("t^4+3", "singular:2"),
    ("t^4-10t^2+1", "singular:2"),
    ("t^4+3", "singular:3"),
    ("t^5-2", "singular:2"),
    ("t^5-2", "singular:3"),
    ("t^5-2", "unimodular"),
)


def M(*rows) -> IntMatrix:
    return IntMatrix(rows)


def P(text: str):
    return parse_poly(text)


@pytest.fixture
def snf_builds(monkeypatch):
    """Shapes of the Smith normal forms built while the test runs."""
    built = []
    check = SNFDecomposition.__post_init__

    def counting(self):
        built.append(self.original.shape)
        check(self)

    monkeypatch.setattr(SNFDecomposition, "__post_init__", counting)
    return built


@pytest.fixture
def charpolys(monkeypatch):
    """Matrices whose characteristic polynomial the package takes while the
    test runs."""
    taken = []

    def counting(m):
        taken.append(m)
        return charpoly(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("localconj.") and getattr(module, "charpoly", None) is charpoly:
            monkeypatch.setattr(module, "charpoly", counting)
    return taken


@pytest.fixture
def field_inversions(monkeypatch):
    """Number-field elements inverted while the test runs."""
    inverted = []
    inverse = FieldElement.inverse

    def counting(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    return inverted


@pytest.fixture
def field_elements(monkeypatch):
    """Number-field elements constructed while the test runs."""
    built = []
    init = FieldElement.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    return built


@pytest.fixture
def det_shapes(monkeypatch):
    """Shapes of the Bareiss determinants taken while the test runs."""
    taken = []
    bareiss = intmat.det

    def counting(m):
        taken.append(m.shape)
        return bareiss(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("localconj.") and getattr(module, "det", None) is bareiss:
            monkeypatch.setattr(module, "det", counting)
    return taken


@pytest.fixture
def hnf_row_counts(monkeypatch):
    """Numbers of rows of the Hermite forms `intmat._hnf_rows` takes while
    the test runs."""
    taken = []
    hnf = intmat._hnf_rows

    def counting(rows, ncols):
        rows = list(rows)
        taken.append(len(rows))
        return hnf(rows, ncols)

    for name, module in list(sys.modules.items()):
        if name.startswith("localconj.") and getattr(module, "_hnf_rows", None) is hnf:
            monkeypatch.setattr(module, "_hnf_rows", counting)
    return taken


@pytest.fixture
def solve_shapes(monkeypatch):
    """Shapes of the matrices exact solves ran on while the test runs."""
    taken = []
    solve = intmat.solve

    def counting(m, rhs):
        taken.append(m.shape)
        return solve(m, rhs)

    for name, module in list(sys.modules.items()):
        if name.startswith("localconj.") and getattr(module, "solve", None) is solve:
            monkeypatch.setattr(module, "solve", counting)
    return taken


@pytest.fixture
def divisor_calls(monkeypatch):
    """Integers whose divisors were listed while the test runs."""
    listed = []
    divisors = primes.divisors

    def counting(n):
        listed.append(n)
        return divisors(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("localconj.") and getattr(module, "divisors", None) is divisors:
            monkeypatch.setattr(module, "divisors", counting)
    return listed


@pytest.fixture
def det_mod_calls(monkeypatch):
    """Primes of the determinants mod p taken while the test runs: one per
    point the unit-determinant search visits."""
    calls = []
    det_mod = conjugacy._det_mod

    def counting(rows, p):
        calls.append(p)
        return det_mod(rows, p)

    monkeypatch.setattr(conjugacy, "_det_mod", counting)
    return calls


@pytest.fixture(scope="session")
def field_t2p3() -> NumberField:
    return NumberField(parse_poly("t^2+3"))


# the classic pair: companion of t^2+3 versus multiplication by beta on the
# non-invertible lattice 2Z + (1+beta)Z; conjugate at every odd prime, not
# conjugate at 2
CLASSIC_A = IntMatrix([[0, 1], [-3, 0]])
CLASSIC_B = IntMatrix([[-1, 2], [-2, 1]])


def walk_only(monkeypatch, decide, *args):
    """The verdict of `decide` with the span test taken out, and with it the
    rejections of the reduced pair that answer early, so that only the
    unit-determinant walk can reject."""
    with monkeypatch.context() as m:
        m.setattr(conjugacy, "_span_shares_a_null_vector", lambda *_: False)
        m.setattr(ReducedPair, "settled", property(
            lambda red: True if red.krylov_a is not None and red.krylov_b is not None else None
        ))
        return decide(*args)


def span_test(a: IntMatrix, b: IntMatrix, p: int) -> bool:
    """True when every intertwiner of (a, b) mod p kills one common vector."""
    return conjugacy._span_shares_a_null_vector(
        SylvesterOperator(a, b).intertwiners, p, a.rows
    )


def scalar_shifted(lam: int, p: int, k: int, g_text: str) -> IntMatrix:
    """lam * I + p^k * companion(g): congruent to a scalar mod p^k, which
    forces mu >= k for pairs of such matrices."""
    g = parse_poly(g_text)
    c = g.companion()
    n = c.rows
    return lam * IntMatrix.identity(n) + (p**k) * c


def pair_with_conjugate(a: IntMatrix, seed: int, singular: int | None = None):
    """a together with an integral conjugate; singular=p conjugates by a
    matrix of determinant +-p or +-p^2 when one exists."""
    rng = random.Random(seed)
    n = a.rows
    if singular is None:
        m = random_unimodular(n, rng)
        b = conjugate_exact(a, m)
        assert b is not None
        return a, b, m
    targets = {singular, singular * singular}
    for _ in range(20000):
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if abs(m.det()) not in targets:
            continue
        b = conjugate_exact(a, m)
        if b is not None:
            return a, b, m
    m = singular * random_unimodular(n, rng)
    b = conjugate_exact(a, m)
    assert b is not None
    return a, b, m


def wide_pair(n: int, seed: int, bits: int = 32) -> tuple[IntMatrix, IntMatrix]:
    """A seeded n x n matrix with entries below 2^bits in absolute value,
    and a unimodular conjugate of it."""
    rng = random.Random(seed)
    bound = 2**bits
    a = IntMatrix([[rng.randrange(-bound, bound) for _ in range(n)] for _ in range(n)])
    a, b, _ = pair_with_conjugate(a, seed)
    return a, b


def quadratic_corpus(max_mu_budget: int = 600_000) -> list[tuple[IntMatrix, IntMatrix]]:
    """Fixed 40-pair corpus of 2x2 same-characteristic-polynomial pairs whose
    brute-force budget p^(4(mu+1)) stays affordable for p in {2, 3}."""
    pairs: list[tuple[IntMatrix, IntMatrix]] = []

    def admit(a, b) -> bool:
        if charpoly(a) != charpoly(b):
            return False
        op = SylvesterOperator(a, b)
        for p in (2, 3):
            if p ** (4 * (op.mu(p) + 1)) > max_mu_budget:
                return False
        return True

    for f_text in QUADRATIC_FIELDS:
        f = parse_poly(f_text)
        for strategy in ("unimodular", "singular:2", "singular:3"):
            for seed in range(2):
                pair = generate_pair(f, strategy, seed)
                if admit(pair.a, pair.b):
                    pairs.append((pair.a, pair.b))
    # scalar-congruent matrices exercise mu > 0 at both primes
    shifted_shapes = [
        (1, 2, 1, "t^2-t-1"),
        (2, 3, 1, "t^2-t-1"),
        (1, 2, 2, "t^2-t-1"),
        (1, 3, 1, "t^2+1"),
        (0, 2, 1, "t^2+1"),
        (1, 2, 1, "t^2+3"),
    ]
    for shape in shifted_shapes:
        a = scalar_shifted(*shape)
        for seed in (11, 12):
            for singular in (None, shape[1]):
                _, b, _ = pair_with_conjugate(a, seed, singular)
                if admit(a, b):
                    pairs.append((a, b))
    pairs = pairs[:40]
    assert len(pairs) == 40
    return pairs


def bridge_corpus() -> list[tuple[IntMatrix, IntMatrix, str, str]]:
    """Fixed 60-pair corpus across the four bridge fields and the
    unimodular/singular generation strategies."""
    entries = []
    for f_text in BRIDGE_FIELDS:
        f = parse_poly(f_text)
        strategies = [
            ("unimodular", range(7)),
            ("singular:2", range(4)),
            ("singular:3", range(4)),
        ]
        for strategy, seeds in strategies:
            for seed in seeds:
                pair = generate_pair(f, strategy, seed)
                entries.append((pair.a, pair.b, f_text, strategy))
    entries = entries[:60]
    assert len(entries) == 60
    return entries


@pytest.fixture(scope="session")
def corpus40():
    return quadratic_corpus()


@pytest.fixture(scope="session")
def corpus60():
    return bridge_corpus()
