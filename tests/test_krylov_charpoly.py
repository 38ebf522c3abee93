"""The characteristic polynomial from one Krylov solve against the
Faddeev-LeVerrier recurrence and against det(xI - a) by cofactor expansion,
on seeded random matrices and on matrices where e_1 is not cyclic, where the
recurrence is the answer."""

from __future__ import annotations

import random

import pytest

from localconj import IntMatrix, charpoly, parse_poly
from localconj import polyfield
from localconj.intmat import _krylov, det
from localconj.polyfield import _faddeev_leverrier

from oracles import laplace_det


@pytest.fixture
def recurrences(monkeypatch):
    """Matrices whose characteristic polynomial came from the recurrence."""
    taken = []

    def counting(a):
        taken.append(a)
        return _faddeev_leverrier(a)

    monkeypatch.setattr(polyfield, "_faddeev_leverrier", counting)
    return taken


def krylov_det(a: IntMatrix) -> int:
    return det(_krylov(a, IntMatrix.identity(a.rows).row(0)))


def matches_cofactor_expansion(a: IntMatrix, f) -> bool:
    """f(x) = det(xI - a) at n + 1 points, which fixes a degree-n f."""
    n = a.rows
    return f.degree == n and all(
        f(x) == laplace_det([[x * (i == j) - a[i, j] for j in range(n)] for i in range(n)])
        for x in range(-1, n)
    )


def random_matrices():
    for n in range(1, 9):
        for bits in (3, 32):
            rng = random.Random(f"charpoly/{n}/{bits}")
            bound = 2**bits
            for _ in range(4):
                yield IntMatrix(
                    [[rng.randrange(-bound, bound) for _ in range(n)] for _ in range(n)]
                )


def block_diagonal(*blocks: IntMatrix) -> IntMatrix:
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            rows[at + i][at : at + b.rows] = b.entries[i]
        at += b.rows
    return IntMatrix(rows)


NON_CYCLIC = {
    "zero": IntMatrix.zeros(3, 3),
    "scalar": 7 * IntMatrix.identity(4),
    "block-diagonal": block_diagonal(
        parse_poly("t^2+3").companion(), parse_poly("t^3-t-1").companion()
    ),
    "e1-eigenvector": IntMatrix([[2, 5, -1], [0, 1, 4], [0, -3, 7]]),
    "nilpotent": IntMatrix([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]]),
    "nilpotent-e1-in-image": IntMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    "repeated-block": block_diagonal(*[parse_poly("t^2-2").companion()] * 3),
}

CYCLIC_REDUCIBLE = {
    "companion-square": (parse_poly("t^2-2") * parse_poly("t^2-2")).companion(),
    "companion-split": parse_poly("t^4-5t^2+4").companion(),
    "jordan-block": IntMatrix([[3, 0, 0], [1, 3, 0], [0, 1, 3]]),
}


class TestKrylovCharpoly:
    def test_random_matrices_against_the_recurrence(self, recurrences):
        mats = list(random_matrices())
        for a in mats:
            assert charpoly(a) == _faddeev_leverrier(a)
        # the recurrence runs only where e_1 is not cyclic; most take the solve
        singular = [a for a in mats if krylov_det(a) == 0]
        assert recurrences == singular and len(singular) < len(mats) // 10

    def test_random_matrices_against_cofactor_expansion(self):
        for a in random_matrices():
            if a.rows <= 6:
                assert matches_cofactor_expansion(a, charpoly(a))

    @pytest.mark.parametrize("name", sorted(CYCLIC_REDUCIBLE))
    def test_reducible_with_e1_cyclic(self, name, recurrences):
        a = CYCLIC_REDUCIBLE[name]
        f = charpoly(a)
        assert f == _faddeev_leverrier(a) and matches_cofactor_expansion(a, f)
        assert recurrences == []

    @pytest.mark.parametrize("name", sorted(NON_CYCLIC))
    def test_e1_not_cyclic_falls_back_to_the_recurrence(self, name, recurrences):
        a = NON_CYCLIC[name]
        assert krylov_det(a) == 0
        f = charpoly(a)
        assert recurrences == [a]
        assert matches_cofactor_expansion(a, f)

    def test_known_values(self):
        scalar = parse_poly("t^4-28t^3+294t^2-1372t+2401")  # (t - 7)^4
        assert charpoly(7 * IntMatrix.identity(4)) == scalar
        blocks = parse_poly("t^2+3") * parse_poly("t^3-t-1")
        assert charpoly(NON_CYCLIC["block-diagonal"]) == blocks
        assert charpoly(IntMatrix([[-9]])) == parse_poly("t+9")
