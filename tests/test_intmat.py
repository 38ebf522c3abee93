"""Determinants, Smith normal form, and kernels against first-principles
oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localconj import (
    IntMatrix,
    SNFDecomposition,
    SylvesterOperator,
    det,
    generate_pair,
    kernel_basis_Z,
    kernel_mod,
    parse_poly,
    snf,
)
from localconj.intmat import _pair_reduced, back_substitute, solve

from conftest import PRIME_BY_PRIME_PAIRS, M
from oracles import (
    brute_solutions_mod,
    laplace_det,
    minor_gcds,
    reference_hermite_snf,
    reference_snf,
    solve_exact,
    span_of_generators_mod,
    vector_pair_reduced,
)

EYE = IntMatrix.identity(2)


def small_matrix(rows, cols, lo=-4, hi=4):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(IntMatrix)


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(3)) == 1

    def test_two_by_two(self):
        assert det(M([1, 1], [1, 0])) == -1

    def test_duplicated_row_is_singular(self):
        rng = random.Random(5)
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        rows.append(list(rows[1]))
        assert det(IntMatrix(rows)) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(M([1, 2, 3], [4, 5, 6]))

    @given(small_matrix(3, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_expansion(self, m):
        assert det(m) == laplace_det(m.to_lists())


class TestSolve:
    """solve(m, rhs) = (det m, det(m) m^(-1) rhs) against Gauss-Jordan over
    the rationals."""

    @staticmethod
    def rows(rng, n, w, bits):
        return [[rng.randint(-(2**bits), 2**bits) for _ in range(w)] for _ in range(n)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_rational_elimination(self, n):
        rng = random.Random(n)
        singular = 0
        for w in (1, 2, 3):
            # entries in [-2, 2] put zeros on the pivots, so rows get swapped
            for bits in (1, 12, 40):
                m = IntMatrix(self.rows(rng, n, n, bits))
                rhs = IntMatrix(self.rows(rng, n, w, bits))
                d, x = solve(m, rhs)
                assert d == det(m)
                if d == 0:
                    assert x is None
                    singular += 1
                    continue
                expected = solve_exact(m, rhs)
                assert x.shape == (n, w)
                assert [[Fraction(v, d) for v in row] for row in x.entries] == expected
        assert singular < 3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_singular(self, n):
        rng = random.Random(100 + n)
        rhs = IntMatrix(self.rows(rng, n, 2, 40))
        assert solve(IntMatrix.zeros(n, n), rhs) == (0, None)
        if n == 1:
            return
        rows = self.rows(rng, n - 1, n, 40)
        c = [rng.randint(-9, 9) for _ in rows]
        dependent = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)]
        rows.insert(rng.randrange(n), dependent)
        assert solve(IntMatrix(rows), rhs) == (0, None)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            solve(M([1, 2, 3], [4, 5, 6]), M([1], [1]))
        with pytest.raises(ValueError):
            solve(EYE, M([1], [1], [1]))

    def test_inexact_back_substitution_raises(self):
        u = [[2, 1], [0, 3]]
        assert back_substitute(u, [[1], [1]], 6) == [[2], [2]]
        with pytest.raises(AssertionError):
            back_substitute(u, [[1], [1]], 1)


class TestSNF:
    def test_diag_2_3(self):
        dec = snf(M([2, 0], [0, 3]))
        assert dec.diagonal() == (1, 6)

    def test_zero_matrix(self):
        dec = snf(IntMatrix.zeros(2, 2))
        assert dec.diagonal() == (0, 0)

    def test_identity(self):
        dec = snf(IntMatrix.identity(4))
        assert dec.diagonal() == (1, 1, 1, 1)

    @given(small_matrix(3, 3))
    @settings(max_examples=50, deadline=None)
    def test_invariant_factors_match_minor_gcds(self, m):
        dec = snf(m)  # the decomposition identity is asserted on construction
        gcds = minor_gcds(m)
        prev = 1
        for i, d in enumerate(dec.diagonal()):
            expected = 0 if gcds[i] == 0 else gcds[i] // prev
            assert d == expected
            if gcds[i] == 0:
                break
            prev = gcds[i]

    @given(small_matrix(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_rectangular(self, m):
        dec = snf(m)
        assert dec.s @ dec.d @ dec.t == m

    @given(small_matrix(4, 2))
    @settings(max_examples=30, deadline=None)
    def test_rectangular_tall(self, m):
        dec = snf(m)
        assert dec.s @ dec.d @ dec.t == m

    @pytest.mark.parametrize(
        "s,d,t,original,message",
        [
            # s @ d @ t == original holds, but d is not diagonal
            pytest.param(
                EYE, M([1, 1], [0, 1]), EYE, M([1, 1], [0, 1]), "not diagonal",
                id="d0-original0-not diagonal",
            ),
            pytest.param(
                EYE, M([1, 0], [0, 2]), EYE, M([1, 0], [0, 3]), "original",
                id="d1-original1-original",
            ),
            # s @ d @ t == original holds, but det t = 2
            pytest.param(
                EYE, M([1, 0], [0, 2]), M([2, 1], [0, 1]), M([2, 1], [0, 2]), "unimodular",
                id="det-t-2",
            ),
            # s @ d @ t == original holds, but det s = 2
            pytest.param(
                M([2, 0], [0, 1]), EYE, EYE, M([2, 0], [0, 1]), "unimodular", id="det-s-2"
            ),
            pytest.param(
                EYE, M([2, 0], [0, 3]), EYE, M([2, 0], [0, 3]), "divisibility",
                id="chain-2-3",
            ),
        ],
    )
    def test_bad_decomposition_rejected(self, s, d, t, original, message):
        with pytest.raises(AssertionError, match=message):
            SNFDecomposition(s=s, d=d, t=t, original=original)

    def test_transform_sizes(self):
        dec = snf(M([2, 4, 4], [-6, 6, 12]))
        assert dec.s.shape == (2, 2)
        assert dec.t.shape == (3, 3)
        assert dec.d.shape == (2, 3)


def wide_random_matrices(count: int, seed: int):
    """Seeded matrices of 1-6 rows and columns, some entries of 30 bits or
    more, some rows and columns zero."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        bits = rng.choice((2, 4, 30, 40))
        rows = [
            [rng.randint(-(2**bits), 2**bits) if rng.random() < 0.7 else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        if rng.random() < 0.25:
            rows[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.25:
            col = rng.randrange(nc)
            for row in rows:
                row[col] = 0
        out.append(IntMatrix(rows))
    return out


class TestSNFAgainstReference:
    """snf returns the diagonal of the plain elimination, so the `d` of a
    report stays the same, and exactly the transforms of the documented
    Hermite-form schedule on an independent Hermite form."""

    @staticmethod
    def assert_same(m):
        dec = snf(m)
        assert dec.d == reference_snf(m)[1]
        s, _, t = reference_hermite_snf(m)
        assert (dec.s, dec.t) == (s, t)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_matrices(self, seed):
        for m in wide_random_matrices(50, seed):
            self.assert_same(m)

    def test_zero_and_unit_corners(self):
        for m in (IntMatrix.zeros(3, 2), M([0, 0, 5]), M([7], [-1], [0]), M([-3])):
            self.assert_same(m)

    @pytest.mark.parametrize("field,strategy", PRIME_BY_PRIME_PAIRS)
    def test_sylvester_operators(self, field, strategy):
        for seed in (0, 1):
            pair = generate_pair(parse_poly(field), strategy, seed)
            self.assert_same(SylvesterOperator(pair.a, pair.b).l)


class TestEntries:
    @pytest.mark.parametrize("bad", [1.7, 2.0, "3", None, [1]])
    def test_non_integer_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="integers"):
            IntMatrix([[bad, 1], [1, 0]])

    def test_index_types_accepted(self):
        m = IntMatrix([[True, 0], [0, 2**70]])
        assert m.entries == ((1, 0), (0, 2**70))
        assert type(m[0, 0]) is int


class TestKernelZ:
    def test_identity_trivial(self):
        assert kernel_basis_Z(IntMatrix.identity(3)) == []

    def test_zero_full(self):
        basis = kernel_basis_Z(IntMatrix.zeros(2, 2))
        assert len(basis) == 2
        assert abs(laplace_det([list(v) for v in basis])) == 1

    def test_one_row(self):
        basis = kernel_basis_Z(M([2, -2]))
        assert len(basis) == 1
        v = basis[0]
        assert v in ((1, 1), (-1, -1))

    @given(small_matrix(3, 3, -3, 3))
    @settings(max_examples=40, deadline=None)
    def test_exact_and_saturated(self, m):
        basis = kernel_basis_Z(m)
        for v in basis:
            assert all(x == 0 for x in m.mul_vec(v))
        if basis:
            # saturation: the stacked basis has all invariant factors 1
            _, d, _, _ = reference_snf(IntMatrix([list(v) for v in basis]))
            assert [d[i, i] for i in range(len(basis))] == [1] * len(basis)


class TestKernelMod:
    def test_single_p_mod_p_squared(self):
        gens = kernel_mod(M([3]), 9)
        assert gens == [(3,)]

    def test_identity_only_zero(self):
        assert kernel_mod(IntMatrix.identity(2), 8) == []

    def test_diag_1_p(self):
        gens = kernel_mod(IntMatrix.diagonal([1, 3]), 3)
        assert len(gens) == 1

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            kernel_mod(IntMatrix.identity(2), 12)

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_generates_brute_force_solution_set(self, p, k):
        rng = random.Random(100 * p + k)
        modulus = p**k
        for n in (2, 3):
            for _ in range(8):
                m = IntMatrix(
                    [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                )
                gens = kernel_mod(m, modulus)
                assert span_of_generators_mod(gens, modulus, n) == brute_solutions_mod(
                    m, modulus
                )


class TestPairReduced:
    """The size reduction on the Gram matrix returns the rows the same
    reduction gives on the row vectors themselves."""

    def test_matches_the_vector_reduction(self):
        rng = random.Random(2702)
        for _ in range(300):
            dim, width = rng.randint(1, 6), rng.randint(1, 9)
            bound = rng.choice((3, 50, 2**40))
            rows = [tuple(rng.randint(-bound, bound) for _ in range(width)) for _ in range(dim)]
            if rng.random() < 0.2:
                rows[0] = (0,) * width
            assert _pair_reduced(rows) == vector_pair_reduced(rows)

    def test_intertwiner_bases(self):
        for field, strategy in PRIME_BY_PRIME_PAIRS:
            pair = generate_pair(parse_poly(field), strategy, 0)
            op = SylvesterOperator(pair.a, pair.b)
            basis = [tuple(x for col in zip(*m.entries) for x in col) for m in op.intertwiners]
            assert _pair_reduced(basis) == vector_pair_reduced(basis)
