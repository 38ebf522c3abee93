"""Determinants, Smith normal form, and kernels against first-principles
oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from localconj import (
    IntMatrix,
    SNFDecomposition,
    det,
    kernel_basis_Z,
    kernel_mod,
    p_part,
    snf,
)

from conftest import M
from oracles import brute_solutions_mod, laplace_det, minor_gcds, span_of_generators_mod


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
        "d,original,message",
        [
            # s @ d @ t == original holds, but d is not diagonal
            (M([1, 1], [0, 1]), M([1, 1], [0, 1]), "not diagonal"),
            (M([1, 0], [0, 2]), M([1, 0], [0, 3]), "original"),
        ],
    )
    def test_bad_decomposition_rejected(self, d, original, message):
        eye = IntMatrix.identity(2)
        with pytest.raises(AssertionError, match=message):
            SNFDecomposition(
                s=eye, d=d, t=eye, original=original, t_inv=eye, det_s=1, det_t=1
            )

    def test_transform_sizes(self):
        dec = snf(M([2, 4, 4], [-6, 6, 12]))
        assert dec.s.shape == (2, 2)
        assert dec.t.shape == (3, 3)
        assert dec.d.shape == (2, 3)


class TestPPart:
    def test_read_off(self):
        dec = snf(M([2, 0], [0, 3]))  # invariant factors 1, 6
        prof = p_part(dec, 2)
        assert prof.exponents == (0, 1) and prof.mu == 1

    def test_with_zero_column(self):
        dec = snf(IntMatrix.diagonal([4, 12, 0]))
        prof = p_part(dec, 2)
        assert prof.exponents == (2, 2) and prof.mu == 2

    def test_identity_mu_zero(self):
        for p in (2, 3, 5):
            assert p_part(snf(IntMatrix.identity(3)), p).mu == 0

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            p_part(snf(IntMatrix.identity(2)), 4)


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
            stacked = snf(IntMatrix([list(v) for v in basis]))
            assert all(d == 1 for d in stacked.diagonal() if d != 0)
            assert stacked.rank() == len(basis)


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
