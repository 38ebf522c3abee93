"""The intertwining operator and exact kernel lifting."""

from __future__ import annotations

import random

import pytest

from localconj import (
    IntMatrix,
    PreconditionError,
    SylvesterOperator,
    kernel_mod,
    lift_kernel,
    parse_poly,
    unvec,
    vec,
)
from conftest import M, pair_with_conjugate, scalar_shifted
from oracles import integer_profile
from test_local_precision import MU_CASES


def random_module_element(op, modulus, rng):
    gens = kernel_mod(op.l, modulus)
    x = [0] * op.l.cols
    for g in gens:
        c = rng.randrange(modulus)
        x = [(a + c * b) % modulus for a, b in zip(x, g)]
    return tuple(x)


class TestOperator:
    def test_zero_pair(self):
        op = SylvesterOperator(IntMatrix.zeros(2, 2), IntMatrix.zeros(2, 2))
        assert op.l == IntMatrix.zeros(4, 4)

    def test_identity_pair(self):
        op = SylvesterOperator(IntMatrix.identity(2), IntMatrix.identity(2))
        assert op.l == IntMatrix.zeros(4, 4)

    def test_defining_identity_random(self):
        rng = random.Random(2)
        for n in (2, 3):
            a = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            b = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            op = SylvesterOperator(a, b)
            for _ in range(100):
                x = IntMatrix(
                    [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
                )
                assert unvec(op.l.mul_vec(vec(x)), n) == a @ x - x @ b

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_entries_match_the_kronecker_form(self, n):
        rng = random.Random(n)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        b = a + IntMatrix([[rng.randint(1, 9) for _ in range(n)] for _ in range(n)])
        eye = IntMatrix.identity(n)
        assert SylvesterOperator(a, b).l == eye.kron(a) - b.transpose().kron(eye)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            SylvesterOperator(IntMatrix.identity(2), IntMatrix.identity(3))

    def test_vec_unvec_roundtrip(self):
        m = M([1, 2], [3, 4])
        assert unvec(vec(m), 2) == m
        assert vec(m) == (1, 3, 2, 4)  # column-major


class TestMu:
    def test_definitional_consistency(self):
        c = parse_poly("t^2-t-1").companion()
        op = SylvesterOperator(c, c)
        assert op.mu(5) == integer_profile(op.l, 5).mu

    def test_unimodular_pair_lifts_at_lambda_one(self):
        a, b, p_mat = pair_with_conjugate(parse_poly("t^3-t-1").companion(), 4)
        op = SylvesterOperator(a, b)
        for p in (2, 3, 5):
            m = op.mu(p)
            assert m >= 0
            x = lift_kernel(op, vec(p_mat), p, 1)
            assert unvec(x, 3) @ b == a @ unvec(x, 3)

    def test_scalar_congruent_pair_has_positive_mu(self):
        a = scalar_shifted(1, 2, 2, "t^2-t-1")
        _, b, _ = pair_with_conjugate(a, 9)
        op = SylvesterOperator(a, b)
        assert op.mu(2) >= 2

    def test_unimodular_operator_is_outside_the_domain(self):
        # a unimodular operator needs characteristic polynomials that differ:
        # mu and lifting are defined only for one shared irreducible one
        op = SylvesterOperator(IntMatrix.zeros(2, 2), IntMatrix.identity(2))
        assert abs(op.l.det()) == 1
        for p in (2, 3, 5):
            with pytest.raises(PreconditionError, match="polynomials differ"):
                op.mu(p)
            with pytest.raises(PreconditionError, match="polynomials differ"):
                op.p_profile(p)
            with pytest.raises(PreconditionError, match="polynomials differ"):
                lift_kernel(op, (0,) * 4, p, 1)
        assert op.l == -IntMatrix.identity(4)


class TestLift:
    def test_exact_input_fixed_point_class(self):
        a, b, p_mat = pair_with_conjugate(parse_poly("t^2+3").companion(), 1)
        op = SylvesterOperator(a, b)
        x_exact = vec(p_mat)
        for p, lam in [(2, 1), (3, 2), (5, 0)]:
            lifted = lift_kernel(op, x_exact, p, lam)
            assert all(v == 0 for v in op.l.mul_vec(lifted))
            assert all((u - v) % p**lam == 0 for u, v in zip(lifted, x_exact))

    def test_lambda_zero_exact_kernel(self):
        a, b, _ = pair_with_conjugate(parse_poly("t^2-2").companion(), 2)
        op = SylvesterOperator(a, b)
        rng = random.Random(0)
        mu0 = op.mu(3)
        if mu0 == 0:
            # the congruence constraint is empty: any vector is liftable
            x = tuple(rng.randrange(9) for _ in range(4))
        else:
            x = random_module_element(op, 3**mu0, rng)
        lifted = lift_kernel(op, x, 3, 0)
        assert all(v == 0 for v in op.l.mul_vec(lifted))

    def test_perturbed_conjugator_recovers_intertwiner(self):
        rng = random.Random(8)
        a, b, p_mat = pair_with_conjugate(parse_poly("t^2-t-1").companion(), 3)
        op = SylvesterOperator(a, b)
        for p in (2, 3, 5):
            m = op.mu(p)
            noise = [rng.randint(-3, 3) for _ in range(4)]
            x_approx = [
                v + p ** (m + 1) * e for v, e in zip(vec(p_mat), noise)
            ]
            x = lift_kernel(op, x_approx, p, 1)
            assert all(v == 0 for v in op.l.mul_vec(x))
            assert all((u - v) % p == 0 for u, v in zip(x, vec(p_mat)))

    def test_precondition_violation_reported(self):
        a = parse_poly("t^2+3").companion()
        b = IntMatrix([[-1, 2], [-2, 1]])
        op = SylvesterOperator(a, b)
        bad = (1, 0, 0, 0)
        if any(op.l.mul_vec(bad)):
            with pytest.raises(ValueError, match="cannot lift"):
                lift_kernel(op, bad, 2, 1)

    def test_congruence_coherence_across_lambda(self):
        rng = random.Random(21)
        a, b, _ = pair_with_conjugate(scalar_shifted(1, 2, 1, "t^2+1"), 5)
        op = SylvesterOperator(a, b)
        p = 2
        m = op.mu(p)
        for lam in (1, 2):
            big = random_module_element(op, p ** (m + lam + 1), rng)
            x_hi = lift_kernel(op, big, p, lam + 1)
            x_lo = lift_kernel(op, big, p, lam)
            # both lifts agree with the input modulo the smaller power
            assert all((u - v) % p**lam == 0 for u, v in zip(x_hi, big))
            assert all((u - v) % p**lam == 0 for u, v in zip(x_lo, big))


class TestLiftSuiteSmall:
    def test_batch_instances(self):
        rng = random.Random(42)
        fields = ("t^2-t-1", "t^2+3", "t^3-t-1")
        count = 0
        for text in fields:
            base = parse_poly(text).companion()
            for seed in (0, 1):
                singular = None if seed == 0 else 2
                a, b, _ = pair_with_conjugate(base, seed, singular)
                op = SylvesterOperator(a, b)
                for p in (2, 3, 5):
                    for lam in (0, 1, 2):
                        m = op.mu(p)
                        if m + lam == 0:
                            x_approx = tuple(
                                rng.randrange(p) for _ in range(op.l.cols)
                            )
                        else:
                            x_approx = random_module_element(
                                op, p ** (m + lam), rng
                            )
                        x = lift_kernel(op, x_approx, p, lam)
                        assert all(v == 0 for v in op.l.mul_vec(x))
                        assert all(
                            (u - v) % p**lam == 0 for u, v in zip(x, x_approx)
                        )
                        count += 1
        assert count == 54


class TestLiftAtLargerDegree:
    """Lifting at n = 4-6 with mu >= 1: the conjugate pairs of the mu cases,
    inputs sampled from the kernel mod p^(mu+lam)."""

    @pytest.mark.parametrize(
        "name", ["shifted-4-True", "shifted-5-True", "shifted-6-True", "scalar-mod-81"]
    )
    def test_lifts_are_exact_and_congruent(self, name):
        a, b, p = MU_CASES[name]
        op = SylvesterOperator(a, b)
        mu = op.mu(p)
        assert mu >= 1 and 4 <= op.n <= 6
        rng = random.Random(name)
        for lam in (0, 1, 2):
            modulus = p ** (mu + lam)
            gens = kernel_mod(op.l, modulus)
            for _ in range(3):
                x_approx = [0] * op.l.cols
                for g in gens:
                    c = rng.randrange(modulus)
                    x_approx = [(u + c * v) % modulus for u, v in zip(x_approx, g)]
                x = lift_kernel(op, x_approx, p, lam)
                assert not any(op.l.mul_vec(x))
                assert all((u - v) % p**lam == 0 for u, v in zip(x, x_approx))
