"""Integer factorization, divisors and valuations against trial division, on
both sides of the trial limit, and the prime-power split."""

from __future__ import annotations

import random
from math import isqrt

import pytest

from localconj import factorize, is_prime
from localconj.cli import main
from localconj.primes import (
    _TRIAL_LIMIT,
    _strong_lucas,
    divisors,
    prime_power_split,
    valuation,
)


def trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def product(fac: dict[int, int]) -> int:
    n = 1
    for p, e in fac.items():
        n *= p**e
    return n


class TestFactorize:
    def test_matches_trial_division_up_to_20000(self):
        for n in range(1, 20001):
            assert factorize(n) == trial_division(n), n

    def test_sign_is_dropped(self):
        assert factorize(-360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-1) == {}

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            factorize(0)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_products_across_the_trial_limit(self, seed):
        # primes below the limit, just above it, and far above it
        rng = random.Random(seed)
        ranges = [
            (2, _TRIAL_LIMIT),
            (_TRIAL_LIMIT, 4 * _TRIAL_LIMIT),
            (2**16, 2**20),
            (2**28, 2**32),
        ]
        for _ in range(20):
            want: dict[int, int] = {}
            for _ in range(rng.randint(1, 4)):
                p = random_prime(rng, *rng.choice(ranges))
                want[p] = want.get(p, 0) + rng.randint(1, 3)
            assert factorize(product(want)) == want

    @pytest.mark.parametrize("p", [1031, 1033, 8191, 65537, 1000003])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_prime_powers_above_the_limit(self, p, k):
        assert p > _TRIAL_LIMIT
        assert factorize(p**k) == {p: k}
        assert factorize(2 * 1009 * p**k) == {2: 1, 1009: 1, p: k}

    def test_wide_determinant_from_a_decision(self):
        # det q of a wide-entry conj-all pair: two primes near 2^30 and 2^24
        assert factorize(7 * 862578601 * 12100729) == {
            7: 1,
            862578601: 1,
            12100729: 1,
        }


def seeded_products(seed: int, count: int = 20):
    """Products of primes drawn below the trial limit, just above it and far
    above it, with their factorizations."""
    rng = random.Random(seed)
    ranges = [(2, _TRIAL_LIMIT), (_TRIAL_LIMIT, 4 * _TRIAL_LIMIT), (2**28, 2**32)]
    for _ in range(count):
        want: dict[int, int] = {}
        for _ in range(rng.randint(1, 3)):
            p = random_prime(rng, *rng.choice(ranges))
            want[p] = want.get(p, 0) + rng.randint(1, 3)
        yield product(want), want


class TestDivisorsAndValuation:
    def test_divisors_match_brute_force_up_to_2000(self):
        for n in range(1, 2001):
            want = [d for d in range(1, n + 1) if n % d == 0]
            assert divisors(n) == want == divisors(-n), n

    def test_valuation_matches_brute_force_up_to_2000(self):
        for n in range(1, 2001):
            for p in (2, 3, 5, 7, 1009):
                want = max(k for k in range(12) if n % p**k == 0)
                assert valuation(n, p) == want == valuation(-n, p), (n, p)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_products_across_the_trial_limit(self, seed):
        for n, fac in seeded_products(seed):
            count = 1
            for e in fac.values():
                count *= e + 1
            ds = divisors(n)
            assert len(ds) == count and ds == sorted(ds)
            assert all(n % d == 0 for d in ds) and ds[-1] == n
            for p, e in fac.items():
                assert valuation(n, p) == e
                assert valuation(7 * n, p) == e + (p == 7)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            valuation(0, 2)
        with pytest.raises(ValueError):
            divisors(0)


class TestPrimePowerSplit:
    @pytest.mark.parametrize(
        "q,want", [(2, (2, 1)), (1024, (2, 10)), (3**7, (3, 7)), (1031**4, (1031, 4))]
    )
    def test_prime_powers(self, q, want):
        assert prime_power_split(q) == want

    @pytest.mark.parametrize("q", [-8, 0, 1, 12, 1031 * 1033, 2 * 65537**2])
    def test_other_numbers_rejected(self, q):
        with pytest.raises(ValueError):
            prime_power_split(q)


# OEIS A014233: the least strong pseudoprime to all of the first k prime
# bases, k = 1, ..., 12 (some terms repeat); the last is psi_12
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)
PSI_12 = STRONG_PSEUDOPRIMES[-1]


class TestMillerRabinBound:
    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_psi_12_splits_into_its_two_primes(self):
        assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}
        assert all(map(is_prime, (399165290221, 798330580441)))

    def test_conj_p_refuses_psi_12_as_a_prime(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text("2\n0 1\n-3 0\n")
        assert main(["conj-p", str(path), str(path), "--prime", str(PSI_12)]) == 2
        assert f"{PSI_12} is not prime" in capsys.readouterr().err


# OEIS A014233 again: the least strong pseudoprime to the bases 2, ..., 41
PSI_13 = 3317044064679887385961981

# OEIS A217255: the strong Lucas pseudoprimes (Selfridge's parameters)
# below 10^5
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
]


class TestBailliePSW:
    def test_psi_13_is_composite(self):
        assert not is_prime(PSI_13)

    def test_psi_13_splits_into_its_two_primes(self):
        assert factorize(PSI_13) == {1287836182261: 1, 2575672364521: 1}
        assert all(map(is_prime, (1287836182261, 2575672364521)))

    def test_conj_p_refuses_psi_13_as_a_prime(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text("2\n0 1\n-3 0\n")
        assert main(["conj-p", str(path), str(path), "--prime", str(PSI_13)]) == 2
        assert f"{PSI_13} is not prime" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [89, 107, 127])
    def test_mersenne_primes_above_psi_13(self, k):
        assert 2**k - 1 > PSI_13
        assert is_prime(2**k - 1)

    def test_lucas_step_alone(self):
        # every odd prime from 5 on passes the strong Lucas step, and the
        # odd composites that pass it are exactly the known pseudoprimes
        bound = 10**5
        sieve = [True] * bound
        for p in range(2, isqrt(bound) + 1):
            sieve[p * p :: p] = [False] * len(range(p * p, bound, p))
        odd = range(5, bound, 2)
        assert all(_strong_lucas(n) for n in odd if sieve[n])
        assert [n for n in odd if not sieve[n] and _strong_lucas(n)] == STRONG_LUCAS_PSEUDOPRIMES
