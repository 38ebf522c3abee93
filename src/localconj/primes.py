"""Primality testing and integer factorization at desk scale.

Deterministic throughout: Miller-Rabin with the prime bases 2, ..., 41
(exact below psi_13 = 3317044064679887385961981, the least strong
pseudoprime to all of them, OEIS A014233) and Brent's rho with a fixed
parameter schedule.  This is the only module that factors integers or
takes p-adic valuations: divisors, valuations and the next prime are all
read from here.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Trial division only strips small primes; larger cofactors go straight to
# Miller-Rabin and Brent's rho, which split them faster than a long wheel.
_TRIAL_LIMIT = 2**10


class PreconditionError(ValueError):
    """The input violates a mathematical precondition: not an engine failure."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k+-1 up to the trial limit
    f = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f <= _TRIAL_LIMIT and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += steps[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _brent_rho(m)
        stack.extend((d, m // d))
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of |n| in increasing order; n must be nonzero."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in n; n must be nonzero."""
    if n == 0 or p < 2:
        raise ValueError(f"no valuation of {n} at {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def next_prime(p: int) -> int:
    """The least prime above p."""
    return next(q for q in count(p + 1) if is_prime(q))


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**k for a prime p, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    [(p, k)] = fac.items()
    return p, k
