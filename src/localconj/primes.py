"""Primality testing and integer factorization at desk scale.

Deterministic throughout: Miller-Rabin with the prime bases 2, ..., 41
(exact below psi_13 = 3317044064679887385961981, the least strong
pseudoprime to all of them, OEIS A014233), followed from psi_13 on by a
strong Lucas probable-prime test with Selfridge's parameters, which makes
the pair the Baillie-PSW test (no composite passing it is known), and
Brent's rho with a fixed parameter schedule.  This is the only module that
factors integers or takes p-adic valuations: divisors, valuations and the
next prime are all read from here.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to every base above: below it they are exact.
_PSI_13 = 3317044064679887385961981

# Trial division only strips small primes; larger cofactors go straight to
# Miller-Rabin and Brent's rho, which split them faster than a long wheel.
_TRIAL_LIMIT = 2**10


class PreconditionError(ValueError):
    """The input violates a mathematical precondition: not an engine failure."""


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, ..., 41, exact below psi_13; from psi_13
    on a strong Lucas test follows (Baillie-PSW)."""
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
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for an odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 3 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1
    and Q = (1 - D) / 4.  With n + 1 = d 2^s, d odd, a prime n has U_d = 0
    or V_(d 2^r) = 0 mod n for some r < s."""
    if isqrt(n) ** 2 == n:
        return False  # no D would have (D / n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return n == abs(d)
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    odd, s = n + 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    # U_k, V_k and Q^k, from k = 1 along the bits of odd: doubling
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k; stepping U_(k+1) = (U_k + V_k) / 2,
    # V_(k+1) = (d U_k + V_k) / 2, halved mod the odd n
    u, v, qk = 1, 1, q % n
    for bit in bin(odd)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


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
