"""Integer polynomials and exact arithmetic in Q[t]/(f).

Covers characteristic polynomials, resultants/discriminants, irreducibility
over Q (factor-degree patterns mod p first, so Kronecker's search runs only
for the degrees they leave), and field arithmetic on residue classes: an
integer numerator over a positive denominator.  The characteristic
polynomial (when e_1 is a cyclic vector), the field inverse and the
Kronecker interpolation are exact integer solves (`intmat.solve`), so
nothing here computes with rationals.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import count, product
from math import gcd, isqrt
from operator import index, mul

from .intmat import IntMatrix, _krylov, det, solve
from .primes import PreconditionError, divisors, next_prime


class IntPoly:
    """Immutable integer polynomial, coefficients in ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        try:
            c = [index(x) for x in coeffs]
        except TypeError as exc:
            raise ValueError(f"coefficients must be integers: {exc}") from None
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls([c])

    @classmethod
    def t(cls) -> "IntPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def content(self) -> int:
        return reduce(gcd, (abs(c) for c in self.coeffs), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def divmod_monic(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Exact division with remainder by a monic divisor, over Z."""
        if not divisor.is_monic:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                quo[i - dd] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i - dd + j] -= c * b
        return IntPoly(quo), IntPoly(rem)

    def mod_monic(self, divisor: "IntPoly") -> "IntPoly":
        return self.divmod_monic(divisor)[1]

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def eval_matrix(self, a: IntMatrix) -> IntMatrix:
        if not a.is_square:
            raise ValueError("polynomial of a non-square matrix")
        out = IntMatrix.zeros(a.rows, a.cols)
        for c in reversed(self.coeffs):
            out = out @ a + c * IntMatrix.identity(a.rows)
        return out

    def companion(self) -> IntMatrix:
        """Companion matrix, last-row convention: multiplication by t on the
        power basis of Z[t]/(self)."""
        if not self.is_monic or self.degree < 1:
            raise ValueError("companion matrix needs a monic nonconstant polynomial")
        n = self.degree
        rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
        rows.append([-c for c in self.coeffs[:n]])
        return IntMatrix(rows)

    def pretty(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = var if mag == 1 else f"{mag}*{var}"
            else:
                term = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self.pretty()!r})"


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*(?:(?P<coef>\d+)\s*\*?\s*)?(?:(?P<var>[a-zA-Z])(?:\s*\^\s*(?P<exp>\d+))?)?"
)


def parse_poly(text: str) -> IntPoly:
    """Parse 't^3 - 4t - 1' or an ascending comma-separated coefficient list.
    The variable may be any one letter; two different letters are refused."""
    text = text.strip()
    if not text:
        raise PreconditionError("empty polynomial")
    if not re.search(r"[a-zA-Z]", text):
        sep = "," if "," in text else None
        try:
            return IntPoly([int(tok) for tok in text.split(sep)])
        except ValueError:
            raise PreconditionError(f"cannot parse polynomial {text!r}") from None
    if len(letters := sorted(set(re.findall(r"[a-zA-Z]", text)))) > 1:
        raise PreconditionError(f"polynomial {text!r} mixes variables {', '.join(letters)}")
    pos = 0
    acc: dict[int, int] = {}
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise PreconditionError(f"cannot parse polynomial near {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = m.group("coef")
        var = m.group("var")
        if coef is None and var is None:
            raise PreconditionError(f"cannot parse polynomial near {text[pos:]!r}")
        c = sign * (int(coef) if coef else 1)
        e = 0
        if var is not None:
            e = int(m.group("exp")) if m.group("exp") else 1
        acc[e] = acc.get(e, 0) + c
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    top = max(acc) if acc else 0
    return IntPoly([acc.get(i, 0) for i in range(top + 1)])


def charpoly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(tI - a), from one Krylov solve.

    With K = [e_1, a e_1, ..., a^(n-1) e_1] and det K != 0, e_1 is a cyclic
    vector of a: its minimal polynomial has degree n and divides det(tI - a),
    so the two are equal, and the coefficients below the leading 1 are -c
    for the c with K c = a^n e_1.  That is one exact solve (`solve`, O(n^3)
    against O(n^4) for the recurrence below); c is integral, so the division
    by det K must be exact.  This holds for every square matrix with
    det K != 0, and an irreducible characteristic polynomial forces it.
    Otherwise (scalar or block-diagonal matrices, e_1 an eigenvector, ...)
    the answer comes from `_faddeev_leverrier`.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.rows
    k = _krylov(a, IntMatrix.identity(n).row(0))
    d, c = solve(k, IntMatrix._of([x] for x in a.mul_vec(k.col(n - 1))))
    if d == 0:
        return _faddeev_leverrier(a)
    coeffs = []
    for (x,) in c.entries:
        q, rem = divmod(x, d)
        if rem:
            raise AssertionError("non-exact division in charpoly")
        coeffs.append(-q)
    return IntPoly(coeffs + [1])


def _faddeev_leverrier(a: IntMatrix) -> IntPoly:
    """det(tI - a) for any square a by the fraction-free Faddeev-LeVerrier
    recurrence; every division is exact."""
    n = a.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.zeros(n, n)
    c_prev = 1
    for k in range(1, n + 1):
        m = a @ m + c_prev * IntMatrix.identity(n)
        tr = (a @ m).trace()
        if tr % k:
            raise AssertionError("non-exact division in charpoly")
        c_prev = -tr // k
        coeffs[n - k] = c_prev
    return IntPoly(coeffs)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant via the Sylvester matrix determinant."""
    if f.is_zero or g.is_zero:
        return 0
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    size = n + m
    rows = []
    fr = list(reversed(f.coeffs))
    gr = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([0] * i + fr + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gr + [0] * (size - m - 1 - i))
    return det(IntMatrix(rows))


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') / lc(f), memoized per
    coefficient tuple so that a process takes it once per polynomial."""
    if f.degree < 1:
        raise ValueError("discriminant needs a nonconstant polynomial")
    return _discriminant(f.coeffs)


@lru_cache(maxsize=32)
def _discriminant(coeffs: tuple[int, ...]) -> int:
    f = IntPoly(coeffs)
    n = f.degree
    if n == 1:
        return 1
    r = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    num = sign * r
    if num % f.leading:
        raise AssertionError("discriminant division is not exact")
    return num // f.leading


# ---------------------------------------------------------------------------
# irreducibility over Q (monic input)

def _poly_mod_p(coeffs: tuple[int, ...], p: int) -> tuple[int, ...]:
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)

def _polmul_p(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)

def _polmod_p(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)

def _polgcd_p(a, b, p):
    while b:
        a, b = b, _polmod_p(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(x * inv % p for x in a)
    return a

def _powmod_p(base, e, fp, p):
    """base^e reduced mod (fp, p), by square and multiply."""
    out, base = _polmod_p((1,), fp, p), _polmod_p(base, fp, p)
    while e:
        if e & 1:
            out = _polmod_p(_polmul_p(out, base, p), fp, p)
        base = _polmod_p(_polmul_p(base, base, p), fp, p)
        e >>= 1
    return out

def _degree_pattern(f: IntPoly, p: int) -> list[int]:
    """Degrees of the irreducible factors of f mod p, for monic f squarefree
    mod p, by distinct-degree factorization without division: g_d =
    gcd(f, t^(p^d) - t) is the product of the factors of degree dividing d,
    so deg g_d less the degrees already counted at the divisors of d is
    carried by factors of degree exactly d.  At most one factor has degree
    above n/2, and it takes what is left.  t^(p^d) is the p-th power of
    t^(p^(d-1)) mod (f, p)."""
    fp = _poly_mod_p(f.coeffs, p)
    n = f.degree
    carried: dict[int, int] = {}
    power = (0, 1)
    for d in range(1, n // 2 + 1):
        power = _powmod_p(power, p, fp, p)
        t_diff = list(power) + [0] * (2 - len(power))
        t_diff[1] -= 1
        g = _polgcd_p(fp, _poly_mod_p(t_diff, p), p)
        carried[d] = len(g) - 1 - sum(c for e, c in carried.items() if d % e == 0)
    pattern = [d for d, c in carried.items() for _ in range(c // d)]
    rest = n - sum(carried.values())
    return pattern + [rest] if rest else pattern

def _mignotte_bound(f: IntPoly, k: int) -> int:
    # any monic degree-k divisor of monic f has coefficients below 2^k * ||f||_2
    norm_sq = sum(c * c for c in f.coeffs)
    return (1 << k) * (isqrt(norm_sq) + 1)


def _kronecker_has_factor(f: IntPoly, k: int) -> bool:
    """Search for a monic degree-k factor by interpolation through divisor
    combinations of f at k+1 small integer points.  One Vandermonde solve
    gives D = det V and W = D V^(-1); the values y interpolate to W y / D,
    so each combination costs one integer product."""
    points = [0]
    for m in count(1):
        points.extend((m, -m))
        if len(points) > k:
            break
    points = points[: k + 1]
    values = [f(x) for x in points]
    if any(v == 0 for v in values):
        return True  # integer root, linear factor
    bound = _mignotte_bound(f, k)
    vandermonde = IntMatrix([[x**j for j in range(k + 1)] for x in points])
    d, w = solve(vandermonde, IntMatrix.identity(k + 1))
    *lower, lead = w.entries
    divisor_lists = []
    for v in values:
        ds = divisors(v)
        divisor_lists.append(ds + [-e for e in ds])
    for combo in product(*divisor_lists):
        if sum(map(mul, lead, combo)) != d:
            continue  # not monic of degree k
        coeffs = [divmod(sum(map(mul, row, combo)), d) for row in lower]
        if any(r or abs(c) > bound for c, r in coeffs):
            continue
        _, rem = f.divmod_monic(IntPoly([c for c, _ in coeffs] + [1]))
        if rem.is_zero:
            return True
    return False


def is_irreducible(f: IntPoly) -> bool:
    """Irreducibility over Q for monic nonconstant f.

    Pipeline: a prime p is usable when gcd(f mod p, f' mod p) = 1, which
    for monic f is exactly p not dividing disc(f), so the test takes no
    discriminant unless the first ten primes are all unusable, and then
    only to catch a repeated factor (disc f = 0).  The factor-degree
    patterns of f modulo up to ten usable primes leave the degrees
    k <= n/2 that a factor over Q could have (a subset sum of every
    pattern), so a polynomial they certify is never factored; they stop
    as soon as no k >= 2 is left.  Then, when k = 1 is left, the roots of f
    modulo the last usable prime, lifted by Newton's iteration and tested
    exactly; then a complete Kronecker factor search for each k >= 2 that
    is left.  A quadratic or a cubic takes one usable prime and the root
    test, and no pattern.
    """
    if f.is_zero or not f.is_monic:
        raise PreconditionError("irreducibility test requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise PreconditionError("irreducibility test requires a nonconstant polynomial")
    if n == 1:
        return True
    return _irreducible_monic(f.coeffs)


@lru_cache(maxsize=32)
def _irreducible_monic(coeffs: tuple[int, ...]) -> bool:
    """The test behind `is_irreducible`, memoized per coefficient tuple so
    that one command tests each polynomial once."""
    f = IntPoly(coeffs)
    if f.coeff(0) == 0:
        return False  # divisible by t
    # at a usable prime f mod p is squarefree, and a factor of degree k over
    # Q splits mod p into factors whose degrees sum to k
    left = set(range(1, f.degree // 2 + 1))
    tried, p, q = 0, 2, 0
    while tried < 10 and (not q or max(left, default=0) > 1):
        if squarefree_mod_p(f, p):
            if max(left, default=0) > 1:
                sums = 1
                for d in _degree_pattern(f, p):
                    sums |= sums << d
                left = {k for k in left if sums >> k & 1}
            tried, q = tried + 1, p
        elif p == 29 and not q and discriminant(f) == 0:
            # none of the first ten primes is usable, and none ever will
            # be: f has a repeated factor
            return False
        p = next_prime(p)
    if 1 in left and _has_integer_root(f, q):
        return False
    return not any(_kronecker_has_factor(f, k) for k in sorted(left) if k > 1)


def _has_integer_root(f: IntPoly, p: int) -> bool:
    """Whether monic f, squarefree mod p, has an integer root.  Each root mod
    p is simple, so Newton's iteration lifts it to the one root modulo p^m
    above it, until p^m exceeds twice the Cauchy bound 1 + max |c_i| on an
    integer root; an integer root is then the symmetric residue of a lift."""
    bound = 2 * (1 + max(map(abs, f.coeffs)))
    df = f.derivative()
    for r in range(p):
        if f(r) % p:
            continue
        q = p
        while q <= bound:
            q *= q
            r = (r - f(r) * pow(df(r), -1, q)) % q
        if f(r - q if 2 * r > q else r) == 0:
            return True
    return False


def squarefree_mod_p(f: IntPoly, p: int) -> bool:
    """True iff f mod p is squarefree of full degree."""
    fp = _poly_mod_p(f.coeffs, p)
    if len(fp) - 1 != f.degree:
        return False
    dfp = _poly_mod_p(f.derivative().coeffs, p)
    return _polgcd_p(fp, dfp, p) == (1,)


# ---------------------------------------------------------------------------
# the field K = Q[t]/(f)

class NumberField:
    """Q[t]/(f) for a monic irreducible integer polynomial f of degree >= 2."""

    __slots__ = ("modulus", "degree")

    def __init__(self, modulus: IntPoly) -> None:
        if modulus.degree < 2:
            raise PreconditionError("field modulus must have degree at least 2")
        if not is_irreducible(modulus):
            raise PreconditionError(f"{modulus.pretty()} is reducible over Q")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", modulus.degree)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"NumberField({self.modulus.pretty()!r})"

    def element(self, coeffs, den: int = 1) -> "FieldElement":
        return FieldElement(self, IntPoly(coeffs), den)

    def zero(self) -> "FieldElement":
        return self.element([0])

    def one(self) -> "FieldElement":
        return self.element([1])

    def beta(self) -> "FieldElement":
        return self.element([0, 1])

    def mult_matrix(self, coeffs) -> IntMatrix:
        """Matrix of multiplication by the integer-coordinate element h on the
        power basis: row i holds the coordinates of h * beta^i."""
        n = self.degree
        cur = list(coeffs[:])
        if len(cur) > n:
            raise ValueError("coordinate vector too long")
        cur += [0] * (n - len(cur))
        rows = [tuple(cur)]
        f = self.modulus.coeffs
        for _ in range(n - 1):
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for j in range(n):
                    cur[j] -= lead * f[j]
            rows.append(tuple(cur))
        return IntMatrix._of(rows)


class FieldElement:
    """Element of a NumberField: integer polynomial of degree < n over a
    positive denominator, reduced and with gcd(den, content) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: IntPoly, den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        num = num.mod_monic(field.modulus)
        if den < 0:
            num, den = -num, -den
        g = gcd(num.content(), den)
        if g > 1:
            num = IntPoly([c // g for c in num.coeffs])
            den //= g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def coords(self) -> tuple[tuple[int, ...], int]:
        n = self.field.degree
        return tuple(self.num.coeff(i) for i in range(n)), self.den

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num, self.den))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        num = self.num * other.den + other.num * self.den
        return FieldElement(self.field, num, self.den * other.den)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        num = self.num * other.den - other.num * self.den
        return FieldElement(self.field, num, self.den * other.den)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return FieldElement(self.field, self.num * other, self.den)
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Inverse by one exact solve: with M the multiplication matrix of
        num, the coordinates x of num^(-1) satisfy M^T x = e_1."""
        n = self.field.degree
        m = self.field.mult_matrix(self.num.coeffs).transpose()
        d, x = solve(m, IntMatrix([[int(i == 0)] for i in range(n)]))
        if x is None:
            raise ZeroDivisionError("inverting zero field element")
        return FieldElement(self.field, IntPoly(x.col(0)) * self.den, d)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self) -> str:
        body = self.num.pretty()
        return f"({body})/{self.den}" if self.den != 1 else f"({body})"
