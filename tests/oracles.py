"""Independent oracles for the test suite.

Everything here recomputes answers by first principles (cofactor expansion,
exhaustive enumeration, coefficient search) without going through the code
paths under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, isqrt, lcm

from localconj import (
    EigenData,
    FieldElement,
    IdealLattice,
    IntMatrix,
    IntPoly,
    NumberField,
    PrimePartProfile,
    SylvesterOperator,
    charpoly,
    discriminant,
    is_irreducible,
)
from localconj.intmat import _echelon_fp
from localconj.primes import valuation


def laplace_det(rows: list[list[int]]) -> int:
    """Recursive cofactor expansion; independent of Bareiss elimination."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * laplace_det(minor)
    return total


def full_precision_mu(op: SylvesterOperator, f: IntPoly, p: int) -> int:
    """mu at p from one local Smith form of the operator over Z/p^K with
    K = v_p(disc f) + 1, which bounds every nonzero invariant factor's
    valuation: no early stop and no annihilator guard, only the check that
    exactly n^2 - n pivots appear below level K.  It shares `_echelon_fp`
    with the code under test; the operator's integer Smith form
    (`integer_profile(op.l, p)`) is the check independent of both."""
    n = op.n
    k = valuation(discriminant(f), p) + 1
    pivots = _echelon_fp(op.l.entries, p, n * n, k)
    if len(pivots) != n * n - n:
        raise AssertionError(
            f"{len(pivots)} local pivots below {p}^{k}, expected {n * n - n}"
        )
    top = p**k
    return max((valuation(gcd(top, *row), p) for row in pivots), default=0)


def minor_gcds(m: IntMatrix) -> list[int]:
    """g_k = gcd of all k x k minors; the k-th invariant factor is
    g_k / g_{k-1} while the minors stay nonzero."""
    out = []
    limit = min(m.rows, m.cols)
    for k in range(1, limit + 1):
        g = 0
        for rows_idx in itertools.combinations(range(m.rows), k):
            for cols_idx in itertools.combinations(range(m.cols), k):
                sub = [[m[i, j] for j in cols_idx] for i in rows_idx]
                g = gcd(g, laplace_det(sub))
        out.append(abs(g))
    return out


def brute_solutions_mod(m: IntMatrix, modulus: int) -> set[tuple[int, ...]]:
    """All x with m @ x = 0 mod modulus, by full enumeration."""
    sols = set()
    for x in itertools.product(range(modulus), repeat=m.cols):
        if all(v % modulus == 0 for v in m.mul_vec(x)):
            sols.add(x)
    return sols


def span_of_generators_mod(gens, modulus: int, width: int) -> set[tuple[int, ...]]:
    """The module generated by gens inside (Z/modulus)^width."""
    if not gens:
        return {tuple([0] * width)}
    span = set()
    for coeffs in itertools.product(range(modulus), repeat=len(gens)):
        v = [0] * width
        for c, g in zip(coeffs, gens):
            if c:
                for i, x in enumerate(g):
                    v[i] = (v[i] + c * x) % modulus
        span.add(tuple(v))
    return span


def brute_similar_mod(a: IntMatrix, b: IntMatrix, modulus: int, p: int) -> bool:
    """Does some X mod modulus satisfy aX = Xb with det X a unit mod p?
    Full enumeration of the n^2 entries."""
    n = a.rows
    for flat in itertools.product(range(modulus), repeat=n * n):
        x = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        ok = True
        for i in range(n):
            for j in range(n):
                s = sum(a[i, k] * x[k][j] for k in range(n)) - sum(
                    x[i][k] * b[k, j] for k in range(n)
                )
                if s % modulus:
                    ok = False
                    break
            if not ok:
                break
        if ok and laplace_det(x) % p != 0:
            return True
    return False


def kernel_search_intertwiner(a: IntMatrix, b: IntMatrix, p: int, bound: int = 3) -> bool:
    """Existence of an exact integer intertwiner with det prime to p, found by
    searching coefficient vectors of the exact kernel basis up to the bound."""
    n = a.rows
    eye = IntMatrix.identity(n)
    l = eye.kron(a) - b.transpose().kron(eye)
    basis = reference_kernel(l)
    if not basis:
        return False
    mats = []
    for v in basis:
        mats.append([[v[j * n + i] for j in range(n)] for i in range(n)])
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        if all(c == 0 for c in coeffs):
            continue
        q = [[sum(c * m[i][j] for c, m in zip(coeffs, mats)) for j in range(n)] for i in range(n)]
        if laplace_det(q) % p != 0:
            return True
    return False


def projective_walk(gens, p: int, n: int, modulus: int, s: int) -> tuple[int, ...] | None:
    """sum c_i gens_i mod `modulus` at the first coefficients c whose
    combination of the column-major vectorized n x n `gens` has determinant
    prime to p, or None when the walk finds none.  The walk is ordered and
    projective over the generators as given: later leading 1s first, each
    tail over {0, ..., s - 1} in lexicographic order, in cofactor
    arithmetic.  With s = p it is every projective point of F_p^len(gens),
    so None means the mod-p span holds no unit."""
    dim = len(gens)
    for lead in reversed(range(dim)):
        for tail in itertools.product(range(s), repeat=dim - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            v = [sum(c * g[idx] for c, g in zip(coeffs, gens)) for idx in range(n * n)]
            if laplace_det([[v[j * n + i] for j in range(n)] for i in range(n)]) % p:
                return tuple(x % modulus for x in v)
    return None


def brute_companion_test(a: IntMatrix, p: int) -> bool:
    """Search all v in F_p^n for an independent Krylov family."""
    n = a.rows
    am = a.mod(p)
    for v in itertools.product(range(p), repeat=n):
        if all(x == 0 for x in v):
            continue
        cols = [v]
        for _ in range(n - 1):
            cols.append(tuple(x % p for x in am.mul_vec(cols[-1])))
        mat = [[cols[j][i] for j in range(n)] for i in range(n)]
        if laplace_det(mat) % p != 0:
            return True
    return False


def has_monic_factor_bruteforce(f: IntPoly) -> bool:
    """Exhaustive coefficient search for a monic factor of degree 1..n//2
    inside the Landau-Mignotte box; independent of interpolation."""
    n = f.degree
    norm = isqrt(sum(c * c for c in f.coeffs)) + 1
    for k in range(1, n // 2 + 1):
        bound = (1 << k) * norm
        for tail in itertools.product(range(-bound, bound + 1), repeat=k):
            g = IntPoly(list(tail) + [1])
            if g.degree != k:
                continue
            _, rem = f.divmod_monic(g)
            if rem.is_zero:
                return True
    return False


def brute_degree_pattern(f: IntPoly, p: int) -> list[int]:
    """Sorted degrees of the monic irreducible factors of monic f mod p, by
    trial division with every monic polynomial mod p in increasing degree:
    the first divisor found of each degree is irreducible."""
    rest = [c % p for c in f.coeffs]
    degrees = []
    d = 1
    while len(rest) - 1 >= 2 * d:
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            while True:
                quo, rem = _divmod_monic_p(rest, g, p)
                if any(rem):
                    break
                rest = quo
                degrees.append(d)
        d += 1
    if len(rest) > 1:
        degrees.append(len(rest) - 1)
    return sorted(degrees)


def degree_pattern_from_scratch(f: IntPoly, p: int) -> list[int]:
    """The distinct-degree pattern of monic f mod p, as `_degree_pattern`
    took it before it iterated: t^(p^d) by square and multiply of t from
    scratch for every d, with this module's own polynomial arithmetic."""
    fp = [c % p for c in f.coeffs]
    n = f.degree

    def reduce(a):
        a = [x % p for x in a]
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i]
            if c:
                for j, y in enumerate(fp):
                    a[i - n + j] = (a[i - n + j] - c * y) % p
        return (a + [0] * n)[:n]

    def times(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return reduce(out)

    def gcd_degree(a, b):
        # degree of the monic gcd over F_p by Euclid's algorithm
        def trim(c):
            c = [x % p for x in c]
            while c and not c[-1]:
                c.pop()
            return c
        a, b = trim(a), trim(b)
        while b:
            _, rem = _divmod_monic_p(a, [x * pow(b[-1], -1, p) % p for x in b], p)
            a, b = b, trim(rem)
        return len(a) - 1

    carried: dict[int, int] = {}
    for d in range(1, n // 2 + 1):
        power, base, e = reduce([1]), reduce([0, 1]), p**d
        while e:
            if e & 1:
                power = times(power, base)
            base = times(base, base)
            e >>= 1
        power[1] -= 1
        degree = gcd_degree(fp, power)
        carried[d] = degree - sum(c for e, c in carried.items() if d % e == 0)
    pattern = [d for d, c in carried.items() for _ in range(c // d)]
    rest = n - sum(carried.values())
    return pattern + [rest] if rest else pattern


def _divmod_monic_p(a: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    dg = len(g) - 1
    quo = [0] * max(len(a) - dg, 1)
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i] % p
        quo[i - dg] = c
        for j, x in enumerate(g):
            a[i - dg + j] = (a[i - dg + j] - c * x) % p
    return quo, a[:dg]


def rational_poly_gcd_is_constant(f: IntPoly, g: IntPoly) -> bool:
    """gcd(f, g) over Q is a nonzero constant (Euclid with Fractions)."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]

    def trim(x):
        while x and x[-1] == 0:
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while b:
        # a mod b
        r = a[:]
        db = len(b) - 1
        for i in range(len(r) - 1, db - 1, -1):
            if r[i] == 0:
                continue
            c = r[i] / b[-1]
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
        a, b = b, trim(r)
    return len(a) == 1


def solve_exact(a: IntMatrix, b: IntMatrix) -> list[list[Fraction]]:
    """Solve a @ x = b over Q by Gauss-Jordan elimination with Fractions; a
    must be square and invertible."""
    if not a.is_square or a.rows != b.rows:
        raise ValueError("bad shapes for exact solve")
    n, w = a.rows, b.cols
    aug = [[Fraction(x) for x in arow] + [Fraction(x) for x in brow]
           for arow, brow in zip(a.entries, b.entries)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n : n + w] for row in aug]


def _trim(a: list[Fraction]) -> list[Fraction]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def euclid_inverse(x: FieldElement) -> FieldElement:
    """Inverse of a nonzero field element by the extended Euclidean
    algorithm in Q[t] with Fractions."""
    assert not x.is_zero

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return _trim(out)

    def sub(a, b):
        n = max(len(a), len(b))
        return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                      for i in range(n)])

    def divmod_q(a, b):
        a = list(a)
        db = len(b) - 1
        quo = [Fraction(0)] * max(len(a) - db, 1)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] / b[-1]
            quo[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
        return _trim(quo), _trim(a)

    # invariant: s * num = r (mod f)
    r0 = [Fraction(c) for c in x.field.modulus.coeffs]
    r1 = _trim([Fraction(c) for c in x.num.coeffs])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, rem = divmod_q(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(q, s1))
    inv = [c / r1[0] for c in s1]
    den = lcm(*(c.denominator for c in inv))
    num = IntPoly([int(c * den) for c in inv])
    return FieldElement(x.field, num * x.den, den)


def lagrange_interpolate(xs, ys) -> IntPoly | None:
    """Lagrange interpolation with Fractions; None unless every coefficient
    is an integer."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xs[j]
                new[d + 1] += c
            basis = new
            denom *= xs[i] - xs[j]
        w = Fraction(ys[i]) / denom
        for d, c in enumerate(basis):
            coeffs[d] += w * c
    if any(c.denominator != 1 for c in coeffs):
        return None
    return IntPoly([int(c) for c in coeffs])


def kernel_system_quotient(j: IdealLattice, i: IdealLattice) -> IdealLattice:
    """Colon ideal (j : i) as one integer kernel problem.

    Every candidate x lies in gamma^(-1) * j for the first basis element
    gamma of i.  Writing x = sum_k t_k r_k / e over that lattice's basis, the
    conditions x * s_g in j for all basis elements s_g of i form one
    n^2 x (n + n^2) system in the t_k and the coordinates of each x * s_g
    in j; the t-parts of its kernel span the colon ideal.
    """
    field = i.field
    n = field.degree
    gamma = i.basis_elements()[0]
    bound = IdealLattice.from_elements(
        field, [gamma.inverse() * e for e in j.basis_elements()]
    )
    e = bound.den
    r_rows = bound.basis.entries
    prods = []  # prods[g][k] = integer coordinates of r_k * s_g
    for sg in i.basis.entries:
        m_t = field.mult_matrix(sg).transpose()
        prods.append([m_t.mul_vec(rk) for rk in r_rows])
    scale_j = e * i.den
    rows = []
    for g in range(n):
        for coord in range(n):
            row = [0] * (n + n * n)
            for k in range(n):
                row[k] = j.den * prods[g][k][coord]
            for b in range(n):
                row[n + g * n + b] = -scale_j * j.basis[b, coord]
            rows.append(row)
    out_rows = []
    for v in reference_kernel(IntMatrix(rows)):
        acc = [0] * n
        for k in range(n):
            for idx in range(n):
                acc[idx] += v[k] * r_rows[k][idx]
        out_rows.append(acc)
    return IdealLattice(field, out_rows, e)


@cache
def _basis_inverse(lat: IdealLattice) -> list[list[Fraction]]:
    return solve_exact(lat.basis.transpose(), IntMatrix.identity(lat.field.degree))


def lattice_member(lat: IdealLattice, x: FieldElement) -> bool:
    """x lies in (1/den) * rowspan(B) iff den * x has integer coordinates
    in the rows of B: B^(-T) times its coordinates, with Fractions."""
    coords, d = x.coords()
    inv = _basis_inverse(lat)
    return all(
        (sum(v * c for v, c in zip(row, coords)) * lat.den / d).denominator == 1
        for row in inv
    )


def elementwise_contains_lattice(outer: IdealLattice, inner: IdealLattice) -> bool:
    return all(lattice_member(outer, e) for e in inner.basis_elements())


def elementwise_is_stable_under(lat: IdealLattice, other: IdealLattice) -> bool:
    """other * lat inside lat, product by product of basis elements."""
    return all(
        lattice_member(lat, x * y)
        for x in other.basis_elements()
        for y in lat.basis_elements()
    )


def elementwise_is_stable_under_beta(lat: IdealLattice) -> bool:
    beta = lat.field.beta()
    return all(lattice_member(lat, e * beta) for e in lat.basis_elements())


def elementwise_scaled(lat: IdealLattice, alpha: FieldElement) -> IdealLattice:
    return IdealLattice.from_elements(lat.field, [alpha * e for e in lat.basis_elements()])


def elementwise_order_failure(lat: IdealLattice) -> str | None:
    """The first order axiom the lattice breaks, as `Order` words it, or
    None when it is an order containing Z[beta]."""
    field = lat.field
    if not lattice_member(lat, field.one()):
        return "order must contain 1"
    if not lattice_member(lat, field.beta()):
        return "order must contain beta"
    if not elementwise_is_stable_under(lat, lat):
        return "order is not closed under multiplication"
    return None


def kernel_intersection(i: IdealLattice, j: IdealLattice) -> IdealLattice:
    """Lattice intersection as the integer kernel of the n x 2n system
    sum_r a_r li_r = sum_r b_r lj_r over the common denominator."""
    field = i.field
    n = field.degree
    den = lcm(i.den, j.den)
    li = [[(den // i.den) * x for x in row] for row in i.basis.entries]
    lj = [[(den // j.den) * x for x in row] for row in j.basis.entries]
    rows = [
        [li[r][coord] for r in range(n)] + [-lj[r][coord] for r in range(n)]
        for coord in range(n)
    ]
    out = []
    for v in reference_kernel(IntMatrix(rows)):
        out.append([sum(v[r] * li[r][idx] for r in range(n)) for idx in range(n)])
    return IdealLattice(field, out, den)


def kernel_smallest_positive_integer(lat: IdealLattice) -> int:
    """Generator of the lattice intersected with Z, from the rank-one kernel
    of the n x (n + 1) system a^T basis - c * den * e_1 = 0."""
    n = lat.field.degree
    rows = [
        [lat.basis[i, j] for i in range(n)] + [-lat.den if j == 0 else 0]
        for j in range(n)
    ]
    kernel = reference_kernel(IntMatrix(rows))
    assert len(kernel) == 1, "integer-intersection kernel should be rank one"
    return abs(kernel[0][-1])


def field_elimination_eigenvector(a: IntMatrix) -> EigenData:
    """Solve (a - beta I) u = 0 by Gauss-Jordan elimination with entries in
    the number field, then scale the first nonzero coordinate to 1."""
    f = charpoly(a)
    assert is_irreducible(f)
    field = NumberField(f)
    n = a.rows
    beta = field.beta()
    rows = [
        [field.element([a[i, j]]) - (beta if i == j else field.zero()) for j in range(n)]
        for i in range(n)
    ]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    assert r == n - 1, "eigenspace is not one-dimensional"
    pivot_cols = {c for _, c in pivots}
    free = next(c for c in range(n) if c not in pivot_cols)
    u = [field.zero()] * n
    u[free] = field.one()
    for rr, c in pivots:
        u[c] = -rows[rr][free]
    inv = next(x for x in u if not x.is_zero).inverse()
    return EigenData(field=field, u=tuple(x * inv for x in u))


@lru_cache(maxsize=8)  # tests read one operator's form several times
def reference_snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """(s, d, t, t_inv) by the plain Smith-form elimination: scan every entry
    for the first one of minimal absolute value, clear its row and column
    with full-length updates, and check that it divides what is left.  It
    fixes the diagonal `snf` must return, and the t_inv whose columns the
    kernel references below read."""
    nr, nc = m.rows, m.cols
    a = m.to_lists()
    s = [[int(i == j) for j in range(nr)] for i in range(nr)]
    t = [[int(i == j) for j in range(nc)] for i in range(nc)]
    t_inv = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        for row in s:
            row[i], row[j] = row[j], row[i]

    def addmul_row(i, j, q):
        ai, aj = a[i], a[j]
        for col in range(nc):
            ai[col] += q * aj[col]
        for row in s:
            row[j] -= q * row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        for row in s:
            row[i] = -row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        t[i], t[j] = t[j], t[i]
        for row in t_inv:
            row[i], row[j] = row[j], row[i]

    def addmul_col(j, i, q):
        for row in a:
            row[j] += q * row[i]
        ti, tj = t[i], t[j]
        for col in range(nc):
            ti[col] -= q * tj[col]
        for row in t_inv:
            row[j] += q * row[i]

    for k in range(min(nr, nc)):
        while True:
            piv = None
            best = None
            for i in range(k, nr):
                for j in range(k, nc):
                    v = a[i][j]
                    if v != 0 and (best is None or abs(v) < best):
                        best = abs(v)
                        piv = (i, j)
            if piv is None:
                break
            if piv[0] != k:
                swap_rows(k, piv[0])
            if piv[1] != k:
                swap_cols(k, piv[1])
            if a[k][k] < 0:
                negate_row(k)
            p = a[k][k]
            dirty = False
            for i in range(k + 1, nr):
                q = a[i][k] // p
                if q:
                    addmul_row(i, k, -q)
                if a[i][k]:
                    dirty = True
            for j in range(k + 1, nc):
                q = a[k][j] // p
                if q:
                    addmul_col(j, k, -q)
                if a[k][j]:
                    dirty = True
            if dirty:
                continue
            bad = None
            for i in range(k + 1, nr):
                if any(a[i][j] % p for j in range(k + 1, nc)):
                    bad = i
                    break
            if bad is None:
                break
            addmul_row(k, bad, 1)
        if a[k][k] == 0:
            break
    return IntMatrix(s), IntMatrix(a), IntMatrix(t), IntMatrix(t_inv)


def _egcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, a, b) with a x + b y = g = gcd(x, y) >= 0."""
    a0, b0, a1, b1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    return (x, a0, b0) if x >= 0 else (-x, -a0, -b0)


def plain_row_hermite(rows: list[list[int]]) -> list[list[int]]:
    """The row Hermite form of a matrix of full row rank by extended-gcd row
    operations: each column's entries below the current row are folded into
    it by the unimodular 2 x 2 step [[a, b], [-y/g, x/g]] with a x + b y = g,
    the pivot made positive and the rows above it reduced into [0, pivot)."""
    h = [list(r) for r in rows]
    r = 0
    for c in range(len(h[0])):
        if r == len(h):
            break
        for i in range(r + 1, len(h)):
            x, y = h[r][c], h[i][c]
            if y:
                g, a, b = _egcd(x, y)
                top, low = h[r], h[i]
                h[r] = [a * s + b * t for s, t in zip(top, low)]
                h[i] = [(x // g) * t - (y // g) * s for s, t in zip(top, low)]
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            h[i] = [s - q * t for s, t in zip(h[i], h[r])]
        r += 1
    assert r == len(h), "the rows are not of full rank"
    return h


def reference_hermite_snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(s, d, t) by the schedule `snf` documents, on `plain_row_hermite`.

    With u m v = a throughout: the row Hermite forms of [a | u] and of
    [a^T | v^T] alternate until a is diagonal, the row form first and after
    every change; while some d_i fails to divide a later d_j (the first such
    (i, j) in lexicographic order, d_i = 0 < d_j included), column j is added
    to column i of a and v.  Then s = u^(-1) and t = v^(-1) over Q.  A
    Hermite form is unique, so every correct Hermite form on this schedule
    gives these transforms."""
    nr, nc = m.rows, m.cols

    def split(rows, u):
        h = plain_row_hermite([r + ur for r, ur in zip(rows, u)])
        w = len(rows[0])
        return [r[:w] for r in h], [r[w:] for r in h]

    def transpose(rows):
        return [list(c) for c in zip(*rows)]

    def inverse(rows):
        n = len(rows)
        inv = solve_exact(IntMatrix(rows), IntMatrix.identity(n))
        assert all(x.denominator == 1 for row in inv for x in row)
        return IntMatrix([[int(x) for x in row] for row in inv])

    a = m.to_lists()
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    while True:
        a, u = split(a, u)
        if any(a[i][j] for i in range(nr) for j in range(nc) if i != j):
            at, vt = split(transpose(a), transpose(v))
            a, v = transpose(at), transpose(vt)
            continue
        d = [a[k][k] for k in range(min(nr, nc))]
        bad = [(i, j) for i in range(len(d)) for j in range(i + 1, len(d))
               if (d[j] % d[i] if d[i] else d[j])]
        if not bad:
            break
        i, j = bad[0]
        for row in a + v:
            row[i] += row[j]
    return inverse(u), IntMatrix(a), inverse(v)


def integer_profile(m: IntMatrix, p: int) -> PrimePartProfile:
    """The sorted p-adic valuations of the nonzero invariant factors of m,
    and mu, the largest of them (0 when there are none), read off the
    diagonal of `reference_snf`."""
    _, d, _, _ = reference_snf(m)
    diagonal = (d[i, i] for i in range(min(d.rows, d.cols)))
    exps = sorted(valuation(x, p) for x in diagonal if x)
    return PrimePartProfile(p, tuple(exps), exps[-1] if exps else 0)


def reference_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Saturated basis of the integer kernel of m: the columns of
    `reference_snf`'s t_inv past the nonzero invariant factors."""
    _, d, _, t_inv = reference_snf(m)
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i])
    return [t_inv.col(j) for j in range(rank, m.cols)]


def reference_kernel_mod(m: IntMatrix, modulus: int) -> list[tuple[int, ...]]:
    """Generators of {x mod modulus : m x = 0 mod modulus}: m t_inv = s d
    with s unimodular, so x = t_inv y is a solution exactly when d_j y_j = 0
    mod modulus for every j, and column j of t_inv contributes
    (modulus / gcd(d_j, modulus)) times itself (d_j = 0 past the diagonal)."""
    _, d, _, t_inv = reference_snf(m)
    gens = []
    for j in range(m.cols):
        dj = d[j, j] if j < min(d.rows, d.cols) else 0
        step = modulus // gcd(dj, modulus)
        if step != modulus:
            gens.append(tuple(step * x % modulus for x in t_inv.col(j)))
    return gens


def vector_pair_reduced(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Pairwise size reduction recomputing every dot product and norm from
    the row vectors, with the accept rule of `intmat._pair_reduced`: r_i
    takes r_i - c r_j, c the nearest integer to r_i.r_j / |r_j|^2, when
    that is shorter, sweeping i then j until a sweep changes nothing."""
    rows = [list(r) for r in rows]
    changed = True
    while changed:
        changed = False
        for i in range(len(rows)):
            for j in range(len(rows)):
                norm_j = sum(x * x for x in rows[j])
                if i == j or not norm_j:
                    continue
                dot = sum(x * y for x, y in zip(rows[i], rows[j]))
                c = (2 * dot + norm_j) // (2 * norm_j)
                new = [x - c * y for x, y in zip(rows[i], rows[j])]
                if c and sum(x * x for x in new) < sum(x * x for x in rows[i]):
                    rows[i] = new
                    changed = True
    return [tuple(r) for r in rows]
