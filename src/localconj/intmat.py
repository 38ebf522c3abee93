"""Exact dense integer matrices.

Arbitrary-precision arithmetic, one Bareiss elimination for determinants and
exact solves (its back substitution also gives triangular adjugates), one
row Hermite form for lattices, their duals, their meets and the integer and
modular kernels (`kernel_basis_Z`, `kernel_mod`), one echelon form over
Z/p^k (`_echelon_fp`: ranks mod p, local Smith forms, coordinates modulo p^k
in a basis that is independent mod p), and Smith normal form with
unimodular transforms, which serves the `snf` command alone.  The Smith form
runs no elimination of its own: it alternates row and column Hermite forms
and inverts its transforms by `solve`, so over Z there are two eliminations,
Bareiss and Hermite.  Its transforms s and t differ from those of the
pivoting elimination it replaced (its diagonal d does not), and so do the
`s` and `t` of `snf` reports.
Matrices are immutable; every operation returns a fresh value.  There is no
floating point, no rational arithmetic and no word-size fast path anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from operator import index, mul

from .primes import prime_power_split

Vector = tuple[int, ...]


class IntMatrix:
    """Immutable row-major matrix of Python ints."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries) -> None:
        try:
            data = tuple(tuple(map(index, row)) for row in entries)
        except TypeError as exc:
            # a float or a numeric string is refused, never truncated
            raise ValueError(f"matrix entries must be integers: {exc}") from None
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    @classmethod
    def _of(cls, rows) -> "IntMatrix":
        """Wrap equal-length rows of ints computed in this package, unchecked."""
        data = tuple(map(tuple, rows))
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        m = object.__new__(cls)
        object.__setattr__(m, "entries", data)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", len(data[0]))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of([[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        d = list(diag)
        n = len(d)
        return cls([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basic structure ----------------------------------------------

    def __getitem__(self, key) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of([[-a for a in row] for row in self.entries])

    def __mul__(self, scalar: int) -> "IntMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix._of([[scalar * a for a in row] for row in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bt = list(zip(*other.entries))
        return IntMatrix._of(
            [[sum(map(mul, row, col)) for col in bt] for row in self.entries]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def mul_vec(self, v) -> Vector:
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(zip(*self.entries))

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def mod(self, modulus: int) -> "IntMatrix":
        return IntMatrix._of([[a % modulus for a in row] for row in self.entries])

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        out = []
        for arow in self.entries:
            for brow in other.entries:
                out.append([a * b for a in arow for b in brow])
        return IntMatrix._of(out)

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def det(self) -> int:
        return det(self)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(m.to_lists(), m.rows)


def solve(m: IntMatrix, rhs: IntMatrix) -> tuple[int, IntMatrix | None]:
    """(det m, det(m) * m^(-1) @ rhs) for square m, by one Bareiss elimination
    of [m | rhs] and an exact back substitution; (0, None) when m is
    singular.  The second matrix is adj(m) @ rhs, so it is integral."""
    if not m.is_square or m.rows != rhs.rows:
        raise ValueError("bad shapes for an exact solve")
    n = m.rows
    a = [list(mr) + list(br) for mr, br in zip(m.entries, rhs.entries)]
    d = _bareiss(a, n)
    if d == 0:
        return 0, None
    return d, IntMatrix._of(back_substitute([r[:n] for r in a], [r[n:] for r in a], d))


def _krylov(m: IntMatrix, v) -> IntMatrix:
    """The matrix [v, m v, ..., m^(n-1) v] of an n x n matrix m."""
    cols = [tuple(v)]
    for _ in range(m.rows - 1):
        cols.append(m.mul_vec(cols[-1]))
    return IntMatrix._of(zip(*cols))


def _bareiss(a: list[list[int]], n: int) -> int:
    """Bareiss elimination of the first n columns of the n rows a, in place;
    any further columns are carried along.  Returns the determinant of the
    leading n x n block.  When it is nonzero, a is upper triangular in those
    columns and its rows span the same space over Q as before."""
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k = a[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def back_substitute(u, rhs, scale: int) -> list[list[int]]:
    """The integer x with u @ x = scale * rhs, for an upper-triangular u with
    nonzero diagonal, by exact back substitution.  Every division must be
    exact; a remainder raises AssertionError."""
    n, w = len(u), len(rhs[0])
    x = [[0] * w for _ in range(n)]
    for r in range(n - 1, -1, -1):
        row = u[r]
        for c in range(w):
            acc = scale * rhs[r][c]
            for k in range(r + 1, n):
                acc -= row[k] * x[k][c]
            q, rem = divmod(acc, row[r])
            if rem:
                raise AssertionError("inexact division in a back substitution")
            x[r][c] = q
    return x


def _hnf_rows(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row HNF: pivot rows in increasing pivot-column order, positive pivots,
    entries above each pivot reduced into [0, pivot)."""
    work = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        while True:
            live = [r for r in work if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            for r in live[1:]:
                q = r[col] // base[col]
                if q:
                    for j in range(col, ncols):
                        r[j] -= q * base[j]
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        pivot = live[0]
        if pivot[col] < 0:
            for j in range(ncols):
                pivot[j] = -pivot[j]
        out.append(pivot)
        pivot_cols.append(col)
        work = [r for r in work if r is not pivot and any(r)]
    for idx, pcol in enumerate(pivot_cols):
        piv = out[idx]
        for earlier in range(idx):
            q = out[earlier][pcol] // piv[pcol]
            if q:
                for j in range(pcol, ncols):
                    out[earlier][j] -= q * piv[j]
    return out


def _diagonal_product(rows) -> int:
    return prod(row[k] for k, row in enumerate(rows))


def _adjugate_upper(rows) -> list[list[int]]:
    """Adjugate of an upper-triangular integer matrix with nonzero diagonal:
    the exact back substitution of h X = det(h) I."""
    identity = IntMatrix.identity(len(rows)).entries
    return back_substitute(rows, identity, _diagonal_product(rows))


def _dual_rows(rows, ncols: int) -> tuple[list[list[int]], int]:
    """(adj(H)^T, det H) for H the Hermite form of the rows, which must span
    a lattice of full rank ncols.  The dual lattice {y : r . y in Z for every
    row r} is spanned by the rows of adj(H)^T / det H, a lower-triangular
    basis."""
    h = _hnf_rows(rows, ncols)
    if len(h) != ncols:
        raise AssertionError("the lattice to dualize is not of full rank")
    adj_h = _adjugate_upper(h)
    return [list(col) for col in zip(*adj_h)], _diagonal_product(h)


def _pair_reduced(rows: list[Vector]) -> list[Vector]:
    """Pairwise (Lagrange-Gauss) size reduction of a lattice basis: subtract
    the nearest integer multiple of one row from another while that shortens
    it.  The rows keep spanning the same lattice; on return no row gets
    shorter by a multiple of any other.

    Dots and norms are read off the Gram matrix G = B B^T.  An accepted step
    r_i <- r_i - c r_j takes c times row j of G from row and column i, with
    G_ii = |r_i|^2 - 2 c r_i.r_j + c^2 |r_j|^2, so it costs O(len(rows)) and
    a row vector changes only on an accepted step."""
    rows = [list(r) for r in rows]
    m = len(rows)
    gram = [[sum(map(mul, ri, rj)) for rj in rows] for ri in rows]
    changed = True
    while changed:
        changed = False
        for i, gi in enumerate(gram):
            for j, gj in enumerate(gram):
                norm = gj[j]
                if i == j or not norm:
                    continue
                dot = gi[j]
                c = (2 * dot + norm) // (2 * norm)  # nearest integer
                if not c:
                    continue
                size = gi[i] - 2 * c * dot + c * c * norm
                if size < gi[i]:
                    for k in range(m):
                        if k != i:
                            gi[k] -= c * gj[k]
                            gram[k][i] = gi[k]
                    gi[i] = size
                    rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
                    changed = True
    return [tuple(r) for r in rows]


def _echelon_fp(
    rows: list[Vector], p: int, width: int, k: int = 1
) -> list[Vector]:
    """Echelon form over Z/p^k of the rows, pivoting only in the first
    `width` columns: the nonzero pivot rows, full length, in the order found.

    Pivots are taken level by level: at level v, on entries of valuation
    exactly v, each scaled to p^v and cleared from the rows below it.  No
    entry of valuation below v is left in the unpivoted rows at level v, so
    every pivot has the least valuation left and the levels are the p-adic
    valuations (below k) of the invariant factors of the rows' matrix: a
    local Smith form.  A pivot row of level v is p^v times a row with a unit
    entry.  At k = 1 each pivot is cleared from the rows above it too, which
    gives the reduced row echelon form over F_p."""
    q = p**k
    rows = [[x % q for x in row] for row in rows]
    free = list(range(width))
    r = 0
    for v in range(k):
        pv, pv1 = p**v, p ** (v + 1)
        for c in list(free):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c] % pv1), None)
            if pivot is None:
                continue
            free.remove(c)
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][c] // pv, -1, q)
            prow = rows[r] = [x * inv % q for x in rows[r]]
            # a row changes only where the pivot row is nonzero
            nonzero = [(j, y) for j, y in enumerate(prow) if y]
            for i in range(0 if k == 1 else r + 1, len(rows)):
                row = rows[i]
                if i != r and row[c]:
                    f = row[c] // pv
                    for j, y in nonzero:
                        row[j] = (row[j] - f * y) % q
            r += 1
    return [tuple(row) for row in rows[:r]]


def _coordinates(basis: list[Vector], target: Vector, p: int, k: int) -> list[int]:
    """The c in [0, p^k)^m with sum_i c_i basis_i = target mod p^k, for m
    vectors that are independent mod p and a target in their span mod p^k;
    AssertionError otherwise.

    Over Z/p^k the columns of [basis^T | target] pivot in order at level 0,
    each scaled to 1, and target's column pivots nowhere exactly when it lies
    in the span: the coordinates then follow by back substitution over the
    unit upper-triangular block.  The result is checked on every entry."""
    m, q = len(basis), p**k
    cols = list(zip(*basis))  # row j: entry j of every basis vector
    solved = _echelon_fp([c + (t,) for c, t in zip(cols, target)], p, m + 1, k)
    coords = [0] * m
    if len(solved) == m:
        for i in reversed(range(m)):
            row = solved[i]
            coords[i] = (row[m] - sum(map(mul, row[i + 1 : m], coords[i + 1 :]))) % q
    if any((sum(map(mul, c, coords)) - t) % q for c, t in zip(cols, target)):
        raise AssertionError(f"vector outside the span of the basis mod {p}^{k}")
    return coords


@dataclass(frozen=True)
class SNFDecomposition:
    """m = s @ d @ t with s, t unimodular and d diagonal, d_i | d_{i+1}.

    Construction checks the decomposition at the cost of two matrix
    products and two determinants."""

    s: IntMatrix
    d: IntMatrix
    t: IntMatrix
    original: IntMatrix

    def __post_init__(self) -> None:
        d = self.d.entries
        if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
            raise AssertionError("SNF: d is not diagonal")
        if self.s @ self.d @ self.t != self.original:
            raise AssertionError("SNF: s @ d @ t != original")
        if abs(det(self.s)) != 1 or abs(det(self.t)) != 1:
            raise AssertionError("SNF: s or t is not unimodular")
        diag = self.diagonal()
        for a, b in zip(diag, diag[1:]):
            if a < 0 or b < 0:
                raise AssertionError("SNF: negative invariant factor")
            if b != 0 and a == 0:
                raise AssertionError("SNF: zero factor before a nonzero one")
            if a != 0 and b % a != 0:
                raise AssertionError("SNF: divisibility chain broken")

    def diagonal(self) -> Vector:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(k))


def _row_hermite(
    a: list[list[int]], u: list[list[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """The row Hermite form of [a | u] split back into its two blocks.  For
    a unimodular u the form has as many rows as u and is w [a | u] for a
    unimodular w."""
    width = len(a[0])
    h = _hnf_rows([ra + ru for ra, ru in zip(a, u)], width + len(u[0]))
    return [r[:width] for r in h], [r[width:] for r in h]


def snf(m: IntMatrix) -> SNFDecomposition:
    """Smith normal form with both transforms, from alternating row and
    column Hermite forms (Kannan and Bachem, SIAM J. Comput. 8, 1979).

    Throughout u m v = a with u and v unimodular.  The row Hermite forms of
    [a | u] and of [a^T | v^T] alternate until a is diagonal.  While some
    d_i fails to divide a later d_j (d_i = 0 < d_j included), column j is
    added to column i of a and v and the forms are taken again.  Then
    s = u^(-1) and t = v^(-1), one exact solve each.
    """
    a = m.to_lists()
    u = IntMatrix.identity(m.rows).to_lists()
    v = IntMatrix.identity(m.cols).to_lists()
    while True:
        a, u = _row_hermite(a, u)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            at, vt = _row_hermite([*map(list, zip(*a))], [*map(list, zip(*v))])
            a, v = [*map(list, zip(*at))], [*map(list, zip(*vt))]
            continue
        d = [a[k][k] for k in range(min(m.rows, m.cols))]
        pairs = combinations(range(len(d)), 2)
        bad = next(((i, j) for i, j in pairs if gcd(d[i], d[j]) != d[i]), None)
        if bad is None:
            break
        for row in a + v:
            row[bad[0]] += row[bad[1]]
    det_u, s = solve(IntMatrix._of(u), IntMatrix.identity(m.rows))
    det_v, t = solve(IntMatrix._of(v), IntMatrix.identity(m.cols))
    # det u and det v are +-1, so u^(-1) = det(u) adj(u)
    return SNFDecomposition(s=det_u * s, d=IntMatrix._of(a), t=det_v * t, original=m)


def _zero_head_tails(rows: list[list[int]], head: int) -> list[list[int]]:
    """The tails of the Hermite-form rows whose first `head` entries vanish:
    the form is echelon, so they are a basis of {y : (0, y) in the row
    span} (Cohen, GTM 138, 2.4)."""
    return [r[head:] for r in _hnf_rows(rows, len(rows[0])) if not any(r[:head])]


def _graph_rows(m: IntMatrix) -> list[list[int]]:
    """The rows (column j of m, e_j), which span {(m x, x) : x in Z^cols}."""
    unit = IntMatrix.identity(m.cols).entries
    return [list(c) + list(e) for c, e in zip(zip(*m.entries), unit)]


def kernel_basis_Z(m: IntMatrix) -> list[Vector]:
    """Saturated basis of the integer kernel {x : m @ x = 0}: the (0, x) in
    the span of the graph rows of m."""
    return [tuple(r) for r in _zero_head_tails(_graph_rows(m), m.rows)]


def kernel_mod(m: IntMatrix, modulus: int) -> list[Vector]:
    """Generators of {x mod modulus : m @ x = 0 mod modulus} for a prime-power
    modulus: the (0, x) in the span of the graph rows of m and the rows
    (modulus * e_i, 0), reduced mod the modulus, the zero ones dropped."""
    prime_power_split(modulus)  # validates the modulus shape
    rows = _graph_rows(m) + [
        [modulus if i == j else 0 for i in range(m.rows)] + [0] * m.cols
        for j in range(m.rows)
    ]
    gens = [tuple(x % modulus for x in r) for r in _zero_head_tails(rows, m.rows)]
    return [g for g in gens if any(g)]
