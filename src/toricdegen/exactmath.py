"""Exact integer and rational linear algebra primitives.

Everything operates on plain tuples of ``int`` / ``Fraction``; no floating
point is used anywhere.  Rationals are ``fractions.Fraction`` (always reduced,
positive denominator), lattice vectors are tuples of arbitrary-precision
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import GeometryError


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    return tuple(c * x for x in a)


def vdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(int(v)))
    return g


def lcm_all(values) -> int:
    out = 1
    for v in values:
        v = abs(int(v))
        if v:
            out = out * v // gcd(out, v)
    return out


def primitive(v):
    """Divide an integer vector by the gcd of its entries.

    Direction is preserved; the zero vector is rejected.
    """
    if all(x == 0 for x in v):
        raise GeometryErrorZero()
    g = gcd_all(v)
    return tuple(x // g for x in v)


class GeometryErrorZero(GeometryError):
    def __init__(self):
        super().__init__("zero vector has no primitive representative")


def rational_primitive(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    Returns ``(w, s)`` with ``w`` primitive integer and ``v = s * w`` for a
    positive rational ``s``.
    """
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise GeometryErrorZero()
    denom = lcm_all(x.denominator for x in fracs)
    ints = [int(x * denom) for x in fracs]
    g = gcd_all(ints)
    w = tuple(x // g for x in ints)
    return w, Fraction(g, denom)


def _as_int(x):
    i = int(x)
    if i != x:
        raise ValueError("integer matrix expected")
    return i


def determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    m = [[_as_int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinant_fraction(rows) -> Fraction:
    """Determinant over the rationals (Gaussian elimination)."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return det


def is_unimodular_basis(vectors) -> bool:
    """True iff the vectors form a basis of the integer lattice (det = ±1)."""
    if not vectors or any(len(v) != len(vectors) for v in vectors):
        raise ValueError("not a candidate basis")
    return abs(determinant(vectors)) == 1


def _row_sub(row, other, q):
    for j in range(len(row)):
        row[j] -= q * other[j]


def hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns ``(basis, rank)`` where ``basis`` is a triangular lattice basis
    of the integer row span: pivots positive, entries above a pivot reduced
    into ``[0, pivot)``.  Empty input gives ``([], 0)``.
    """
    basis, rank, _ = _hnf_with_transform(rows)
    return basis, rank


def _hnf_with_transform(rows):
    """HNF together with a unimodular transform ``U`` with ``U*A = H``."""
    m = [[_as_int(x) for x in r] for r in rows]
    nrows = len(m)
    width = len(m[0]) if nrows else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    pivot = 0
    for col in range(width):
        while True:
            live = [i for i in range(pivot, nrows) if m[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(m[i][col]))
            base = live[0]
            for i in live[1:]:
                q = m[i][col] // m[base][col]
                _row_sub(m[i], m[base], q)
                _row_sub(u[i], u[base], q)
        live = [i for i in range(pivot, nrows) if m[i][col] != 0]
        if not live:
            continue
        i = live[0]
        if i != pivot:
            m[pivot], m[i] = m[i], m[pivot]
            u[pivot], u[i] = u[i], u[pivot]
        if m[pivot][col] < 0:
            m[pivot] = [-x for x in m[pivot]]
            u[pivot] = [-x for x in u[pivot]]
        for i in range(pivot):
            q = m[i][col] // m[pivot][col]
            if q:
                _row_sub(m[i], m[pivot], q)
                _row_sub(u[i], u[pivot], q)
        pivot += 1
    basis = [tuple(r) for r in m[:pivot]]
    return basis, pivot, [tuple(r) for r in u]


def left_kernel(rows):
    """Integer basis of ``{x : x * A = 0}`` for the matrix with given rows."""
    _, rank, u = _hnf_with_transform(rows)
    return [u[i] for i in range(rank, len(rows))]


def transpose(rows):
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))] if rows else []


def right_kernel(rows):
    """Integer basis of ``{c : A * c = 0}``."""
    if not rows:
        raise ValueError("right_kernel needs at least the row width")
    return left_kernel(transpose(rows))


def saturation(rows):
    """Basis of the saturated lattice ``span_Q(rows) ∩ Z^n``."""
    rows = [tuple(r) for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    ker = right_kernel(rows)
    if not ker:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return right_kernel(ker)


def in_lattice_span(basis, v) -> bool:
    """Whether an integer vector reduces to zero against an HNF basis."""
    v = list(map(int, v))
    width = len(v)
    for row in basis:
        col = next((j for j in range(width) if row[j] != 0), None)
        if col is None:
            continue
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        for j in range(width):
            v[j] -= q * row[j]
    return all(x == 0 for x in v)


def rank_fraction(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] * inv
                for j in range(col, ncols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


def solve_linear(rows, rhs):
    """Solve ``A x = b`` exactly.

    Returns ``("unique", x)``, ``("none", None)`` for an inconsistent system,
    or ``("many", None)`` when the solution is not unique.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(m)):
        if m[i][ncols] != 0:
            return "none", None
    if rank < ncols:
        return "many", None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return "unique", tuple(x)


def solve_particular(rows, rhs):
    """One rational solution of a consistent underdetermined system, or None."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return tuple(x)


def normalize_coord(x):
    """Collapse integral Fractions to int so mixed tuples hash alike."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def normalize_point(p):
    return tuple(normalize_coord(x) for x in p)


@dataclass(frozen=True)
class AffineFunction:
    """A rational affine function ``x -> <linear, x> + constant``."""

    linear: tuple
    constant: Fraction

    @staticmethod
    def make(linear, constant=0):
        return AffineFunction(tuple(Fraction(c) for c in linear), Fraction(constant))

    @staticmethod
    def zero(rank):
        return AffineFunction(tuple(Fraction(0) for _ in range(rank)), Fraction(0))

    def __call__(self, point):
        return vdot(self.linear, point) + self.constant

    def directional(self, vector):
        return vdot(self.linear, vector)

    def __add__(self, other):
        return AffineFunction(vadd(self.linear, other.linear), self.constant + other.constant)

    def __sub__(self, other):
        return AffineFunction(vsub(self.linear, other.linear), self.constant - other.constant)

    def __neg__(self):
        return AffineFunction(vneg(self.linear), -self.constant)

    def scale(self, c):
        c = Fraction(c)
        return AffineFunction(vscale(c, self.linear), c * self.constant)

    @property
    def is_zero(self):
        return self.constant == 0 and all(c == 0 for c in self.linear)

    @property
    def is_integral(self):
        """Integral as a function on the full lattice Z^n."""
        return self.constant.denominator == 1 and all(
            Fraction(c).denominator == 1 for c in self.linear
        )
