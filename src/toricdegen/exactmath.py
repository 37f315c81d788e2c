"""Exact integer and rational linear algebra primitives.

Everything operates on plain tuples of ``int`` / ``Fraction``; no floating
point is used anywhere.  Rationals are ``fractions.Fraction`` (always reduced,
positive denominator), lattice vectors are tuples of arbitrary-precision
integers.  Linear systems, ranks and determinants are eliminated over the
integers by fraction-free (Bareiss) elimination: ``echelon`` clears each
row's denominators and works on integers throughout, and its callers form a
``Fraction`` only for the final answer.  Kernels come from one routine, the
Hermite normal form with its unimodular transform (``left_kernel``, and
``right_kernel`` on the transpose): a lattice basis of the integer
relations, so a kernel that is a line has a primitive generator.  Affine
functions are likewise integer triples ``(a, b, d)`` over one positive
denominator, in lowest terms.  An integral value is always a plain ``int``,
never an integral ``Fraction``: ``normalize_coord`` returns an ``int``
unchanged, and ``primitive`` returns ``int`` entries, also for a rational
vector.  An inverse is integral too: ``echelon`` run on ``[A | I]`` gives
``det * A^-1`` in integers, which is how lattice equivalence inverts an
edge basis once per search.  The vector kernels
are ``map`` over ``operator`` functions and gcds one ``math.gcd`` call, so
their per-entry loops run in C builtins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import GeometryError


def vadd(a, b):
    return tuple(map(add, a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def vdot(a, b):
    return sum(map(mul, a, b))


def primitive(v):
    """The primitive integer vector along a nonzero rational vector: an
    all-``int`` vector divided by the gcd of its entries, any other one
    cleared of denominators first.  Direction is preserved; the zero vector
    is rejected."""
    try:
        g = gcd(*v)
    except TypeError:
        fracs = [Fraction(x) for x in v]
        denom = lcm(*[x.denominator for x in fracs])
        v = [x.numerator * (denom // x.denominator) for x in fracs]
        g = gcd(*v)
    if not g:
        raise GeometryErrorZero()
    return tuple([x // g for x in v])


class GeometryErrorZero(GeometryError):
    def __init__(self):
        super().__init__("zero vector has no primitive representative")


_INT = frozenset((int,))


def _as_int(x):
    i = int(x)
    if i != x:
        raise ValueError("integer matrix expected")
    return i


def int_vector(v):
    """``v`` as a tuple of ``int``, or ``GeometryError`` at an entry that is
    not integral; an integral ``Fraction`` is taken."""
    try:
        return tuple(v) if _INT.issuperset(map(type, v)) else tuple(map(_as_int, v))
    except ValueError:
        raise GeometryError(f"integral entries expected, got ({', '.join(map(str, v))})") from None


def _int_rows(rows):
    """The rows as fresh lists of ``int``: an all-``int`` row is copied, and
    in any other row each entry must be integral."""
    return [list(r) if _INT.issuperset(map(type, r)) else [_as_int(x) for x in r] for r in rows]


def determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    m = _int_rows(rows)
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
    """Determinant over the rationals: Bareiss on the rows cleared of
    denominators, divided by the product of the row scales."""
    scales = [lcm(*[Fraction(x).denominator for x in row]) for row in rows]
    scaled = [[int(x * q) for x in row] for row, q in zip(rows, scales)]
    return Fraction(determinant(scaled), prod(scales))


def _row_sub(row, other, q):
    for j in range(len(row)):
        row[j] -= q * other[j]


def _hnf_with_transform(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns ``(basis, rank, U)``: ``basis`` is a triangular lattice basis of
    the integer row span (pivots positive, entries above a pivot reduced into
    ``[0, pivot)``) and ``U`` a unimodular transform with ``U*A = H``.
    """
    m = _int_rows(rows)
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


def echelon(m, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the rows ``m``.

    ``m`` is reduced in place: its rows are replaced, never mutated, so rows
    may be shared tuples.  A row with ``Fraction`` entries is first scaled by
    the lcm of its denominators.  Pivots are sought in the first ``ncols``
    columns; further columns (a right-hand side) are carried along.  Returns
    ``(rank, pivots, det)``: rows ``0 .. rank-1`` hold the pivots, in column
    order, each with value ``det`` on its own pivot column and ``0`` on the
    other pivot columns, and rows from ``rank`` on are zero in the first
    ``ncols`` columns.  Every division is exact, so all entries stay integers
    (minors of the input).  With full column rank the unique solution of the
    augmented system is ``m[i][ncols] / det``.
    """
    for i, row in enumerate(m):
        if not _INT.issuperset(map(type, row)):
            q = lcm(*[Fraction(x).denominator for x in row])
            m[i] = [int(x * q) for x in row]
    nrows = len(m)
    pivots = []
    det = 1
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if m[i][col]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r]
        piv = top[col]
        for i in range(nrows):
            f = m[i][col]
            if i != r and (f or piv != det):
                m[i] = [(piv * x - f * y) // det for x, y in zip(m[i], top)]
        det = piv
        pivots.append(col)
    return len(pivots), pivots, det


def rank_fraction(rows) -> int:
    m = list(rows)
    return echelon(m, len(m[0]) if m else 0)[0]


def _solve(rows, rhs):
    """``(rank, x)`` for ``A x = b`` with free variables 0, or None if
    inconsistent."""
    ncols = len(rows[0]) if rows else 0
    m = [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    rank, pivots, det = echelon(m, ncols)
    if any(row[ncols] for row in m[rank:]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        x[col] = Fraction(row[ncols], det)
    return rank, tuple(x)


def solve_linear(rows, rhs):
    """Solve ``A x = b`` exactly.

    Returns ``("unique", x)``, ``("none", None)`` for an inconsistent system,
    or ``("many", None)`` when the solution is not unique.
    """
    solved = _solve(rows, rhs)
    if solved is None:
        return "none", None
    rank, x = solved
    if rank < len(x):
        return "many", None
    return "unique", x


def solve_particular(rows, rhs):
    """One rational solution of a consistent underdetermined system, or None."""
    solved = _solve(rows, rhs)
    return None if solved is None else solved[1]


def normalize_coord(x):
    """Collapse integral Fractions to int so mixed tuples hash alike; an
    ``int`` is returned unchanged."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def normalize_point(p):
    return tuple([normalize_coord(x) for x in p])


@dataclass(frozen=True)
class AffineFunction:
    """A rational affine function ``x -> (<a, x> + b) / d`` with integer
    ``a``, ``b``, ``d``, ``d > 0`` and ``gcd(a..., b, d) = 1``.

    The form is canonical, so field equality and hashing are equality of
    functions.  Build one with ``make`` or ``zero``; every operation works on
    integers and reduces its result once.
    """

    a: tuple
    b: int
    d: int

    @staticmethod
    def _reduced(a, b, d):
        g = gcd(*a, b, d)
        return AffineFunction(tuple([x // g for x in a]), b // g, d // g)

    @staticmethod
    def make(linear, constant=0):
        """The function ``x -> <linear, x> + constant`` for rational data."""
        fracs = [Fraction(c) for c in (*linear, constant)]
        d = lcm(*[c.denominator for c in fracs])
        *a, b = (c.numerator * (d // c.denominator) for c in fracs)
        return AffineFunction._reduced(a, b, d)

    @staticmethod
    def zero(rank):
        return AffineFunction((0,) * rank, 0, 1)

    @property
    def linear(self):
        return tuple(Fraction(x, self.d) for x in self.a)

    @property
    def constant(self):
        return Fraction(self.b, self.d)

    def __call__(self, point):
        return Fraction(vdot(self.a, point) + self.b, self.d)

    def directional(self, vector):
        return Fraction(vdot(self.a, vector), self.d)

    def __add__(self, other):
        s, t = other.d, self.d
        a = tuple(s * x + t * y for x, y in zip(self.a, other.a))
        return AffineFunction._reduced(a, s * self.b + t * other.b, s * t)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return AffineFunction(tuple(-x for x in self.a), -self.b, self.d)

    def scale(self, c):
        p, q = Fraction(c).as_integer_ratio()
        return AffineFunction._reduced(tuple(p * x for x in self.a), p * self.b, q * self.d)

    @property
    def is_zero(self):
        return self.b == 0 and not any(self.a)

    @property
    def is_integral(self):
        """Integral as a function on the full lattice Z^n."""
        return self.d == 1
