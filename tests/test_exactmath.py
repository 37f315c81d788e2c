import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricdegen.exactmath import (
    AffineFunction,
    GeometryErrorZero,
    _hnf_with_transform,
    determinant,
    determinant_fraction,
    echelon,
    left_kernel,
    primitive,
    rank_fraction,
    right_kernel,
    solve_linear,
    solve_particular,
    vadd,
    vdot,
    vsub,
)
from toricdegen.errors import GeometryError
from toricdegen.polytope import _positive_relation, complete_fan_from_rays

import oracles


def square_matrices(max_dim=4, bound=9):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def rect_matrices(max_dim=4, bound=6):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-bound, bound), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


class TestHermiteNormalForm:
    def test_already_triangular(self):
        basis, rank, _ = _hnf_with_transform([(2, 0), (0, 2)])
        assert basis == [(2, 0), (0, 2)]
        assert rank == 2

    def test_mixed_rows_determinant(self):
        rows = [(1, 1), (1, -1)]
        basis, rank, _ = _hnf_with_transform(rows)
        assert rank == 2
        assert abs(determinant(basis)) == abs(determinant(rows)) == 2

    def test_single_row(self):
        basis, rank, _ = _hnf_with_transform([(3, 6)])
        assert basis == [(3, 6)]
        assert rank == 1

    def test_empty(self):
        assert _hnf_with_transform([]) == ([], 0, [])

    @given(rect_matrices())
    def test_row_span_preserved(self, rows):
        # U * A is the basis padded with zero rows, and U is unimodular, so
        # the basis spans the same lattice as the rows
        basis, rank, u = _hnf_with_transform(rows)
        assert rank == rank_fraction(rows) if any(any(r) for r in rows) else rank == 0
        assert abs(determinant(u)) == 1
        width = len(rows[0])
        product = [
            tuple(sum(c * row[j] for c, row in zip(combo, rows)) for j in range(width))
            for combo in u
        ]
        assert product == basis + [(0,) * width] * (len(rows) - rank)

    @given(rect_matrices())
    def test_triangular_shape(self, rows):
        basis, _, _ = _hnf_with_transform(rows)
        pivots = []
        for row in basis:
            lead = next(j for j, x in enumerate(row) if x != 0)
            assert row[lead] > 0
            pivots.append(lead)
        assert pivots == sorted(pivots)


class TestKernels:
    @given(rect_matrices())
    def test_left_kernel_annihilates(self, rows):
        for combo in left_kernel(rows):
            image = [
                sum(c * rows[i][j] for i, c in enumerate(combo))
                for j in range(len(rows[0]))
            ]
            assert all(x == 0 for x in image)

    @given(rect_matrices())
    def test_left_kernel_is_a_lattice_basis_of_the_relations(self, rows):
        # one vector per rational relation, spanning every integer one: the
        # relations form a saturated lattice, so a line has a primitive generator
        basis = left_kernel(rows)
        assert len(basis) == len(rows) - oracles.rank_fraction(rows)
        assert oracles.is_lattice_basis(basis, len(basis))
        for v in basis:
            assert v == primitive(v)

    def test_right_kernel(self):
        kernel = right_kernel([(1, 1, 1)])
        assert len(kernel) == 2
        for v in kernel:
            assert sum(v) == 0


class TestUnimodular:
    def test_standard_basis(self):
        for n in (1, 2, 3, 4):
            basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            assert abs(determinant(basis)) == 1

    def test_determinant_two(self):
        assert abs(determinant([(1, 0), (1, 2)])) != 1

    def test_reflexive_simplex_corner(self):
        # edges of conv{(-1,-1),(2,-1),(-1,2)} at (-1,-1)
        assert abs(determinant([(1, 0), (0, 1)])) == 1

    def test_non_square_is_an_error(self):
        with pytest.raises(ValueError, match="square matrix"):
            determinant([(1, 0)])

    @given(square_matrices(3))
    def test_invariant_under_permutation_and_sign(self, rows):
        base = abs(determinant(rows))
        for perm in itertools.permutations(range(len(rows))):
            flipped = [
                tuple(-x for x in rows[i]) if i % 2 else tuple(rows[i]) for i in perm
            ]
            assert abs(determinant(flipped)) == base


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4)) == (1, 2)
        assert primitive((0, -3)) == (0, -1)
        assert primitive((6, 10, 15)) == (6, 10, 15)

    def test_zero_rejected(self):
        with pytest.raises(GeometryError):
            primitive((0, 0, 0))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
    def test_idempotent(self, coords):
        if all(x == 0 for x in coords):
            return
        once = primitive(tuple(coords))
        assert primitive(once) == once


SMALL = st.integers(-30, 30)
FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=6)
ENTRIES_ANY = st.one_of(SMALL, st.integers(-(10**30), 10**30), FRACTIONS)


def _same_outcome(new, old, v):
    """``new(v)`` and ``old(v)`` give equal values of equal types, or both
    reject ``v`` as the zero vector."""
    try:
        expected = old(v)
    except GeometryErrorZero:
        with pytest.raises(GeometryErrorZero):
            new(v)
        return None
    got = new(v)
    assert got == expected and repr(got) == repr(expected)
    return got


class TestKernelsAgainstOracles:
    """``map`` over ``operator`` functions and one ``math.gcd`` call against
    the generator forms they replaced: equal values of equal types."""

    @given(st.lists(ENTRIES_ANY, max_size=5), st.lists(ENTRIES_ANY, max_size=5))
    @settings(max_examples=150)
    @example([], [])
    @example([1, 2, 3], [4, 5])
    def test_vector_arithmetic(self, a, b):
        # vectors of unequal length: both forms stop at the shorter one
        a, b = tuple(a), tuple(b)
        for new, old in ((vadd, oracles.vadd), (vsub, oracles.vsub), (vdot, oracles.vdot)):
            got, expected = new(a, b), old(a, b)
            assert got == expected and repr(got) == repr(expected)

    @given(st.lists(st.one_of(SMALL, SMALL.map(Fraction)), min_size=1, max_size=5))
    @settings(max_examples=150)
    @example([0, 0, 0])
    @example([Fraction(0), 0])
    @example([Fraction(4), -6])
    def test_primitive(self, v):
        got = _same_outcome(primitive, oracles.primitive, tuple(v))
        assert got is None or all(type(x) is int for x in got)

    @given(
        st.one_of(
            st.lists(SMALL, min_size=1, max_size=5),
            st.lists(FRACTIONS, min_size=1, max_size=5),
            st.lists(st.one_of(SMALL, FRACTIONS), min_size=1, max_size=5),
        )
    )
    @settings(max_examples=200)
    @example([0, 0])
    @example([Fraction(0), 0])
    @example([6, -4])
    @example([Fraction(6), Fraction(-4)])
    @example([Fraction(1, 2), 3])
    @example([Fraction(7, 2), -3])
    @example([1, Fraction(1, 2)])
    def test_primitive_on_int_fraction_and_mixed_vectors(self, v):
        # one routine for every rational vector, with no integer-part
        # reading: that would send (1, 1/2) to (1, 0)
        v = tuple(v)
        got = _same_outcome(primitive, lambda w: oracles.rational_primitive(w)[0], v)
        assert got is None or all(type(x) is int for x in got)

    def test_rational_entries_are_cleared_not_truncated(self):
        assert primitive((1, Fraction(1, 2))) == (2, 1)
        assert primitive((Fraction(-2, 3), Fraction(4, 9))) == (-3, 2)


class TestDeterminant:
    @given(square_matrices())
    @settings(max_examples=60)
    def test_bareiss_matches_rational_elimination(self, rows):
        assert determinant(rows) == oracles.determinant_fraction(rows)

    @given(square_matrices(3, bound=5))
    @settings(max_examples=40)
    def test_integral_fraction_entries_count_as_ints(self, rows):
        as_fractions = [[Fraction(x) for x in row] for row in rows]
        got = determinant(as_fractions)
        assert got == determinant(rows) and type(got) is int

    def test_non_integral_entry_rejected(self):
        with pytest.raises(ValueError):
            determinant([[1, 0], [0, Fraction(1, 2)]])

    def test_bareiss_avoids_fraction_blowup(self):
        rows = [[i * j + (i == j) * 7 for j in range(6)] for i in range(6)]
        assert determinant(rows) == int(oracles.determinant_fraction(rows))


class TestSolve:
    @given(square_matrices(3, bound=5))
    def test_unique_solutions_verify(self, rows):
        rhs = [sum(row) for row in rows]
        status, x = solve_linear(rows, rhs)
        if status == "unique":
            for row, b in zip(rows, rhs):
                assert sum(Fraction(a) * xi for a, xi in zip(row, x)) == b

    def test_inconsistent(self):
        assert solve_linear([(1, 0), (1, 0)], (0, 1)) == ("none", None)

    def test_underdetermined(self):
        assert solve_linear([(1, 1)], (2,))[0] == "many"


ENTRIES = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
)


@st.composite
def linear_systems(draw, max_cols=4, max_rows=5):
    """``(rows, rhs)`` with 0-4 columns over ``int`` and ``Fraction``: full
    rank, rank-deficient (repeated rows and combinations of rows),
    consistent and inconsistent."""
    ncols = draw(st.integers(0, max_cols))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=max_rows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a = draw(st.sampled_from(rows))
        b = draw(st.sampled_from(rows))
        c = draw(ENTRIES)
        rows.append([x + c * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        x0 = draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        rhs = [sum(a * x for a, x in zip(r, x0)) for r in rows]
    else:
        rhs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def same(new, old):
    # equal values of equal types: a Fraction(0) may not turn into an int 0
    assert new == old and repr(new) == repr(old)


class TestEliminationAgainstOracles:
    """The integer kernel and its wrappers against the Fraction eliminations."""

    @given(linear_systems())
    @settings(max_examples=300, deadline=None)
    @example(([], []))
    @example(([[]], [1]))
    @example(([[1, 0], [1, 0]], [0, 1]))
    @example(([[Fraction(1, 2), 1], [1, 2]], [Fraction(1, 3), Fraction(2, 3)]))
    def test_solvers_and_rank_match(self, system):
        rows, rhs = system
        same(solve_linear(rows, rhs), oracles.solve_linear(rows, rhs))
        same(solve_particular(rows, rhs), oracles.solve_particular(rows, rhs))
        same(rank_fraction(rows), oracles.rank_fraction(rows))

    @given(st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    @settings(max_examples=200, deadline=None)
    @example([[1, 2], [2, 4]])
    def test_determinant_fraction_matches(self, rows):
        same(determinant_fraction(rows), oracles.determinant_fraction(rows))

    @given(linear_systems())
    @settings(max_examples=300, deadline=None)
    def test_echelon_leaves_det_on_every_pivot(self, system):
        rows, rhs = system
        ncols = len(rows[0]) if rows else 0
        m = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
        rank, pivots, det = echelon(m, ncols)
        assert rank == len(pivots) == oracles.rank_fraction(rows)
        assert pivots == sorted(set(pivots)) and det != 0
        for i, row in enumerate(m):
            assert all(type(x) is int for x in row)
            for j, col in enumerate(pivots):
                assert row[col] == (det if i == j else 0)
            if i >= rank:
                assert not any(row[:ncols])
        consistent = not any(row[ncols] for row in m[rank:])
        particular = oracles.solve_particular(rows, rhs)
        assert consistent == (particular is not None)
        if consistent:
            for row, col in zip(m, pivots):
                assert Fraction(row[ncols], det) == particular[col]


class TestAffineFunction:
    def test_evaluation_and_arithmetic(self):
        f = AffineFunction.make((1, 2), -3)
        g = AffineFunction.make((0, 1), 5)
        assert f((1, 1)) == 0
        assert (f + g)((1, 1)) == 6
        assert (f - g)((0, 0)) == -8
        assert (-f)((1, 1)) == 0
        assert f.scale(Fraction(1, 2))((1, 1)) == 0

    def test_integrality(self):
        assert AffineFunction.make((1, 2), -3).is_integral
        assert not AffineFunction.make((Fraction(1, 2), 0), 0).is_integral


@st.composite
def affine_pairs(draw):
    """Two affine functions of one rank with ``int``/``Fraction`` data, the
    second sometimes equal to the first in another form, a scalar and a
    point."""
    n = draw(st.integers(0, 3))
    vec = st.lists(ENTRIES, min_size=n, max_size=n)
    f = (draw(vec), draw(ENTRIES))
    if draw(st.booleans()):
        g = (draw(vec), draw(ENTRIES))
    else:
        # the same function written with other denominators, or a multiple of it
        k = draw(st.sampled_from([1, 1, Fraction(1, 2), -1, 3]))
        g = ([Fraction(x) * k for x in f[0]], Fraction(f[1]) * k)
    return f, g, draw(ENTRIES), draw(vec)


def assert_canonical(h):
    assert all(type(x) is int for x in h.a) and type(h.b) is int and type(h.d) is int
    assert h.d > 0 and gcd(*h.a, h.b, h.d) == 1


def assert_same_function(new, old):
    # same values of the same types, so the report encodes identical JSON
    assert_canonical(new)
    same(new.linear, old.linear)
    same(new.constant, old.constant)


class TestAffineFunctionAgainstOracle:
    """The integer form against the ``Fraction``-field functions it replaced."""

    @given(affine_pairs())
    @settings(max_examples=300, deadline=None)
    @example((([], 0), ([], 0), 0, []))
    @example((([Fraction(1, 2), 0], 1), ([Fraction(2, 4), 0], 1), Fraction(-2, 3), [1, Fraction(1, 3)]))
    def test_operations_match(self, case):
        (lin_f, c_f), (lin_g, c_g), c, x = case
        f, g = AffineFunction.make(lin_f, c_f), AffineFunction.make(lin_g, c_g)
        F, G = oracles.AffineFunction.make(lin_f, c_f), oracles.AffineFunction.make(lin_g, c_g)
        assert_same_function(f, F)
        assert_same_function(AffineFunction.zero(len(lin_f)), oracles.AffineFunction.zero(len(lin_f)))
        assert_same_function(f + g, F + G)
        assert_same_function(f - g, F - G)
        assert_same_function(-f, -F)
        assert_same_function(f.scale(c), F.scale(c))
        same(f(x), Fraction(F(x)))
        assert f.directional(x) == F.directional(x)
        assert f.is_zero == F.is_zero and (f - f).is_zero
        assert f.is_integral == F.is_integral
        assert (f == g) == (F == G)
        assert (f + g) - g == f and hash((f + g) - g) == hash(f)
        if f == g:
            assert hash(f) == hash(g)
        if c:
            assert f.scale(c).scale(1 / Fraction(c)) == f


@st.composite
def ray_sets(draw):
    """``n + 1`` nonzero integer vectors in rank ``n`` = 1..3, in any order:
    some drawn freely, the rest integer combinations of those, so the
    relations among them form a line, a plane or more."""
    n = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    free = draw(st.lists(vector, min_size=1, max_size=n + 1))
    rays = list(free)
    while len(rays) < n + 1:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(free), max_size=len(free)))
        combo = tuple(sum(c * v[i] for c, v in zip(coeffs, free)) for i in range(n))
        assume(any(combo))
        rays.append(combo)
    return draw(st.permutations(rays))


class TestPositiveRelation:
    """The relation read off ``left_kernel``, through ``complete_fan_from_rays``
    and on its own, against the rational rank and solve of
    ``oracles.positive_relation``, with both refusals."""

    @given(ray_sets())
    @settings(max_examples=300, deadline=None)
    @example([(1,), (-2,)])
    @example([(1, 0), (0, 1), (-1, -1)])
    @example([(1, 0), (0, 1), (1, 1)])  # a line with mixed signs
    @example([(1, 0), (2, 0), (-1, 0)])  # a plane of relations
    @example([(1, 0), (0, 1), (0, -1)])  # a line with a zero weight
    def test_matches_the_rational_relation(self, rays):
        rays = [primitive(r) for r in rays]
        expected = oracles.positive_relation(rays)
        if isinstance(expected, str):
            with pytest.raises(GeometryError, match=f"^rays {expected}$"):
                complete_fan_from_rays(rays)
        else:
            assert _positive_relation(rays, "rays") == expected
            assert complete_fan_from_rays(rays).rays == tuple(rays)

    def test_width_zero(self):
        assert _positive_relation([()], "points") == (1,)
        with pytest.raises(GeometryError, match="single linear relation"):
            _positive_relation([(), ()], "points")
