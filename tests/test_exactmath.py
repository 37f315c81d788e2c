import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdegen.exactmath import (
    AffineFunction,
    determinant,
    determinant_fraction,
    hermite_normal_form,
    in_lattice_span,
    is_unimodular_basis,
    left_kernel,
    primitive,
    rank_fraction,
    right_kernel,
    saturation,
    solve_linear,
)
from toricdegen.errors import GeometryError


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
        basis, rank = hermite_normal_form([(2, 0), (0, 2)])
        assert basis == [(2, 0), (0, 2)]
        assert rank == 2

    def test_mixed_rows_determinant(self):
        rows = [(1, 1), (1, -1)]
        basis, rank = hermite_normal_form(rows)
        assert rank == 2
        assert abs(determinant(basis)) == abs(determinant(rows)) == 2

    def test_single_row(self):
        basis, rank = hermite_normal_form([(3, 6)])
        assert basis == [(3, 6)]
        assert rank == 1

    def test_empty(self):
        assert hermite_normal_form([]) == ([], 0)

    @given(rect_matrices())
    def test_row_span_preserved(self, rows):
        basis, rank = hermite_normal_form(rows)
        assert rank == rank_fraction(rows) if any(any(r) for r in rows) else rank == 0
        for row in rows:
            assert in_lattice_span(basis, row)

    @given(rect_matrices())
    def test_triangular_shape(self, rows):
        basis, _ = hermite_normal_form(rows)
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

    def test_right_kernel(self):
        kernel = right_kernel([(1, 1, 1)])
        assert len(kernel) == 2
        for v in kernel:
            assert sum(v) == 0

    def test_saturation_recovers_primitive_span(self):
        sat = saturation([(2, 4)])
        assert sat == [(1, 2)]

    def test_saturation_of_full_rank(self):
        sat = saturation([(1, 1), (1, -1)])
        # the rational span is everything, so the saturation is Z^2
        assert in_lattice_span(sat, (1, 0)) and in_lattice_span(sat, (0, 1))


class TestUnimodular:
    def test_standard_basis(self):
        for n in (1, 2, 3, 4):
            basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            assert is_unimodular_basis(basis)

    def test_determinant_two(self):
        assert not is_unimodular_basis([(1, 0), (1, 2)])

    def test_reflexive_simplex_corner(self):
        # edges of conv{(-1,-1),(2,-1),(-1,2)} at (-1,-1)
        assert is_unimodular_basis([(1, 0), (0, 1)])

    def test_wrong_count_is_an_error(self):
        with pytest.raises(ValueError, match="not a candidate basis"):
            is_unimodular_basis([(1, 0)])

    @given(square_matrices(3))
    def test_invariant_under_permutation_and_sign(self, rows):
        base = is_unimodular_basis(rows) if rows else None
        for perm in itertools.permutations(range(len(rows))):
            flipped = [
                tuple(-x for x in rows[i]) if i % 2 else tuple(rows[i]) for i in perm
            ]
            assert is_unimodular_basis(flipped) == base


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


class TestDeterminant:
    @given(square_matrices())
    @settings(max_examples=60)
    def test_bareiss_matches_rational_elimination(self, rows):
        assert determinant(rows) == determinant_fraction(rows)

    def test_bareiss_avoids_fraction_blowup(self):
        rows = [[i * j + (i == j) * 7 for j in range(6)] for i in range(6)]
        assert determinant(rows) == int(determinant_fraction(rows))


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
