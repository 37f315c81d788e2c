import inspect
import itertools
import re
import sys
import time
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricdegen import (
    EmptyPolyhedronError,
    GeometryError,
    LatticePolytope,
    PartitionError,
    SupportFunction,
    UnsupportedGeometryError,
    lattice_equivalences,
    lattice_equivalent,
    normal_fan,
    partition_by_hyperplanes,
)
from toricdegen import exactmath
from toricdegen import polytope as polytope_module
from toricdegen.exactmath import echelon, primitive, vdot
from toricdegen.polytope import (
    PAIR_BUDGET,
    POINT_BUDGET,
    Fan,
    _dual_from_generators,
    _enumerate_generators,
    _face_walk,
    _full_dim_facets,
    _normalize_equation,
    _normalize_halfspace,
    _transpose,
    complete_fan_from_rays,
)

import oracles

from corpus import (
    chain_partition,
    dilated_simplex,
    liftable_partitions,
    reflexive_simplex,
    segment,
    staircase_fan,
    staircase_partition,
    unimodular_matrix,
    weighted_projective_simplex,
)


def point_sets(dim, n_points, bound=4):
    return st.lists(
        st.tuples(*[st.integers(-bound, bound) for _ in range(dim)]),
        min_size=dim + 1,
        max_size=n_points,
    )


class TestFromVertices:
    def test_triangle_halfspaces(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        assert set(t.halfspaces) == {
            ((1, 0), 0),
            ((0, 1), 0),
            ((-1, -1), 3),
        }

    def test_single_point(self):
        p = LatticePolytope.from_vertices([(2, 5)])
        assert p.dim == 0
        assert p.halfspaces == ()
        assert len(p.equations) == 2

    def test_reflexive_simplex_face_counts(self):
        d3 = reflexive_simplex(3)
        assert len(d3.faces(d3.dim - 1)) == 4
        assert len(d3.faces(1)) == 6
        assert len(d3.vertices) == 4

    def test_interior_points_are_not_vertices(self):
        p = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2), (1, 1)])
        assert set(p.vertices) == {(0, 0), (2, 0), (0, 2)}


class TestFromHalfspaces:
    def test_whole_space(self):
        w = LatticePolytope.from_halfspaces([], 2)
        assert w.is_whole_space and w.dim == 2
        fan = normal_fan(w)
        assert fan.rays == () and fan.cones == frozenset({frozenset()})

    def test_segment(self):
        s = LatticePolytope.from_halfspaces([((1,), 0), ((-1,), 2)], 1)
        assert set(s.vertices) == {(0,), (2,)} and s.rays == ()

    def test_quadrant(self):
        q = LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
        assert q.vertices == ((0, 0),)
        assert set(q.rays) == {(1, 0), (0, 1)}

    def test_infeasible(self):
        with pytest.raises(EmptyPolyhedronError, match="empty polyhedron"):
            LatticePolytope.from_halfspaces([((1,), 0), ((-1,), -2)], 1)

    def test_redundant_halfspaces_dropped(self):
        s = LatticePolytope.from_halfspaces([((1,), 0), ((1,), -1), ((-1,), 2)], 1)
        assert len(s.halfspaces) == 2

    def test_non_integral_normals_rejected(self):
        # read by integer part, (1/2, 1) would be the row y >= 0
        rows = [((1, 0), 0), ((-1, -1), 4)]
        half = [((Fraction(1, 2), 1), 0)]
        with pytest.raises(GeometryError, match="integral entries"):
            LatticePolytope.from_halfspaces(half + rows, 2)
        with pytest.raises(GeometryError, match="integral entries"):
            LatticePolytope.from_halfspaces(rows, 2, half)

    def test_integral_fraction_normals_taken(self):
        rows = [((0, 1), 0), ((1, 0), 0), ((-1, -1), 4)]
        fractions = [(tuple(map(Fraction, n)), o) for n, o in rows]
        got = LatticePolytope.from_halfspaces(fractions[1:], 2, fractions[:1])
        expected = LatticePolytope.from_halfspaces(rows[1:], 2, rows[:1])
        assert got.key == expected.key and got.equations == expected.equations
        assert all(type(x) is int for e in got.equations for x in e.normal)

    def test_rational_rays_are_cleared_not_truncated(self):
        got = LatticePolytope.from_generators([(0, 0)], [(Fraction(1, 2), 1), (1, 0)])
        expected = LatticePolytope.from_generators([(0, 0)], [(1, 2), (1, 0)])
        assert got.key == expected.key and got.halfspaces == expected.halfspaces

    @staticmethod
    def _with_redundant(hull, slack):
        """The facets of ``hull``, repeated with the offsets loosened by
        ``slack`` (0 duplicates a facet), plus the sum of each pair of
        consecutive facets, which is tight only on a lower-dimensional face."""
        hs = [(h.normal, h.offset) for h in hull.halfspaces]
        shifted = [(n, o + slack[i % len(slack)]) for i, (n, o) in enumerate(hs)]
        summed = [
            (tuple(a + b for a, b in zip(n1, n2)), o1 + o2)
            for (n1, o1), (n2, o2) in zip(hs, hs[1:])
            if any(a + b for a, b in zip(n1, n2))
        ]
        return hs + shifted + summed

    @given(point_sets(2, 7), st.lists(st.integers(0, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_2d(self, points, slack):
        hull = LatticePolytope.from_vertices(points)
        if hull.dim < 2:
            return
        back = LatticePolytope.from_halfspaces(self._with_redundant(hull, slack), 2)
        assert set(back.vertices) == set(hull.vertices)
        assert back.halfspaces == hull.halfspaces and back.equations == ()

    @given(point_sets(3, 6, bound=3), st.lists(st.integers(0, 3), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_3d(self, points, slack):
        hull = LatticePolytope.from_vertices(points)
        if hull.dim < 3:
            return
        back = LatticePolytope.from_halfspaces(self._with_redundant(hull, slack), 3)
        assert set(back.vertices) == set(hull.vertices)
        assert back.halfspaces == hull.halfspaces and back.equations == ()

    @pytest.mark.parametrize("rank", [2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_facets_match_brute_force_oracle(self, rank, data):
        """Random systems: unbounded ones, rational vertices, redundant and
        duplicate rows; the kept facets are the brute-force dual of the
        enumerated generators."""
        normal = st.tuples(*[st.integers(-3, 3)] * rank).map(lambda n: n if any(n) else (1,) + n[1:])
        system = data.draw(st.lists(st.tuples(normal, st.integers(-2, 6)), min_size=rank, max_size=rank + 5))
        try:
            p = LatticePolytope.from_halfspaces(system, rank)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        with mock.patch.object(polytope_module, "_full_dim_facets", oracles.full_dim_facets):
            expected = _dual_from_generators(p.vertices, p.rays, rank)
        assert (p.halfspaces, p.equations, p._incidence) == expected[:3]


@st.composite
def h_systems(draw):
    """Halfspace systems in rank 0-4 with rational offsets: bounded, unbounded
    with rays, empty, with a lineality space, lower-dimensional through
    equations, and with duplicated and redundant (loosened or summed) rows."""
    rank = draw(st.integers(0, 4))
    if rank == 0:
        return [], [], 0
    normal = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    offset = st.builds(Fraction, st.integers(-4, 8), st.integers(1, 3))
    hs = draw(st.lists(st.tuples(normal, offset), max_size=rank + 3))
    for _ in range(draw(st.integers(0, 3)) if hs else 0):
        (n1, o1), (n2, o2) = draw(st.sampled_from(hs)), draw(st.sampled_from(hs))
        kind = draw(st.sampled_from(["duplicate", "loosened", "summed"]))
        if kind == "duplicate":
            hs.append((n1, o1))
        elif kind == "loosened":
            hs.append((n1, o1 + draw(st.integers(1, 3))))
        elif any(a + b for a, b in zip(n1, n2)):
            hs.append((tuple(a + b for a, b in zip(n1, n2)), o1 + o2))
    eqs = draw(st.lists(st.tuples(normal, offset), max_size=min(2, rank - 1)))
    return (
        [_normalize_halfspace(n, o) for n, o in hs],
        [_normalize_equation(n, o) for n, o in eqs],
        rank,
    )


class TestEnumerateGeneratorsAgainstOracle:
    @given(h_systems())
    @settings(max_examples=250, deadline=None)
    @example(([], [], 0))
    @example(([_normalize_halfspace((1, 0), Fraction(1, 2)), _normalize_halfspace((0, 1), 0)], [], 2))
    @example((
        [_normalize_halfspace((1, 0, 0), 0), _normalize_halfspace((-1, 0, 0), 3)] * 2,
        [_normalize_equation((0, 1, 0), Fraction(-1, 3)), _normalize_equation((0, 0, 2), 1)],
        3,
    ))
    def test_matches_rational_enumeration(self, system):
        halfspaces, equations, rank = system
        try:
            expected = oracles.enumerate_generators(halfspaces, equations, rank)
        except UnsupportedGeometryError:
            with pytest.raises(UnsupportedGeometryError, match="lineality"):
                _enumerate_generators(halfspaces, equations, rank)
            return
        got = _enumerate_generators(halfspaces, equations, rank)[:2]
        assert got == expected and repr(got) == repr(expected)


    @given(h_systems())
    @settings(max_examples=150, deadline=None)
    @example((
        [_normalize_halfspace((1, 0, 0), 0), _normalize_halfspace((-1, 0, 0), 3)] * 2,
        [_normalize_equation((0, 1, 0), Fraction(-1, 3)), _normalize_equation((0, 0, 2), 1)],
        3,
    ))
    def test_from_halfspaces_with_equations_matches_the_oracle(self, system):
        halfspaces, equations, rank = system
        assume(equations)
        try:
            vertices, rays = oracles.enumerate_generators(halfspaces, equations, rank)
        except UnsupportedGeometryError:
            assume(False)
        if not vertices:
            with pytest.raises(EmptyPolyhedronError):
                LatticePolytope.from_halfspaces(halfspaces, rank, equations)
            return
        p = LatticePolytope.from_halfspaces(halfspaces, rank, equations)
        assert (list(p.vertices), list(p.rays)) == (vertices, rays)
        assert (p.halfspaces, p.equations) == oracles.dual_from_generators(vertices, rays, rank)[:2]

    def test_equations_enter_as_two_opposite_rows_after_t(self, kernel_runs):
        LatticePolytope.from_halfspaces(
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), 2)], 3, [((0, 0, 2), -2)]
        )
        rows, width = kernel_runs[0]
        assert width == 4
        assert rows[3:] == [(0, 0, 0, 1), (0, 0, 1, -1), (0, 0, -1, 1)]


def _transformed(halfspaces, matrix, shift):
    """The halfspaces in the coordinates ``y`` with ``x = matrix y + shift``."""
    out = []
    for normal, offset in halfspaces:
        pulled = tuple(sum(row[j] * normal[i] for i, row in enumerate(matrix)) for j in range(len(normal)))
        out.append(_normalize_halfspace(pulled, offset + sum(n * t for n, t in zip(normal, shift))))
    return out


@st.composite
def degenerate_h_systems(draw):
    """Cubes, cross-polytopes and pyramids over them in rank 2-4, where many
    facets pass through each vertex (up to 8 through a pyramid apex), plus
    sums of two or three facet rows, tight only where all of them are,
    under a random unimodular map and translation, with duplicated and
    loosened rows in random order."""
    rank = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["cube", "cross", "pyramid over cube", "pyramid over cross"]))
    base = rank - 1 if shape.startswith("pyramid") else rank
    if shape.endswith("cube"):
        units = [tuple(int(i == j) for j in range(base)) for i in range(base)]
        hs = [(u, 1) for u in units] + [(tuple(-x for x in u), 1) for u in units]
    else:
        hs = [(s, 1) for s in itertools.product((-1, 1), repeat=base)]
    if shape.startswith("pyramid"):
        # apex at height h over the base at height 0: <x, n> + o (1 - t / h) >= 0
        h = draw(st.integers(1, 3))
        hs = [(tuple(h * x for x in n) + (-o,), h * o) for n, o in hs]
        hs.append((tuple(int(j == rank - 1) for j in range(rank)), 0))
    for _ in range(draw(st.integers(0, 3))):
        rows = [draw(st.sampled_from(hs)) for _ in range(draw(st.integers(2, 3)))]
        normal = tuple(map(sum, zip(*(n for n, _ in rows))))
        if any(normal):
            hs.append((normal, sum(o for _, o in rows)))
    ops = draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1), st.integers(-2, 2)), max_size=4))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * rank))
    hs = _transformed(hs, unimodular_matrix(rank, ops), shift)
    for _ in range(draw(st.integers(0, 3))):
        n, o = draw(st.sampled_from(hs))
        hs.append(_normalize_halfspace(n, o + draw(st.sampled_from([0, 0, 1, Fraction(1, 2)]))))
    return draw(st.permutations(hs)), rank


@st.composite
def generator_sets(draw):
    """Points with rational coordinates and some rays in rank 1-4, spanning
    an affine subspace of any dimension: generic coordinates, pushed into
    the ambient lattice by a random integer map and shift."""
    rank = draw(st.integers(1, 4))
    dim = draw(st.integers(0, rank))
    coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    local = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=dim + 3))
    local_rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any), max_size=2)) if dim else []
    embed = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=rank, max_size=rank))
    shift = draw(st.tuples(*[coord] * rank))

    def image(q, t):
        return tuple(sum(a * b for a, b in zip(row, q)) + s for row, s in zip(embed, t))

    points = [image(q, shift) for q in local]
    rays = [image(r, (0,) * rank) for r in local_rays]
    assume(all(any(r) for r in rays))
    return points, rays, rank


class TestDoubleDescriptionAgainstOracles:
    @given(degenerate_h_systems())
    @settings(max_examples=40, deadline=None)
    def test_degenerate_systems_match_subset_enumeration(self, system):
        halfspaces, rank = system
        got = _enumerate_generators(halfspaces, [], rank)[:2]
        expected = oracles.enumerate_generators(halfspaces, [], rank)
        assert got == expected and repr(got) == repr(expected)
        p = LatticePolytope.from_halfspaces(halfspaces, rank)
        with mock.patch.object(polytope_module, "_full_dim_facets", oracles.full_dim_facets):
            expected = _dual_from_generators(p.vertices, p.rays, rank)
        assert (p.halfspaces, p.equations, p._incidence) == expected[:3]

    @given(generator_sets())
    @settings(max_examples=80, deadline=None)
    def test_dual_of_generators_matches_brute_force(self, gens):
        points, rays, rank = gens
        got = _dual_from_generators(points, rays, rank)
        with mock.patch.object(polytope_module, "_full_dim_facets", oracles.full_dim_facets):
            expected = _dual_from_generators(points, rays, rank)
        assert got == expected and repr(got) == repr(expected)
        try:
            vertices, extreme = oracles.enumerate_generators(*expected[:2], rank)
        except UnsupportedGeometryError:
            return
        p = LatticePolytope.from_generators(points, rays)
        assert (list(p.vertices), list(p.rays)) == (vertices, extreme)

    def test_cube_in_rank_5_from_vertices(self):
        cube = LatticePolytope.from_vertices(list(itertools.product((0, 1), repeat=5)))
        assert [len(cube.faces(k)) for k in range(5)] == [32, 80, 80, 40, 10]
        assert len(cube.halfspaces) == 10

    def test_cross_polytope_in_rank_5_from_halfspaces(self):
        cross = LatticePolytope.from_halfspaces([(s, 1) for s in itertools.product((-1, 1), repeat=5)], 5)
        assert [len(cross.faces(k)) for k in range(5)] == [10, 40, 80, 80, 32]
        assert set(cross.vertices) == {
            tuple(s * int(i == j) for j in range(5)) for i in range(5) for s in (1, -1)
        }


def _assert_faces_match_oracle(poly):
    expected = oracles.faces(poly)
    got = poly.faces()
    assert got == expected and repr(got) == repr(expected)
    # the walk reaches each face once
    gens = poly.vertices + poly.rays
    facet_sets = poly._facet_sets
    top, nv = (1 << len(gens)) - 1, len(poly.vertices)
    walk = _face_walk(poly._incidence, top, poly.dim, facet_sets, gens, nv)
    assert len(walk) == len(got)
    # each face closed straight off the mask of its tight facets
    for face in expected:
        closed = poly._face_cut_by(sum(1 << i for i in face.tight))
        assert closed == face and repr(closed) == repr(face)
    if not poly.is_whole_space:
        assert poly.dim == oracles.face_dim(poly.vertices, poly.rays)


def _assert_smallest_faces_match_oracle(poly, data):
    """On a few vertices and rays with the centroid of the vertices."""
    if poly.is_whole_space or not poly.vertices:
        return
    vs = data.draw(st.lists(st.sampled_from(poly.vertices), min_size=1, max_size=3))
    rs = data.draw(st.lists(st.sampled_from(poly.rays), max_size=2)) if poly.rays else []
    points = vs + [tuple(Fraction(sum(c), len(vs)) for c in zip(*vs))]
    expected = oracles.smallest_face_containing(poly, points, rs)
    assert poly.smallest_face_containing(points, rs) == expected


@st.composite
def cluttered_generator_sets(draw):
    """``generator_sets`` with repeated points, points inside the hull
    (midpoints of two points, a point pushed along a ray), and repeated or
    scaled rays, in random order."""
    points, rays, rank = draw(generator_sets())
    extra = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        kind = draw(st.sampled_from(["duplicate", "midpoint", "pushed"]))
        if kind == "duplicate":
            extra.append(a)
        elif kind == "midpoint":
            extra.append(tuple(Fraction(x + y) / 2 for x, y in zip(a, b)))
        elif rays:
            r = draw(st.sampled_from(rays))
            extra.append(tuple(x + y for x, y in zip(a, r)))
    if rays:
        scaled = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(rays)), max_size=2))
        rays = rays + [tuple(c * x for x in r) for c, r in scaled]
    return draw(st.permutations(points + extra)), draw(st.permutations(rays)), rank


@pytest.fixture
def kernel_runs(monkeypatch):
    """The ``(rows, width)`` of every ``_dd_extreme_rays`` run from here on."""
    runs = []
    kernel = polytope_module._dd_extreme_rays

    def spy(ineqs, width):
        runs.append((list(ineqs), width))
        return kernel(ineqs, width)

    monkeypatch.setattr(polytope_module, "_dd_extreme_rays", spy)
    return runs


class TestIncidenceAgainstOracles:
    """Faces, face dimensions, tight sets and extreme generators read off the
    double description's incidence masks, against the dot-product closure
    with a rational rank per face and the second double description."""

    @given(h_systems(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_faces_of_halfspace_systems(self, system, data):
        halfspaces, equations, rank = system
        try:
            p = LatticePolytope.from_halfspaces(halfspaces, rank, equations)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        _assert_faces_match_oracle(p)
        _assert_smallest_faces_match_oracle(p, data)

    @given(degenerate_h_systems(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_faces_of_degenerate_systems(self, system, data):
        halfspaces, rank = system
        p = LatticePolytope.from_halfspaces(halfspaces, rank)
        _assert_faces_match_oracle(p)
        _assert_smallest_faces_match_oracle(p, data)

    @given(cluttered_generator_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_generators_matches_two_pass_oracle(self, gens, data):
        points, rays, rank = gens
        try:
            expected = oracles.from_generators(points, rays)
        except UnsupportedGeometryError as exc:
            with pytest.raises(UnsupportedGeometryError, match=str(exc)):
                LatticePolytope.from_generators(points, rays)
            return
        p = LatticePolytope.from_generators(points, rays)
        assert (list(p.vertices), list(p.rays)) == expected
        _assert_faces_match_oracle(p)
        _assert_smallest_faces_match_oracle(p, data)

    def test_corpus_faces(self):
        for poly in (
            reflexive_simplex(3),
            dilated_simplex(2),
            weighted_projective_simplex(),
            LatticePolytope.from_vertices(list(itertools.product((0, 1), repeat=4))),
            LatticePolytope.from_vertices([(0, 0, 0), (2, 2, 2), (1, 1, 1)]),
            LatticePolytope.from_generators([(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
            LatticePolytope.from_vertices([()]),
        ):
            _assert_faces_match_oracle(poly)

    @pytest.mark.parametrize(
        "points, rays",
        [
            ([(0, 0)], [(1, 0), (-1, 0), (0, 1)]),  # a half-plane
            ([(0, 0), (0, 2)], [(1, 0), (-1, 0)]),  # a strip
            ([(0, 0, 0), (1, 0, 0)], [(0, 1, 1), (0, -2, -2)]),  # a flat strip in rank 3
        ],
    )
    def test_lineality_refused(self, points, rays):
        with pytest.raises(UnsupportedGeometryError, match="nontrivial lineality space"):
            oracles.from_generators(points, rays)
        with pytest.raises(UnsupportedGeometryError, match="nontrivial lineality space"):
            LatticePolytope.from_generators(points, rays)

    def test_lineality_refused_before_the_budget(self, kernel_runs):
        # the cyclic polytope on 14 points of the moment curve in rank 4 has
        # 77 facets; the line through it is refused after the facet run,
        # before any vertex enumeration
        points = [(t, t**2, t**3, t**4, 0) for t in range(14)]
        rays = [(0, 0, 0, 0, 1), (0, 0, 0, 0, -1)]
        with pytest.raises(UnsupportedGeometryError, match="nontrivial lineality space"):
            LatticePolytope.from_generators(points, rays)
        assert len(kernel_runs) == 1

    def test_moment_curve_in_rank_four_matches_the_oracle(self, kernel_runs):
        # the cyclic polytope on 14 points in rank 4: C(77, 4) facet subsets,
        # which the subset count once refused
        points = [(t, t**2, t**3, t**4) for t in range(14)]
        expected = sorted(oracles.full_dim_facets(points, [], 4))
        assert sorted(_full_dim_facets(points, [], 4)) == expected
        p = LatticePolytope.from_vertices(points)
        assert len(kernel_runs) == 2
        assert p.halfspaces == tuple(h for h, _ in expected)
        assert len(p.halfspaces) == 77 and p.vertices == tuple(points)
        assert oracles.from_generators(points, []) == (points, [])

    def test_whole_line_has_no_generators(self):
        p = LatticePolytope.from_generators([(3,), (0,)], [(1,), (-2,)])
        assert (p.vertices, p.rays, p.dim, p.is_whole_space) == ((), (), 1, True)
        assert oracles.from_generators([(3,), (0,)], [(1,), (-2,)]) == ([], [])
        assert p == LatticePolytope.from_halfspaces([], 1)
        assert hash(p) == hash(LatticePolytope.from_halfspaces([], 1))
        _assert_faces_match_oracle(p)

    def test_whole_plane_has_no_generators(self):
        p = LatticePolytope.from_generators([(1, 1)], [(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert (p.vertices, p.rays, p.dim, p.is_whole_space) == ((), (), 2, True)
        assert oracles.from_generators([(1, 1)], [(1, 0), (-1, 0), (0, 1), (0, -1)]) == ([], [])

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_whole_space_hull_is_the_whole_space(self, rank):
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        rays = units + [tuple(-x for x in u) for u in units]
        p = LatticePolytope.from_generators([(1,) * rank], rays)
        assert p.is_whole_space and p.dim == rank and not p.is_compact
        assert p == LatticePolytope.from_halfspaces([], rank)

    @pytest.mark.parametrize(
        "points, rays",
        [
            ([(0, 0), (4, 0), (0, 4), (1, 1), (1, 1), (2, 2)], []),
            ([(0, 0, 0), (2, 2, 2), (1, 1, 1)], []),
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], []),
            ([(0, 0), (1, 0), (1, 1)], [(1, 0), (2, 1), (0, 1)]),
            ([(0, 0, 0)], [(1, 0, 0), (0, 1, 0)]),
        ],
    )
    def test_one_kernel_run_per_hull(self, kernel_runs, points, rays):
        p = LatticePolytope.from_generators(points, rays)
        assert len(kernel_runs) == 1
        assert (list(p.vertices), list(p.rays)) == oracles.from_generators(points, rays)


def _cube(rank):
    return LatticePolytope.from_vertices(list(itertools.product((0, 1), repeat=rank)))


def _fresh(poly):
    """The same polytope without the caches of earlier tests."""
    return LatticePolytope.from_vertices(poly.vertices)


def _square_pyramid():
    return LatticePolytope.from_vertices([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])


def _cross(rank):
    halfspaces = [(s, 1) for s in itertools.product((-1, 1), repeat=rank)]
    return LatticePolytope.from_halfspaces(halfspaces, rank)


class TestFaceWalkAgainstOracle:
    """The Close-by-One face walk against the dot-product closure, on
    polytopes whose vertices lie on more than ``dim`` facets, where cuts
    are closed and dropped, and on the corpus's lifted polytopes."""

    @pytest.mark.parametrize("ts", [range(7), range(8), range(9), (-3, -1, 0, 2, 3, 5, 8)])
    def test_cyclic_polytopes_in_rank_4(self, ts):
        poly = LatticePolytope.from_vertices([(t, t**2, t**3, t**4) for t in ts])
        assert not poly.is_simplicial()
        _assert_faces_match_oracle(poly)

    def test_lifted_polytopes_of_the_corpus(self):
        for _, _, _, lifted in liftable_partitions():
            _assert_faces_match_oracle(lifted.polytope)

    @pytest.mark.parametrize(
        "make, ranked",
        [
            (lambda: [_cube(5)], False),
            (lambda: [_fresh(p) for p in staircase_partition(4).pieces], False),
            (lambda: [_cross(3)], True),
            (lambda: [_square_pyramid()], True),
        ],
        ids=["cube-5", "staircase-4-pieces", "octahedron", "square-pyramid"],
    )
    def test_rank_only_off_simple_vertices(self, make, ranked):
        # at a simple vertex a cut's facets and dimension need no test; only
        # a closure that adds more than one facet asks for a rank
        polys = make()
        with mock.patch.object(
            polytope_module, "rank_fraction", side_effect=exactmath.rank_fraction
        ) as rank:
            for poly in polys:
                poly.faces()
        assert rank.called == ranked
        for poly in polys:
            _assert_faces_match_oracle(poly)


class TestNormalFan:
    def test_unit_square(self):
        sq = LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        fan = normal_fan(sq)
        assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert len(fan.maximal_cones) == 4
        assert fan.is_complete()

    def test_reflexive_simplex_gives_projective_fan(self):
        for n in (2, 3):
            fan = normal_fan(reflexive_simplex(n))
            expected = {tuple(int(i == j) for j in range(n)) for i in range(n)}
            expected.add(tuple(-1 for _ in range(n)))
            assert set(fan.rays) == expected
            assert fan.is_complete()

    def test_segment(self):
        fan = normal_fan(segment(0, 2))
        assert set(fan.rays) == {(1,), (-1,)}
        assert fan.is_complete()

    def test_complete_iff_compact(self):
        q = LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
        assert not normal_fan(q).is_complete()
        assert normal_fan(reflexive_simplex(2)).is_complete()

    def test_lower_dimensional_rejected(self):
        p = LatticePolytope.from_vertices([(0, 0), (1, 0)])
        with pytest.raises(GeometryError):
            normal_fan(p)


class TestSimplicialNonsingular:
    def test_reflexive_simplices_nonsingular(self):
        for n in (2, 3):
            assert reflexive_simplex(n).is_nonsingular()

    def test_weighted_projective_simplicial_not_nonsingular(self):
        wp = weighted_projective_simplex()
        assert wp.is_simplicial()
        assert not wp.is_nonsingular()
        assert wp.singular_vertices() and set(wp.singular_vertices()) <= set(wp.vertices)

    def test_unit_cube(self):
        cube = LatticePolytope.from_vertices(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        )
        assert cube.is_nonsingular()

    def test_square_pyramid_not_simplicial(self):
        pyr = LatticePolytope.from_vertices(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        )
        assert not pyr.is_simplicial()


@st.composite
def injective_maps(draw, k, n):
    """An injective integer map from rank ``k`` to rank ``n`` with a shift,
    and whether its image is known to be saturated.  The map is either the
    inclusion followed by a unimodular map, whose image is saturated, or any
    integer matrix of full column rank, whose image is often a proper
    sublattice of its span."""
    if draw(st.booleans()):
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
        matrix = [row[:k] for row in unimodular_matrix(n, draw(st.lists(ops, max_size=6)))]
        saturated = True
    else:
        row = st.tuples(*[st.integers(-2, 2)] * k)
        matrix = draw(st.lists(row, min_size=n, max_size=n))
        assume(exactmath.rank_fraction(matrix) == k)
        saturated = False
    shift = draw(st.tuples(*[st.integers(-3, 3)] * n))
    return matrix, shift, saturated


@st.composite
def embedded_polytopes(draw):
    """A lattice polytope of rank <= 3 pushed into rank <= 6 by an injective
    integer map and a shift."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 6))
    pts = draw(point_sets(k, 6, bound=2))
    matrix, shift, _ = draw(injective_maps(k, n))
    return LatticePolytope.from_vertices([_image(matrix, shift, p) for p in pts])


@st.composite
def embedded_hulls(draw):
    """Half-integral points and integer rays in rank ``k <= n`` pushed into
    rank ``n <= 5`` by an injective integer map, the points with a shift:
    hulls of every dimension from 0 to ``n``."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    half = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2]))
    pts = draw(st.lists(st.tuples(*[half] * k), min_size=1, max_size=k + 3))
    local_rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k).filter(any), max_size=2)) if k else []
    matrix, shift, _ = draw(injective_maps(k, n))
    points = [exactmath.normalize_point(_image(matrix, shift, p)) for p in pts]
    rays = [exactmath.primitive(_image(matrix, (0,) * n, r)) for r in local_rays]
    return points, rays, n


class TestPivotChartAgainstSolvedChart:
    """The facets found in the projection onto the pivot columns against
    those found in a saturated chart with one solve per generator and
    facet."""

    @given(embedded_hulls())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_solved_chart(self, hull):
        got = _dual_from_generators(*hull)
        expected = oracles.dual_from_generators(*hull)
        assert got == expected and repr(got) == repr(expected)

    @pytest.mark.parametrize(
        "points, rays",
        [
            ([(1, 2, 3)], []),
            ([(0, 0, 0), (2, 4, 6)], []),
            ([(0, 0, 0, 0), (Fraction(1, 2), 1, 0, 3), (2, 0, 1, 1)], []),
            ([(1, 1, 0, 0)], [(1, 2, 0, 0), (0, 1, 1, 0)]),
            ([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)], [(1, 1, 1)]),
        ],
    )
    def test_runs_no_solve(self, monkeypatch, points, rays):
        def refuse(*args):
            raise AssertionError("solve called")

        for module in (polytope_module, exactmath):
            monkeypatch.setattr(module, "solve_linear", refuse)
            monkeypatch.setattr(module, "solve_particular", refuse)
        rank = len(points[0])
        got = _dual_from_generators(points, rays, rank)
        monkeypatch.undo()
        assert got == oracles.dual_from_generators(points, rays, rank)


class TestHullKeepsItsFacetSets:
    """Every polyhedron is built with its facet sets, the transpose of its
    incidence, so none transposes it back, and a hull of points alone runs
    neither the lineality test nor an elimination for the kernel's start."""

    @given(st.one_of(cluttered_generator_sets(), embedded_hulls()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_facet_sets_are_the_transpose_of_the_incidence(self, gens, data):
        points, rays, rank = gens
        try:
            p = LatticePolytope.from_generators(points, rays)
        except UnsupportedGeometryError:
            return
        hs, eqs = _constraints(p)
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        built = [
            p,
            LatticePolytope.from_halfspaces(hs, rank, eqs),
            LatticePolytope.from_halfspaces([], rank),
            LatticePolytope.from_generators([(0,) * rank], units + [(-1,) * rank]),  # the whole space
            p.bounding_box_polytope(),
        ]
        new_hs, new_eqs = data.draw(region_cuts(p))
        try:
            built.append(p.intersect(new_hs, new_eqs))
            built.append(p.intersect_polyhedron(LatticePolytope.from_halfspaces(new_hs, rank, new_eqs)))
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            pass
        if p.dim and not p.is_whole_space:
            built += p.split(*data.draw(crossing_cuts(p)))
        for q in built:
            assert list(q._facet_sets) == _transpose(q._incidence, len(q.vertices) + len(q.rays))
        points = [exactmath.normalize_point(q) for q in points]
        rays = [exactmath.primitive(r) for r in rays]
        got = _dual_from_generators(points, rays, rank)
        expected = oracles.dual_from_generators(points, rays, rank)
        assert got == expected and repr(got) == repr(expected)

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (3, 0), (0, 2)],
            [(0, 0), (4, 0), (0, 4), (1, 1), (1, 1), (2, 2)],
            [(0, 0, 0), (Fraction(1, 2), 1, 0), (2, 0, 1), (1, 1, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 0, 0), (2, 2, 2), (1, 1, 1)],
            [(1, 2, 3)],
            [()],
        ],
    )
    def test_points_run_no_lineality_test_and_no_elimination(self, points):
        # the only kernels are the two of a lower-dimensional hull's chart
        # (its equations and their kernel), none in the double description
        expected = oracles.from_generators(points, [])
        refused = AssertionError("called for a hull of points")
        kernels = []
        right_kernel = polytope_module.right_kernel
        with mock.patch.object(
            polytope_module, "_refuse_lineality", side_effect=refused
        ), mock.patch.object(polytope_module, "left_kernel", side_effect=refused), mock.patch.object(
            polytope_module, "right_kernel", side_effect=lambda rows: kernels.append(rows) or right_kernel(rows)
        ):
            p = LatticePolytope.from_vertices(points)
        assert (list(p.vertices), list(p.rays)) == expected
        assert len(kernels) == (0 if p.dim == p.ambient_rank else 2)
        _assert_faces_match_oracle(p)

    @pytest.mark.parametrize(
        "points, rays",
        [
            ([(0, 0)], [(1, 0), (-1, 0), (0, 1)]),
            ([(0, 0, 0), (1, 0, 0)], [(0, 1, 1), (0, -2, -2)]),
        ],
    )
    def test_rays_still_refuse_a_lineality_space(self, points, rays):
        refuse = polytope_module._refuse_lineality
        calls = []
        with mock.patch.object(
            polytope_module, "_refuse_lineality", side_effect=lambda *a: calls.append(a) or refuse(*a)
        ), mock.patch.object(
            polytope_module, "left_kernel", side_effect=AssertionError("elimination")
        ), pytest.raises(UnsupportedGeometryError, match="nontrivial lineality space"):
            LatticePolytope.from_generators(points, rays)
        assert len(calls) == 1

    @pytest.mark.parametrize("build", [lambda: _cube(4), lambda: _cross(3), _square_pyramid])
    def test_full_dimensional_lattice_normals_are_the_stored_ones(self, build):
        poly = build()
        normals = poly._lattice_normals()
        assert normals == [(h.normal, 1) for h in poly.halfspaces]
        assert all(n is h.normal for (n, _), h in zip(normals, poly.halfspaces))


class TestFaceCutAgainstOracle:
    """One face closed off the incidence with no face lattice; each
    ``_assert_faces_match_oracle`` checks every face so, and these add the
    embedded hulls and a cut with no vertex."""

    @given(embedded_hulls())
    @settings(max_examples=100, deadline=None)
    def test_embedded_hulls(self, hull):
        points, rays, _ = hull
        try:
            poly = LatticePolytope.from_generators(points, rays)
        except UnsupportedGeometryError:
            return
        _assert_faces_match_oracle(poly)

    def test_a_cut_of_rays_alone_is_no_face(self):
        # x >= 0 and x <= 1 on the half-strip hold its ray, but no vertex
        strip = LatticePolytope.from_generators([(0, 0), (1, 0)], [(0, 1)])
        _assert_faces_match_oracle(strip)
        walls = sum(1 << i for i, h in enumerate(strip.halfspaces) if h.normal[1] == 0)
        assert strip._cut(walls) == 1 << len(strip.vertices)
        with pytest.raises(GeometryError, match="common face"):
            strip._face_cut_by(walls)


TRIANGLE = [(0, 0), (2, 0), (0, 2)]


class TestVertexUnimodularityAgainstOracle:
    """The coprime-minors predicate against the determinant in a chart."""

    @given(embedded_polytopes())
    @settings(max_examples=150, deadline=None)
    def test_minors_agree_with_the_chart_determinant(self, poly):
        for v in poly.vertices:
            dirs = oracles.edge_directions(poly, v)
            expected = oracles.chart_is_unimodular(poly, dirs)
            assert oracles.is_lattice_basis(dirs, poly.dim) == expected
        assert poly.singular_vertices() == oracles.singular_vertices(poly)

    @given(generator_sets())
    @settings(max_examples=150, deadline=None)
    def test_normal_verdict_on_hulls_with_rays_and_rational_vertices(self, gens):
        points, rays, _ = gens
        try:
            poly = LatticePolytope.from_generators(points, rays)
        except UnsupportedGeometryError:
            return
        assert poly.singular_vertices() == oracles.singular_vertices(poly)

    @given(h_systems())
    @settings(max_examples=150, deadline=None)
    def test_normal_verdict_on_halfspace_systems(self, system):
        halfspaces, equations, rank = system
        try:
            poly = LatticePolytope.from_halfspaces(halfspaces, rank, equations)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        assert poly.singular_vertices() == oracles.singular_vertices(poly)
        assert not poly.is_nonsingular_at(poly.relative_interior_point()) or poly.dim == 0

    @given(degenerate_h_systems())
    @settings(max_examples=40, deadline=None)
    def test_normal_verdict_at_vertices_on_more_than_dim_facets(self, system):
        halfspaces, rank = system
        poly = LatticePolytope.from_halfspaces(halfspaces, rank)
        assert poly.singular_vertices() == oracles.singular_vertices(poly)

    def test_no_edge_is_read(self):
        # the verdict reads the tight facet normals alone
        poly = _fresh(staircase_partition(4).pieces[0])
        with mock.patch.object(
            LatticePolytope, "_edge_direction", side_effect=AssertionError("edges read")
        ), mock.patch.object(
            LatticePolytope, "neighbours", side_effect=AssertionError("edges read")
        ):
            assert poly.is_nonsingular()

    @pytest.mark.parametrize(
        "matrix, singular",
        [
            ([(1, 0), (0, 1), (0, 0)], []),
            ([(1, 0), (0, 1), (3, -2), (1, 1)], []),
            ([(2, 0), (0, 1), (0, 0)], [(0, 2, 0)]),
            ([(1, 1), (1, -1), (0, 0)], [(0, 0, 0)]),
            # a dilation keeps every edge primitive, so nothing turns singular
            ([(2, 0), (0, 2), (0, 0)], []),
        ],
    )
    def test_both_verdicts_on_the_embedded_triangle(self, matrix, singular):
        shift = (0,) * len(matrix)
        poly = LatticePolytope.from_vertices([_image(matrix, shift, v) for v in TRIANGLE])
        assert poly.dim == 2 and set(poly.singular_vertices()) == set(singular)
        assert poly.singular_vertices() == oracles.singular_vertices(poly)
        assert poly.is_nonsingular() == (not singular)

    @pytest.mark.parametrize(
        "vectors, dim, expected",
        [
            ([], 0, True),
            ([(1, 0, 0), (0, 1, 0)], 2, True),
            ([(1, 2, 3), (0, 1, 5)], 2, True),
            ([(2, 0, 0), (0, 1, 0)], 2, False),
            ([(2, 3, 0), (1, 1, 2)], 2, True),
            ([(1, 1, 0), (1, -1, 0)], 2, False),
            ([(1, 0, 0), (2, 0, 0)], 2, False),
            ([(1, 0, 0), (0, 1, 0)], 3, False),
            ([(1, 0), (0, 1), (1, 1)], 3, False),
            ([(1, 0), (1, 1)], 2, True),
            ([(2, 1), (1, 1)], 2, True),
            ([(2, 0), (0, 1)], 2, False),
        ],
    )
    def test_predicate_on_fixed_vectors(self, vectors, dim, expected):
        assert oracles.is_lattice_basis(vectors, dim) == expected


class TestContainmentAgainstOracle:
    """Containment that skips the halfspaces the inner polyhedron implies by
    a stored one with the same normal, and the equations it stores, against
    testing every constraint, on hulls and on cuts of them, which share
    constraints with the hull or store a tighter parallel facet."""

    @given(generator_sets(), generator_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_hulls_and_their_cuts(self, gens, other, data):
        try:
            p = LatticePolytope.from_generators(*gens[:2])
            q = LatticePolytope.from_generators(*other[:2])
        except UnsupportedGeometryError:
            return
        pairs = [(p, q), (q, p), (p, p)]
        if p.ambient_rank and not p.is_whole_space:
            normal = data.draw(st.tuples(*[st.integers(-2, 2)] * p.ambient_rank).filter(any))
            offset = -vdot(normal, p.relative_interior_point())
            cut = p.intersect([(normal, offset)])
            pairs += [(p, cut), (cut, p)]
        if p.halfspaces:
            facet = data.draw(st.sampled_from(p.halfspaces))
            tighter = p.intersect([(facet.normal, -vdot(facet.normal, p.relative_interior_point()))])
            if p.dim == p.ambient_rank:
                assert tighter._facet_offsets()[facet.normal] < facet.offset
            pairs += [(p, tighter), (tighter, p)]
        for outer, inner in pairs:
            if outer.ambient_rank == inner.ambient_rank:
                expected = oracles.contains_polyhedron(outer, inner)
                assert outer.contains_polyhedron(inner) == expected

    def test_a_stored_halfspace_does_not_stand_for_an_equation(self):
        # the square stores x_2 >= 0, a tuple equal to the segment's x_2 = 0
        segment = LatticePolytope.from_vertices([(0, 0), (1, 0)])
        square = LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert set(segment.equations) & set(square.halfspaces)
        assert not segment.contains_polyhedron(square)
        assert square.contains_polyhedron(segment)


class TestEdgeExpansionAgainstOracle:
    """A chart's coefficients read off the facet each edge leaves, against
    one rational solve in the edge basis."""

    def test_vertical_vector_on_the_corpus_lifts(self):
        for _, _, _, lifted in liftable_partitions():
            poly = lifted.polytope
            vertical = (0,) * (poly.ambient_rank - 1) + (1,)
            for v in poly.vertices:
                if poly.is_nonsingular_at(v):
                    got = poly.edge_expansion(v, vertical)
                    assert got == oracles.edge_expansion(poly, v, vertical)
                    assert [d for d, _ in got] == oracles.edge_directions(poly, v)

    @given(embedded_polytopes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lattice_vectors_of_the_direction_space(self, poly, data):
        # any integer combination of edge directions lies in the lattice
        for v in poly.vertices:
            if not poly.is_nonsingular_at(v):
                continue
            dirs = oracles.edge_directions(poly, v)
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(dirs), max_size=len(dirs)))
            vector = tuple(sum(c * d[i] for c, d in zip(coeffs, dirs)) for i in range(len(v)))
            got = poly.edge_expansion(v, vector)
            assert got == oracles.edge_expansion(poly, v, vector) == list(zip(dirs, coeffs))


class TestEdgesAgainstOracle:
    @given(h_systems())
    @settings(max_examples=80, deadline=None)
    @example(([_normalize_halfspace((1, 0), 0), _normalize_halfspace((0, 1), 0)], [], 2))
    @example(([_normalize_halfspace((1, 0), 0)], [], 1))
    def test_cached_edges_match_face_scan(self, system):
        halfspaces, equations, rank = system
        try:
            poly = LatticePolytope.from_halfspaces(halfspaces, rank, equations)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        probes = list(poly.vertices) + [poly.relative_interior_point(), (7,) * rank]
        for point in probes:
            got = oracles.edge_directions(poly, point)
            assert got == oracles.edges_at(poly, point) and repr(got) == repr(
                oracles.edges_at(poly, point)
            )


def _assert_vertex_reads_match_oracle(poly, queries=(), data=None):
    """``is_simplicial`` against the oracle's edge counts, the edge
    directions read off the neighbours at every vertex against the 1-face
    scan, and smallest faces, asked in turn of the one polytope so later
    queries read cached tight sets: the given ``(points, rays)`` queries,
    then four drawn ones when ``data`` is given."""
    assert poly.is_simplicial() == oracles.is_simplicial(poly)
    for v in poly.vertices:
        got = oracles.edge_directions(poly, v)
        expected = oracles.edges_at(poly, v)
        assert got == expected and repr(got) == repr(expected)
    for points, rays in queries:
        expected = oracles.smallest_face_containing(poly, points, rays)
        assert poly.smallest_face_containing(points, rays) == expected
    for _ in range(4 if data is not None else 0):
        _assert_smallest_faces_match_oracle(poly, data)


def _all_pair_queries(poly):
    """Every pair of vertices, the midpoint of each pair, and each vertex
    with each ray."""
    queries = [([a, b], []) for a, b in itertools.combinations_with_replacement(poly.vertices, 2)]
    queries += [([tuple(Fraction(x + y, 2) for x, y in zip(a, b))], []) for a, b in itertools.combinations(poly.vertices, 2)]
    queries += [([v], [r]) for v in poly.vertices for r in poly.rays]
    return queries


class TestIncidenceReadsAgainstOracles:
    """Vertex-local reads of the generator-facet incidence: simple and
    non-simple polytopes, unbounded pointed polyhedra, lower-dimensional
    polytopes and single points."""

    @given(degenerate_h_systems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cubes_cross_polytopes_and_pyramids(self, system, data):
        halfspaces, rank = system
        p = LatticePolytope.from_halfspaces(halfspaces, rank)
        _assert_vertex_reads_match_oracle(p, data=data)

    @given(generator_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_hulls_of_any_dimension_with_rays(self, gens, data):
        points, rays, _ = gens
        try:
            p = LatticePolytope.from_generators(points, rays)
        except UnsupportedGeometryError:
            return
        _assert_vertex_reads_match_oracle(p, data=data)

    @given(h_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_halfspace_systems_with_equations(self, system, data):
        halfspaces, equations, rank = system
        try:
            p = LatticePolytope.from_halfspaces(halfspaces, rank, equations)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        _assert_vertex_reads_match_oracle(p, data=data)

    @pytest.mark.parametrize(
        "points, rays, simplicial",
        [
            ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)], [], False),  # pyramid
            ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], [], False),
            (list(itertools.product((0, 1), repeat=3)), [], True),  # cube
            ([(3, 1, 4)], [], True),  # a single point
            ([(0, 0, 0), (1, 2, 3)], [], True),  # a segment in rank 3
            ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [], True),  # a triangle in rank 3
            ([(0, 0)], [(1, 0), (0, 1)], True),  # the quadrant
            ([(1,)], [(1,)], True),  # a half-line
            ([(0, 0, 0)], [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], False),  # a square cone
        ],
    )
    def test_fixed_shapes(self, points, rays, simplicial):
        p = LatticePolytope.from_generators(points, rays)
        assert p.is_simplicial() is simplicial
        _assert_vertex_reads_match_oracle(p, _all_pair_queries(p))

    def test_points_on_different_facets_span_the_whole_square(self):
        # (1, 0) is on the bottom facet only and (0, 1) on the left one: no
        # facet holds both, so their smallest face is the square; the meet of
        # their faces would be the vertex (0, 0)
        square = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)])
        for points in ([(1, 0), (0, 1)], [(2, 0), (0, 2)], [(1, 0), (0, 1), (1, 0)]):
            face = square.smallest_face_containing(points)
            assert face == oracles.smallest_face_containing(square, points)
            assert face.dim == 2 and face.tight == frozenset()
        bottom = square.smallest_face_containing([(1, 0), (2, 0)])
        assert bottom.vertices == ((0, 0), (2, 0)) and bottom.dim == 1
        assert square.smallest_face_containing([(0, 0)]).vertices == ((0, 0),)


def _assert_neighbours_match_oracle(poly):
    for a in range(len(poly.vertices)):
        assert poly.neighbours(a) == oracles.neighbours(poly, a)


class TestNeighboursAgainstOracle:
    """``neighbours`` against the 1-face scan: at a simple vertex by
    dropping one facet at a time, at any other by the generator scan; with
    rays among the neighbours of an unbounded polyhedron."""

    @given(degenerate_h_systems())
    @settings(max_examples=40, deadline=None)
    def test_cubes_cross_polytopes_and_pyramids(self, system):
        halfspaces, rank = system
        _assert_neighbours_match_oracle(LatticePolytope.from_halfspaces(halfspaces, rank))

    @given(generator_sets())
    @settings(max_examples=100, deadline=None)
    def test_hulls_of_any_dimension_with_rays(self, gens):
        points, rays, _ = gens
        try:
            poly = LatticePolytope.from_generators(points, rays)
        except UnsupportedGeometryError:
            return
        _assert_neighbours_match_oracle(poly)

    @pytest.mark.parametrize(
        "points, rays, non_simple",
        [
            ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)], [], 1),  # pyramid
            ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], [], 6),
            ([(0, 0)], [(1, 0), (0, 1)], 0),  # the quadrant
            ([(0, 0), (1, 0)], [(0, 1)], 0),  # a half-strip
            ([(1,)], [(1,)], 0),  # a half-line
            ([(3, 1, 4)], [], 0),  # a single point
            ([(0, 0, 0)], [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 1),  # a square cone
            # a square by a half-line
            ([(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1)], [(0, 0, 1)], 0),
        ],
    )
    def test_fixed_shapes(self, points, rays, non_simple):
        poly = LatticePolytope.from_generators(points, rays)
        facet_sets = poly._facet_sets[: len(poly.vertices)]
        assert sum(fs.bit_count() != poly.dim for fs in facet_sets) == non_simple
        _assert_neighbours_match_oracle(poly)


def support_function_of_polytope(poly):
    """The support function of the ample divisor a compact polytope defines."""
    if not poly.is_compact:
        raise GeometryError("support function requires a compact polytope")
    values = [-Fraction(h.offset) for h in poly.halfspaces]
    return SupportFunction(normal_fan(poly), values)


class TestSupportFunctions:
    def test_zero_is_affine(self):
        fan = staircase_fan(2)
        assert SupportFunction(fan, [0, 0, 0]).classify() == "affine"

    def test_anticanonical_on_projective_space_strictly_convex(self):
        for n in (2, 3):
            fan = normal_fan(reflexive_simplex(n))
            phi = SupportFunction(fan, [-1] * len(fan.rays))
            assert phi.classify() == "strictly-convex"

    def test_product_fan_convex_not_strict(self):
        rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        cones = [
            frozenset(c)
            for c in ([0, 2], [0, 3], [1, 2], [1, 3], [0], [1], [2], [3], [])
        ]
        fan = Fan(2, rays, cones)
        assert fan.is_complete()
        phi = SupportFunction(fan, [-1, -1, 0, 0])
        assert phi.classify() == "convex"

    def test_incomplete_fan_rejected(self):
        q = LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
        phi = SupportFunction(normal_fan(q), [0, 0])
        with pytest.raises(GeometryError, match="complete fan"):
            phi.classify()

    def test_divisor_polytope_of_anticanonical(self):
        fan = normal_fan(reflexive_simplex(2))
        phi = SupportFunction(fan, [-1, -1, -1])
        assert phi.divisor_polytope() == reflexive_simplex(2)

    def test_divisor_polytope_of_zero_is_a_point(self):
        fan = normal_fan(reflexive_simplex(2))
        phi = SupportFunction(fan, [0, 0, 0])
        poly = phi.divisor_polytope()
        assert poly.dim == 0 and poly.vertices == ((0, 0),)

    def test_multiples_of_hyperplane_class_on_line(self):
        fan = normal_fan(segment(0, 1))
        for d in (1, 2, 5):
            values = [0 if r == (1,) else -d for r in fan.rays]
            poly = SupportFunction(fan, values).divisor_polytope()
            assert set(poly.vertices) == {(0,), (d,)}
            assert len(poly.lattice_points()) == d + 1

    def test_nonconvex_rejected_for_divisor_polytope(self):
        fan = normal_fan(segment(0, 1))
        values = [1 if r == (1,) else 1 for r in fan.rays]  # phi(1)+phi(-1) > 0
        phi = SupportFunction(fan, values)
        assert phi.classify() == "none"
        with pytest.raises(GeometryError):
            phi.divisor_polytope()

    def test_induced_support_function_of_nonsingular_polytope(self):
        for poly in (
            reflexive_simplex(2),
            reflexive_simplex(3),
            LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)]),
        ):
            assert support_function_of_polytope(poly).classify() == "strictly-convex"


def rational_points(rank, count):
    coord = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 3))
    return st.lists(st.tuples(*[coord] * rank), min_size=count, max_size=count)


@st.composite
def slanted_polytopes(draw):
    """Thin, slanted and lower-dimensional polytopes in rank 1-3: the hull of
    small combinations of ``k <= rank`` drawn directions from a rational
    base point.  For ``k < rank`` or dependent directions the hull has
    equations, and its vertex box is far larger than its point set."""
    rank = draw(st.integers(1, 3))
    k = draw(st.integers(1, rank))
    dirs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * rank), min_size=k, max_size=k))
    combos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * k), min_size=1, max_size=5))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2]))
    base = draw(st.tuples(*[coord] * rank))
    return [
        tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
        for cs in combos
    ]


@st.composite
def run_polytopes(draw):
    """Polytopes in rank 1-4 for the run scan: the hull of sums of up to
    ``rank`` drawn directions, each taken 0 or 1 times (or a random hull of
    rational points), from a rational base point, so thin, slanted,
    lower-dimensional and rational-vertex ones all come up and the vertex
    box stays small enough for the box filter."""
    rank = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=rank + 3))
    k = draw(st.integers(1, rank))
    dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=k, max_size=k))
    base = draw(st.tuples(*[coord] * rank))
    return [
        tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
        for cs in itertools.product((0, 1), repeat=k)
    ]


class TestLatticePoints:
    @given(run_polytopes())
    @settings(max_examples=120, deadline=None)
    @example([(0, 0, 0, 0), (3, 1, 2, 3)])
    @example([(Fraction(1, 2), 0, 0, 0), (0, Fraction(1, 3), 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)])
    def test_expanded_runs_match_box_filter_up_to_rank_four(self, points):
        poly = LatticePolytope.from_vertices(points)
        runs = poly.lattice_runs()
        assert poly.lattice_points() == oracles.lattice_points(poly)
        assert all(len(prefix) == poly.ambient_rank - 1 and lo <= hi for prefix, lo, hi in runs)
        assert [prefix for prefix, _, _ in runs] == sorted({prefix for prefix, _, _ in runs})
        assert poly.lattice_runs() is runs

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_scan_matches_box_scan_full_dim(self, data):
        rank = data.draw(st.integers(1, 3))
        extra = data.draw(st.integers(0, 3))
        points = data.draw(rational_points(rank, rank + 1 + extra))
        poly = LatticePolytope.from_vertices(points)
        assume(poly.dim == rank)
        assert poly.lattice_points() == oracles.lattice_points(poly)

    @given(rational_points(2, 2))
    @settings(max_examples=40, deadline=None)
    def test_column_scan_matches_box_scan_segment_in_rank_2(self, points):
        poly = LatticePolytope.from_vertices(points)
        if poly.dim == 1:
            assert poly.equations
        assert poly.lattice_points() == oracles.lattice_points(poly)

    @given(rational_points(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_column_scan_matches_box_scan_triangle_in_rank_3(self, points):
        poly = LatticePolytope.from_vertices(points)
        if poly.dim == 2:
            assert len(poly.equations) == 1
        assert poly.lattice_points() == oracles.lattice_points(poly)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_scan_matches_box_scan_flat_halfspaces(self, data):
        # a box, cut by halfspaces of which some have last normal entry 0
        rank = data.draw(st.integers(1, 3))
        hs = []
        for i in range(rank):
            e = tuple(int(i == j) for j in range(rank))
            hs.append((e, 5))
            hs.append((tuple(-x for x in e), 5))
        for _ in range(data.draw(st.integers(1, 4))):
            head = data.draw(st.tuples(*[st.integers(-3, 3)] * (rank - 1)))
            last = data.draw(st.sampled_from([0, 0, -2, -1, 1, 2]))
            normal = head + (last,)
            if not any(normal):
                continue
            offset = data.draw(st.builds(Fraction, st.integers(0, 12), st.integers(1, 3)))
            hs.append((normal, offset))
        poly = LatticePolytope.from_halfspaces(hs, rank)
        assert poly.lattice_points() == oracles.lattice_points(poly)

    @given(slanted_polytopes())
    @settings(max_examples=60, deadline=None)
    @example([(0, 0), (1, 4), (1, 5)])
    @example([(Fraction(1, 2), 0, 0), (Fraction(9, 2), 2, 6)])
    def test_column_scan_matches_box_filter_thin_slanted_and_flat(self, points):
        poly = LatticePolytope.from_vertices(points)
        if poly.dim < poly.ambient_rank:
            assert poly.equations
        assert poly.lattice_points() == oracles.lattice_points(poly)

    def test_rank_zero_point(self):
        poly = LatticePolytope.from_vertices([()])
        assert poly.lattice_points() == oracles.lattice_points(poly) == [()]

    def test_cached_result_is_a_fresh_list(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        first = t.lattice_points()
        second = t.lattice_points()
        assert first == second
        assert first is not second
        first.clear()
        assert t.lattice_points() == second

    def test_triangle(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        assert len(t.lattice_points()) == 10

    def test_segments(self):
        for d in (0, 1, 4):
            assert len(segment(0, d).lattice_points()) == d + 1

    def test_dilated_simplex_binomial(self):
        pts = dilated_simplex(4).lattice_points()
        assert len(pts) == comb(7, 3) == 35
        # independent enumeration
        direct = sum(
            1
            for x in range(5)
            for y in range(5)
            for z in range(5)
            if x + y + z <= 4
        )
        assert len(pts) == direct

    def test_unbounded_rejected(self):
        q = LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
        with pytest.raises(GeometryError):
            q.lattice_points()


class TestLatticeEquivalence:
    def test_identity(self):
        d2 = reflexive_simplex(2)
        found = lattice_equivalent(d2, d2)
        assert found is not None
        matrix, shift = found
        assert abs(matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]) == 1

    def test_translation(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        shifted = LatticePolytope.from_vertices([(5, 7), (8, 7), (5, 10)])
        assert lattice_equivalent(t, shifted) is not None

    def test_chain_slab_pieces_across_cut_choices(self):
        # the bottom piece of the x_1-cut chain matches a piece of the
        # (x_1+x_2+x_3)-cut chain of the same degree
        g1 = chain_partition(4, k=1)
        g3 = chain_partition(4, k=3)
        first = g1.pieces[0]
        assert any(
            lattice_equivalent(first, piece) is not None for piece in g3.pieces
        )

    def test_chain_k2_end_pieces(self):
        g = chain_partition(4, k=2)
        assert lattice_equivalent(g.pieces[0], g.pieces[3]) is not None
        assert lattice_equivalent(g.pieces[1], g.pieces[2]) is not None
        assert lattice_equivalent(g.pieces[0], g.pieces[1]) is None

    def test_distinct_volumes_not_equivalent(self):
        a = LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
        b = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2)])
        assert lattice_equivalent(a, b) is None

    def test_symmetric_and_reflexive_on_corpus(self):
        pieces = list(chain_partition(4, k=2).pieces) + list(chain_partition(3).pieces)
        for p in pieces:
            assert lattice_equivalent(p, p) is not None
        for p in pieces:
            for q in pieces:
                assert (lattice_equivalent(p, q) is None) == (
                    lattice_equivalent(q, p) is None
                )

    def test_lower_dimensional_polytopes(self):
        # a segment embedded in the plane vs the same segment on the axis
        a = LatticePolytope.from_vertices([(1, 1), (3, 3)])
        b = LatticePolytope.from_vertices([(0,), (2,)])
        assert lattice_equivalent(a, b) is not None

    def test_staircase_five_pieces_pairwise_equivalent(self):
        pieces = staircase_partition(5).pieces
        assert len(pieces) == 6
        for p, q in itertools.combinations(pieces, 2):
            assert lattice_equivalent(p, q) is not None

    def test_no_linear_solve_per_candidate(self):
        p, q = staircase_partition(3).pieces[:2]
        with mock.patch.object(
            polytope_module, "solve_linear", wraps=polytope_module.solve_linear
        ) as local, mock.patch.object(
            exactmath, "solve_linear", wraps=exactmath.solve_linear
        ) as shared:
            maps = list(lattice_equivalences(p, q))
        assert maps
        assert local.call_count == 0 and shared.call_count == 0


class TestLatticeEquivalenceBudget:
    """The search counts its candidate maps and the vertex images that the
    surviving ones test, and refuses past the budget."""

    def test_refusal_names_the_count(self, monkeypatch):
        # every vertex of the cube has one key, so each of its 8 images
        # takes all 3! orders of the edges: 48 candidates, all of them maps,
        # each testing the images of the 8 vertices
        cube = _cube(3)
        monkeypatch.setattr(polytope_module, "CANDIDATE_BUDGET", 48 * 9)
        assert len(set(lattice_equivalences(cube, cube))) == 48
        monkeypatch.setattr(polytope_module, "CANDIDATE_BUDGET", 48 * 9 - 1)
        message = "^lattice equivalence over 432 candidate maps and vertex images$"
        with pytest.raises(UnsupportedGeometryError, match=message):
            list(lattice_equivalences(cube, cube))

    def test_automorphisms_of_the_eight_cube_are_refused_quickly(self):
        # 2^8 * 8! maps, each checked on 256 vertices: the vertex checks
        # count, so the refusal comes within seconds
        cube = _cube(8)
        start = time.perf_counter()
        with pytest.raises(UnsupportedGeometryError, match="vertex images$"):
            list(lattice_equivalences(cube, cube))
        assert time.perf_counter() - start < 30

    def test_first_map_of_a_high_valence_cube_is_within_the_budget(self):
        # valence 9, past the old refusal: the first candidate is a map
        cube = _cube(9)
        assert lattice_equivalent(cube, cube) == (
            tuple(tuple(int(i == j) for j in range(9)) for i in range(9)),
            (0,) * 9,
        )


def _image(matrix, shift, v):
    return tuple(sum(a * x for a, x in zip(row, v)) + t for row, t in zip(matrix, shift))


@st.composite
def equivalence_pairs(draw, embed=False):
    """A full-dimensional lattice polygon or 3-polytope and either its image
    under a unimodular map plus a translation, or the image of a copy with
    one edge stretched by a lattice step or one coordinate doubled (as many
    vertices, rarely equivalent).

    With ``embed`` both are then pushed into rank + 1 or + 2, each by its
    own injective integer map and shift, so they are lower-dimensional.  An
    image stays an ``image`` only when both maps are known to be saturated;
    otherwise its kind is ``sublattice``, with no verdict expected."""
    rank = draw(st.integers(2, 3))
    pts = draw(point_sets(rank, 7 if rank == 2 else 6, bound=2))
    try:
        p = LatticePolytope.from_vertices(pts)
    except UnsupportedGeometryError:
        assume(False)
    assume(p.dim == rank)
    kind = draw(st.sampled_from(["image", "stretched", "doubled"]))
    verts = list(p.vertices)
    if kind == "stretched":
        k = draw(st.integers(0, len(verts) - 1))
        edge = draw(st.sampled_from(oracles.edge_directions(p, verts[k])))
        verts[k] = tuple(x - e for x, e in zip(verts[k], edge))
    elif kind == "doubled":
        verts = [(2 * v[0],) + v[1:] for v in verts]
    ops = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1), st.integers(-2, 2))
    matrix = unimodular_matrix(rank, draw(st.lists(ops, max_size=4)))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * rank))
    q = LatticePolytope.from_vertices([_image(matrix, shift, v) for v in verts])
    assume(len(q.vertices) == len(p.vertices))
    if embed:
        n = rank + draw(st.integers(1, 2))
        embedded = []
        for poly in (p, q):
            matrix, shift, saturated = draw(injective_maps(rank, n))
            image = [_image(matrix, shift, v) for v in poly.vertices]
            embedded.append(LatticePolytope.from_vertices(image))
            if kind == "image" and not saturated:
                kind = "sublattice"
        p, q = embedded
    return p, q, kind


def _assert_same_maps(got, expected):
    """The same maps as the oracle, each once; the order is the search's."""
    assert len(set(got)) == len(got) and set(got) == set(expected)
    assert repr(sorted(got)) == repr(sorted(expected))


# lattice polygons with the same vertex keys that are not lattice-equivalent:
# the keys see the lattice distances to the facets, not the edge lengths
KEY_TWINS = [
    ([(0, 0), (0, 3), (3, 0)], [(0, 0), (0, 1), (3, 2)]),
    ([(0, 0), (0, 4), (2, 0)], [(0, 0), (0, 2), (2, 1)]),
    ([(0, 0), (0, 2), (2, 0), (2, 2)], [(0, 0), (0, 1), (2, 1), (2, 2)]),
]


class TestLatticeEquivalenceAgainstOracle:
    @given(equivalence_pairs())
    @settings(max_examples=60, deadline=None)
    def test_same_maps_as_the_oracle(self, pair):
        p, q, kind = pair
        got = list(lattice_equivalences(p, q))
        _assert_same_maps(got, list(oracles.lattice_equivalences(p, q)))
        if kind == "image":
            assert got and sorted(p.vertex_keys()) == sorted(q.vertex_keys())
        for matrix, shift in got:
            assert {_image(matrix, shift, v) for v in p.vertices} == set(q.vertices)

    def test_first_map_of_the_staircase_pieces_is_valid(self):
        pieces = staircase_partition(3).pieces
        for p, q in itertools.combinations(pieces, 2):
            found = lattice_equivalent(p, q)
            assert found in set(oracles.lattice_equivalences(p, q))
            matrix, shift = found
            assert {_image(matrix, shift, v) for v in p.vertices} == set(q.vertices)

    @given(
        st.sampled_from(KEY_TWINS),
        st.booleans(),
        st.integers(0, 1),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)), max_size=4),
        st.tuples(*[st.integers(-3, 3)] * 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_keys_that_are_not_equivalent(self, twins, swap, prism, ops, shift):
        # each twin is moved by its own unimodular map, and a prism over both
        # keeps their keys equal one rank up
        rank = 2 + prism
        polys = []
        for k, verts in enumerate(twins):
            if prism:
                verts = [v + (h,) for v in verts for h in (0, 1)]
            matrix = unimodular_matrix(rank, [(i % rank, j % rank, c) for i, j, c in ops[k::2]])
            polys.append(LatticePolytope.from_vertices([_image(matrix, shift, v) for v in verts]))
        p, q = polys[::-1] if swap else polys
        assert sorted(p.vertex_keys()) == sorted(q.vertex_keys())
        assert list(oracles.lattice_equivalences(p, q)) == []
        assert list(lattice_equivalences(p, q)) == []

    def test_different_keys_are_told_apart_before_any_candidate(self):
        a = LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
        b = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 1)])
        assert sorted(a.vertex_keys()) != sorted(b.vertex_keys())
        with mock.patch.object(polytope_module, "_linear_part", side_effect=AssertionError):
            assert list(lattice_equivalences(a, b)) == []


class TestLatticeEquivalenceInTheChart:
    """Lower-dimensional pairs: vertices and neighbours mapped through the
    lattice chart against the oracle's full-dimensional model polytopes."""

    @given(equivalence_pairs(embed=True))
    @settings(max_examples=60, deadline=None)
    def test_same_maps_as_the_models(self, pair):
        p, q, kind = pair
        assert p.dim < p.ambient_rank
        got = list(lattice_equivalences(p, q))
        _assert_same_maps(got, list(oracles.lattice_equivalences(p, q)))
        if kind == "image":
            assert got and sorted(p.vertex_keys()) == sorted(q.vertex_keys())
        target = set(map(q.lattice_coordinates, q.vertices))
        for matrix, shift in got:
            assert {_image(matrix, shift, p.lattice_coordinates(v)) for v in p.vertices} == target

    def test_no_model_polytope_is_built(self):
        a = LatticePolytope.from_vertices([(0, 0, 5), (2, 0, 5), (0, 1, 5)])
        b = LatticePolytope.from_vertices([(1, 1, 1), (1, 3, 3), (2, 1, 2)])
        with mock.patch.object(
            LatticePolytope, "from_generators", side_effect=AssertionError("model built")
        ), mock.patch.object(
            LatticePolytope, "_from_normalized", side_effect=AssertionError("model built")
        ):
            maps = list(lattice_equivalences(a, b))
        _assert_same_maps(maps, list(oracles.lattice_equivalences(a, b)))
        assert maps


def _pruned_by(p, q):
    """The maps of ``lattice_equivalences(p, q)`` and the conditions of the
    ``continue`` lines its search ran, read off a line trace of its frame."""
    code = polytope_module.lattice_equivalences.__code__
    lines, first = inspect.getsourcelines(code)
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        maps = list(lattice_equivalences(p, q))
    finally:
        sys.settrace(None)
    pruned = {
        lines[n - first - 1].strip()
        for n in ran
        if lines[n - first].strip() == "continue"
    }
    return maps, pruned


class TestLatticeEquivalencePruning:
    """The two prunings of the candidate search, each reached and each
    giving the oracle's maps."""

    @pytest.mark.parametrize("ops", [[], [(0, 1, 1), (1, 0, -2)]])
    def test_start_vertex_with_other_far_end_keys(self, ops):
        # every key is held by two vertices, which differ in the keys of
        # their neighbours, so one start image of the rarest key is skipped
        verts = [(0, 6), (4, 1), (4, 3), (5, 0), (5, 2), (6, 0)]
        matrix = unimodular_matrix(2, ops)
        p = LatticePolytope.from_vertices(verts)
        q = LatticePolytope.from_vertices([_image(matrix, (1, -2), v) for v in verts])
        maps, pruned = _pruned_by(p, q)
        assert "if [k for k, _ in q_sorted] != p_far:" in pruned
        _assert_same_maps(maps, list(oracles.lattice_equivalences(p, q)))
        assert maps

    @pytest.mark.parametrize("ops", [[], [(2, 0, 1), (0, 1, 3)]])
    def test_candidate_fitting_the_spanning_edges_only(self, ops):
        # the apex has four edges over a square: a unimodular map fixed by
        # three of them may send the fourth off its image
        verts = _square_pyramid().vertices
        matrix = unimodular_matrix(3, ops)
        p = LatticePolytope.from_vertices(verts)
        q = LatticePolytope.from_vertices([_image(matrix, (0, 1, 2), v) for v in verts])
        maps, pruned = _pruned_by(p, q)
        assert (
            "if any(_apply(a, p_edges[i]) != targets[i] for i in range(len(p_edges))):"
            in pruned
        )
        _assert_same_maps(maps, list(oracles.lattice_equivalences(p, q)))
        assert len(maps) == 8


class TestDirectionBasisKept:
    """A lower-dimensional polyhedron keeps the direction basis its facets
    were found in, so its lattice reads run no second kernel."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LatticePolytope.from_vertices([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            # the first generator is no vertex
            lambda: LatticePolytope.from_vertices(
                [(1, 1, 2), (0, 0, 2), (2, 0, 2), (0, 2, 2), (2, 2, 2)]
            ),
            lambda: LatticePolytope.from_halfspaces(
                [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), 2)], 3, [((0, 0, 1), -1)]
            ),
            lambda: LatticePolytope.from_generators([(0, 0, 3, 1)], [(1, 0, 0, 0), (1, 2, 0, 0)]),
        ],
    )
    def test_lattice_reads_run_no_kernel(self, build):
        poly = build()
        assert poly.dim < poly.ambient_rank
        again = AssertionError("kernel run again")
        with mock.patch.object(polytope_module, "right_kernel", side_effect=again), mock.patch.object(
            exactmath, "right_kernel", side_effect=again
        ):
            coords = [poly.lattice_coordinates(v) for v in poly.vertices]
            keys = poly.vertex_keys()
            smooth = [poly.is_nonsingular_at(v) for v in poly.vertices]
        assert all(type(x) is int for c in coords for x in c)
        assert len(keys) == len(poly.vertices)
        assert smooth == [oracles.singular_vertices(poly).count(v) == 0 for v in poly.vertices]


def assert_integral_values_are_ints(poly):
    """Every integral vertex or ray coordinate and every integral halfspace
    or equation offset of the polyhedron is a plain ``int``."""
    values = [x for v in poly.vertices + poly.rays for x in v]
    values += [c for h in poly.halfspaces + poly.equations for c in (*h.normal, h.offset)]
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


@st.composite
def raw_h_systems(draw):
    """Halfspace systems in rank 1-3 as plain tuples with normals that need
    not be primitive, offsets given as ints or as Fractions (integral ones
    too): bounded, unbounded, empty, and lower-dimensional through
    equations."""
    rank = draw(st.integers(1, 3))
    normal = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    offset = st.one_of(
        st.integers(-4, 8), st.builds(Fraction, st.integers(-8, 16), st.integers(1, 3))
    )
    hs = draw(st.lists(st.tuples(normal, offset), max_size=rank + 3))
    eqs = draw(st.lists(st.tuples(normal, offset), max_size=rank - 1))
    return hs, eqs, rank, normal, offset


class TestIntegralDataStaysInt:
    @given(raw_h_systems())
    @settings(max_examples=150, deadline=None)
    def test_from_halfspaces(self, system):
        hs, eqs, rank, _, _ = system
        try:
            poly = LatticePolytope.from_halfspaces(hs, rank, eqs)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        assert_integral_values_are_ints(poly)

    @given(generator_sets(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_from_generators(self, generators, as_fractions):
        points, rays, rank = generators
        if as_fractions:
            points = [tuple(Fraction(x) for x in p) for p in points]
        try:
            poly = LatticePolytope.from_generators(points, rays)
        except UnsupportedGeometryError:
            return
        assert_integral_values_are_ints(poly)

    @given(raw_h_systems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_intersect_normalizes_only_the_new_constraints(self, system, data):
        hs, eqs, rank, normal, offset = system
        try:
            region = LatticePolytope.from_halfspaces(hs, rank, eqs)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        new_hs = data.draw(st.lists(st.tuples(normal, offset), max_size=3))
        new_eqs = data.draw(st.lists(st.tuples(normal, offset), max_size=1))
        own_hs = [(h.normal, h.offset) for h in region.halfspaces]
        own_eqs = [(e.normal, e.offset) for e in region.equations]
        try:
            public = LatticePolytope.from_halfspaces(own_hs + new_hs, rank, own_eqs + new_eqs)
        except (EmptyPolyhedronError, UnsupportedGeometryError) as exc:
            with pytest.raises(type(exc)):
                region.intersect(new_hs, new_eqs)
            return
        with mock.patch.object(
            polytope_module, "_normalize_halfspace", wraps=_normalize_halfspace
        ) as spy:
            got = region.intersect(new_hs, new_eqs)
        if got.dim == rank:
            # a full-dimensional result is not rebuilt from its generators
            assert spy.call_count == len(new_hs)
        assert_integral_values_are_ints(got)
        assert got.halfspaces == public.halfspaces and got.equations == public.equations
        assert got.vertices == public.vertices and got.rays == public.rays
        assert got._incidence == public._incidence and got.dim == public.dim
        assert repr((got.halfspaces, got.vertices)) == repr((public.halfspaces, public.vertices))

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(any))
    def test_primitive_of_ints_and_integral_fractions(self, v):
        ints = primitive(tuple(v))
        fracs = primitive(tuple(Fraction(x) for x in v))
        assert ints == fracs and repr(ints) == repr(fracs)

    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=6),
        st.lists(
            st.tuples(
                st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
                st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 2))),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_pieces_of_hyperplane_cuts(self, points, cuts):
        ambient = LatticePolytope.from_vertices(points)
        assume(ambient.dim == 2)
        try:
            part = partition_by_hyperplanes(ambient, cuts)
        except PartitionError:
            return
        for piece in part.pieces:
            assert_integral_values_are_ints(piece)

    def test_pieces_of_a_rank_three_chain(self):
        part = partition_by_hyperplanes(
            dilated_simplex(4), [((1, 1, 1), Fraction(c)) for c in (1, 2, 3)]
        )
        for piece in part.pieces:
            assert piece.is_lattice
            assert_integral_values_are_ints(piece)


def _constraints(poly):
    """A polyhedron's own halfspaces and equations as plain pairs."""
    return [tuple(h) for h in poly.halfspaces], [tuple(e) for e in poly.equations]


def _assert_same_as_from_scratch(got, expected):
    assert got.halfspaces == expected.halfspaces and got.equations == expected.equations
    assert got.vertices == expected.vertices and got.rays == expected.rays
    assert got._incidence == expected._incidence and got.dim == expected.dim
    assert got.is_whole_space == expected.is_whole_space
    assert repr((got.halfspaces, got.vertices, got.rays)) == repr(
        (expected.halfspaces, expected.vertices, expected.rays)
    )


def _assert_cut_matches_from_scratch(region, new_hs, new_eqs=()):
    """``region.intersect`` against ``from_halfspaces`` of all the
    constraints: every field the same, or the same refusal."""
    own_hs, own_eqs = _constraints(region)
    try:
        expected = LatticePolytope.from_halfspaces(
            own_hs + list(new_hs), region.ambient_rank, own_eqs + list(new_eqs)
        )
    except (EmptyPolyhedronError, UnsupportedGeometryError) as exc:
        with pytest.raises(type(exc)):
            region.intersect(new_hs, new_eqs)
        return
    _assert_same_as_from_scratch(region.intersect(new_hs, new_eqs), expected)


def _assert_meet_matches_from_scratch(p, q):
    """``p.intersect_polyhedron(q)`` against ``from_halfspaces`` of both
    constraint lists: every field the same, or the same refusal.  A pointed
    ``p`` runs one ``_dd_split`` step per row of ``q`` except the halfspaces
    it stores with the same normal and an offset no larger."""
    p_hs, p_eqs = _constraints(p)
    q_hs, q_eqs = _constraints(q)
    try:
        expected = LatticePolytope.from_halfspaces(p_hs + q_hs, p.ambient_rank, p_eqs + q_eqs)
    except (EmptyPolyhedronError, UnsupportedGeometryError) as exc:
        with pytest.raises(type(exc)):
            p.intersect_polyhedron(q)
        return
    steps = []
    step = polytope_module._dd_split
    with mock.patch.object(polytope_module, "_dd_split", side_effect=lambda *a: steps.append(a) or step(*a)):
        got = p.intersect_polyhedron(q)
    _assert_same_as_from_scratch(got, expected)
    if not p.is_whole_space:
        # a lower-dimensional result rebuilds its facets in its own, smaller width
        cut_steps = [a for a in steps if len(a[0]) == p.ambient_rank + 1]
        implied = [
            h for h in q.halfspaces if any(g.normal == h.normal and g.offset <= h.offset for g in p.halfspaces)
        ]
        assert len(cut_steps) == len(q.halfspaces) - len(implied) + 2 * len(q.equations)


@st.composite
def region_cuts(draw, region):
    """Halfspaces and equations to cut ``region`` with: parallel to one of
    its facets (tighter, looser or the same), through one of its vertices,
    or anywhere."""
    rank = region.ambient_rank
    normal = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    offset = st.one_of(
        st.integers(-4, 6), st.builds(Fraction, st.integers(-8, 12), st.integers(1, 3))
    )
    kinds = ["anywhere"]
    if region.halfspaces:
        kinds.append("parallel")
    if region.vertices:
        kinds.append("vertex")

    def row():
        kind = draw(st.sampled_from(kinds))
        if kind == "parallel":
            h = draw(st.sampled_from(region.halfspaces))
            shift = draw(st.sampled_from([-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2]))
            return h.normal, h.offset + shift
        n = draw(normal)
        if kind == "vertex":
            v = draw(st.sampled_from(region.vertices))
            return n, -vdot(v, n)
        return n, draw(offset)

    new_hs = [row() for _ in range(draw(st.integers(0, 3)))]
    new_eqs = [row() for _ in range(draw(st.integers(0, 1)))]
    return new_hs, new_eqs


class TestSeededIntersection:
    """An intersection cuts its region in one pass: one double description
    step per new row over the cone over the region, read off by the tail
    every cut shares.  It must give what the double description from scratch
    over all the constraints gives, field by field, or the same refusal."""

    @given(raw_h_systems(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_intersect_matches_the_run_from_scratch(self, system, data):
        hs, eqs, rank, _, _ = system
        try:
            region = LatticePolytope.from_halfspaces(hs, rank, eqs)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        new_hs, new_eqs = data.draw(region_cuts(region))
        _assert_cut_matches_from_scratch(region, new_hs, new_eqs)

    @given(raw_h_systems(), raw_h_systems())
    @settings(max_examples=200, deadline=None)
    # pieces sharing facets, one tighter and one looser: the shared rows run no step
    @example(
        ([((1, 0), 0), ((0, 1), 0), ((-1, 0), 2), ((0, -1), 2)], [], 2, None, None),
        ([((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 3), ((-1, 1), 1)], [], 2, None, None),
    )
    @example(  # flat squares in rank 3 on one plane, sharing two facets
        ([((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, 0, 0), 2), ((0, -1, 0), 2)], [((0, 0, 1), -1)], 3, None, None),
        ([((1, 0, 0), -1), ((0, 1, 0), 0), ((-1, 0, 0), 2), ((0, -1, 0), 3)], [((0, 0, 1), -1)], 3, None, None),
    )
    def test_intersect_polyhedron_matches_the_run_from_scratch(self, first, second):
        rank = first[2]
        assume(second[2] == rank)
        try:
            p = LatticePolytope.from_halfspaces(first[0], rank, first[1])
            q = LatticePolytope.from_halfspaces(second[0], rank, second[1])
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        _assert_meet_matches_from_scratch(p, q)

    SQUARE = [((1, 0), 0), ((0, 1), 0), ((-1, 0), 2), ((0, -1), 2)]
    QUADRANT = [((1, 0), 0), ((0, 1), 0)]
    # conv{(0, 0), (3/2, 0), (0, 1/2)}: rational vertices
    RATIONAL = [((1, 0), 0), ((0, 1), 0), ((-1, -3), Fraction(3, 2))]
    # the segment from (0, 0, 1) to (2, 2, 1)
    SEGMENT = ([((1, 0, 0), 0), ((-1, 0, 0), 2)], [((1, -1, 0), 0), ((0, 0, 1), -1)])

    @pytest.mark.parametrize(
        "halfspaces, equations, rank, new_hs, new_eqs",
        [
            (SQUARE, [], 2, [((-1, 0), 1)], []),  # parallel, tighter: a facet is dropped
            (SQUARE, [], 2, [((-1, 0), 3)], []),  # parallel, looser
            (SQUARE, [], 2, [((-1, 0), 2)], []),  # a facet again
            (SQUARE, [], 2, [((-1, -1), 2)], []),  # through two vertices
            (SQUARE, [], 2, [((-1, 1), 0)], []),  # through two vertices, splitting the square
            (SQUARE, [], 2, [], [((1, -1), 0)]),  # a new equation: the diagonal
            (SQUARE, [], 2, [((1, 1), -1)], [((1, -1), 0)]),  # half the diagonal
            (SQUARE, [], 2, [((-1, 0), 0)], []),  # the left edge: lower-dimensional
            (SQUARE, [], 2, [((-1, -1), 0)], []),  # the corner: a point
            (SQUARE, [], 2, [((1, 0), -5)], []),  # empty
            (SQUARE, [], 2, [], [((1, 0), -5)]),  # empty through an equation
            (SQUARE, [], 2, [((-1, 0), 1), ((1, 0), -1)], []),  # x = 1 by two halfspaces
            (SQUARE, [], 2, [((-1, 0), 3), ((-1, 0), 1)], []),  # two parallel rows, looser first
            (SQUARE, [], 2, [((-1, 0), 1), ((-1, 0), 3)], []),  # two parallel rows, tighter first
            (SQUARE, [], 2, [((0, 1), 0), ((-1, 1), 0)], []),  # a facet again, then a crossing row
            (SQUARE, [], 2, [], [((1, 0), -1)]),  # an equation along a facet normal: x = 1
            (SQUARE, [], 2, [], [((1, 0), 0)]),  # an equation on a facet: the left edge
            (QUADRANT, [], 2, [((-1, -1), 3)], []),  # unbounded to compact
            (QUADRANT, [], 2, [((1, -1), 1)], []),  # unbounded, one ray dropped
            (QUADRANT, [], 2, [((0, -1), 0)], []),  # a ray of the quadrant
            (QUADRANT, [], 2, [((0, 1), -1)], []),  # parallel to a facet, tighter
            (QUADRANT, [], 2, [], [((1, -2), 1)]),  # a ray from an equation
            (QUADRANT, [], 2, [((1, 0), 0)], []),  # a facet again, unbounded
            (QUADRANT, [], 2, [], [((0, 1), -1)]),  # an equation along a facet normal: a ray
            (RATIONAL, [], 2, [((-2, 0), 1)], []),  # a rational cut
            (RATIONAL, [], 2, [((-1, -3), Fraction(5, 4))], []),  # parallel, tighter, rational
            (RATIONAL, [], 2, [((1, 2), -1)], []),  # through the rational vertex (0, 1/2)
            (*SEGMENT, 3, [((-1, -1, 0), 2)], []),  # lower-dimensional, cut in half
            (*SEGMENT, 3, [((-1, 0, 0), 1)], []),  # lower-dimensional, parallel and tighter
            (*SEGMENT, 3, [((0, 1, 0), -2)], []),  # lower-dimensional, to an end point
            (*SEGMENT, 3, [], [((1, 0, 0), -1)]),  # lower-dimensional, an equation
            (*SEGMENT, 3, [], [((0, 0, 1), -1)]),  # its own equation again
            ([], [], 2, [((1, 0), 0), ((0, 1), 0)], []),  # the whole space
            ([], [], 2, [((1, 1), 0)], [((1, -1), 0)]),  # the whole space to a ray
            ([], [], 1, [], []),  # the whole space, nothing added
            (SQUARE, [], 2, [], []),  # nothing added
        ],
    )
    def test_cuts_of_fixed_regions(self, halfspaces, equations, rank, new_hs, new_eqs):
        region = LatticePolytope.from_halfspaces(halfspaces, rank, equations)
        _assert_cut_matches_from_scratch(region, new_hs, new_eqs)
        try:
            other = LatticePolytope.from_halfspaces(new_hs, rank, new_eqs)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        _assert_meet_matches_from_scratch(region, other)

    def test_one_cut_processes_only_the_new_row(self, kernel_runs):
        region = reflexive_simplex(3)
        cut = ((1, 1, 0), 1)
        steps = []
        step = polytope_module._dd_split
        with mock.patch.object(
            polytope_module, "_dd_split", side_effect=lambda *a: steps.append(a) or step(*a)
        ):
            before = len(kernel_runs)
            piece = region.intersect([cut])
        assert len(kernel_runs) == before and len(steps) == 1
        row, bit, rays, least, pairs = steps[0]
        # the region's facets keep their bits, ``t >= 0`` is next, the cut after it
        assert row == (1, 1, 0, 1) and bit == 1 << (len(region.halfspaces) + 1)
        assert sorted(z for z, _ in rays) == sorted(v + (1,) for v in region.vertices)
        assert (least, pairs) == (region.dim - 1, 0)
        _assert_same_as_from_scratch(
            piece, LatticePolytope.from_halfspaces(_constraints(region)[0] + [cut], 3)
        )

    def test_budget_counts_the_pairs_over_all_the_rows(self, monkeypatch):
        # each row halves the square, 2 vertices against 2: 4 pairs each
        square = LatticePolytope.from_halfspaces(self.SQUARE, 2)
        rows = [((-1, 0), 1), ((0, -1), 1)]
        monkeypatch.setattr(polytope_module, "PAIR_BUDGET", 6)
        for row in rows:
            square.intersect([row])
        with pytest.raises(UnsupportedGeometryError) as refused:
            square.intersect(rows)
        assert str(refused.value) == "double description over 8 candidate ray pairs"

    def test_whole_space_cut_runs_from_scratch(self, kernel_runs):
        LatticePolytope.from_halfspaces([], 2).intersect([((1, 0), 0), ((0, 1), 0)])
        # the tightest halfspace per normal, in normal order, then t >= 0
        assert kernel_runs == [([(0, 1, 0), (1, 0, 0), (0, 0, 1)], 3)]

    def test_seeded_run_past_the_budget_is_refused_with_the_count(self, kernel_runs):
        # the rank-11 unit cube cut by sum(x) <= 11/2 splits its 2048
        # vertices 1024 against 1024: 1,048,576 pairs in the one split
        n = 11
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        cube = LatticePolytope.from_halfspaces(
            [(e, 0) for e in units] + [(tuple(-x for x in e), 1) for e in units], n
        )
        assert len(cube.vertices) == 2048
        before = len(kernel_runs)
        with pytest.raises(UnsupportedGeometryError) as refused:
            cube.intersect([((-1,) * n, Fraction(11, 2))])
        assert str(refused.value) == "double description over 1048576 candidate ray pairs"
        assert 1048576 > PAIR_BUDGET
        assert len(kernel_runs) == before  # the refused cut ran no kernel after the cube's own


def _assert_split_matches_intersect(region, normal, value):
    """``region.split`` against the two ``intersect`` calls it replaces:
    every field the same, ints and Fractions alike."""
    expected = (
        region.intersect([(normal, -value)]),
        region.intersect([(tuple(-x for x in normal), value)]),
    )
    got = region.split(normal, value)
    for g, e in zip(got, expected):
        fields = [(p.halfspaces, p.equations, p.vertices, p.rays, p._incidence, p.dim, p._chart) for p in (g, e)]
        assert fields[0] == fields[1] and repr(fields[0]) == repr(fields[1])
    return got


@st.composite
def crossing_cuts(draw, region):
    """A hyperplane ``(normal, value)`` that crosses a pointed region:
    through a vertex that has others on both sides, or at a rational level
    strictly between the least and the greatest one the region reaches."""
    rank = region.ambient_rank
    normal = draw(st.tuples(*[st.integers(-2, 2)] * rank).filter(any))
    levels = [vdot(v, normal) for v in region.vertices]
    slopes = [vdot(r, normal) for r in region.rays]
    lo = min(levels) - (draw(st.integers(1, 3)) if any(s < 0 for s in slopes) else 0)
    hi = max(levels) + (draw(st.integers(1, 3)) if any(s > 0 for s in slopes) else 0)
    assume(lo < hi)
    inner = sorted({x for x in levels if lo < x < hi})
    if inner and draw(st.booleans()):
        return normal, draw(st.sampled_from(inner))
    q = draw(st.integers(2, 4))
    return normal, lo + (hi - lo) * Fraction(draw(st.integers(1, q - 1)), q)


class TestSplit:
    """A crossed region is split into both sides by one double description
    step.  Each side must be what ``intersect`` with that side's halfspace
    gives, field by field, or the same refusal."""

    @given(raw_h_systems(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_split_matches_the_two_intersections(self, system, data):
        hs, eqs, rank, _, _ = system
        try:
            region = LatticePolytope.from_halfspaces(hs, rank, eqs)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            return
        assume(region.vertices)
        normal, value = data.draw(crossing_cuts(region))
        _assert_split_matches_intersect(region, normal, value)

    SQUARE = TestSeededIntersection.SQUARE
    QUADRANT = TestSeededIntersection.QUADRANT
    RATIONAL = TestSeededIntersection.RATIONAL
    SEGMENT = TestSeededIntersection.SEGMENT
    # the triangle conv{(0, 0, 1), (2, 0, 1), (0, 2, 1)} on the plane z = 1
    TRIANGLE = ([((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), 2)], [((0, 0, 1), -1)])

    @pytest.mark.parametrize(
        "halfspaces, equations, rank, normal, value",
        [
            (SQUARE, [], 2, (1, -1), 0),  # through two opposite vertices
            (SQUARE, [], 2, (1, 1), 2),  # through the other two
            (SQUARE, [], 2, (1, 1), 1),  # through two edge midpoints
            (SQUARE, [], 2, (1, 0), 1),  # parallel to a facet on either side
            (SQUARE, [], 2, (2, 0), 3),  # parallel, a normal that is not primitive
            (SQUARE, [], 2, (0, 1), Fraction(1, 2)),  # parallel, a rational level
            (RATIONAL, [], 2, (1, 0), Fraction(1, 2)),  # rational vertices
            (RATIONAL, [], 2, (1, 3), 1),  # parallel to the rational facet
            (RATIONAL, [], 2, (1, 2), 1),  # through the rational vertex (0, 1/2)
            (QUADRANT, [], 2, (1, -1), 1),  # unbounded: rays on both sides
            (QUADRANT, [], 2, (1, 1), 1),  # unbounded above, compact below
            (QUADRANT, [], 2, (1, 0), 2),  # unbounded on both sides
            (QUADRANT, [], 2, (1, -1), 0),  # through the vertex, between the rays
            (*SEGMENT, 3, (1, 0, 0), 1),  # lower-dimensional: the segment halved
            (*SEGMENT, 3, (0, 1, 1), Fraction(5, 2)),  # lower-dimensional, rational
            (*TRIANGLE, 3, (1, 0, 0), 1),  # a triangle off the origin
            (*TRIANGLE, 3, (1, -1, 5), 5),  # through a vertex of it
        ],
    )
    def test_fixed_cuts(self, halfspaces, equations, rank, normal, value):
        region = LatticePolytope.from_halfspaces(halfspaces, rank, equations)
        above, below = _assert_split_matches_intersect(region, normal, value)
        assert above.dim == below.dim == region.dim

    def test_parallel_cut_replaces_the_facet_on_either_side(self):
        square = LatticePolytope.from_halfspaces(self.SQUARE, 2)
        above, below = square.split((1, 0), 1)
        assert above.halfspaces == (((-1, 0), 2), ((0, -1), 2), ((0, 1), 0), ((1, 0), -1))
        assert below.halfspaces == (((-1, 0), 1), ((0, -1), 2), ((0, 1), 0), ((1, 0), 0))

    def test_one_row_step_and_no_kernel_run(self, kernel_runs):
        region = reflexive_simplex(3)
        steps = []
        step = polytope_module._dd_split
        with mock.patch.object(
            polytope_module, "_dd_split", side_effect=lambda *a: steps.append(a) or step(*a)
        ):
            before = len(kernel_runs)
            region.split((1, 1, 0), -1)
        assert len(kernel_runs) == before and len(steps) == 1

    @pytest.mark.parametrize(
        "halfspaces, rank, normal, value",
        [
            (SQUARE, 2, (1, 0), 2),  # along a facet
            (SQUARE, 2, (1, 0), 5),  # missing the square
            (SQUARE, 2, (1, -1), 2),  # through one vertex only
            (QUADRANT, 2, (1, 1), -1),  # missing, unbounded
            ([], 2, (1, 0), 0),  # the whole plane has no generator to split
        ],
    )
    def test_a_cut_that_does_not_cross_is_refused(self, halfspaces, rank, normal, value):
        region = LatticePolytope.from_halfspaces(halfspaces, rank)
        with pytest.raises(GeometryError, match="does not cross"):
            region.split(normal, value)

    def test_split_past_the_budget_is_refused_with_the_count(self):
        # the rank-11 unit cube split at sum(x) = 11/2: 1024 vertices on
        # each side, 1,048,576 pairs in the one step
        n = 11
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        cube = LatticePolytope.from_halfspaces(
            [(e, 0) for e in units] + [(tuple(-x for x in e), 1) for e in units], n
        )
        with pytest.raises(UnsupportedGeometryError) as refused:
            cube.split((1,) * n, Fraction(11, 2))
        assert str(refused.value) == "double description over 1048576 candidate ray pairs"


class TestVolume:
    def test_simplex(self):
        assert oracles.volume(dilated_simplex(1)) == Fraction(1, 6)
        assert oracles.volume(dilated_simplex(4)) == Fraction(64, 6)

    def test_square(self):
        sq = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert oracles.volume(sq) == 4


@st.composite
def fan_ray_sets(draw):
    """n + 1 integer rays in rank n <= 4: n drawn vectors and minus a
    positive combination of them, inserted anywhere, or n + 1 drawn vectors
    (mostly rejected)."""
    n = draw(st.integers(1, 4))
    vectors = st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n + 1)
    rays = draw(vectors)
    if len(rays) == n:
        weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        last = tuple(-sum(w * r[i] for w, r in zip(weights, rays)) for i in range(n))
        rays.insert(draw(st.integers(0, n)), last)
    return rays


class TestCompleteFanFromRays:
    @given(fan_ray_sets())
    @settings(max_examples=150, deadline=None)
    @example([(1,), (-2,)])
    @example([(1, 0), (0, 1), (-1, -2)])
    def test_relation_checks_imply_a_complete_fan(self, rays):
        try:
            fan = complete_fan_from_rays(rays)
        except GeometryError:
            return
        assert fan.is_complete()
        assert len(fan.maximal_cones) == fan.rank + 1
        for cone in fan.maximal_cones:
            assert exactmath.determinant([fan.rays[i] for i in sorted(cone)]) != 0

    def test_rejects_bad_relation(self):
        with pytest.raises(GeometryError):
            complete_fan_from_rays([(1, 0), (0, 1), (1, 1)])

    def test_staircase_fans_complete(self):
        for n in (1, 2, 3, 4):
            assert staircase_fan(n).is_complete()


def _assert_cone_facets_match_oracle(fan):
    for cone in fan.cones:
        got = fan.cone_facets(cone)
        expected = oracles.cone_facets(fan, cone)
        assert len(got) == len(expected) and set(got) == set(expected)


class TestConeFacetsAgainstOracle:
    """Cone facets read off the incidence against the face-lattice read, on
    every cone of random complete fans: simplicial ones from ``n + 1`` rays,
    and normal fans of cubes, cross-polytopes and pyramids, whose cones need
    not be simplicial."""

    @given(fan_ray_sets())
    @settings(max_examples=80, deadline=None)
    @example([(1, 0), (0, 1), (-1, -2)])
    def test_complete_simplicial_fans(self, rays):
        try:
            fan = complete_fan_from_rays(rays)
        except GeometryError:
            return
        _assert_cone_facets_match_oracle(fan)

    @given(degenerate_h_systems())
    @settings(max_examples=30, deadline=None)
    def test_normal_fans(self, system):
        halfspaces, rank = system
        fan = normal_fan(LatticePolytope.from_halfspaces(halfspaces, rank))
        _assert_cone_facets_match_oracle(fan)

    def test_staircase_and_whole_line_fans(self):
        _assert_cone_facets_match_oracle(staircase_fan(3))
        line = Fan(1, [(1,), (-1,)], [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})])
        assert line.cone_facets(frozenset({0, 1})) == []
        _assert_cone_facets_match_oracle(line)


class TestSupportFunctionRoundTrip:
    def test_divisor_polytope_inverts_induced_support_function(self):
        for poly in (
            reflexive_simplex(2),
            reflexive_simplex(3),
            dilated_simplex(4),
            LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 3), (2, 3)]),
        ):
            phi = support_function_of_polytope(poly)
            assert phi.divisor_polytope() == poly

    def test_equivalence_map_actually_maps(self):
        g = chain_partition(4, k=2)
        found = lattice_equivalent(g.pieces[0], g.pieces[3])
        assert found is not None
        matrix, shift = found
        image = {
            tuple(sum(row[k] * v[k] for k in range(3)) + s for row, s in zip(matrix, shift))
            for v in g.pieces[0].vertices
        }
        assert image == set(g.pieces[3].vertices)


class TestFanValidity:
    """Pairwise cone intersections are faces of both cones."""

    @pytest.mark.parametrize("fan_source", ["staircase-2", "staircase-3", "square"])
    def test_cone_intersections_are_faces(self, fan_source):
        if fan_source == "square":
            fan = normal_fan(LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)]))
        else:
            fan = staircase_fan(int(fan_source[-1]))
        cones = sorted(fan.cones, key=sorted)
        for a in cones:
            for b in cones:
                pa, pb = fan.cone_polyhedron(a), fan.cone_polyhedron(b)
                meet = pa.intersect_polyhedron(pb)
                rays = frozenset(oracles.ray_index(fan, r) for r in meet.rays)
                assert rays in fan.cones
                assert meet == fan.cone_polyhedron(rays)
                assert rays <= a and rays <= b

    def test_cones_closed_under_faces(self):
        for n in (2, 3):
            fan = staircase_fan(n)
            for cone in fan.cones:
                for wall in fan.cone_facets(cone):
                    assert frozenset(wall) in fan.cones


class TestEnumerationGuard:
    """The scan counts the prefixes it visits and the points it lists, and
    refuses past ``POINT_BUDGET`` before a range is expanded."""

    def test_oversized_boxes_rejected_cleanly(self):
        from toricdegen import UnsupportedGeometryError

        long_segment = segment(0, 10**12)
        with pytest.raises(UnsupportedGeometryError, match="enumeration"):
            long_segment.lattice_points()

    def test_long_run_refused_from_its_length(self):
        # the one run of 10^12 + 1 points is refused before any is listed
        long_segment = LatticePolytope.from_vertices([(0,), (10**12,)])
        start = time.perf_counter()
        with pytest.raises(UnsupportedGeometryError, match="enumeration past 10000000"):
            long_segment.lattice_runs()
        assert time.perf_counter() - start < 1

    def test_diagonal_segment_with_a_huge_box_is_listed(self):
        # the vertex box holds 10001^3 > 10^12 points, the segment 10,001
        n = 10**4
        diagonal = LatticePolytope.from_vertices([(0, 0, 0), (n, n, n)])
        points = diagonal.lattice_points()
        assert len(points) == n + 1
        assert points == [(x, x, x) for x in range(n + 1)]

    def test_many_points_refused_by_the_count(self):
        # the rank-3 simplex dilated by 400 holds C(403, 3) > 10^7 points
        simplex = dilated_simplex(400)
        assert comb(403, 3) > POINT_BUDGET
        start = time.perf_counter()
        with pytest.raises(UnsupportedGeometryError, match="enumeration past 10000000"):
            simplex.lattice_runs()
        assert time.perf_counter() - start < 1


class TestPairBudget:
    """The double description counts the candidate ray pairs of its splits
    and refuses a run past ``PAIR_BUDGET``.  Inputs with many constraint or
    generator subsets but little kernel work are answered."""

    def test_rank_six_cube_from_its_vertices(self):
        cube = LatticePolytope.from_vertices(list(itertools.product((0, 2), repeat=6)))
        units = [tuple(int(i == j) for j in range(6)) for i in range(6)]
        expected = [(e, 0) for e in units] + [(tuple(-x for x in e), 2) for e in units]
        assert sorted(cube.halfspaces) == sorted(expected)

    def test_thirty_halfspaces_in_rank_eight(self):
        rank = 8
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        hs = [(e, 0) for e in units]
        hs += [((-1, -t) + (-1,) * (rank - 2), 100 * t) for t in range(1, 23)]
        p = LatticePolytope.from_halfspaces(hs, rank)
        assert p.vertices == tuple(sorted([(0,) * rank] + [tuple(100 * x for x in e) for e in units]))

    def test_rank_eight_cross_polytope_from_its_halfspaces(self):
        hs = [(signs, 1) for signs in itertools.product((-1, 1), repeat=8)]
        p = LatticePolytope.from_halfspaces(hs, 8)
        units = [tuple(int(i == j) for j in range(8)) for i in range(8)]
        assert p.vertices == tuple(sorted(units + [tuple(-x for x in e) for e in units]))
        assert len(p.halfspaces) == 256

    def test_blow_up_refused_with_the_pair_count(self, monkeypatch):
        # the cyclic polytope on 40 points in rank 6 needs about 2.7e7 pairs;
        # each combination records the running count of the kernel run it is
        # part of, read in the split step that holds it, its own split's
        # pairs included, which must already be within the budget
        counts = []
        combine = polytope_module._combine
        steps = (polytope_module._dd_split.__code__, polytope_module._dd_extreme_rays.__code__)

        def counting(*args):
            frame = sys._getframe(1)
            while frame.f_code not in steps:
                frame = frame.f_back
            counts.append(frame.f_locals["pairs"])
            return combine(*args)

        monkeypatch.setattr(polytope_module, "_combine", counting)
        moment_curve = [tuple(t**i for i in range(1, 7)) for t in range(40)]
        with pytest.raises(UnsupportedGeometryError) as refused:
            LatticePolytope.from_vertices(moment_curve)
        found = re.fullmatch(r"double description over (\d+) candidate ray pairs", str(refused.value))
        assert found and int(found.group(1)) > PAIR_BUDGET
        assert counts and max(counts) <= PAIR_BUDGET
