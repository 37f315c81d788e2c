from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from toricdegen import (
    DualComplex,
    GeometryError,
    LatticePolytope,
    LiftingError,
    build_partition,
    build_report,
    family_equations,
    lift_polytope,
    lifting_function,
    local_charts,
    partition_by_hyperplanes,
)
from corpus import (
    chain_partition,
    dilated_simplex,
    expanded_degeneration_partition,
    lift_partitions,
    liftable_partitions,
    mildly_singular_triangle,
    octagon_partition,
    segment_partition,
    staircase_partition,
    torus_fan_partition,
)
import oracles
from oracles import (
    base_fan_is_subfan,
    chart_transitions_unimodular,
    fan_support_is_upper_halfspace,
)


@dataclass(frozen=True)
class LatticeSequence:
    """The two exact sequences relating the base and lifted lattices.

    ``include`` embeds the base lattice into the lifted one (extra coordinate
    last), ``project_height`` is the quotient onto that coordinate;
    ``include_height`` and ``project_base`` are the dual pair.
    """

    rank: int
    include: tuple  # (rank+1) x rank
    project_height: tuple  # 1 x (rank+1)
    include_height: tuple  # (rank+1) x 1
    project_base: tuple  # rank x (rank+1)

    def check_exact(self):
        """Return True, or raise ``GeometryError`` naming the first failed check."""
        if _matmul(self.project_height, self.include) != _zero(1, self.rank):
            raise GeometryError("height projection does not vanish on the base lattice")
        if _matmul(self.project_base, self.include_height) != _zero(self.rank, 1):
            raise GeometryError("base projection does not vanish on the height axis")
        if self.project_height[0][-1] != 1:
            raise GeometryError("height projection is not surjective")
        # the base projection hits every basis vector
        if any(self.project_base[i][i] != 1 for i in range(self.rank)):
            raise GeometryError("base projection is not surjective")
        return True


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _zero(r, c):
    return tuple(tuple(0 for _ in range(c)) for _ in range(r))


def build_sequences(rank: int) -> LatticeSequence:
    if rank < 1:
        raise GeometryError("rank must be positive")
    include = tuple(
        tuple(int(i == j) for j in range(rank)) for i in range(rank)
    ) + (tuple(0 for _ in range(rank)),)
    project_height = (tuple(0 for _ in range(rank)) + (1,),)
    include_height = tuple((0,) for _ in range(rank)) + ((1,),)
    project_base = tuple(
        tuple(int(i == j) for j in range(rank + 1)) for i in range(rank)
    )
    seq = LatticeSequence(rank, include, project_height, include_height, project_base)
    seq.check_exact()
    return seq


LIFTED = {name: (part, lifting, lifted) for name, part, lifting, lifted in liftable_partitions()}


class TestLatticeSequences:
    def test_rank_one_matrices(self):
        seq = build_sequences(1)
        assert seq.include == ((1,), (0,))
        assert seq.project_height == ((0, 1),)
        assert seq.include_height == ((0,), (1,))
        assert seq.project_base == ((1, 0),)

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_exactness(self, rank):
        assert build_sequences(rank).check_exact()

    def test_bad_rank(self):
        with pytest.raises(GeometryError):
            build_sequences(0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("include", ((1, 0), (0, 1), (0, 1)), "height projection does not vanish"),
            ("include_height", ((1,), (0,), (1,)), "base projection does not vanish"),
            ("project_height", ((0, 0, 2),), "height projection is not surjective"),
            ("project_base", ((1, 0, 0), (0, 2, 0)), "base projection is not surjective"),
        ],
    )
    def test_non_exact_sequence_raises(self, field, value, message):
        seq = replace(build_sequences(2), **{field: value})
        with pytest.raises(GeometryError, match=message):
            seq.check_exact()


class TestBuildReport:
    def test_staircase_three(self):
        lifted = LIFTED["staircase-3"][2]
        report = build_report(lifted)
        assert len(report.components) == 4
        assert report.component_classes == ((0, 1, 2, 3),)
        assert report.dual_graph.same_as(DualComplex.full_simplex(3))
        assert report.hypersurface_dual_graph.same_as(DualComplex.simplex_boundary(3))
        assert not report.weak

    def test_segment_chain_components_all_unit(self):
        part = segment_partition(0, 4, (1, 2, 3))
        lifted = lift_polytope(part, lifting_function(part))
        report = build_report(lifted)
        assert len(report.components) == 4
        assert report.component_classes == ((0, 1, 2, 3),)
        assert report.dual_graph.same_as(DualComplex.path(4))

    def test_chain_k2_component_classes(self):
        part = chain_partition(4, k=2)
        lifted = lift_polytope(part, lifting_function(part))
        report = build_report(lifted)
        assert report.component_classes == ((0, 3), (1, 2))

    def test_chain_k1_polarized_classes_all_distinct(self):
        # the pieces are abstractly related but carry different polarizations,
        # so as lattice polytopes they fall into distinct classes
        part = chain_partition(4, k=1)
        lifted = lift_polytope(part, lifting_function(part))
        report = build_report(lifted)
        assert report.component_classes == ((0,), (1,), (2,), (3,))

    def test_component_nonsingularity_flags(self):
        for name, (part, _, lifted) in LIFTED.items():
            report = build_report(lifted)
            for idx, piece, nonsingular, _ in report.components:
                assert nonsingular == part.pieces[idx].is_nonsingular(), name

    def test_weak_flag_for_mildly_singular(self):
        part = mildly_singular_triangle()
        lifted = lift_polytope(part, lifting_function(part))
        report = build_report(lifted)
        assert report.weak
        assert report.skipped_vertices == ((2, 0, 0),)

    def test_component_count_equals_piece_count(self):
        for name, (part, _, lifted) in LIFTED.items():
            report = build_report(lifted)
            assert len(report.components) == len(part.pieces), name
            assert report.dual_graph.same_as(part.dual_complex()), name


class TestLocalCharts:
    def test_torus_partition_single_chart(self):
        part = torus_fan_partition(2)
        lifted = lift_polytope(part, lifting_function(part))
        charts, skipped = local_charts(lifted)
        assert skipped == ()
        assert len(charts) == 1
        chart = charts[0]
        assert chart.vertex == (0, 0)
        assert chart.face_dim == 2
        assert chart.factor_count == 3  # t = x0 x1 x2

    def test_base_vertex_charts_have_one_factor(self):
        for name, (part, _, lifted) in LIFTED.items():
            if part.ambient.is_whole_space:
                continue
            charts, _ = local_charts(lifted, strict=False)
            base_vertices = set(part.ambient.vertices)
            for chart in charts:
                if chart.vertex in base_vertices:
                    assert chart.factor_count == 1, name

    def test_factor_count_is_face_dimension_plus_one(self):
        for name, (part, _, lifted) in LIFTED.items():
            charts, _ = local_charts(lifted, strict=False)
            for chart in charts:
                assert chart.factor_count == chart.face_dim + 1, name

    def test_interior_vertices_have_full_charts(self):
        part = staircase_partition(3)
        lifted = LIFTED["staircase-3"][2]
        charts, _ = local_charts(lifted)
        interior = [c for c in charts if c.vertex == (0, 0, 0)]
        assert interior and interior[0].factor_count == 4

    def test_two_face_vertex_of_staircase_three(self):
        lifted = LIFTED["staircase-3"][2]
        charts, _ = local_charts(lifted)
        assert any(c.face_dim == 2 and c.factor_count == 3 for c in charts)

    def test_singular_vertex_skipped_in_weak_case(self):
        part = mildly_singular_triangle()
        lifted = lift_polytope(part, lifting_function(part))
        charts, skipped = local_charts(lifted, strict=False)
        assert (2, 0, 0) in skipped
        assert all(c.vertex != (2, 0) for c in charts)

    def test_singular_vertex_with_a_zero_one_expansion_is_skipped(self):
        # (0, 1, 0) has edges (0, -1, 0), (2, -1, 0), (0, 0, 1) of index 2,
        # though the vertical vector is one of them
        triangle = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 1)])
        part = build_partition(triangle, [triangle])
        lifted = lift_polytope(part, lifting_function(part))
        assert lifted.singular_vertices == ((0, 1, 0),)
        charts, skipped = local_charts(lifted, strict=False)
        assert skipped == ((0, 1, 0),)
        assert sorted(c.lifted_vertex for c in charts) == [(0, 0, 0), (2, 0, 0)]
        with pytest.raises(LiftingError, match="singular vertex has no monomial chart") as err:
            local_charts(lifted)
        assert err.value.witness == (0, 1, 0)

    def test_chart_transitions(self):
        for name in ("staircase-2", "chain-4", "octagon"):
            assert chart_transitions_unimodular(LIFTED[name][2]), name


class TestFamilyEquations:
    def test_quartic_surface_chain(self):
        part = chain_partition(4)
        lifted = lift_polytope(part, lifting_function(part))
        fam = family_equations(lifted)
        assert len(fam.points) == 35
        zero = {fam.points[j] for j, e in enumerate(fam.exponents) if e == 0}
        assert zero == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert all(e > 0 for j, e in enumerate(fam.exponents) if fam.points[j] not in zero)
        assert fam.coefficients[0] == "a1"

    def test_trivial_partition_constant_family(self):
        from toricdegen import build_partition

        t = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2)])
        part = build_partition(t, [t])
        lifted = lift_polytope(part, lifting_function(part))
        fam = family_equations(lifted)
        assert set(fam.exponents) == {0}

    def test_unit_cut_exponents(self):
        part = segment_partition(0, 2, (1,))
        lifted = lift_polytope(part, lifting_function(part))
        fam = family_equations(lifted)
        assert fam.points == ((0,), (1,), (2,))
        assert fam.exponents == (0, 0, 1)

    def test_anchor_renormalization(self):
        part = chain_partition(3)
        lifted = lift_polytope(part, lifting_function(part))
        fam = family_equations(lifted, anchor=2)
        zero = {fam.points[j] for j, e in enumerate(fam.exponents) if e == 0}
        assert zero == {p for p in fam.points if part.pieces[2].contains(p)}
        assert min(fam.exponents) == 0

    def test_non_integral_renormalization_rejected(self):
        part = segment_partition(0, 2, (1,))
        lifting = lifting_function(part)
        halved = replace(lifting, function=lifting.function.scale(Fraction(1, 2)))
        lifted = replace(lift_polytope(part, lifting), lifting=halved)
        with pytest.raises(LiftingError, match="not integral") as info:
            family_equations(lifted, anchor=0)
        assert info.value.witness == 0

    def test_component_supports(self):
        part = segment_partition(0, 2, (1,))
        lifted = lift_polytope(part, lifting_function(part))
        fam = family_equations(lifted)
        assert fam.supports == ((0, 1), (1, 2))

    @pytest.mark.parametrize("name", sorted(LIFTED))
    def test_matches_per_point_oracle(self, name):
        # oracle: the value of the renormalized function at every base point,
        # and the support of every piece by a containment test per point
        part, lifting, lifted = LIFTED[name]
        func = lifting.function
        points = part.ambient.lattice_points()
        for anchor in range(len(part.pieces)):
            shifted = func.subtract_affine(func.piece_function(anchor))
            exponents = tuple(int(shifted.value(p)) for p in points)
            supports = tuple(
                tuple(j for j, p in enumerate(points) if piece.contains(p))
                for piece in part.pieces
            )
            if not shifted.is_integral() or min(exponents) < 0:
                with pytest.raises(LiftingError):
                    family_equations(lifted, anchor=anchor)
                continue
            fam = family_equations(lifted, anchor=anchor)
            assert fam.points == tuple(points), name
            assert fam.exponents == exponents, (name, anchor)
            assert fam.supports == supports, (name, anchor)

    def test_seeded_coefficients_deterministic(self):
        part = segment_partition(0, 2, (1,))
        lifted = lift_polytope(part, lifting_function(part))
        a = family_equations(lifted, seed=7)
        b = family_equations(lifted, seed=7)
        assert a.coefficients == b.coefficients
        assert all(isinstance(c, Fraction) for c in a.coefficients)

    def test_unbounded_base_rejected(self):
        part = expanded_degeneration_partition(2)
        lifted = lift_polytope(part, lifting_function(part))
        with pytest.raises(GeometryError, match="compact"):
            family_equations(lifted)


OCTAGON = [(0, 2), (1, 1), (3, 1), (4, 2), (4, 3), (3, 4), (1, 4), (0, 3)]


@lru_cache(maxsize=None)
def _cut_partition(vertices, cuts):
    """The hull of ``vertices`` cut by ``cuts``, or None when they give no
    partition."""
    try:
        return partition_by_hyperplanes(LatticePolytope.from_vertices(vertices), list(cuts))
    except GeometryError:
        return None


@lru_cache(maxsize=None)
def _lifted(part):
    """The lifted polytope of a partition, or None when it has none."""
    try:
        return lift_polytope(part, lifting_function(part))
    except GeometryError:
        return None


@st.composite
def family_partitions(draw):
    """Partitions whose family the runs read: dilated triangles and octagons
    under parallel cuts, among them cuts x = c whose walls are parallel to
    the last axis (a whole run lies on the wall), rank-3 chains, staircases
    2 to 4, and lower-dimensional one-piece bases."""
    kind = draw(st.sampled_from(["triangle", "octagon", "chain", "staircase", "flat"]))
    if kind == "staircase":
        return staircase_partition(draw(st.integers(2, 4)))
    if kind == "chain":
        d = draw(st.integers(2, 4))
        normal = draw(st.sampled_from([(1, 1, 1), (1, 0, 0), (1, 1, 0), (0, 0, 1)]))
        levels = draw(st.sets(st.integers(1, d - 1), min_size=1))
        return partition_by_hyperplanes(dilated_simplex(d), [(normal, c) for c in sorted(levels)])
    if kind == "flat":
        k = draw(st.integers(1, 3))
        verts = draw(
            st.sampled_from(
                [
                    [(0, 0, 0), (k, 0, 0), (0, k, 0)],
                    [(0, 0, 0), (k, 0, k), (0, k, 0)],
                    [(0, 0), (k, k)],
                    [(1, 0), (1, k)],
                ]
            )
        )
        piece = LatticePolytope.from_vertices(verts)
        return build_partition(piece, [piece])
    if kind == "triangle":
        k = draw(st.integers(2, 5))
        verts = ((0, 0), (k, 0), (0, k))
    else:
        verts = tuple(OCTAGON)
    normal = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]))
    levels = draw(st.sets(st.integers(-1, 5), min_size=1, max_size=3))
    return _cut_partition(verts, tuple((normal, c) for c in sorted(levels)))


def _outcome(make):
    """A family, or the class, message and witness of the error it raises."""
    try:
        return make()
    except (GeometryError, LiftingError) as err:
        return type(err), str(err), getattr(err, "witness", None)


def _assert_same_family(part, k):
    lifted = part and _lifted(part)
    if lifted is None:
        event("no lift")
        return
    event("family" if part.ambient.is_compact else "no family: an unbounded base")
    lifting = lifted.lifting
    lifted = replace(lifted, lifting=replace(lifting, function=lifting.function.scale(k)))
    for anchor in range(-1, len(part.pieces) + 1):
        for seed in (None, 5):
            got = _outcome(lambda: family_equations(lifted, anchor=anchor, seed=seed))
            expected = _outcome(lambda: oracles.family_equations(lifted, anchor=anchor, seed=seed))
            assert got == expected, (anchor, seed)


class TestFamilyAgainstPerPointOracle:
    """The family read off the runs against one index lookup and one
    ``divmod`` per point: points, exponents, supports, coefficients and
    errors, for every anchor, with and without a seed, also for the lifting
    function scaled by 1/2 or 1/3, whose renormalization may not be
    integral."""

    @given(family_partitions(), st.sampled_from([1, Fraction(1, 2), Fraction(1, 3)]))
    @settings(max_examples=80, deadline=None)
    @example(staircase_partition(3), 1)
    @example(_cut_partition(((0, 0), (4, 0), (0, 4)), (((1, 0), 1), ((1, 0), 2))), 1)
    @example(_cut_partition(((0, 0), (4, 0), (0, 4)), (((1, 0), 1), ((1, 0), 2))), Fraction(1, 2))
    def test_same_family_for_every_anchor(self, part, k):
        _assert_same_family(part, k)

    @given(lift_partitions(), st.sampled_from([1, Fraction(1, 2)]))
    @settings(max_examples=80, deadline=None)
    def test_generated_lifts(self, part, k):
        # torus fans and uncapped intermediates have no family: both refuse
        _assert_same_family(part, k)

    def test_a_whole_run_on_a_wall(self):
        # the cut x = 1 of the triangle: the column over x = 1 lies on the
        # wall, and the first piece holding it gives its exponents
        part = _cut_partition(((0, 0), (3, 0), (0, 3)), (((1, 0), 1),))
        lifted = _lifted(part)
        fam = family_equations(lifted)
        assert fam == oracles.family_equations(lifted)
        wall = [j for j, p in enumerate(fam.points) if p[0] == 1]
        assert len(wall) == 3
        assert all(j in fam.supports[0] and j in fam.supports[1] for j in wall)


class TestFanInvariants:
    def test_base_fan_is_subfan(self):
        for name in ("staircase-2", "staircase-3", "chain-4", "octagon"):
            assert base_fan_is_subfan(LIFTED[name][2]), name

    def test_support_is_upper_halfspace(self):
        for name in ("staircase-2", "staircase-3", "chain-4", "chain-4-k2", "octagon"):
            assert fan_support_is_upper_halfspace(LIFTED[name][2]), name

    def test_support_check_requires_open_compact_lift(self):
        part = staircase_partition(2)
        capped = lift_polytope(part, lifting_function(part), compact_cap=True)
        with pytest.raises(GeometryError):
            fan_support_is_upper_halfspace(capped)


class TestNoncompactFanContainment:
    def test_expanded_degeneration_subfan(self):
        part = expanded_degeneration_partition(2)
        lifted = lift_polytope(part, lifting_function(part))
        assert base_fan_is_subfan(lifted)
