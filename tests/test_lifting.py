from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from toricdegen import (
    AffineFunction,
    GeometryError,
    LatticePolytope,
    LiftingError,
    PiecewiseAffine,
    build_partition,
    check_cocycle,
    complete_fan_from_rays,
    concavity,
    concavity_profile,
    extend_support_function,
    family_equations,
    integrate_cocycle,
    iterated_lift,
    lift_polytope,
    lifting_function,
    minimal_integral_lifting,
    normal_fan,
    partition_by_hyperplanes,
    partition_from_fan,
    wall_functions,
    SupportFunction,
)
from toricdegen import IntegralLifting
from toricdegen import lifting as lifting_module
from toricdegen import polytope as polytope_module
from toricdegen.exactmath import vdot
from toricdegen.lifting import WallCochain, _graph_facet_mismatch, _verify_lifts

import oracles

from corpus import (
    accepted_partitions,
    chain_partition,
    dilated_simplex,
    expanded_degeneration_partition,
    lift_partitions,
    liftable_partitions,
    mildly_singular_triangle,
    octagon_partition,
    pentagon_corner_fan,
    segment,
    segment_partition,
    staircase_partition,
    torus_fan_partition,
    triptych,
)

LIFTED = {name: (part, lifting, lifted) for name, part, lifting, lifted in liftable_partitions()}


class TestWallFunctions:
    def test_unit_cut_of_segment(self):
        part = segment_partition(0, 2, (1,))
        alpha = wall_functions(part)
        f = alpha[(0, 1)]
        assert f.linear == (1,) and f.constant == -1  # x - 1

    def test_staircase_two_wall_through_origin(self):
        part = staircase_partition(2)
        alpha = wall_functions(part)
        # each wall function vanishes on its wall and has unit increment at
        # the origin in the transverse direction; the wall along the second
        # fan ray lies on {x_1 = 0}
        values = {tuple(map(abs, f.linear)) for (i, j), f in alpha.functions.items() if i < j}
        assert (1, 0) in values or (0, 1) in values

    def test_chain_walls_are_level_functions(self):
        part = chain_partition(4)
        alpha = wall_functions(part)
        for j in range(3):
            f = alpha[(j, j + 1)]
            assert f.linear == (1, 1, 1) and f.constant == -(j + 1)

    def test_antisymmetry(self):
        for name, (part, _, _) in LIFTED.items():
            alpha = wall_functions(part)
            for (i, j) in alpha.pairs():
                assert alpha[(j, i)] == -alpha[(i, j)], name

    def test_wall_functions_vanish_on_their_wall(self):
        for name, (part, _, _) in LIFTED.items():
            alpha = wall_functions(part)
            for wall in part.walls():
                i, j = sorted(wall.pieces)
                f = alpha[(i, j)]
                assert all(f(v) == 0 for v in wall.vertices), name
                assert all(f.directional(r) == 0 for r in wall.rays), name


class TestCocycle:
    def test_one_dimensional_dual_complex_vacuous(self):
        part = chain_partition(4)
        ok, witness = check_cocycle(wall_functions(part), part.dual_complex())
        assert ok and witness is None

    def test_staircase_partitions_close(self):
        for n in (2, 3):
            part = staircase_partition(n)
            ok, _ = check_cocycle(wall_functions(part), part.dual_complex())
            assert ok

    def test_perturbed_cochain_fails_with_witness(self):
        part = staircase_partition(2)
        alpha = wall_functions(part)
        functions = dict(alpha.functions)
        (i, j) = alpha.pairs()[0]
        bump = AffineFunction.make((0, 0), 1)
        functions[(i, j)] = functions[(i, j)] + bump
        functions[(j, i)] = -functions[(i, j)]
        broken = WallCochain(functions, alpha.base_vertices)
        ok, witness = check_cocycle(broken, part.dual_complex())
        assert not ok and witness is not None


class TestIntegration:
    def test_unit_cut_of_segment(self):
        part = segment_partition(0, 2, (1,))
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        assert func.per_piece[0] == AffineFunction.make((0,), 0)
        assert func.per_piece[1] == AffineFunction.make((1,), -1)

    def test_chain_telescopes(self):
        part = chain_partition(4)
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        for j, f in enumerate(func.per_piece):
            assert f.linear == (j, j, j)
            assert f.constant == -sum(range(1, j + 1))

    def test_alternative_tree_gives_same_function(self):
        # integrating along 0-1-2 instead of 0-1, 0-2 uses the cocycle
        # identity, so the result is forced to agree
        part = staircase_partition(2)
        alpha = wall_functions(part)
        func = integrate_cocycle(alpha, part.dual_complex(), part)
        via_one = alpha[(0, 1)] + alpha[(1, 2)]
        assert func.per_piece[2] == func.per_piece[0] + via_one

    def test_different_roots_differ_by_a_global_affine_function(self):
        for name, (part, _, _) in LIFTED.items():
            alpha = wall_functions(part)
            dual = part.dual_complex()
            f0 = integrate_cocycle(alpha, dual, part, root=0)
            f1 = integrate_cocycle(alpha, dual, part, root=len(part.pieces) - 1)
            assert f0.difference(f1).is_global_affine(), name

    def test_continuity(self):
        for name, (part, lifting, _) in LIFTED.items():
            assert lifting.function.is_continuous(), name


class TestIntegrationGuards:
    """``integrate_cocycle``'s guards on hand-built cochains."""

    def test_missing_wall_leaves_the_dual_complex_disconnected(self):
        part = segment_partition(0, 2, (1,))
        with pytest.raises(LiftingError, match="dual complex is not connected"):
            integrate_cocycle(WallCochain({}, {}), part.dual_complex(), part)

    def test_inconsistent_cycle_names_its_non_tree_wall(self):
        # the tree runs 0-1 and 0-2; raising f_12 by 1 breaks the cycle
        part = staircase_partition(2)
        alpha = wall_functions(part)
        functions = dict(alpha.functions)
        functions[(1, 2)] = alpha[(1, 2)] + AffineFunction.make((0, 0), 1)
        functions[(2, 1)] = -functions[(1, 2)]
        with pytest.raises(LiftingError, match="cocycle integration failed") as raised:
            integrate_cocycle(WallCochain(functions, alpha.base_vertices), part.dual_complex(), part)
        assert raised.value.witness == (1, 2)

    def test_function_not_vanishing_on_its_wall(self):
        # f_01 = x is 1 on the wall x = 1
        part = segment_partition(0, 2, (1,))
        x = AffineFunction.make((1,), 0)
        alpha = WallCochain({(0, 1): x, (1, 0): -x}, {frozenset((0, 1)): (1,)})
        with pytest.raises(LiftingError, match="integrated function is not continuous"):
            integrate_cocycle(alpha, part.dual_complex(), part)


class TestConcavity:
    def test_affine_function_has_zero_concavity(self):
        part = segment_partition(0, 2, (1,))
        affine = PiecewiseAffine(part, (AffineFunction.make((2,), 1),) * 2, 0)
        assert concavity(affine, (1,)) == 0

    def test_unit_cut_value(self):
        part = segment_partition(0, 2, (1,))
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        assert concavity(func, (1,)) == 1

    def test_linearity(self):
        part = segment_partition(0, 2, (1,))
        f = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        g = PiecewiseAffine(part, (AffineFunction.make((1,), 2),) * 2, 0)
        combo = PiecewiseAffine(
            part,
            tuple(a.scale(3) + b.scale(-2) for a, b in zip(f.per_piece, g.per_piece)),
            0,
        )
        p = (1,)
        assert concavity(combo, p) == 3 * concavity(f, p) - 2 * concavity(g, p)

    def test_undefined_at_ambient_vertices(self):
        part = segment_partition(0, 2, (1,))
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        with pytest.raises(LiftingError, match="vertices"):
            concavity(func, (0,))

    def test_positive_on_integrated_cocycles(self):
        for name, (part, lifting, _) in LIFTED.items():
            assert all(c > 0 for c in lifting.concavities.values()), name


class TestMinimalIntegralScaling:
    def test_already_integral(self):
        part = segment_partition(0, 2, (1,))
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        result = minimal_integral_lifting(func)
        assert result.scale == 1 and result.unit_concavity

    def test_halved_function_needs_two(self):
        part = segment_partition(0, 2, (1,))
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        result = minimal_integral_lifting(func.scale(Fraction(1, 2)))
        assert result.scale == 2

    def test_scale_matches_brute_force_over_lattice_points(self):
        # independent oracle: lcm of denominators over gcd of scaled values
        for name, (part, lifting, _) in LIFTED.items():
            if not part.ambient.is_compact:
                continue
            raw = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
            values = [raw.value(p) for p in part.ambient.lattice_points()]
            denoms = 1
            for v in values:
                denoms = denoms * v.denominator // gcd(denoms, v.denominator)
            nums = 0
            for v in values:
                nums = gcd(nums, int(v * denoms))
            expected = Fraction(denoms, nums) if nums else Fraction(1)
            assert minimal_integral_lifting(raw).scale == expected, name
            # minimality: no proper divisor scaling stays integral
            for k in (2, 3, 5):
                smaller = raw.scale(expected / k)
                assert not smaller.is_integral(), name

    def test_balanced_rescaling_matches_per_candidate_oracle(self):
        # oracle: the balanced-branch scale from per-point Fraction samples;
        # the triangle cuts reach that branch with constant concavity 2 and 3
        t = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2)])
        parts = [part for _, (part, _, _) in sorted(LIFTED.items())] + [
            partition_by_hyperplanes(t, [((2, 1), 2)]),
            partition_by_hyperplanes(t, [((1, -2), 0)]),
        ]
        for part in parts:
            raw = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
            balanced = part.classify()["balanced"]
            for k in (1, Fraction(1, 2), 3):
                func = raw.scale(k)
                scale = oracles.lifting_scale(func, concavity_profile(func), balanced)
                result = minimal_integral_lifting(func)
                assert result.scale == scale
                assert result.function.per_piece == func.scale(scale).per_piece

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 3)])
    def test_balanced_rescale_to_unit_concavity(self, n, k):
        # n cuts of [0, 1] at i / (n + 1): unit concavity at every rational
        # vertex and F(1) = n / 2, so the minimal integral scale 2 / n leaves
        # concavity 1 / k, and k times that scale is integral again
        cuts = [((1,), Fraction(i, n + 1)) for i in range(1, n + 1)]
        part = partition_by_hyperplanes(segment(0, 1), cuts)
        raw = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        profile = concavity_profile(raw)
        assert part.classify()["balanced"] and set(profile.values()) == {1}
        result = minimal_integral_lifting(raw)
        assert result.scale == oracles.lifting_scale(raw, profile, True)
        assert result.scale == k * raw.minimal_integral_scale() == 1
        assert result.unit_concavity and set(result.concavities.values()) == {1}
        assert result.function.per_piece == raw.scale(result.scale).per_piece

    def test_nonconcave_rejected(self):
        part = segment_partition(0, 2, (1,))
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        with pytest.raises(LiftingError, match="not a lifting function"):
            minimal_integral_lifting(func.scale(-1))

    def test_mildly_singular_profile_not_rescalable(self):
        lifting = lifting_function(mildly_singular_triangle())
        assert set(lifting.concavities.values()) == {Fraction(1), Fraction(2)}
        assert not lifting.unit_concavity
        assert lifting.function.is_integral()


RATIONALS = st.sampled_from(
    [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 6)]
)
OCTAGON = LatticePolytope.from_vertices(
    [(0, 2), (1, 1), (3, 1), (4, 2), (4, 3), (3, 4), (1, 4), (0, 3)]
)
QUADRANT = LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
# no vertex of it is smooth: its edge pairs have determinant 3
_NO_SMOOTH_VERTEX = LatticePolytope.from_vertices([(0, 0), (2, 1), (1, 2)])


@st.composite
def cut_partitions(draw):
    """Dilated triangles, octagons and the (unbounded) quadrant under 1-2
    random cuts, and dilated 3-simplices under random parallel cuts (chains);
    None when the cuts give no valid partition."""
    kind = draw(st.sampled_from(["triangle", "octagon", "quadrant", "chain"]))
    if kind == "chain":
        d = draw(st.integers(2, 4))
        ambient = dilated_simplex(d)
        normal = draw(st.sampled_from([(1, 1, 1), (1, 0, 0), (1, 1, 0)]))
        levels = draw(st.sets(st.integers(1, d - 1), min_size=1))
        cuts = [(normal, c) for c in sorted(levels)]
    else:
        if kind == "triangle":
            k = draw(st.integers(1, 4))
            ambient = LatticePolytope.from_vertices([(0, 0), (k, 0), (0, k)])
        else:
            ambient = OCTAGON if kind == "octagon" else QUADRANT
        normal = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
        cuts = draw(st.lists(st.tuples(normal, st.integers(-1, 4)), min_size=1, max_size=2))
    try:
        return partition_by_hyperplanes(ambient, cuts)
    except GeometryError:
        return None


_SQUARE = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)])


class TestWallFunctionsAgainstElimination:
    """The wall normals read off the facets the pieces store against the
    elimination over each wall's edge directions that they replaced
    (``oracles.wall_functions``), wall by wall at the same anchor."""

    @staticmethod
    def _assert_matches_oracle(part):
        alpha = wall_functions(part)
        got = {k: (f.linear, f.constant) for k, f in alpha.functions.items() if k[0] < k[1]}
        assert got == oracles.wall_functions(part, alpha.base_vertices)

    @pytest.mark.parametrize("name", sorted(LIFTED))
    def test_corpus(self, name):
        self._assert_matches_oracle(LIFTED[name][0])

    @given(cut_partitions())
    @settings(max_examples=80, deadline=None)
    @example(partition_by_hyperplanes(_SQUARE, [((1, -1), 0)]))  # anchored at base vertices
    @example(partition_by_hyperplanes(_SQUARE, [((2, 2), 2), ((0, 3), 3)]))
    @example(partition_by_hyperplanes(QUADRANT, [((1, -1), 0), ((1, 1), 3)]))
    @example(pentagon_corner_fan())  # anchored at a base vertex of three pieces
    @example(partition_from_fan(  # anchored where the star's weights are (1, 2, 1)
        LatticePolytope.from_vertices([(-2, -2), (2, -2), (-2, 2), (2, 2)]),
        complete_fan_from_rays([(-1, -1), (0, 1), (1, -1)]),
    ))
    def test_hyperplane_partitions(self, part):
        if part is None:
            event("no partition")
            return
        try:
            wall_functions(part)
        except LiftingError:
            event("not liftable")
            return
        self._assert_matches_oracle(part)


def assert_scale_matches_oracle(func):
    samples = oracles.value_samples(func)
    assert func.minimal_integral_scale() == oracles.minimal_integral_scale(samples)
    assert func.is_integral() == all(s.denominator == 1 for s in samples)


class TestIntegerLiftingAgainstOracles:
    """The gcd with a floor against the per-point ``Fraction`` samples."""

    @given(cut_partitions(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_scale_and_integrality_match(self, part, data):
        if part is None:
            return
        rank = part.ambient.ambient_rank
        vec = st.lists(RATIONALS, min_size=rank, max_size=rank)
        funcs = [
            PiecewiseAffine(part, (AffineFunction.zero(rank),) * len(part.pieces), 0),
            PiecewiseAffine(
                part,
                tuple(AffineFunction.make(data.draw(vec), data.draw(RATIONALS)) for _ in part.pieces),
                0,
            ),
        ]
        try:
            funcs.append(integrate_cocycle(wall_functions(part), part.dual_complex(), part))
        except GeometryError:
            pass
        k = data.draw(st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 6]))
        for func in funcs:
            assert_scale_matches_oracle(func)
            assert_scale_matches_oracle(func.scale(k))

    @given(cut_partitions(), st.sampled_from([1, Fraction(1, 2), Fraction(2, 3), 3]))
    @settings(max_examples=60, deadline=None)
    @example(chain_partition(4), Fraction(1, 2))
    @example(octagon_partition(), 1)
    def test_lifting_and_family_match(self, part, k):
        # the balanced-branch scale of minimal_integral_lifting, then the
        # family exponents for every anchor piece
        if part is None:
            return
        try:
            raw = integrate_cocycle(wall_functions(part), part.dual_complex(), part).scale(k)
            result = minimal_integral_lifting(raw)
        except GeometryError:
            return
        flags = part.classify()
        expected = oracles.lifting_scale(raw, concavity_profile(raw), flags["balanced"])
        assert result.scale == expected
        assert result.function.per_piece == raw.scale(expected).per_piece
        if not part.ambient.is_compact:
            return
        try:
            lifted = lift_polytope(part, result)
        except GeometryError:
            return
        for anchor in range(len(part.pieces)):
            exponents = oracles.family_exponents(result.function, anchor)
            if exponents is None or min(exponents) < 0:
                with pytest.raises(LiftingError):
                    family_equations(lifted, anchor=anchor)
            else:
                assert family_equations(lifted, anchor=anchor).exponents == exponents

    def test_floor_not_reached_on_a_proper_sublattice(self):
        # the Reeve tetrahedron: its only lattice points are its vertices,
        # whose differences span the index-2 sublattice {z even}, so the
        # gcd of z over them is 2 while gcd(a..., <a, p0> + b) is 1
        reeve = LatticePolytope.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
        assert len(reeve.lattice_points()) == 4
        part = build_partition(reeve, [reeve])
        for linear, constant in [
            ((0, 0, 1), 0),
            ((0, 0, 1), 4),
            ((0, 0, Fraction(1, 3)), Fraction(2, 3)),
            ((2, 0, 1), 0),
        ]:
            assert_scale_matches_oracle(
                PiecewiseAffine(part, (AffineFunction.make(linear, constant),), 0)
            )
        z = PiecewiseAffine(part, (AffineFunction.make((0, 0, 1)),), 0)
        assert z.value_generator() == 2 and z.minimal_integral_scale() == Fraction(1, 2)

    def test_unbounded_pieces_are_truncated_without_a_box_polytope(self):
        part = partition_by_hyperplanes(QUADRANT, [((1, -1), 0), ((1, 1), 3)])
        assert not all(piece.is_compact for piece in part.pieces)
        func = PiecewiseAffine(
            part, tuple(AffineFunction.make((Fraction(i, 2), 1), 1) for i in range(len(part.pieces))), 0
        )
        expected = oracles.minimal_integral_scale(oracles.value_samples(func))
        with mock.patch.object(LatticePolytope, "bounding_box_polytope", side_effect=AssertionError):
            assert func.minimal_integral_scale() == expected

    def test_ray_slopes_are_not_redundant_with_the_truncation(self):
        # the wedge (1/2, 1/3) + cone((1, 0), (100, 1)) under f = 2y + 1: its
        # one-step truncation holds only points at y = 1, with values in 3Z,
        # but (168, 2) has value 5; only the slope 2 along (100, 1) brings the
        # generator down to 1
        wedge = LatticePolytope.from_generators(
            [(Fraction(1, 2), Fraction(1, 3))], [(1, 0), (100, 1)]
        )
        part = build_partition(wedge, [wedge])
        piece = part.pieces[0]
        f = AffineFunction.make((0, 2), 1)
        truncated = piece.intersect(piece.box_halfspaces(1)).lattice_points()
        assert len(truncated) == 35 and {p[1] for p in truncated} == {1}
        assert {f(p) for p in truncated} == {3}
        assert wedge.contains((168, 2)) and f((168, 2)) == 5
        assert sorted(f.directional(r) for r in piece.rays) == [0, 2]
        assert PiecewiseAffine(part, (f,), 0).value_generator() == 1

    def test_zero_function(self):
        part = octagon_partition()
        zero = PiecewiseAffine(part, (AffineFunction.zero(2),) * len(part.pieces), 0)
        assert zero.value_generator() == 0
        assert zero.minimal_integral_scale() == 1 and zero.is_integral()


def _smooth_lattice_vertex(piece):
    return piece.is_lattice and any(piece.is_nonsingular_at(v) for v in piece.vertices)


class TestValueGeneratorAgainstOracles:
    """The value generator, read off a smooth lattice vertex of each piece
    that has one and scanned for any other, against the per-point
    ``Fraction`` samples (``oracles.value_samples``), for the lifting
    function and for arbitrary rational functions per piece; only the
    pieces without a smooth lattice vertex are scanned."""

    @staticmethod
    def _assert_matches(part, funcs):
        smooth = {id(p) for p in part.pieces if _smooth_lattice_vertex(p)}
        scanned = []
        scan = lifting_module._scanned_gcd

        def spy(piece, f):
            scanned.append(id(piece))
            return scan(piece, f)

        with mock.patch.object(lifting_module, "_scanned_gcd", side_effect=spy):
            for func in funcs:
                assert_scale_matches_oracle(func)
        assert not smooth & set(scanned)
        return len(smooth) == len(part.pieces)

    @given(lift_partitions(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_generated_partitions(self, part, data):
        if part is None:
            event("no partition")
            return
        rank = part.ambient.ambient_rank
        vec = st.lists(RATIONALS, min_size=rank, max_size=rank)
        funcs = [
            PiecewiseAffine(
                part,
                tuple(AffineFunction.make(data.draw(vec), data.draw(RATIONALS)) for _ in part.pieces),
                0,
            )
        ]
        try:
            funcs.append(lifting_function(part).function)
        except GeometryError:
            pass
        k = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), 6]))
        smooth = self._assert_matches(part, funcs + [func.scale(k) for func in funcs])
        event("every piece smooth" if smooth else "a piece scanned")

    @pytest.mark.parametrize(
        "part",
        [
            torus_fan_partition(2),
            torus_fan_partition(3),
            partition_by_hyperplanes(
                LatticePolytope.from_vertices([(0, 0, 0), (4, 0, 0), (0, 4, 0)]), [((1, 1, 0), 2)]
            ),
            iterated_lift(dilated_simplex(3, rank=2), (1, 0), [1, 2]).intermediates[1].base,
            build_partition(_NO_SMOOTH_VERTEX, [_NO_SMOOTH_VERTEX]),
            partition_by_hyperplanes(_NO_SMOOTH_VERTEX, [((1, -1), 0)]),
            partition_by_hyperplanes(OCTAGON, [((2, 1), 5)]),
        ],
        ids=["torus-2", "torus-3", "flat-x+y=2", "intermediate", "no-smooth", "no-smooth-cut", "rational"],
    )
    def test_fixed_partitions(self, part):
        rest = [Fraction(1, 3)] * (part.ambient.ambient_rank - 1)
        per_piece = [
            AffineFunction.make([Fraction(i + 1, 2), *rest], Fraction(i, 3))
            for i in range(len(part.pieces))
        ]
        funcs = [PiecewiseAffine(part, tuple(per_piece), 0)]
        try:
            funcs.append(lifting_function(part).function)
        except GeometryError:
            pass
        self._assert_matches(part, funcs)

    def test_the_fallback_runs_where_there_is_no_smooth_lattice_vertex(self):
        no_smooth = build_partition(_NO_SMOOTH_VERTEX, [_NO_SMOOTH_VERTEX])
        rational = partition_by_hyperplanes(OCTAGON, [((2, 1), 5)])
        assert not _smooth_lattice_vertex(no_smooth.pieces[0])
        assert not all(p.is_lattice for p in rational.pieces)
        for part in (no_smooth, rational):
            func = PiecewiseAffine(part, (AffineFunction.make((1, 0)),) * len(part.pieces), 0)
            scan = lifting_module._scanned_gcd
            with mock.patch.object(lifting_module, "_scanned_gcd", wraps=scan) as spy:
                func.value_generator()
            assert spy.called

    def test_a_smooth_unbounded_piece_is_cut_by_no_box(self):
        part = torus_fan_partition(3)
        func = PiecewiseAffine(part, (AffineFunction.make((1, 2, 3), 1),) * len(part.pieces), 0)
        with mock.patch.object(LatticePolytope, "intersect", side_effect=AssertionError("box")):
            assert func.value_generator() == 1


class TestLiftPolytope:
    def test_segment_lift(self):
        part, lifting, lifted = LIFTED["segment-0-3-cut-1-2"]
        assert set(lifted.polytope.rays) == {(0, 1)}
        assert lifted.nonsingular

    def test_unit_cut_lift_vertices(self):
        part = segment_partition(0, 2, (1,))
        lifted = lift_polytope(part, lifting_function(part))
        assert set(lifted.polytope.vertices) == {(0, 0), (1, 0), (2, 1)}
        assert lifted.nonsingular

    def test_graph_facet_per_piece(self):
        for name, (part, lifting, lifted) in LIFTED.items():
            piece_count = len(part.pieces)
            graph_facets = [
                f for f in oracles.graph_faces(lifted) if f.dim == lifted.rank - 1
            ]
            assert len(graph_facets) == piece_count, name

    def test_lift_map_is_a_bijection_onto_graph_faces(self):
        for name, (part, _, lifted) in LIFTED.items():
            keys = set(part.face_index)
            assert set(lifted.lift_map) == keys, name
            images = {f.key for f in lifted.lift_map.values()}
            assert len(images) == len(keys), name
            base_vertex_lifts = {
                f.key
                for f in oracles.graph_faces(lifted)
                if f.dim == 0 and f.vertices[0][:-1] in set(part.ambient.vertices)
            }
            all_graph = {f.key for f in oracles.graph_faces(lifted)}
            assert images | base_vertex_lifts == all_graph, name

    def test_edge_sums_hit_the_vertical_unit(self):
        for name, (part, lifting, lifted) in LIFTED.items():
            if not lifting.unit_concavity:
                continue
            vertical = tuple([0] * (lifted.rank - 1) + [1])
            for vf in part.faces(0):
                assert lifted.edge_sum(vf.vertices[0]) == vertical, name

    def test_nonsingular_when_promised(self):
        for name, (part, lifting, lifted) in LIFTED.items():
            flags = part.classify()
            if flags["nonsingular"] and lifting.unit_concavity and part.ambient.is_nonsingular():
                assert lifted.nonsingular, name

    def test_weak_case_reports_singular_vertices(self):
        part = mildly_singular_triangle()
        lifted = lift_polytope(part, lifting_function(part))
        assert lifted.simplicial
        assert not lifted.nonsingular
        assert lifted.singular_vertices == ((2, 0, 0),)

    def test_compact_cap_default(self):
        part = staircase_partition(2)
        lifted = lift_polytope(part, lifting_function(part), compact_cap=True)
        assert lifted.polytope.is_compact
        a, b = lifted.cap
        func = lifted.lifting.function
        assert all(func.value(v) < b for v in part.ambient.vertices)
        # the cap facet is a copy of the base polytope
        cap_shadow = {v[:-1] for v in lifted.cap_vertices()}
        assert cap_shadow == set(part.ambient.vertices)

    def test_cap_on_unbounded_base_rejected(self):
        part = expanded_degeneration_partition(2)
        with pytest.raises(LiftingError, match="compact"):
            lift_polytope(part, lifting_function(part), compact_cap=True)

    def test_expanded_degeneration_polytope(self):
        part = expanded_degeneration_partition(3)
        lifted = lift_polytope(part, lifting_function(part))
        assert set(lifted.polytope.vertices) == {(0, 0), (1, 1), (2, 3), (3, 6)}
        assert set(lifted.polytope.rays) == {(-1, 0), (1, 4)}
        assert lifted.nonsingular

    def test_torus_partition_lift_is_a_cone(self):
        part = torus_fan_partition(2)
        lifted = lift_polytope(part, lifting_function(part))
        assert lifted.polytope.vertices == ((0, 0, 0),)
        assert lifted.nonsingular


def _shadow_key_is_base_face(base, face):
    """Brute-force oracle: build the shadow polyhedron and look up its key."""
    pts = [v[:-1] for v in face.vertices]
    rays = [r[:-1] for r in face.rays if any(r[:-1])]
    shadow = LatticePolytope.from_generators(pts, rays)
    return (shadow.vertices, shadow.rays) in {f.key for f in base.faces()}


def _unbounded_lifts():
    quadrant = LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
    part = partition_by_hyperplanes(quadrant, [((1, 0), 1), ((1, 0), 2)])
    # a cone over the quadrant whose rays project to non-primitive vectors
    sheared = LatticePolytope.from_generators([(0, 0, 0)], [(2, 0, 1), (0, 1, 0), (0, 0, 1)])
    return {
        "quadrant-cuts": (quadrant, lift_polytope(part, lifting_function(part)).polytope),
        "sheared-cone": (quadrant, sheared),
    }


class TestVerifyProjections:
    """The projection check of the old full walk, kept as a test oracle
    (``oracles.verify_projections``) since ``_verify_lifts`` proves it."""

    def test_subset_test_matches_shadow_oracle(self):
        # graph faces too: their shadows are partition faces, often not base faces
        cases = {name: (part.ambient, lifted.polytope) for name, (part, _, lifted) in LIFTED.items()}
        cases.update(_unbounded_lifts())
        verdicts = set()
        for name, (base, lifted) in cases.items():
            for face in lifted.faces():
                verdict = oracles.shadow_is_base_face(base, face)
                assert verdict == _shadow_key_is_base_face(base, face), (name, face.key)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_shadow_that_is_not_a_face_is_rejected(self):
        part, _, lifted = LIFTED["staircase-2"]
        # with no graph facets declared, the lifts of interior partition
        # vertices must be rejected as non-faces of the base
        expected = next(
            f.key for f in lifted.polytope.faces() if not _shadow_key_is_base_face(part.ambient, f)
        )
        with pytest.raises(LiftingError, match="neither a base face nor a partition face") as exc:
            oracles.verify_projections(part, lifted.polytope, {})
        assert exc.value.witness == expected


def _lift_verdicts(part, lifting, cap):
    """``(certificate, walk, raised)`` for one lift: the piece the graph
    facet check fails on (None when it passes), the error record of the old
    full walk, ``oracles.lift_walk`` (None when it passes), and the record
    ``lift_polytope`` raised (None when it returned); None when
    ``lift_polytope`` stops before the check."""
    seen = []

    def spy(*args):
        seen.append(args)
        return _graph_facet_mismatch(*args)

    raised = None
    with mock.patch.object(lifting_module, "_graph_facet_mismatch", spy):
        try:
            lift_polytope(part, lifting, cap)
        except LiftingError as exc:
            raised = (str(exc), exc.witness)
        except GeometryError:
            pass
    if not seen:
        return None
    try:
        oracles.lift_walk(*seen[0])
        walk = None
    except LiftingError as exc:
        walk = (str(exc), exc.witness)
    return _graph_facet_mismatch(*seen[0]), walk, raised


def _assert_same_verdict(verdicts):
    certificate, walk, raised = verdicts
    assert (certificate is None) == (walk is None)
    if walk is not None:
        assert raised == walk


_OCTAGON = [(0, 2), (1, 1), (3, 1), (4, 2), (4, 3), (3, 4), (1, 4), (0, 3)]
_QUADRANT = LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)


@st.composite
def _lift_problems(draw):
    """A partition with its lifting function and a cap: a dilated triangle
    or octagon under parallel cuts, a rank-3 chain, the quadrant under cuts
    or a one-piece lower-dimensional base; no cap, the default one, or a
    cap ``y <= <a, x> + b`` lying above, touching or crossing the graph,
    among them one piece's own function raised by a constant."""
    kind = draw(st.sampled_from(["triangle", "octagon", "chain", "quadrant", "flat"]))
    if kind == "chain":
        part = chain_partition(draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    elif kind == "flat":
        a, b = draw(st.sampled_from([((2, 0, 1), (0, 3, 1)), ((1, 1, 1), (3, 3, 3)), ((1, 2, 0), (2, 1, 1))]))
        flat = LatticePolytope.from_vertices([(0, 0, 0), a, b])
        part = build_partition(flat, [flat])
    else:
        normal = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1)]))
        if kind == "triangle":
            k = draw(st.integers(2, 7))
            base, top = LatticePolytope.from_vertices([(0, 0), (k, 0), (0, k)]), k
        elif kind == "octagon":
            k = draw(st.integers(1, 2))
            base, top = LatticePolytope.from_vertices([(k * x, k * y) for x, y in _OCTAGON]), 4 * k
        else:
            base, top = _QUADRANT, 5
        cuts = draw(st.lists(st.integers(1, top * sum(normal) - 1), min_size=1, max_size=3, unique=True))
        try:
            part = partition_by_hyperplanes(base, [(normal, c) for c in sorted(cuts)])
        except GeometryError:
            assume(False)
    try:
        lifting = lifting_function(part)
    except GeometryError:
        assume(False)
    cap = None
    if part.ambient.is_compact:
        cap = draw(st.sampled_from([None, True, "user", "parallel"]))
    func = lifting.function
    if cap == "user":
        n = part.ambient.ambient_rank
        a = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        top = max(func.value(v) - vdot(a, v) for v in part.ambient.vertices)
        cap = (a, -(-top.numerator // top.denominator) + draw(st.integers(-2, 1)))
    elif cap == "parallel":
        # one piece's graph raised by 0, 1 or 2: it touches or crosses F
        f = draw(st.sampled_from(func.per_piece))
        assume(f.d == 1)
        cap = (f.a, f.b + draw(st.integers(0, 2)))
    return part, lifting, cap


def _fabricated_lifting(part, functions):
    """The per-piece ``functions`` as a lifting with every concavity 1, so
    that ``lift_polytope`` reaches the graph facet check."""
    concavities = {v.vertices[0]: Fraction(1) for v in part.faces(0)}
    return IntegralLifting(PiecewiseAffine(part, tuple(functions), 0), Fraction(1), concavities, False)


@st.composite
def _tampered_lifts(draw):
    """A corpus partition or a generated cut partition (``_lift_problems``)
    with its lifting function tampered with: two piece functions swapped,
    or one shifted by a small affine term; with no cap or a cap
    ``y <= <a, x> + b`` crossing the graph of the true function."""
    if draw(st.booleans()):
        part, lifting, _ = LIFTED[draw(st.sampled_from(sorted(LIFTED)))]
    else:
        part, lifting, _ = draw(_lift_problems())
    functions = list(lifting.function.per_piece)
    n, k = part.ambient.ambient_rank, len(functions)
    if k > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        functions[i], functions[j] = functions[j], functions[i]
        event("swapped")
    else:
        i = draw(st.integers(0, k - 1))
        slope = tuple(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
        functions[i] = functions[i] + AffineFunction.make(slope, draw(st.integers(-1, 1)))
        event("shifted")
    cap = None
    if part.ambient.is_compact and draw(st.booleans()):
        a = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        heights = [lifting.function.value(v) - vdot(a, v) for v in part.ambient.vertices]
        lo, hi = min(heights), max(heights)
        cap = (a, draw(st.integers(lo.numerator // lo.denominator, -(-hi.numerator // hi.denominator))))
        event("cap")
    return part, _fabricated_lifting(part, functions), cap


class TestGraphFacetCertificate:
    """The graph facet check of ``lift_polytope`` against the full walk of
    the lifted face lattice it replaced (``oracles.lift_walk``), whose first
    check stays as its witness path (``_verify_lifts``)."""

    @given(_tampered_lifts())
    @settings(max_examples=300, deadline=None)
    def test_tampered_lift_raises_the_record_of_the_old_full_walk(self, problem):
        # the old failure path: the walk's record, else the graph facet's
        verdicts = _lift_verdicts(*problem)
        if verdicts is None:
            event("stopped before the certificate")
            return
        certificate, walk, raised = verdicts
        if certificate is None:
            assert walk is None
            event("certified")
            return
        event(walk[0] if walk else "walk passes")
        assert raised == (walk or ("graph facet does not project onto its piece", certificate))

    @given(_lift_problems())
    @settings(max_examples=200, deadline=None)
    def test_same_verdict_and_record_as_the_walk(self, problem):
        verdicts = _lift_verdicts(*problem)
        assume(verdicts is not None)
        event("rejected" if verdicts[1] else "accepted")
        _assert_same_verdict(verdicts)

    @pytest.mark.parametrize("name", sorted(LIFTED))
    def test_corpus_lifts_with_every_cap(self, name):
        part, lifting, _ = LIFTED[name]
        caps = [None]
        if part.ambient.is_compact:
            n = part.ambient.ambient_rank
            top = max(lifting.function.value(v) for v in part.ambient.vertices)
            top = -(-top.numerator // top.denominator)
            caps += [True] + [((0,) * n, top + d) for d in (-1, 0, 1)]
        reached = 0
        for cap in caps:
            verdicts = _lift_verdicts(part, lifting, cap)
            if verdicts is not None:
                _assert_same_verdict(verdicts)
                reached += 1
        assert reached >= 1

    @pytest.mark.parametrize("name", sorted(LIFTED))
    def test_swapped_functions_pass_the_walk_only(self, name):
        part, lifting, _ = LIFTED[name]
        functions = list(lifting.function.per_piece)
        functions[0], functions[1] = functions[1], functions[0]
        certificate, walk, raised = _lift_verdicts(part, _fabricated_lifting(part, functions), None)
        assert walk is None and certificate == 0
        assert raised == ("graph facet does not project onto its piece", 0)

    def test_one_perturbed_function_fails_both_with_the_walks_record(self):
        reached = set()
        for name, (part, lifting, _) in sorted(LIFTED.items()):
            n = part.ambient.ambient_rank
            for i, f in enumerate(lifting.function.per_piece):
                functions = list(lifting.function.per_piece)
                functions[i] = f + AffineFunction.make((0,) * n, 1)
                verdicts = _lift_verdicts(part, _fabricated_lifting(part, functions), None)
                if verdicts is None:
                    continue  # the raised graph no longer touches that piece
                certificate, walk, raised = verdicts
                assert certificate is not None and walk is not None, (name, i)
                assert raised == walk and walk[0] == "partition face does not have exactly one lift"
                reached.add(name)
        assert {"octagon", "triangle-corner-cut", "mildly-singular-triangle"} <= reached

    def test_half_slope_along_a_ray_fails_both_with_the_walks_record(self):
        # F = x / 2 on the quadrant lifts the ray (1, 0) to (2, 0, 1), whose
        # shadow (2, 0) is no ray of the piece, though the vertices match
        part = build_partition(_QUADRANT, [_QUADRANT])
        half = _fabricated_lifting(part, [AffineFunction.make((Fraction(1, 2), 0))])
        certificate, walk, raised = _lift_verdicts(part, half, None)
        assert certificate == 0
        assert raised == walk == (
            "partition face does not have exactly one lift",
            ((((0, 0),), ((1, 0),)), 0),
        )

    @pytest.mark.parametrize("name", sorted(LIFTED))
    def test_success_path_walks_no_face_lattice(self, name):
        part, lifting, lifted = LIFTED[name]
        walked = AssertionError("face lattice walked")
        with mock.patch.object(polytope_module, "_face_walk", side_effect=walked), mock.patch.object(
            LatticePolytope, "faces", side_effect=walked
        ):
            again = lift_polytope(part, lifting)
        assert again.polytope.key == lifted.polytope.key
        assert again.piece_facets == lifted.piece_facets


class TestIteratedLift:
    def test_single_cut_matches_plain_lift(self):
        base = segment(0, 3)
        multi = iterated_lift(base, (1,), [2])
        part = segment_partition(0, 3, (2,))
        plain = lift_polytope(part, lifting_function(part))
        assert set(multi.polytope.vertices) == set(plain.polytope.vertices)
        assert set(multi.polytope.rays) == set(plain.polytope.rays)

    def test_two_cuts_cross_check(self):
        base = segment(0, 3)
        multi = iterated_lift(base, (1,), [1, 2])
        assert set(multi.polytope.vertices) == {
            (0, 0, 0),
            (1, 0, 0),
            (2, 1, 0),
            (3, 2, 1),
        }

    def test_higher_dimensional_base(self):
        base = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        multi = iterated_lift(base, (1, 1), [1, 2])
        assert multi.polytope.ambient_rank == 4
        assert len(multi.partition.pieces) == 3

    def test_components_continuous_on_walls(self):
        base = segment(0, 4)
        multi = iterated_lift(base, (1,), [1, 2, 3])
        for j in range(len(multi.partition.pieces) - 1):
            wall_x = (j + 1,)
            for left, right in zip(multi.components[j], multi.components[j + 1]):
                assert left(wall_x) == right(wall_x)

    def test_non_interior_cut_rejected(self):
        with pytest.raises(LiftingError, match="interior"):
            iterated_lift(segment(0, 3), (1,), [5])

    def test_intermediate_partition_not_nonsingular_is_refused(self):
        # x = 2 meets the hypotenuse of conv{(0,0), (4,0), (0,2)} at (2,1),
        # where the edges (0,-1) and (-2,1) span a sublattice of index 2
        triangle = LatticePolytope.from_vertices([(0, 0), (4, 0), (0, 2)])
        with pytest.raises(LiftingError, match="intermediate partition is not nonsingular") as raised:
            iterated_lift(triangle, (1, 0), [2])
        assert raised.value.witness == 0
        part = partition_by_hyperplanes(triangle, [((1, 0), 2)])
        assert lift_polytope(part, lifting_function(part)).polytope.is_lattice

    @pytest.mark.parametrize(
        "base, normal, offsets",
        [
            (segment(0, 4), (1,), [1, 2, 3]),
            (LatticePolytope.from_vertices([(0, 0), (4, 0), (0, 4)]), (1, 1), [1, 2, 3]),
            (LatticePolytope.from_vertices([(0, 0), (4, 0), (0, 4)]), (-1, 0), [-3, -1]),
            (_QUADRANT, (1, 0), [1, 2]),
            (LatticePolytope.from_halfspaces([], 1), (1,), [0, 1, 2]),
        ],
    )
    def test_components_are_the_cuts_below_an_interior_point(self, base, normal, offsets):
        multi = iterated_lift(base, normal, offsets)
        for piece, fns in zip(multi.partition.pieces, multi.components):
            level = vdot(normal, piece.relative_interior_point())
            n = base.ambient_rank
            assert fns == tuple(
                AffineFunction.make(normal, -c) if level > c else AffineFunction.zero(n) for c in offsets
            )

    def test_no_cuts_keep_the_base(self):
        base = segment(0, 4)
        multi = iterated_lift(base, (1,), [])
        assert multi.polytope.key == base.key
        assert [p.key for p in multi.partition.pieces] == [base.key]
        assert multi.components == ((),) and multi.intermediates == ()

    def test_multiples_of_the_cuts_lift_along_the_same_hyperplanes(self):
        # the offsets are divided by the normal's gcd too: 2x = 2, 4, 6 is
        # x = 1, 2, 3, not x = 2, 4, 6 (x = 4 misses the interior)
        base = segment(0, 4)
        expected = iterated_lift(base, (1,), [1, 2, 3])
        got = iterated_lift(base, (2,), [2, 4, 6])
        assert got.polytope.key == expected.polytope.key
        assert got.components == expected.components
        triangle = LatticePolytope.from_vertices([(0, 0), (4, 0), (0, 4)])
        expected = iterated_lift(triangle, (1, 1), [1, 2])
        assert iterated_lift(triangle, (2, 2), [2, 4]).polytope.key == expected.polytope.key
        with pytest.raises(LiftingError, match="interior") as raised:
            iterated_lift(base, (2,), [8])
        assert raised.value.witness == 4

    def test_offset_off_the_lattice_gets_the_plain_lift_verdict(self):
        # 2x = 3 is x = 3/2, as partition_by_hyperplanes reads it
        part = partition_by_hyperplanes(segment(0, 4), [((2,), 3)])
        with pytest.raises(LiftingError) as plain:
            lift_polytope(part, lifting_function(part))
        with pytest.raises(LiftingError) as multi:
            iterated_lift(segment(0, 4), (2,), [3])
        assert multi.value.args == plain.value.args
        assert multi.value.witness == plain.value.witness

    @pytest.mark.parametrize(
        "base, normal, cut",
        [
            (segment(0, 3), (1,), 0),  # at an end
            (segment(0, 3), (1,), 3),
            (LatticePolytope.from_vertices([(0, 0), (6, 0), (0, 6)]), (1, 0), 6),  # vertex level
            (LatticePolytope.from_vertices([(0, 0), (6, 0), (0, 6)]), (1, 1), -1),  # beyond
        ],
    )
    def test_cut_through_no_interior_point_is_refused(self, base, normal, cut):
        with pytest.raises(LiftingError, match="interior") as raised:
            iterated_lift(base, normal, [cut])
        assert raised.value.witness == cut

    @pytest.mark.parametrize(
        "halfspaces, rank, normal, cuts",
        [
            ([((1,), 0)], 1, (1,), [7]),  # past the only vertex, along the ray
            ([((-1,), 5)], 1, (1,), [-3]),
            ([((1, 0), 0), ((0, 1), 0), ((0, -1), 3)], 2, (1, 0), [2, 9]),
        ],
    )
    def test_ray_keeps_every_cut_interior(self, halfspaces, rank, normal, cuts):
        base = LatticePolytope.from_halfspaces(halfspaces, rank)
        multi = iterated_lift(base, normal, cuts)
        assert len(multi.partition.pieces) == len(cuts) + 1


class TestExtendSupportFunction:
    def _compact_unit_cut(self):
        part = segment_partition(0, 2, (1,))
        return part, lift_polytope(part, lifting_function(part), compact_cap=True)

    def test_zero_extends_to_zero_upstairs(self):
        part, lifted = self._compact_unit_cut()
        phi = SupportFunction(normal_fan(part.ambient), [0, 0])
        ext = extend_support_function(phi, lifted)
        assert ext.classify() in ("affine", "convex", "strictly-convex")
        for ray, val in zip(ext.fan.rays, ext.values):
            if ray[-1] > 0:
                assert val == 0

    def test_anticanonical_of_line_extends_convexly(self):
        part, lifted = self._compact_unit_cut()
        base_fan = normal_fan(part.ambient)
        phi = SupportFunction(base_fan, [-1] * len(base_fan.rays))
        ext = extend_support_function(phi, lifted)
        assert ext.classify() in ("convex", "strictly-convex")

    def test_restriction_to_base_fan(self):
        part, lifted = self._compact_unit_cut()
        base_fan = normal_fan(part.ambient)
        phi = SupportFunction(base_fan, [-1] * len(base_fan.rays))
        ext = extend_support_function(phi, lifted)
        for ray, val in zip(base_fan.rays, phi.values):
            assert ext.values[oracles.ray_index(ext.fan, ray + (0,))] == val

    def test_nonconvex_input_rejected(self):
        part, lifted = self._compact_unit_cut()
        base_fan = normal_fan(part.ambient)
        bad = SupportFunction(base_fan, [1, 1])
        with pytest.raises(Exception, match="convex"):
            extend_support_function(bad, lifted)


class TestUniquenessModuloAffine:
    def test_lifting_function_unique_mod_affine(self):
        # two lifting functions of the same partition differ by one global
        # affine function once the anchor is removed
        for name, (part, lifting, _) in LIFTED.items():
            alpha = wall_functions(part)
            dual = part.dual_complex()
            a = integrate_cocycle(alpha, dual, part, root=0)
            b = integrate_cocycle(alpha, dual, part, root=len(part.pieces) // 2)
            diff = a.difference(b)
            assert diff.is_global_affine(), name


class TestCornerAnchor:
    """Walls anchored at a base vertex that more than two pieces share:
    piece ``i`` misses the edges of every other piece there, and the wall
    is normalized along the one that piece ``j`` has."""

    def test_unit_value_one_step_along_the_second_pieces_edge(self):
        part = pentagon_corner_fan()
        alpha = wall_functions(part)
        assert len(alpha.pairs()) == 2
        for i, j in alpha.pairs():
            assert alpha.base_vertices[frozenset((i, j))] == (0, 0)
            (far,) = set(part.pieces[j].vertices) - set(part.pieces[i].vertices)
            assert alpha[(i, j)](far) == 1
            assert all(alpha[(i, j)](v) == 0 for v in set(part.pieces[i].vertices) & set(part.pieces[j].vertices))

    def test_lifts_with_one_lift_per_partition_face(self):
        part = pentagon_corner_fan()
        lifted = lift_polytope(part, lifting_function(part))
        assert set(lifted.lift_map) == set(part.face_index)
        assert oracles.lift_walk(part, lifted.polytope, lifted.piece_facets) == lifted.lift_map


class TestCochainNormalization:
    def test_unit_value_one_weighted_step_into_the_second_piece(self):
        for name, (part, _, _) in LIFTED.items():
            alpha = wall_functions(part)
            for (i, j) in alpha.pairs():
                p = alpha.base_vertices[frozenset((i, j))]
                star = oracles.edges_at_vertex_within_ambient_face(part, part.face_at(p))
                missed = [(d, w) for d, w, pieces in star if i not in pieces and j in pieces]
                assert len(missed) == 1, name
                ((direction, weight),) = missed
                step = tuple(a + weight * d for a, d in zip(p, direction))
                assert alpha[(i, j)](step) == 1, name


class TestLiftRejectsBadInput:
    def test_nonconcave_profile_rejected(self):
        from toricdegen import IntegralLifting

        part = segment_partition(0, 2, (1,))
        lifting = lifting_function(part)
        negated = IntegralLifting(
            lifting.function.scale(-1),
            -lifting.scale,
            {p: -c for p, c in lifting.concavities.items()},
            False,
        )
        with pytest.raises(LiftingError, match="concavity"):
            lift_polytope(part, negated)

    def test_shared_affine_functions_rejected(self):
        from toricdegen import IntegralLifting, PiecewiseAffine
        from toricdegen.exactmath import AffineFunction
        from fractions import Fraction

        part = segment_partition(0, 2, (1,))
        flat = PiecewiseAffine(part, (AffineFunction.zero(1),) * 2, 0)
        fake = IntegralLifting(flat, Fraction(1), {(1,): Fraction(1)}, True)
        with pytest.raises(LiftingError, match="share"):
            lift_polytope(part, fake)

    def test_non_integral_cap_rejected(self):
        # read by integer part, the cap y <= x / 2 + 5 would be y <= 5
        part = segment_partition(0, 2, (1,))
        lifting = lifting_function(part)
        for cap in (((Fraction(1, 2),), 5), ((0,), Fraction(9, 2))):
            with pytest.raises(GeometryError, match="integral entries"):
                lift_polytope(part, lifting, compact_cap=cap)
        got = lift_polytope(part, lifting, compact_cap=((Fraction(0),), Fraction(5)))
        expected = lift_polytope(part, lifting, compact_cap=((0,), 5))
        assert got.cap == expected.cap == ((0,), 5)
        assert got.polytope.key == expected.polytope.key

    def test_cap_below_the_graph_is_refused_with_the_cap(self):
        # y <= -5 lies below F >= 0 everywhere, so nothing is left above the
        # graph under it; the cap is the witness, not an empty polyhedron
        part = segment_partition(0, 2, (1,))
        lifting = lifting_function(part)
        with pytest.raises(LiftingError, match="cap does not contribute a facet") as info:
            lift_polytope(part, lifting, compact_cap=((0,), -5))
        assert info.value.witness == ((0,), -5)

    def test_non_integral_iterated_cuts_rejected(self):
        base = segment(0, 3)
        with pytest.raises(GeometryError, match="integral entries"):
            iterated_lift(base, (Fraction(3, 2),), [1])
        with pytest.raises(GeometryError, match="integral entries"):
            iterated_lift(base, (1,), [1, Fraction(5, 2)])
        got = iterated_lift(base, (Fraction(1),), [Fraction(1), 2])
        assert got.polytope.key == iterated_lift(base, (1,), [1, 2]).polytope.key


class TestBigIntegerExactness:
    def test_huge_coordinates_stay_exact(self):
        # the minimal-integral rescaling enumerates lattice points and is
        # deliberately desk-scale; the rest of the pipeline is exact at any
        # magnitude, so assemble the (already integral) lifting directly
        from fractions import Fraction as F
        from toricdegen import IntegralLifting
        from toricdegen.lifting import concavity_profile

        big = 10**19
        part = segment_partition(0, 3 * big, (big, 2 * big))
        func = integrate_cocycle(wall_functions(part), part.dual_complex(), part)
        profile = concavity_profile(func)
        assert set(profile.values()) == {F(1)}
        lifting = IntegralLifting(func, F(1), profile, True)
        lifted = lift_polytope(part, lifting)
        assert (3 * big, 3 * big) in set(lifted.polytope.vertices)
        assert lifted.nonsingular
        from toricdegen.report import encode_value, lifted_polytope_record, render_report

        record = lifted_polytope_record(lifted)
        assert oracles.decode_value(encode_value(record)) == record
        assert oracles.parse_report(render_report([record]))[0] == record
        assert any(
            isinstance(x, str) for v in encode_value(record)["vertices"] for x in v
        )


class TestExtensionCapValue:
    def test_cap_value_is_the_largest_convex_one(self):
        part = segment_partition(0, 2, (1,))
        lifted = lift_polytope(part, lifting_function(part), compact_cap=True)
        base_fan = normal_fan(part.ambient)
        phi = SupportFunction(base_fan, [-1] * len(base_fan.rays))
        ext = extend_support_function(phi, lifted)
        cap_idx = next(i for i, r in enumerate(ext.fan.rays) if r[-1] < 0)
        chosen = ext.values[cap_idx]
        bigger = list(ext.values)
        bigger[cap_idx] = chosen + 1
        from toricdegen import GeometryError

        try:
            worse = SupportFunction(ext.fan, bigger)
            assert worse.classify() == "none"
        except GeometryError:
            pass


class TestCornerToCornerCut:
    def test_diagonal_cut_of_the_square_reports_conifold_points(self):
        # the quadric-to-two-planes picture: semi-stable, but the lift has
        # two non-simple vertices and is reported, not rejected
        from toricdegen import LatticePolytope, partition_by_hyperplanes

        square = LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        part = partition_by_hyperplanes(square, [((1, -1), 0)])
        assert part.is_semistable()
        assert part.faces(0) == []  # both wall endpoints are base vertices
        lifting = lifting_function(part)
        assert lifting.concavities == {}
        lifted = lift_polytope(part, lifting)
        assert not lifted.simplicial
        assert set(lifted.singular_vertices) == {(0, 0, 0), (1, 1, 0)}
        assert set(lifted.lift_map) == set(part.face_index)

    def test_rational_chamber_cut_cannot_lift_integrally(self):
        from toricdegen import LatticePolytope, partition_by_hyperplanes

        triangle = LatticePolytope.from_vertices([(0, 0), (0, 1), (1, 0)])
        part = partition_by_hyperplanes(triangle, [((1, -1), 0)])
        assert part.is_semistable()
        with pytest.raises(LiftingError, match="integral"):
            lift_polytope(part, lifting_function(part))
