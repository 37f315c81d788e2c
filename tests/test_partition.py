import importlib.util
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricdegen import (
    DualComplex,
    EmptyPolyhedronError,
    GeometryError,
    LatticePolytope,
    PartitionError,
    UnsupportedGeometryError,
    build_partition,
    complete_fan_from_rays,
    lattice_equivalences,
    partition_by_hyperplanes,
    partition_from_fan,
)
from toricdegen import partition as partition_module
from toricdegen.exactmath import vdot
from toricdegen.partition import _check_interior_disjoint, _face_walk, _uncovered_point

from corpus import (
    accepted_partitions,
    chain_partition,
    dilated_simplex,
    expanded_degeneration_partition,
    mildly_singular_triangle,
    octagon_partition,
    reflexive_simplex,
    segment,
    segment_partition,
    staircase_fan,
    staircase_partition,
    torus_fan_partition,
    triptych,
    unimodular_matrix,
)

import oracles


class TestBuildPartition:
    def test_integer_cuts_of_a_segment(self):
        part = segment_partition(0, 4, (1, 2, 3))
        assert len(part.pieces) == 4
        assert part.is_semistable()

    def test_overlap_rejected_with_witness(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        with pytest.raises(PartitionError, match="overlap") as err:
            build_partition(
                t,
                [
                    LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 3)]),
                    LatticePolytope.from_vertices([(1, 0), (3, 0), (0, 3)]),
                ],
            )
        i, j, point = err.value.witness
        assert (i, j) == (0, 1)
        assert t.contains(point)

    def test_gap_rejected_with_witness(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        with pytest.raises(PartitionError, match="gap") as err:
            build_partition(
                t,
                [
                    LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 3)]),
                    LatticePolytope.from_vertices([(2, 0), (3, 0), (0, 3)]),
                ],
            )
        witness = err.value.witness
        assert witness is not None and t.contains(witness)

    def test_piece_outside_ambient_rejected(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        with pytest.raises(PartitionError, match="not contained"):
            build_partition(
                t, [LatticePolytope.from_vertices([(0, 0), (4, 0), (0, 3)])]
            )

    def test_non_simplicial_piece_rejected(self):
        cube = LatticePolytope.from_vertices(
            [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        )
        pyramid = LatticePolytope.from_vertices(
            [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]
        )
        rest = [
            LatticePolytope.from_vertices(
                [(0, 0, 2), (2, 0, 2), (0, 2, 2), (2, 2, 2), (1, 1, 2), (0, 0, 0), (2, 0, 0)]
            )
        ]
        with pytest.raises(PartitionError, match="simplicial"):
            build_partition(cube, [pyramid] + rest)

    def test_staircase_partition_piece_count(self):
        for n in (2, 3):
            assert len(staircase_partition(n).pieces) == n + 1

    def test_trivial_partition(self):
        t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
        part = build_partition(t, [t])
        assert part.is_semistable()
        assert part.dual_complex().simplices == frozenset({frozenset({0})})

    def test_weighted_projective_staircase_is_rejected(self):
        # the fan ray (-1,1,0,0) exits the weighted projective simplex
        # exactly through the relative interior of a 2-face (both x_1 >= -1
        # and <(1,2,2,2), x> <= 1 become tight at the same time), which makes
        # two chambers non-simplicial at the exit point
        from corpus import staircase_fan, weighted_projective_simplex
        from toricdegen import partition_from_fan

        wp = weighted_projective_simplex()
        exit_point = (-1, 1, 0, 0)
        tight = [
            h.normal
            for h in wp.halfspaces
            if sum(a * b for a, b in zip(exit_point, h.normal)) == -h.offset
        ]
        assert len(tight) == 2
        with pytest.raises(PartitionError, match="simplicial"):
            partition_from_fan(wp, staircase_fan(4))


class TestSemistability:
    def test_triptych(self):
        a, b, c = triptych()
        assert a.is_semistable()
        assert b.is_semistable()
        witness = c.semistable_witness()
        assert witness is not None
        face, ambient_face, count = witness
        assert face.vertices == ((1, 1),)  # the interior vertex edge count fails
        assert ambient_face.dim == 2 and count == 2

    def test_verify_exit_style_flags(self):
        flags = triptych()[2].classify()
        assert flags["semistable"] is False
        assert flags["balanced"] is None  # unknown past the failure

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_corpus_semistable(self, name, part):
        assert part.is_semistable(), name


class TestWeights:
    def test_interior_vertex_of_staircase_two(self):
        assert staircase_partition(2).weight_vector((0, 0)).weights == (1, 1, 1)

    def test_edge_vertices_are_balanced(self):
        part = chain_partition(4)
        for p in ((1, 0, 0), (0, 2, 0), (0, 0, 3)):
            assert part.weight_vector(p).weights == (1, 1)

    def test_weights_positive_and_primitive(self):
        for name, part in accepted_partitions():
            for w in part.all_weight_vectors().values():
                assert all(x > 0 for x in w.weights), name
                from math import gcd

                g = 0
                for x in w.weights:
                    g = gcd(g, x)
                assert g == 1, name

    def test_weight_ordering_convention(self):
        for name, part in accepted_partitions():
            for w in part.all_weight_vectors().values():
                rest = w.weights[1:]
                assert list(rest) == sorted(rest), name


class TestClassification:
    def test_staircase_five(self):
        # rank 5: the tiling certificate keeps this to well under a second
        part = staircase_partition(5)
        assert len(part.pieces) == 6
        flags = part.classify()
        assert flags["semistable"] and flags["balanced"]
        assert flags["nonsingular"] and flags["mildly_singular"]

    def test_staircase_nonsingular(self):
        for n in (2, 3, 4):
            flags = staircase_partition(n).classify()
            assert flags["nonsingular"] and flags["balanced"], n

    def test_chain_partitions_nonsingular(self):
        for k in (1, 2, 3):
            assert chain_partition(4, k=k).classify()["nonsingular"]

    def test_octagon_nonsingular(self):
        flags = octagon_partition().classify()
        assert flags["semistable"] and flags["nonsingular"]

    def test_mildly_singular_fixture(self):
        flags = mildly_singular_triangle().classify()
        assert flags["semistable"]
        assert flags["balanced"]
        assert not flags["nonsingular"]
        assert flags["mildly_singular"]
        assert flags["maximal_vertices"] == ((1, 2),)

    def test_nonsingular_implies_balanced(self):
        for name, part in accepted_partitions():
            flags = part.classify()
            if flags["nonsingular"]:
                assert flags["balanced"], name

    def test_same_flags_at_height_zero_one_rank_up(self):
        # nonsingularity is measured in the polytope's own lattice, so a
        # compact fixture embedded at height 0 keeps every verify flag
        def up(v):
            return tuple(v) + (0,)

        for name, part in accepted_partitions():
            if not part.ambient.is_compact:
                continue
            ambient = LatticePolytope.from_vertices([up(v) for v in part.ambient.vertices])
            pieces = [LatticePolytope.from_vertices([up(v) for v in p.vertices]) for p in part.pieces]
            flags, up_flags = part.classify(), build_partition(ambient, pieces).classify()
            for key in ("semistable", "balanced", "nonsingular", "mildly_singular"):
                assert up_flags[key] == flags[key], (name, key)
            assert up_flags["maximal_vertices"] == tuple(map(up, flags["maximal_vertices"])), name
            assert up_flags["vertex_nonsingular"] == {
                up(p): ok for p, ok in flags["vertex_nonsingular"].items()
            }, name

    def test_nonsingularity_asked_only_at_partition_vertices(self):
        # each partition vertex is asked of one piece, once; the ambient
        # vertices, which the flags do not depend on, are never asked
        is_nonsingular_at = LatticePolytope.is_nonsingular_at
        for name, cached in accepted_partitions():
            # fresh pieces: the corpus partitions carry the caches of earlier tests
            pieces = [LatticePolytope.from_generators(p.vertices, p.rays) for p in cached.pieces]
            part = build_partition(cached.ambient, pieces)
            partition_vertices = {f.vertices[0] for f in part.faces(0)}
            with mock.patch.object(
                LatticePolytope, "is_nonsingular_at", autospec=True, side_effect=is_nonsingular_at
            ) as wrapped:
                part.classify()
            asked = [tuple(call.args[1]) for call in wrapped.call_args_list]
            assert sorted(asked) == sorted(partition_vertices), name
            askers = [call.args[0] for call in wrapped.call_args_list]
            assert all(any(p is piece for piece in pieces) for p in askers), name

    def test_vertex_nonsingularity_consistent_across_pieces(self):
        from toricdegen.exactmath import determinant

        for name, part in accepted_partitions():
            if part.ambient.dim < part.ambient.ambient_rank:
                continue
            for vf in part.faces(0):
                answers = set()
                for idx in vf.pieces:
                    dirs = oracles.edge_directions(part.pieces[idx], vf.vertices[0])
                    answers.add(len(dirs) == part.dim and abs(determinant(dirs)) == 1)
                assert len(answers) == 1, (name, vf.vertices)


class TestStructuralProperties:
    """Exhaustive checks of the intersection-dimension laws on the corpus."""

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_piece_intersections_have_expected_dimension(self, name, part):
        n = part.dim
        for size in (2, 3):
            for combo in itertools.combinations(range(len(part.pieces)), size):
                meet = part.pieces[combo[0]]
                try:
                    for idx in combo[1:]:
                        meet = meet.intersect_polyhedron(part.pieces[idx])
                except EmptyPolyhedronError:
                    continue
                assert meet.dim == n - size + 1, (name, combo)

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_piece_meets_ambient_faces_fully(self, name, part):
        for face in part.ambient.faces():
            if face.dim in (part.dim, -1):
                continue
            target = LatticePolytope.from_generators(face.vertices, face.rays)
            for piece in part.pieces:
                try:
                    meet = piece.intersect_polyhedron(target)
                except EmptyPolyhedronError:
                    continue
                assert meet.dim == face.dim, (name, face.vertices)

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_every_partition_vertex_has_dim_plus_one_edges(self, name, part):
        n = part.dim
        for vf in part.faces(0):
            edges = [f for f in part.faces(1) if vf.vertices[0] in f.vertices]
            assert len(edges) == n + 1, (name, vf.vertices)

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_star_and_edge_index_match_the_edge_scan(self, name, part):
        _assert_star_matches_oracle(part)
        for piece in part.pieces:
            assert piece.is_simplicial() and oracles.is_simplicial(piece), name

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_edge_sum_vanishes_at_nonsingular_vertices(self, name, part):
        flags = part.classify()
        for p, w in part.all_weight_vectors().items():
            if flags["vertex_nonsingular"][p]:
                total = [sum(column) for column in zip(*(d for d, _, _ in w.edges))]
                assert not any(total), (name, p)


def _assert_star_matches_oracle(part):
    """Each vertex's star (``WeightVector.edges``) and every endpoint's edges
    (``edges_through``), at partition vertices and base vertices, against
    the scan of every partition edge; a vertex the oracle finds no positive
    relation at is refused."""
    for vf in part.faces(0):
        p = vf.vertices[0]
        expected = oracles.edges_at_vertex_within_ambient_face(part, vf)
        if expected is None:
            with pytest.raises(PartitionError, match="not semi-stable at vertex"):
                part.weight_vector(p)
        else:
            assert part.weight_vector(p).edges == expected, p
    for p in [vf.vertices[0] for vf in part.faces(0)] + list(part.ambient.vertices):
        assert part.edges_through(p) == oracles.edges_through(part, p), p


def restrict(partition, face):
    """The induced partition of a proper ambient face."""
    if face.dim >= partition.ambient.dim:
        raise GeometryError("restriction requires a proper face")
    target = LatticePolytope.from_generators(face.vertices, face.rays)
    pieces = []
    for piece in partition.pieces:
        try:
            cut = piece.intersect_polyhedron(target)
        except EmptyPolyhedronError:
            continue
        if cut.dim == target.dim:
            pieces.append(cut)
    return build_partition(target, pieces)


def partitions_equivalent(a, b):
    """Whether one affine-unimodular map carries one tiling onto the other."""
    if len(a.pieces) != len(b.pieces):
        return False
    pa, pb = a.ambient, b.ambient
    if pa.is_whole_space or pb.is_whole_space:
        raise GeometryError("partition equivalence requires compact ambient polytopes")

    def model(partition):
        coords = partition.ambient.lattice_coordinates
        return [set(map(coords, piece.vertices)) for piece in partition.pieces]

    b_pieces = [frozenset(s) for s in model(b)]
    a_pieces = model(a)
    for matrix, shift in lattice_equivalences(pa, pb):

        def image(v):
            if not matrix:
                return v
            return tuple(vdot(row, v) + s for row, s in zip(matrix, shift))

        mapped = [frozenset(image(v) for v in piece) for piece in a_pieces]
        if sorted(mapped, key=sorted) == sorted(b_pieces, key=sorted):
            return True
    return False


class TestRestriction:
    def test_restriction_of_staircase_three(self):
        g3 = staircase_partition(3)
        g2 = staircase_partition(2)
        for facet in reflexive_simplex(3).faces(2):
            r = restrict(g3, facet)
            assert r.is_semistable()
            assert len(r.pieces) == 3
            assert r.classify()["nonsingular"]
            # same combinatorics as the rank-two staircase partition: the
            # three pieces all share one interior vertex
            assert r.dual_complex().same_as(g2.dual_complex())
            # but the facet is a side-4 triangle, so the tilings are NOT
            # affinely equivalent over the lattice
            assert not partitions_equivalent(r, g2)

    def test_restriction_to_edges_is_integer_cut_partition(self):
        g3 = staircase_partition(3)
        for edge in reflexive_simplex(3).faces(1):
            r = restrict(g3, edge)
            assert r.is_semistable()
            assert all(piece.is_lattice for piece in r.pieces)

    def test_chain_restriction_to_far_facet_is_trivial(self):
        part = chain_partition(4)
        far = next(
            f
            for f in dilated_simplex(4).faces(2)
            if all(sum(v) == 4 for v in f.vertices)
        )
        r = restrict(part, far)
        assert len(r.pieces) == 1 and r.is_semistable()

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_restriction_preserves_semistability(self, name, part):
        if part.ambient.is_whole_space:
            return
        for facet in part.ambient.faces(part.ambient.dim - 1):
            assert restrict(part, facet).is_semistable(), name


def _signed_permutation_image(vertices, cuts, perm, signs, shift):
    """The polytope and cuts under ``x -> A x + shift``, where row ``i`` of
    ``A`` is ``signs[i]`` times the unit vector ``perm[i]``.  ``A`` is
    orthogonal, so ``<x, n> = c`` becomes ``<y, A n> = c + <A n, shift>``."""

    def apply(v):
        return tuple(s * v[j] for j, s in zip(perm, signs))

    image = [tuple(a + t for a, t in zip(apply(v), shift)) for v in vertices]
    image_cuts = [(apply(n), c + vdot(apply(n), shift)) for n, c in cuts]
    return LatticePolytope.from_vertices(image), image_cuts


class TestPartitionsEquivalent:
    CASES = [
        (
            [(0, 0), (4, 0), (4, 2), (2, 4), (0, 4)],
            [((1, 0), 1), ((0, 1), 1)],
            [((1, 0), 2), ((0, 1), 1)],
            (1, 0),
            (-1, 1),
            (3, -2),
        ),
        (
            [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)],
            [((1, 0, 0), 1), ((0, 1, 0), 1)],
            [((1, 0, 0), 1), ((1, 1, 0), 2)],
            (2, 0, 1),
            (1, -1, -1),
            (1, 2, -1),
        ),
    ]

    @pytest.mark.parametrize("vertices, cuts, other_cuts, perm, signs, shift", CASES)
    def test_signed_permutation_image_is_equivalent(
        self, vertices, cuts, other_cuts, perm, signs, shift
    ):
        a = partition_by_hyperplanes(LatticePolytope.from_vertices(vertices), cuts)
        image, image_cuts = _signed_permutation_image(vertices, cuts, perm, signs, shift)
        b = partition_by_hyperplanes(image, image_cuts)
        # the image is not the same tiling, so the map must do the work
        assert {p.vertices for p in a.pieces} != {p.vertices for p in b.pieces}
        assert partitions_equivalent(a, b) and partitions_equivalent(b, a)

    @pytest.mark.parametrize("vertices, cuts, other_cuts, perm, signs, shift", CASES)
    def test_other_cuts_with_as_many_pieces_are_not_equivalent(
        self, vertices, cuts, other_cuts, perm, signs, shift
    ):
        a = partition_by_hyperplanes(LatticePolytope.from_vertices(vertices), cuts)
        image, image_cuts = _signed_permutation_image(vertices, other_cuts, perm, signs, shift)
        b = partition_by_hyperplanes(image, image_cuts)
        assert len(a.pieces) == len(b.pieces)
        assert not partitions_equivalent(a, b) and not partitions_equivalent(b, a)


def _is_connected(dual):
    """Whether the dual complex's edge graph is connected."""
    if dual.n_vertices == 0:
        return True
    seen = {0}
    frontier = [0]
    adj = {i: set() for i in range(dual.n_vertices)}
    for a, b in dual.edges():
        adj[a].add(b)
        adj[b].add(a)
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == dual.n_vertices


class TestDualComplex:
    def test_chain_is_a_path(self):
        dual = chain_partition(4).dual_complex()
        assert dual.same_as(DualComplex.path(4))
        assert dual.dimension == 1 and _is_connected(dual)

    def test_single_cut_is_one_edge(self):
        dual = triptych()[0].dual_complex()
        assert dual.same_as(DualComplex.path(2))

    def test_staircase_full_simplex_and_hypersurface_boundary(self):
        for n in (2, 3):
            dual = staircase_partition(n).dual_complex()
            assert dual.same_as(DualComplex.full_simplex(n))
            assert dual.hypersurface_complex().same_as(DualComplex.simplex_boundary(n))

    def test_torus_partition_dual(self):
        dual = torus_fan_partition(2).dual_complex()
        assert dual.same_as(DualComplex.full_simplex(2))

    def test_expanded_degeneration_path(self):
        dual = expanded_degeneration_partition(3).dual_complex()
        assert dual.same_as(DualComplex.path(5))

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_connected(self, name, part):
        assert _is_connected(part.dual_complex()), name


class TestHyperplanePartitionOrdering:
    def test_pieces_sorted_along_first_normal(self):
        part = chain_partition(4)
        levels = [
            sum(part.pieces[i].relative_interior_point()) for i in range(4)
        ]
        assert levels == sorted(levels)


class TestCutNormals:
    SQUARE = LatticePolytope.from_vertices([(0, 0), (4, 0), (4, 4), (0, 4)])

    def test_non_integral_normal_rejected(self):
        # read by integer part, (1/2, 1) would cut along y = 2
        with pytest.raises(GeometryError, match="integral entries"):
            partition_by_hyperplanes(self.SQUARE, [((0, 1), 1), ((Fraction(1, 2), 1), 2)])

    def test_integral_fraction_normal_taken(self):
        got = partition_by_hyperplanes(self.SQUARE, [((Fraction(2), Fraction(1)), Fraction(5, 2))])
        expected = partition_by_hyperplanes(self.SQUARE, [((2, 1), Fraction(5, 2))])
        assert [p.key for p in got.pieces] == [p.key for p in expected.pieces]


class TestRandomSegmentPartitions:
    """Any partition of an integer segment at integer points is semi-stable,
    nonsingular, and lifts to a nonsingular polytope."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(-3, 3),
        st.integers(2, 6),
        st.sets(st.integers(-2, 8), min_size=1, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_pipeline_on_integer_cuts(self, start, length, cuts):
        from corpus import segment
        from toricdegen import lift_polytope, lifting_function

        end = start + length
        interior = sorted(c for c in cuts if start < c < end)
        if not interior:
            return
        part = partition_by_hyperplanes(
            segment(start, end), [((1,), c) for c in interior]
        )
        flags = part.classify()
        assert flags["semistable"] and flags["nonsingular"]
        lifting = lifting_function(part)
        assert lifting.unit_concavity
        lifted = lift_polytope(part, lifting)
        assert lifted.nonsingular
        assert len(lifted.polytope.vertices) == len(interior) + 2


class TestDualComplexClosure:
    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_simplices_closed_under_subsets(self, name, part):
        import itertools as it

        dual = part.dual_complex()
        for simplex in dual.simplices:
            for size in range(1, len(simplex)):
                for sub in it.combinations(sorted(simplex), size):
                    assert frozenset(sub) in dual.simplices, name

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_cells_match_stored_faces(self, name, part):
        # one cell per interior face, with that face's piece set and dim
        dual = part.dual_complex()
        interior = Counter((f.pieces, f.dim) for f in part.faces() if f.is_interior)
        assert Counter(dual.cells) == interior, name


class TestRandomPlanarCuts:
    """A single straight cut through the interior of a convex lattice polygon
    always yields a semi-stable two-piece partition; when the chamber
    vertices are lattice points the whole lifting pipeline goes through."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=3,
            max_size=7,
        ),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.integers(-3, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_interior_cut(self, points, normal, level):
        from toricdegen import EmptyPolyhedronError, LiftingError
        from toricdegen import lift_polytope, lifting_function

        if normal == (0, 0):
            return
        polygon = LatticePolytope.from_vertices(points)
        if polygon.dim != 2:
            return
        values = [
            normal[0] * v[0] + normal[1] * v[1] for v in polygon.vertices
        ]
        if not (min(values) < level < max(values)):
            return
        part = partition_by_hyperplanes(polygon, [(normal, level)])
        if len(part.pieces) != 2:
            return
        assert part.is_semistable()
        flags = part.classify()
        assert flags["balanced"]
        if all(p.is_lattice for p in part.pieces):
            lifting = lifting_function(part)
            assert all(c > 0 for c in lifting.concavities.values())
            lifted = lift_polytope(part, lifting)
            assert set(lifted.lift_map) == set(part.face_index)
        else:
            # rational chamber vertices cannot produce an integral lift
            with pytest.raises(LiftingError):
                lift_polytope(part, lifting_function(part))


class TestStaircaseRayRelation:
    def test_unit_relation_in_every_rank(self):
        # the single positive relation among the staircase rays is all ones:
        # the weight vector at any interior fan-apex vertex
        from corpus import staircase_rays
        from toricdegen.exactmath import left_kernel

        for n in (2, 3, 4):
            kernel = left_kernel(staircase_rays(n))
            assert len(kernel) == 1
            rel = kernel[0]
            if all(x < 0 for x in rel):
                rel = tuple(-x for x in rel)
            assert rel == tuple(1 for _ in range(n + 1))


# -- fast tiling checks against their always-intersect oracles -------------------


def _outcome(build, *args):
    """The pieces a build returns, or the error it raises with its witness."""
    try:
        part = build(*args)
    except GeometryError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None))
    return [(p.vertices, p.rays, p.halfspaces, p.equations) for p in part.pieces]


def _oracle_outcome(build, *args):
    with mock.patch.object(
        partition_module, "_check_interior_disjoint", oracles.check_interior_disjoint
    ):
        return _outcome(build, *args)


def _assert_same(got, expected):
    assert got == expected and repr(got) == repr(expected)


@st.composite
def cut_problems(draw):
    """An ambient of rank 1-3 and 1-4 cuts.

    Ambients: hulls of lattice points (of any dimension), polygons on a plane
    in rank 3, halfspace systems (possibly unbounded) and the whole space.
    Cuts: random, through a vertex, supporting a face, missing the ambient,
    containing a lower-dimensional ambient, and repeats.
    """
    rank = draw(st.integers(1, 3))
    coord = st.integers(-2, 3)
    kind = draw(st.sampled_from(["hull", "hull", "plane", "halfspaces", "whole"]))
    if kind == "plane" and rank == 3:
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
        ambient = LatticePolytope.from_vertices([(x, y, 1 - x + 2 * y) for x, y in pts])
    elif kind == "halfspaces":
        normal = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
        hs = draw(st.lists(st.tuples(normal, st.integers(-1, 4)), min_size=1, max_size=rank + 2))
        try:
            ambient = LatticePolytope.from_halfspaces(hs, rank)
        except (EmptyPolyhedronError, UnsupportedGeometryError):
            assume(False)
    elif kind == "whole":
        ambient = LatticePolytope.from_halfspaces([], rank)
    else:
        pts = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=rank + 3))
        ambient = LatticePolytope.from_vertices(pts)
    normal = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    cuts = []
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["random", "vertex", "support", "miss", "contain", "repeat"]))
        n = draw(normal)
        levels = [vdot(v, n) for v in ambient.vertices]
        if how == "vertex" and levels:
            cuts.append((n, draw(st.sampled_from(levels))))
        elif how == "support" and levels:
            cuts.append((n, draw(st.sampled_from([min(levels), max(levels)]))))
        elif how == "miss" and levels:
            cuts.append((n, min(levels) - 1))
        elif how == "contain" and ambient.equations:
            e = draw(st.sampled_from(ambient.equations))
            cuts.append((e.normal, -e.offset))
        elif how == "repeat" and cuts:
            cuts.append(draw(st.sampled_from(cuts)))
        else:
            cuts.append((n, draw(st.integers(-3, 4))))
    return ambient, cuts


@st.composite
def piece_sets(draw):
    """2-4 pieces of dimension d in rank d (or d = 2 on a plane in rank 3):
    simplices, boxes and unbounded pieces that may overlap, touch or miss."""
    rank = draw(st.integers(1, 3))
    flat = rank == 3 and draw(st.booleans())
    d = 2 if flat else rank
    pieces = []
    for _ in range(draw(st.integers(2, 4))):
        shift = draw(st.tuples(*[st.integers(-3, 3)] * d))
        local = st.tuples(*[st.integers(0, 2)] * d)
        pts = [
            tuple(a + b for a, b in zip(shift, p))
            for p in draw(st.lists(local, min_size=d + 1, max_size=d + 2))
        ]
        rays = []
        if draw(st.integers(0, 3)) == 0:
            rays.append(draw(st.tuples(*[st.integers(-1, 1)] * d).filter(any)))
        if flat:
            pts = [(x, y, 1 - x + 2 * y) for x, y in pts]
            rays = [(x, y, 2 * y - x) for x, y in rays]
        piece = LatticePolytope.from_generators(pts, rays)
        assume(piece.dim == d)
        pieces.append(piece)
    return pieces, d


class TestTilingCertificateAgainstOracles:
    @given(cut_problems())
    @settings(max_examples=120, deadline=None)
    @example((LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)]), [((1, 0), 1), ((1, 0), 1)]))
    @example((LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)]), [((1, 1), 3), ((1, 0), -1)]))
    @example((LatticePolytope.from_vertices([(0, 0, 0), (2, 2, 2)]), [((1, -1, 0), 0), ((1, 1, 1), 3)]))
    @example((LatticePolytope.from_halfspaces([], 2), [((1, 0), 0), ((0, 1), 1)]))
    @example((
        LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2),
        [((1, -1), 0), ((1, 0), -1), ((0, 1), 2)],
    ))
    @example((  # rational chamber vertices in an unbounded ambient: the integer order
        LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2),
        [((2, 1), 3), ((1, 0), 1), ((2, 1), 6), ((0, 3), 2)],
    ))
    def test_hyperplane_partition_matches_oracle(self, problem):
        ambient, cuts = problem
        _assert_same(
            _outcome(partition_by_hyperplanes, ambient, cuts),
            _oracle_outcome(oracles.partition_by_hyperplanes, ambient, cuts),
        )

    @given(piece_sets())
    @settings(max_examples=150, deadline=None)
    @example(([  # boxes touching along facets
        LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 1), (2, 1)]),
        LatticePolytope.from_vertices([(2, 0), (3, 0), (2, 1), (3, 1)]),
        LatticePolytope.from_vertices([(1, 1), (3, 1), (1, 2), (3, 2)]),
    ], 2))
    @example(([  # parallel slabs with gaps, two of them unbounded
        LatticePolytope.from_generators([(0, 0), (1, 0)], [(0, 1)]),
        LatticePolytope.from_generators([(2, 0), (3, 0)], [(0, 1)]),
        LatticePolytope.from_vertices([(0, -1), (1, -1), (0, -3), (1, -3)]),
    ], 2))
    @example(([  # flat triangles in rank 3 with opposite facets, the last two overlapping
        LatticePolytope.from_vertices([(x, y, 1 - x + 2 * y) for x, y in pts])
        for pts in (
            [(0, 0), (1, 0), (0, 1)],
            [(1, 0), (0, 1), (1, 1)],
            [(2, 0), (0, 2), (2, 2)],
            [(1, 1), (2, 1), (1, 2)],
        )
    ], 2))
    def test_disjointness_matches_oracle(self, problem):
        pieces, d = problem
        try:
            oracles.check_interior_disjoint(pieces, d)
        except PartitionError as exc:
            with pytest.raises(PartitionError) as err:
                _check_interior_disjoint(pieces, d)
            assert (str(err.value), err.value.witness) == (str(exc), exc.witness)
            return
        _check_interior_disjoint(pieces, d)

    @pytest.mark.parametrize(
        "name,edit",
        [
            ("gap", lambda ps: ps[1:]),
            ("duplicate", lambda ps: ps + ps[:1]),
            ("merged", lambda ps: [LatticePolytope.from_vertices(ps[0].vertices + ps[1].vertices)] + ps[1:]),
            ("reversed", lambda ps: ps[::-1]),
        ],
    )
    @pytest.mark.parametrize(
        "make",
        [
            lambda: partition_by_hyperplanes(
                LatticePolytope.from_vertices([(0, 0), (4, 0), (0, 4)]), [((1, 0), 1), ((0, 1), 2)]
            ),
            lambda: chain_partition(3, 2),
            lambda: segment_partition(0, 4, (1, 3)),
            lambda: octagon_partition(),
        ],
    )
    def test_overlaps_and_gaps_match_oracle(self, name, edit, make):
        part = make()
        pieces = edit(list(part.pieces))
        got = _outcome(build_partition, part.ambient, pieces)
        _assert_same(got, _oracle_outcome(build_partition, part.ambient, pieces))
        if name in ("gap", "duplicate", "merged"):
            assert got[0] == "PartitionError"


# -- the face-poset cover certificate against the volume certificate -------------


@st.composite
def t_junction_tilings(draw):
    """The box [0, 2]^d (d = 2 or 3) cut into the slab x_1 <= 1 and the two
    halves of x_1 >= 1 across x_2 = 1, so the slab's facet x_1 = 1 meets two
    facets: a tiling that is not face-to-face.  A random unimodular map and
    shift move it, and for d = 2 it may sit on a plane in rank 3."""
    d = draw(st.sampled_from([2, 3]))

    def box(lo, hi):
        return list(itertools.product(*[range(a, b + 1, max(b - a, 1)) for a, b in zip(lo, hi)]))

    rest = (2,) * (d - 2)
    zero = (0,) * (d - 2)
    boxes = [
        box((0, 0) + zero, (1, 2) + rest),
        box((1, 0) + zero, (2, 1) + rest),
        box((1, 1) + zero, (2, 2) + rest),
    ]
    ops = draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-2, 2)), max_size=3))
    matrix = unimodular_matrix(d, ops)
    shift = draw(st.tuples(*[st.integers(-2, 2)] * d))
    flat = d == 2 and draw(st.booleans())

    def image(p):
        q = tuple(sum(a * b for a, b in zip(row, p)) + s for row, s in zip(matrix, shift))
        return q + (1 - q[0] + 2 * q[1],) if flat else q

    pieces = [LatticePolytope.from_vertices([image(p) for p in b]) for b in boxes]
    ambient = LatticePolytope.from_vertices([image(p) for p in box((0,) * d, (2,) * d)])
    return ambient, pieces


@st.composite
def cover_problems(draw):
    """Pieces for a cover check, one of them possibly dropped: the chambers
    of hyperplane cuts, T-junction tilings, and random pieces in their hull,
    which leave gaps (or overlap, which is rejected before the cover check)."""
    kind = draw(st.sampled_from(["cuts", "t-junction", "hull"]))
    if kind == "cuts":
        ambient, cuts = draw(cut_problems())
        # the chambers as cut, before any cover check has a say
        with mock.patch.object(partition_module, "_check_cover", lambda *args: None):
            try:
                pieces = list(partition_by_hyperplanes(ambient, cuts).pieces)
            except GeometryError:
                assume(False)
    elif kind == "t-junction":
        ambient, pieces = draw(t_junction_tilings())
    else:
        pieces, _ = draw(piece_sets())
        try:
            ambient = LatticePolytope.from_generators(
                [v for p in pieces for v in p.vertices], [r for p in pieces for r in p.rays]
            )
        except UnsupportedGeometryError:
            assume(False)
    if len(pieces) > 1 and draw(st.booleans()):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    return ambient, pieces


class TestCoverCertificateAgainstVolumes:
    @given(cover_problems())
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_volume_oracle(self, problem):
        ambient, pieces = problem
        got = _outcome(build_partition, ambient, pieces)
        with mock.patch.object(
            partition_module, "_check_cover", lambda amb, faces, ps: oracles.check_cover(amb, ps)
        ):
            expected = _outcome(build_partition, ambient, pieces)
        gap = isinstance(expected, tuple) and expected[1].startswith("gap")
        if ambient.dim == ambient.ambient_rank or not gap:
            _assert_same(got, expected)
            return
        # lower-dimensional gap: the oracle's witness is in chart coordinates
        assert got[:2] == expected[:2]
        witness = got[2]
        assert ambient.contains(witness)
        assert not any(p.contains(witness) for p in pieces)

    def test_t_junction_tiling_is_accepted(self):
        ambient = LatticePolytope.from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)])
        pieces = [
            LatticePolytope.from_vertices([(0, 0), (1, 0), (0, 2), (1, 2)]),
            LatticePolytope.from_vertices([(1, 0), (2, 0), (1, 1), (2, 1)]),
            LatticePolytope.from_vertices([(1, 1), (2, 1), (1, 2), (2, 2)]),
        ]
        part = build_partition(ambient, pieces)
        slab_side = part.face_index[(((1, 0), (1, 2)), ())]
        assert slab_side.is_interior and slab_side.pieces == frozenset({0})
        with pytest.raises(PartitionError, match="gap") as err:
            build_partition(ambient, pieces[:2])
        assert err.value.witness == (Fraction(3, 2), Fraction(3, 2))


# -- a crossed region is split once, into both sides ---------------------------------


def _crossed_regions_refused():
    """``LatticePolytope.intersect`` patched to raise when a halfspace's
    hyperplane crosses the pointed region it is called on."""
    intersect = LatticePolytope.intersect

    def guarded(region, halfspaces=(), equations=()):
        for normal, offset in halfspaces:
            sides = [vdot(v, normal) + offset for v in region.vertices]
            sides += [vdot(r, normal) for r in region.rays]
            if sides and min(sides) < 0 < max(sides):
                raise AssertionError("a crossed pointed region was intersected")
        return intersect(region, halfspaces, equations)

    return mock.patch.object(LatticePolytope, "intersect", guarded)


def _verify_gap_problems(seed):
    """The ambient triangle and the two pieces of each gap job of the
    benchmark's ``verify`` workload for ``seed``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    problems = []
    for job in workloads.verify(seed):
        if job.name.startswith("gap-"):
            data = json.loads(job.spec)
            ambient = LatticePolytope.from_vertices(data["polytope"]["vertices"])
            pieces = [LatticePolytope.from_vertices(p) for p in data["partition"]["pieces"]]
            problems.append((job.name, ambient, pieces))
    return problems


class TestCrossedRegionsAreSplit:
    """``partition_by_hyperplanes`` and ``_uncovered_point`` split a crossed
    pointed region with ``LatticePolytope.split``; ``intersect`` is left for
    whole-space regions and regions inside the hyperplane.  The difference
    must find the witness the loop with two intersections per piece facet
    (``oracles.uncovered_point``) finds."""

    @given(cut_problems())
    @settings(max_examples=150, deadline=None)
    def test_hyperplane_partition_splits(self, problem):
        ambient, cuts = problem
        with _crossed_regions_refused():
            _outcome(partition_by_hyperplanes, ambient, cuts)

    @given(cover_problems())
    @settings(max_examples=150, deadline=None)
    def test_uncovered_point_matches_the_two_intersections(self, problem):
        ambient, pieces = problem
        if not all(p.dim == ambient.dim and ambient.contains_polyhedron(p) for p in pieces):
            return  # refused before the cover check
        with _crossed_regions_refused():
            got = _uncovered_point(ambient, pieces)
        _assert_same(got, oracles.uncovered_point(ambient, pieces))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_verify_gap_witnesses(self, seed):
        problems = _verify_gap_problems(seed)
        assert problems
        for name, ambient, pieces in problems:
            with _crossed_regions_refused():
                got = _uncovered_point(ambient, pieces)
            assert got is not None, name
            _assert_same(got, oracles.uncovered_point(ambient, pieces))


class TestPairsSettledByLookups:
    """Chambers of grid and parallel cuts store opposite halfspaces of every
    cut between them, so the tiling check settles every pair by lookup and
    intersects none, and the chambers are ordered by integer keys, with no
    interior point."""

    @pytest.mark.parametrize(
        "ambient, cuts, pieces",
        [
            (
                LatticePolytope.from_vertices([(0, 0), (9, 0), (9, 6), (0, 6)]),
                [((1, 0), 3), ((1, 0), 7), ((0, 1), 2), ((0, 1), 5)],
                9,
            ),
            (
                LatticePolytope.from_vertices([(0, 0), (40, 0), (0, 40)]),
                [((1, 1), c) for c in range(2, 38, 2)],
                19,
            ),
        ],
    )
    def test_no_pair_scans_a_vertex_and_no_interior_point(self, ambient, cuts, pieces):
        refused = AssertionError("a pair was intersected, or an interior point was built")
        with mock.patch.object(
            LatticePolytope, "intersect_polyhedron", side_effect=refused
        ), mock.patch.object(LatticePolytope, "relative_interior_point", side_effect=refused):
            got = _outcome(partition_by_hyperplanes, ambient, cuts)
        assert len(got) == pieces
        _assert_same(got, _oracle_outcome(oracles.partition_by_hyperplanes, ambient, cuts))


class TestFaceBudget:
    """The piece walks of ``_collect_faces`` count their faces and refuse a
    partition past ``FACE_BUDGET``."""

    def test_refused_past_the_budget_with_the_count(self, monkeypatch):
        part = octagon_partition()
        walked = sum(len(p.faces()) for p in part.pieces)
        monkeypatch.setattr(partition_module, "FACE_BUDGET", walked)
        assert build_partition(part.ambient, part.pieces).face_index == part.face_index
        monkeypatch.setattr(partition_module, "FACE_BUDGET", walked - 1)
        with pytest.raises(UnsupportedGeometryError) as refused:
            build_partition(part.ambient, part.pieces)
        assert str(refused.value) == f"partition face walk over {walked} faces"

    def test_refusal_comes_before_any_walk(self, monkeypatch):
        part = octagon_partition()
        first = len(part.pieces[0].faces())
        monkeypatch.setattr(partition_module, "FACE_BUDGET", first - 1)
        counts = []
        count = partition_module._face_count
        with mock.patch.object(
            partition_module, "_face_walk", side_effect=AssertionError("face walk")
        ), mock.patch.object(
            partition_module, "_face_count", side_effect=lambda p: counts.append(p) or count(p)
        ), pytest.raises(UnsupportedGeometryError, match=f"over {first} faces"):
            build_partition(part.ambient, part.pieces)
        assert counts == [part.pieces[0]]

    def test_refused_at_the_first_piece_past_the_budget(self, monkeypatch):
        part = octagon_partition()
        sizes = [len(p.faces()) for p in part.pieces]
        monkeypatch.setattr(partition_module, "FACE_BUDGET", sizes[0] + sizes[1] - 1)
        with mock.patch.object(partition_module, "_face_walk", side_effect=AssertionError("face walk")):
            with pytest.raises(UnsupportedGeometryError) as refused:
                build_partition(part.ambient, part.pieces)
        assert str(refused.value) == f"partition face walk over {sizes[0] + sizes[1]} faces"

    def test_no_exact_count_within_the_bounds(self, monkeypatch):
        part = octagon_partition()
        bound = sum(len(p.vertices) << p.dim for p in part.pieces)
        monkeypatch.setattr(partition_module, "FACE_BUDGET", bound)
        with mock.patch.object(partition_module, "_face_count", side_effect=AssertionError("counted")):
            assert build_partition(part.ambient, part.pieces).face_index == part.face_index

    def test_staircase_11_refused_before_any_walk(self):
        ambient, fan = reflexive_simplex(11), staircase_fan(11)
        with mock.patch.object(
            partition_module, "_face_walk", side_effect=AssertionError("face walk")
        ), pytest.raises(UnsupportedGeometryError) as refused:
            partition_from_fan(ambient, fan)
        assert str(refused.value) == "partition face walk over 1062882 faces"


def _walk_length(poly):
    """The number of faces one ``_face_walk`` of the polyhedron lists."""
    gens = poly.vertices + poly.rays
    top, nv = (1 << len(gens)) - 1, len(poly.vertices)
    return len(_face_walk(poly._incidence, top, poly.dim, poly._facet_sets, gens, nv))


@st.composite
def simple_polyhedra(draw):
    """Boxes, some open upwards in a few coordinates, cut by up to two
    halfspaces in rank 1-4 and kept when simple, then pushed into rank up
    to 2 higher by an injective integer map and a shift: compact or
    unbounded, full- or lower-dimensional."""
    k = draw(st.integers(1, 4))
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    hs = [(u, 0) for u in units]
    for u in units:
        width = draw(st.one_of(st.none(), st.integers(1, 3)))
        if width is not None:
            hs.append((tuple(-x for x in u), width))
    normal = st.tuples(*[st.integers(-2, 2)] * k).filter(any)
    hs += draw(st.lists(st.tuples(normal, st.integers(-1, 6)), max_size=2))
    try:
        poly = LatticePolytope.from_halfspaces(hs, k)
    except EmptyPolyhedronError:
        assume(False)
    assume(poly.dim == k and poly.is_simplicial())
    n = draw(st.integers(k, k + 2))
    extra = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=n - k, max_size=n - k))
    rows = draw(st.permutations(units + extra))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * n))

    def image(v, t):
        return tuple(vdot(row, v) + s for row, s in zip(rows, t))

    return LatticePolytope.from_generators(
        [image(v, shift) for v in poly.vertices], [image(r, (0,) * n) for r in poly.rays]
    )


class TestFaceCount:
    """The faces of a simple pointed polyhedron counted from its vertices'
    upward edges, against the face walk."""

    @given(simple_polyhedra())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_walk(self, poly):
        assert poly.is_simplicial()
        assert partition_module._face_count(poly) == _walk_length(poly)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_staircase_pieces(self, n):
        for piece in staircase_partition(n).pieces:
            assert partition_module._face_count(piece) == _walk_length(piece) == 3**n

    @pytest.mark.parametrize(
        "poly",
        [
            LatticePolytope.from_vertices([(1, 2)]),
            LatticePolytope.from_vertices([(0, 0, 0), (2, 2, 2)]),
            LatticePolytope.from_generators([(0, 0)], [(1, 0), (0, 1)]),
            LatticePolytope.from_generators([(0, 0, 1), (1, 0, 1)], [(0, 1, 0)]),
        ],
    )
    def test_points_segments_and_cones(self, poly):
        assert partition_module._face_count(poly) == _walk_length(poly)


# -- the face closure over shared generator ids against the per-piece merge -------


def _assert_faces_match_oracle(part):
    """Every partition face, field by field and in ``face_index`` order,
    ``faces()`` and ``faces(dim)`` in ``(dim, key)`` order, and the
    semi-stability witness, as the oracle's merge of the pieces' face
    lattices gives them."""
    expected = oracles.collect_faces(part.ambient, part.pieces)
    in_order = sorted(expected.values(), key=lambda f: (f.dim, f.key))
    _assert_same(part.semistable_witness(), oracles.semistable_witness(in_order))
    _assert_same(list(part.face_index.items()), list(expected.items()))
    _assert_same(part.faces(), in_order)
    for dim in range(-1, part.dim + 2):
        _assert_same(part.faces(dim), [f for f in in_order if f.dim == dim])


@st.composite
def face_cut_problems(draw):
    """A simplex of rank 1-3 or the octagon, cut by 1-3 random hyperplanes
    or by a chain of parallel ones, the whole possibly embedded at z = 0 in
    one rank more."""
    if draw(st.booleans()):
        rank = draw(st.integers(1, 3))
        vertices = dilated_simplex(draw(st.integers(1, 4)), rank).vertices
    else:
        rank = 2
        vertices = octagon_partition().ambient.vertices
    normal = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    if draw(st.booleans()):
        n, start = draw(normal), draw(st.integers(-2, 4))
        cuts = [(n, start + j) for j in range(draw(st.integers(1, 3)))]
    else:
        cuts = draw(st.lists(st.tuples(normal, st.integers(-2, 5)), min_size=1, max_size=3))
    if draw(st.booleans()):
        vertices = [v + (0,) for v in vertices]
        cuts = [(n + (draw(st.integers(-1, 1)),), c) for n, c in cuts]
    return LatticePolytope.from_vertices(vertices), cuts


def _fresh(poly):
    """The same polyhedron without the caches of earlier tests."""
    if poly.is_whole_space:
        return LatticePolytope.from_halfspaces([], poly.ambient_rank)
    return LatticePolytope.from_generators(poly.vertices, poly.rays)


def _one_piece(vertices):
    poly = LatticePolytope.from_vertices(vertices)
    return build_partition(poly, [poly])


@st.composite
def grid_problems(draw):
    """A box or a dilated simplex in rank 2-4, or the orthant in rank 2-3,
    cut by up to two hyperplanes ``x_i = c`` per axis (one in rank 4),
    possibly embedded at ``z = 0`` in one rank more.  Cuts on two axes
    meeting inside make the partition fail the count rule."""
    kind = draw(st.sampled_from(["box", "simplex", "orthant"]))
    rank = draw(st.integers(2, 3 if kind == "orthant" else 4))
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    offsets = st.sets(st.integers(1, 3), max_size=2 if rank < 4 else 1)
    cuts = [(u, c) for u in units for c in sorted(draw(offsets))]
    assume(cuts)
    embed = draw(st.booleans())
    if kind == "orthant":
        pad = (0,) * embed
        equations = [((0,) * rank + (1,), 0)] if embed else []
        ambient = LatticePolytope.from_halfspaces([(u + pad, 0) for u in units], rank + embed, equations)
        return ambient, [(n + pad, c) for n, c in cuts]
    if kind == "box":
        vertices = list(itertools.product((0, 4), repeat=rank))
    else:
        vertices = dilated_simplex(4, rank).vertices
    if embed:
        vertices = [v + (0,) for v in vertices]
        cuts = [(n + (draw(st.integers(-1, 1)),), c) for n, c in cuts]
    return LatticePolytope.from_vertices(vertices), cuts


@st.composite
def fan_problems(draw):
    """The fan of ``rank + 1`` rays in one positive relation, in rank 2-3,
    cut by the box ``[-a, a]^rank`` or by the hull of the rays scaled by
    ``t``."""
    rank = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    basis = draw(st.lists(vec, min_size=rank, max_size=rank))
    weights = draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank))
    last = tuple(-sum(w * r[k] for w, r in zip(weights, basis)) for k in range(rank))
    try:
        fan = complete_fan_from_rays(basis + [last])
    except GeometryError:
        assume(False)
    if draw(st.booleans()):
        a = draw(st.integers(1, 3))
        ambient = LatticePolytope.from_vertices(list(itertools.product((-a, a), repeat=rank)))
    else:
        t = draw(st.integers(1, 2))
        ambient = LatticePolytope.from_vertices([tuple(t * x for x in r) for r in fan.rays])
    return ambient, fan


class TestFaceTableAgainstOracle:
    """The face table read through ``faces()``, ``faces(dim)``,
    ``face_index`` and ``semistable_witness`` against the per-piece merge
    and the first violating face in ``(dim, key)`` order, on accepted and
    rejected partitions."""

    @given(grid_problems())
    @settings(max_examples=60, deadline=None)
    def test_grids(self, problem):
        ambient, cuts = problem
        try:
            part = partition_by_hyperplanes(ambient, cuts)
        except GeometryError:
            assume(False)
        _assert_faces_match_oracle(part)

    @given(fan_problems())
    @settings(max_examples=60, deadline=None)
    def test_fans(self, problem):
        ambient, fan = problem
        try:
            part = partition_from_fan(ambient, fan)
        except GeometryError:
            assume(False)
        _assert_faces_match_oracle(part)

    @given(face_cut_problems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_explicit_pieces_in_any_order(self, problem, data):
        ambient, cuts = problem
        try:
            part = partition_by_hyperplanes(ambient, cuts)
        except GeometryError:
            assume(False)
        pieces = [_fresh(p) for p in data.draw(st.permutations(part.pieces))]
        _assert_faces_match_oracle(build_partition(_fresh(ambient), pieces))

    @pytest.mark.parametrize(
        "ambient,cuts",
        [
            (LatticePolytope.from_vertices([(0, 0), (4, 0), (4, 3), (0, 3)]), [((1, 0), 2), ((0, 1), 1)]),
            (LatticePolytope.from_vertices(list(itertools.product((0, 2), repeat=3))), [((1, 0, 0), 1), ((0, 0, 1), 1)]),
            (LatticePolytope.from_vertices(list(itertools.product((0, 2), repeat=4))), [((0, 1, 0, 0), 1), ((0, 0, 0, 1), 1)]),
            (LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2), [((1, 0), 1), ((0, 1), 1)]),
            (LatticePolytope.from_vertices([(0, 0, 0), (4, 0, 0), (0, 4, 0)]), [((1, 0, 0), 1), ((0, 1, 1), 1)]),
        ],
        ids=["rectangle", "cube", "4-cube", "orthant", "triangle-at-z-0"],
    )
    def test_rejected_grids(self, ambient, cuts):
        part = partition_by_hyperplanes(ambient, cuts)
        assert part.semistable_witness() is not None
        _assert_faces_match_oracle(part)


class TestStarAgainstEdgeScan:
    """The star at every vertex and the edge index, read off the face
    table's edge records, against the scan of every partition edge on cut
    partitions: edges ending in a ray, vertices on the boundary, embedded
    ambients and partitions refused at a vertex."""

    @given(cut_problems())
    @settings(max_examples=100, deadline=None)
    @example((LatticePolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2), [((1, -1), 0), ((1, 1), 3)]))
    @example((LatticePolytope.from_halfspaces([], 2), [((1, 0), 0), ((0, 1), 1)]))
    @example((LatticePolytope.from_vertices([(0, 0, 1), (4, 0, 1), (0, 4, 1)]), [((1, 0, 0), 1), ((1, 0, 0), 2)]))
    @example((LatticePolytope.from_vertices([(0, 0), (4, 0), (4, 3), (0, 3)]), [((1, 0), 2), ((0, 1), 1)]))
    def test_cut_partitions(self, problem):
        ambient, cuts = problem
        try:
            part = partition_by_hyperplanes(ambient, cuts)
        except GeometryError:
            assume(False)
        _assert_star_matches_oracle(part)

    @given(fan_problems())
    @settings(max_examples=60, deadline=None)
    @example((  # weights (1, 2, 1) at the origin: the star keeps each edge's own
        LatticePolytope.from_vertices(list(itertools.product((-2, 2), repeat=2))),
        complete_fan_from_rays([(-1, -1), (0, 1), (1, -1)]),
    ))
    def test_fan_partitions(self, problem):
        ambient, fan = problem
        try:
            part = partition_from_fan(ambient, fan)
        except GeometryError:
            assume(False)
        _assert_star_matches_oracle(part)


class TestFaceClosureAgainstOracle:
    @given(face_cut_problems())
    @settings(max_examples=100, deadline=None)
    def test_cuts_of_simplices_octagons_and_chains(self, problem):
        ambient, cuts = problem
        try:
            part = partition_by_hyperplanes(ambient, cuts)
        except GeometryError:
            assume(False)
        _assert_faces_match_oracle(part)

    @given(cut_problems())
    @settings(max_examples=100, deadline=None)
    def test_cuts_of_any_ambient(self, problem):
        # hulls of any dimension, polygons on a plane in rank 3, unbounded
        # halfspace systems and the whole space
        ambient, cuts = problem
        try:
            part = partition_by_hyperplanes(ambient, cuts)
        except GeometryError:
            assume(False)
        _assert_faces_match_oracle(part)

    @pytest.mark.parametrize(
        "make",
        [
            *[lambda n=n: staircase_partition(n) for n in range(2, 6)],
            lambda: torus_fan_partition(2),
            lambda: torus_fan_partition(3),
            lambda: expanded_degeneration_partition(3),
            lambda: chain_partition(4, k=2),
            lambda: _one_piece([(0, 0), (2, 0), (0, 2)]),
            lambda: _one_piece([(0, 0, 0), (2, 0, 0), (0, 2, 0)]),
            lambda: _one_piece([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]),
            lambda: _one_piece([(1,), (4,)]),
            lambda: _one_piece([(1, 2)]),
            lambda: segment_partition(0, 4, (1, 3)),
        ],
        ids=[
            *[f"staircase-{n}" for n in range(2, 6)],
            "torus-fan-2",
            "torus-fan-3",
            "expanded-line",
            "chain-4-k2",
            "one-triangle",
            "one-triangle-at-z-0",
            "one-simplex",
            "one-segment",
            "one-point",
            "segment-cuts",
        ],
    )
    def test_fixed_partitions(self, make):
        _assert_faces_match_oracle(make())

    @pytest.mark.parametrize("name,part", accepted_partitions())
    def test_restrictions(self, name, part):
        for face in part.ambient.faces():
            if face.dim < part.ambient.dim:
                _assert_faces_match_oracle(restrict(part, face))

    @pytest.mark.parametrize(
        "name,cached", [*accepted_partitions(), ("torus-fan-2", torus_fan_partition(2))]
    )
    def test_no_face_lattice_is_built(self, name, cached):
        # fresh polytopes: the corpus partitions carry the caches of earlier
        # tests; neither the build nor the count rule lists the faces of any
        # polytope, the ambient's included
        ambient = _fresh(cached.ambient)
        pieces = [_fresh(p) for p in cached.pieces]
        faces = LatticePolytope.faces
        with mock.patch.object(LatticePolytope, "faces", autospec=True, side_effect=faces) as wrapped:
            build_partition(ambient, pieces).classify()
        assert wrapped.call_args_list == [], name
