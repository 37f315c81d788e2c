"""Acceptance suite: one test per criterion, one printed line per criterion.

All checks are exact (integer / rational equality); there are no numeric
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines as they print.
"""

import contextlib
from fractions import Fraction
from math import gcd

import pytest

from toricdegen import (
    DualComplex,
    LatticePolytope,
    SupportFunction,
    build_report,
    extend_support_function,
    family_equations,
    integrate_cocycle,
    iterated_lift,
    lattice_equivalent,
    lift_polytope,
    lifting_function,
    local_charts,
    minimal_integral_lifting,
    normal_fan,
    partition_from_fan,
    wall_functions,
    check_cocycle,
)

import oracles

from corpus import (
    accepted_partitions,
    chain_partition,
    expanded_degeneration_partition,
    liftable_partitions,
    octagon_partition,
    reflexive_simplex,
    segment,
    staircase_fan,
    staircase_partition,
    torus_fan_partition,
    triptych,
    weighted_projective_simplex,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


def test_criterion_01_triptych():
    with criterion(1, "corner-cut and three-quad partitions accepted, third rejected with witness"):
        a, b, c = triptych()
        assert a.is_semistable()
        assert b.is_semistable()
        witness = c.semistable_witness()
        assert witness is not None
        face, ambient_face, count = witness
        assert face.vertices == ((1, 1),)
        assert ambient_face.dim == 2
        assert count == 2  # three pieces are required around an interior vertex


def test_criterion_02_staircase_partitions():
    with criterion(2, "staircase partitions of the reflexive simplex, n = 2, 3, 4"):
        for n in (2, 3, 4):
            part = staircase_partition(n)
            flags = part.classify()
            assert flags["semistable"] and flags["nonsingular"]
            assert len(part.pieces) == n + 1
            # all pieces pairwise lattice-equivalent
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    assert lattice_equivalent(part.pieces[i], part.pieces[j]) is not None, (n, i, j)
            # the piece at the corner e_0 is bounded by sum_{i<=j} x_i = 0
            e0 = tuple(-1 for _ in range(n))
            corner = [p for p in part.pieces if p.contains(e0)]
            assert len(corner) == 1
            walls = {
                h.normal for h in corner[0].halfspaces if Fraction(h.offset) == 0
            }
            expected = {
                tuple(-1 if i < j else 0 for i in range(n)) for j in range(1, n + 1)
            }
            assert walls == expected
            # dual-graph claim for the hypersurface degeneration: the
            # boundary of the n-simplex; the full dual complex itself carries
            # the top simplex dual to the interior vertex
            dual = part.dual_complex()
            assert dual.hypersurface_complex().same_as(DualComplex.simplex_boundary(n))
            assert dual.same_as(DualComplex.full_simplex(n))


def test_criterion_03_weighted_projective_partition():
    with criterion(3, "P(1,1,2,2,2) partition semi-stable, balanced, mildly singular"):
        # Taken literally this fails: the fan ray (-1,1,0,0) leaves the
        # simplex through the relative interior of a 2-face, so its exit
        # point lies on four pieces (three are required) and two pieces are
        # not simplicial there.  See the decisions ledger for the analysis.
        part = partition_from_fan(weighted_projective_simplex(), staircase_fan(4))
        flags = part.classify()
        assert flags["semistable"]
        assert flags["balanced"]
        assert flags["mildly_singular"]
        assert not flags["nonsingular"]
        assert flags["maximal_vertices"] == ((0, 0, 0, 0),)
        assert part.vertex_is_nonsingular((0, 0, 0, 0))
        lifting = lifting_function(part)
        points = weighted_projective_simplex().lattice_points()
        assert len(points) == 105
        assert all(lifting.function.value(p).denominator == 1 for p in points)


def test_criterion_04_lifting_engine():
    with criterion(4, "cocycle closure, positive concavity, uniqueness, minimal scaling"):
        for name, part, lifting, lifted in liftable_partitions():
            alpha = wall_functions(part)
            dual = part.dual_complex()
            ok, witness = check_cocycle(alpha, dual)
            assert ok, (name, witness)
            raw = integrate_cocycle(alpha, dual, part)
            assert all(c > 0 for c in lifting.concavities.values()), name
            # uniqueness modulo global affine functions across anchor choices
            other = integrate_cocycle(alpha, dual, part, root=len(part.pieces) - 1)
            assert raw.difference(other).is_global_affine(), name
            # minimal integral scaling against the brute-force oracle
            if part.ambient.is_compact:
                values = [raw.value(p) for p in part.ambient.lattice_points()]
                denom = 1
                for v in values:
                    denom = denom * v.denominator // gcd(denom, v.denominator)
                num = 0
                for v in values:
                    num = gcd(num, int(v * denom))
                oracle = Fraction(denom, num) if num else Fraction(1)
                assert minimal_integral_lifting(raw).scale == oracle, name


CONSTRUCTION_CORPUS = ("staircase-2", "staircase-3", "chain-4", "chain-4-k2", "octagon")


def test_criterion_05_lifted_polytope_conditions():
    with criterion(5, "one lift per face, face projections, nonsingularity with unit concavity"):
        lifted_by_name = {
            name: (part, lifting, lifted)
            for name, part, lifting, lifted in liftable_partitions()
        }
        for name in CONSTRUCTION_CORPUS:
            part, lifting, lifted = lifted_by_name[name]
            # exactly one lift of every partition face
            assert set(lifted.lift_map) == set(part.face_index), name
            images = [f.key for f in lifted.lift_map.values()]
            assert len(images) == len(set(images)), name
            # every face projects onto a base face or a partition face
            base_keys = {f.key for f in part.ambient.faces()}
            partition_keys = set(part.face_index)
            for face in lifted.polytope.faces():
                pts = [v[:-1] for v in face.vertices]
                rays = [r[:-1] for r in face.rays if any(r[:-1])]
                shadow = LatticePolytope.from_generators(pts, rays)
                assert shadow.key in base_keys or shadow.key in partition_keys, (name, face.key)
            # nonsingular whenever the concavity profile is all ones
            if part.classify()["nonsingular"] and lifting.unit_concavity:
                assert lifted.nonsingular, name


def test_criterion_06_chart_structure():
    with criterion(6, "monomial factor counts and the lifted edge-sum identity"):
        lifted_by_name = {
            name: (part, lifting, lifted)
            for name, part, lifting, lifted in liftable_partitions()
        }
        corpus = [lifted_by_name[name] for name in CONSTRUCTION_CORPUS]
        corpus.append((torus_fan_partition(2), None, _lift(torus_fan_partition(2))))
        for part, lifting, lifted in corpus:
            charts, skipped = local_charts(lifted, strict=False)
            assert not skipped or not part.classify()["nonsingular"]
            base = part.ambient
            n = base.ambient_rank
            base_vertices = set() if base.is_whole_space else set(base.vertices)
            for chart in charts:
                assert chart.factor_count == chart.face_dim + 1
                if chart.vertex in base_vertices:
                    assert chart.factor_count == 1
                if not base.is_whole_space and base.smallest_face_containing([chart.vertex]).dim == n:
                    assert chart.factor_count == n + 1
            if lifted.lifting.unit_concavity:
                vertical = tuple([0] * n + [1])
                for vf in part.faces(0):
                    assert lifted.edge_sum(vf.vertices[0]) == vertical


def _lift(part):
    return lift_polytope(part, lifting_function(part))


def test_criterion_07_chain_k2_component_classes():
    with criterion(7, "two-cut chain components pair up: ends together, middles together"):
        part = chain_partition(4, k=2)
        report = build_report(_lift(part))
        assert report.component_classes == ((0, 3), (1, 2))
        assert lattice_equivalent(part.pieces[0], part.pieces[1]) is None


def test_criterion_08_quartic_family_equations():
    with criterion(8, "quartic family: 35 monomials, exponents vanish exactly on the anchor piece"):
        part = chain_partition(4)
        lifted = _lift(part)
        fam = family_equations(lifted)
        assert len(fam.points) == 35
        anchor_points = {
            p for p in fam.points if part.pieces[fam.anchor].contains(p)
        }
        for point, exponent in zip(fam.points, fam.exponents):
            if point in anchor_points:
                assert exponent == 0
            else:
                assert exponent > 0


def test_criterion_09_multi_base_and_extension():
    with criterion(9, "iterated lift equals the one-shot construction; support function extends"):
        multi = iterated_lift(segment(0, 4), (1,), [1, 2, 3])
        assert set(multi.polytope.vertices) == {
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (2, 1, 0, 0),
            (3, 2, 1, 0),
            (4, 3, 2, 1),
        }
        final_step = multi.intermediates[-1].polytope
        assert set(final_step.vertices) == set(multi.polytope.vertices)
        assert set(final_step.rays) == set(multi.polytope.rays)
        # convex extension over a compact single-cut lift
        from corpus import segment_partition

        part = segment_partition(0, 2, (1,))
        capped = lift_polytope(part, lifting_function(part), compact_cap=True)
        base_fan = normal_fan(part.ambient)
        phi = SupportFunction(base_fan, [-1] * len(base_fan.rays))
        ext = extend_support_function(phi, capped)
        assert ext.classify() in ("convex", "strictly-convex")
        for ray, value in zip(base_fan.rays, phi.values):
            assert ext.values[oracles.ray_index(ext.fan, ray + (0,))] == value
        for ray, value in zip(ext.fan.rays, ext.values):
            if ray[-1] > 0:
                assert value == 0


def test_criterion_10_noncompact_bases():
    with criterion(10, "expanded degeneration of the line; torus partition gives one chart"):
        for cuts in (1, 3):
            part = expanded_degeneration_partition(cuts)
            lifted = _lift(part)
            expected = {(j, j * (j + 1) // 2) for j in range(cuts + 1)}
            assert set(lifted.polytope.vertices) == expected
            assert set(lifted.polytope.rays) == {(-1, 0), (1, cuts + 1)}
            report = build_report(lifted)
            assert report.dual_graph.same_as(DualComplex.path(cuts + 2))
            assert all(c.factor_count == 2 for c in report.charts)
        for n in (2, 3):
            part = torus_fan_partition(n)
            charts, skipped = local_charts(_lift(part))
            assert skipped == ()
            assert len(charts) == 1
            assert charts[0].factor_count == n + 1


def test_criterion_11_support_function_classifier():
    with criterion(11, "anticanonical support functions strictly convex; line bundles on the line"):
        for n in (2, 3, 4):
            fan = normal_fan(reflexive_simplex(n))
            phi = SupportFunction(fan, [-1] * len(fan.rays))
            assert phi.classify() == "strictly-convex"
        fan1 = normal_fan(segment(0, 1))
        for d in (1, 2, 5):
            values = [0 if r == (1,) else -d for r in fan1.rays]
            poly = SupportFunction(fan1, values).divisor_polytope()
            assert set(poly.vertices) == {(0,), (d,)}
            assert len(poly.lattice_points()) == d + 1
