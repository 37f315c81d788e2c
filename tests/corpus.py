"""Shared geometric fixtures used across the test modules.

Everything is cached: partitions are immutable after construction, and the
higher-dimensional ones are the expensive part of the suite.
"""

from functools import lru_cache

from hypothesis import strategies as st

from toricdegen import (
    GeometryError,
    LatticePolytope,
    build_partition,
    complete_fan_from_rays,
    lift_polytope,
    lifting_function,
    partition_by_hyperplanes,
    partition_from_fan,
)


def staircase_rays(n):
    """e_1, e_2 - e_1, ..., e_n - e_{n-1}, -e_n: the projective-space fan rays
    in the skew basis whose chambers cut the reflexive simplex evenly."""
    rays = [tuple(1 if j == 0 else 0 for j in range(n))]
    for i in range(n - 1):
        rays.append(tuple(1 if j == i + 1 else (-1 if j == i else 0) for j in range(n)))
    rays.append(tuple(-1 if j == n - 1 else 0 for j in range(n)))
    return rays


def unimodular_matrix(rank, ops):
    """The product of the elementary row operations ``row_i += c * row_j``
    (``i != j``) given as ``(i, j, c)`` triples, applied to the identity."""
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j, c in ops:
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows]


@lru_cache(maxsize=None)
def staircase_fan(n):
    return complete_fan_from_rays(tuple(staircase_rays(n)))


@lru_cache(maxsize=None)
def reflexive_simplex(n):
    """conv{e_0, e_0 + (n+1) e_i} with e_0 = (-1, ..., -1): projective space."""
    e0 = tuple(-1 for _ in range(n))
    verts = [e0] + [
        tuple(-1 + (n + 1 if j == i else 0) for j in range(n)) for i in range(n)
    ]
    return LatticePolytope.from_vertices(verts)


@lru_cache(maxsize=None)
def staircase_partition(n):
    """The reflexive simplex cut by the chambers of the staircase fan."""
    return partition_from_fan(reflexive_simplex(n), staircase_fan(n))


@lru_cache(maxsize=None)
def dilated_simplex(d, rank=3):
    """{x >= 0, sum x <= d}."""
    hs = [(tuple(int(i == j) for j in range(rank)), 0) for i in range(rank)]
    hs.append((tuple(-1 for _ in range(rank)), d))
    return LatticePolytope.from_halfspaces(hs, rank)


@lru_cache(maxsize=None)
def chain_partition(d, k=3, rank=3):
    """Cuts sum_{i<=k} x_i = 1..d-1 of the dilated simplex."""
    normal = tuple(1 if i < k else 0 for i in range(rank))
    return partition_by_hyperplanes(dilated_simplex(d, rank), [(normal, j) for j in range(1, d)])


@lru_cache(maxsize=None)
def segment(a, b):
    return LatticePolytope.from_halfspaces([((1,), -a), ((-1,), b)], 1)


@lru_cache(maxsize=None)
def segment_partition(a, b, cuts):
    return partition_by_hyperplanes(segment(a, b), [((1,), c) for c in cuts])


@lru_cache(maxsize=None)
def triptych():
    """The three candidate partitions of conv{(0,0),(3,0),(0,3)}: the first
    two semi-stable, the third not."""
    t = LatticePolytope.from_vertices([(0, 0), (3, 0), (0, 3)])
    a = partition_by_hyperplanes(t, [((1, 1), 2)])
    b = build_partition(
        t,
        [
            LatticePolytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 2)]),
            LatticePolytope.from_vertices([(1, 0), (3, 0), (2, 1), (1, 1)]),
            LatticePolytope.from_vertices([(0, 2), (1, 1), (2, 1), (0, 3)]),
        ],
    )
    c = build_partition(
        t,
        [
            LatticePolytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 3)]),
            LatticePolytope.from_vertices([(0, 3), (1, 1), (1, 2)]),
            LatticePolytope.from_vertices([(1, 0), (3, 0), (1, 2), (1, 1)]),
        ],
    )
    return a, b, c


@lru_cache(maxsize=None)
def pentagon_corner_fan():
    """The pentagon (0,0), (2,0), (3,2), (1,3), (-1,1) cut into the fan of
    triangles from its corner (0,0): every wall runs corner to corner and is
    anchored at (0,0), a vertex of all three pieces."""
    corners = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]
    fan = [[corners[0], corners[k], corners[k + 1]] for k in range(1, 4)]
    return build_partition(
        LatticePolytope.from_vertices(corners), [LatticePolytope.from_vertices(t) for t in fan]
    )


@lru_cache(maxsize=None)
def octagon_partition():
    """The nonsingular octagon cut at x = 2; not a blow-up composition."""
    octagon = LatticePolytope.from_vertices(
        [(0, 2), (1, 1), (3, 1), (4, 2), (4, 3), (3, 4), (1, 4), (0, 3)]
    )
    return partition_by_hyperplanes(octagon, [((1, 0), 2)])


@lru_cache(maxsize=None)
def mildly_singular_triangle():
    """Balanced and mildly singular but not nonsingular: three cuts from the
    interior vertex (1,2) whose directions sum to zero; the boundary vertex
    (2,0) has edge basis (-1,0),(-1,2) of determinant 2."""
    t = LatticePolytope.from_vertices([(0, 0), (4, 0), (0, 4)])
    return build_partition(
        t,
        [
            LatticePolytope.from_vertices([(0, 0), (2, 0), (1, 2), (0, 3)]),
            LatticePolytope.from_vertices([(2, 0), (4, 0), (1, 3), (1, 2)]),
            LatticePolytope.from_vertices([(0, 3), (1, 2), (1, 3), (0, 4)]),
        ],
    )


@lru_cache(maxsize=None)
def whole_space(n):
    return LatticePolytope.from_halfspaces([], n)


@lru_cache(maxsize=None)
def torus_fan_partition(n):
    """The whole space partitioned by the staircase fan chambers."""
    return partition_from_fan(whole_space(n), staircase_fan(n))


@lru_cache(maxsize=None)
def expanded_degeneration_partition(l):
    """The real line cut at 0..l."""
    return partition_by_hyperplanes(whole_space(1), [((1,), j) for j in range(l + 1)])


@lru_cache(maxsize=None)
def weighted_projective_simplex():
    """conv{e_0, e_0+8e_1, e_0+4e_2, e_0+4e_3, e_0+4e_4}: P(1,1,2,2,2)."""
    e0 = (-1, -1, -1, -1)
    return LatticePolytope.from_vertices(
        [e0, (7, -1, -1, -1), (-1, 3, -1, -1), (-1, -1, 3, -1), (-1, -1, -1, 3)]
    )


def accepted_partitions():
    """Corpus of valid semi-stable partitions for property sweeps."""
    return [
        ("segment-0-3-cut-1-2", segment_partition(0, 3, (1, 2))),
        ("triangle-corner-cut", triptych()[0]),
        ("triangle-three-quads", triptych()[1]),
        ("staircase-2", staircase_partition(2)),
        ("staircase-3", staircase_partition(3)),
        ("chain-4", chain_partition(4)),
        ("chain-4-k2", chain_partition(4, k=2)),
        ("octagon", octagon_partition()),
        ("mildly-singular-triangle", mildly_singular_triangle()),
    ]


def liftable_partitions():
    """Accepted partitions together with their verified lifted polytopes."""
    out = []
    for name, part in accepted_partitions():
        lifting = lifting_function(part)
        out.append((name, part, lifting, lift_polytope(part, lifting)))
    return out


@st.composite
def lift_partitions(draw):
    """Partitions for the differential tests of what is read off the pieces
    with no scan of theirs; None when the draw gives no partition.

    - a dilated triangle or the octagon under one or two cuts, some leaving
      rational piece vertices, whose pieces are scanned;
    - a torus fan in rank 2 or 3, all of its pieces unbounded;
    - an iterated-lift intermediate: a triangle cut once, lifted with or
      without a cap, then cut along the next parallel cut;
    - the triangle at ``z = 0`` cut by ``x + y = 2``, a lower-dimensional
      base;
    - a dilate of conv{0, (2, 1), (1, 2)}, which has no smooth vertex, as
      one piece or cut along its diagonal.
    """
    kind = draw(st.sampled_from(["triangle", "octagon", "fan", "intermediate", "flat", "singular"]))
    try:
        if kind == "fan":
            return torus_fan_partition(draw(st.integers(2, 3)))
        if kind == "intermediate":
            k = draw(st.integers(3, 5))
            normal = draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))
            c = draw(st.integers(1, k - 2))
            c_next = draw(st.integers(c + 1, k - 1))
            first = _cut_triangle(k, ((normal, c),))
            cap = draw(st.booleans())
            lifted = lift_polytope(first, lifting_function(first), compact_cap=cap).polytope
            return partition_by_hyperplanes(lifted, [(normal + (0,), c_next)])
        if kind == "flat":
            k = draw(st.integers(3, 5))
            base = LatticePolytope.from_vertices([(0, 0, 0), (k, 0, 0), (0, k, 0)])
            return partition_by_hyperplanes(base, [((1, 1, 0), 2)])
        if kind == "singular":
            k = draw(st.integers(1, 3))
            base = LatticePolytope.from_vertices([(0, 0), (2 * k, k), (k, 2 * k)])
            if draw(st.booleans()):
                return build_partition(base, [base])
            return partition_by_hyperplanes(base, [((1, -1), 0)])
        normal = st.sampled_from([(x, y) for x in range(-2, 3) for y in range(-2, 3) if x or y])
        cuts = tuple(draw(st.lists(st.tuples(normal, st.integers(-1, 5)), min_size=1, max_size=2)))
        if kind == "triangle":
            return _cut_triangle(draw(st.integers(2, 5)), cuts)
        return partition_by_hyperplanes(octagon_partition().ambient, list(cuts))
    except GeometryError:
        return None


@lru_cache(maxsize=None)
def _cut_triangle(k, cuts):
    return partition_by_hyperplanes(
        LatticePolytope.from_vertices([(0, 0), (k, 0), (0, k)]), list(cuts)
    )
