"""Brute-force versions of fast paths in ``toricdegen``, kept as test oracles.

These are the generator-expression forms of the vector and gcd kernels that
``map`` and one ``math.gcd`` call replaced, the rational Gaussian
eliminations that the integer (fraction-free) code replaced, the vertex and
facet enumerations over every constraint or generator subset that the
double description replaced, the second double description that found the
extreme generators of a hull, the face closure by dot products with a
rational rank per face, the partition face poset merged from every piece's
face lattice by coordinate key, the tiling checks that intersect every
piece pair and cut every region by every hyperplane, the volume certificate
of a cover with its pulling triangulation, the polyhedral difference that
intersects each rest twice per piece facet, the box filter for lattice
points, containment tested against every constraint, the per-call edge scan and the edge counts it gives each vertex,
the 1-face scan for a vertex's neighbours, a cone's facets read off its
face lattice, the vertex unimodularity test by a determinant of the edge
directions in the polytope's lattice chart, a vertex chart's coefficients
by one rational solve in its edge basis, the scan of every partition edge
for the edges at a vertex with their weights by a rational solve, each
wall's function with its normal found by elimination over the wall's edge
directions, the ``Fraction``-field affine
functions with the per-point lifting scale and family (one index lookup
and one ``divmod`` per lattice point), the exhaustive lattice-equivalence search (every
vertex of Q, every permutation of its edges) on a full-dimensional model
polytope (a second double description for a lower-dimensional one) with its
edges from the 1-faces and one rational solve per row of every candidate
map, the ``encode_value`` walk over every report record, the facets of a
lower-dimensional hull found in a saturated chart, one solve per generator
and per facet, and the full walk of a lifted face lattice with every check
the graph facet certificate of ``lift_polytope`` proves (``lift_walk``).
Tests compare the fast paths against them; nothing in the package imports
this module.  It also holds the degeneration invariants that only tests
check: unimodular chart transitions, and the base fan inside the lifted
fan with its support in the upper half space.  ``edge_directions`` reads a
vertex's edge directions off the polytope's own neighbours for the tests
that need them; ``graph_faces`` and ``ray_index`` are lookups only tests
make, and ``parse_report`` reads a report back, reversing the encodings of
``encode_value``.
"""

import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from toricdegen.degeneration import FamilyEquations
from toricdegen.errors import (
    EmptyPolyhedronError,
    GeometryError,
    LiftingError,
    PartitionError,
    UnsupportedGeometryError,
)
from toricdegen.exactmath import (
    GeometryErrorZero,
    determinant,
    normalize_point,
    right_kernel,
    solve_linear,
)
from toricdegen.partition import PartitionFace, build_partition
from toricdegen.report import encode_value
from toricdegen.polytope import (
    Face,
    LatticePolytope,
    _apply,
    _dual_from_generators,
    _enumerate_generators,
    _full_dim_facets,
    _normalize_equation,
    _normalize_halfspace,
    normal_fan,
)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, abs(int(v)))
    return g


def primitive(v):
    """An integer vector over the gcd of its entries, the zero vector
    rejected by a pass of its own."""
    if all(x == 0 for x in v):
        raise GeometryErrorZero()
    g = gcd_all(v)
    return tuple(x // g for x in v)


def rational_primitive(v):
    """``(w, s)`` with ``w`` primitive and ``v = s * w``: an all-``int``
    vector, told by the type of every entry, over its gcd with an ``int``
    scale, any other one cleared of denominators first."""
    if all(type(x) is int for x in v):
        g = gcd_all(v)
        if not g:
            raise GeometryErrorZero()
        return tuple(x // g for x in v), g
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise GeometryErrorZero()
    denom = lcm(*[x.denominator for x in fracs])
    ints = [int(x * denom) for x in fracs]
    g = gcd_all(ints)
    return tuple(x // g for x in ints), Fraction(g, denom)


def determinant_fraction(rows):
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


def rank_fraction(rows):
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


def _reduced(rows, rhs):
    """Reduced row echelon form of the augmented system over the rationals."""
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
    consistent = all(m[i][ncols] == 0 for i in range(rank, len(m)))
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return consistent, rank, tuple(x)


def solve_linear(rows, rhs):
    consistent, rank, x = _reduced(rows, rhs)
    if not consistent:
        return "none", None
    if rank < len(x):
        return "many", None
    return "unique", x


def solve_particular(rows, rhs):
    consistent, _, x = _reduced(rows, rhs)
    return x if consistent else None


def enumerate_generators(halfspaces, equations, rank):
    """Vertices and extreme rays: one rational solve per k-subset.  A system
    with no constraint in rank ``n >= 1`` is the whole space, which has no
    generator."""
    normals = [h.normal for h in halfspaces] + [e.normal for e in equations]
    if rank and not normals:
        return [], []
    if normals and right_kernel(list(normals)):
        raise UnsupportedGeometryError("polyhedron has a nontrivial lineality space")
    eq_rows = [e.normal for e in equations]
    eq_rhs = [-Fraction(e.offset) for e in equations]
    k = rank - (rank_fraction(eq_rows) if eq_rows else 0)

    def feasible(point):
        return all(vdot(point, h.normal) >= -h.offset for h in halfspaces) and all(
            vdot(point, e.normal) == -e.offset for e in equations
        )

    vertices = set()
    for subset in itertools.combinations(range(len(halfspaces)), k):
        rows = eq_rows + [halfspaces[i].normal for i in subset]
        rhs = eq_rhs + [-Fraction(halfspaces[i].offset) for i in subset]
        status, x = solve_linear(rows, rhs)
        if status == "unique" and feasible(x):
            vertices.add(normalize_point(x))

    rays = set()
    if k >= 1:
        for subset in itertools.combinations(range(len(halfspaces)), k - 1):
            rows = eq_rows + [halfspaces[i].normal for i in subset]
            if not rows:
                rows = [tuple(0 for _ in range(rank))]
            kernel = right_kernel(list(rows))
            if len(kernel) != 1:
                continue
            c = primitive(kernel[0])
            for cand in (c, tuple(-x for x in c)):
                if all(vdot(cand, h.normal) >= 0 for h in halfspaces) and all(
                    vdot(cand, e.normal) == 0 for e in equations
                ):
                    rays.add(cand)
    return sorted(vertices), sorted(rays)


def full_dim_facets(points, rays, rank):
    """Facets of a full-dimensional hull with their incidence masks: one
    kernel per ``rank``-subset of the homogenized generators, kept when every
    generator is on one side; bit ``i`` is set when generator ``i`` is on
    the facet."""
    homog = [rational_primitive(tuple(p) + (1,))[0] for p in points] + [
        tuple(r) + (0,) for r in rays
    ]
    found = set()
    for rows in itertools.combinations(homog, rank):
        kernel = right_kernel(list(rows))
        if len(kernel) != 1:
            continue
        w = primitive(kernel[0])
        dots = [vdot(g, w) for g in homog]
        if all(x <= 0 for x in dots):
            w = tuple(-x for x in w)
        elif not all(x >= 0 for x in dots):
            continue
        if any(w[:-1]):  # not the hyperplane at infinity
            mask = sum(1 << i for i, x in enumerate(dots) if x == 0)
            found.add((_normalize_halfspace(w[:-1], w[-1]), mask))
    return list(found)


def dual_from_generators(points, rays, rank):
    """``_dual_from_generators`` in a saturated chart: each generator's
    coordinates along a basis of the integer points of the direction space
    by one rational solve, the facets of that full-dimensional model, and
    each model normal pulled back by one particular solve, made primitive
    and translated back from the first point.  The facets of the model come
    from the package's ``_full_dim_facets``, so only the chart is tested."""
    base = points[0]
    dirs = [vsub(p, base) for p in points[1:]] + list(rays)
    int_dirs = [rational_primitive(d)[0] for d in dirs if any(d)]
    d = rank_fraction(int_dirs) if int_dirs else 0
    if d == 0:
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        equations = [_normalize_equation(u, -x) for u, x in zip(units, base)]
        return (), tuple(sorted(equations)), (), []
    if d == rank:
        equations, basis = [], None
        facets = _full_dim_facets(points, rays, rank)
    else:
        kernel = right_kernel(int_dirs)
        equations = [_normalize_equation(u, -vdot(base, u)) for u in kernel]
        basis = right_kernel(kernel)

        def model(target):
            status, t = solve_linear([[b[i] for b in basis] for i in range(rank)], target)
            assert status == "unique", "generator outside the affine hull chart"
            return normalize_point(t)

        facets = []
        model_pts = [model(vsub(p, base)) for p in points]
        for hs, mask in _full_dim_facets(model_pts, [model(r) for r in rays], d):
            w = solve_particular(list(basis), hs.normal)
            scaled, s = rational_primitive(w)
            # <x - base, w> >= -offset in ambient coordinates
            offset = (Fraction(hs.offset) - vdot(base, w)) / s
            facets.append((_normalize_halfspace(scaled, offset), mask))
    facets = sorted(set(facets))
    return tuple(h for h, _ in facets), tuple(sorted(equations)), tuple(m for _, m in facets), basis


def from_generators(points, rays):
    """Vertices and extreme rays of conv(points) + cone(rays) by a second
    double description: the vertices of the facet system the first found."""
    points = [normalize_point(p) for p in points]
    rank = len(points[0])
    halfspaces, equations = _dual_from_generators(points, [primitive(r) for r in rays], rank)[:2]
    return _enumerate_generators(halfspaces, equations, rank)[:2]


def face_dim(vertices, rays):
    """Dimension of conv(vertices) + cone(rays) by a rational rank."""
    if not vertices:
        return -1
    base = vertices[0]
    dirs = [vsub(v, base) for v in vertices[1:]] + list(rays)
    dirs = [d for d in dirs if any(x != 0 for x in d)]
    if not dirs:
        return 0
    return rank_fraction(dirs)


def faces(poly):
    """The faces of a polyhedron: the closure of its generator sets under
    intersection with each halfspace's tight set, by dot products, each
    dimension by ``face_dim``; sorted by dimension and key."""
    if poly.is_whole_space:
        return (Face((), (), poly.ambient_rank, frozenset()),)
    all_v = frozenset(poly.vertices)
    all_r = frozenset(poly.rays)
    tight_v = []
    tight_r = []
    for h in poly.halfspaces:
        tight_v.append(frozenset(v for v in poly.vertices if vdot(v, h.normal) == -h.offset))
        tight_r.append(frozenset(r for r in poly.rays if vdot(r, h.normal) == 0))
    seen = {(all_v, all_r)}
    queue = [(all_v, all_r)]
    while queue:
        vs, rs = queue.pop()
        for i in range(len(poly.halfspaces)):
            nvs, nrs = vs & tight_v[i], rs & tight_r[i]
            if nvs and (nvs, nrs) not in seen:
                seen.add((nvs, nrs))
                queue.append((nvs, nrs))
    found = []
    for vs, rs in seen:
        verts = tuple(sorted(vs))
        rays = tuple(sorted(rs))
        tight = frozenset(
            i for i in range(len(poly.halfspaces)) if vs <= tight_v[i] and rs <= tight_r[i]
        )
        found.append(Face(verts, rays, face_dim(verts, rays), tight))
    found.sort(key=lambda f: (f.dim, f.vertices, f.rays))
    return tuple(found)


def smallest_face_containing(poly, points, rays=()):
    """The face cut out by every halfspace tight on all the given points and
    rays, its generators found by dot products."""
    tight = [
        h
        for h in poly.halfspaces
        if all(vdot(p, h.normal) == -h.offset for p in points)
        and all(vdot(r, h.normal) == 0 for r in rays)
    ]
    vs = tuple(v for v in poly.vertices if all(vdot(v, h.normal) == -h.offset for h in tight))
    rs = tuple(r for r in poly.rays if all(vdot(r, h.normal) == 0 for h in tight))
    return next(f for f in faces(poly) if f.key == (vs, rs))


def collect_faces(ambient, pieces):
    """The partition faces: every piece's face lattice from ``faces()``,
    merged by coordinate key, each with the smallest ambient face containing
    it; ambient vertices are not 0-faces.  Keys come in the order of the
    pieces, then of each piece's faces."""
    ambient.faces()
    piece_sets = {}
    dims = {}
    for idx, piece in enumerate(pieces):
        for f in piece.faces():
            key = f.key
            piece_sets.setdefault(key, set()).add(idx)
            dims[key] = f.dim
    ambient_vertices = set(ambient.vertices)
    out = {}
    for key, owners in piece_sets.items():
        verts, rays = key
        if dims[key] == 0 and verts[0] in ambient_vertices:
            continue  # ambient vertices are not 0-faces of the partition
        amb_face = ambient.smallest_face_containing(verts, rays)
        out[key] = PartitionFace(verts, rays, dims[key], frozenset(owners), amb_face)
    return out


def semistable_witness(faces):
    """The first face breaking the count rule, with its smallest ambient
    face and its piece count, in the order ``faces`` come in; None when
    every face keeps it."""
    for f in faces:
        if len(f.pieces) != f.ambient_face.dim - f.dim + 1:
            return (f, f.ambient_face, len(f.pieces))
    return None


def volume(poly):
    """Euclidean volume of a full-dimensional compact polytope, summed over
    a pulling triangulation."""
    total = Fraction(0)
    for simplex in _triangulate_face(poly, poly.faces(poly.dim)[0]):
        rows = [vsub(p, simplex[0]) for p in simplex[1:]]
        total += abs(determinant_fraction(rows))
    return total / factorial(poly.dim)


def _triangulate_face(poly, face):
    if face.dim == 0:
        return [face.vertices]
    apex = face.vertices[0]
    simplices = []
    for sub in poly.faces(face.dim - 1):
        inside = set(sub.vertices) <= set(face.vertices) and set(sub.rays) <= set(face.rays)
        if inside and apex not in sub.vertices:
            for s in _triangulate_face(poly, sub):
                simplices.append((apex,) + s)
    return simplices


def check_cover(ambient, pieces):
    """Volume certificate that interior-disjoint pieces inside the ambient
    polytope fill it, in intrinsic lattice coordinates; unbounded inputs are
    cut by the box of the piece vertices at two margins.  A mismatch is a
    gap, with the polyhedral difference's witness in those coordinates."""
    if ambient.dim == 0:
        return
    def model(poly):
        if ambient.is_whole_space or ambient.dim == ambient.ambient_rank:
            return poly
        return LatticePolytope.from_generators(
            [ambient.lattice_coordinates(v) for v in poly.vertices],
            [_lattice_direction(ambient, r) for r in poly.rays],
        )

    ambient_m = ambient if ambient.is_whole_space else model(ambient)
    pieces_m = [model(p) for p in pieces]
    if ambient_m.is_compact:
        ok = volume(ambient_m) == sum((volume(p) for p in pieces_m), Fraction(0))
    else:
        ok = True
        for margin in (1, 3):
            hull = LatticePolytope.from_vertices([v for p in pieces_m for v in p.vertices])
            box = hull.bounding_box_polytope(margin)
            whole = box if ambient.is_whole_space else ambient_m.intersect_polyhedron(box)
            parts = sum((volume(p.intersect_polyhedron(box)) for p in pieces_m), Fraction(0))
            if volume(whole) != parts:
                ok = False
                break
    if not ok:
        witness = uncovered_point(ambient_m, pieces_m)
        raise PartitionError("gap: pieces do not cover the ambient polytope", witness=witness)


def uncovered_point(ambient, pieces):
    """A point of the ambient polytope in no piece, by polyhedral
    difference with two intersections per piece facet: the rest of the
    region inside the facets before it, and the chunk of that rest beyond
    it, each cut from the rest before."""
    if ambient.is_whole_space:
        hull = LatticePolytope.from_vertices([v for p in pieces for v in p.vertices])
        regions = [hull.bounding_box_polytope(2)]
        d = ambient.ambient_rank
    else:
        regions = [ambient]
        d = ambient.dim
    for piece in pieces:
        new_regions = []
        for region in regions:
            rest = region
            for k, h in enumerate(piece.halfspaces):
                if k:
                    try:
                        rest = rest.intersect([piece.halfspaces[k - 1]])
                    except EmptyPolyhedronError:
                        break
                flipped = (tuple(-x for x in h.normal), -h.offset)
                try:
                    chunk = rest.intersect([flipped])
                except EmptyPolyhedronError:
                    chunk = None
                if chunk is not None and chunk.dim == d:
                    new_regions.append(chunk)
        regions = new_regions
        if not regions:
            return None
    return regions[0].relative_interior_point() if regions else None


def lattice_points(poly):
    """Every lattice point of the vertex bounding box that the polytope
    contains, in lexicographic order."""
    ranges = []
    for i in range(poly.ambient_rank):
        coords = [Fraction(v[i]) for v in poly.vertices]
        ranges.append(range(min(coords).__ceil__(), max(coords).__floor__() + 1))
    return [p for p in itertools.product(*ranges) if poly.contains(p)]


def contains_polyhedron(outer, inner):
    """Whether every vertex and ray of ``inner`` satisfies every constraint
    of ``outer``, each one tested."""
    if outer.is_whole_space:
        return True
    if inner.is_whole_space:
        return False
    return (
        all(outer.contains(v) for v in inner.vertices)
        and all(vdot(r, h.normal) >= 0 for r in inner.rays for h in outer.halfspaces)
        and all(vdot(r, e.normal) == 0 for r in inner.rays for e in outer.equations)
    )


def neighbours(poly, a):
    """The generators adjacent to the ``a``-th vertex, as ascending indices
    into ``vertices + rays``, by a scan of every 1-face."""
    vertex, nv = poly.vertices[a], len(poly.vertices)
    found = []
    for f in faces(poly):
        if f.dim == 1 and vertex in f.vertices:
            found += [poly.vertices.index(v) for v in f.vertices if v != vertex]
            found += [nv + poly.rays.index(r) for r in f.rays]
    return tuple(sorted(found))


def ray_index(fan, ray):
    """The index of ``ray`` among the fan's rays."""
    ray = tuple(ray)
    for i, r in enumerate(fan.rays):
        if r == ray:
            return i
    raise GeometryError("vector is not a ray of the fan")


def graph_faces(lifted):
    """The faces of a lifted polytope that lie on a piece's graph facet."""
    piece_idx = set(lifted.piece_facets.values())
    return [f for f in lifted.polytope.faces() if f.tight & piece_idx]


def lift_walk(partition, lifted, piece_facets):
    """The full walk of the lifted face lattice that the graph facet
    certificate replaced: each partition face has exactly one lift among the
    faces tight on a piece row, no such face projects outside the partition
    or onto anything but a base face (checked against every face of the
    base), and every other face projects onto a base face
    (``verify_projections``).  Returns the lift of each face key."""
    piece_idx = frozenset(piece_facets.values())
    found = {}
    for face in lifted.faces():
        if not (face.tight & piece_idx):
            continue
        verts = tuple(sorted(v[:-1] for v in face.vertices))
        rays = tuple(sorted(r[:-1] for r in face.rays if any(r[:-1])))
        found.setdefault((verts, rays), []).append(face)
    lift_map = {}
    for key in partition.face_index:
        faces = found.get(key, [])
        if len(faces) != 1:
            raise LiftingError("partition face does not have exactly one lift", witness=(key, len(faces)))
        lift_map[key] = faces[0]
    # graph faces over vertices of the base polytope project to base faces,
    # which the face convention excludes from the partition
    base_keys = {f.key for f in partition.ambient.faces()}
    for key in set(found) - set(partition.face_index):
        if key not in base_keys:
            raise LiftingError("graph face projects outside the partition", witness=key)
    verify_projections(partition, lifted, piece_facets)
    return lift_map


def shadow_is_base_face(base, face):
    """Whether the vertical shadow conv(pts) + cone(rays) of a lifted face is
    a face of ``base``: exactly when the smallest base face containing it has
    all its vertices among ``pts`` and all its rays among ``rays``."""
    pts = {v[:-1] for v in face.vertices}
    rays = {primitive(r[:-1]) for r in face.rays if any(r[:-1])}
    try:
        hull = base.smallest_face_containing(pts, rays)
    except GeometryError:
        return False
    return set(hull.vertices) <= pts and set(hull.rays) <= rays


def verify_projections(partition, lifted, piece_facets):
    """Every face of the lifted polytope tight on no piece row projects onto
    a base face."""
    base = partition.ambient
    if base.is_whole_space:
        return
    piece_idx = frozenset(piece_facets.values())
    for face in lifted.faces():
        if face.tight & piece_idx:
            continue  # graph faces were matched against partition faces already
        if not shadow_is_base_face(base, face):
            raise LiftingError(
                "face projects onto neither a base face nor a partition face",
                witness=face.key,
            )


def cone_facets(fan, cone):
    """Ray-index sets of a cone's facets, read off the face lattice of its
    polyhedron."""
    poly = fan.cone_polyhedron(cone)
    return [frozenset(i for i in cone if fan.rays[i] in set(f.rays)) for f in poly.faces(poly.dim - 1)]


def edges_at(poly, vertex):
    """Primitive edge directions at a vertex, by a scan of every 1-face."""
    dirs = []
    for f in poly.faces(1):
        if vertex in f.vertices:
            if len(f.vertices) == 2:
                other = f.vertices[0] if f.vertices[1] == vertex else f.vertices[1]
                dirs.append(rational_primitive(vsub(other, vertex))[0])
            elif len(f.vertices) == 1 and len(f.rays) == 1:
                dirs.append(f.rays[0])
    return sorted(dirs)


def edge_directions(poly, vertex):
    """Primitive edge directions at a vertex (bounded edges and rays), read
    off the polytope's own neighbours, sorted; empty for a point that is not
    a vertex."""
    a = poly._vertex_id(vertex)
    if a is None:
        return []
    return sorted(poly._edge_direction(a, b) for b in poly.neighbours(a))


def is_simplicial(poly):
    """Whether every vertex has ``dim`` edges, counted by the 1-face scan."""
    if poly.is_whole_space:
        return False
    return all(len(edges_at(poly, v)) == poly.dim for v in poly.vertices)


def is_lattice_basis(vectors, dim) -> bool:
    """Whether ``dim`` integer vectors form a basis of the integer points of
    their span: there are ``dim`` of them and their maximal minors are
    coprime.  In full dimension that is one determinant equal to +-1."""
    if len(vectors) != dim:
        return False
    if dim == 0:
        return True
    g = 0
    for cols in itertools.combinations(range(len(vectors[0])), dim):
        g = gcd(g, determinant([[v[c] for c in cols] for v in vectors]))
        if g == 1:
            return True
    return False


def _lattice_direction(poly, d):
    """A direction's coordinates in the polytope's own lattice: those of the
    step along it from the first vertex."""
    base = poly.vertices[0]
    return vsub(poly.lattice_coordinates(vadd(base, d)), poly.lattice_coordinates(base))


def chart_is_unimodular(poly, dirs):
    """Whether edge directions of a polytope have determinant +-1 in the
    coordinates of its own lattice."""
    if len(dirs) != poly.dim:
        return False
    return abs(determinant([_lattice_direction(poly, d) for d in dirs])) == 1


def singular_vertices(poly):
    """The vertices whose edges at them fail the chart test, in vertex order."""
    if poly.is_whole_space:
        return ()
    return tuple(v for v in poly.vertices if not chart_is_unimodular(poly, edges_at(poly, v)))


def edge_expansion(poly, vertex, vector):
    """The primitive edge directions at a vertex, sorted, each with the
    coefficient of ``vector`` in that basis: one rational solve of the
    edge-direction system, or None when it has no unique solution."""
    dirs = edges_at(poly, vertex)
    status, coeffs = solve_linear([[d[i] for d in dirs] for i in range(len(vector))], vector)
    if status != "unique":
        return None
    return list(zip(dirs, normalize_point(coeffs)))


def edges_through(partition, p):
    """The partition edges with ``p`` as an endpoint, by a scan of every
    1-face, as ``(direction, pieces, ambient_face)`` sorted by direction: the
    primitive direction from ``p``, the pieces having the edge and its
    smallest ambient face."""
    out = []
    for f in partition.faces(1):
        if p in f.vertices:
            if f.rays:
                d = f.rays[0]
            else:
                other = f.vertices[0] if f.vertices[1] == p else f.vertices[1]
                d = rational_primitive(vsub(other, p))[0]
            out.append((d, f.pieces, f.ambient_face))
    return sorted(out, key=lambda e: e[0])


def edges_at_vertex_within_ambient_face(partition, vertex_face):
    """The star at a partition vertex: the edges through it whose smallest
    ambient face is the vertex's own, by the scan of every edge, as
    ``(direction, weight, pieces)`` sorted by direction, the weights the
    positive primitive relation among the directions (``positive_relation``);
    None unless there are ``k + 1`` edges in the vertex's ``k``-dimensional
    ambient face and they carry such a relation."""
    p, tau = vertex_face.vertices[0], vertex_face.ambient_face
    edges = [(d, pieces) for d, pieces, face in edges_through(partition, p) if face == tau]
    if len(edges) != tau.dim + 1:
        return None
    weights = positive_relation([d for d, _ in edges])
    if isinstance(weights, str):
        return None
    return tuple((d, weight, pieces) for (d, pieces), weight in zip(edges, weights))


def positive_relation(vectors):
    """The primitive relation ``sum_i w_i v_i = 0`` with every ``w_i > 0``,
    by the rational rank and one rational solve of the other vectors against
    the first one the relation needs, its weight 1; else the reason, as the
    end of the package's message."""
    if len(vectors) - rank_fraction(vectors) != 1:
        return "must satisfy a single linear relation"
    for j, v in enumerate(vectors):
        rest = vectors[:j] + vectors[j + 1 :]
        rows = [[u[i] for u in rest] for i in range(len(v))]
        status, w = solve_linear(rows, [-x for x in v])
        if status == "unique":
            rel, _ = rational_primitive((*w[:j], 1, *w[j:]))
            break
    if any(x <= 0 for x in rel):
        return "must satisfy a single positive relation"
    return rel


def wall_functions(partition, anchors):
    """Each wall's function ``(<u, x> - c) / (w <e, u>)`` by elimination, as
    ``(linear, constant)`` over ``Fraction`` keyed by its pieces ``(i, j)``,
    ``i < j``: ``u`` the one primitive kernel vector of the wall's edge
    directions, ``c = <u, v>`` at a wall vertex ``v``, ``e`` the partition
    edge at the anchor ``anchors[{i, j}]`` that piece ``i`` misses and piece
    ``j`` has, and ``w`` its weight there, 1 at a vertex of the base
    polytope, where every edge through it counts."""
    rank = partition.ambient.ambient_rank
    out = {}
    for wall in partition.walls():
        i, j = sorted(wall.pieces)
        p = anchors[wall.pieces]
        base = wall.vertices[0]
        dirs = [vsub(v, base) for v in wall.vertices[1:]] + list(wall.rays)
        kernel = right_kernel([rational_primitive(d)[0] for d in dirs if any(d)] or [(0,) * rank])
        if len(kernel) != 1:
            raise LiftingError("wall is not a hyperplane piece", witness=wall.key)
        (u,) = kernel
        vf = partition.face_at(p)
        if vf is None:
            star = [(d, 1, pieces) for d, pieces, _ in edges_through(partition, p)]
        else:
            star = edges_at_vertex_within_ambient_face(partition, vf)
        ((e, w),) = [(d, w) for d, w, pieces in star if i not in pieces and j in pieces]
        scale = Fraction(1, w * vdot(e, u))
        out[(i, j)] = (tuple(x * scale for x in u), -vdot(base, u) * scale)
    return out


def render_report(records):
    """One line per record: the ``encode_value`` walk, then ``json.dumps``."""
    lines = [json.dumps(encode_value(r), sort_keys=True, separators=(",", ":")) for r in records]
    return "\n".join(lines) + "\n"


def check_interior_disjoint(pieces, d):
    """Exact intersection of every piece pair whose bounding boxes touch."""
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if not _boxes_touch(pieces[i], pieces[j]):
            continue
        try:
            meet = pieces[i].intersect_polyhedron(pieces[j])
        except EmptyPolyhedronError:
            continue
        if meet.dim == d:
            raise PartitionError(
                "interior overlap between pieces",
                witness=(i, j, meet.relative_interior_point()),
            )


def _boxes_touch(p, q):
    for i in range(p.ambient_rank):
        if p.rays or q.rays:
            return True
        pc = [Fraction(v[i]) for v in p.vertices]
        qc = [Fraction(v[i]) for v in q.vertices]
        if max(pc) < min(qc) or max(qc) < min(pc):
            return False
    return True


def partition_by_hyperplanes(ambient, cuts):
    """Hyperplane chambers, intersecting every region with both sides of every
    cut, except a pointed region the hyperplane contains, which stays whole."""
    regions = [ambient]
    for normal, value in cuts:
        normal = tuple(int(x) for x in normal)
        value = Fraction(value)
        new_regions = []
        for region in regions:
            on = [vdot(v, normal) - value for v in region.vertices]
            if region.vertices and not any(on + [vdot(r, normal) for r in region.rays]):
                new_regions.append(region)
                continue
            for hs in ((normal, -value), (tuple(-x for x in normal), value)):
                try:
                    piece = region.intersect([hs])
                except EmptyPolyhedronError:
                    continue
                if piece.dim == ambient.dim:
                    new_regions.append(piece)
        regions = new_regions
    first_normal = tuple(int(x) for x in cuts[0][0]) if cuts else None

    def sort_key(piece):
        p = piece.relative_interior_point()
        primary = vdot(p, first_normal) if first_normal else 0
        return (primary, p)

    regions.sort(key=sort_key)
    return build_partition(ambient, regions)


@dataclass(frozen=True)
class AffineFunction:
    """A rational affine function ``x -> <linear, x> + constant`` on
    ``Fraction`` fields."""

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
        return AffineFunction(tuple(-x for x in self.linear), -self.constant)

    def scale(self, c):
        c = Fraction(c)
        return AffineFunction(tuple(c * x for x in self.linear), c * self.constant)

    @property
    def is_zero(self):
        return self.constant == 0 and all(c == 0 for c in self.linear)

    @property
    def is_integral(self):
        return self.constant.denominator == 1 and all(
            Fraction(c).denominator == 1 for c in self.linear
        )


def value_samples(func):
    """Every value of a ``PiecewiseAffine`` on the lattice points of its
    pieces (a one-step truncation of an unbounded piece), and its slopes
    along the rays of unbounded pieces, each in ``Fraction`` arithmetic."""
    samples = []
    for piece, f in zip(func.partition.pieces, func.per_piece):
        f = AffineFunction(f.linear, f.constant)
        if piece.is_compact:
            pts = piece.lattice_points()
        else:
            box = piece.bounding_box_polytope(1)
            pts = piece.intersect_polyhedron(box).lattice_points()
            samples.extend(f.directional(r) for r in piece.rays)
        samples.extend(f(p) for p in pts)
    return [Fraction(s) for s in samples]


def minimal_integral_scale(samples):
    """Least positive ``r`` with every ``r * s`` an integer (1 when all are 0)."""
    samples = [s for s in samples if s != 0]
    if not samples:
        return Fraction(1)
    denom = 1
    for s in samples:
        denom = denom * s.denominator // gcd(denom, s.denominator)
    nums = 0
    for s in samples:
        nums = gcd(nums, int(s * denom))
    return Fraction(denom, nums)


def lifting_scale(func, profile, balanced):
    """The scale ``minimal_integral_lifting`` picks, from the per-point
    samples: the minimal integral scale, pushed to unit concavity when the
    partition is balanced, the profile constant and every rescaled sample
    integral."""
    samples = value_samples(func)
    scale = minimal_integral_scale(samples)
    values = {c * scale for c in profile.values()}
    if balanced and len(values) == 1 and values != {1}:
        candidate = scale / values.pop()
        if all((s * candidate).denominator == 1 for s in samples):
            scale = candidate
    return scale


def family_exponents(func, anchor):
    """Per base lattice point, the value of the function renormalized to
    vanish on the anchor piece, from the first piece containing the point;
    None when a value is not an integer."""
    pieces = func.partition.pieces
    fractional = [AffineFunction(f.linear, f.constant) for f in func.per_piece]
    out = []
    for p in func.partition.ambient.lattice_points():
        i = next(i for i, piece in enumerate(pieces) if piece.contains(p))
        value = (fractional[i] - fractional[anchor])(p)
        if value.denominator != 1:
            return None
        out.append(int(value))
    return tuple(out)


def family_equations(lifted, anchor=None, seed=None):
    """The family by one index lookup and one ``divmod`` per point: each
    piece's support is the base index of each of its lattice points, and a
    point on a wall takes its exponent from the first piece holding it."""
    base = lifted.base.ambient
    if not base.is_compact:
        raise GeometryError("family equations require a compact base polytope")
    func = lifted.lifting.function
    if anchor is None:
        anchor = func.root if func.root is not None else 0
    if not 0 <= anchor < len(lifted.base.pieces):
        raise GeometryError(f"anchor piece {anchor} out of range")
    shifted = func.subtract_affine(func.piece_function(anchor))
    points = tuple(base.lattice_points())
    index = {p: j for j, p in enumerate(points)}
    supports = tuple(
        tuple(index[p] for p in piece.lattice_points()) for piece in lifted.base.pieces
    )
    exponents = [None] * len(points)
    for support, f in zip(supports, shifted.per_piece):
        for j in support:
            if exponents[j] is None:
                value, rest = divmod(vdot(f.a, points[j]) + f.b, f.d)
                if rest:
                    raise LiftingError("anchor renormalization is not integral", witness=anchor)
                exponents[j] = value
    if None in exponents:
        raise GeometryError("point outside the partitioned polytope")
    exponents = tuple(exponents)
    if min(exponents) < 0:
        raise LiftingError("negative exponent: function not minimal on the anchor piece")
    if seed is not None:
        rng = random.Random(seed)
        coeffs = tuple(Fraction(rng.randint(1, 99), rng.randint(1, 9)) for _ in points)
    else:
        coeffs = tuple(f"a{j + 1}" for j in range(len(points)))
    return FamilyEquations(points, exponents, coeffs, supports, anchor)


def _full_dim_vertex_model(poly):
    """A lattice polytope as a full-dimensional one, with its vertices: in
    its lattice chart, hulled again by a second double description when it
    is lower-dimensional."""
    if poly.dim == poly.ambient_rank:
        if not poly.is_lattice:
            raise GeometryError("lattice equivalence requires lattice polytopes")
        return poly, list(poly.vertices)
    verts = [poly.lattice_coordinates(v) for v in poly.vertices]
    if any(type(x) is not int for v in verts for x in v):
        raise GeometryError("lattice equivalence requires lattice polytopes")
    model = LatticePolytope.from_vertices(verts)
    return model, list(model.vertices)


def lattice_equivalences(p, q):
    """Every affine-unimodular map taking P onto Q: on full-dimensional
    models of both, for each vertex of Q and each permutation of its edge
    vectors, read off the 1-faces, one rational solve per row of the linear
    part."""
    if not (p.is_compact and q.is_compact):
        raise GeometryError("lattice equivalence requires compact polytopes")
    if p.dim != q.dim:
        return
    d = p.dim
    if d == 0:
        yield tuple(), tuple()
        return
    pm, p_verts = _full_dim_vertex_model(p)
    qm, q_verts = _full_dim_vertex_model(q)
    if len(p_verts) != len(q_verts):
        return
    p_set = set(p_verts)
    q_set = set(q_verts)

    def neighbors(model, v):
        out = []
        for f in model.faces(1):
            if v in f.vertices and len(f.vertices) == 2:
                other = f.vertices[0] if f.vertices[1] == v else f.vertices[1]
                out.append(vsub(other, v))
        return sorted(out)

    p0 = min(p_verts)
    p_edges = neighbors(pm, p0)
    if len(p_edges) > 8:
        raise UnsupportedGeometryError("vertex valence too high for exhaustive matching")
    span_idx = []
    rows = []
    for i, e in enumerate(p_edges):
        if rank_fraction(rows + [e]) > len(span_idx):
            span_idx.append(i)
            rows.append(e)
        if len(span_idx) == d:
            break
    seen = set()
    for q0 in sorted(q_set):
        q_edges = neighbors(qm, q0)
        if len(q_edges) != len(p_edges):
            continue
        for perm in itertools.permutations(range(len(q_edges))):
            targets = [q_edges[perm[i]] for i in range(len(p_edges))]
            cols = [targets[i] for i in span_idx]
            # A * p_edges[i] = targets[i] for the spanning subset
            mat_rows = []
            for rdx in range(d):
                status, sol = solve_linear(
                    [p_edges[i] for i in span_idx], [cols[j][rdx] for j in range(d)]
                )
                if status != "unique":
                    break
                mat_rows.append(sol)
            else:
                if any(x.denominator != 1 for row in mat_rows for x in row):
                    continue
                a = tuple(tuple(int(x) for x in row) for row in mat_rows)
                if abs(determinant(a)) != 1:
                    continue
                if any(_apply(a, p_edges[i]) != tuple(targets[i]) for i in range(len(p_edges))):
                    continue
                t = vsub(q0, _apply(a, p0))
                image = {vadd(_apply(a, v), t) for v in p_set}
                if image == q_set and (a, t) not in seen:
                    seen.add((a, t))
                    yield a, t


# -- degeneration invariants -------------------------------------------------


def chart_transitions_unimodular(lifted) -> bool:
    """Adjacent vertex charts differ by a unimodular change of basis."""
    poly = lifted.polytope
    rank, dim = poly.ambient_rank, poly.dim
    nv = len(poly.vertices)
    bases = {}
    for a, v in enumerate(poly.vertices):
        dirs = edge_directions(poly, v)
        if len(dirs) == dim:
            bases[a] = dirs
    for a in bases:
        for b in poly.neighbours(a):
            if not a < b < nv or b not in bases:
                continue
            rows = [[d[i] for d in bases[a]] for i in range(rank)]
            cols = []
            for target in bases[b]:
                status, sol = solve_linear(rows, target)
                if status != "unique" or any(Fraction(c).denominator != 1 for c in sol):
                    return False
                cols.append(tuple(int(c) for c in sol))
            transition = tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))
            if not is_lattice_basis(transition, dim):
                return False
    return True


def base_fan_is_subfan(lifted) -> bool:
    """The base normal fan, embedded at height zero, sits inside the lifted fan;
    all other cones live strictly in the upper half space."""
    base_fan = normal_fan(lifted.base.ambient)
    lifted_fan = normal_fan(lifted.polytope)
    lifted_cones = {
        frozenset(lifted_fan.rays[i] for i in cone) for cone in lifted_fan.cones
    }
    for cone in base_fan.cones:
        embedded = frozenset(base_fan.rays[i] + (0,) for i in cone)
        if embedded not in lifted_cones:
            return False
    for cone in lifted_fan.cones:
        rays = [lifted_fan.rays[i] for i in cone]
        if any(r[-1] < 0 for r in rays) and lifted.cap is None:
            return False
    return True


def fan_support_is_upper_halfspace(lifted) -> bool:
    """For the open lift of a compact base: every ray sits at height >= 0,
    the height-zero boundary is the base fan, and every interior wall bounds
    exactly two chambers."""
    if lifted.cap is not None or not lifted.base.ambient.is_compact:
        raise GeometryError("support check applies to open lifts of compact bases")
    fan = normal_fan(lifted.polytope)
    rank = fan.rank
    if any(r[-1] < 0 for r in fan.rays):
        return False
    maxes = [c for c in fan.maximal_cones if fan.cone_dim(c) == rank]
    if len(maxes) != len(fan.maximal_cones):
        return False
    wall_count = {}
    for cone in maxes:
        for wall in fan.cone_facets(cone):
            wall_count[frozenset(wall)] = wall_count.get(frozenset(wall), 0) + 1
    for wall, count in wall_count.items():
        boundary = all(fan.rays[i][-1] == 0 for i in wall)
        if boundary and count != 1:
            return False
        if not boundary and count != 2:
            return False
    return True


_INT_RE = re.compile(r"^-?\d+$")
_FRAC_RE = re.compile(r"^-?\d+/\d+$")


def decode_value(x):
    """Reverse ``encode_value``: decimal strings become ``int``, ``"p/q"``
    strings ``Fraction``."""
    if isinstance(x, str):
        if _INT_RE.match(x):
            return int(x)
        if _FRAC_RE.match(x):
            return Fraction(x)
        return x
    if isinstance(x, list):
        return [decode_value(v) for v in x]
    if isinstance(x, dict):
        return {k: decode_value(v) for k, v in x.items()}
    return x


def parse_report(text):
    """The records of a rendered report, one per nonblank line, decoded."""
    return [decode_value(json.loads(line)) for line in text.splitlines() if line.strip()]
