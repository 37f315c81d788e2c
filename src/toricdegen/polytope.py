"""Exact rational polyhedra, face lattices, normal fans and support functions.

Polyhedra live in a fixed ambient lattice of rank ``n``.  The
H-representation uses inward halfspaces ``<x, normal> >= -offset`` with
primitive integer normals; offsets are exact rationals (they stay integral
for lattice polytopes).  Unbounded polyhedra carry explicit recession rays.
Every step is exact, and an integral coordinate or offset is always a plain
``int``: a ``Fraction`` appears only for a value that is not an integer, so a
lattice polytope is one whose vertex coordinates are all ints.  Both
directions between the descriptions run one integer double description
kernel (``_dd_extreme_rays``), which starts from the unit lines and takes
each equation as two opposite rows, in a run from scratch as in a cut.
Vertices and rays of a halfspace system are the extreme rays of the cone
over it.  ``intersect`` normalizes only the constraints it adds and cuts
the region in one pass: from the cone over the region, its vertices and
rays with their cached facet sets, it runs one step of the kernel
(``_dd_split``) per new row; only the whole space, which has no vertex,
runs from scratch.  ``split`` cuts a region that a hyperplane crosses into
both sides at once: its one step splits the rays by sign, and the rays it
combines on the hyperplane belong to both sides.  A run from scratch, a cut
and each side of a split end in one tail (``_from_tight``): for a
full-dimensional system it keeps the tightest halfspace per normal whose
tight rays are maximal, read off the kernel's tight sets.
Facets of a polyhedron given by generators, or of a lower-dimensional
system, are the extreme rays of the cone of valid homogeneous normals, found
by one path in every dimension (``_dual_from_generators``): the hull
projects one to one onto the pivot columns of its directions, and each
normal found there is written back with zeros off the pivots.
``from_generators`` reads its vertices and extreme rays off that one run
and keeps their facet sets, the transpose of its incidence.
A polyhedron derives its dimension, the rank less its number of equations,
and is the whole space exactly when it has no vertex; the whole space has
no ray either, in every rank.  Every polyhedron is built with its
generator-facet incidence in both orientations: one bit set of generators
per facet and one bit set of facets per generator, handed over by the
constructor that found them, so no query transposes them later.  Its faces,
their dimensions and their tight sets come from one Close-by-One walk over
those bit sets (``_face_walk``; Kaibel and Pfetsch, Comput. Geom. 23,
2002): a face ANDs in the facets of higher index, a cut at a simple vertex
is a face one dimension down, and any other cut is closed by the facets
through its lowest vertex and kept only when that adds no facet of lower
index, so each face is reached once.  One face is closed off the same bit
sets with no walk (``_face_cut_by``): the AND of its facets' sets, tight on
the facets through its lowest vertex that hold it, and one dimension down
per tight facet at a simple vertex.  The facet sets answer the vertex-local
queries without the face lattice: a vertex is simple when it lies on
``dim`` facets, and two generators span an edge when the facets through
both cut out exactly the two of them.  At a simple vertex the edges are the
cuts of its facet set less one facet each, ANDed from one pass each way.  A
vertex's neighbours are found so once and cached, and every edge the
package reads comes from them.  The smallest face containing some points is
the one closed off the facets that hold all of them.  The kernel
counts the candidate ray pairs it tests and refuses a run past
``PAIR_BUDGET`` with ``UnsupportedGeometryError``.  A polyhedron with a
lineality space is refused: from generators with rays by a rank test of
the facet normals (a hull of points alone is bounded), from halfspaces on
the lines the kernel is left with, so an intersection runs no rank test.
Lattice coordinates come from one helper, ``lattice_coordinates``: the
identity in full dimension, else coordinates along the basis of the
integer points of the direction space that the facets were found in, kept
from ``_dual_from_generators``.
Each facet normal restricted to that basis and divided by its gcd is the
facet's normal in the polyhedron's own lattice (the stored normal in full
dimension), and three vertex-local reads come from those normals alone.  A
vertex is nonsingular when it lies on ``dim`` facets whose normals have
determinant +-1, one determinant per vertex, cached.  At such a vertex the
normals are the dual basis of the primitive edges, each edge paired with
the facet it leaves, so ``edge_expansion`` reads a vector's coefficients
in the edge basis off them with no solve.  A vertex's key is its row of the
vertex-facet pairing matrix, the sorted lattice distances to the facets.
``lattice_equivalences`` compares the key multisets first, sends a vertex
of the rarest key only to vertices of the same key, and permutes its edges
only among those whose far ends share a key; it maps the vertices through
``lattice_coordinates`` and reads edge vectors off the neighbours, so it
builds no second polytope.  It inverts the edge basis at one vertex once,
as an integer matrix over its determinant, so each candidate map is an
integer product and an exact division, and it counts its candidates and
the vertex images that surviving ones test and refuses past
``CANDIDATE_BUDGET``.  Lattice points come as column runs ``(prefix, lo,
hi)``, the points ``prefix + (x,)`` for ``lo <= x <= hi``, scanned once per
polytope by project and lift: every prefix lies in the projection of the
polytope, the middle coordinates are bounded by the hulls of the projected
vertices and the last by the polytope's own constraints, and the scan
refuses past ``POINT_BUDGET`` prefixes and points.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import EmptyPolyhedronError, GeometryError, UnsupportedGeometryError
from .exactmath import (
    determinant,
    echelon,
    int_vector,
    left_kernel,
    normalize_coord,
    normalize_point,
    primitive,
    rank_fraction,
    right_kernel,
    solve_linear,
    solve_particular,
    vadd,
    vdot,
    vsub,
)


class Halfspace(NamedTuple):
    """Constraint ``<x, normal> >= -offset``."""

    normal: tuple
    offset: object  # int or Fraction


class Equation(NamedTuple):
    """Constraint ``<x, normal> = -offset`` (affine hull of lower-dim bodies)."""

    normal: tuple
    offset: object


def _divide(offset, g):
    """``offset / g`` for a positive integer ``g``, an ``int`` when exact."""
    if type(offset) is int and offset % g == 0:
        return offset // g
    return normalize_coord(Fraction(offset) / g)


def _normalize_halfspace(normal, offset):
    normal = int_vector(normal)
    g = math.gcd(*normal)
    if not g:
        raise GeometryError("halfspace normal must be nonzero")
    return Halfspace(tuple([x // g for x in normal]), _divide(offset, g))


def _normalize_equation(normal, offset):
    """The halfspace normal form, signed so the first nonzero entry is positive."""
    h = _normalize_halfspace(normal, offset)
    if next(x for x in h.normal if x) < 0:
        return Equation(tuple(-x for x in h.normal), -h.offset)
    return Equation(*h)


@dataclass(frozen=True)
class Face:
    """A face of a polyhedron, keyed by its vertex and ray sets."""

    vertices: tuple
    rays: tuple
    dim: int
    tight: frozenset

    @property
    def key(self):
        return (self.vertices, self.rays)


def _dual_from_generators(points, rays, rank):
    """Facet halfspaces, affine-hull equations, incidence and direction basis
    of conv(points) + cone(rays): bit ``i`` of a facet's mask is set when the
    ``i``-th generator, points first, lies on it.  ``echelon`` gives the
    rank ``d`` of the directions and ``d`` pivot columns, onto which the
    direction space projects one to one.  So the facets are found once, in
    the projection onto the pivots (none when ``d = 0``), and each normal is
    written back with zeros off the pivots: the one normal of the facet that
    vanishes there.  In full dimension the pivots are every column, so the
    facets are found on the generators as given.  Below full dimension the
    equations are a lattice basis of the normals of the directions, ``rank
    - d`` of them, and the direction basis is their kernel, a basis of the
    integer points of the direction space; in full dimension there are
    none, and it is None."""
    base = points[0]
    dirs = [vsub(p, base) for p in points[1:]] + list(rays)
    int_dirs = [primitive(d) for d in dirs if any(d)]
    d, pivots, _ = echelon(list(int_dirs), rank)
    equations, basis = [], None
    if d == rank:
        # the pivots are every column: the hull is its own projection
        facets = _full_dim_facets(points, rays, rank) if d else []
    else:
        kernel = right_kernel(int_dirs or [(0,) * rank])
        equations = [_normalize_equation(u, -vdot(base, u)) for u in kernel]
        basis = right_kernel(kernel)
        projected = [[p[i] for i in pivots] for p in points], [[r[i] for i in pivots] for r in rays]
        facets = set()
        for hs, mask in _full_dim_facets(*projected, d) if d else ():
            normal = [0] * rank
            for i, x in zip(pivots, hs.normal):
                normal[i] = x
            facets.add((Halfspace(tuple(normal), hs.offset), mask))
    facets = sorted(facets)
    return tuple(h for h, _ in facets), tuple(sorted(equations)), tuple(m for _, m in facets), basis


_LINEALITY = "polyhedron has a nontrivial lineality space"


def _refuse_lineality(halfspaces, equations, rank):
    """Refuse a polyhedron with a nontrivial lineality space: its normals do
    not span."""
    normals = [h.normal for h in halfspaces] + [e.normal for e in equations]
    if normals and echelon(normals, rank)[0] < rank:
        raise UnsupportedGeometryError(_LINEALITY)


# candidate ray pairs one double description may test, summed over its splits
PAIR_BUDGET = 10**6


def _dd_extreme_rays(ineqs, width):
    """Double description of ``{z : <a, z> >= 0 for a in ineqs}`` in
    ``Z^width`` (Motzkin et al. 1953; Fukuda and Prodon 1996), from scratch.

    Returns ``(rays, lines)``: the extreme rays as ``(z, mask)`` pairs, ``z``
    a primitive integer vector and bit ``i`` of ``mask`` set when ``ineqs[i]``
    is tight on ``z``, and a primitive basis of the lineality space.

    The run starts with no rays, and its lines are the unit vectors.  An
    equation enters as two opposite rows.  Each row either turns a line it
    is not orthogonal to into a ray, tight on every earlier row, and
    reduces the other lines and the rays onto its hyperplane, or it splits
    the rays by sign, keeps the positive side and adds the positive
    combination of each adjacent pair across it (``_dd_split``, the cone's
    dimension taken less the lines left).  Every step is integer.  A cut of
    a known pointed polyhedron needs only the split steps, over the cone
    over it (``_meet``).

    The work is bounded by the candidate pairs, ``len(pos) * len(neg)``
    summed over the splits; a split that would take the sum past
    ``PAIR_BUDGET`` is refused before its pairs are tested.  A split adds at
    most one ray per pair, so the sum also bounds the rays the splits add.
    """
    lines = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    rays, dim, pairs = [], len(lines), 0
    for i, a in enumerate(ineqs):
        bit = 1 << i
        dots = [vdot(a, line) for line in lines]
        k = next((k for k, s in enumerate(dots) if s), None)
        if k is not None:
            # the line becomes a ray; it is tight on every earlier inequality
            s, p = dots[k], lines.pop(k)
            del dots[k]
            if s < 0:
                s, p = -s, tuple(-x for x in p)
            lines = [_combine(s, line, -d, p) if d else line for line, d in zip(lines, dots)]
            dots = [vdot(a, z) for z, _ in rays]
            rays = [(_combine(s, z, -d, p) if d else z, m | bit) for (z, m), d in zip(rays, dots)]
            rays.append((p, bit - 1))
            continue
        pos, _, on, pairs = _dd_split(a, bit, rays, dim - len(lines) - 2, pairs)
        rays = [(z, mask) for z, mask, _ in pos] + on
    return rays, lines


def _dd_split(a, bit, rays, least, pairs):
    """One row ``<a, z> >= 0`` of the double description over the extreme
    rays of a pointed cone, ``(z, mask)`` pairs, with ``pairs`` candidate
    pairs tested so far.

    Returns ``(pos, neg, on, pairs)``: the rays with ``<a, z>`` positive and
    negative, as ``(z, mask, <a, z>)``, the rays on the hyperplane, and the
    new count.  The rays on it are those of the cone there, with ``bit``
    set, and the positive combination of each adjacent pair across it, so
    both sides of the hyperplane share them.  Two rays are adjacent when no
    third ray's tight set contains the intersection of theirs; a pair
    sharing fewer than ``least`` tight rows, the dimension of the cone the
    steps started from less two, spans no edge and skips that test (an
    earlier step may have cut the cone to lower dimension, but its edges
    still lie on that many rows).  A split that takes the count past
    ``PAIR_BUDGET`` is refused before its pairs are tested.
    """
    pos, neg, on = [], [], []
    for z, mask in rays:
        s = vdot(a, z)
        if s > 0:
            pos.append((z, mask, s))
        elif s < 0:
            neg.append((z, mask, s))
        else:
            on.append((z, mask | bit))
    if neg and pos:
        pairs += len(pos) * len(neg)
        if pairs > PAIR_BUDGET:
            raise UnsupportedGeometryError(f"double description over {pairs} candidate ray pairs")
        masks = [mask for _, mask in rays]
        for zp, mp, sp in pos:
            for zn, mn, sn in neg:
                common = mp & mn
                if common.bit_count() < least:
                    continue
                # the pair's own masks contain ``common``: no third may
                if sum(1 for mask in masks if common & mask == common) > 2:
                    continue
                on.append((_combine(sp, zn, -sn, zp), common | bit))
    return pos, neg, on, pairs


def _combine(c, u, d, v):
    """The primitive vector along ``c * u + d * v``."""
    return primitive([c * x + d * y for x, y in zip(u, v)])


def _full_dim_facets(points, rays, rank):
    """Facets of a full-dimensional hull with their incidence masks: the
    extreme rays of the cone of homogeneous normals ``(w, c)`` with
    ``<p, w> + c >= 0`` on the points and ``<r, w> >= 0`` on the rays,
    without the hyperplane at infinity."""
    # generators are scaled to primitive integer vectors: rational points may
    # appear, and positive scaling changes neither hyperplanes nor sides
    homog = [_cone_point(tuple(p)) for p in points] + [tuple(r) + (0,) for r in rays]
    normals, _ = _dd_extreme_rays(homog, rank + 1)
    return [(_normalize_halfspace(w[:-1], w[-1]), mask) for w, mask in normals if any(w[:-1])]


def _cone_point(v):
    """The primitive integer vector along ``v + (1,)``: that vector itself
    when ``v`` is integral, its last entry 1 making it primitive."""
    if all(type(x) is int for x in v):
        return v + (1,)
    return primitive(v + (1,))


def _homogeneous_row(constraint):
    """``(q * normal, p)`` for the offset ``p / q``: its dot product with
    ``(x, 1)`` is ``<x, normal> + offset`` times ``q > 0``."""
    normal, offset = constraint
    if type(offset) is int:
        return normal + (offset,)
    q = offset.denominator
    return tuple(x * q for x in normal) + (offset.numerator,)


def _equation_rows(equations):
    """Each equation as its two opposite homogeneous rows."""
    return [r for row in map(_homogeneous_row, equations) for r in (row, tuple(-x for x in row))]


def _enumerate_generators(halfspaces, equations, rank):
    """Vertices and extreme rays of a pointed H-representation, sorted, and
    their tight masks in that order, vertices first, from a kernel run from
    scratch.

    The polyhedron is the slice ``t = 1`` of the cone over it in
    ``Z^(rank+1)``: each constraint becomes its homogeneous row, ``t >= 0``
    is added after the halfspaces, and each equation enters last as two
    opposite rows, as in a cut (``_meet``).  The extreme rays of that cone
    with ``t > 0`` are the vertices, those with ``t = 0`` the recession
    rays; bit ``i`` of a generator's mask is set when row ``i`` is tight on
    it.  The kernel refuses a run over ``PAIR_BUDGET`` candidate pairs.
    The lines it is left with span the cone's lineality space, ``t = 0`` and
    every constraint's normal orthogonal: a polyhedron with a lineality
    space is refused on them, so no separate rank test of the normals runs.
    With no constraint at all they span the whole space.
    """
    ineqs = [_homogeneous_row(h) for h in halfspaces] + [(0,) * rank + (1,)]
    cone, lines = _dd_extreme_rays(ineqs + _equation_rows(equations), rank + 1)
    if lines:
        if halfspaces or equations:
            raise UnsupportedGeometryError(_LINEALITY)
        return [], [], []
    return _cone_generators(cone)


def _cone_generators(cone):
    """The vertices and rays of the slice ``t = 1`` of a pointed cone given
    by its extreme rays as ``(z, mask)`` pairs, each sorted, and their masks
    in that order, vertices first."""
    vertices = sorted((_vertex(z), mask) for z, mask in cone if z[-1])
    rays = sorted((z[:-1], mask) for z, mask in cone if not z[-1])
    return [v for v, _ in vertices], [r for r, _ in rays], [m for _, m in vertices + rays]


def _region_cone(region):
    """The extreme rays of the cone over a nonempty pointed ``region`` as
    ``(z, mask)`` pairs: ``(v, 1)`` for a vertex ``v``, made primitive when
    ``v`` is rational, and ``(r, 0)`` for a ray ``r``.  Each mask is the
    generator's cached facet set, and a ray's also has bit
    ``len(region.halfspaces)``, the row ``t >= 0``."""
    nv = len(region.vertices)
    t_bit = 1 << len(region.halfspaces)
    cone = []
    for j, facets in enumerate(region._facet_sets):
        if j >= nv:
            cone.append((region.rays[j - nv] + (0,), facets | t_bit))
        else:
            cone.append((_cone_point(region.vertices[j]), facets))
    return cone


def _vertex(z):
    """The point ``z[:-1] / t`` of a cone ray ``z`` with ``t = z[-1] > 0``:
    read straight off the ray when ``t = 1``, else divided exactly."""
    *x, t = z
    if t == 1:
        return tuple(x)
    return tuple([c // t if c % t == 0 else Fraction(c, t) for c in x])


def _bits(mask):
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transpose(masks, width):
    """The ``width`` column masks of the row masks ``masks``: bit ``i`` of
    column ``j`` is set when bit ``j`` of row ``i`` is."""
    columns = [0] * width
    for i, mask in enumerate(masks):
        for j in _bits(mask):
            columns[j] |= 1 << i
    return columns


def _face_walk(facets, top, dim, through, gens, nv):
    """Every face of a pointed polyhedron as ``(mask, dim, tight)``: its
    generator mask, dimension and facet mask.  ``facets`` are the facet
    masks over generator ids, the ``nv`` vertices first, ``top`` is the
    polyhedron's generator mask, and the vertex with id ``j`` lies on the
    facets in ``through[j]`` at ``gens[j]``; no facet holds the whole.

    Close-by-One (Kuznetsov; Ganter's NextClosure; Kaibel and Pfetsch,
    Comput. Geom. 23, 2002): a face reached by facet ``i - 1`` ANDs in each
    facet from ``i`` on that it does not lie on, and keeps a cut that holds
    a vertex.  At a simple lowest vertex, on ``dim`` facets, the faces
    through it match the subsets of its facets, so the cut lies on the
    parent's facets and the new one, one dimension down.  Otherwise the cut
    is closed by the facets through that vertex containing it and dropped
    when that adds a facet of lower index, so each face is reached once.  A
    closure adding only the new facet is a facet of the parent (a cut
    strictly inside one would lie on the facet cutting that one out); any
    other takes its dimension from a rank.
    """
    has_vertex = (1 << nv) - 1
    found = [(top, dim, 0)]
    stack = [(top, 0, 0, dim)]
    while stack:
        mask, tight, first, d = stack.pop()
        for i in range(first, len(facets)):
            bit = 1 << i
            cut = mask & facets[i]
            if tight & bit or not cut & has_vertex:
                continue
            own = through[(cut & -cut).bit_length() - 1]
            closed = tight | bit
            cut_dim = d - 1
            if own.bit_count() != dim:
                for j in _bits(own & ~closed):
                    if cut & facets[j] == cut:
                        closed |= 1 << j
                if (closed ^ tight) & (bit - 1):
                    continue
                if closed != tight | bit:
                    cut_dim = _face_dim(*_generators(cut, gens, nv))
            found.append((cut, cut_dim, closed))
            if cut_dim:  # a vertex has no proper face
                stack.append((cut, closed, i + 1, cut_dim))
    return found


def _face_dim(verts, rays):
    """The dimension of the face with these vertices and rays: the rank of
    its rays and of its vertices less the first."""
    return rank_fraction([vsub(v, verts[0]) for v in verts[1:]] + list(rays))


def _generators(mask, gens, nv):
    """The vertices and the rays among ``gens`` whose ids are in ``mask``."""
    ids = _bits(mask)
    k = (mask & ((1 << nv) - 1)).bit_count()
    return tuple([gens[j] for j in ids[:k]]), tuple([gens[j] for j in ids[k:]])


def _maximal(sets):
    """The distinct bit sets among ``sets`` that no other one strictly
    contains, found in one pass by decreasing popcount: a set is maximal when
    none of the maximal sets found before it contains it."""
    kept = []
    for s in sorted(set(sets), key=int.bit_count, reverse=True):
        if not any(s & k == s for k in kept):
            kept.append(s)
    return kept


def _tightest(halfspaces):
    """The indices of the tightest halfspace per normal among
    ``halfspaces``, in sorted order; None entries are skipped."""
    best = {}
    for i, h in enumerate(halfspaces):
        if h is not None:
            n = h.normal
            if n not in best or h.offset < halfspaces[best[n]].offset:
                best[n] = i
    return [i for _, i in sorted(best.items())]


def _extreme(generators, facet_sets):
    """The distinct generators whose sets of facets are maximal among them,
    sorted, each with its index: ``facet_sets[j]`` is the facet mask of
    generator ``j``."""
    first = {}
    for j, g in enumerate(generators):
        first.setdefault(g, j)
    maximal = set(_maximal(facet_sets[j] for j in first.values()))
    return sorted((g, j) for g, j in first.items() if facet_sets[j] in maximal)


# prefixes visited plus lattice points listed by one scan
POINT_BUDGET = 10**7


def _column_bounds(poly):
    """The constraints of ``poly`` on its last coordinate given the others,
    as ``(head, step, rhs)`` for ``<head, prefix> + step * x >= rhs`` (or
    ``=``): the halfspaces with a positive and with a negative last entry,
    and the first equation with a nonzero one, or None.  ``poly`` None has
    none."""
    lower, upper, fix = [], [], None
    if poly is not None:
        for h in poly.halfspaces:
            step = h.normal[-1]
            if step:
                (lower if step > 0 else upper).append((h.normal[:-1], step, -h.offset))
        for e in poly.equations:
            if e.normal[-1]:
                fix = (e.normal[:-1], e.normal[-1], -e.offset)
                break
    return lower, upper, fix


class LatticePolytope:
    """A rational polyhedron with cached dual description and face lattice."""

    __slots__ = (
        "ambient_rank",
        "halfspaces",
        "equations",
        "vertices",
        "rays",
        "is_whole_space",
        "dim",
        "_incidence",
        "_facet_sets",
        "_faces",
        "_lattice_runs",
        "_neighbours",
        "_nonsingular",
        "_chart",
        "_vertex_ids",
        "_normals",
        "_offsets",
        "_keys",
    )

    def __init__(
        self, ambient_rank, halfspaces, equations, vertices, rays, incidence, facet_sets, chart=None
    ):
        """``incidence`` holds one mask per halfspace: bit ``j`` is set when
        the ``j``-th generator, vertices first, lies on it.  ``facet_sets``
        is its transpose, one mask of the facets through each generator in
        that order.  ``chart`` is the direction basis
        ``_dual_from_generators`` kept, None in full dimension.  The
        equations are independent, so the dimension is the rank less their
        number, and a nonempty pointed polyhedron has a vertex, so one
        without is the whole space."""
        self.ambient_rank = ambient_rank
        self.halfspaces = tuple(halfspaces)
        self.equations = tuple(equations)
        self.vertices = tuple(vertices)
        self.rays = tuple(rays)
        self.is_whole_space = not self.vertices
        self.dim = ambient_rank - len(self.equations)
        self._incidence = tuple(incidence)
        self._facet_sets = tuple(facet_sets)
        self._faces = None
        self._lattice_runs = None
        self._neighbours = {}
        self._nonsingular = {}
        self._chart = chart
        self._vertex_ids = None
        self._normals = None
        self._offsets = None
        self._keys = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_vertices(cls, points):
        """Convex hull of finitely many points (compact polytope)."""
        return cls.from_generators(points, ())

    @classmethod
    def from_generators(cls, points, rays):
        """conv(points) + cone(rays), from one double description: the facets
        and their incidence come from ``_dual_from_generators``, and a
        generator is extreme when its set of facets is maximal among the
        generators of its kind.  The facet sets of the generators it keeps
        are the transpose of its incidence, so the polyhedron takes them as
        found.  Only a hull with rays can have a lineality space."""
        points = [normalize_point(p) for p in points]
        if not points:
            raise GeometryError("at least one point is required")
        rank = len(points[0])
        rays = [primitive(r) for r in rays]
        halfspaces, equations, incidence, chart = _dual_from_generators(points, rays, rank)
        if rays:
            # the hull of finitely many points is bounded, so pointed
            _refuse_lineality(halfspaces, equations, rank)
            if not halfspaces and not equations:
                # the hull is the whole space, which has no generator
                return cls(rank, (), (), (), (), (), ())
        facet_sets = _transpose(incidence, len(points) + len(rays))
        vertices = _extreme(points, facet_sets)
        extreme = _extreme(rays, facet_sets[len(points) :])
        kept = [facet_sets[j] for _, j in vertices]
        kept += [facet_sets[len(points) + j] for _, j in extreme]
        masks = _transpose(kept, len(incidence))
        vertices = [v for v, _ in vertices]
        rays = [r for r, _ in extreme]
        return cls(rank, halfspaces, equations, vertices, rays, masks, kept, chart)

    @classmethod
    def from_halfspaces(cls, halfspaces, rank, equations=()):
        """Intersection of halfspaces; may be unbounded or the whole space."""
        return cls._from_normalized(
            [_normalize_halfspace(n, o) for n, o in halfspaces],
            rank,
            [_normalize_equation(n, o) for n, o in equations],
        )

    @classmethod
    def _from_normalized(cls, halfspaces, rank, equations):
        """``from_halfspaces`` for constraints already in normal form: one
        kernel run from scratch over the tightest halfspace per normal."""
        if not halfspaces and not equations:
            return cls(rank, (), (), (), (), (), ())
        halfspaces = [halfspaces[i] for i in _tightest(halfspaces)]
        generators = _enumerate_generators(halfspaces, equations, rank)
        # then come the kernel's ``t >= 0`` and the equations' rows
        rows = [*halfspaces, None] + [None] * (2 * len(equations))
        return cls._from_tight(rows, equations, rank, *generators)

    def _meet(self, halfspaces, equations):
        """This polyhedron cut by further constraints in normal form, in one
        pass over the cone over it (``_region_cone``), its facet bits where
        they are and ``t >= 0`` next: one ``_dd_split`` step per new row, an
        equation being two opposite rows, with the candidate pairs counted
        over all the rows.  A halfspace whose normal this polyhedron stores
        with an offset no larger (``_facet_offsets``) cuts nothing: its row
        is None and runs no step, and ``_tightest`` would have kept the
        stored one over it, so the result is the same.  The whole space has
        no vertex to start from, so its cut runs from scratch."""
        rank = self.ambient_rank
        if self.is_whole_space:
            return LatticePolytope._from_normalized(halfspaces, rank, equations)
        own = self._facet_offsets()
        halfspaces = [None if own.get(h.normal, math.inf) <= h.offset else h for h in halfspaces]
        new = [h and _homogeneous_row(h) for h in halfspaces] + _equation_rows(equations)
        cone, pairs = _region_cone(self), 0
        for i, a in enumerate(new, len(self.halfspaces) + 1):
            if a is not None:
                pos, _, on, pairs = _dd_split(a, 1 << i, cone, self.dim - 1, pairs)
                cone = [(z, mask) for z, mask, _ in pos] + on
        rows = [*self.halfspaces, None, *halfspaces] + [None] * (2 * len(equations))
        equations = [*self.equations, *equations]
        return LatticePolytope._from_tight(rows, equations, rank, *_cone_generators(cone))

    @classmethod
    def _from_tight(cls, rows, equations, rank, vertices, rays, masks):
        """The polyhedron cut out by ``rows`` and the ``equations``, read off
        the sorted vertices and rays of the cone over it and their masks,
        vertices first: bit ``i`` of a mask is set when ``rows[i]`` is tight
        on that generator.  A row is a halfspace, or None for ``t >= 0`` and
        the rows of an equation.  With no vertex the polyhedron is empty.
        One transpose gives each row's tight set, and the facets are the
        tightest halfspaces per normal, sorted, whose tight sets are
        maximal; the generators' facet sets are one transpose of the facets'
        tight sets.  A lower-dimensional system has normals canonical only modulo its
        affine hull, so its facets are rebuilt from the generators."""
        if not vertices:
            raise EmptyPolyhedronError("empty polyhedron")
        columns = _transpose(masks, len(rows))
        kept = _tightest(rows)
        tight = [columns[i] for i in kept]
        if equations or (1 << len(masks)) - 1 in tight:
            hs, eqs, incidence, chart = _dual_from_generators(vertices, rays, rank)
        else:
            maximal = set(_maximal(tight))
            facets = [i for i in kept if columns[i] in maximal]
            hs, eqs, incidence, chart = [rows[i] for i in facets], (), [columns[i] for i in facets], None
        return cls(rank, hs, eqs, vertices, rays, incidence, _transpose(incidence, len(masks)), chart)

    # -- basic queries ----------------------------------------------------

    @property
    def is_compact(self):
        return not self.rays and not self.is_whole_space

    @property
    def is_lattice(self):
        # integral coordinates are always plain ints
        return all(type(x) is int for v in self.vertices for x in v)

    def contains(self, point) -> bool:
        if len(point) != self.ambient_rank:
            raise GeometryError("point has wrong dimension")
        if self.is_whole_space:
            return True
        return all(vdot(point, h.normal) >= -h.offset for h in self.halfspaces) and all(
            vdot(point, e.normal) == -e.offset for e in self.equations
        )

    def contains_polyhedron(self, other: "LatticePolytope") -> bool:
        """Whether ``other`` lies in this polyhedron: every vertex and ray of
        it satisfies each constraint, except an equation ``other`` stores
        and a halfspace whose normal it stores with an offset no larger
        (``_facet_offsets``), which hold on it already."""
        if self.is_whole_space:
            return True
        if other.is_whole_space:
            return False
        own, own_eqs = other._facet_offsets(), set(other.equations)
        hs = [h for h in self.halfspaces if own.get(h.normal, math.inf) > h.offset]
        eqs = [e for e in self.equations if e not in own_eqs]
        return (
            all(vdot(v, h.normal) >= -h.offset for h in hs for v in other.vertices)
            and all(vdot(r, h.normal) >= 0 for h in hs for r in other.rays)
            and all(vdot(v, e.normal) == -e.offset for e in eqs for v in other.vertices)
            and all(vdot(r, e.normal) == 0 for e in eqs for r in other.rays)
        )

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.ambient_rank == other.ambient_rank
            and self.is_whole_space == other.is_whole_space
            and set(self.vertices) == set(other.vertices)
            and set(self.rays) == set(other.rays)
        )

    def __hash__(self):
        return hash((self.ambient_rank, frozenset(self.vertices), frozenset(self.rays)))

    def __repr__(self):
        if self.is_whole_space:
            return f"LatticePolytope(R^{self.ambient_rank})"
        kind = "polytope" if self.is_compact else "polyhedron"
        return (
            f"LatticePolytope({self.dim}-dim {kind} in rank {self.ambient_rank}, "
            f"{len(self.vertices)} vertices, {len(self.rays)} rays)"
        )

    @property
    def key(self):
        return (self.vertices, self.rays)

    # -- faces -------------------------------------------------------------

    def faces(self, dim=None):
        """The faces sorted by dimension and key, from one ``_face_walk``,
        found once; ``dim`` keeps those of one dimension."""
        if self._faces is None:
            gens, nv = self.vertices + self.rays, len(self.vertices)
            top = (1 << len(gens)) - 1
            walk = _face_walk(self._incidence, top, self.dim, self._facet_sets, gens, nv)
            faces = [Face(*_generators(m, gens, nv), d, frozenset(_bits(t))) for m, d, t in walk]
            self._faces = tuple(sorted(faces, key=lambda f: (f.dim, f.vertices, f.rays)))
        if dim is None:
            return self._faces
        return tuple(f for f in self._faces if f.dim == dim)

    def _cut(self, facets):
        """The generator mask of the face the facets in the mask ``facets``
        cut out: the intersection of their incidence masks."""
        mask = (1 << (len(self.vertices) + len(self.rays))) - 1
        for i in _bits(facets):
            mask &= self._incidence[i]
        return mask

    def _face_cut_by(self, facets):
        """The face that the facets in the mask ``facets`` cut out, closed
        with no face lattice: the cut (``_cut``), tight on the facets through
        its lowest vertex that hold it, of dimension ``dim`` less their count
        when that vertex is simple, as in ``_face_walk``, else a rank.  The
        whole space is its own face; another cut with no vertex raises
        ``GeometryError``."""
        if self.is_whole_space:
            return Face((), (), self.dim, frozenset())
        cut, nv = self._cut(facets), len(self.vertices)
        if not cut & ((1 << nv) - 1):
            raise GeometryError("generators do not lie on a common face")
        own = self._facet_sets[(cut & -cut).bit_length() - 1]
        tight = [i for i in _bits(own) if cut & self._incidence[i] == cut]
        verts, rays = _generators(cut, self.vertices + self.rays, nv)
        dim = self.dim - len(tight) if own.bit_count() == self.dim else _face_dim(verts, rays)
        return Face(verts, rays, dim, frozenset(tight))

    def smallest_face_containing(self, points, rays=()):
        """The smallest face containing the given points and ray directions:
        the face cut out by the facets that hold all of them."""
        facets = sum(
            1 << i
            for i, h in enumerate(self.halfspaces)
            if all(vdot(p, h.normal) == -h.offset for p in points)
            and all(vdot(r, h.normal) == 0 for r in rays)
        )
        return self._face_cut_by(facets)

    # -- vertex-local structure --------------------------------------------

    def _vertex_id(self, vertex):
        """The index of a vertex in ``vertices``, or None for a point that
        is not one, from a dict built once."""
        if self._vertex_ids is None:
            self._vertex_ids = {v: a for a, v in enumerate(self.vertices)}
        return self._vertex_ids.get(tuple(vertex))

    def neighbours(self, a):
        """The generators adjacent to the ``a``-th vertex, as ascending
        indices into ``vertices + rays``.

        At a simple vertex, on ``dim`` facets, the vertex figure is a
        simplex: all of the vertex's facets but one cut out an edge, the
        vertex and one more generator.  At any other vertex every generator
        is tried: it spans an edge with the vertex when the facets through
        both cut out exactly the two of them, and an edge lies on at least
        ``dim - 1`` facets, so a generator sharing fewer with the vertex is
        skipped first.  Found once per vertex and cached.
        """
        found = self._neighbours.get(a)
        if found is None:
            facet_sets = self._facet_sets
            own, vertex = facet_sets[a], 1 << a
            if own.bit_count() == self.dim:
                # the cut of all facets but the k-th: the AND of those before
                # it and of those after it, from one pass each way
                masks = [self._incidence[i] for i in _bits(own)]
                after = [(1 << len(facet_sets)) - 1]
                for m in reversed(masks[1:]):
                    after.append(after[-1] & m)
                before, found = after[0], []
                for k, m in enumerate(masks):
                    found.append(((before & after[-1 - k]) ^ vertex).bit_length() - 1)
                    before &= m
                found.sort()
            else:
                found = []
                for b, fb in enumerate(facet_sets):
                    common = own & fb
                    if b == a or common.bit_count() < self.dim - 1:
                        continue
                    if self._cut(common) == vertex | (1 << b):
                        found.append(b)
            found = self._neighbours[a] = tuple(found)
        return found

    def _edge_direction(self, a, b):
        """The primitive direction from the ``a``-th vertex to generator ``b``."""
        nv = len(self.vertices)
        if b < nv:
            return primitive(vsub(self.vertices[b], self.vertices[a]))
        return self.rays[b - nv]

    def is_simplicial(self) -> bool:
        """Whether every vertex lies on exactly ``dim`` facets.  For a pointed
        polyhedron that is every vertex having ``dim`` edges: the vertex
        figure is a simplex exactly when it has ``dim`` facets."""
        if self.is_whole_space:
            return False
        d = self.dim
        return all(fs.bit_count() == d for fs in self._facet_sets[: len(self.vertices)])

    def _lattice_normals(self):
        """Per facet, its inward normal in the polyhedron's own lattice and
        the gcd it was divided by.  In full dimension that is the stored
        normal, primitive already, and the gcd 1; below it, the stored
        normal restricted to the direction basis ``_dual_from_generators``
        kept, made primitive.  Found once."""
        if self._normals is None:
            if self.dim == self.ambient_rank:
                self._normals = [(h.normal, 1) for h in self.halfspaces]
            else:
                self._normals = []
                for h in self.halfspaces:
                    r = [vdot(h.normal, b) for b in self._chart]
                    g = math.gcd(*r)
                    self._normals.append((tuple([x // g for x in r]), g))
        return self._normals

    def _facet_offsets(self):
        """The offset of each stored halfspace keyed by its normal, found once."""
        if self._offsets is None:
            self._offsets = {h.normal: h.offset for h in self.halfspaces}
        return self._offsets

    def is_nonsingular_at(self, vertex) -> bool:
        """Whether the polyhedron is smooth at a vertex: the vertex lies on
        ``dim`` facets and their normals in the polyhedron's own lattice
        (``_lattice_normals``) have determinant +-1.  The tangent cone is
        then smooth, so its primitive edge directions are a lattice basis
        too (Cox, Little and Schenck, Toric Varieties, 2.4).  A vertex on
        any other number of facets is not, nor is a point that is no vertex.
        Found once per vertex and cached."""
        vertex = tuple(vertex)
        found = self._nonsingular.get(vertex)
        if found is None:
            a = self._vertex_id(vertex)
            found = False
            if a is not None:
                own, normals = self._facet_sets[a], self._lattice_normals()
                found = own.bit_count() == self.dim and (
                    abs(determinant([normals[i][0] for i in _bits(own)])) == 1
                )
            self._nonsingular[vertex] = found
        return found

    def singular_vertices(self):
        """The vertices that are not nonsingular, in vertex order."""
        return tuple(v for v in self.vertices if not self.is_nonsingular_at(v))

    def is_nonsingular(self) -> bool:
        return all(self.is_nonsingular_at(v) for v in self.vertices)

    def edge_expansion(self, vertex, vector):
        """The primitive edge directions at a nonsingular vertex, sorted, each
        with the coefficient of ``vector`` in that basis; ``vector`` lies in
        the direction space.  The vertex is simple, so each edge lies on all
        of its facets but one, the facet that the far end is not on.  The
        facet normals are the dual basis of the edges, so a coefficient is
        ``<n, vector> / g`` for that facet's stored normal ``n`` and its gcd
        ``g`` in ``_lattice_normals``."""
        a = self._vertex_id(vertex)
        facet_sets, normals = self._facet_sets, self._lattice_normals()
        out = []
        for b in self.neighbours(a):
            i = (facet_sets[a] & ~facet_sets[b]).bit_length() - 1
            coeff = _divide(vdot(self.halfspaces[i].normal, vector), normals[i][1])
            out.append((self._edge_direction(a, b), coeff))
        return sorted(out)

    def lattice_coordinates(self, point):
        """A point's coordinates in the polyhedron's own lattice: the point
        itself when the polyhedron is full-dimensional, else its coordinates
        from the first vertex along the direction basis, a basis of the
        integer points of the direction space that ``_dual_from_generators``
        kept."""
        if self.dim == self.ambient_rank:
            return tuple(point)
        basis = self._chart
        target = vsub(point, self.vertices[0])
        status, t = solve_linear([[b[i] for b in basis] for i in range(len(target))], target)
        if status != "unique":
            raise GeometryError("point outside the affine hull chart")
        return normalize_point(t)

    def vertex_keys(self):
        """Per vertex, in vertex order, its row of the vertex-facet pairing
        matrix, sorted: the lattice distances ``(<n, v> + offset) / g`` to
        the facets, with the gcd ``g`` of ``_lattice_normals``, so they are
        measured in the polyhedron's own lattice.  An affine-unimodular map
        keeps them (Kreuzer and Skarke, Comput. Phys. Commun. 157, 2004).
        Found once."""
        if self._keys is None:
            gcds = [g for _, g in self._lattice_normals()]
            rows = [(h.normal, h.offset, g) for h, g in zip(self.halfspaces, gcds)]
            self._keys = tuple(
                tuple(sorted([_divide(vdot(v, n) + c, g) for n, c, g in rows]))
                for v in self.vertices
            )
        return self._keys

    # -- metric / point queries ---------------------------------------------

    def lattice_runs(self):
        """The lattice points of a compact polytope as runs ``(prefix, lo,
        hi)``, the points ``prefix + (x,)`` for ``lo <= x <= hi``, in
        lexicographic order: one run per prefix of the first ``n - 1``
        coordinates whose column holds a point.  In rank 0 the one point
        ``()`` has no column; it is the run ``((), 0, 0)``.  Found once by
        ``_scan_runs``."""
        if not self.is_compact:
            raise GeometryError("lattice point enumeration requires a compact polytope")
        if self._lattice_runs is None:
            self._lattice_runs = self._scan_runs()
        return self._lattice_runs

    def lattice_points(self):
        """All lattice points of a compact polytope in lexicographic order, as
        a fresh list: the runs expanded."""
        runs = self.lattice_runs()
        if not self.ambient_rank:
            return [()]
        return [prefix + (x,) for prefix, lo, hi in runs for x in range(lo, hi + 1)]

    def _scan_runs(self):
        """Project and lift, as Normaliz enumerates lattice points.  Each
        prefix lies in the projection onto its coordinates, so its fiber in
        the hull bounding the next coordinate is a nonempty interval, cut
        out by the constraints with a nonzero last entry; an equation fixes
        the coordinate, and a branch ends where it is no integer.  Prefixes
        and points are counted, and a range that would take the count past
        ``POINT_BUDGET`` is refused before it is expanded."""
        n = self.ambient_rank
        if not n:
            return (((), 0, 0),)
        # the hull bounding coordinate k, the last of its coordinates
        hulls = {n - 1: self}
        for k in range(n - 2, 0, -1):
            hulls[k] = LatticePolytope.from_vertices([v[: k + 1] for v in hulls[k + 1].vertices])
        prefixes, runs, count = [()], [], 0
        for k in range(n):
            coords = [v[k] for v in self.vertices]
            least, most = math.ceil(min(coords)), math.floor(max(coords))
            lower, upper, fix = _column_bounds(hulls.get(k))
            last = k == n - 1
            lifted = []
            for prefix in prefixes:
                if fix is not None:
                    head, step, rhs = fix
                    a, rest = divmod(rhs - vdot(head, prefix), step)
                    if rest:
                        continue
                    b = a
                else:
                    a, b = least, most
                    # step * x >= rest: ceil or floor of rest / step
                    for head, step, rhs in lower:
                        a = max(a, -((vdot(head, prefix) - rhs) // step))
                    for head, step, rhs in upper:
                        b = min(b, (rhs - vdot(head, prefix)) // step)
                    if a > b:
                        continue
                count += b - a + 1
                if count > POINT_BUDGET:
                    raise UnsupportedGeometryError(
                        f"lattice point enumeration past {POINT_BUDGET} prefixes and points"
                    )
                if last:
                    runs.append((prefix, a, b))
                else:
                    lifted += [prefix + (x,) for x in range(a, b + 1)]
            prefixes = lifted
        return tuple(runs)

    def relative_interior_point(self):
        if self.is_whole_space:
            return (0,) * self.ambient_rank
        n = len(self.vertices)
        acc = tuple(_divide(sum(c), n) for c in zip(*self.vertices))
        for r in self.rays:
            acc = vadd(acc, r)
        return acc

    def intersect(self, halfspaces=(), equations=()):
        """Intersection with further constraints; raises on emptiness.  Only
        the new constraints are normalized: the polyhedron's own already are.
        The cut runs one double description step per new row over the cone
        over this polyhedron (``_meet``)."""
        hs = [_normalize_halfspace(n, o) for n, o in halfspaces]
        eqs = [_normalize_equation(n, o) for n, o in equations]
        return self._meet(hs, eqs)

    def split(self, normal, value):
        """The two sides ``(above, below)`` of a pointed polyhedron that the
        hyperplane ``<x, normal> = value`` crosses: ``above`` where ``<x,
        normal> >= value`` and ``below`` where ``<= value``, each what
        ``intersect`` with that halfspace gives.  Both come from one
        ``_dd_split`` step over the cone over the polyhedron
        (``_region_cone``): the rays split by the sign of the cut's row
        once, and the rays on the hyperplane, combined from the adjacent
        pairs across it, are shared by both sides.  Each side is read off
        its masks by the tail every cut shares (``_from_tight``), the cut's
        row after ``t >= 0``.  A hyperplane that leaves the polyhedron on one
        closed side raises ``GeometryError``."""
        above = _normalize_halfspace(normal, -value)
        below = Halfspace(tuple(-x for x in above.normal), -above.offset)
        bit = 1 << (len(self.halfspaces) + 1)
        pos, neg, on, _ = _dd_split(_homogeneous_row(above), bit, _region_cone(self), self.dim - 1, 0)
        if not (pos and neg):
            raise GeometryError("the hyperplane does not cross the polyhedron")
        return tuple(
            LatticePolytope._from_tight(
                [*self.halfspaces, None, cut],
                self.equations,
                self.ambient_rank,
                *_cone_generators([(z, mask) for z, mask, _ in kept] + on),
            )
            for cut, kept in ((above, pos), (below, neg))
        )

    def intersect_polyhedron(self, other: "LatticePolytope"):
        """Intersection with another polyhedron, cut from this one as
        ``intersect`` does."""
        return self._meet(other.halfspaces, other.equations)

    def box_halfspaces(self, margin=1):
        """Halfspaces of the axis box strictly containing all vertices, one
        ray step deep."""
        hs = []
        for i in range(self.ambient_rank):
            coords = [v[i] for v in self.vertices] or [0]
            coords += [v[i] + r[i] for v in self.vertices for r in self.rays]
            e = tuple(int(i == j) for j in range(self.ambient_rank))
            hs.append(Halfspace(e, margin - math.floor(min(coords))))
            hs.append(Halfspace(tuple(-x for x in e), math.ceil(max(coords)) + margin))
        return hs

    def bounding_box_polytope(self, margin=1):
        return LatticePolytope._from_normalized(self.box_halfspaces(margin), self.ambient_rank, ())


# -- fans ---------------------------------------------------------------------


class Fan:
    """A fan given by primitive rays and cones as ray-index sets."""

    def __init__(self, rank, rays, cones):
        self.rank = rank
        self.rays = tuple(tuple(r) for r in rays)
        self.cones = frozenset(frozenset(c) for c in cones)
        self._cone_face_cache = {}
        maximal = []
        for c in sorted(self.cones, key=lambda c: (-len(c), sorted(c))):
            if not any(c < m for m in maximal):
                maximal.append(c)
        # the cones no other contains, sorted: found once
        self.maximal_cones = tuple(sorted(maximal, key=sorted))

    def __repr__(self):
        return f"Fan(rank {self.rank}, {len(self.rays)} rays, {len(self.cones)} cones)"

    def cone_dim(self, cone):
        if not cone:
            return 0
        return rank_fraction([self.rays[i] for i in cone])

    def cone_polyhedron(self, cone):
        if cone not in self._cone_face_cache:
            origin = tuple(0 for _ in range(self.rank))
            poly = LatticePolytope.from_generators([origin], [self.rays[i] for i in cone])
            self._cone_face_cache[cone] = poly
        return self._cone_face_cache[cone]

    def cone_facets(self, cone):
        """Ray-index sets of the codimension-one faces of a cone, one per
        facet of its polyhedron in halfspace order: the cone's rays among the
        extreme rays in that facet's incidence mask."""
        poly = self.cone_polyhedron(cone)
        nv = len(poly.vertices)
        out = []
        for mask in poly._incidence:
            rays = {poly.rays[j] for j in _bits(mask >> nv)}
            out.append(frozenset(i for i in cone if self.rays[i] in rays))
        return out

    def is_complete(self) -> bool:
        """Support equals the whole space (every wall borders two chambers)."""
        maxes = [c for c in self.maximal_cones if self.cone_dim(c) == self.rank]
        if len(maxes) != len(self.maximal_cones) or not maxes:
            return self.rank == 0
        wall_count = {}
        for c in maxes:
            for w in self.cone_facets(c):
                wall_count[w] = wall_count.get(w, 0) + 1
        return all(v == 2 for v in wall_count.values())


def normal_fan(poly: LatticePolytope) -> Fan:
    """One cone per face, spanned by the inward normals of incident facets."""
    if poly.dim != poly.ambient_rank:
        raise GeometryError("normal fan requires a full-dimensional polytope")
    if poly.is_whole_space:
        return Fan(poly.ambient_rank, (), [frozenset()])
    rays = [h.normal for h in poly.halfspaces]
    cones = [frozenset(f.tight) for f in poly.faces()]
    return Fan(poly.ambient_rank, rays, cones)


def _positive_relation(vectors, what):
    """The primitive relation ``sum_i w_i v_i = 0`` among ``vectors`` with
    every ``w_i > 0``; ``GeometryError`` naming ``what`` when the relations
    do not form a line, or that line holds no positive one."""
    kernel = left_kernel(vectors)
    if len(kernel) != 1:
        raise GeometryError(f"{what} must satisfy a single linear relation")
    # the integer relations form a saturated lattice: its generator is primitive
    (rel,) = kernel
    if all(x < 0 for x in rel):
        rel = tuple(-x for x in rel)
    if not all(x > 0 for x in rel):
        raise GeometryError(f"{what} must satisfy a single positive relation")
    return rel


def complete_fan_from_rays(rays):
    """The complete simplicial fan on n+1 rays in a single positive relation.

    The rays must satisfy one relation, up to scaling, and it must have
    all-positive coefficients; the maximal cones then drop one ray each (the
    combinatorics of a projective space).  No chamber needs a further test:
    n of the rays that were dependent would carry a relation with a zero
    coefficient, so any n are a basis, and the chambers are those of the fan
    of a weighted projective space, which is complete.
    """
    rays = [primitive(r) for r in rays]
    rank = len(rays[0])
    if len(rays) != rank + 1:
        raise GeometryError("expected rank+1 rays")
    _positive_relation(rays, "rays")
    cones = set()
    for drop in range(rank + 1):
        chamber = [i for i in range(rank + 1) if i != drop]
        for k in range(rank + 1):
            cones.update(map(frozenset, itertools.combinations(chamber, k)))
    return Fan(rank, rays, cones)


# -- support functions ---------------------------------------------------------


class SupportFunction:
    """A piecewise linear function on a fan, given by its values on rays."""

    def __init__(self, fan: Fan, values):
        self.fan = fan
        self.values = tuple(Fraction(v) for v in values)
        if len(self.values) != len(fan.rays):
            raise GeometryError("one value per ray is required")
        self._linears = {}
        for cone in fan.maximal_cones:
            idx = sorted(cone)
            rows = [fan.rays[i] for i in idx]
            rhs = [self.values[i] for i in idx]
            if not rows:
                self._linears[cone] = tuple(Fraction(0) for _ in range(fan.rank))
                continue
            sol = solve_particular(rows, rhs)
            if sol is None:
                raise GeometryError("values do not extend linearly over a cone")
            self._linears[cone] = sol

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def classify(self) -> str:
        """One of ``affine``, ``strictly-convex``, ``convex``, ``none``.

        Convexity here is the toric-divisor convention: the function is the
        minimum of its cone-linear pieces, so each piece over-estimates the
        values on rays outside its own cone.
        """
        if not self.fan.is_complete():
            raise GeometryError("classification requires a complete fan")
        maxes = self.fan.maximal_cones
        linears = [self._linears[c] for c in maxes]
        if all(l == linears[0] for l in linears):
            return "affine"
        weak = True
        strict = True
        for cone, lin in zip(maxes, linears):
            for i, ray in enumerate(self.fan.rays):
                if i in cone:
                    continue
                bound = vdot(lin, ray)
                if bound < self.values[i]:
                    weak = False
                    strict = False
                elif bound == self.values[i]:
                    strict = False
        if strict:
            return "strictly-convex"
        if weak:
            return "convex"
        return "none"

    def divisor_polytope(self) -> LatticePolytope:
        """``{u : <u, ray> >= value(ray) for all rays}``."""
        if self.classify() == "none":
            raise GeometryError("divisor polytope requires a convex support function")
        hs = [(ray, -v) for ray, v in zip(self.fan.rays, self.values)]
        return LatticePolytope.from_halfspaces(hs, self.fan.rank)


# -- lattice equivalence --------------------------------------------------------


def _lattice_vertices(poly):
    """The vertices of a lattice polytope in its own lattice coordinates,
    in vertex order."""
    verts = [poly.lattice_coordinates(v) for v in poly.vertices]
    if any(type(x) is not int for v in verts for x in v):
        raise GeometryError("lattice equivalence requires lattice polytopes")
    return verts


# candidate maps plus the vertex images they test, in one search
CANDIDATE_BUDGET = 2 * 10**5


def lattice_equivalences(p: LatticePolytope, q: LatticePolytope):
    """Yield all affine-unimodular maps with ``psi(P) = Q``.

    Maps are returned as ``(matrix_rows, translation)`` acting by
    ``x -> A x + t`` in the polytopes' own lattice coordinates
    (``lattice_coordinates``, ambient ones in full dimension).  A map keeps
    each vertex's key (``vertex_keys``), so P and Q with different key
    multisets are told apart at once.  A candidate sends a vertex ``p0`` of
    P of the rarest key to a vertex of Q of the same key, and the edge
    vectors at ``p0``, read off its neighbours, to those at the image, each
    to one whose far end has the same key as its own.  The edge vectors of a
    spanning subset are the rows of ``E``, those of their images the rows of
    ``T``, so ``A = T^T (E^T)^-1``.  One fraction-free elimination of
    ``[E^T | I]`` gives ``det * (E^T)^-1`` in integers, and each candidate's
    ``A`` is an integer product divided exactly by ``det``; a product that
    ``det`` does not divide is no lattice map.  A surviving candidate is
    checked vertex by vertex up to the first image that is no vertex of Q.
    The search counts its candidates and the vertex images it tests, and
    refuses to go past ``CANDIDATE_BUDGET`` with ``UnsupportedGeometryError``.
    """
    if not (p.is_compact and q.is_compact):
        raise GeometryError("lattice equivalence requires compact polytopes")
    if p.dim != q.dim:
        return
    d = p.dim
    if d == 0:
        yield tuple(), tuple()
        return
    p_verts = _lattice_vertices(p)
    q_verts = _lattice_vertices(q)
    p_keys, q_keys = p.vertex_keys(), q.vertex_keys()
    if sorted(p_keys) != sorted(q_keys):
        return
    q_set = set(q_verts)

    def edge_vectors(poly, verts, keys, a):
        """The edge vectors at the ``a``-th vertex, each after the key of
        its far end, sorted."""
        return sorted((keys[b], vsub(verts[b], verts[a])) for b in poly.neighbours(a))

    count = Counter(p_keys)
    a0 = min(range(len(p_verts)), key=lambda a: (count[p_keys[a]], p_verts[a]))
    p0 = p_verts[a0]
    p_sorted = edge_vectors(p, p_verts, p_keys, a0)
    p_far = [k for k, _ in p_sorted]
    p_edges = [e for _, e in p_sorted]
    # a spanning subset of edge vectors determines the linear part
    span_idx = []
    rows = []
    for i, e in enumerate(p_edges):
        if rank_fraction(rows + [e]) > len(span_idx):
            span_idx.append(i)
            rows.append(e)
        if len(span_idx) == d:
            break
    # [E^T | I] reduces to [det * I | det * (E^T)^-1]
    m = [col + tuple(int(r == c) for c in range(d)) for r, col in enumerate(zip(*rows))]
    _, _, det = echelon(m, d)
    inv_cols = list(zip(*(row[d:] for row in m)))
    work = 0
    # a map is fixed by the image of p0 and the order of the edges at it, so
    # no map is yielded twice
    starts = [b for b in range(len(q_verts)) if q_keys[b] == p_keys[a0]]
    for b0 in sorted(starts, key=q_verts.__getitem__):
        q_sorted = edge_vectors(q, q_verts, q_keys, b0)
        if [k for k, _ in q_sorted] != p_far:
            continue
        groups = [[e for _, e in run] for _, run in itertools.groupby(q_sorted, key=lambda x: x[0])]
        for choice in itertools.product(*map(itertools.permutations, groups)):
            work = _spend(work, 1)
            targets = [e for group in choice for e in group]
            a = _linear_part([targets[i] for i in span_idx], inv_cols, det)
            if a is None or abs(determinant(a)) != 1:
                continue
            if any(_apply(a, p_edges[i]) != targets[i] for i in range(len(p_edges))):
                continue
            t = vsub(q_verts[b0], _apply(a, p0))
            # as many vertices on both sides: the images are all of Q
            missed = next(
                (k for k, v in enumerate(p_verts) if vadd(_apply(a, v), t) not in q_set), None
            )
            work = _spend(work, len(p_verts) if missed is None else missed + 1)
            if missed is None:
                yield a, t


def _spend(work, units):
    """``work + units``, refused past ``CANDIDATE_BUDGET``."""
    work += units
    if work > CANDIDATE_BUDGET:
        raise UnsupportedGeometryError(
            f"lattice equivalence over {work} candidate maps and vertex images"
        )
    return work


def _linear_part(targets, inv_cols, det):
    """The rows of ``T^T inv / det`` for the rows ``targets`` of ``T``, or
    None at the first entry ``det`` does not divide."""
    a = []
    for col in zip(*targets):
        row = []
        for inv in inv_cols:
            x, r = divmod(vdot(col, inv), det)
            if r:
                return None
            row.append(x)
        a.append(tuple(row))
    return tuple(a)


def _apply(matrix_rows, vector):
    return tuple([vdot(row, vector) for row in matrix_rows])


def lattice_equivalent(p: LatticePolytope, q: LatticePolytope):
    """First unimodular affine map taking P onto Q, or None."""
    for found in lattice_equivalences(p, q):
        return found
    return None
