"""Partitions of a polytope into simplicial subpolytopes.

A partition stores its full face poset as a table of generator masks: every
face of every piece is a face of the partition, found by the polyhedron face
walk over generator ids the pieces share (``_collect_faces``).  Vertices of
the ambient polytope are *not* counted as 0-faces of the partition.  The
semi-stability condition counts, for each partition face and the smallest
ambient face containing it, how many pieces share it.  A partition whose
pieces have more than ``FACE_BUDGET`` faces in all is refused before any
walk.  Hyperplane cuts, and the polyhedral difference that finds a gap,
split a region that a hyperplane crosses once, into both sides
(``LatticePolytope.split``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import EmptyPolyhedronError, GeometryError, PartitionError, UnsupportedGeometryError
from .exactmath import primitive, vdot, vsub
from .polytope import (
    Face,
    Fan,
    LatticePolytope,
    _bits,
    _face_walk,
    _generators,
    _normalize_halfspace,
    _positive_relation,
)


@dataclass(frozen=True)
class PartitionFace:
    """A face of the partition with its piece incidences."""

    vertices: tuple
    rays: tuple
    dim: int
    pieces: frozenset
    ambient_face: Face  # smallest face of the ambient polytope containing it

    @property
    def key(self):
        return (self.vertices, self.rays)

    @property
    def is_interior(self):
        return self.ambient_face.tight == frozenset()


@dataclass(frozen=True)
class WeightVector:
    """The positive primitive relation among the edge directions at a vertex.

    ``edges`` is the vertex's star: each partition edge inside its smallest
    ambient face as ``(direction, weight, pieces)``, the primitive direction
    from the vertex, its weight in the relation and the pieces having the
    edge, in lex direction order.  ``weights[0]`` belongs to the first edge;
    the remaining weights are sorted ascending.
    """

    vertex: tuple
    weights: tuple
    edges: tuple

    @property
    def is_balanced(self):
        return all(w == 1 for w in self.weights)


@dataclass(frozen=True)
class DualComplex:
    """Dual simplicial complex: one vertex per piece, one simplex per
    interior face (the set of pieces sharing that face)."""

    n_vertices: int
    cells: tuple  # ((frozenset pieces, face_dim), ...), one per interior face
    simplices: frozenset = field(default=None)

    def __post_init__(self):
        if self.simplices is None:
            object.__setattr__(self, "simplices", self._close(self.cells))

    def _close(self, cells, min_face_dim=None):
        out = {frozenset([i]) for i in range(self.n_vertices)}
        for piece_set, fdim in cells:
            if min_face_dim is not None and fdim < min_face_dim:
                continue
            for size in range(1, len(piece_set) + 1):
                for sub in itertools.combinations(sorted(piece_set), size):
                    out.add(frozenset(sub))
        return frozenset(out)

    @property
    def dimension(self):
        return max(len(s) for s in self.simplices) - 1

    def edges(self):
        return sorted(tuple(sorted(s)) for s in self.simplices if len(s) == 2)

    def hypersurface_complex(self):
        """Dual complex of a generic hypersurface family in the degeneration.

        A generic hypersurface misses the zero-dimensional strata of the
        central fiber, so simplices dual to partition *vertices* are dropped;
        simplices dual to positive-dimensional faces survive.
        """
        closed = self._close(self.cells, min_face_dim=1)
        return DualComplex(self.n_vertices, tuple(), closed)

    def same_as(self, other: "DualComplex"):
        return self.n_vertices == other.n_vertices and self.simplices == other.simplices

    @staticmethod
    def path(n):
        cells = tuple((frozenset([i, i + 1]), 1) for i in range(n - 1))
        return DualComplex(n, cells)

    @staticmethod
    def full_simplex(n):
        """All faces of the n-simplex on n+1 vertices."""
        return DualComplex(n + 1, ((frozenset(range(n + 1)), 0),))

    @staticmethod
    def simplex_boundary(n):
        """All proper faces of the n-simplex (a triangulation of S^{n-1})."""
        cells = tuple((frozenset(range(n + 1)) - {i}, 1) for i in range(n + 1))
        return DualComplex(n + 1, cells)


class Partition:
    """A verified tiling of a polytope by simplicial subpolytopes.

    Its face poset is the table of ``_collect_faces``: the count rule and
    the dual complex read its records, and face objects are built one
    dimension at a time, when something reads them."""

    def __init__(self, ambient, pieces, table):
        self.ambient = ambient
        self.pieces = tuple(pieces)
        self._gens, self._nv, self._records = table
        self._faces = {}  # dim -> faces in key order
        self._ambient_faces = {}  # facet mask -> ambient face
        self._face_index = None
        self._vertex_faces = None
        self._vertex_edges = None
        self._classification = None
        self._weights = None
        self._dual = None

    @property
    def dim(self):
        return self.ambient.dim

    def faces(self, dim=None):
        """The faces sorted by dimension and key, as a fresh list."""
        if dim is None:
            return [f for k in range(self.dim + 1) for f in self._faces_of(k)]
        return list(self._faces_of(dim))

    def _faces_of(self, dim):
        if dim not in self._faces:
            faces = [self._face(*record) for record in self._records if record[1] == dim]
            self._faces[dim] = sorted(faces, key=operator.attrgetter("key"))
        return self._faces[dim]

    def _face(self, mask, dim, owners, facets):
        verts, rays = _generators(mask, self._gens, self._nv)
        return PartitionFace(verts, rays, dim, frozenset(owners), self._ambient_face(facets))

    def _ambient_face(self, facets):
        face = self._ambient_faces.get(facets)
        if face is None:
            face = self._ambient_faces[facets] = self.ambient._face_cut_by(facets)
        return face

    @property
    def face_index(self):
        """Every face keyed by its vertex and ray tuples, in the order of
        ``(first piece, dim, vertices, rays)``; built on first access."""
        if self._face_index is None:
            faces = sorted(self.faces(), key=lambda f: min(f.pieces))
            self._face_index = {f.key: f for f in faces}
        return self._face_index

    def face_at(self, point):
        if self._vertex_faces is None:
            self._vertex_faces = {f.vertices[0]: f for f in self._faces_of(0)}
        return self._vertex_faces.get(tuple(point))

    # -- semi-stability ----------------------------------------------------

    def semistable_witness(self):
        """None, or (face, ambient_face, count) violating the count rule.

        For an l-face lying in a k-face of the ambient polytope, exactly
        k - l + 1 pieces must share it.  The witness is the least violating
        face by dimension and key, the only face built.
        """
        bad = [
            record
            for record in self._records
            if len(record[2]) != self._ambient_face(record[3]).dim - record[1] + 1
        ]
        if not bad:
            return None
        gens, nv = self._gens, self._nv
        face = self._face(*min(bad, key=lambda r: (r[1], _generators(r[0], gens, nv))))
        return (face, face.ambient_face, len(face.pieces))

    def is_semistable(self):
        return self.semistable_witness() is None

    # -- weight vectors ------------------------------------------------------

    def edges_through(self, point):
        """The partition edges with ``point`` as an endpoint, in lex
        direction order, as ``(direction, pieces, ambient_face)``: the
        primitive direction from ``point``, the pieces having the edge and
        its smallest ambient face.  They are read off the edge records of
        the face table into an index by endpoint that is built once."""
        if self._vertex_edges is None:
            self._vertex_edges = {}
            for mask, dim, owners, facets in self._records:
                if dim != 1:
                    continue
                verts, rays = _generators(mask, self._gens, self._nv)
                pieces, face = frozenset(owners), self._ambient_face(facets)
                step = rays[0] if rays else primitive(vsub(verts[1], verts[0]))
                for v, direction in zip(verts, (step, tuple(-x for x in step))):
                    self._vertex_edges.setdefault(v, []).append((direction, pieces, face))
            for edges in self._vertex_edges.values():
                edges.sort(key=operator.itemgetter(0))
        return list(self._vertex_edges.get(tuple(point), ()))

    def weight_vector(self, point) -> WeightVector:
        vf = self.face_at(point)
        if vf is None:
            raise PartitionError("point is not a vertex of the partition", witness=tuple(point))
        p, tau = vf.vertices[0], vf.ambient_face
        star = [(d, pieces) for d, pieces, face in self.edges_through(p) if face == tau]
        if len(star) != tau.dim + 1:
            raise PartitionError("not semi-stable at vertex", witness=p)
        try:
            rel = _positive_relation([d for d, _ in star], "edge directions")
        except GeometryError:
            raise PartitionError("not semi-stable at vertex", witness=p) from None
        weights = (rel[0],) + tuple(sorted(rel[1:]))
        return WeightVector(p, weights, tuple((d, w, ps) for (d, ps), w in zip(star, rel)))

    def all_weight_vectors(self):
        if self._weights is None:
            self._weights = {
                f.vertices[0]: self.weight_vector(f.vertices[0]) for f in self.faces(0)
            }
        return self._weights

    # -- vertex nonsingularity -------------------------------------------------

    def vertex_is_nonsingular(self, point) -> bool:
        """Unimodular edge basis in (any) one piece having the vertex, asked
        of that vertex alone."""
        vf = self.face_at(point)
        return self.pieces[min(vf.pieces)].is_nonsingular_at(vf.vertices[0])

    # -- classification ----------------------------------------------------------

    def classify(self):
        """Tri-state flags and the maximal-vertex list.

        ``mildly_singular`` means balanced with all maximal vertices (those
        whose smallest containing ambient face has the dimension of the dual
        complex) nonsingular.
        """
        if self._classification is not None:
            return self._classification
        witness = self.semistable_witness()
        flags = {
            "semistable": witness is None,
            "witness": witness,
            "balanced": None,
            "nonsingular": None,
            "mildly_singular": None,
            "maximal_vertices": None,
        }
        if witness is None:
            weights = self.all_weight_vectors()
            flags["balanced"] = all(w.is_balanced for w in weights.values())
            nonsing = {p: self.vertex_is_nonsingular(p) for p in weights}
            flags["nonsingular"] = all(nonsing.values()) and flags["balanced"]
            dual_dim = self.dual_complex().dimension
            maximal = sorted(
                p for p, _ in weights.items() if self.face_at(p).ambient_face.dim == dual_dim
            )
            flags["maximal_vertices"] = tuple(maximal)
            flags["mildly_singular"] = flags["balanced"] and all(nonsing[p] for p in maximal)
            flags["vertex_nonsingular"] = nonsing
        self._classification = flags
        return flags

    # -- dual complex ---------------------------------------------------------------

    def dual_complex(self) -> DualComplex:
        if self._dual is None:
            cells = ((frozenset(owners), k) for _, k, owners, facets in self._records if not facets)
            self._dual = DualComplex(len(self.pieces), tuple(cells))
        return self._dual

    def walls(self):
        """Interior codimension-one faces with their two pieces."""
        return [f for f in self._faces_of(self.dim - 1) if f.is_interior]


# -- construction and validation ------------------------------------------------


def build_partition(ambient: LatticePolytope, pieces) -> Partition:
    """Validate a tiling and assemble its face poset.

    Raises :class:`PartitionError` with a witness on overlap, gap, or a
    non-simplicial piece.
    """
    pieces = list(pieces)
    if not pieces:
        raise PartitionError("a partition needs at least one piece")
    d = ambient.dim
    for idx, piece in enumerate(pieces):
        if piece.ambient_rank != ambient.ambient_rank:
            raise PartitionError("piece in wrong ambient space", witness=idx)
        if piece.dim != d:
            raise PartitionError("piece is not full-dimensional in the ambient polytope", witness=idx)
        if not ambient.contains_polyhedron(piece):
            raise PartitionError("piece is not contained in the ambient polytope", witness=idx)
        if not piece.is_simplicial():
            raise PartitionError("piece is not simplicial", witness=idx)
    _check_interior_disjoint(pieces, d)
    table = _collect_faces(ambient, pieces)
    _check_cover(ambient, table[2], pieces)
    return Partition(ambient, pieces, table)


def _check_interior_disjoint(pieces, d):
    """Reject the first piece pair whose interiors meet, with a witness.

    A facet of one piece with all of the other on its far side certifies a
    pair: every stored halfspace defines a facet, so the relative interior
    of its piece lies strictly inside it (in a lower-dimensional ambient
    too: both pieces span its affine hull, and no stored facet normal is
    orthogonal to it).  Most pairs are certified by one lookup per facet:
    ``p`` storing ``<x, n> >= -c`` and ``q`` storing ``<x, -n> >= -c'`` with
    ``c + c' <= 0`` puts ``q`` in ``<x, n> <= c' <= -c``, on that facet's far
    side, with no vertex read.  Every other pair is decided by its exact
    intersection: the interiors meet exactly when it has the ambient
    dimension, and then its relative interior point is the witness.
    """
    offsets = [p._facet_offsets() for p in pieces]
    opposite = [{tuple(map(operator.neg, n)): c for n, c in own.items()} for own in offsets]
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if any(opposite[i][n] + offsets[j][n] <= 0 for n in opposite[i].keys() & offsets[j].keys()):
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


def _check_cover(ambient, records, pieces):
    """Certify that the pieces fill the ambient polytope, or reject a gap.

    The pieces are ``d``-dimensional, inside the ambient polytope and
    pairwise interior-disjoint.  They cover it when every ``(d-1)``-face of
    the partition is a facet of two pieces or lies in the boundary of the
    ambient polytope.  For suppose a point ``x`` of its relative interior is
    in no piece.  A generic segment from ``x`` to a piece misses every face
    of dimension ``d - 2``, so where it first meets the union of the pieces
    it crosses the relative interior of a facet ``F`` of a piece, and ``F``
    is interior.  The two pieces sharing ``F`` lie on its two sides, so
    their union holds a neighbourhood of that point and with it earlier
    points of the segment, a contradiction.  A facet that is not matched (a
    tiling that is not face-to-face, or a gap) leaves the verdict to the
    exact polyhedral difference, which also supplies the witness.
    """
    d = ambient.dim - 1
    if all(len(owners) == 2 or facets for _, k, owners, facets in records if k == d):
        return
    witness = _uncovered_point(ambient, pieces)
    if witness is not None:
        raise PartitionError("gap: pieces do not cover the ambient polytope", witness=witness)


def _uncovered_point(ambient, pieces):
    """A point of the ambient polytope in no piece, by polyhedral difference.

    Each region left uncovered, the ambient polytope or a box around the
    pieces of the whole space at first, loses each piece facet by facet:
    ``rest``, its part inside the facets before ``h``, gives up the chunk
    beyond ``h``.  When ``h`` crosses it, ``rest`` is split once, into the
    chunk and the next ``rest``.  A ``rest`` inside ``h`` has no chunk
    beyond it, and a ``rest`` beyond ``h`` is the chunk itself, with nothing
    of it left inside the piece.  Every region has the ambient dimension,
    and so does every chunk."""
    if ambient.is_whole_space:
        hull = LatticePolytope.from_vertices([v for p in pieces for v in p.vertices])
        regions = [hull.bounding_box_polytope(2)]
    else:
        regions = [ambient]
    for piece in pieces:
        new_regions = []
        for region in regions:
            rest = region
            for h in piece.halfspaces:
                sides = _sides(rest, h)
                if min(sides) >= 0:
                    continue
                if max(sides) <= 0:
                    new_regions.append(rest)
                    break
                rest, chunk = rest.split(h.normal, -h.offset)
                new_regions.append(chunk)
        regions = new_regions
        if not regions:
            return None
    return regions[0].relative_interior_point() if regions else None


def _sides(region, h):
    """Where a region's vertices and rays lie against the boundary of a
    halfspace ``h`` in normal form, by sign, positive inside: ``<v, normal>
    + offset`` per vertex ``v``, then ``<r, normal>`` per ray ``r``."""
    sides = [vdot(v, h.normal) + h.offset for v in region.vertices]
    return sides + [vdot(r, h.normal) for r in region.rays]


# faces the piece walks of one partition may list, summed over the pieces
FACE_BUDGET = 10**6


def _face_count(piece):
    """The number of nonempty faces of a simple pointed polyhedron, the
    polyhedron itself among them: the sum over its vertices ``v`` of
    ``2**up(v)``, where ``up(v)`` counts the edges from ``v`` that go up
    under ``c``, the sum of the inward facet normals, ties between vertices
    broken lexicographically.

    ``c`` is positive on every ray: a ray is on the inner side of every
    facet, and one parallel to all of them would span a line in a pointed
    polyhedron.  So with the ties broken, ``c`` orders the vertices as a
    generic linear functional bounded below does, and every ray goes up.
    Each face then has one lowest vertex, the face's vertex all of whose
    edges in the face go up.  At a simple vertex the faces through it are
    spanned by the subsets of its edges, so ``v`` is the lowest vertex of
    exactly the ``2**up(v)`` faces its upward edges span (the h-vector
    count; Ziegler, Lectures on Polytopes, 8.3)."""
    c = [sum(col) for col in zip(*(h.normal for h in piece.halfspaces))]
    nv = len(piece.vertices)
    height = [(vdot(c, v), v) for v in piece.vertices]
    count = 0
    for a in range(nv):
        up = sum(1 for b in piece.neighbours(a) if b >= nv or height[b] > height[a])
        count += 1 << up
    return count


def _collect_faces(ambient, pieces):
    """The partition's face table ``(gens, nv, records)``.

    Each piece is walked by ``_face_walk`` on its facet masks over generator
    ids the pieces share: ``gens`` lists the union of their vertices in
    sorted order, ``nv`` of them, then of their rays, so faces merge across
    pieces by mask.  A face's record ``(mask, dim, owners, facets)`` holds
    its generator mask, its dimension, the pieces having it in ascending
    order, and the mask of the ambient facets whose generator masks hold
    its own: they cut out the smallest ambient face containing it, and none
    does for an interior face.  Ambient vertices are not 0-faces of the
    partition.  A partition whose pieces have more than ``FACE_BUDGET``
    faces in all is refused before any walk: a piece has at most ``2**dim``
    faces per vertex, each face having one lowest vertex, and only when
    those bounds sum past the budget are the faces counted exactly
    (``_face_count``), piece by piece, up to the first piece that takes the
    count past it.
    """
    if sum(len(p.vertices) << p.dim for p in pieces) > FACE_BUDGET:
        counted = 0
        for piece in pieces:
            counted += _face_count(piece)
            if counted > FACE_BUDGET:
                raise UnsupportedGeometryError(f"partition face walk over {counted} faces")
    gens = sorted({v for p in pieces for v in p.vertices})
    nv = len(gens)
    gens += sorted({r for p in pieces for r in p.rays})
    # a ray may have the coordinates of a vertex, so ids are kept per kind
    vertex_ids = {g: i for i, g in enumerate(gens[:nv])}
    ray_ids = {g: i for i, g in enumerate(gens[nv:], nv)}
    found = {}  # mask -> (dim, owner list)
    for idx, piece in enumerate(pieces):
        ids = [vertex_ids[v] for v in piece.vertices] + [ray_ids[r] for r in piece.rays]
        local = [1 << j for j in ids]
        facets = [sum(local[j] for j in _bits(m)) for m in piece._incidence]
        # each vertex's facet mask, keyed by its shared id
        through = dict(zip(ids, piece._facet_sets))
        for mask, dim, _ in _face_walk(facets, sum(local), piece.dim, through, gens, nv):
            entry = found.get(mask)
            if entry is None:
                found[mask] = (dim, [idx])
            else:
                entry[1].append(idx)
    on_facet = [  # (facet bit, mask of the generators on the facet)
        (1 << i, sum(1 << j for j, g in enumerate(gens) if vdot(g, n) == (b if j < nv else 0)))
        for i, (n, b) in enumerate((h.normal, -h.offset) for h in ambient.halfspaces)
    ]
    ambient_vertices = sum(1 << vertex_ids[v] for v in ambient.vertices if v in vertex_ids)
    records = []
    for mask, (dim, owners) in found.items():
        if dim == 0 and mask & ambient_vertices:
            continue
        facets = sum(bit for bit, on in on_facet if mask & on == mask)
        records.append((mask, dim, owners, facets))
    return gens, nv, records


# -- constructions used by the CLI and the examples --------------------------------


def partition_from_fan(ambient: LatticePolytope, fan: Fan) -> Partition:
    """Pieces cut out by the maximal cones of a complete fan.  Each piece is
    its cone cut by the ambient polytope's constraints, so the double
    description steps start from the cone's one vertex and few rays."""
    if not fan.is_complete():
        raise PartitionError("fan partition requires a complete fan")
    pieces = [
        fan.cone_polyhedron(cone).intersect_polyhedron(ambient)
        for cone in sorted(fan.maximal_cones, key=sorted)
    ]
    return build_partition(ambient, pieces)


def partition_by_hyperplanes(ambient: LatticePolytope, cuts) -> Partition:
    """Chambers of ``<x, normal> = value`` hyperplane cuts inside a polytope.

    Each cut enters once, as ``<x, normal> >= value`` in normal form
    (``_normalize_halfspace``), so its multiples give the same chambers.  A
    region the cut crosses is split once, into both sides
    (``LatticePolytope.split``).  A region on one closed side of the cut is
    kept whole, also a lower-dimensional one inside the hyperplane, which
    is on both sides.  Only the whole space is intersected with each side.

    Pieces are ordered by the position of their interior point ``p`` (the
    vertex centroid plus the rays) along the first cut normal, then
    lexicographically, compared as the integer vector ``L * p``: ``L``, the
    lcm of the vertex counts times that of the vertex denominators, is one
    positive factor for every piece, so the order is the same.
    """
    cuts = [_normalize_halfspace(normal, -value) for normal, value in cuts]
    regions = [ambient]
    for h in cuts:
        new_regions = []
        for region in regions:
            if region.is_whole_space:
                for hs in (h, (tuple(-x for x in h.normal), -h.offset)):
                    new_regions.append(region.intersect([hs]))
                continue
            sides = _sides(region, h)
            if min(sides) < 0 < max(sides):
                new_regions.extend(region.split(h.normal, -h.offset))
            else:
                new_regions.append(region)  # the cut misses the region's interior
        regions = new_regions
    if cuts:  # no region is the whole space after a cut
        first_normal = cuts[0].normal
        scale = math.lcm(*(len(r.vertices) for r in regions)) * math.lcm(
            *(x.denominator for r in regions for v in r.vertices for x in v if type(x) is not int)
        )

        def sort_key(piece):
            m = scale // len(piece.vertices)
            columns = itertools.zip_longest(zip(*piece.vertices), zip(*piece.rays), fillvalue=())
            p = [int(m * sum(c)) + scale * sum(r) for c, r in columns]
            return (vdot(p, first_normal), p)

        regions.sort(key=sort_key)
    return build_partition(ambient, regions)
