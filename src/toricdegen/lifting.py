"""Lifting functions and the lifted polytope one dimension up.

The pipeline: wall cochain from the interior codimension-one faces, cocycle
check over triples, integration over a spanning tree of the dual complex,
concavity profile, minimal integral rescaling, then the lifted polytope
``{(x, y) : x in base, y >= F(x)}`` with the extra coordinate *last*.  The
rescaling is an integer gcd over column runs (``PiecewiseAffine.value_generator``).

Sign convention (followed verbatim from the toric-degeneration literature):
the concavity ``C(F, p)`` sums the increments of ``F`` along the partition
edges at ``p``, and ``C > 0`` is called *concave* even though the region
``y >= F`` is then convex — ``F`` is a maximum of its per-piece affine
functions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import GeometryError, LiftingError
from .exactmath import AffineFunction, int_vector, primitive, vadd, vdot
from .partition import DualComplex, Partition, _sides, partition_by_hyperplanes
from .polytope import LatticePolytope, SupportFunction, _generators, _normalize_halfspace, normal_fan


@dataclass(frozen=True)
class WallCochain:
    """One affine function per oriented interior wall, ``f[j,i] = -f[i,j]``.

    Each function vanishes on its wall's hyperplane and takes the value 1 one
    weighted primitive edge step into the second piece, measured at the
    wall's base vertex.
    """

    functions: dict  # (i, j) -> AffineFunction
    base_vertices: dict  # frozenset({i, j}) -> vertex

    def __getitem__(self, pair):
        return self.functions[pair]

    def pairs(self):
        return sorted(k for k in self.functions if k[0] < k[1])


def wall_functions(partition: Partition) -> WallCochain:
    """The defining affine function of every interior wall, normalized.

    Requires a semi-stable partition that is mildly singular, unless the dual
    complex is one-dimensional (a chain, automatically balanced) in which
    case any wall vertex may anchor the normalization.

    The wall ``<x, u> = c`` is read off the facets its pieces store: ``i``
    as ``(u, -c)``, ``j`` as ``(-u, c)``, and no other pair of theirs is so
    opposite.  Every interior ``(d-1)``-face has two owners, so it is a facet
    of both; pieces on opposite sides of two distinct hyperplanes share at
    most a ``(d-2)``-face, so the pair is one.  Below full dimension stored
    normals vanish off the pivot columns of the shared direction space, so
    they are canonical.
    """
    flags = partition.classify()
    if not flags["semistable"]:
        raise LiftingError("partition is not semi-stable", witness=flags["witness"])
    dual_dim = partition.dual_complex().dimension
    maximal = set(flags["maximal_vertices"])
    nonsingular = flags["vertex_nonsingular"]
    functions = {}
    bases = {}
    for wall in partition.walls():
        i, j = sorted(wall.pieces)
        candidates = [v for v in wall.vertices if partition.face_at(v) is not None]
        preferred = [v for v in candidates if v in maximal and nonsingular[v]]
        if dual_dim > 1:
            if not preferred:
                raise LiftingError(
                    "partition not mildly singular: wall has no nonsingular maximal vertex",
                    witness=wall.key,
                )
            pool = preferred
        else:
            pool = preferred or [v for v in candidates if nonsingular[v]] or candidates
        # with no pool every vertex of this wall is a vertex of the base
        # polytope (a cut running corner to corner): anchor there, unit weight
        p = min(pool or wall.vertices)
        f = functions[(i, j)] = _wall_function_at(partition, p, i, j)
        functions[(j, i)] = -f
        bases[frozenset((i, j))] = p
    return WallCochain(functions, bases)


def _wall_function_at(partition, p, i, j):
    # the wall's hyperplane <x, u> = c: piece i stores (u, -c), piece j (-u, c)
    theirs = partition.pieces[j]._facet_offsets()
    u, c = next(
        (n, -o)
        for n, o in partition.pieces[i]._facet_offsets().items()
        if theirs.get(tuple(-x for x in n)) == -o
    )
    # the unique partition edge at p missed by piece i; it points into piece j
    if partition.face_at(p) is None:  # a vertex of the base polytope: unit weight
        star = [(d, 1, pieces) for d, pieces, _ in partition.edges_through(p)]
    else:
        star = partition.all_weight_vectors()[p].edges
    missed = [(d, w) for d, w, pieces in star if i not in pieces]
    if len(missed) != 1:
        raise LiftingError("wall normalization edge is not unique", witness=p)
    ((direction, weight),) = missed
    # (<u, x> - c) / (weight * <direction, u>) over the common denominator;
    # u is primitive and c in lowest terms, so only the sign needs fixing
    d = weight * vdot(direction, u) * c.denominator
    s = 1 if d > 0 else -1
    return AffineFunction(tuple(s * c.denominator * x for x in u), -s * c.numerator, s * d)


def check_cocycle(alpha: WallCochain, dual: DualComplex):
    """Closure ``f_ij + f_jk + f_ki = 0`` on every 2-simplex; witness on failure."""
    for simplex in sorted(dual.simplices, key=sorted):
        if len(simplex) != 3:
            continue
        i, j, k = sorted(simplex)
        total = alpha[(i, j)] + alpha[(j, k)] + alpha[(k, i)]
        if not total.is_zero:
            return False, (i, j, k)
    return True, None


@dataclass
class PiecewiseAffine:
    """A function on a partition, one affine function per piece."""

    partition: Partition
    per_piece: tuple
    root: int = None

    def piece_function(self, index):
        return self.per_piece[index]

    def value(self, point):
        for piece, f in zip(self.partition.pieces, self.per_piece):
            if piece.contains(point):
                return f(point)
        raise GeometryError("point outside the partitioned polytope")

    def scale(self, c):
        return PiecewiseAffine(self.partition, tuple(f.scale(c) for f in self.per_piece), self.root)

    def subtract_affine(self, g: AffineFunction):
        return PiecewiseAffine(self.partition, tuple(f - g for f in self.per_piece), self.root)

    def difference(self, other: "PiecewiseAffine"):
        return PiecewiseAffine(
            self.partition,
            tuple(f - g for f, g in zip(self.per_piece, other.per_piece)),
            self.root,
        )

    def is_continuous(self) -> bool:
        for wall in self.partition.walls():
            i, j = sorted(wall.pieces)
            diff = self.per_piece[i] - self.per_piece[j]
            if any(diff(v) != 0 for v in wall.vertices):
                return False
            if any(diff.directional(r) != 0 for r in wall.rays):
                return False
        return True

    def is_global_affine(self) -> bool:
        first = self.per_piece[0]
        return all(f == first for f in self.per_piece)

    def value_generator(self) -> Fraction:
        """The rational ``g >= 0`` with ``g * Z`` the group generated by the
        values on the lattice points of the base.

        A piece with ``f = (<a, x> + b) / d`` gives ``G / d``, ``G`` the gcd of
        ``<a, p> + b`` over its lattice points (unbounded: over a one-step
        truncation, and of the slopes ``<a, r>`` along its rays).  On a column
        run the values are a progression, so their gcd is that of the run's
        first value and step (``run_values``).  ``g`` is the rational gcd over
        the pieces."""
        g = Fraction(0)
        for piece, f in zip(self.partition.pieces, self.per_piece):
            if piece.is_compact:
                total, runs = 0, piece.lattice_runs()
            else:
                total = gcd(*[vdot(f.a, r) for r in piece.rays])
                runs = piece.intersect(piece.box_halfspaces(1)).lattice_runs()
            for prefix, lo, hi in runs:
                total = gcd(total, *run_values(f, prefix, lo, hi))
            if total:
                g = Fraction(gcd(g.numerator * f.d, total * g.denominator), g.denominator * f.d)
        return g

    def minimal_integral_scale(self, g=None) -> Fraction:
        """Least positive ``r`` with ``r * F`` integer-valued on the lattice points
        of the base: ``1 / g`` for ``g = value_generator()``, or 1 if that is 0."""
        g = self.value_generator() if g is None else g
        return 1 / g if g else Fraction(1)

    def is_integral(self) -> bool:
        return self.value_generator().denominator == 1


def integrate_cocycle(alpha: WallCochain, dual: DualComplex, partition: Partition, root=None):
    """Piecewise affine ``F`` with ``f_j - f_i = f_ij`` on every wall.

    Integration runs over a breadth-first spanning tree of the dual complex
    anchored at ``root`` (default: the lowest piece index) with ``f_root = 0``;
    every non-tree wall is then verified exactly.
    """
    pairs = alpha.pairs()
    n = len(partition.pieces)
    adjacency = {i: [] for i in range(n)}
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    if root is None:
        root = 0
    rank = partition.ambient.ambient_rank
    values = {root: AffineFunction.zero(rank)}
    frontier = [root]
    while frontier:
        i = frontier.pop(0)
        for j in sorted(adjacency[i]):
            if j not in values:
                values[j] = values[i] + alpha[(i, j)]
                frontier.append(j)
    if len(values) != n:
        raise LiftingError("dual complex is not connected")
    for i, j in pairs:
        if values[j] - values[i] != alpha[(i, j)]:
            raise LiftingError("cocycle integration failed", witness=(i, j))
    out = PiecewiseAffine(partition, tuple(values[i] for i in range(n)), root)
    if not out.is_continuous():
        raise LiftingError("integrated function is not continuous")
    return out


def concavity(func: PiecewiseAffine, point) -> Fraction:
    """Sum of increments of the function along the partition edges at a vertex.

    At a boundary vertex only the edges inside the smallest containing
    ambient face are counted.  Undefined at vertices of the ambient polytope.
    """
    partition = func.partition
    if tuple(point) in set(partition.ambient.vertices):
        raise LiftingError("concavity undefined at vertices of the ambient polytope")
    vf = partition.face_at(point)
    if vf is None:
        raise LiftingError("not a vertex of the partition", witness=tuple(point))
    return sum((slope for _, slope in _edge_slopes(func, vf.vertices[0])), Fraction(0))


def _edge_slopes(func, p):
    """Per edge of the star at the partition vertex ``p``, the edges inside
    its smallest ambient face: the edge's primitive direction, and the
    increment of ``func`` one such step along it, measured inside a piece
    having the edge as a face (a rational vertex may sit closer to the next
    vertex than a full lattice step)."""
    for step, _, pieces in func.partition.all_weight_vectors()[p].edges:
        yield step, func.piece_function(min(pieces)).directional(step)


def concavity_profile(func: PiecewiseAffine):
    return {f.vertices[0]: concavity(func, f.vertices[0]) for f in func.partition.faces(0)}


@dataclass
class IntegralLifting:
    """A minimal integral lifting function with its concavity data."""

    function: PiecewiseAffine
    scale: Fraction
    concavities: dict
    unit_concavity: bool


def minimal_integral_lifting(func: PiecewiseAffine) -> IntegralLifting:
    """Rescale to the minimal integral lifting.

    For balanced partitions with a constant concavity profile the scaling is
    pushed further to make every concavity 1 when that scaling is itself
    integral; otherwise the minimal integral scaling is returned as is.
    """
    profile = concavity_profile(func)
    if any(c <= 0 for c in profile.values()):
        bad = min(p for p, c in profile.items() if c <= 0)
        raise LiftingError("not a lifting function: nonpositive concavity", witness=bad)
    # F scales linearly, so the values of c * F generate c * g * Z
    g = func.value_generator()
    scale = func.minimal_integral_scale(g)
    profile = {p: c * scale for p, c in profile.items()}
    values = set(profile.values())
    if func.partition.classify()["balanced"] and len(values) == 1 and values != {Fraction(1)}:
        candidate_scale = scale / values.pop()
        if (g * candidate_scale).denominator == 1:
            scale = candidate_scale
            profile = {p: Fraction(1) for p in profile}
    unit = set(profile.values()) == {Fraction(1)}
    return IntegralLifting(func.scale(scale), scale, profile, unit)


def lifting_function(partition: Partition) -> IntegralLifting:
    """Wall cochain, cocycle check, integration and minimal rescaling in one go."""
    alpha = wall_functions(partition)
    dual = partition.dual_complex()
    ok, witness = check_cocycle(alpha, dual)
    if not ok:
        raise LiftingError("wall cochain is not a cocycle", witness=witness)
    return minimal_integral_lifting(integrate_cocycle(alpha, dual, partition))


def run_values(f, prefix, lo, hi):
    """For ``f = (<a, x> + b) / d`` on the column run ``(prefix, lo, hi)``:
    ``<a, p> + b`` at its first point ``p = prefix + (lo,)``, and the step
    ``a_n`` from one point to the next, 0 on a one-point run."""
    return vdot(f.a, prefix + (lo,)) + f.b, f.a[-1] if hi > lo else 0


# -- the lifted polytope -------------------------------------------------------


@dataclass
class LiftedPolytope:
    """``{(x, y) : x in base, y >= F(x)}`` with verification artifacts.

    The extra coordinate is last.  ``lift_map`` sends each partition face key
    to the face of the lifted polytope lying on the graph of ``F`` over it;
    it walks the lifted face lattice on first read.
    """

    base: Partition
    lifting: IntegralLifting
    polytope: LatticePolytope
    piece_facets: dict  # piece index -> halfspace index in self.polytope
    cap: tuple  # None or (a, b) for the extra face  y <= <a, x> + b
    simplicial: bool
    singular_vertices: tuple
    nonsingular: bool

    @property
    def rank(self):
        return self.polytope.ambient_rank

    @functools.cached_property
    def lift_map(self):
        return _verify_lifts(self.base, self.polytope, self.piece_facets)

    def cap_vertices(self):
        if self.cap is None:
            return set()
        a, b = self.cap
        return {
            v
            for v in self.polytope.vertices
            if v[-1] == vdot(a, v[:-1]) + b
        }

    def lifted_edge_vectors(self, point):
        """Primitive lifted directions of the partition edges at a vertex
        that lie in its smallest containing ambient face."""
        slopes = _edge_slopes(self.lifting.function, tuple(point))
        return sorted(primitive(d + (slope,)) for d, slope in slopes)

    def edge_sum(self, point):
        """Sum of the lifted primitive edge vectors at a partition vertex."""
        return functools.reduce(vadd, self.lifted_edge_vectors(point), (0,) * self.rank)


def lift_polytope(partition: Partition, lifting: IntegralLifting, compact_cap=None) -> LiftedPolytope:
    """Build and verify the lifted polytope of a lifting function.

    ``compact_cap`` may be ``True`` (default cap: horizontal, one above the
    maximum of the function on the base vertices) or a pair ``(a, b)`` for
    the halfspace ``y <= <a, x> + b``.  Verification: integrality, each
    piece's graph facet projecting onto that piece (``_graph_facet_mismatch``,
    which proves that every partition face has exactly one lift and every
    face projects onto a face of the base polytope or of the partition), and
    nonsingularity whenever the input data promises it.  Only when a graph
    facet fails is the lifted face lattice walked, for the failing face and
    its witness.
    """
    func = lifting.function
    base = partition.ambient
    n = base.ambient_rank
    if any(c <= 0 for c in lifting.concavities.values()):
        raise LiftingError("not a lifting function: nonpositive concavity")
    halfspaces = [(h.normal + (0,), h.offset) for h in base.halfspaces]
    piece_keys = {}
    for idx, f in enumerate(func.per_piece):
        # y >= (<a, x> + b) / d  is  <(-a, d), (x, y)> >= b
        normal, offset = tuple(-x for x in f.a) + (f.d,), -f.b
        key = _normalize_halfspace(normal, offset)
        if key in piece_keys:
            raise LiftingError("pieces share an affine function", witness=(piece_keys[key], idx))
        piece_keys[key] = idx
        halfspaces.append((normal, offset))
    cap = None
    if compact_cap:
        if not base.is_compact:
            raise LiftingError("compact cap requires a compact base polytope")
        if compact_cap is True:
            a = tuple(0 for _ in range(n))
            b = 1 + max(int(func.value(v).__ceil__()) for v in base.vertices)
        else:
            a, b = compact_cap
            a, (b,) = int_vector(a), int_vector((b,))
        cap = (a, b)
        halfspaces.append((a + (-1,), b))
    equations = [(e.normal + (0,), e.offset) for e in base.equations]
    lifted = LatticePolytope.from_halfspaces(halfspaces, n + 1, equations)

    if not lifted.is_lattice:
        bad = next(v for v in lifted.vertices if any(type(x) is not int for x in v))
        raise LiftingError("lifted polytope is not integral", witness=bad)

    piece_facets = {}
    index_of = {h: i for i, h in enumerate(lifted.halfspaces)}
    for key, idx in piece_keys.items():
        hs_index = index_of.get(key)
        if hs_index is None:
            raise LiftingError("a piece does not contribute a facet", witness=idx)
        piece_facets[idx] = hs_index
    if cap is not None:
        a, b = cap
        if _normalize_halfspace(a + (-1,), b) not in index_of:
            raise LiftingError("cap does not contribute a facet; choose a larger bound")

    bad = _graph_facet_mismatch(partition, lifted, piece_facets)
    if bad is not None:
        _verify_lifts(partition, lifted, piece_facets)
        _verify_projections(partition, lifted, piece_facets)
        raise LiftingError("graph facet does not project onto its piece", witness=bad)

    singular = lifted.singular_vertices()
    flags = partition.classify()
    # walls running into a vertex of the base polytope fall outside the
    # nonsingular-lift guarantee (the lift can acquire conifold-type points,
    # as for a square cut along its diagonal); only report in that case
    base_vertices = set(base.vertices)
    walls_clear = all(
        not (set(w.vertices) & base_vertices) for w in partition.walls()
    )
    promised = (
        flags["nonsingular"]
        and lifting.unit_concavity
        and base.is_nonsingular()
        and walls_clear
    )
    if promised and singular:
        raise LiftingError("lift of a nonsingular partition came out singular", witness=singular[0])
    return LiftedPolytope(
        partition,
        lifting,
        lifted,
        piece_facets,
        cap,
        lifted.is_simplicial(),
        singular,
        not singular,
    )


def _graph_facet_mismatch(partition, lifted, piece_facets):
    """The first piece whose graph facet does not project onto it, or None.

    The generators on piece ``i``'s graph facet are read off its incidence
    mask; dropping the last coordinate must give exactly the piece's
    vertices and, compared raw as the face keys are, its rays.  This implies
    what ``_verify_lifts`` and ``_verify_projections`` check:

    - The facet lies in the hyperplane ``y = f_i(x)``, and projection is
      injective there, so the facet is the graph of ``f_i`` over piece
      ``i``.  The lifted polytope lies above every ``f_j``, so
      ``F = max f_j`` and ``F`` is convex.
    - Every graph face is a face of some graph facet, so it projects onto a
      face of a piece: a partition face, or an ambient vertex, which is a
      base face.  Projection is injective on the lower boundary, so every
      partition face has exactly one lift.
    - A face tight on no piece row is cut out by base rows, plus possibly
      the cap row.  Its shadow is the base face of those rows, because the
      cap lies on or above ``F``: ``F`` is convex, and every base vertex is a
      piece vertex whose lift, a vertex of the lifted polytope, survived the
      check.

    The walk does not imply this check: it accepts per-piece functions
    permuted among the pieces, which this check rejects.
    """
    gens = lifted.vertices + lifted.rays
    nv = len(lifted.vertices)
    for i, piece in enumerate(partition.pieces):
        verts, rays = _generators(lifted._incidence[piece_facets[i]], gens, nv)
        shadow = ({v[:-1] for v in verts}, {r[:-1] for r in rays})
        if shadow != (set(piece.vertices), set(piece.rays)):
            return i
    return None


def _verify_lifts(partition, lifted, piece_facets):
    """Each partition face must appear exactly once among the graph faces.

    This walks the lifted face lattice: ``lift_polytope`` runs it only when
    ``_graph_facet_mismatch`` fails, for its error record and witness."""
    piece_idx = frozenset(piece_facets.values())
    found = {}
    for face in lifted.faces():
        if not (face.tight & piece_idx):
            continue
        verts = tuple(sorted(v[:-1] for v in face.vertices))
        rays = tuple(sorted(r[:-1] for r in face.rays if any(r[:-1])))
        key = (verts, rays)
        found.setdefault(key, []).append(face)
    lift_map = {}
    for key, gface in partition.face_index.items():
        faces = found.get(key, [])
        if len(faces) != 1:
            raise LiftingError(
                "partition face does not have exactly one lift",
                witness=(key, len(faces)),
            )
        lift_map[key] = faces[0]
    # graph faces over vertices of the base polytope project to base faces,
    # which the face convention excludes from the partition
    base = partition.ambient
    base_keys = {f.key for f in base.faces()}
    for key in set(found) - set(partition.face_index):
        if key not in base_keys:
            raise LiftingError("graph face projects outside the partition", witness=key)
    return lift_map


def _shadow_is_base_face(base, face):
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


def _verify_projections(partition, lifted, piece_facets):
    """Every face of the lifted polytope projects onto a base or partition
    face; like ``_verify_lifts``, a witness path of ``lift_polytope``."""
    base = partition.ambient
    if base.is_whole_space:
        return
    piece_idx = frozenset(piece_facets.values())
    for face in lifted.faces():
        if face.tight & piece_idx:
            continue  # graph faces were matched against partition faces already
        if not _shadow_is_base_face(base, face):
            raise LiftingError(
                "face projects onto neither a base face nor a partition face",
                witness=face.key,
            )


# -- iterated lifting over several parallel hyperplanes -------------------------


@dataclass
class MultiLifting:
    """Result of lifting a chain of parallel cuts into several directions."""

    polytope: LatticePolytope
    partition: Partition
    components: tuple  # per piece: tuple of AffineFunction, one per cut
    intermediates: tuple


def iterated_lift(base: LatticePolytope, normal, offsets) -> MultiLifting:
    """Lift along parallel integral cuts, one extra dimension per cut.

    Each cut ``<x, normal> = c_j`` enters in its normal form
    (``_normalize_halfspace``), the offset over the normal's gcd too.  The
    one-shot construction takes the region above the graph of the vector
    function whose j-th component is ``max(0, <normal, x> - c_j)``; it is
    verified vertex-for-vertex against the step-by-step iteration, and every
    intermediate partition is checked nonsingular.
    """
    cuts = [_normalize_halfspace(normal, -c) for c in int_vector(offsets)]
    normal = _normalize_halfspace(normal, 0).normal
    offsets = [-h.offset for h in cuts]
    if sorted(set(offsets)) != offsets:
        raise LiftingError("cut offsets must be strictly increasing")
    for h, c in zip(cuts, offsets):
        sides = _sides(base, h)
        if not (base.is_whole_space or min(sides) < 0 < max(sides)):
            raise LiftingError("cut misses the interior of the base polytope", witness=c)
    n = base.ambient_rank
    l = len(offsets)

    # one-shot: x in base, y_j >= 0, y_j >= <normal, x> - c_j
    halfspaces = [(h.normal + (0,) * l, h.offset) for h in base.halfspaces]
    for j, c in enumerate(offsets):
        unit = tuple(int(k == j) for k in range(l))
        halfspaces.append(((0,) * n + unit, 0))
        halfspaces.append((tuple(-x for x in normal) + unit, c))
    oneshot = LatticePolytope.from_halfspaces(halfspaces, n + l)

    # step-by-step, verifying each stage
    current = base
    lifts = []
    for j, c in enumerate(offsets):
        cut_normal = normal + (0,) * j
        chain = partition_by_hyperplanes(current, [(cut_normal, c)])
        flags = chain.classify()
        if not flags["semistable"] or not flags["nonsingular"]:
            raise LiftingError("intermediate partition is not nonsingular", witness=j)
        lifted = lift_polytope(chain, lifting_function(chain))
        lifts.append(lifted)
        current = lifted.polytope
    if current != oneshot:
        raise LiftingError("iterated lift disagrees with the one-shot construction")

    partition = partition_by_hyperplanes(base, [(normal, c) for c in offsets])
    components = []
    for piece in partition.pieces:
        x = piece.relative_interior_point()
        level = vdot(normal, x)
        fns = []
        for c in offsets:
            if level > c:
                fns.append(AffineFunction.make(normal, -c))
            else:
                fns.append(AffineFunction.zero(n))
        components.append(tuple(fns))
    return MultiLifting(oneshot, partition, tuple(components), tuple(lifts))


# -- extending a support function over a single-cut compact lift -----------------


def extend_support_function(phi: SupportFunction, lifted: LiftedPolytope) -> SupportFunction:
    """Extend a convex integral support function over the fan of a compact lift.

    The extension restricts to the input on the base subfan, vanishes on the
    two new upper rays (the graph facet normals), and takes the largest
    integer value on the downward cap ray that keeps it convex.
    """
    if lifted.cap is None:
        raise LiftingError("extension requires a compact lift")
    if len(lifted.base.pieces) != 2:
        raise LiftingError("extension requires a single-hyperplane partition")
    if not phi.is_integral():
        raise LiftingError("support function must be integral")
    if phi.classify() == "none":
        raise GeometryError("support function is not convex")
    fan = normal_fan(lifted.polytope)
    base_values = {ray: value for ray, value in zip(phi.fan.rays, phi.values)}
    roles = []
    for ray in fan.rays:
        head, last = ray[:-1], ray[-1]
        if last == 0:
            if head not in base_values:
                raise LiftingError("lifted fan does not contain the base fan")
            roles.append(("base", base_values[head]))
        elif last > 0:
            roles.append(("upper", Fraction(0)))
        else:
            roles.append(("cap", None))
    bound = 4 + 4 * max((abs(v) for v in phi.values), default=0) * max(
        sum(abs(x) for x in r) for r in fan.rays
    )
    a = 0
    while a >= -bound:
        values = [Fraction(a) if role == "cap" else v for role, v in roles]
        try:
            candidate = SupportFunction(fan, values)
        except GeometryError:
            a -= 1
            continue
        if candidate.classify() in ("affine", "convex", "strictly-convex"):
            return candidate
        a -= 1
    raise LiftingError("no integral cap value keeps the extension convex")
