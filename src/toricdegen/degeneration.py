"""Combinatorial description of the degeneration a lifted polytope defines.

Components of the central fiber correspond to the partition pieces, the dual
graph to the dual complex, and each vertex of the lifted polytope carries a
monomial chart: the expansion of the vertical unit vector in its primitive
edge basis, whose support gives the coordinates multiplying to the
degeneration parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GeometryError, LiftingError
from .exactmath import vdot
from .lifting import LiftedPolytope, run_values
from .partition import DualComplex
from .polytope import lattice_equivalent


@dataclass(frozen=True)
class LocalChart:
    """Monomial chart at a vertex of the lifted polytope.

    ``monomial`` lists the positions (into ``edge_vectors``) of the chart
    coordinates whose product is the degeneration parameter; its size is
    ``face_dim + 1`` where ``face_dim`` is the dimension of the smallest base
    face containing the vertex shadow.
    """

    vertex: tuple  # shadow in the base lattice
    lifted_vertex: tuple
    face_dim: int
    edge_vectors: tuple
    monomial: tuple

    @property
    def factor_count(self):
        return len(self.monomial)


def local_charts(lifted: LiftedPolytope, strict=True):
    """One chart per nonsingular vertex of the lifted polytope off the cap.

    The verdict at a vertex is the polytope's own (``is_nonsingular_at``),
    and the vertical vector's coefficients in the edge basis are read off
    the facet each edge leaves (``edge_expansion``).  A singular vertex
    yields no chart, nor does a nonsingular one where the parameter
    expansion is not zero-one (a component of multiplicity above one passes
    through it); both are returned in the second component.
    """
    poly = lifted.polytope
    rank = poly.ambient_rank
    cap_vertices = lifted.cap_vertices()
    vertical = tuple(0 for _ in range(rank - 1)) + (1,)
    charts = []
    skipped = []
    partition = lifted.base
    for v in sorted(set(poly.vertices) - cap_vertices):
        if not poly.is_nonsingular_at(v):
            skipped.append(v)
            continue
        # the vertical vector points into the polytope off the cap, so the
        # lattice basis expands it uniquely
        dirs, coeffs = zip(*poly.edge_expansion(v, vertical))
        if any(c not in (0, 1) for c in coeffs):
            skipped.append(v)
            continue
        # a shadow that is no partition 0-face is a vertex of the base
        shadow = v[:-1]
        face = partition.face_at(shadow)
        face_dim = face.ambient_face.dim if face else 0
        monomial = tuple(i for i, c in enumerate(coeffs) if c == 1)
        charts.append(LocalChart(shadow, v, face_dim, dirs, monomial))
    if skipped and strict:
        raise LiftingError("singular vertex has no monomial chart", witness=skipped[0])
    return charts, tuple(skipped)


@dataclass
class DegenerationReport:
    """Everything the degeneration of one lifted polytope determines."""

    lifted: LiftedPolytope
    components: tuple  # (piece index, polytope, nonsingular, class id)
    dual_graph: DualComplex
    hypersurface_dual_graph: DualComplex
    charts: tuple
    skipped_vertices: tuple
    weak: bool

    @property
    def component_classes(self):
        groups = {}
        for idx, _, _, cls in self.components:
            groups.setdefault(cls, []).append(idx)
        return tuple(tuple(v) for _, v in sorted(groups.items()))


def build_report(lifted: LiftedPolytope) -> DegenerationReport:
    """Components, dual graph, equivalence classes and charts of a lift."""
    partition = lifted.base
    flags = partition.classify()
    if not flags["semistable"]:
        raise GeometryError("degeneration requires a semi-stable partition")
    if not (flags["nonsingular"] or flags["mildly_singular"]):
        raise GeometryError("degeneration requires a nonsingular or mildly singular partition")
    weak = not flags["nonsingular"]
    charts, skipped = local_charts(lifted, strict=not weak)

    classes = _equivalence_classes(partition.pieces)
    # nonsingularity is a lattice invariant, so each class asks its first piece
    nonsingular = {}
    for i, piece in enumerate(partition.pieces):
        if classes[i] not in nonsingular:
            nonsingular[classes[i]] = piece.is_nonsingular()
    components = tuple(
        (i, piece, nonsingular[classes[i]], classes[i])
        for i, piece in enumerate(partition.pieces)
    )
    dual = partition.dual_complex()
    return DegenerationReport(
        lifted,
        components,
        dual,
        dual.hypersurface_complex(),
        tuple(charts),
        skipped,
        weak,
    )


def _equivalence_classes(pieces):
    """A class id per piece, numbered by first appearance.  A compact piece
    joins the first representative it is lattice-equivalent to, and only
    one of its dimension and vertex-key multiset can be; any other piece
    joins an equal one."""
    classes = {}
    buckets = {}
    next_class = 0
    for i, piece in enumerate(pieces):
        if piece.is_compact:
            bucket = buckets.setdefault((piece.dim, tuple(sorted(piece.vertex_keys()))), [])
            matched = next(
                (c for c, rep in bucket if lattice_equivalent(piece, rep) is not None), None
            )
        else:
            bucket = buckets.setdefault(None, [])
            matched = next((c for c, rep in bucket if rep == piece), None)
        if matched is None:
            matched = next_class
            bucket.append((matched, piece))
            next_class += 1
        classes[i] = matched
    return classes


# -- family equations ---------------------------------------------------------


@dataclass
class FamilyEquations:
    """Exponent table of the one-parameter hypersurface family.

    The monomial at lattice point ``points[j]`` carries the parameter to the
    power ``exponents[j]``; ``supports[i]`` lists the indices of the lattice
    points lying in piece ``i`` (the coordinates surviving on that
    component).
    """

    points: tuple
    exponents: tuple
    coefficients: tuple
    supports: tuple
    anchor: int


def family_equations(lifted: LiftedPolytope, anchor=None, seed=None):
    """Exponents of the degeneration parameter across all lattice points.

    The lifting function is renormalized to vanish on the anchor piece
    (default: the integration root), so exponents are nonnegative and vanish
    exactly on the anchor's lattice points.  Supports and exponents are cut
    from the base's column runs (``lattice_runs``), scanned once; no piece
    is scanned.  A run ``(prefix, lo, hi)`` meets a piece in one range of
    ``x``, cut out by the piece's stored halfspaces.  Those the base stores
    too hold on every point of the run, as the run lies in the base, and
    the piece lies in the base's affine hull, so only the rest, its walls
    (``_wall_rows``), bound the range: each from one side, or with a zero
    last entry on the whole run or none of it.  The pieces are closed, so a
    wall point falls in both supports.  On a range ``f = (<a, p> + b) / d``
    is an arithmetic progression with step ``a_n / d`` (``run_values``),
    integral exactly when its first value and, on a longer range, the step
    are.  Pieces are written last to first, so a point on a wall keeps the
    value of the first piece holding it; the function is continuous, so the
    pieces agree there.  Every point gets a value, as ``build_partition``
    certified that the pieces cover the base.  Coefficients default to
    formal symbols ``a1..aN``; a seed draws deterministic rational values.
    """
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
    own = set(base.halfspaces)
    walls = [
        (_wall_rows(piece, own), f, [])
        for piece, f in zip(reversed(lifted.base.pieces), reversed(shifted.per_piece))
    ]
    exponents = [None] * len(points)
    j = 0  # the index of the run's first point
    for prefix, lo, hi in base.lattice_runs():
        for rows, f, support in walls:
            a, b = lo, hi
            for head, last, rhs in rows:
                rest = rhs - vdot(head, prefix)
                # last * x >= rest: x from its ceil, x up to its floor, or none
                if last > 0:
                    a = max(a, -(-rest // last))
                elif last:
                    b = min(b, rest // last)
                elif rest > 0:
                    break
                if a > b:
                    break
            else:
                start, stop = j + a - lo, j + b - lo + 1
                support += range(start, stop)
                value, step = run_values(f, prefix, a, b)
                (value, rest), (step, step_rest) = divmod(value, f.d), divmod(step, f.d)
                if rest or step_rest:
                    raise LiftingError("anchor renormalization is not integral", witness=anchor)
                if step:
                    exponents[start:stop] = range(value, value + step * (stop - start), step)
                else:
                    exponents[start:stop] = [value] * (stop - start)
        j += hi - lo + 1
    exponents = tuple(exponents)
    if min(exponents) < 0:
        raise LiftingError("negative exponent: function not minimal on the anchor piece")
    if seed is not None:
        rng = random.Random(seed)
        coeffs = tuple(Fraction(rng.randint(1, 99), rng.randint(1, 9)) for _ in points)
    else:
        coeffs = tuple(f"a{j + 1}" for j in range(len(points)))
    supports = tuple(tuple(support) for _, _, support in reversed(walls))
    return FamilyEquations(points, exponents, coeffs, supports, anchor)


def _wall_rows(piece, own):
    """The halfspaces ``piece`` stores and ``own`` does not, as constraints
    ``<head, prefix> + last * x >= rhs`` on a point ``prefix + (x,)``, in
    triples ``(head, last, rhs)``: those with ``last`` 0 first, as they
    settle a run at once."""
    rows = [(h.normal[:-1], h.normal[-1], -h.offset) for h in piece.halfspaces if h not in own]
    return sorted(rows, key=lambda row: row[1] != 0)
