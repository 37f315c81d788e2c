"""Line-delimited report serialization, DOT and SVG emission.

Each report line is one JSON object with a ``record`` tag.  Integers beyond
the signed 64-bit range are emitted as decimal strings, non-integer rationals
as ``"p/q"`` strings, so exact values survive serialization and a reader can
reverse both encodings losslessly.  A record goes straight to the C JSON
encoder, whose ``default`` encodes a ``Fraction`` as ``encode_value`` does.
Every integer outside the 64-bit range prints a run of at least 19 digits,
so only a line holding such a run is encoded again after the
``encode_value`` walk.  Records are freshly built trees, so the encoder
skips its cycle check.
"""

from __future__ import annotations

import json
from fractions import Fraction

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)
_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_LONG_DIGITS = "0" * 19


def encode_value(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x if _INT64_MIN <= x <= _INT64_MAX else str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return encode_value(int(x))
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [encode_value(v) for v in x]
    if isinstance(x, dict):
        return {k: encode_value(v) for k, v in x.items()}
    return x


def _encode_fraction(x):
    if isinstance(x, Fraction):
        return encode_value(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_encode_fraction, check_circular=False
)


def render_report(records) -> str:
    lines = []
    for record in records:
        line = _ENCODER.encode(record)
        if _LONG_DIGITS in line.translate(_DIGITS_TO_ZERO):
            line = _ENCODER.encode(encode_value(record))
        lines.append(line)
    return "\n".join(lines) + "\n"


# -- record builders -------------------------------------------------------------


def polytope_record(poly):
    return {
        "rank": poly.ambient_rank,
        "vertices": [list(v) for v in poly.vertices],
        "rays": [list(r) for r in poly.rays],
        "halfspaces": [
            {"normal": list(h.normal), "offset": h.offset} for h in poly.halfspaces
        ],
        "equations": [
            {"normal": list(e.normal), "offset": e.offset} for e in poly.equations
        ],
        "whole_space": poly.is_whole_space,
    }


def classification_record(partition):
    flags = partition.classify()
    witness = flags["witness"]
    record = {
        "record": "classification",
        "semistable": flags["semistable"],
        "balanced": flags["balanced"],
        "nonsingular": flags["nonsingular"],
        "mildly_singular": flags["mildly_singular"],
        "pieces": len(partition.pieces),
        "witness": None,
    }
    if witness is not None:
        face, ambient_face, count = witness
        record["witness"] = {
            "face_vertices": [list(v) for v in face.vertices],
            "face_dim": face.dim,
            "ambient_face_dim": ambient_face.dim,
            "pieces_sharing": count,
            "expected": ambient_face.dim - face.dim + 1,
        }
    else:
        record["maximal_vertices"] = [list(v) for v in flags["maximal_vertices"]]
    return record


def weights_record(partition):
    items = []
    for vertex, w in sorted(partition.all_weight_vectors().items()):
        items.append({"vertex": list(vertex), "weights": list(w.weights)})
    return {"record": "weights", "items": items}


def lifting_record(lifting):
    func = lifting.function
    return {
        "record": "lifting_function",
        "root": func.root,
        "scale": lifting.scale,
        "unit_concavity": lifting.unit_concavity,
        "pieces": [
            {"index": i, "linear": list(f.linear), "constant": f.constant}
            for i, f in enumerate(func.per_piece)
        ],
        "concavity": [
            {"vertex": list(p), "value": c} for p, c in sorted(lifting.concavities.items())
        ],
    }


def lifted_polytope_record(lifted):
    poly = lifted.polytope
    record = {"record": "lifted_polytope"}
    record.update(polytope_record(poly))
    nv = len(poly.vertices)
    edges = []
    for a in range(nv):
        for b in poly.neighbours(a):
            if b >= nv:
                edges.append([a, list(poly.rays[b - nv])])
            elif a < b:
                edges.append([a, b])
    record["edges"] = sorted(edges, key=repr)
    record["nonsingular"] = lifted.nonsingular
    record["simplicial"] = lifted.simplicial
    record["singular_vertices"] = [list(v) for v in lifted.singular_vertices]
    record["cap"] = (
        None
        if lifted.cap is None
        else {"normal": list(lifted.cap[0]), "offset": lifted.cap[1]}
    )
    return record


def multi_lifting_record(multi):
    return {
        "record": "multi_lifting",
        "cuts": len(multi.components[0]),
        "rank": multi.polytope.ambient_rank,
        "vertices": [list(v) for v in multi.polytope.vertices],
        "rays": [list(r) for r in multi.polytope.rays],
        "components": [
            [{"linear": list(f.linear), "constant": f.constant} for f in fns]
            for fns in multi.components
        ],
    }


def dual_graph_record(dual):
    return {
        "vertices": dual.n_vertices,
        "simplices": sorted(sorted(s) for s in dual.simplices),
    }


def degeneration_record(report):
    return {
        "record": "degeneration",
        "weak": report.weak,
        "components": [
            {
                "index": i,
                "vertices": [list(v) for v in piece.vertices],
                "rays": [list(r) for r in piece.rays],
                "nonsingular": nonsing,
                "class": cls,
            }
            for i, piece, nonsing, cls in report.components
        ],
        "dual_graph": dual_graph_record(report.dual_graph),
        "hypersurface_dual_graph": dual_graph_record(report.hypersurface_dual_graph),
        "charts": [
            {
                "vertex": list(c.vertex),
                "lifted_vertex": list(c.lifted_vertex),
                "face_dim": c.face_dim,
                "monomial": list(c.monomial),
                "edges": [list(e) for e in c.edge_vectors],
            }
            for c in report.charts
        ],
        "skipped_vertices": [list(v) for v in report.skipped_vertices],
    }


def family_record(fam):
    return {
        "record": "family",
        "anchor": fam.anchor,
        # tuples are written as arrays, so the family's own are passed on
        "points": fam.points,
        "exponents": fam.exponents,
        "coefficients": fam.coefficients,
        "supports": fam.supports,
    }


def error_record(code, message, witness=None):
    return {
        "record": "error",
        "code": code,
        "message": message,
        "witness": encode_value(_plain(witness)),
    }


def _plain(x):
    if x is None or isinstance(x, (int, str, bool, Fraction)):
        return x
    if isinstance(x, (set, frozenset)):
        return [_plain(v) for v in sorted(x, key=repr)]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return repr(x)


# -- diagrams ---------------------------------------------------------------------


def dual_graph_dot(dual) -> str:
    """Graphviz source: one node per piece, one edge per wall."""
    lines = ["graph dual_graph {"]
    for i in range(dual.n_vertices):
        lines.append(f'  p{i} [label="piece {i}"];')
    for a, b in dual.edges():
        lines.append(f"  p{a} -- p{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def partition_svg(partition) -> str:
    """An SVG drawing of a two-dimensional compact partition."""
    scale, pad = 40, 20  # pixels per lattice unit, margin in pixels
    ambient = partition.ambient
    if ambient.ambient_rank != 2 or not ambient.is_compact:
        raise ValueError("SVG output is limited to compact two-dimensional bases")
    xs = [Fraction(v[0]) for v in ambient.vertices]
    ys = [Fraction(v[1]) for v in ambient.vertices]
    x0, y1 = min(xs), max(ys)

    def pt(p):
        x = float((Fraction(p[0]) - x0) * scale) + pad
        y = float((y1 - Fraction(p[1])) * scale) + pad
        return f"{x:.2f},{y:.2f}"

    width = float((max(xs) - x0) * scale) + 2 * pad
    height = float((y1 - min(ys)) * scale) + 2 * pad
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    for idx, piece in enumerate(partition.pieces):
        ordered = _order_polygon(piece.vertices)
        points = " ".join(pt(v) for v in ordered)
        lines.append(
            f'  <polygon points="{points}" fill="none" stroke="black" stroke-width="1"/>'
        )
        cx, cy = piece.relative_interior_point()
        lines.append(
            f'  <text x="{float((Fraction(cx) - x0) * scale) + pad:.2f}" '
            f'y="{float((y1 - Fraction(cy)) * scale) + pad:.2f}" '
            f'font-size="12" text-anchor="middle">{idx}</text>'
        )
    for p in ambient.lattice_points():
        x, y = pt(p).split(",")
        lines.append(f'  <circle cx="{x}" cy="{y}" r="1.5" fill="gray"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _order_polygon(vertices):
    """Vertices of a convex polygon in boundary order (exact comparisons)."""
    verts = list(vertices)
    cx = sum(Fraction(v[0]) for v in verts) / len(verts)
    cy = sum(Fraction(v[1]) for v in verts) / len(verts)

    def half(v):
        dx, dy = Fraction(v[0]) - cx, Fraction(v[1]) - cy
        return 0 if (dy, dx) > (0, 0) else 1

    def cross(u, v):
        return (Fraction(u[0]) - cx) * (Fraction(v[1]) - cy) - (
            Fraction(u[1]) - cy
        ) * (Fraction(v[0]) - cx)

    import functools

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = cross(u, v)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(verts, key=functools.cmp_to_key(cmp))
