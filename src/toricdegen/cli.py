"""Command line front end.

    toricdegen verify|lift|degenerate <spec-file> [options]

The spec file is JSON (``-`` reads stdin) with a polytope given by vertices
or halfspaces, and a partition given by explicit pieces, by the maximal cones
of a complete fan, or by hyperplane cuts.  Exit codes: 0 success, 1
mathematical rejection, 2 malformed input.  Output is one JSON object per
line and is byte-for-byte deterministic for a fixed spec and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .degeneration import build_report, family_equations
from .errors import GeometryError, InputError
from .lifting import iterated_lift, lift_polytope, lifting_function
from .partition import (
    build_partition,
    partition_by_hyperplanes,
    partition_from_fan,
)
from .polytope import LatticePolytope, _normalize_halfspace, complete_fan_from_rays
from . import report as rpt


def _fail_input(message, where):
    raise InputError(f"{message} (at {where})")


def _int_vector(value, where, rank=None):
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        _fail_input("expected a list of integers", where)
    if rank is not None and len(value) != rank:
        _fail_input(f"expected a vector of length {rank}", where)
    return tuple(value)


def _nonzero_vector(value, where, rank):
    vector = _int_vector(value, where, rank)
    if not any(vector):
        _fail_input("expected a nonzero vector", where)
    return vector


def _list(value, where):
    if not isinstance(value, list):
        _fail_input("expected a list", where)
    return value


def _int_option(options, key):
    """An integer option, or None when it is absent; JSON ``null`` is no
    integer."""
    value = options.get(key)
    if key in options and type(value) is not int:
        _fail_input("expected an integer", f"$.options.{key}")
    return value


def _bool_option(options, key):
    value = options.get(key, False)
    if type(value) is not bool:
        _fail_input("expected a boolean", f"$.options.{key}")
    return value


def _cap_option(options, rank):
    """``compact_cap``: a ``(normal, offset)`` cap from an object, True from
    ``true``, None when it is ``false`` or absent."""
    cap_spec = options.get("compact_cap")
    if isinstance(cap_spec, dict):
        normal = _int_vector(cap_spec.get("normal"), "$.options.compact_cap.normal", rank)
        if type(cap_spec.get("offset")) is not int:
            _fail_input("cap offset must be an integer", "$.options.compact_cap.offset")
        return normal, cap_spec["offset"]
    return True if _bool_option(options, "compact_cap") else None


def _spec_rank(poly_spec):
    """The ambient rank a polytope spec fixes, as ``build_polytope`` reads it,
    or None when the spec fixes none (``build_polytope`` then refuses it)."""
    if "vertices" in poly_spec:
        verts = poly_spec["vertices"]
        if isinstance(verts, list) and verts and isinstance(verts[0], list):
            return len(verts[0])
        return None
    rank = poly_spec.get("rank")
    if rank is None:
        halfspaces = poly_spec["halfspaces"]
        head = halfspaces[0] if isinstance(halfspaces, list) and halfspaces else None
        first = head.get("normal") if isinstance(head, dict) else None
        rank = len(first) if isinstance(first, list) and first else None
    return rank if type(rank) is int and rank >= 1 else None


def _read_options(options, rank):
    """Every option, checked before any geometry is built."""
    return {
        "multi_base": _bool_option(options, "multi_base"),
        "compact_cap": _cap_option(options, rank),
        "anchor_piece": _int_option(options, "anchor_piece"),
        "coefficient_seed": _int_option(options, "coefficient_seed"),
    }


def load_job(text: str):
    """Parse and validate a job description; the options come back read."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})")
    if not isinstance(data, dict):
        raise InputError("job must be a JSON object (at $)")
    poly_spec = data.get("polytope")
    if not isinstance(poly_spec, dict):
        _fail_input("missing polytope object", "$.polytope")
    forms = [k for k in ("vertices", "halfspaces") if k in poly_spec]
    if len(forms) != 1:
        _fail_input("exactly one of vertices/halfspaces required", "$.polytope")
    part_spec = data.get("partition")
    if not isinstance(part_spec, dict):
        _fail_input("missing partition object", "$.partition")
    part_forms = [k for k in ("pieces", "fan_rays", "hyperplanes") if k in part_spec]
    if len(part_forms) != 1:
        _fail_input("exactly one of pieces/fan_rays/hyperplanes required", "$.partition")
    options = data.get("options", {})
    if not isinstance(options, dict):
        _fail_input("options must be an object", "$.options")
    return poly_spec, part_spec, _read_options(options, _spec_rank(poly_spec))


def build_polytope(poly_spec):
    if "vertices" in poly_spec:
        verts = poly_spec["vertices"]
        if not isinstance(verts, list) or not verts:
            _fail_input("vertices must be a nonempty list", "$.polytope.vertices")
        rank = len(verts[0]) if isinstance(verts[0], list) else None
        points = [
            _int_vector(v, f"$.polytope.vertices[{i}]", rank) for i, v in enumerate(verts)
        ]
        return LatticePolytope.from_vertices(points)
    halfspaces = poly_spec["halfspaces"]
    if not isinstance(halfspaces, list):
        _fail_input("halfspaces must be a list", "$.polytope.halfspaces")
    rank = poly_spec.get("rank")
    if halfspaces:
        first = halfspaces[0].get("normal") if isinstance(halfspaces[0], dict) else None
        if rank is None and first and isinstance(first, (int, float)):
            _fail_input("expected a list of integers", "$.polytope.halfspaces[0].normal")
        rank = rank if rank is not None else (len(first) if first else None)
    if type(rank) is not int or rank < 1:
        _fail_input("rank required for halfspace input", "$.polytope.rank")
    parsed = []
    for i, h in enumerate(halfspaces):
        if not isinstance(h, dict) or "normal" not in h or "offset" not in h:
            _fail_input("halfspace needs normal and offset", f"$.polytope.halfspaces[{i}]")
        normal = _int_vector(h["normal"], f"$.polytope.halfspaces[{i}].normal", rank)
        if type(h["offset"]) is not int:
            _fail_input("offset must be an integer", f"$.polytope.halfspaces[{i}].offset")
        parsed.append((normal, h["offset"]))
    return LatticePolytope.from_halfspaces(parsed, rank)


def build_job_partition(ambient, part_spec):
    rank = ambient.ambient_rank
    if "pieces" in part_spec:
        pieces = []
        for i, vlist in enumerate(_list(part_spec["pieces"], "$.partition.pieces")):
            if not isinstance(vlist, list) or not vlist:
                _fail_input("piece must be a list of vertices", f"$.partition.pieces[{i}]")
            points = [
                _int_vector(v, f"$.partition.pieces[{i}][{j}]", rank)
                for j, v in enumerate(vlist)
            ]
            pieces.append(LatticePolytope.from_vertices(points))
        return build_partition(ambient, pieces)
    if "fan_rays" in part_spec:
        rays = [
            _nonzero_vector(r, f"$.partition.fan_rays[{i}]", rank)
            for i, r in enumerate(_list(part_spec["fan_rays"], "$.partition.fan_rays"))
        ]
        if not rays:
            _fail_input("expected a nonempty list", "$.partition.fan_rays")
        return partition_from_fan(ambient, complete_fan_from_rays(rays))
    return partition_by_hyperplanes(ambient, _hyperplane_cuts(part_spec, rank))


def _hyperplane_cuts(part_spec, rank):
    cuts = []
    for i, h in enumerate(_list(part_spec["hyperplanes"], "$.partition.hyperplanes")):
        if not isinstance(h, dict) or "normal" not in h or "offset" not in h:
            _fail_input("hyperplane needs normal and offset", f"$.partition.hyperplanes[{i}]")
        normal = _nonzero_vector(h["normal"], f"$.partition.hyperplanes[{i}].normal", rank)
        if type(h["offset"]) is not int:
            _fail_input("offset must be an integer", f"$.partition.hyperplanes[{i}].offset")
        cuts.append((normal, h["offset"]))
    return cuts


def run_job(command, text, args):
    """Execute one command; returns (records, exit_code, diagrams)."""
    poly_spec, part_spec, options = load_job(text)
    multi_base = options["multi_base"] or args.multi_base
    if multi_base and command != "lift":
        _fail_input("multi_base is only available for the lift command", "$.options.multi_base")
    if multi_base and "hyperplanes" not in part_spec:
        _fail_input("multi_base requires a hyperplane partition", "$.partition")
    records = [{"record": "job", "command": command}]
    diagrams = {}
    ambient = build_polytope(poly_spec)

    if multi_base:
        cuts = _hyperplane_cuts(part_spec, ambient.ambient_rank)
        cuts = [_normalize_halfspace(n, -c) for n, c in cuts]
        normals = {h.normal for h in cuts}
        if len(normals) != 1:
            raise GeometryError("multi-base lifting requires parallel cuts of one orientation")
        # the same cuts in integers: normal and offsets times the offsets' lcm denominator
        q = math.lcm(*(h.offset.denominator for h in cuts))
        normal = tuple(q * x for x in normals.pop())
        multi = iterated_lift(ambient, normal, [-q * h.offset for h in cuts])
        records.append(rpt.classification_record(multi.partition))
        records.append(rpt.weights_record(multi.partition))
        records.append(rpt.multi_lifting_record(multi))
        return records, 0, diagrams

    partition = build_job_partition(ambient, part_spec)
    records.append(rpt.classification_record(partition))
    flags = partition.classify()
    if not flags["semistable"]:
        return records, 1, diagrams
    records.append(rpt.weights_record(partition))
    if command == "verify":
        return records, 0, diagrams

    if command == "degenerate" and ambient.is_compact:
        # the family needs the base's lattice runs, cached on it: a base
        # past the enumeration budget is refused before any lifting
        ambient.lattice_runs()
    lifting = lifting_function(partition)
    records.append(rpt.lifting_record(lifting))
    cap = options["compact_cap"]
    if cap is None and args.compact_cap:
        cap = True
    lifted = lift_polytope(partition, lifting, compact_cap=cap)
    records.append(rpt.lifted_polytope_record(lifted))
    if command == "lift":
        return records, 0, diagrams

    deg = build_report(lifted)
    records.append(rpt.degeneration_record(deg))
    if ambient.is_compact:
        anchor = args.anchor if args.anchor is not None else options["anchor_piece"]
        seed = args.seed if args.seed is not None else options["coefficient_seed"]
        fam = family_equations(lifted, anchor=anchor, seed=seed)
        records.append(rpt.family_record(fam))
    if args.dot:
        diagrams[args.dot] = rpt.dual_graph_dot(deg.dual_graph)
    if args.svg:
        if ambient.ambient_rank != 2 or not ambient.is_compact:
            _fail_input("SVG output needs a compact two-dimensional base", "--svg")
        diagrams[args.svg] = rpt.partition_svg(partition)
    return records, 0, diagrams


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused: each call of
    ``main`` parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="toricdegen",
        description="semi-stable toric degenerations from lattice polytope partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "classify a partition; exit 0 iff semi-stable"),
        ("lift", "construct the lifted polytope"),
        ("degenerate", "full degeneration report with family equations"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="job file, or - for stdin")
        p.add_argument("--compact-cap", action="store_true", help="add the face at infinity")
        p.add_argument("--anchor", type=int, default=None, help="anchor piece for the family")
        p.add_argument("--seed", type=int, default=None, help="numeric coefficient seed")
        p.add_argument("--dot", default=None, help="write the dual graph in DOT format")
        p.add_argument("--svg", default=None, help="write an SVG of a 2D partition")
        p.add_argument("--multi-base", action="store_true", help="iterated lift over parallel cuts")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise InputError(f"cannot read spec file: {exc}")
        records, code, diagrams = run_job(args.command, text, args)
        for path, content in diagrams.items():
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            except OSError as exc:
                raise InputError(f"cannot write diagram file: {exc}")
    except InputError as exc:
        sys.stdout.write(rpt.render_report([rpt.error_record("input", str(exc))]))
        return 2
    except GeometryError as exc:
        witness = getattr(exc, "witness", None)
        sys.stdout.write(
            rpt.render_report(
                [rpt.error_record(type(exc).__name__, str(exc), witness)]
            )
        )
        return 1
    sys.stdout.write(rpt.render_report(records))
    return code


if __name__ == "__main__":
    sys.exit(main())
