import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from toricdegen import cli
from toricdegen import lifting as lifting_module
from toricdegen import partition as partition_module
from toricdegen.partition import Partition
from toricdegen.polytope import LatticePolytope
from toricdegen.report import render_report

import oracles
from oracles import parse_report


def write_spec(tmp_path, spec, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out, parse_report(out)


TRIANGLE = [[0, 0], [3, 0], [0, 3]]
BAD_TRIPTYCH = {
    "polytope": {"vertices": TRIANGLE},
    "partition": {
        "pieces": [
            [[0, 0], [1, 0], [1, 1], [0, 3]],
            [[0, 3], [1, 1], [1, 2]],
            [[1, 0], [3, 0], [1, 2], [1, 1]],
        ]
    },
}
STAIRCASE3 = {
    "polytope": {"vertices": [[-1, -1, -1], [3, -1, -1], [-1, 3, -1], [-1, -1, 3]]},
    "partition": {"fan_rays": [[1, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1]]},
}
CHAIN4 = {
    "polytope": {
        "halfspaces": [
            {"normal": [1, 0, 0], "offset": 0},
            {"normal": [0, 1, 0], "offset": 0},
            {"normal": [0, 0, 1], "offset": 0},
            {"normal": [-1, -1, -1], "offset": 4},
        ]
    },
    "partition": {
        "hyperplanes": [{"normal": [1, 1, 1], "offset": j} for j in (1, 2, 3)]
    },
}
OCTAGON = {
    "polytope": {
        "vertices": [[0, 2], [1, 1], [3, 1], [4, 2], [4, 3], [3, 4], [1, 4], [0, 3]]
    },
    "partition": {"hyperplanes": [{"normal": [1, 0], "offset": 2}]},
}


class TestVerify:
    def test_rejected_partition_exits_one_with_witness(self, tmp_path, capsys):
        path = write_spec(tmp_path, BAD_TRIPTYCH)
        code, out, records = run(capsys, ["verify", path])
        assert code == 1
        classification = next(r for r in records if r["record"] == "classification")
        assert classification["semistable"] is False
        assert classification["witness"]["face_vertices"] == [[1, 1]]
        assert classification["witness"]["pieces_sharing"] == 2
        assert classification["witness"]["expected"] == 3

    def test_staircase_fan_input_accepted(self, tmp_path, capsys):
        path = write_spec(tmp_path, STAIRCASE3)
        code, out, records = run(capsys, ["verify", path])
        assert code == 0
        classification = next(r for r in records if r["record"] == "classification")
        assert classification["nonsingular"] is True
        assert '"nonsingular":true' in out

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out, records = run(capsys, ["verify", str(path)])
        assert code == 2
        assert records[0]["record"] == "error"
        assert "line 1" in records[0]["message"]

    def test_two_partition_forms_rejected(self, tmp_path, capsys):
        spec = dict(STAIRCASE3)
        spec["partition"] = {"fan_rays": [[1, 0, 0]], "hyperplanes": []}
        path = write_spec(tmp_path, spec)
        code, out, records = run(capsys, ["verify", path])
        assert code == 2
        assert "$.partition" in records[0]["message"]

    @pytest.mark.parametrize(
        "partition, argv, where",
        [
            (
                {"fan_rays": [[1, 0, 0], [0, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1]]},
                ["verify"],
                "$.partition.fan_rays[1]",
            ),
            (
                {"hyperplanes": [{"normal": [1, 1, 1], "offset": 1}, {"normal": [0, 0, 0], "offset": 2}]},
                ["verify"],
                "$.partition.hyperplanes[1].normal",
            ),
            (
                {"hyperplanes": [{"normal": [0, 0, 0], "offset": 1}]},
                ["lift", "--multi-base"],
                "$.partition.hyperplanes[0].normal",
            ),
        ],
    )
    def test_zero_vector_exits_two(self, tmp_path, capsys, partition, argv, where):
        spec = {"polytope": STAIRCASE3["polytope"], "partition": partition}
        path = write_spec(tmp_path, spec)
        code, out, records = run(capsys, [argv[0], path, *argv[1:]])
        assert code == 2
        assert records == [
            {
                "record": "error",
                "code": "input",
                "message": f"expected a nonzero vector (at {where})",
                "witness": None,
            }
        ]

    @pytest.mark.parametrize(
        "partition, argv, where",
        [
            ({"pieces": 5}, ["verify"], "$.partition.pieces"),
            ({"fan_rays": 5}, ["verify"], "$.partition.fan_rays"),
            ({"hyperplanes": 5}, ["verify"], "$.partition.hyperplanes"),
            ({"hyperplanes": {"normal": [1, 0, 0]}}, ["lift", "--multi-base"], "$.partition.hyperplanes"),
        ],
    )
    def test_non_list_partition_field_exits_two(self, tmp_path, capsys, partition, argv, where):
        spec = {"polytope": STAIRCASE3["polytope"], "partition": partition}
        path = write_spec(tmp_path, spec)
        code, out, records = run(capsys, [argv[0], path, *argv[1:]])
        assert code == 2
        assert records == [
            {
                "record": "error",
                "code": "input",
                "message": f"expected a list (at {where})",
                "witness": None,
            }
        ]

    @pytest.mark.parametrize(
        "polytope, partition, message, where",
        [
            (
                {"halfspaces": [{"normal": -2, "offset": 0}]},
                {"hyperplanes": []},
                "expected a list of integers",
                "$.polytope.halfspaces[0].normal",
            ),
            (
                {"halfspaces": [{"normal": 1.5, "offset": 3}]},
                {"hyperplanes": []},
                "expected a list of integers",
                "$.polytope.halfspaces[0].normal",
            ),
            (
                {"halfspaces": [], "rank": 1},
                {"fan_rays": []},
                "expected a nonempty list",
                "$.partition.fan_rays",
            ),
            # JSON booleans are not integers
            (
                {"vertices": [[0, 0], [True, 0], [0, 3]]},
                {"hyperplanes": [{"normal": [1, 0], "offset": True}]},
                "expected a list of integers",
                "$.polytope.vertices[1]",
            ),
            (
                {"halfspaces": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": 2}], "rank": True},
                {"hyperplanes": []},
                "rank required for halfspace input",
                "$.polytope.rank",
            ),
            (
                {"vertices": TRIANGLE},
                {"hyperplanes": [{"normal": [1, 0], "offset": True}]},
                "offset must be an integer",
                "$.partition.hyperplanes[0].offset",
            ),
            (
                {"halfspaces": [{"normal": [1], "offset": False}, {"normal": [-1], "offset": 2}]},
                {"hyperplanes": []},
                "offset must be an integer",
                "$.polytope.halfspaces[0].offset",
            ),
        ],
    )
    def test_fuzz_findings_exit_two(self, tmp_path, capsys, polytope, partition, message, where):
        path = write_spec(tmp_path, {"polytope": polytope, "partition": partition})
        code, out, records = run(capsys, ["verify", path])
        assert code == 2
        assert records == [
            {"record": "error", "code": "input", "message": f"{message} (at {where})", "witness": None}
        ]

    @pytest.mark.parametrize(
        "vertices, pieces, witness",
        [
            ([[0, 0], [4, 4]], [[[0, 0], [1, 1]], [[2, 2], [4, 4]]], '["3/2","3/2"]'),
            (
                [[0, 0, 0], [4, 0, 0], [0, 4, 0]],
                [[[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[2, 0, 0], [4, 0, 0], [0, 4, 0], [0, 2, 0]]],
                '["3/4","3/4",0]',
            ),
        ],
    )
    def test_gap_witness_of_lower_dimensional_ambient_is_an_ambient_point(
        self, tmp_path, capsys, vertices, pieces, witness
    ):
        spec = {"polytope": {"vertices": vertices}, "partition": {"pieces": pieces}}
        code, out, records = run(capsys, ["verify", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == (
            '{"code":"PartitionError","message":"gap: pieces do not cover the ambient polytope",'
            f'"record":"error","witness":{witness}}}\n'
        )

    @pytest.mark.parametrize(
        "vertices, normal, offset",
        [([[0, 0, 0], [4, 0, 0], [0, 4, 0]], [0, 0, 1], 0), ([[1, 1]], [1, 0], 1)],
    )
    def test_cut_containing_a_lower_dimensional_ambient_keeps_it_whole(
        self, tmp_path, capsys, vertices, normal, offset
    ):
        # the region lies on both closed sides of the cut: one piece, not two copies
        spec = {
            "polytope": {"vertices": vertices},
            "partition": {"hyperplanes": [{"normal": normal, "offset": offset}]},
        }
        code, _, records = run(capsys, ["verify", write_spec(tmp_path, spec)])
        assert code == 0
        assert records[1]["record"] == "classification" and records[1]["pieces"] == 1

    def test_empty_polyhedron_is_a_mathematical_rejection(self, tmp_path, capsys):
        spec = {
            "polytope": {
                "halfspaces": [
                    {"normal": [1], "offset": 0},
                    {"normal": [-1], "offset": -2},
                ]
            },
            "partition": {"hyperplanes": []},
        }
        path = write_spec(tmp_path, spec)
        code, out, records = run(capsys, ["verify", path])
        assert code == 1
        assert records[0]["record"] == "error"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(STAIRCASE3)))
        code, out, records = run(capsys, ["verify", "-"])
        assert code == 0

    def test_missing_file(self, capsys):
        code, out, records = run(capsys, ["verify", "/nonexistent/path.json"])
        assert code == 2

    def test_spec_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, records = run(capsys, ["verify", str(path)])
        assert code == 2
        [record] = records
        assert record["code"] == "input"
        assert record["message"].startswith("cannot read spec file: ")


class TestLift:
    def test_lift_report_records(self, tmp_path, capsys):
        spec = {
            "polytope": {
                "halfspaces": [
                    {"normal": [1], "offset": 0},
                    {"normal": [-1], "offset": 2},
                ]
            },
            "partition": {"hyperplanes": [{"normal": [1], "offset": 1}]},
        }
        path = write_spec(tmp_path, spec)
        code, out, records = run(capsys, ["lift", path])
        assert code == 0
        kinds = [r["record"] for r in records]
        assert kinds == [
            "job",
            "classification",
            "weights",
            "lifting_function",
            "lifted_polytope",
        ]
        lifted = records[-1]
        assert sorted(lifted["vertices"]) == [[0, 0], [1, 0], [2, 1]]
        assert lifted["nonsingular"] is True

    def test_boolean_cap_offset_exits_two(self, tmp_path, capsys):
        spec = {**CHAIN4, "options": {"compact_cap": {"normal": [0, 0, 0], "offset": True}}}
        code, out, records = run(capsys, ["lift", write_spec(tmp_path, spec)])
        assert code == 2
        assert records[0]["message"] == (
            "cap offset must be an integer (at $.options.compact_cap.offset)"
        )

    def test_compact_cap_flag(self, tmp_path, capsys):
        path = write_spec(tmp_path, CHAIN4)
        code, out, records = run(capsys, ["lift", path, "--compact-cap"])
        assert code == 0
        lifted = next(r for r in records if r["record"] == "lifted_polytope")
        assert lifted["cap"] is not None
        assert lifted["rays"] == []

    def test_unbounded_three_cut_cap_job(self, tmp_path, capsys):
        # an unbounded rank-3 halfspace polytope cut three times: once slow
        # (the cover check built and measured box truncations)
        halfspaces = [
            ([-2, 2, 1], 2), ([2, -2, -1], 1), ([2, 0, 3], 0), ([2, 3, 3], -1), ([2, 3, -2], 0)
        ]
        cuts = [([2, -1, 1], 0), ([0, -1, 3], 2), ([1, -1, 2], -2)]
        spec = {
            "polytope": {"halfspaces": [{"normal": n, "offset": o} for n, o in halfspaces]},
            "partition": {"hyperplanes": [{"normal": n, "offset": o} for n, o in cuts]},
        }
        code, out, records = run(capsys, ["lift", write_spec(tmp_path, spec), "--compact-cap"])
        assert code == 1
        assert records == [
            {"record": "job", "command": "lift"},
            {
                "record": "classification",
                "pieces": 5,
                "semistable": False,
                "balanced": None,
                "nonsingular": None,
                "mildly_singular": None,
                "witness": {
                    "ambient_face_dim": 2,
                    "expected": 3,
                    "face_dim": 0,
                    "face_vertices": [[Fraction(6, 5), Fraction(8, 5), Fraction(-4, 5)]],
                    "pieces_sharing": 4,
                },
            },
        ]

    def test_multi_base(self, tmp_path, capsys):
        spec = {
            "polytope": {
                "halfspaces": [
                    {"normal": [1], "offset": 0},
                    {"normal": [-1], "offset": 4},
                ]
            },
            "partition": {
                "hyperplanes": [{"normal": [1], "offset": j} for j in (1, 2, 3)]
            },
        }
        path = write_spec(tmp_path, spec)
        code, out, records = run(capsys, ["lift", path, "--multi-base"])
        assert code == 0
        multi = next(r for r in records if r["record"] == "multi_lifting")
        assert multi["cuts"] == 3
        assert sorted(multi["vertices"]) == [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [2, 1, 0, 0],
            [3, 2, 1, 0],
            [4, 3, 2, 1],
        ]

    _CUT_TRIANGLE = {
        "polytope": {"vertices": [[0, 0], [6, 0], [0, 6]]},
        "partition": {"hyperplanes": [{"normal": [1, 0], "offset": c} for c in (2, 4)]},
    }

    def test_crossing_cap_prints_the_face_without_one_lift(self, tmp_path, capsys):
        # the cap y <= x - 1 crosses the graph of F = max(0, x - 2, 2x - 6), so
        # the lift of the edge x = 0 is cut away; the face lattice walk names it
        spec = {**self._CUT_TRIANGLE, "options": {"compact_cap": {"normal": [1, 0], "offset": -1}}}
        code, out, _ = run(capsys, ["lift", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == (
            '{"code":"LiftingError","message":"partition face does not have exactly one lift",'
            '"record":"error","witness":[[[[0,0],[0,6]],[]],0]}\n'
        )

    def test_cap_below_the_graph_names_the_cap(self, tmp_path, capsys):
        # y <= -5 lies below F >= 0: the region under the cap and above the
        # graph is empty, refused as a cap that contributes no facet
        spec = {
            "polytope": {"vertices": [[0], [2]]},
            "partition": {"hyperplanes": [{"normal": [1], "offset": 1}]},
            "options": {"compact_cap": {"normal": [0], "offset": -5}},
        }
        code, out, _ = run(capsys, ["lift", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == (
            '{"code":"LiftingError","message":"cap does not contribute a facet; choose a larger bound",'
            '"record":"error","witness":[[0],-5]}\n'
        )

    def test_default_cap_lift_of_the_cut_triangle(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["lift", write_spec(tmp_path, self._CUT_TRIANGLE), "--compact-cap"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3c70f920dc203880d903faeb3bcebaa2ed6ab097de9b8f9c42c978d82c2c389f"
        )

    def test_multi_base_needs_hyperplanes(self, tmp_path, capsys):
        path = write_spec(tmp_path, STAIRCASE3)
        code, out, records = run(capsys, ["lift", path, "--multi-base"])
        assert code == 2

    def test_non_semistable_exits_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, BAD_TRIPTYCH)
        code, out, records = run(capsys, ["lift", path])
        assert code == 1

    @pytest.mark.parametrize(
        "options, where",
        [
            ({"multi_base": "no"}, "$.options.multi_base"),
            ({"multi_base": 1}, "$.options.multi_base"),
            ({"compact_cap": [1, 2]}, "$.options.compact_cap"),
            ({"compact_cap": "yes"}, "$.options.compact_cap"),
        ],
    )
    def test_non_boolean_option_exits_two(self, tmp_path, capsys, options, where):
        # a truthy value that is no JSON boolean neither runs the iterated
        # lift nor adds the default cap
        path = write_spec(tmp_path, {**CHAIN4, "options": options})
        code, out, records = run(capsys, ["lift", path])
        assert code == 2
        assert records == [
            {
                "record": "error",
                "code": "input",
                "message": f"expected a boolean (at {where})",
                "witness": None,
            }
        ]

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_options_accepted(self, tmp_path, capsys, value):
        spec = {**CHAIN4, "options": {"compact_cap": value, "multi_base": value}}
        code, out, records = run(capsys, ["lift", write_spec(tmp_path, spec)])
        assert code == 0
        assert (records[-1]["record"] == "multi_lifting") is value


class TestDegenerate:
    @pytest.mark.parametrize("command", ["verify", "degenerate"])
    def test_rank_six_cube_cut(self, tmp_path, capsys, command):
        # 64 vertices in rank 6: C(64, 6) facet subsets, little kernel work
        cube = [[2 * ((k >> i) & 1) for i in range(6)] for k in range(64)]
        cut = {"hyperplanes": [{"normal": [1, 0, 0, 0, 0, 0], "offset": 1}]}
        path = write_spec(tmp_path, {"polytope": {"vertices": cube}, "partition": cut})
        code, out, records = run(capsys, [command, path])
        assert code == 0
        assert records[1]["semistable"] is True

    def test_chain_report_and_dot(self, tmp_path, capsys):
        path = write_spec(tmp_path, CHAIN4)
        dot_path = tmp_path / "dual.dot"
        code, out, records = run(capsys, ["degenerate", path, "--dot", str(dot_path)])
        assert code == 0
        deg = next(r for r in records if r["record"] == "degeneration")
        assert len(deg["components"]) == 4
        fam = next(r for r in records if r["record"] == "family")
        assert len(fam["points"]) == 35
        dot = dot_path.read_text()
        assert "graph dual_graph" in dot
        assert dot.count(" -- ") == 3  # a path on four nodes

    def test_staircase_dual_graph_boundary(self, tmp_path, capsys):
        path = write_spec(tmp_path, STAIRCASE3)
        code, out, records = run(capsys, ["degenerate", path])
        assert code == 0
        deg = next(r for r in records if r["record"] == "degeneration")
        simplices = [tuple(s) for s in deg["hypersurface_dual_graph"]["simplices"]]
        assert tuple(range(4)) not in simplices
        assert all(tuple(sorted(set(range(4)) - {i})) in simplices for i in range(4))

    def test_staircase_five(self, tmp_path, capsys):
        # the six pieces are lattice-equivalent: one component class
        rays = [[int(i == j) - int(i == j - 1) for i in range(5)] for j in range(6)]
        vertices = [[-1] * 5] + [[6 * int(i == j) - 1 for i in range(5)] for j in range(5)]
        spec = {"polytope": {"vertices": vertices}, "partition": {"fan_rays": rays}}
        code, out, records = run(capsys, ["degenerate", write_spec(tmp_path, spec)])
        assert code == 0
        cls = next(r for r in records if r["record"] == "classification")
        assert cls["pieces"] == 6
        deg = next(r for r in records if r["record"] == "degeneration")
        assert [c["class"] for c in deg["components"]] == [deg["components"][0]["class"]] * 6

    @pytest.mark.parametrize("flag, spec", [("--dot", CHAIN4), ("--svg", OCTAGON)])
    def test_unwritable_diagram_path(self, tmp_path, capsys, flag, spec):
        path = write_spec(tmp_path, spec)
        target = tmp_path / "missing" / "diagram"
        code, out, records = run(capsys, ["degenerate", path, flag, str(target)])
        assert code == 2
        [record] = records
        assert record["code"] == "input"
        assert record["message"].startswith("cannot write diagram file: ")

    @pytest.mark.parametrize("flag, spec", [("--dot", CHAIN4), ("--svg", OCTAGON)])
    def test_diagram_file_leaves_stdout_alone(self, tmp_path, capsys, flag, spec):
        path = write_spec(tmp_path, spec)
        _, plain, _ = run(capsys, ["degenerate", path])
        code, out, _ = run(capsys, ["degenerate", path, flag, str(tmp_path / "diagram")])
        assert code == 0 and out == plain
        assert (tmp_path / "diagram").stat().st_size > 0

    def test_octagon_svg(self, tmp_path, capsys):
        path = write_spec(tmp_path, OCTAGON)
        svg_path = tmp_path / "partition.svg"
        code, out, records = run(capsys, ["degenerate", path, "--svg", str(svg_path)])
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 2

    def test_seeded_coefficients(self, tmp_path, capsys):
        spec = dict(CHAIN4)
        path = write_spec(tmp_path, spec)
        code, out, records = run(capsys, ["degenerate", path, "--seed", "11"])
        fam = next(r for r in records if r["record"] == "family")
        from fractions import Fraction

        assert all(isinstance(c, (int, Fraction)) for c in fam["coefficients"])

    def test_anchor_option(self, tmp_path, capsys):
        path = write_spec(tmp_path, CHAIN4)
        code, out, records = run(capsys, ["degenerate", path, "--anchor", "3"])
        assert code == 0
        fam = next(r for r in records if r["record"] == "family")
        assert fam["anchor"] == 3
        assert min(fam["exponents"]) == 0

    @pytest.mark.parametrize(
        "options, where",
        [
            ({"anchor_piece": "x"}, "$.options.anchor_piece"),
            ({"coefficient_seed": [1]}, "$.options.coefficient_seed"),
            ({"anchor_piece": True}, "$.options.anchor_piece"),
        ],
    )
    def test_non_integer_family_option_exits_two(self, tmp_path, capsys, options, where):
        path = write_spec(tmp_path, {**CHAIN4, "options": options})
        code, out, records = run(capsys, ["degenerate", path])
        assert code == 2
        assert records == [
            {
                "record": "error",
                "code": "input",
                "message": f"expected an integer (at {where})",
                "witness": None,
            }
        ]

    def test_multi_base_rejected(self, tmp_path, capsys):
        path = write_spec(tmp_path, CHAIN4)
        code, out, records = run(capsys, ["degenerate", path, "--multi-base"])
        assert code == 2
        assert records[0]["message"] == (
            "multi_base is only available for the lift command (at $.options.multi_base)"
        )

    def test_staircase_six_degenerate(self, tmp_path, capsys):
        # the rank-6 end-to-end check of lift, charts and component classes:
        # seven pieces, each a combinatorial 6-cube, all in one class; the
        # digest is the stdout of the parent of the normal-based vertex reads
        n = 6
        rays = [[int(i == j) - int(i == j - 1) for i in range(n)] for j in range(n + 1)]
        vertices = [[-1] * n] + [[(n + 1) * int(i == j) - 1 for i in range(n)] for j in range(n)]
        spec = {"polytope": {"vertices": vertices}, "partition": {"fan_rays": rays}}
        code, out, records = run(capsys, ["degenerate", write_spec(tmp_path, spec)])
        assert code == 0
        deg = next(r for r in records if r["record"] == "degeneration")
        assert [c["class"] for c in deg["components"]] == [0] * 7
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e3ec389783c7bbf7d146a371e9abf1608cf95028d444446e1caeda983917f937"
        )

    def test_staircase_seven_verify(self, tmp_path, capsys):
        # the rank-7 end-to-end check: eight pieces, each a combinatorial
        # 7-cube; the digest is the stdout of the parent of the incidence reads
        n = 7
        rays = [[int(i == j) - int(i == j - 1) for i in range(n)] for j in range(n + 1)]
        vertices = [[-1] * n] + [[(n + 1) * int(i == j) - 1 for i in range(n)] for j in range(n)]
        spec = {"polytope": {"vertices": vertices}, "partition": {"fan_rays": rays}}
        code, out, records = run(capsys, ["verify", write_spec(tmp_path, spec)])
        assert code == 0
        cls = records[1]
        assert cls["pieces"] == 8
        flags = ("semistable", "balanced", "nonsingular", "mildly_singular")
        assert all(cls[flag] is True for flag in flags)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f903a643ff565aa52925cab63415f0d6bbf99b6a80337e8ae444599064ec27df"
        )

    def test_staircase_eight_verify(self, tmp_path, capsys):
        # the rank-8 end-to-end check: nine pieces, each a combinatorial
        # 8-cube with 3^8 faces; the digest is the stdout of the parent of
        # the face closure over shared generator ids
        n = 8
        rays = [[int(i == j) - int(i == j - 1) for i in range(n)] for j in range(n + 1)]
        vertices = [[-1] * n] + [[(n + 1) * int(i == j) - 1 for i in range(n)] for j in range(n)]
        spec = {"polytope": {"vertices": vertices}, "partition": {"fan_rays": rays}}
        code, out, records = run(capsys, ["verify", write_spec(tmp_path, spec)])
        assert code == 0
        cls = records[1]
        assert cls["pieces"] == 9
        flags = ("semistable", "balanced", "nonsingular", "mildly_singular")
        assert all(cls[flag] is True for flag in flags)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a3a3ef63154fff5963907427baae50ad8057d352a296ba9bfcf70ff792f47112"
        )

    def test_staircase_nine_verify(self, tmp_path, capsys):
        # the rank-9 end-to-end check: ten pieces, each a combinatorial
        # 9-cube with 3^9 faces; the digest is the stdout of the parent of
        # the face table
        n = 9
        rays = [[int(i == j) - int(i == j - 1) for i in range(n)] for j in range(n + 1)]
        vertices = [[-1] * n] + [[(n + 1) * int(i == j) - 1 for i in range(n)] for j in range(n)]
        spec = {"polytope": {"vertices": vertices}, "partition": {"fan_rays": rays}}
        code, out, records = run(capsys, ["verify", write_spec(tmp_path, spec)])
        assert code == 0
        cls = records[1]
        assert cls["pieces"] == 10
        flags = ("semistable", "balanced", "nonsingular", "mildly_singular")
        assert all(cls[flag] is True for flag in flags)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5f8e7944e5edcb63b62e43f27ce5204ea3ab64bbc29c66a2e8e7c0225230604d"
        )

    def test_staircase_eight_degenerate(self, tmp_path, capsys):
        # the rank-8 end-to-end check of the family: nine pieces, each a
        # combinatorial 8-cube, all in one class, and the C(17, 8) lattice
        # points of the base simplex (its vertex box holds 10^8); the digest
        # is the stdout of two identical runs at the change to column runs
        n = 8
        rays = [[int(i == j) - int(i == j - 1) for i in range(n)] for j in range(n + 1)]
        vertices = [[-1] * n] + [[(n + 1) * int(i == j) - 1 for i in range(n)] for j in range(n)]
        spec = {"polytope": {"vertices": vertices}, "partition": {"fan_rays": rays}}
        path = write_spec(tmp_path, spec)
        with mock.patch.object(cli, "family_equations", wraps=cli.family_equations) as family:
            code, out, records = run(capsys, ["degenerate", path])
        assert code == 0
        deg = next(r for r in records if r["record"] == "degeneration")
        assert [c["class"] for c in deg["components"]] == [0] * 9
        fam = next(r for r in records if r["record"] == "family")
        assert len(fam["points"]) == comb(17, 8) == 24310
        expected = oracles.family_equations(*family.call_args.args, **family.call_args.kwargs)
        assert fam["points"] == [list(p) for p in expected.points]
        assert fam["exponents"] == list(expected.exponents)
        assert fam["supports"] == [list(s) for s in expected.supports]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a84ddd29bdb08fc446badbbcf9d0cdbd49f8464547760e2a0a2709e1fde2cd79"
        )

    def test_staircase_eight_lift(self, tmp_path, capsys):
        # the rank-8 lift, whose value generator is read off one smooth
        # vertex per piece; the digest is the stdout of two identical runs
        # at the parent of that change, which scanned every piece
        n = 8
        rays = [[int(i == j) - int(i == j - 1) for i in range(n)] for j in range(n + 1)]
        vertices = [[-1] * n] + [[(n + 1) * int(i == j) - 1 for i in range(n)] for j in range(n)]
        spec = {"polytope": {"vertices": vertices}, "partition": {"fan_rays": rays}}
        code, out, records = run(capsys, ["lift", write_spec(tmp_path, spec)])
        assert code == 0
        assert records[-1]["record"] == "lifted_polytope"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4e4476694031272178525f194528ef823feb23de7f8369c7d8f07e584c379768"
        )


GRID = {
    "polytope": {"vertices": [[0, 0], [4, 0], [4, 3], [0, 3]]},
    "partition": {
        "hyperplanes": [
            {"normal": [1, 0], "offset": 1},
            {"normal": [1, 0], "offset": 2},
            {"normal": [0, 1], "offset": 2},
        ]
    },
}


@contextlib.contextmanager
def _counted_partition_faces():
    """The partition faces built inside the block, in order."""
    built = []
    make = partition_module.PartitionFace

    def counted(*args):
        built.append(make(*args))
        return built[-1]

    with mock.patch.object(partition_module, "PartitionFace", side_effect=counted):
        yield built


class TestFaceObjectsOnDemand:
    """The partition keeps its faces as a table of masks; a face object is
    built only when something reads it."""

    def test_rejected_grid_builds_only_the_witness(self, tmp_path, capsys):
        with _counted_partition_faces() as built:
            code, out, records = run(capsys, ["verify", write_spec(tmp_path, GRID)])
        assert code == 1
        witness = records[1]["witness"]
        assert len(built) == 1
        assert [list(v) for v in built[0].vertices] == witness["face_vertices"]
        assert (built[0].dim, len(built[0].pieces)) == (0, 4)

    @pytest.mark.parametrize("spec", [STAIRCASE3, CHAIN4], ids=["staircase-3", "chain-4"])
    def test_accepted_verify_builds_only_vertex_faces(self, tmp_path, capsys, spec):
        # the stars are read off the face table's edge records
        with _counted_partition_faces() as built:
            code, out, records = run(capsys, ["verify", write_spec(tmp_path, spec)])
        assert code == 0
        assert built and {f.dim for f in built} == {0}

    def test_lift_reads_the_face_index_only_for_a_witness(self, tmp_path, capsys):
        reads = []
        index = Partition.face_index

        def read(part):
            reads.append(part)
            return index.fget(part)

        path = write_spec(tmp_path, STAIRCASE3)
        with mock.patch.object(Partition, "face_index", property(read)):
            code, out, records = run(capsys, ["lift", path])
            assert code == 0 and reads == []
            with mock.patch.object(lifting_module, "_graph_facet_mismatch", return_value=0):
                code, out, records = run(capsys, ["lift", path])
        assert code == 1
        assert records[-1]["message"] == "graph facet does not project onto its piece"
        assert reads


class TestNoFaceLattice:
    """Verifying, lifting and degenerating an accepted spec list the faces
    of no polytope: the stdout is the same with ``LatticePolytope.faces``
    patched to raise."""

    @pytest.mark.parametrize("command", ["verify", "lift", "degenerate"])
    @pytest.mark.parametrize("spec", [STAIRCASE3, CHAIN4], ids=["staircase-3", "chain-4"])
    def test_stdout_is_the_same_without_faces(self, tmp_path, capsys, command, spec):
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, [command, path])
        assert code == 0
        with mock.patch.object(LatticePolytope, "faces", side_effect=AssertionError("face lattice")):
            assert run(capsys, [command, path])[:2] == (code, out)


def _staircase_two(t):
    """The reflexive triangle dilated by ``t`` under the staircase fan."""
    vertices = [[-t, -t], [2 * t, -t], [-t, 2 * t]]
    return {"polytope": {"vertices": vertices}, "partition": {"fan_rays": [[1, 0], [-1, 1], [0, -1]]}}


class TestNoPieceScans:
    """``lift`` and ``degenerate`` list the lattice points of no polytope but
    the base when every piece has a smooth lattice vertex: the value
    generator reads each piece off such a vertex, and the family cuts the
    base's runs.  The stdout is the same with ``_scan_runs`` patched to
    raise on any other polytope; ``lift`` scans nothing at all."""

    @pytest.mark.parametrize("command", ["lift", "degenerate"])
    @pytest.mark.parametrize(
        "spec",
        [
            STAIRCASE3,
            CHAIN4,
            OCTAGON,
            _staircase_two(3),
            {
                "polytope": {"vertices": [[0, 0, 0], [4, 0, 0], [0, 4, 0]]},
                "partition": {"hyperplanes": [{"normal": [1, 1, 0], "offset": 2}]},
            },
            {"polytope": {"halfspaces": [], "rank": 3}, "partition": STAIRCASE3["partition"]},
        ],
        ids=["staircase-3", "chain-4", "octagon", "staircase-2-t3", "flat-x+y=2", "torus-3"],
    )
    def test_only_the_base_is_scanned(self, tmp_path, capsys, command, spec):
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, [command, path])
        assert code == 0
        bases, scanned = [], []
        make, scan = cli.build_polytope, LatticePolytope._scan_runs

        def build(poly_spec):
            bases.append(make(poly_spec))
            return bases[-1]

        def guarded(poly):
            if poly is not bases[-1]:
                raise AssertionError("lattice point scan of a polytope other than the base")
            scanned.append(poly)
            return scan(poly)

        with mock.patch.object(cli, "build_polytope", side_effect=build), mock.patch.object(
            LatticePolytope, "_scan_runs", autospec=True, side_effect=guarded
        ):
            assert run(capsys, [command, path])[:2] == (code, out)
        assert len(scanned) == (command == "degenerate" and bases[-1].is_compact)

    def test_lift_answers_a_base_past_the_enumeration_budget(self, tmp_path, capsys):
        # the triangle dilated by 6000 holds about 1.6 * 10^8 lattice points:
        # lift reads the value generator off smooth vertices and exits 0,
        # while degenerate, which needs the family, is refused by the base
        # scan before any lifting
        path = write_spec(tmp_path, _staircase_two(6000))
        code, _, records = run(capsys, ["lift", path])
        assert code == 0
        assert records[-1]["record"] == "lifted_polytope"
        with mock.patch.object(cli, "lifting_function", side_effect=AssertionError("lifted")):
            code, _, records = run(capsys, ["degenerate", path])
        assert code == 1
        assert records[-1] == {
            "record": "error",
            "code": "UnsupportedGeometryError",
            "message": "lattice point enumeration past 10000000 prefixes and points",
            "witness": None,
        }


def _one_piece(vertices):
    return {"polytope": {"vertices": vertices}, "partition": {"pieces": [vertices]}}


class TestLowerDimensionalOnePiece:
    """conv{0, 2e1, 2e2} as one piece, in rank 2 and at z = 0 in rank 3:
    nonsingularity is measured in the triangle's own lattice either way."""

    SPECS = [
        _one_piece([[0, 0], [2, 0], [0, 2]]),
        _one_piece([[0, 0, 0], [2, 0, 0], [0, 2, 0]]),
    ]

    def test_lift_is_nonsingular_in_both_ranks(self, tmp_path, capsys):
        for spec in self.SPECS:
            code, _, records = run(capsys, ["lift", write_spec(tmp_path, spec)])
            assert code == 0
            lifted = records[-1]
            assert lifted["record"] == "lifted_polytope"
            assert lifted["nonsingular"] is True and lifted["singular_vertices"] == []

    def test_degenerate_agrees_across_ranks(self, tmp_path, capsys):
        reports = []
        for spec in self.SPECS:
            code, _, records = run(capsys, ["degenerate", write_spec(tmp_path, spec)])
            assert code == 0
            reports.append({r["record"]: r for r in records})
        low, high = reports
        assert low["classification"] == high["classification"]
        charts = [
            [(c["monomial"], c["face_dim"]) for c in r["degeneration"]["charts"]] for r in reports
        ]
        assert charts[0] == charts[1] and len(charts[0]) == 3
        for key in ("exponents", "supports"):
            assert low["family"][key] == high["family"][key]


def test_degenerate_refuses_a_singular_vertex_with_a_zero_one_expansion(tmp_path, capsys):
    # the lifted vertex (0, 1, 0) of the one-piece triangle is singular; the
    # vertical vector being one of its edges gives it no chart
    spec = _one_piece([[0, 0], [2, 0], [0, 1]])
    code, _, records = run(capsys, ["degenerate", write_spec(tmp_path, spec)])
    assert code == 1
    assert records[-1]["record"] == "error"
    assert records[-1]["message"] == "singular vertex has no monomial chart"
    assert records[-1]["witness"] == [0, 1, 0]


class TestOptionsBeforeGeometry:
    """Every option is read in ``load_job``: a bad one exits 2 with its JSON
    path before any polytope is built, whatever the command."""

    @pytest.mark.parametrize(
        "command, spec, options, message",
        [
            ("verify", OCTAGON, {"compact_cap": "junk"}, "expected a boolean (at $.options.compact_cap)"),
            ("verify", OCTAGON, {"anchor_piece": "x"}, "expected an integer (at $.options.anchor_piece)"),
            ("lift", OCTAGON, {"anchor_piece": "x"}, "expected an integer (at $.options.anchor_piece)"),
            ("lift", CHAIN4, {"coefficient_seed": 1.5}, "expected an integer (at $.options.coefficient_seed)"),
            ("degenerate", CHAIN4, {"anchor_piece": None}, "expected an integer (at $.options.anchor_piece)"),
            ("verify", CHAIN4, {"coefficient_seed": None}, "expected an integer (at $.options.coefficient_seed)"),
            ("verify", CHAIN4, {"multi_base": None}, "expected a boolean (at $.options.multi_base)"),
            ("verify", CHAIN4, {"compact_cap": None}, "expected a boolean (at $.options.compact_cap)"),
            (
                "verify",
                CHAIN4,
                {"compact_cap": {"normal": [0, 1], "offset": 3}},
                "expected a vector of length 3 (at $.options.compact_cap.normal)",
            ),
            (
                "verify",
                OCTAGON,
                {"compact_cap": {"normal": [0, 1], "offset": "3"}},
                "cap offset must be an integer (at $.options.compact_cap.offset)",
            ),
            ("verify", BAD_TRIPTYCH, {"anchor_piece": [0]}, "expected an integer (at $.options.anchor_piece)"),
        ],
    )
    def test_bad_option_exits_two_before_the_polytope(self, capsys, command, spec, options, message):
        text = json.dumps({**spec, "options": options})
        with mock.patch.object(cli, "build_polytope", side_effect=AssertionError("geometry ran")):
            code, out = _main_on_stdin([command, "-"], text)
        assert code == 2
        assert parse_report(out) == [
            {"record": "error", "code": "input", "message": message, "witness": None}
        ]

    def test_flags_do_not_hide_a_bad_option(self, capsys):
        text = json.dumps({**CHAIN4, "options": {"anchor_piece": "x", "coefficient_seed": "y"}})
        code, out = _main_on_stdin(["degenerate", "-", "--anchor", "1", "--seed", "2"], text)
        assert code == 2
        assert "$.options.anchor_piece" in out

    def test_cap_length_follows_the_halfspace_rank(self, capsys):
        spec = {**CHAIN4, "polytope": {**CHAIN4["polytope"], "rank": 3}}
        good = {"compact_cap": {"normal": [0, 0, 1], "offset": 9}}
        code, _ = _main_on_stdin(["lift", "-"], json.dumps({**spec, "options": good}))
        assert code == 0
        bad = {"compact_cap": {"normal": [0, 0, 0, 1], "offset": 9}}
        code, out = _main_on_stdin(["lift", "-"], json.dumps({**spec, "options": bad}))
        assert code == 2 and "expected a vector of length 3" in out


class TestDeterminismAndRoundTrip:
    def test_byte_for_byte_determinism(self, tmp_path, capsys):
        path = write_spec(tmp_path, STAIRCASE3)
        code1, out1, _ = run(capsys, ["degenerate", path, "--seed", "3"])
        code2, out2, _ = run(capsys, ["degenerate", path, "--seed", "3"])
        assert (code1, out1) == (code2, out2)

    def test_report_round_trip(self, tmp_path, capsys):
        from toricdegen.report import render_report, encode_value

        path = write_spec(tmp_path, CHAIN4)
        _, out, records = run(capsys, ["degenerate", path])
        assert render_report([encode_value(r) for r in records]) == out

    def test_big_integers_survive(self):
        from toricdegen.report import encode_value

        big = 2**80 + 1
        assert oracles.decode_value(encode_value(big)) == big
        assert isinstance(encode_value(big), str)


# -- one normal form per hyperplane ------------------------------------------------

COMMANDS = [["verify"], ["lift"], ["lift", "--multi-base"], ["degenerate"]]
SEGMENT4 = [([1], 0), ([-1], 4)]
TRIANGLE4 = [([1, 0], 0), ([0, 1], 0), ([-1, -1], 4)]


def _constraints(pairs):
    return [{"normal": list(n), "offset": o} for n, o in pairs]


def _cut_job(halfspaces, cuts):
    return {
        "polytope": {"halfspaces": _constraints(halfspaces)},
        "partition": {"hyperplanes": _constraints(cuts)},
    }


def _scaled(job, factors):
    """``job`` with its ``i``-th halfspace, cut or fan ray, counted through
    all three in that order, multiplied by ``factors[i]``."""
    job = json.loads(json.dumps(job))
    items = [*job["polytope"].get("halfspaces", ()), *job["partition"].get("hyperplanes", ())]
    rays = job["partition"].get("fan_rays", [])
    for k, item in zip(factors, items):
        item["normal"] = [k * x for x in item["normal"]]
        item["offset"] *= k
    for k, ray in zip(factors[len(items):], rays):
        ray[:] = [k * x for x in ray]
    return job


@st.composite
def scalable_jobs(draw):
    """Segments, triangles, the quadrant and rank-3 chains in halfspace form
    under 1-3 cuts, parallel ones (the multi-base input) or any, and the
    rank-2 and rank-3 staircase simplices under their fans."""
    kind = draw(st.sampled_from(["segment", "triangle", "quadrant", "chain", "fan"]))
    if kind == "fan":
        rank = draw(st.integers(2, 3))
        rays = [[int(i == j) - int(i == j + 1) for i in range(rank)] for j in range(-1, rank)]
        halfspaces = [([-x for x in r], 1) for r in rays]
        job = {
            "polytope": {"halfspaces": _constraints(halfspaces)},
            "partition": {"fan_rays": rays},
        }
        return job, len(halfspaces) + len(rays)
    size = draw(st.integers(2, 5))
    if kind == "segment":
        halfspaces, normals = [([1], 0), ([-1], size)], [[1], [-1]]
    elif kind == "chain":
        halfspaces = [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([-1, -1, -1], min(size, 4))]
        normals = [[1, 1, 1], [1, 0, 0], [1, 1, 0]]
    else:
        halfspaces = [([1, 0], 0), ([0, 1], 0)]
        if kind == "triangle":
            halfspaces.append(([-1, -1], size))
        normals = [[1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [-1, 0]]
    levels = st.lists(st.integers(-1, size + 1), min_size=1, max_size=3, unique=True)
    if draw(st.booleans()):
        normal = draw(st.sampled_from(normals))
        cuts = [(normal, c) for c in sorted(draw(levels))]
    else:
        cut = st.tuples(st.sampled_from(normals), st.integers(-1, size + 1))
        cuts = draw(st.lists(cut, min_size=1, max_size=3))
    return _cut_job(halfspaces, cuts), len(halfspaces) + len(cuts)


class TestScalingInvariance:
    """A cut ``(normal, offset)``, a polytope halfspace or a fan ray is the
    same input as any multiple ``k >= 2`` of it: every command prints the
    same, since each enters in its normal form once."""

    @given(scalable_jobs(), st.sampled_from(COMMANDS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_multiples_print_the_same(self, job_and_count, argv, data):
        job, count = job_and_count
        factors = data.draw(st.lists(st.integers(2, 4), min_size=count, max_size=count))
        argv = [argv[0], "-", *argv[1:]]
        expected = _main_on_stdin(argv, json.dumps(job))
        event(f"exit {expected[0]}")
        assert _main_on_stdin(argv, json.dumps(_scaled(job, factors))) == expected

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    @pytest.mark.parametrize(
        "job, multiple",
        [
            (
                _cut_job(SEGMENT4, [([1], c) for c in (1, 2, 3)]),
                _cut_job(SEGMENT4, [([2], c) for c in (2, 4, 6)]),
            ),
            (
                _cut_job(TRIANGLE4, [([1, 1], c) for c in (1, 2)]),
                _cut_job(TRIANGLE4, [([2, 2], c) for c in (2, 4)]),
            ),
            (
                _cut_job(SEGMENT4, [([1], 1), ([1], 2)]),
                _cut_job(SEGMENT4, [([1], 1), ([2], 4)]),
            ),
        ],
        ids=["segment-2x", "triangle-2x+2y", "segment-mixed"],
    )
    def test_multiples_of_the_cuts(self, tmp_path, capsys, argv, job, multiple):
        # offsets left undivided by the normal's gcd would lift 2x = 2, 4, 6 along
        # x = 2, 4, 6, and raw normals would refuse x = 1 next to 2x = 4
        code, out, _ = run(capsys, [argv[0], write_spec(tmp_path, job), *argv[1:]])
        assert code == 0
        assert run(capsys, [argv[0], write_spec(tmp_path, multiple), *argv[1:]])[:2] == (code, out)

    @pytest.mark.parametrize(
        "offsets, witness",
        [((3,), ["3/2", 0]), ((2, 3), ["3/2", "1/2", 0])],
        ids=["2x=3", "2x=2,3"],
    )
    def test_cut_off_the_lattice_is_refused_as_by_the_plain_lift(
        self, tmp_path, capsys, offsets, witness
    ):
        # 2x = 3 is x = 3/2, not x = 3: both lifts meet a vertex off the lattice
        path = write_spec(tmp_path, _cut_job(SEGMENT4, [([2], c) for c in offsets]))
        code, _, records = run(capsys, ["lift", path])
        assert code == 1 and records[-1]["message"] == "lifted polytope is not integral"
        code, out, _ = run(capsys, ["lift", path, "--multi-base"])
        assert code == 1 and json.loads(out) == {
            "record": "error",
            "code": "LiftingError",
            "message": "lifted polytope is not integral",
            "witness": witness,
        }


class TestMultiBaseCuts:
    def test_no_cuts_is_an_error_record(self, tmp_path, capsys):
        path = write_spec(tmp_path, _cut_job(SEGMENT4, []))
        code, _, records = run(capsys, ["lift", path, "--multi-base"])
        assert code == 1
        assert [r["record"] for r in records] == ["error"]

    def test_opposite_orientations_are_refused(self, tmp_path, capsys):
        # x = 1 and -x = -3 are parallel; the lift needs one orientation
        path = write_spec(tmp_path, _cut_job(SEGMENT4, [([1], 1), ([-1], -3)]))
        code, _, records = run(capsys, ["lift", path, "--multi-base"])
        assert code == 1
        assert records[0]["message"] == "multi-base lifting requires parallel cuts of one orientation"


class TestRejectionsPinned:
    def test_corner_anchored_walls_lift(self, tmp_path, capsys):
        # the fan of triangles from the pentagon's corner (0, 0): each wall is
        # anchored there, a vertex of all three pieces
        corners = [[0, 0], [2, 0], [3, 2], [1, 3], [-1, 1]]
        pieces = [[corners[0], corners[k], corners[k + 1]] for k in range(1, 4)]
        path = write_spec(tmp_path, {"polytope": {"vertices": corners}, "partition": {"pieces": pieces}})
        code, _, records = run(capsys, ["lift", path])
        assert code == 0
        assert [r["record"] for r in records][-1] == "lifted_polytope"
        code, _, records = run(capsys, ["degenerate", path])
        assert code == 1
        assert records[-1]["message"] == "singular vertex has no monomial chart"
        assert records[-1]["witness"] == [-1, 1, 48]

    def test_multi_base_refuses_an_intermediate_partition_that_is_not_nonsingular(self, tmp_path, capsys):
        path = write_spec(tmp_path, _triangle_job([[0, 0], [4, 0], [0, 2]], [([1, 0], 2)]))
        code, _, records = run(capsys, ["lift", path, "--multi-base"])
        assert code == 1
        assert records[-1]["message"] == "intermediate partition is not nonsingular"
        assert records[-1]["witness"] == 0
        code, _, _ = run(capsys, ["lift", path])
        assert code == 0


def _triangle_job(vertices, cuts):
    return {
        "polytope": {"vertices": vertices},
        "partition": {"hyperplanes": _constraints(cuts)},
    }


class TestLowerDimensionalLift:
    """A triangle embedded at z = 0 or z = 1 in rank 3 lifts and degenerates
    as the planar triangle does: its walls are read off the facets its
    pieces store, canonical in its affine hull."""

    PAIRS = [
        (
            _triangle_job([[0, 0], [4, 0], [0, 4]], [([1, 1], 2)]),
            _triangle_job([[0, 0, 0], [4, 0, 0], [0, 4, 0]], [([1, 1, 0], 2)]),
        ),
        (
            _triangle_job([[0, 0], [4, 0], [0, 4]], [([1, 0], 1), ([1, 0], 2)]),
            _triangle_job([[0, 0, 1], [4, 0, 1], [0, 4, 1]], [([1, 0, 0], 1), ([1, 0, 0], 2)]),
        ),
    ]

    @pytest.mark.parametrize("planar, flat", PAIRS, ids=["x+y=2-at-z=0", "x=1,2-at-z=1"])
    def test_lift_and_family_match_the_planar_triangle(self, tmp_path, capsys, planar, flat):
        code, _, records = run(capsys, ["lift", write_spec(tmp_path, flat)])
        assert code == 0 and records[-1]["record"] == "lifted_polytope"
        families = []
        for job in (planar, flat):
            code, _, records = run(capsys, ["degenerate", write_spec(tmp_path, job)])
            assert code == 0
            family = records[-1]
            assert family["record"] == "family"
            families.append((family["exponents"], family["supports"]))
        assert families[0] == families[1]

    @pytest.mark.parametrize("command", ["lift", "degenerate"])
    def test_rational_chamber_gets_the_planar_verdict(self, tmp_path, capsys, command):
        messages = []
        for vertices in ([[0, 0], [2, 1], [1, 2]], [[0, 0, 0], [2, 1, 0], [1, 2, 0]]):
            cut = ([1, -1] + [0] * (len(vertices[0]) - 2), 0)
            path = write_spec(tmp_path, _triangle_job(vertices, [cut]))
            code, _, records = run(capsys, [command, path])
            assert code == 1
            messages.append(records[-1]["message"])
        assert messages == ["lifted polytope is not integral"] * 2


# -- front-door fuzzing ------------------------------------------------------------

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2, 2, width=16),
    st.text(max_size=2),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["normal", "offset", "x"]), st.integers(-2, 2), max_size=2),
)


def _paths(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def fuzz_jobs(draw):
    """Small well-formed jobs of rank 1-3, then up to three corruptions:
    a value replaced by one of the wrong type or length, an integer 0 or 1
    replaced by the equal boolean, a key or list entry dropped, or a second
    partition form added."""
    rank = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2, 3), min_size=rank, max_size=rank)
    constraint = st.fixed_dictionaries({"normal": vec, "offset": st.integers(-2, 3)})
    staircase = [[int(i == j) - int(i == j + 1) for i in range(rank)] for j in range(-1, rank)]
    polytope = draw(
        st.one_of(
            st.fixed_dictionaries({"vertices": st.lists(vec, min_size=1, max_size=rank + 2)}),
            st.fixed_dictionaries(
                {"halfspaces": st.lists(constraint, max_size=rank + 2)},
                optional={"rank": st.just(rank)},
            ),
        )
    )
    forms = {
        "pieces": st.lists(st.lists(vec, min_size=1, max_size=rank + 2), min_size=1, max_size=3),
        "fan_rays": st.one_of(st.just(staircase), st.lists(vec, max_size=rank + 2)),
        "hyperplanes": st.lists(constraint, max_size=3),
    }
    form = draw(st.sampled_from(sorted(forms)))
    options = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "anchor_piece": st.integers(-1, 3),
                "coefficient_seed": st.integers(0, 3),
                "compact_cap": st.one_of(st.booleans(), constraint),
                "multi_base": st.booleans(),
            },
        )
    )
    job = {"polytope": polytope, "partition": {form: draw(forms[form])}, "options": options}
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["junk", "bool", "drop", "second-form"]))
        paths = [path for path, node in _paths(job)]
        if how == "bool":
            # the equal JSON boolean where an integer 0 or 1 stands
            paths = [path for path, node in _paths(job) if node in (0, 1)] or paths
        path = draw(st.sampled_from(paths))
        if not path:
            job = draw(JUNK)
            break
        *head, key = path
        parent = job
        for step in head:
            parent = parent[step]
        if how == "junk":
            parent[key] = draw(JUNK)
        elif how == "bool":
            parent[key] = bool(parent[key]) if parent[key] in (0, 1) else draw(st.booleans())
        elif how == "drop":
            del parent[key]
        elif isinstance(job.get("partition"), dict):
            other = draw(st.sampled_from(sorted(forms)))
            job["partition"][other] = draw(forms[other])
    argv = [draw(st.sampled_from(["verify", "lift", "degenerate"]))]
    argv += draw(st.sampled_from([[], ["--multi-base"], ["--compact-cap"], ["--seed", "3", "--anchor", "1"]]))
    return argv, json.dumps(job)


def _main_on_stdin(argv, text):
    """``(exit code, stdout)`` of an in-process ``cli.main`` call reading ``text``
    as its spec on stdin."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _bad_options(job):
    """Whether a job's options break a rule ``load_job`` checks: integers
    for ``anchor_piece`` and ``coefficient_seed``, a boolean ``multi_base``,
    a boolean or a ``{normal, offset}`` object of integers ``compact_cap``."""
    if not isinstance(job, dict) or "options" not in job:
        return False
    options = job["options"]
    if not isinstance(options, dict):
        return True
    if any(k in options and type(options[k]) is not int for k in ("anchor_piece", "coefficient_seed")):
        return True
    if type(options.get("multi_base", False)) is not bool:
        return True
    cap = options.get("compact_cap", False)
    if isinstance(cap, dict):
        normal = cap.get("normal")
        return not (isinstance(normal, list) and all(type(x) is int for x in normal)) or (
            type(cap.get("offset")) is not int
        )
    return type(cap) is not bool


@st.composite
def option_fuzz_jobs(draw):
    """Accepted jobs of rank 2 and 3 whose options take junk, JSON ``null``
    included, in place of a valid value, or a cap object with junk entries."""
    spec = draw(st.sampled_from([OCTAGON, CHAIN4, STAIRCASE3, BAD_TRIPTYCH]))
    cap = st.fixed_dictionaries({}, optional={"normal": st.one_of(JUNK, st.just([0, 0, 1])), "offset": JUNK})
    options = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "anchor_piece": st.one_of(JUNK, st.integers(0, 2)),
                "coefficient_seed": st.one_of(JUNK, st.integers(0, 2)),
                "compact_cap": st.one_of(JUNK, cap),
                "multi_base": JUNK,
            },
        )
    )
    argv = [draw(st.sampled_from(["verify", "lift", "degenerate"]))]
    return argv, json.dumps({**spec, "options": options})


class TestFrontDoorFuzz:
    @given(fuzz_jobs())
    @settings(max_examples=150, deadline=None)
    def test_every_job_exits_cleanly_with_json_records(self, job):
        argv, text = job
        code, out = _main_on_stdin(argv + ["-"], text)
        assert code in (0, 1, 2)
        lines = out.splitlines()
        assert lines
        for line in lines:
            assert "record" in json.loads(line)
        # every entry of the polytope and partition is read before success,
        # and JSON booleans are not integers
        job = json.loads(text)
        if isinstance(job, dict) and _holds_bool([job.get("polytope"), job.get("partition")]):
            assert code != 0
        if _bad_options(job):
            assert code == 2

    @given(option_fuzz_jobs())
    @settings(max_examples=150, deadline=None)
    @example((["verify"], json.dumps({**OCTAGON, "options": {"compact_cap": "junk"}})))
    @example((["lift"], json.dumps({**OCTAGON, "options": {"anchor_piece": None}})))
    def test_bad_options_exit_two_before_any_geometry(self, job):
        argv, text = job
        if not _bad_options(json.loads(text)):
            code, out = _main_on_stdin(argv + ["-"], text)
            assert code in (0, 1, 2)
            return
        with mock.patch.object(cli, "build_polytope", side_effect=AssertionError("geometry ran")):
            code, out = _main_on_stdin(argv + ["-"], text)
        assert code == 2
        [record] = parse_report(out)
        assert record["code"] == "input" and "(at $.options." in record["message"]


_EDGE_INTS = [2**63 - 1, 2**63, 2**64, 10**17, 10**18 - 1, 10**18, 10**19 - 1, 10**19, 10**40]
_BIG_INTS = st.one_of(
    st.integers(),
    st.sampled_from(_EDGE_INTS + [-x for x in _EDGE_INTS]),
    st.integers(2**62, 2**66),
    st.integers(-(2**66), -(2**62)),
)
_REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    _BIG_INTS,
    st.builds(Fraction, _BIG_INTS, _BIG_INTS.filter(bool)),
    st.text(alphabet="0123456789/-x", max_size=24),
)
_REPORT_VALUES = st.recursive(
    _REPORT_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(alphabet="abcr", max_size=3), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestRenderReportAgainstOracle:
    """The C encoder with its long-digit fallback against the ``encode_value``
    walk of every record."""

    @given(st.lists(st.dictionaries(st.text(alphabet="abcr", max_size=3), _REPORT_VALUES, max_size=5), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_same_text_as_the_walk(self, records):
        assert render_report(records) == oracles.render_report(records)

    @pytest.mark.parametrize("x", _EDGE_INTS + [-x for x in _EDGE_INTS] + [-(2**63) - 1])
    def test_integers_at_the_int64_edges(self, x):
        for value in (x, Fraction(x), Fraction(x, 7), [x, {"k": (x,)}]):
            record = {"record": "x", "value": value}
            assert render_report([record]) == oracles.render_report([record])
        inside = -(2**63) <= x <= 2**63 - 1
        assert render_report([{"v": x}]) == (f'{{"v":{x}}}\n' if inside else f'{{"v":"{x}"}}\n')

    @pytest.mark.parametrize(
        "text", ["1234567890123456789", "id-10000000000000000000-x", "9223372036854775808/7"]
    )
    def test_digit_runs_inside_strings(self, text):
        # a string with a 19-digit run takes the walk too and prints the same
        for record in ({"v": text}, {"record": "x", "v": [text, 10**18, Fraction(1, 3)]}):
            assert render_report([record]) == oracles.render_report([record])
        assert render_report([{"v": text}]) == f'{{"v":"{text}"}}\n'

    def test_unknown_objects_are_refused_as_by_the_walk(self):
        for records in ([{"v": object()}], [{"v": [1, {2, 3}]}]):
            with pytest.raises(TypeError):
                oracles.render_report(records)
            with pytest.raises(TypeError):
                render_report(records)


def _holds_bool(node):
    if isinstance(node, bool):
        return True
    if isinstance(node, dict):
        node = list(node.values())
    return isinstance(node, list) and any(_holds_bool(x) for x in node)


class TestParserReuse:
    """The parser is built once per process; no flag of one call may leak
    into the next."""

    @pytest.mark.parametrize(
        "calls",
        [
            [["degenerate", "-", "--seed", "7"], ["degenerate", "-"]],
            [["lift", "-", "--compact-cap"], ["lift", "-"]],
            [["degenerate", "-", "--anchor", "3"], ["verify", "-"], ["degenerate", "-"]],
        ],
    )
    def test_consecutive_calls_print_what_each_prints_alone(self, calls):
        text = json.dumps(CHAIN4)
        together = [_main_on_stdin(argv, text) for argv in calls]
        alone = []
        for argv in calls:
            cli._parser.cache_clear()
            alone.append(_main_on_stdin(argv, text))
        assert together == alone
        assert together[0] != together[1]


class TestEntryPoint:
    """``python -m toricdegen.cli`` in a child process: the exit code and
    stdout match an in-process ``main`` call on the same stdin."""

    @pytest.mark.parametrize(
        "argv, spec, code",
        [
            (["verify", "-"], json.dumps(OCTAGON), 0),
            (["degenerate", "-"], json.dumps(CHAIN4), 0),
            (["verify", "-"], json.dumps(BAD_TRIPTYCH), 1),
            (["degenerate", "-"], json.dumps(BAD_TRIPTYCH), 1),
            (["verify", "-"], '{"polytope": ', 2),
            (["degenerate", "-"], '{"polytope": {"vertices": [[0, 0]]}}', 2),
        ],
    )
    def test_exit_code_and_stdout_match_in_process_main(self, argv, spec, code):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-m", "toricdegen.cli", *argv],
            input=spec.encode(),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (child.returncode, child.stderr) == (code, b"")
        assert (child.returncode, child.stdout.decode()) == _main_on_stdin(argv, spec)
