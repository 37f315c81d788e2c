"""Seeded job generators for the three benchmark workloads, and the output check.

Every job is a CLI invocation (command, JSON spec text, extra flags) together
with the verdict it has by construction.  The seed only chooses parameters
inside fixed families and lattice automorphisms (signed coordinate
permutations, and translations where the geometry is not a fan at the origin)
that leave every checked invariant unchanged: exit code, classification
flags, piece count, monomial count and the sizes of the component classes.
The program under test only ever sees the JSON text.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from math import comb

WORKLOADS = ("ladder", "sweep", "verify")

# Why each workload exists; printed with every result.
WHY = {
    "ladder": "degenerate on the tests/corpus.py fixture ladder (staircase 2-4, chains, octagon, "
    "torus fans): the north-star number, dominated by lifting.lift_polytope",
    "sweep": "many small and medium rank 1-3 jobs (degenerate and lift --multi-base): everyday "
    "use, work spread over lifting, degeneration, partition and report",
    "verify": "verify on many-piece partitions plus rejected and malformed specs: partition "
    "build and rejection paths only, never reaches lifting or degeneration",
}

# Workloads that BENCHMARK.json does not gate, with the reason.
UNGATED = {
    "ladder": "one staircase-4 job is 97% of a pass and cannot be repeated in a run's time "
    "budget; its time swings between two machine speed states by 1.3x either raw or "
    "speed-normalized, beyond any bound the benchmark may set",
}

# Fixtures deliberately left out of the ladder, with the reason.
OMITTED = {
    "staircase-5": "degenerate on staircase-5 does not finish in practical time at the seed "
    "commit (staircase-4 alone takes about 30 s); it is added by its own benchmark change once "
    "the dual-description and tiling-certificate speed-ups land",
}

ALL_FLAGS_TRUE = {"semistable": True, "balanced": True, "nonsingular": True, "mildly_singular": True}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    spec: str
    expect: dict
    flags: tuple = ()
    heavy: bool = False  # runs once per measurement, and not in the warm-up
    key: str = field(init=False)

    def __post_init__(self):
        digest = hashlib.sha256(json.dumps([self.argv, self.spec]).encode()).hexdigest()
        object.__setattr__(self, "key", digest[:24])

    @property
    def argv(self):
        return [self.command, "-", *self.flags]


def _job(name, command, spec, expect, flags=(), heavy=False):
    text = spec if isinstance(spec, str) else json.dumps(spec, separators=(",", ":"))
    return Job(name, command, text, expect, tuple(flags), heavy)


# -- lattice automorphisms ------------------------------------------------------


class Transform:
    """x -> P x + t with P a signed permutation matrix."""

    def __init__(self, rng, rank, translate=0):
        self.perm = rng.sample(range(rank), rank)
        self.signs = [rng.choice((1, -1)) for _ in range(rank)]
        self.shift = [rng.randint(-translate, translate) for _ in range(rank)]

    def direction(self, v):
        return [self.signs[i] * v[p] for i, p in enumerate(self.perm)]

    def point(self, v):
        return [a + b for a, b in zip(self.direction(v), self.shift)]

    def offset(self, normal, offset):
        """Offset of ``<x, normal> = offset`` after mapping (hyperplane convention)."""
        return offset + sum(a * b for a, b in zip(self.direction(normal), self.shift))

    def polytope_vertices(self, verts):
        return {"vertices": [self.point(v) for v in verts]}

    def polytope_halfspaces(self, hs):
        # <x, n> >= -c maps to <x', P n> >= -(c - <P n, t>)
        return {
            "halfspaces": [
                {"normal": self.direction(n), "offset": c - self.offset(n, 0)} for n, c in hs
            ]
        }

    def hyperplanes(self, cuts):
        return {
            "hyperplanes": [
                {"normal": self.direction(n), "offset": self.offset(n, c)} for n, c in cuts
            ]
        }

    def fan(self, rays):
        return {"fan_rays": [self.direction(r) for r in rays]}


# -- fixture geometry -----------------------------------------------------------


def staircase_rays(n):
    rays = [[1 if j == 0 else 0 for j in range(n)]]
    for i in range(n - 1):
        rays.append([1 if j == i + 1 else (-1 if j == i else 0) for j in range(n)])
    rays.append([-1 if j == n - 1 else 0 for j in range(n)])
    return rays


def reflexive_simplex(n, t=1):
    """t * conv{e0, e0 + (n+1) e_i} with e0 = (-1, ..., -1)."""
    e0 = [-t] * n
    return [e0] + [[-t + (t * (n + 1) if j == i else 0) for j in range(n)] for i in range(n)]


def simplex_halfspaces(d, rank=3):
    hs = [([int(i == j) for j in range(rank)], 0) for i in range(rank)]
    hs.append(([-1] * rank, d))
    return hs


OCTAGON = [[0, 2], [1, 1], [3, 1], [4, 2], [4, 3], [3, 4], [1, 4], [0, 3]]


def octagon_points(k):
    """Lattice points of k * OCTAGON: the box [0,4k]x[k,4k] minus four corners."""
    return (4 * k + 1) * (3 * k + 1) - 2 * k * (k + 1)


def _accepted(pieces, monomials=None, class_sizes=None, flags=ALL_FLAGS_TRUE):
    return {
        "exit": 0,
        "flags": flags,
        "pieces": pieces,
        "monomials": monomials,
        "class_sizes": sorted(class_sizes) if class_sizes is not None else None,
    }


def staircase_job(rng, n, t=1, name=None, command="degenerate", heavy=False):
    """Reflexive simplex (dilated by t) cut by the staircase fan; the n+1
    pieces are permuted by the cyclic symmetry of projective space."""
    tr = Transform(rng, n)
    spec = {
        "polytope": tr.polytope_vertices(reflexive_simplex(n, t)),
        "partition": tr.fan(staircase_rays(n)),
    }
    mono = comb(t * (n + 1) + n, n) if command == "degenerate" else None
    classes = [n + 1] if command == "degenerate" else None
    expect = _accepted(n + 1, mono, classes)
    return _job(name or f"staircase-{n}-t{t}", command, spec, expect, heavy=heavy)


def torus_job(rng, n):
    """The whole space cut by the staircase fan: non-compact cones, all distinct."""
    tr = Transform(rng, n)
    spec = {"polytope": {"halfspaces": [], "rank": n}, "partition": tr.fan(staircase_rays(n))}
    return _job(f"torus-{n}", "degenerate", spec, _accepted(n + 1, None, [1] * (n + 1)))


def chain_job(rng, d, k, cuts=None, command="degenerate", translate=0, name=None):
    """The dilated simplex {x >= 0, sum x <= d} cut by sum_{i<k} x_i = c.

    With k = 2 the pieces pair up end to end, piece j with piece d + 1 - j
    (criterion 7 checks this for d = 4); with k = 1 or 3 the pieces have
    distinct volumes.
    """
    cuts = list(range(1, d)) if cuts is None else sorted(cuts)
    tr = Transform(rng, 3, translate)
    normal = [1 if i < k else 0 for i in range(3)]
    spec = {
        "polytope": tr.polytope_halfspaces(simplex_halfspaces(d)),
        "partition": tr.hyperplanes([(normal, c) for c in cuts]),
    }
    pieces = len(cuts) + 1
    if command == "degenerate":
        if k == 2:
            classes = [2] * (pieces // 2) + [1] * (pieces % 2)
        else:
            classes = [1] * pieces
        expect = _accepted(pieces, comb(d + 3, 3), classes)
    else:
        expect = _accepted(pieces)
    return _job(name or f"chain-{d}-k{k}-c{len(cuts)}", command, spec, expect)


def triangle_job(rng, d, cuts, command="degenerate", multi_base=False):
    """conv{0, d e1, d e2} cut by x + y = c: a triangle and trapezoids whose
    edge lengths {a, b, b-a, b-a} differ pairwise, so every class is a singleton."""
    tr = Transform(rng, 2, translate=5)
    spec = {
        "polytope": tr.polytope_vertices([[0, 0], [d, 0], [0, d]]),
        "partition": tr.hyperplanes([([1, 1], c) for c in cuts]),
    }
    pieces = len(cuts) + 1
    if multi_base:
        expect = _accepted(pieces) | {"cuts": len(cuts)}
        return _job(f"multi-triangle-{d}-c{len(cuts)}", "lift", spec, expect, ("--multi-base",))
    if command == "degenerate":
        expect = _accepted(pieces, (d + 1) * (d + 2) // 2, [1] * pieces)
    else:
        expect = _accepted(pieces)
    return _job(f"triangle-{d}-c{len(cuts)}", command, spec, expect)


def segment_multi_job(rng, length, cuts):
    shift = rng.randint(-5, 5)
    sign = rng.choice((1, -1))
    spec = {
        "polytope": {"vertices": [[sign * shift], [sign * (shift + length)]]},
        "partition": {"hyperplanes": [{"normal": [sign], "offset": c + shift} for c in cuts]},
    }
    expect = _accepted(len(cuts) + 1) | {"cuts": len(cuts)}
    return _job(f"multi-segment-{length}-c{len(cuts)}", "lift", spec, expect, ("--multi-base",))


def octagon_job(rng, k, c):
    """k * OCTAGON cut at x = c; the two halves are equivalent exactly when
    the cut is the mirror axis x = 2k (their areas differ otherwise).  A cut
    through a vertex (c = k or 3k) leaves a singular lifted vertex and is
    rejected, so callers draw c from ``octagon_cuts``."""
    tr = Transform(rng, 2, translate=5)
    spec = {
        "polytope": tr.polytope_vertices([[k * a, k * b] for a, b in OCTAGON]),
        "partition": tr.hyperplanes([([1, 0], c)]),
    }
    classes = [2] if c == 2 * k else [1, 1]
    return _job(f"octagon-{k}-x{c}", "degenerate", spec, _accepted(2, octagon_points(k), classes))


def octagon_cuts(k):
    return [c for c in range(1, 4 * k) if c not in (k, 3 * k)]


# -- workloads ------------------------------------------------------------------


def ladder(seed):
    """The tests/corpus.py ladder; the seed permutes coordinates and job order."""
    rng = random.Random(f"ladder-{seed}")
    jobs = [
        staircase_job(rng, 2, name="staircase-2"),
        staircase_job(rng, 3, name="staircase-3"),
        staircase_job(rng, 4, name="staircase-4", heavy=True),
        chain_job(rng, 4, 3, name="chain-4"),
        chain_job(rng, 4, 2, name="chain-4-k2"),
        octagon_job(rng, 1, 2),
        torus_job(rng, 2),
        torus_job(rng, 3),
    ]
    rng.shuffle(jobs)
    return jobs


def _distinct_cuts(rng, lo, hi, count):
    return sorted(rng.sample(range(lo, hi), count))


def _strata(rng, lo, hi, count):
    """One integer from each of ``count`` equal slices of [lo, hi]: the spread
    of values, and so of job costs, is nearly the same for every seed."""
    return [min(hi, lo + int((hi - lo + 1) * (i + rng.random()) / count)) for i in range(count)]


def sweep(seed):
    """About a hundred rank 1-3 jobs per pass, mostly small as in interactive
    use, a few reaching about 7k lattice points and 150 kB of output.  Sizes
    are stratified so the sorted job costs, and with them the median and
    p90, change little from seed to seed."""
    rng = random.Random(f"sweep-{seed}")
    jobs = []
    # dilated triangles with parallel cuts
    for d in _strata(rng, 4, 20, 36):
        jobs.append(triangle_job(rng, d, _distinct_cuts(rng, 1, d, min(d - 1, 1 + d // 8))))
    # the largest jobs run once per measurement (see Job.heavy)
    jobs.append(replace(triangle_job(rng, rng.randint(110, 117), [30, 80]), heavy=True))
    # dilated octagons cut across, a third of them on the mirror axis
    for i, k in enumerate(_strata(rng, 1, 6, 21)):
        jobs.append(octagon_job(rng, k, 2 * k if i % 3 == 0 else rng.choice(octagon_cuts(k))))
    # dilated staircase fans in rank 2 and 3
    for t in _strata(rng, 1, 12, 21):
        jobs.append(staircase_job(rng, 2, t))
    jobs.append(staircase_job(rng, 2, rng.randint(26, 30), heavy=True))
    jobs.append(staircase_job(rng, 3, 1))
    # rank-3 chains with d in 3..6 and k in 1..3 (k = 2 costs most, so only at d = 3)
    for d, k in ((3, 1), (3, 2), (3, 3), (4, rng.choice((1, 3)))):
        jobs.append(chain_job(rng, d, k, translate=5))
    jobs.append(replace(chain_job(rng, rng.choice((5, 6)), 3, translate=5), heavy=True))
    # iterated lifts over 2 or 3 parallel cuts
    for length in _strata(rng, 6, 20, 12):
        jobs.append(segment_multi_job(rng, length, _distinct_cuts(rng, 1, length, 2)))
    length = rng.randint(6, 20)
    jobs.append(segment_multi_job(rng, length, _distinct_cuts(rng, 1, length, 3)))
    d = rng.randint(6, 16)
    jobs.append(triangle_job(rng, d, _distinct_cuts(rng, 1, d, 2), multi_base=True))
    rng.shuffle(jobs)
    return jobs


def _rejected_partition(message):
    return {"exit": 1, "error_code": "PartitionError", "error": message, "witness": True}


def _not_semistable(pieces):
    return {
        "exit": 1,
        "flags": {"semistable": False, "balanced": None, "nonsingular": None, "mildly_singular": None},
        "pieces": pieces,
        "witness": True,
    }


def _malformed(message):
    return {"exit": 2, "error_code": "input", "error": message}


WEIGHTED_PROJECTIVE = [[-1, -1, -1, -1], [7, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]]


def malformed_jobs(rng):
    n = rng.randint(2, 9)
    tri = {"vertices": [[0, 0], [n, 0], [0, n]]}
    cut = {"hyperplanes": [{"normal": [1, 1], "offset": rng.randint(1, n - 1)}]}
    specs = [
        ("bad-json", '{"polytope": {"vertices": [[0, 0], [%d' % n, "invalid JSON"),
        ("not-object", json.dumps([tri, cut]), "job must be a JSON object"),
        ("no-polytope", {"partition": cut}, "missing polytope object"),
        ("two-forms", {"polytope": tri | {"halfspaces": []}, "partition": cut}, "exactly one of vertices/halfspaces"),
        ("no-partition", {"polytope": tri}, "missing partition object"),
        ("short-vertex", {"polytope": {"vertices": [[0, 0], [n], [0, n]]}, "partition": cut}, "expected a vector of length 2"),
        ("float-offset", {"polytope": tri, "partition": {"hyperplanes": [{"normal": [1, 1], "offset": n / 2 + 0.25}]}}, "offset must be an integer"),
        ("no-offset", {"polytope": tri, "partition": {"hyperplanes": [{"normal": [1, 1]}]}}, "hyperplane needs normal and offset"),
        ("options-list", {"polytope": tri, "partition": cut, "options": [n]}, "options must be an object"),
        ("verify-multi-base", {"polytope": tri, "partition": cut, "options": {"multi_base": True}}, "multi_base is only available"),
    ]
    return [_job(f"malformed-{name}", "verify", spec, _malformed(msg)) for name, spec, msg in specs]


def grid_job(rng, a, b, nx, ny):
    """An a x b rectangle cut by nx lines x = c and ny lines y = c: four pieces
    meet at an interior vertex where semi-stability allows three."""
    tr = Transform(rng, 2, translate=5)
    xs = _distinct_cuts(rng, 1, a, nx)
    ys = _distinct_cuts(rng, 1, b, ny)
    spec = {
        "polytope": tr.polytope_vertices([[0, 0], [a, 0], [a, b], [0, b]]),
        "partition": tr.hyperplanes([([1, 0], x) for x in xs] + [([0, 1], y) for y in ys]),
    }
    return _job(f"grid-{a}x{b}", "verify", spec, _not_semistable((nx + 1) * (ny + 1)))


def explicit_pieces_job(rng, kind):
    """A triangle split at x + y = a into two explicit pieces, the second
    starting one step early (overlap) or one step late (gap)."""
    delta, message = {"overlap": (-1, "interior overlap"), "gap": (1, "gap: pieces do not cover")}[kind]
    tr = Transform(rng, 2, translate=5)
    n = rng.randint(4, 12)
    a = rng.randint(2, n - 2)
    b = a + delta
    pieces = [
        [tr.point(v) for v in ([0, 0], [a, 0], [0, a])],
        [tr.point(v) for v in ([b, 0], [n, 0], [0, n], [0, b])],
    ]
    spec = {"polytope": tr.polytope_vertices([[0, 0], [n, 0], [0, n]]), "partition": {"pieces": pieces}}
    return _job(f"{kind}-{n}-{a}", "verify", spec, _rejected_partition(message))


def verify(seed):
    """About a hundred verify jobs per pass: a few accepted many-piece
    partitions carry most of the time, and many cheap rejections exercise
    the witness and error paths.  Group sizes put the median among the
    overlap rejections and p90 among the grids, inside groups of similar
    cost, so neither moves much from seed to seed."""
    rng = random.Random(f"verify-{seed}")
    jobs = []
    # accepted: 15 to 30 parallel cuts, and staircase-4
    d = rng.randint(38, 42)
    jobs.append(triangle_job(rng, d, _distinct_cuts(rng, 1, d, 18), command="verify"))
    d = rng.randint(19, 21)
    jobs.append(chain_job(rng, d, 3, cuts=_distinct_cuts(rng, 1, d, 15), command="verify", translate=5))
    jobs.append(staircase_job(rng, 4, command="verify", name="staircase-4"))
    # rejected with a witness
    for i, (a, b) in enumerate(zip(_strata(rng, 3, 12, 30), _strata(rng, 3, 12, 30)[::-1])):
        jobs.append(grid_job(rng, a, b, 1 + i % 2, 1 + (i // 2) % 2))
    jobs.extend(explicit_pieces_job(rng, "overlap") for _ in range(24))
    jobs.extend(explicit_pieces_job(rng, "gap") for _ in range(8))
    # criterion 03: P(1,1,2,2,2) under the staircase fan has non-simplicial pieces
    spec = {"polytope": {"vertices": WEIGHTED_PROJECTIVE}, "partition": {"fan_rays": staircase_rays(4)}}
    jobs.append(_job("criterion-03", "verify", spec, _rejected_partition("piece is not simplicial")))
    for _ in range(4):
        jobs.extend(malformed_jobs(rng))
    # a zero fan ray must be refused with an error record (exit 1 or 2), never a traceback
    rays = staircase_rays(2)
    rays.insert(rng.randint(0, len(rays)), [0, 0])
    spec = {"polytope": {"vertices": reflexive_simplex(2)}, "partition": {"fan_rays": rays}}
    jobs.append(_job("zero-fan-ray", "verify", spec, {"exit": (1, 2), "error": ""}))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"ladder": ladder, "sweep": sweep, "verify": verify}


def generate(workload, seed):
    return GENERATORS[workload](seed)


# -- output check ---------------------------------------------------------------


def verdict_of(stdout):
    """Parse the line-JSON report into the invariants the check compares."""
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    by_kind = {r.get("record"): r for r in records}
    return records, by_kind


def check(job, code, stdout, golden=None):
    """Return None if the output matches the job's verdict, else a reason."""
    expect = job.expect
    allowed = expect["exit"] if isinstance(expect["exit"], tuple) else (expect["exit"],)
    if code not in allowed:
        return f"exit code {code}, expected {expect['exit']}"
    try:
        records, by_kind = verdict_of(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not line JSON: {exc}"
    if golden is not None and golden.get(job.key) not in (None, hashlib.sha256(stdout.encode()).hexdigest()):
        return "stdout digest differs from the recorded one"
    if "error" in expect:
        err = by_kind.get("error")
        if err is None or expect["error"] not in err.get("message", ""):
            return f"missing error record containing {expect['error']!r}"
        if "error_code" in expect and err.get("code") != expect["error_code"]:
            return f"error code {err.get('code')!r}, expected {expect['error_code']!r}"
        if expect.get("witness") and err.get("witness") is None:
            return "error record has no witness"
        return None
    cls = by_kind.get("classification")
    if cls is None:
        return "missing classification record"
    for flag, value in expect["flags"].items():
        if cls.get(flag) != value:
            return f"classification {flag} = {cls.get(flag)}, expected {value}"
    if cls.get("pieces") != expect["pieces"]:
        return f"{cls.get('pieces')} pieces, expected {expect['pieces']}"
    if expect.get("witness") and cls.get("witness") is None:
        return "rejection has no witness"
    if "cuts" in expect and by_kind.get("multi_lifting", {}).get("cuts") != expect["cuts"]:
        return "multi_lifting record missing or with the wrong cut count"
    if expect.get("monomials") is not None:
        family = by_kind.get("family")
        if family is None or len(family["points"]) != expect["monomials"]:
            return f"family monomial count differs from {expect['monomials']}"
    if expect.get("class_sizes") is not None:
        deg = by_kind.get("degeneration")
        if deg is None:
            return "missing degeneration record"
        sizes = sorted(Counter(c["class"] for c in deg["components"]).values())
        if sizes != expect["class_sizes"]:
            return f"component class sizes {sizes}, expected {expect['class_sizes']}"
    return None
