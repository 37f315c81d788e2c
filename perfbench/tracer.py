"""Span tracer that wraps the program's layer entry points from outside.

Nothing in the program is edited: at start-up the tracer replaces each
target function with a recording wrapper in every ``toricdegen`` module
namespace that binds it (``from .exactmath import solve_linear`` binds the
name separately in each importing module), and puts the originals back
afterwards.  Spans (name, start, end, parent span, job id) are kept in flat
arrays in memory and written out once, after the measurement.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# span name -> (module, qualified name of the wrapped callable)
TARGETS = {
    "cli.main": ("toricdegen.cli", "main"),
    "cli.load_job": ("toricdegen.cli", "load_job"),
    "cli.build_polytope": ("toricdegen.cli", "build_polytope"),
    "partition.build": ("toricdegen.cli", "build_job_partition"),
    "partition.classify": ("toricdegen.partition", "Partition.classify"),
    "lifting.lifting_function": ("toricdegen.lifting", "lifting_function"),
    "lifting.lift_polytope": ("toricdegen.lifting", "lift_polytope"),
    "lifting.iterated_lift": ("toricdegen.lifting", "iterated_lift"),
    "degeneration.build_report": ("toricdegen.degeneration", "build_report"),
    "degeneration.family_equations": ("toricdegen.degeneration", "family_equations"),
    "report.render": ("toricdegen.report", "render_report"),
    "polytope.from_halfspaces": ("toricdegen.polytope", "LatticePolytope.from_halfspaces"),
    "polytope.from_generators": ("toricdegen.polytope", "LatticePolytope.from_generators"),
    "polytope.lattice_equivalences": ("toricdegen.polytope", "lattice_equivalences"),
    "exactmath.left_kernel": ("toricdegen.exactmath", "left_kernel"),
    "exactmath.solve_linear": ("toricdegen.exactmath", "solve_linear"),
    "exactmath.solve_particular": ("toricdegen.exactmath", "solve_particular"),
    "exactmath.rank_fraction": ("toricdegen.exactmath", "rank_fraction"),
    "exactmath.determinant": ("toricdegen.exactmath", "determinant"),
    "exactmath.determinant_fraction": ("toricdegen.exactmath", "determinant_fraction"),
}

# counts taken from a wrapped call's result: span name -> (count name, function)
RESULT_COUNTS = {
    "degeneration.family_equations": ("degeneration.monomials", lambda fam: len(fam.points)),
}

PACKAGE = "toricdegen"


def resolve(module_name, qualname):
    """Return (owner, attribute, raw value) for a target, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.start = array("q")
        self.end = array("q")
        self.name_id = array("h")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.job_id = -1
        self.absent = []
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn):
        nid = self.names.index(name)
        calls = self.calls
        hook = RESULT_COUNTS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one call per generator created, one span per resumption
            def wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)

                def resumed():
                    value = None
                    try:
                        while True:
                            idx = tracer._open(nid)
                            try:
                                item = gen.send(value)
                            except StopIteration as stop:
                                return stop.value
                            finally:
                                tracer._close(idx)
                            value = yield item
                    finally:
                        gen.close()

                return resumed()

        else:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                idx = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if hook is not None:
                    tracer.counts[hook[0]] += hook[1](result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target; names that no longer exist are recorded as absent."""
        self.absent = []
        for name, (module_name, qualname) in TARGETS.items():
            found = resolve(module_name, qualname)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, raw = found
            if inspect.isclass(owner):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._bind(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is raw:
                        self._bind(module, binding, raw, wrapped)

    def _bind(self, owner, attr, raw, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    # -- aggregation ----------------------------------------------------------

    def self_times_ns(self):
        """Self time per span name: duration minus the time direct children cover."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = Counter()
        for i in range(n):
            totals[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return totals

    def total_times_ns(self):
        """Inclusive time per span name, not counting a span nested in one of the same name."""
        totals = Counter()
        for i in range(len(self.start)):
            nid = self.name_id[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                totals[self.names[nid]] += self.end[i] - self.start[i]
        return totals

    def write(self, path, job_names):
        """Write every span, column by column, as gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0
        doc = {
            "names": self.names,
            "absent": self.absent,
            "jobs": job_names,
            "columns": ["name", "start_ns", "end_ns", "parent", "job"],
            "name": list(self.name_id),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": list(self.parent),
            "job": list(self.job),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
