"""Spans around gemcheck's layer boundaries, installed from outside the library.

Each wrapper replaces a public function at the place where gemcheck's own
code looks it up: a method on ``Evaluator``, a classmethod on
``FusionStructure``, or a module attribute (including names that a module
imported with ``from ... import``, which are looked up in the importing
module).  The library itself is not modified.

:func:`install` puts the wrappers in place and :meth:`Tracer.uninstall`
restores the originals, so untraced code runs without them.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory; :meth:`Tracer.summary`
reduces them to per-layer call counts, self times (duration minus the
time covered by child spans) and maximum durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._originals = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span ``name`` on every call.

        ``on_result(counts, args, kwargs, result)`` records counts at the
        same boundary.
        """
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (name, t0, t1, parent)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr, name, on_result=None, classmethod_=False):
        """Replace ``owner.attr`` by its traced form until :meth:`uninstall`."""
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        fn = original.__func__ if classmethod_ else original
        traced = self.wrap(name, fn, on_result)
        setattr(owner, attr, classmethod(traced) if classmethod_ else traced)

    def uninstall(self):
        """Put every patched attribute back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def summary(self) -> dict:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``max_s``."""
        child = [0.0] * len(self.spans)
        for (_, t0, t1, parent) in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "max_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
            row["max_s"] = max(row["max_s"], t1 - t0)
        return out


def dump(path, phases: dict) -> None:
    """Write spans as JSON lines: phase name -> spans, times relative to the phase's first span."""
    with open(path, "w") as fh:
        for phase, spans in phases.items():
            origin = spans[0][1] if spans else 0.0
            for (name, t0, t1, parent) in spans:
                fh.write(json.dumps({"phase": phase, "name": name, "start": t0 - origin,
                                     "end": t1 - origin, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the imported ``gemcheck`` package."""
    from gemcheck import cli, native, search, semantics, structures, theory

    def count_scan(counts, args, kwargs, result):
        kind, n = args[0], args[1]
        counts["search.candidates"] += 1 << search.relation_bits(kind, n)
        counts["search.models_found"] += len(result)

    ev = semantics.Evaluator
    tracer.patch(ev, "__init__", "semantics.context")
    tracer.patch(ev, "eval", "semantics.eval")
    tracer.patch(ev, "find_witness", "semantics.find_witness")
    tracer.patch(ev, "refutes", "semantics.refutes")
    tracer.patch(semantics, "compiled", "semantics.compile")
    tracer.patch(semantics, "compiled_term", "semantics.compile")
    tracer.patch(semantics, "free_vars", "syntax.free_vars")
    tracer.patch(search, "filter_models", "search.filter_models", on_result=count_scan)
    tracer.patch(search, "check_theory", "search.check_theory")
    tracer.patch(native, "part_tables", "native.tables")
    tracer.patch(native, "fusion_tables", "native.tables")
    tracer.patch(search, "induced_fusion", "structures.translate")
    tracer.patch(search, "induced_part", "structures.translate")
    tracer.patch(cli, "induced_fusion", "structures.translate")
    tracer.patch(search, "components", "structures.components")
    tracer.patch(structures, "load_structure", "structures.load_structure")
    tracer.patch(structures.FusionStructure, "from_rows", "structures.from_rows",
                 classmethod_=True)
    tracer.patch(theory, "parse", "syntax.parse")
    tracer.patch(cli, "main", "cli")
