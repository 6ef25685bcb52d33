"""In-memory span recorder for the traced run.

``Tracer.installed(ks)`` wraps each traced public function of kstacks
wherever kstacks' own modules look it up: the defining module's attribute and
every ``from ... import`` binding of the same function object in the package
and its submodules (for example ``ktheory.strong_groebner`` and
``picard.quotient_by_subgroup``).  Each call records a span (id, parent span,
operation id, name, start and end in nanoseconds).  Spans stay in memory
until ``write`` puts them on disk; self time comes from the span tree.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED = (
    "stacks.validate",
    "stacks.check_connected",
    "stacks.connectify",
    "grobner.strong_groebner",
    "grobner.normal_form",
    "grobner.zmodule_invariants",
    "abelian.smith_normal_form",
    "abelian.group_from_relations",
    "abelian.quotient_by_subgroup",
    "groupring.component_product",
    "picard.pic",
    "picard.pic_open",
    "exprs.parse_element",
    "ktheory.k0_presentation",
    "ktheory.invariants",
    "ktheory.equal_in_k0",
)

VERDICTS = ("connected", "not_connected", "unknown")


def _count_verdict(report, counts):
    counts[f"stacks.check_connected.{report.verdict}"] += 1


def _count_basis(basis, counts):
    counts["grobner.basis_elements"] += len(basis.elements)


def _count_exact(inv, counts):
    counts["grobner.invariants.exact"] += inv.status == "exact"


# counts read off return values, per traced function
OBSERVERS = {
    "stacks.check_connected": _count_verdict,
    "grobner.strong_groebner": _count_basis,
    "grobner.zmodule_invariants": _count_exact,
}


class NullRecorder:
    """Recorder of the untraced run: operations may report counts to it."""

    def count(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, operation id, name, start_ns, end_ns]
        self.counts = defaultdict(float)
        self.op_id = None
        self._stack = []

    def count(self, name, value):
        self.counts[name] += value

    def start(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.op_id, name, time.perf_counter_ns(), None])
        self._stack.append(sid)
        return sid

    def finish(self, sid):
        self.spans[sid][5] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if observe is not None:
                observe(result, self.counts)
            return result

        return wrapper

    @contextmanager
    def installed(self, ks):
        """Wrap the traced functions in every loaded module of the package
        ``ks``; the original bindings come back on exit."""
        prefix = ks.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == ks.__name__ or n.startswith(prefix))]
        patched = []
        try:
            for name in TRACED:
                module, attr = name.split(".")
                original = getattr(sys.modules[prefix + module], attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, binding, wrapper)
                            patched.append((m, binding, original))
            yield self
        finally:
            for m, binding, original in reversed(patched):
                setattr(m, binding, original)

    def layer_totals(self):
        """name -> [inclusive ns, self ns, calls]; a span's self time is its
        duration minus that of its direct children (one thread, so children
        never overlap)."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals = defaultdict(lambda: [0, 0, 0])
        for sid, _, _, name, start, end in self.spans:
            t = totals[name]
            t[0] += end - start
            t[1] += end - start - child_ns[sid]
            t[2] += 1
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
