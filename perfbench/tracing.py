"""Span recording around diagalg's functions, installed from outside the package.

The tracer replaces a function or method with a wrapper that records one
span per call: name, start, end and the span that was open when it began
(its parent).  A function is replaced in every diagalg module that binds
it, including the copies made by ``from .x import f``, so a call from one
module into another is attributed to the callee's layer.  Spans stay in
memory as flat arrays until :meth:`Tracer.write` saves them.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (metric prefix, module, attribute path).  A dotted attribute path names a
# method of a class; "__init__" counts constructions.
SPAN_TARGETS = [
    ("halfdiag.act_top", "diagalg.halfdiag", "act_top"),
    ("halfdiag.act", "diagalg.halfdiag", "act"),
    ("halfdiag.HalfDiagram", "diagalg.halfdiag", "HalfDiagram.__init__"),
    ("halfdiag.enumerate_basis", "diagalg.halfdiag", "enumerate_basis"),
    ("walled.transition", "diagalg.walled", "transition"),
    ("walled.index_of", "diagalg.walled", "index_of"),
    ("walled.census", "diagalg.walled", "census"),
    ("walled.enumerate_walled", "diagalg.walled", "enumerate_walled"),
    ("diagrams.compose", "diagalg.diagrams", "compose"),
    ("diagrams.SetPartitionDiagram", "diagalg.diagrams", "SetPartitionDiagram.__init__"),
    ("diagrams.DiagramSum.compose", "diagalg.diagrams", "DiagramSum.compose"),
    ("diagrams.DeltaPolynomial", "diagalg.diagrams", "DeltaPolynomial.__init__"),
    ("diagrams.generator", "diagalg.diagrams", "generator"),
    ("symfunc.lr_coeff", "diagalg.symfunc", "lr_coeff"),
    ("symfunc.kronecker_coeff", "diagalg.symfunc", "kronecker_coeff"),
    ("symfunc.mn_character", "diagalg.symfunc", "mn_character"),
    ("multiplicity.bvo_multiplicity", "diagalg.multiplicity", "bvo_multiplicity"),
    ("multiplicity.e_lattice", "diagalg.multiplicity", "e_lattice"),
    ("multiplicity.restriction_dimension_total", "diagalg.multiplicity", "restriction_dimension_total"),
    ("geometry.geometry_summary", "diagalg.geometry", "geometry_summary"),
    ("tl.tl_basis", "diagalg.tl", "tl_basis"),
    ("tl.groth_multiply", "diagalg.tl", "groth_multiply"),
]

# functools.cache tables whose hit and miss counts are reported.
CACHE_TARGETS = [
    ("halfdiag.set_partitions", "diagalg.halfdiag", "set_partitions"),
    ("symfunc.lr_coeff", "diagalg.symfunc", "lr_coeff"),
    ("symfunc.kronecker_coeff", "diagalg.symfunc", "kronecker_coeff"),
    ("symfunc._char_on_beta", "diagalg.symfunc", "_char_on_beta"),
    ("symfunc.partitions_of", "diagalg.symfunc", "partitions_of"),
    ("multiplicity._three_part_table", "diagalg.multiplicity", "_three_part_table"),
    ("tl.tl_basis", "diagalg.tl", "tl_basis"),
]

TRANSITION_CASES = ("unchanged", "i", "ii", "iii", "iv", "v")


def _observe_items(counters, prefix):
    key = prefix + ".items"
    counters[key] = 0

    def observe(result):
        counters[key] += len(result)

    return observe


def _observe_act(counters, prefix):
    key = prefix + ".nonzero"
    counters[key] = 0

    def observe(result):
        if not result.is_zero:
            counters[key] += 1

    return observe


def _observe_transition(counters, prefix):
    keys = {case: f"{prefix}.case_{case}" for case in TRANSITION_CASES}
    counters.update(dict.fromkeys(keys.values(), 0))

    def observe(result):
        counters[keys[result.case.value.lower()]] += 1

    return observe


OBSERVERS = {
    "halfdiag.enumerate_basis": _observe_items,
    "walled.enumerate_walled": _observe_items,
    "halfdiag.act": _observe_act,
    "walled.transition": _observe_transition,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None when the name is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def cache_tables() -> dict:
    """Every functools.cache table bound in a loaded diagalg module, by qualified name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "diagalg" and not name.startswith("diagalg."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


class Tracer:
    """Span recorder; :meth:`install` wraps the targets, :meth:`uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_ix.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def op_runner(self):
        """A callable ``run(fn, arg)`` recording each call as a root span named "bench.op"."""
        return self._wrap("bench.op", lambda fn, arg: fn(arg))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "diagalg" or n.startswith("diagalg.")]
        for prefix, module_name, path in SPAN_TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(prefix)
                continue
            owner, attr, original = found
            make_observer = OBSERVERS.get(prefix)
            observe = None if make_observer is None else make_observer(self.counters, prefix)
            wrapper = self._wrap(prefix, original, observe)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound_name, original))
                        setattr(module, bound_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        n = len(self.start)
        start, end, parent, name_ix = self.start, self.end, self.parent, self.name_ix
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_ix[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        out: dict[str, tuple[int, float]] = {}
        for k, name in enumerate(self.names):
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls[k], s + self_s[k])
        return out

    def write(self, path: Path) -> None:
        """Save the spans: a JSON header, then the four arrays in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_ix:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(handle)
