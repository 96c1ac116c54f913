"""Outside-in span tracing of rooslab's public functions.

A :class:`Tracer` replaces selected module functions and methods with
wrappers that record one span per call: (name, start, end, parent, op id).
The program's source is not touched: names that other modules imported with
``from .x import f`` are rebound too, so a call through ``cli`` or
``complexes`` lands in the wrapper exactly like a call through the defining
module.  Spans live in memory until :meth:`Tracer.write` dumps them.

A layer's self time is the duration of its spans minus the part of each
span that its direct child spans cover (:func:`self_times`).  Counters
(matrix shapes, tuples enumerated, assignments explored, ...) are computed
from each call's arguments and result after the span has closed; that
bookkeeping is recorded as a ``harness`` span under the caller, so it is
charged to neither the traced function nor its caller.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _bits(m) -> int:
    return max((max(max(row), -min(row)) for row in m.rows if row), default=0).bit_length()


def _snf_counts(args, kwargs, result):
    m = args[0]
    return {
        "linalg.snf_cells": m.nrows * m.ncols,
        "max:linalg.snf_max_rows": m.nrows,
        "max:linalg.snf_max_cols": m.ncols,
        "max:linalg.snf_max_bits": _bits(m),
    }


def _doc_bytes(args, kwargs, result):
    return {"io.doc_bytes": os.path.getsize(args[0])}


def _complex_counts(args, kwargs, result):
    return {"complexes.dim_sum": sum(result.total_ranks)}


# (module, attribute, layer, counter).  Every call adds 1 to
# "<module>.<attribute>.calls"; a counter adds whatever it returns, and keys
# prefixed "max:" keep the maximum instead of the sum.
TARGETS = (
    ("cli", "main", "cli", None),
    ("io", "read_document", "io", _doc_bytes),
    ("io", "parse_system", "io", None),
    ("io", "parse_ses", "io", None),
    ("io", "parse_category", "io", None),
    ("io", "parse_family", "io", None),
    ("io", "parse_tree", "io", None),
    ("systems", "validate_system", "systems", None),
    ("systems", "validate_ses", "systems", None),
    ("orders", "chains", "orders", lambda a, k, r: {"orders.tuples": len(r)}),
    ("complexes", "build_complex", "complexes", _complex_counts),
    ("complexes", "RoosComplex.__init__", "complexes", None),
    ("linalg", "smith_normal_form", "linalg", _snf_counts),
    ("linalg", "cohomology_at", "linalg", None),
    ("linalg", "IntMatrix.mul", "linalg", None),
    ("les", "les_of_ses", "les", lambda a, k, r: {"les.positions": len(r.positions)}),
    ("category", "nerve_complex", "category", None),
    ("category", "corepresented_system", "category", None),
    ("category", "morphism_chains", "category", lambda a, k, r: {"category.chains": len(r)}),
    ("coherence", "trivialize_report", "coherence", lambda a, k, r: {"coherence.explored": r.explored}),
    ("coherence", "coherence_check", "coherence", None),
    ("trees", "branch_separation", "trees", None),
)

HARNESS = "harness"


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover, clipped to the span.

    ``spans`` is a sequence of (name, start, end, parent, op) with parent an
    index into the same sequence or -1.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


class Tracer:
    """Installs wrappers on :data:`TARGETS`; :meth:`close` removes them.

    Calls are recorded only while ``active`` is true, so work the harness
    does between operations (answer checks) leaves no spans.
    """

    def __init__(self, targets=TARGETS):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self.active = False
        self._stack = []
        self._undo = []
        self._install(targets)

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            counts[calls] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key.startswith("max:"):
                        key = key[4:]
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
                spans.append((HARNESS, end, clock(), parent, self.op))
            return result

        traced.__wrapped__ = fn
        return traced

    def _install(self, targets):
        modules = {}
        for mod, _, _, _ in targets:
            modules[mod] = importlib.import_module("rooslab." + mod)
        loaded = [m for n, m in sys.modules.items() if n.startswith("rooslab.")]
        for mod, attr, layer, counter in targets:
            owner = modules[mod]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(original, f"{layer}:{mod}.{attr}", counter)
            setattr(owner, leaf, wrapper)
            self._undo.append((owner, leaf, original))
            if path:
                continue
            for module in loaded:
                if module is not owner and module.__dict__.get(leaf) is original:
                    setattr(module, leaf, wrapper)
                    self._undo.append((module, leaf, original))

    def clear(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()

    def close(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """One JSON array per line: name, start and end in microseconds
        from the first span, parent index, op id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        [name, round((start - origin) * 1e6), round((end - origin) * 1e6), parent, op]
                    )
                )
                handle.write("\n")


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics from one traced pass (see ``PER_LAYER`` in run.py)."""
    selfs = self_times(spans)
    by_name = defaultdict(float)
    inclusive = defaultdict(float)
    under_validation = 0.0
    validating = "systems:systems.validate_system"
    snf = "linalg:linalg.smith_normal_form"
    # A span is "under validation" when some ancestor is validate_system.
    flagged = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name[name] += selfs[i]
        inclusive[name] += end - start
        if parent >= 0:
            flagged[i] = flagged[parent] or spans[parent][0] == validating
        if name == snf and flagged[i]:
            under_validation += end - start
    layer_self = defaultdict(float)
    for name, value in by_name.items():
        layer_self[name.split(":", 1)[0]] += value

    def calls(key):
        return counts.get(key + ".calls", 0)

    trivialize_s = by_name["coherence:coherence.trivialize_report"]
    explored = counts.get("coherence.explored", 0)
    return {
        "cli.self_s": layer_self["cli"],
        "io.parse_s": layer_self["io"],
        "io.doc_bytes": counts.get("io.doc_bytes", 0),
        "systems.validate_s": inclusive[validating],
        "systems.validate_calls": calls("systems:systems.validate_system"),
        "linalg.snf_validate_s": under_validation,
        "orders.chains_s": by_name["orders:orders.chains"],
        "orders.tuples": counts.get("orders.tuples", 0),
        "complexes.assemble_s": by_name["complexes:complexes.build_complex"],
        "complexes.identity_check_s": inclusive["complexes:complexes.RoosComplex.__init__"],
        "complexes.builds": calls("complexes:complexes.build_complex"),
        "complexes.dim_sum": counts.get("complexes.dim_sum", 0),
        "linalg.snf_s": by_name[snf],
        "linalg.snf_calls": calls(snf),
        "linalg.snf_cells": counts.get("linalg.snf_cells", 0),
        "linalg.snf_max_rows": counts.get("linalg.snf_max_rows", 0),
        "linalg.snf_max_cols": counts.get("linalg.snf_max_cols", 0),
        "linalg.snf_max_bits": counts.get("linalg.snf_max_bits", 0),
        "linalg.cohomology_s": by_name["linalg:linalg.cohomology_at"],
        "linalg.mul_s": by_name["linalg:linalg.IntMatrix.mul"],
        "linalg.mul_calls": calls("linalg:linalg.IntMatrix.mul"),
        "les.self_s": layer_self["les"],
        "les.positions": counts.get("les.positions", 0),
        "category.nerve_s": by_name["category:category.nerve_complex"],
        "category.chains": counts.get("category.chains", 0),
        "coherence.trivialize_s": trivialize_s,
        "coherence.explored": explored,
        "coherence.assignments_per_s": explored / trivialize_s if trivialize_s else 0.0,
        "coherence.check_s": by_name["coherence:coherence.coherence_check"],
        "trees.separate_s": by_name["trees:trees.branch_separation"],
        "trees.pairs": calls("trees:trees.branch_separation"),
    }
