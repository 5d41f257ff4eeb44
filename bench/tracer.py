"""Span tracing of graphkt's public functions from outside the package.

:class:`Tracer` replaces each traced function at every module attribute
that binds it (``ktheory``, ``sweep``, ``ihara_zeta`` and ``cli`` import
functions by name, and the package re-exports many) and each entry of
``sweep.CHECKS``.  Every call records a span ``(name, parent, seconds)``;
self time is a span's duration minus its children's.  Exact counts
(operation-log lengths, matrix sizes, bit lengths, graphs, applied checks)
are gathered after a call returns, and the time spent gathering them is
excluded from every open span.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _snf_counts(counts, args, result):
    M = args[0]
    counts["ops"] += len(result.operations)
    counts["max_n"] = max(counts["max_n"], len(M), len(M[0]) if M else 0)
    bits = max((abs(v).bit_length() for W in (result.x, result.y) for row in W for v in row),
               default=0)
    counts["out_bits"] = max(counts["out_bits"], bits)


def _ops_count(counts, args, result):
    counts["ops"] += len(result.operations)


def _graph_count(counts, args, result):
    counts["graphs"] += len(result)


def _applied_count(counts, args, result):
    counts["applied"] += bool(result)


# Traced functions by module.  A span is named `<module>.<function>`,
# except `cli.main`, whose span is the CLI layer itself: `cli`.
TRACED = {
    "cli": ["main"],
    "multigraph": ["parse_graph", "contract_edge"],
    "edge_operator": ["edge_matrix", "one_minus_edge_matrix", "is_irreducible"],
    "exact_linalg": ["smith_normal_form", "hermite_normal_form", "kernel_basis",
                     "solve_min_scalar", "determinant", "poly_matrix_det"],
    "ktheory": ["k0", "k1", "ktheory_report", "classify_strict", "contraction_reduce"],
    "ihara_zeta": ["edge_charpoly", "ihara_rhs", "vanishing_order_at_one", "zeta_report"],
    "sweep": ["enumerate_connected", "canonical_key", "run_sweep"],
}
EXTRA_COUNTS = {
    "exact_linalg.smith_normal_form": _snf_counts,
    "ktheory.contraction_reduce": _ops_count,
    "sweep.enumerate_connected": _graph_count,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, seconds)
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._paused = 0.0  # seconds spent gathering counts
        self._undo = []  # (module, attribute, original function)
        self._checks = self._saved_checks = None

    def _wrap(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            paused = tracer._paused
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, parent, end - start - (tracer._paused - paused))
            if extra is not None:
                extra(tracer.counts[name], args, result)
                tracer._paused += perf_counter() - end
            return result

        return traced

    def install(self):
        """Rebind every traced function at every place it is bound."""
        modules = {
            key: mod for key, mod in sys.modules.items()
            if key == "graphkt" or key.startswith("graphkt.")
        }
        for short, functions in TRACED.items():
            for func in functions:
                original = getattr(modules[f"graphkt.{short}"], func)
                span = "cli" if short == "cli" else f"{short}.{func}"
                wrapper = self._wrap(span, original, EXTRA_COUNTS.get(span))
                for mod in modules.values():
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        self._checks = modules["graphkt.sweep"].CHECKS
        self._saved_checks = list(self._checks)
        self._checks[:] = [
            (name, self._wrap(f"sweep.check.{name}", fn, _applied_count))
            for name, fn in self._saved_checks
        ]

    def uninstall(self):
        for mod, attr, original in self._undo:
            setattr(mod, attr, original)
        self._undo = []
        self._checks[:] = self._saved_checks

    def reset(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))

    def summary(self):
        """{span name: {quantity: value}} with calls, s (inclusive), self_s
        and the extra counts."""
        child_time = [0.0] * len(self.spans)
        for name, parent, seconds in self.spans:
            if parent >= 0:
                child_time[parent] += seconds
        out = defaultdict(lambda: defaultdict(float))
        for (name, _, seconds), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["s"] += seconds
            row["self_s"] += seconds - children
        for name, extra in self.counts.items():
            out[name].update(extra)
        return out
