"""Spans around besselsix's module boundaries, for the traced run only.

The tracer wraps, from outside the package, the module-level functions
through which one module calls the next, by replacing the attribute the
caller looks up at call time.  Each call records a span
``[name, start, end, parent, scope, size]``: ``parent`` indexes the
enclosing span (-1 at the top), ``scope`` is the op index or ``"setup"``,
and ``size`` is the element count of the node-array argument where there is
one.  Spans stay in memory until ``dump``; per-layer metrics are computed
from them afterwards.  An attribute the package no longer has is skipped,
so its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import weakref

import numpy as np

# (module, attribute, span name, index of the node-array argument)
_BOUNDARIES = (
    ("quadrature", "_bessel_j_array", "bessel.eval", 1),
    ("bessel", "_asym_sums", "bessel.hankel", 1),
    ("bessel", "_phase_array", "bessel.phase", 1),
    ("bessel", "_acoeff_fracs", "exactnum.a_coeff", None),
    ("quadrature", "_order_row", "quadrature.row", None),
    ("quadrature", "_grid_composite", "quadrature.combine", None),
    ("quadrature", "tail_main", "quadrature.tail", None),
    ("quadrature", "error_budget", "quadrature.budget", None),
    ("cli", "error_budget", "quadrature.budget", None),
    ("certify", "main_term", "core_integrals.main_term", None),
    ("quadrature", "main_term", "core_integrals.main_term", None),
    ("core_integrals", "core_bound_breakdown", "core_integrals.bounds", None),
    ("certify", "predict", "certify.predict", None),
    ("certify", "check_theorem", "certify.check", None),
    # first-use revalidation of stored tables and printed ceilings
    ("core_integrals", "coefficient_tables", "core_integrals.first_use", None),
    ("core_integrals", "_e1_dominates", "core_integrals.first_use", None),
    ("core_integrals", "_chain_dominated", "core_integrals.first_use", None),
    ("core_integrals", "_e2_prefactor_ok", "core_integrals.first_use", None),
    ("core_integrals", "_b_dominates", "core_integrals.first_use", None),
    ("core_integrals", "_abs_poly", "core_integrals.first_use", None),
    ("core_integrals", "product_expansion", "expansions.first_use", None),
    ("expansions", "base_expansion", "expansions.first_use", None),
    ("expansions", "product_expansion", "expansions.first_use", None),
)

#: Metrics that describe first-use work: taken from the op's process on
#: process-per-op workloads and from set-up on in-process ones.
FIRST_USE = ("exactnum.a_coeff_s", "core_integrals.first_use_s", "expansions.first_use_s")


class _Proxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Wraps the package's module boundaries and records their spans."""

    def __init__(self):
        modules = {name: importlib.import_module(f"besselsix.{name}") for name in
                   ("bessel", "certify", "cli", "core_integrals", "expansions", "quadrature")}
        self.spans: list[list] = []
        self.scope = "setup"
        self._stack: list[int] = []
        self._rows: list[tuple[weakref.ref, int]] = []
        self.row_bytes_peak: dict = {}
        self._patches = []
        for module, attr, name, size_arg in _BOUNDARIES:
            owner = modules[module]
            if hasattr(owner, attr):
                fn = getattr(owner, attr)
                after = self._note_row if name == "quadrature.row" else None
                self._patches.append((owner, attr, fn, self._wrap(fn, name, size_arg, after)))
        bessel = modules["bessel"]
        if hasattr(bessel, "_sp"):
            real = bessel._sp
            jv = self._wrap(real.jv, "bessel.scipy", 1, None)
            self._patches.append((bessel, "_sp", real, _Proxy(real, jv=jv)))

    def _wrap(self, fn, name, size_arg, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            size = int(np.size(args[size_arg])) if size_arg is not None else 0
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scope, size]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _note_row(self, row) -> None:
        """Track the bytes of row arrays still alive after each row lookup."""
        self._rows = [(ref, nbytes) for ref, nbytes in self._rows if ref() is not None]
        if all(ref() is not row for ref, _ in self._rows):
            self._rows.append((weakref.ref(row), row.nbytes))
        alive = sum(nbytes for _, nbytes in self._rows)
        self.row_bytes_peak[self.scope] = max(alive, self.row_bytes_peak.get(self.scope, 0))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, scope, fn):
        """Call ``fn`` as op ``scope`` under a root span; returns its result."""
        self.scope = scope
        return self._wrap(fn, "op", None, None)()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "row_bytes_peak": list(self.row_bytes_peak.items())}, fh,
                      separators=(",", ":"))


def layer_metrics(spans, scope, row_bytes_peak: float) -> dict[str, float]:
    """Per-layer counts and times of the spans in one scope."""
    mine = [i for i, s in enumerate(spans) if s[4] == scope]
    child_time: dict[int, float] = {}
    evaluated = set()
    for i in mine:
        name, start, end, parent = spans[i][:4]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            if name == "bessel.eval":
                evaluated.add(parent)

    def select(name):
        return [i for i in mine if spans[i][0] == name]

    def total(name, self_time=False):
        return sum(
            spans[i][2] - spans[i][1] - (child_time.get(i, 0.0) if self_time else 0.0)
            for i in select(name)
        )

    nodes = sum(spans[i][5] for i in select("bessel.eval"))
    eval_s = total("bessel.eval")
    rows = select("quadrature.row")
    row_evals = [i for i in rows if i in evaluated]
    return {
        "bessel.nodes": nodes,
        "bessel.nodes_small_r": sum(spans[i][5] for i in select("bessel.scipy")),
        "bessel.nodes_large_r": sum(spans[i][5] for i in select("bessel.hankel")),
        "bessel.eval_s": eval_s,
        "bessel.scipy_s": total("bessel.scipy"),
        "bessel.hankel_s": total("bessel.hankel"),
        "bessel.phase_s": total("bessel.phase"),
        "bessel.ns_per_node": eval_s / nodes * 1e9 if nodes else 0.0,
        "exactnum.a_coeff_s": total("exactnum.a_coeff"),
        "quadrature.row_requests": len(rows),
        "quadrature.row_evals": len(row_evals),
        "quadrature.row_reuse": (len(rows) - len(row_evals)) / len(rows) if rows else 0.0,
        "quadrature.row_eval_s": sum(spans[i][2] - spans[i][1] for i in row_evals),
        "quadrature.combine_s": total("quadrature.combine", self_time=True),
        "quadrature.tail_s": total("quadrature.tail"),
        "quadrature.budget_s": total("quadrature.budget", self_time=True),
        "quadrature.cache_mb": row_bytes_peak / 1e6,
        "core_integrals.main_term_calls": len(select("core_integrals.main_term")),
        "core_integrals.main_term_s": total("core_integrals.main_term"),
        "core_integrals.bounds_s": total("core_integrals.bounds"),
        "core_integrals.first_use_s": total("core_integrals.first_use", self_time=True),
        "certify.predict_calls": len(select("certify.predict")),
        "certify.predict_s": total("certify.predict"),
        "certify.check_s": total("certify.check"),
        "expansions.first_use_s": total("expansions.first_use", self_time=True),
    }


def combine(per_op: list[dict], first_use: dict | None = None) -> dict[str, float]:
    """Median of each per-op metric over the traced ops; first-use metrics
    from their own scope where it is not the op."""
    out = {key: statistics.median_low(m[key] for m in per_op) for key in per_op[0]}
    if first_use is not None:
        out.update({key: first_use[key] for key in FIRST_USE})
    return out
