"""Run one peakpoly CLI query with timing wrappers on every public function.

Usage: python3 trace_boot.py SPAN_FILE QUERY_ID ARGS...

Imports peakpoly, wraps each public module-level function of the layers
cli, core, enumeration, flips, polynomials and verify, and rebinds the
wrapper in every peakpoly namespace that holds the original (``from``
imports and the package re-exports), so that every call into a layer
is seen. Then it calls ``peakpoly.cli.run(ARGS)``. Spans (query id,
span id, parent id, name, start, end, time inside) and work counters
stay in memory and are written to SPAN_FILE as JSON when the query ends.

A call that returns an iterator is timed across its consumption: its
span accumulates the time spent inside each ``next``, not the time the
consumer spends between items.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import resource
import sys
import time
from collections.abc import Iterator

LAYERS = ("cli", "core", "enumeration", "flips", "polynomials", "verify")
END, INSIDE = 5, 6  # span record indices of the last activity and the time inside

# Items drawn from these iterators are counted under the given counter.
ITEM_COUNTERS = {
    "enumeration.enumerate_descent_class": "enumeration.leaves_walked",
    "enumeration.enumerate_peak_class": "enumeration.leaves_walked",
    "polynomials.prefix_interval_class": "polynomials.rows_listed",
}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self, qid: int):
        self.qid = qid
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        item_counter = ITEM_COUNTERS.get(name)
        measure_children = name == "enumeration.parallel_count"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][1] if self.stack else None
            start = time.perf_counter()
            span = [self.qid, len(self.spans), parent, name, start, start, 0.0]
            self.spans.append(span)
            self.stack.append(span)
            child_cpu = _children_cpu() if measure_children else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[END] = time.perf_counter()
                span[INSIDE] += span[END] - start
            if measure_children:
                self.count("enumeration.pool_cpu_s", _children_cpu() - child_cpu)
            if hook:
                hook(self, args, result)
            if isinstance(result, Iterator):
                counters = [item_counter] if item_counter else []
                if name == "polynomials.prefix_interval_class" and any(
                        s[3] == "polynomials.peak_coeffs" for s in self.stack):
                    counters.append("polynomials.peak_rows_listed")
                return _TracedIterator(self, span, result, counters)
            return result

        return traced


class _TracedIterator:
    def __init__(self, tracer: Tracer, span: list, inner: Iterator, counters: list[str]):
        self.tracer, self.span, self.inner, self.counters = tracer, span, inner, counters

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tracer.stack
        stack.append(self.span)
        start = time.perf_counter()
        try:
            item = next(self.inner)
        finally:
            stack.pop()
            self.span[END] = time.perf_counter()
            self.span[INSIDE] += self.span[END] - start
        for key in self.counters:
            self.tracer.count(key)
        return item


# ---------------------------------------------------------------------------
# Work counters read from the arguments and results of public calls
# ---------------------------------------------------------------------------

def _ie_terms(t: Tracer, args, result) -> None:
    t.count("enumeration.ie_terms", 2 ** len(set(args[0])))


def _parallel_count(t: Tracer, args, result) -> None:
    t.count("enumeration.leaves_walked", result)


def _moebius_terms(t: Tracer, args, result) -> None:
    t.count("polynomials.moebius_terms", 2 ** len(set(args[0])))


def _peak_rows_kept(t: Tracer, args, result) -> None:
    t.count("polynomials.peak_rows_kept", sum(result.coeffs))


def _flip_table(t: Tracer, args, result) -> None:
    t.count("verify.perms_scanned", math.factorial(2 * args[1]))
    t.count("verify.table_rows", sum(len(block) for block in result.blocks))


def _report(t: Tracer, args, result) -> None:
    t.count("verify.cases_checked", result.checked)
    t.count("verify.reports_failed", 0 if result.passed else 1)


def _admission(t: Tracer, args, result) -> None:
    t.count("flips.admit_checks")
    t.count("flips.admitted", 1 if result.admits else 0)


HOOKS = {
    "enumeration.count_descent_class": _ie_terms,
    "enumeration.parallel_count": _parallel_count,
    "polynomials.peak_poly_via_moebius": _moebius_terms,
    "polynomials.peak_coeffs": _peak_rows_kept,
    "verify.flip_admission_table": _flip_table,
    "verify.check_marked_lemma": _report,
    "verify.check_spike_sum": _report,
    "verify.check_flip_bijection": _report,
    "verify.check_flip_table_partition": _report,
    "flips.admits_flip": _admission,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer in every peakpoly namespace."""
    import peakpoly.cli  # noqa: F401  (imports every layer)

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"peakpoly.{layer}"]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name != "peakpoly" and not name.startswith("peakpoly."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])


def main(argv: list[str]) -> int:
    span_file, qid, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(qid)
    install(tracer)
    import peakpoly.cli

    try:
        return peakpoly.cli.run(cli_args)
    finally:
        with open(span_file, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh,
                      separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
