"""Runs peakpoly CLI queries as child processes and turns them into metrics.

One client sends the queries of a batch back to back (a closed loop):
a CLI user waits for each answer before asking the next question. Each
query is a fresh interpreter, so module caches start cold every time.
CPU time and peak RSS come from ``os.wait4`` on that one child, which
also covers the pool workers it reaped; ``RUSAGE_CHILDREN`` would be a
running maximum over the whole harness and leak across queries.
"""
from __future__ import annotations

import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Sequence

import trace_boot
from trace_boot import LAYERS
from workloads import Query, check_answer

QUERY_TIMEOUT_S = 60.0  # the slowest query of any batch takes about 2 s
SETUP_SAMPLES = 16  # per pass, spread evenly between its queries
BOOTSTRAP = os.path.abspath(trace_boot.__file__)
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclasses.dataclass(frozen=True)
class ProcResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes


@dataclasses.dataclass(frozen=True)
class Outcome:
    query: Query
    proc: ProcResult
    failure: str | None


class Runner:
    """Starts children from one checkout with a clean, fixed environment."""

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PEAKPOLY_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # numpy's BLAS thread pool does no work for peakpoly (its only matrix
        # products are on int64, which BLAS does not handle), but starting
        # it takes CPU on every core at import. Its wall cost then depends
        # on whether another core is free, which made start-up bimodal
        # (0.087 s on an idle 2-core VM, 0.12 s with one core busy).
        self.env.update(BLAS_THREADS)

    def run(self, argv: Sequence[str]) -> ProcResult:
        with tempfile.TemporaryFile(dir=self.scratch) as out:
            start = time.perf_counter()
            proc = subprocess.Popen(list(argv), cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.DEVNULL, start_new_session=True)
            timer = threading.Timer(QUERY_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        return ProcResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                          proc.returncode, stdout)

    def python(self, *args: str) -> ProcResult:
        return self.run([sys.executable, *args])


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def warm_up(runner: Runner) -> None:
    """One untimed import, so that writing the .pyc files is never timed."""
    if runner.python("-c", "import peakpoly.cli").exit_code != 0:
        raise RuntimeError("cannot import peakpoly.cli from the checkout's src/")


def run_pass(runner: Runner, batch: Sequence[Query], trace_dir: str | None = None,
             setup: list[float] | None = None) -> tuple[float, list[Outcome], list[str]]:
    """One closed-loop pass: (wall time, outcomes, span files when traced).

    When ``setup`` is given, SETUP_SAMPLES fresh-interpreter import times
    of peakpoly.cli are appended to it, taken between queries spread over
    the pass, so that they see the same machine as the queries. Their
    time is left out of the pass wall. Answers are checked after the
    pass, so checking adds nothing to the timed wall either.
    """
    sample_at = ({i * len(batch) // SETUP_SAMPLES for i in range(SETUP_SAMPLES)}
                 if setup is not None else set())
    procs, span_files = [], []
    paused = 0.0
    start = time.perf_counter()
    for qid, q in enumerate(batch):
        if qid in sample_at:
            import_started = time.perf_counter()
            setup.append(runner.python("-c", "import peakpoly.cli").wall_s)
            paused += time.perf_counter() - import_started
        if trace_dir is None:
            procs.append(runner.python("-m", "peakpoly", *q.argv()))
        else:
            span_file = os.path.join(trace_dir, f"q{qid}.json")
            span_files.append(span_file)
            procs.append(runner.python(BOOTSTRAP, span_file, str(qid), *q.argv()))
    wall = time.perf_counter() - start - paused
    outcomes = [Outcome(q, p, _check(q, p)) for q, p in zip(batch, procs)]
    return wall, outcomes, span_files


def _check(q: Query, p: ProcResult) -> str | None:
    if p.exit_code == -signal.SIGKILL:
        return f"timed out or killed after {p.wall_s:.1f} s"
    return check_answer(q, p.exit_code, p.stdout)


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(setup: list[float], passes: list[tuple[float, list[Outcome]]]) -> dict:
    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    walls = [o.proc.wall_s for o in outcomes]
    failed = sum(1 for o in outcomes if o.failure)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "queries_per_s": (len(outcomes) / sum(w for w, _ in passes), "1/s"),
        "query_p50_s": (statistics.median(walls), "s"),
        "query_p90_s": (statistics.quantiles(walls, n=10)[-1], "s"),
        "cpu_s": (statistics.median(sum(o.proc.cpu_s for o in po) for _, po in passes), "s"),
        "peak_rss_mb": (max(o.proc.rss_mb for o in outcomes), "MB"),
        "ok_frac": ((len(outcomes) - failed) / len(outcomes), "ratio"),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def per_layer(span_files: list[str], traced_wall: float, plain_wall: float) -> dict:
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counters: dict[str, float] = {}
    for path in span_files:
        if not os.path.exists(path):  # the query failed before it could write
            continue
        with open(path) as fh:
            record = json.load(fh)
        spans = record["spans"]
        inside = {span[1]: span[6] for span in spans}
        child_time = dict.fromkeys(inside, 0.0)
        for _, sid, parent, *_rest in spans:
            if parent is not None:
                child_time[parent] += inside[sid]
        for _, sid, _, name, *_rest in spans:
            layer = name.split(".")[0]
            self_s[layer] += inside[sid] - child_time[sid]
            calls[layer] += 1
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
    c = counters.get
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics.update({
        "enumeration.leaves_walked": (c("enumeration.leaves_walked", 0), "count"),
        "enumeration.pool_cpu_s": (c("enumeration.pool_cpu_s", 0.0), "s"),
        "enumeration.ie_terms": (c("enumeration.ie_terms", 0), "count"),
        "polynomials.moebius_terms": (c("polynomials.moebius_terms", 0), "count"),
        "polynomials.rows_listed": (c("polynomials.rows_listed", 0), "count"),
        "polynomials.flip_free_ratio": (
            _ratio(c("polynomials.peak_rows_kept", 0), c("polynomials.peak_rows_listed", 0)),
            "ratio"),
        "verify.perms_scanned": (c("verify.perms_scanned", 0), "count"),
        "verify.table_scan_ratio": (
            _ratio(c("verify.table_rows", 0), c("verify.perms_scanned", 0)), "ratio"),
        "verify.cases_checked": (c("verify.cases_checked", 0), "count"),
        "verify.reports_failed": (c("verify.reports_failed", 0), "count"),
        "flips.admit_checks": (c("flips.admit_checks", 0), "count"),
        "flips.admit_ratio": (_ratio(c("flips.admitted", 0), c("flips.admit_checks", 0)),
                              "ratio"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1, "ratio"),
    })
    return metrics
