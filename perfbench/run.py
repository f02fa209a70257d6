"""peakpoly benchmark: seeded closed-loop batches of CLI queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count-mix --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it runs the batch once plain and once under trace_boot.py and prints the
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The line before it records
the machine, the code state and the sample counts. Exit code 2 means the
benchmark could not run (for example, no ``src/peakpoly`` in the
working directory) and prints no result.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

import harness
from workloads import MIN_PASSES, WORKLOADS, build_batch


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of the checkout; git is not asked to look above ``root``."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def machine_record(root: str, args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "commit": _git_commit(root),
    }


def _emit(record: dict, failed: int, attempted: int, metrics: dict) -> None:
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _report_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.failure]
    for o in failed[:10]:
        print(f"FAILED {' '.join(o.query.argv())}: {o.failure}", file=sys.stderr)
    return len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; whole passes run while the next fits "
                             f"(at least {MIN_PASSES})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "peakpoly", "cli.py")):
        print("error: run from the root of a peakpoly checkout (src/peakpoly missing)",
              file=sys.stderr)
        return 2
    # Child output and span files live in the checkout, one directory per run.
    scratch = tempfile.mkdtemp(prefix=".out-", dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        return _run(args, root, scratch)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args: argparse.Namespace, root: str, scratch: str) -> int:
    runner = harness.Runner(root, scratch)
    batch = build_batch(args.workload, args.seed)
    harness.warm_up(runner)
    record = machine_record(root, args)
    record["queries_per_pass"] = len(batch)

    if args.trace:
        plain_wall, plain, _ = harness.run_pass(runner, batch)
        traced_wall, traced, span_files = harness.run_pass(runner, batch, trace_dir=scratch)
        failed = _report_failures(plain + traced)
        record["passes"] = 2
        _emit(record, failed, len(plain) + len(traced),
              harness.per_layer(span_files, traced_wall, plain_wall))
        return 0

    # Whole passes run while the median pass so far fits in the budget,
    # and at least MIN_PASSES of them.
    setup: list[float] = []
    passes = []
    start = time.perf_counter()
    while True:
        wall, outcomes, _ = harness.run_pass(runner, batch, setup=setup)
        passes.append((wall, outcomes))
        typical = sorted(w for w, _ in passes)[len(passes) // 2]
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + typical > args.seconds):
            break
    outcomes = [o for _, po in passes for o in po]
    failed = _report_failures(outcomes)
    record["passes"] = len(passes)
    record["query_samples"] = len(outcomes)
    record["setup_samples"] = len(setup)
    _emit(record, failed, len(outcomes), harness.end_to_end(setup, passes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
