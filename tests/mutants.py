"""Committed source mutants: the tier-1 tests must catch every one.

Every fast route keeps a slow route that checks it. Each mutant below is
one exact edit of the package source, (file, old text, new text), that
such a check must notice. For each mutant the script copies the package,
its tests and the files they read into a temporary directory, applies
the edit and runs the tier-1 suite there with ``-x``. It fails if the
unmutated copy fails, if any mutant survives, or if any old text no
longer occurs exactly once in its file, so a later change cannot drop a
check unseen. A mutant that survives is a missing check: add the check,
never remove the mutant.

Usage, from the root of a checkout (stdlib only):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

The work runs under the ``__main__`` guard, since ``--doctest-modules``
imports every module under ``tests/``.
"""
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")

# name: (file under src/peakpoly, old text, new text)
MUTANTS = {
    "flip rule swapped": (
        "flips.py", "(plus[i - 1] > p[i]) == (p[i - 1] > p[i])",
        "(plus[i - 1] > p[i]) != (p[i - 1] > p[i])"),
    "peak sizes drop the falls": (
        "enumeration.py", "yield sum(rose) + sum(fell)",
        "yield sum(rose) + (0 if peaks else sum(fell))"),
    "peak scaling exponent off by one": (
        "enumeration.py", "1 << (n - len(i) - 1))", "1 << (n - len(i)))"),
    "Moebius sign swapped": (
        "polynomials.py", "sign = -1 if (len(i_set) - r) % 2 else 1",
        "sign = 1 if (len(i_set) - r) % 2 else -1"),
    "canonical walk skips position 1": (
        "core.py", "for pos in range(top - 1, 0, -1):", "for pos in range(top - 1, 1, -1):"),
    "recentering skips c_0": (
        "polynomials.py", "for k in range(len(coeffs) - 1):",
        "for k in range(1, len(coeffs) - 1):"),
    "spike-sum total check disabled": (
        "verify.py", "if total != d:", "if False:"),
    "psi prefers the flip at i-1": (
        "flips.py", "image = plus or minus", "image = minus or plus"),
    "walk rises into an equal rank": (
        "enumeration.py", "rises[:bisect.bisect_left(rises, rank)]",
        "rises[:bisect.bisect_right(rises, rank)]"),
    "walk feeds a peak's fall from a fall": (
        "enumeration.py", "((False, False), (True, not peaks))",
        "((False, False), (True, True))"),
    "walk reverses peaks one place off": (
        "enumeration.py", "{n + 1 - i for i in query.positions}",
        "{n - i for i in query.positions}"),
    "listing price drops the value sets": (
        "enumeration.py", "min(sizes[-1], math.comb(n, k) * size)", "min(sizes[-1], size)"),
    "expand prices every spike subset": (
        "polynomials.py", "subsets + (missing_last if i - last == 1 else subsets)",
        "subsets + subsets"),
    "table price drops h": (
        "polynomials.py", "* (m + h)", "* m"),
    "expand counts d outside its price": (
        "cli.py", "total = sum(v for _, v in terms)",
        "total = enumeration.count_descent_class(s, n)"),
    "table price drops its flip pass": (
        "polynomials.py", "steps += _values_price(m) + entries * sum(coeffs[k] for k in ks)",
        "steps += _values_price(m)"),
    "engine cells off by one": (
        "enumeration.py", "return n * (n + 1) // 2", "return n * (n - 1) // 2"),
    "admissibility rule dropped": (
        "core.py", "if not is_admissible(positions):", "if False:"),
    "subset walk keeps adjacent spikes": (
        "polynomials.py", "i - (j[-1] if j else 0) > 1", "i - (j[-1] if j else 0) >= 1"),
}


def _copy(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _apply(dest: pathlib.Path, file: str, old: str, new: str) -> None:
    path = dest / "src" / "peakpoly" / file
    path.write_text(path.read_text().replace(old, new))


def _run_tier1(dest: pathlib.Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=dest, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, failed[0] if failed else done.stdout.strip()[-200:]


def _check(name: str | None) -> bool:
    """Whether the run came out as it must: a pass unmutated, a failure mutated."""
    with tempfile.TemporaryDirectory(prefix="peakpoly-mutant-") as tmp:
        dest = pathlib.Path(tmp)
        _copy(dest)
        if name is not None:
            _apply(dest, *MUTANTS[name])
        start = time.perf_counter()
        code, caught = _run_tier1(dest)
    seconds = time.perf_counter() - start
    if name is None:
        print(f"unmutated: exit {code} in {seconds:.1f} s", flush=True)
        return code == 0
    verdict = {0: "SURVIVED", 1: f"killed by {caught}"}.get(code, f"exit {code}: {caught}")
    print(f"{name}: {verdict} in {seconds:.1f} s", flush=True)
    return code == 1


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(unknown)}")
    for name in names or MUTANTS:
        file, old, _ = MUTANTS[name]
        if (ROOT / "src" / "peakpoly" / file).read_text().count(old) != 1:
            raise SystemExit(f"{name}: its text no longer occurs exactly once in {file}")
    if not _check(None):
        return 1
    results = [_check(name) for name in names or MUTANTS]
    print(f"{sum(results)}/{len(results)} mutants killed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
