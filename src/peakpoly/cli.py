"""Command-line front end for descent and peak polynomial computations.

One table, ``COMMANDS``, gives each subcommand its handler, positionals,
options with their defaults and one help line; ``run`` reads ``argv``
against it. Options are spelled in full, as ``--name value`` or
``--name=value``; ``-h`` or ``--help`` prints the table or one usage.

Output contract: each handler returns one `Output` with the answer as
data for every format and prints nothing; `run` hands it to `_emit`, the
one place that reads ``--format``. Data goes to stdout. The verify
summary is a note: it follows the text on stdout, and goes to stderr
under json and csv. Errors, bad arguments included, are one ``error:``
line on stderr. Exit codes: 0 on success, 1 when a verification check
fails, 2 on any error.
"""
from __future__ import annotations

import itertools
import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

from . import enumeration, flips, polynomials, verify
from .core import (
    Perm,
    Positions,
    _perm_str,
    _set_str,
    as_permutation,
    canonical_descent_set,
    is_admissible,
    peak_set,
    position_set,
    spikes_of,
)

CHECK, CROSS = "✓", "✗"


class Output(NamedTuple):
    """One answer: the JSON payload, the CSV header and rows, the text
    lines, an optional trailing note and the exit code."""

    payload: Any
    header: Sequence[str]
    rows: Sequence[Sequence[Any]]
    text: Sequence[str]
    note: str | None = None
    code: int = 0


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def parse_positions(text: str) -> Positions:
    """Read a comma-separated position set; '' , '-' and '{}' denote empty.

    >>> parse_positions("2,3")
    (2, 3)
    >>> parse_positions("-")
    ()
    """
    cleaned = text.strip().strip("{}")
    if cleaned in ("", "-"):
        return ()
    try:
        values = [int(part) for part in cleaned.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse position set from {text!r}")
    return position_set(values)


def parse_permutation(text: str) -> Perm:
    """Read one-line notation, comma-separated or as a digit string (n <= 9).

    >>> parse_permutation("24315678")
    (2, 4, 3, 1, 5, 6, 7, 8)
    >>> parse_permutation("10,2,3,4,5,6,7,8,9,1")[0]
    10
    """
    cleaned = text.strip()
    if "," in cleaned:
        values = tuple(int(part) for part in cleaned.split(","))
    elif cleaned.isdigit():
        values = tuple(int(ch) for ch in cleaned)
    else:
        raise ValueError(f"cannot parse permutation from {text!r}")
    return as_permutation(values)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _emit(out: Output, fmt: str) -> int:
    """Print ``out`` to stdout in ``fmt`` and return its exit code."""
    if fmt == "json":
        import json
        print(json.dumps(out.payload, indent=2, ensure_ascii=False))
    elif fmt == "csv":
        import csv
        import json
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        # A dict cell (verify's params) is written as JSON.
        writer.writerows([json.dumps(cell) if isinstance(cell, dict) else cell
                          for cell in row] for row in out.rows)
    else:
        for line in out.text:
            print(line)
    if out.note is not None:
        print(out.note, file=sys.stdout if fmt == "text" else sys.stderr)
    return out.code


def _polynomial(poly: polynomials.BinomialPolynomial, label: str) -> Output:
    coeffs = ", ".join(str(c) for c in poly.coeffs)
    return Output(poly.to_json_dict(), ("k", "coeff"), poly.csv_rows(),
                  [f"{label}: center {poly.center}, coefficients [{coeffs}]", poly.pretty()])


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns an Output and prints nothing)
# ---------------------------------------------------------------------------

def _cmd_descent_poly(args: SimpleNamespace) -> Output:
    s = parse_positions(args.set)
    # At max(S)+1 the spike-subset expansion of d(S,n) shares a basis
    # with all of its peak polynomial summands.
    center = args.center if args.center is not None else max(s, default=-1) + 1
    poly = polynomials.descent_coeffs(s, center)
    return _polynomial(poly, f"d({_set_str(s)},n)")


def _cmd_peak_poly(args: SimpleNamespace) -> Output:
    i_set = parse_positions(args.set)
    center = args.center if args.center is not None else max(i_set, default=0)
    poly = polynomials.peak_coeffs(i_set, center)
    return _polynomial(poly, f"p({_set_str(i_set)},n)")


def _cmd_count(args: SimpleNamespace) -> Output:
    positions = parse_positions(args.set)
    n, name = args.n, _set_str(positions)
    header = ("kind", "set", "n", "count")
    if args.kind == "descent":
        value = enumeration.count_descent_class(positions, n)
        return Output({"kind": "descent", "set": list(positions), "n": n, "count": str(value)},
                      header, [("descent", name, n, value)], [f"|D({name},{n})| = {value}"])
    if not is_admissible(positions):
        raise ValueError(f"not an admissible peak set: {_set_str(positions)}")
    size = enumeration.count_peak_class(positions, n)
    scaled = enumeration.scale_peak_count(size, positions, n)
    payload = {"kind": "peak", "set": list(positions), "n": n,
               "class_size": str(size), "scaled_count": str(scaled)}
    return Output(payload, header, [("peak", name, n, size)],
                  [f"|P({name},{n})| = {size}", f"p({name},{n}) = {scaled}"])


def _cmd_expand(args: SimpleNamespace) -> Output:
    s = parse_positions(args.set)
    n = args.n
    total = enumeration.count_descent_class(s, n)
    spikes = spikes_of(s, n)
    terms = polynomials.spike_terms(s, n)
    payload = {
        "set": list(s), "n": n, "spikes": list(spikes), "descent_count": str(total),
        "terms": [{"spikes": list(sub), "value": str(v)} for sub, v in terms],
    }
    text = [f"d({_set_str(s)},{n}) = {total}, spikes {_set_str(spikes)}"]
    text += [f"  p({_set_str(subset)},{n}) = {value}" for subset, value in terms]
    text.append(f"  sum = {sum(v for _, v in terms)}")
    return Output(payload, ("spikes", "value"),
                  [(_set_str(sub), v) for sub, v in terms] + [("total", total)], text)


def _cmd_moebius(args: SimpleNamespace) -> Output:
    i_set = parse_positions(args.set)
    n = args.n
    terms = polynomials.moebius_terms(i_set, n)
    total = sum(sign * value for _, _, sign, value in terms)
    payload = {
        "set": list(i_set), "n": n, "value": str(total),
        "terms": [
            {"subset": list(sub), "descent_set": list(s_j), "sign": sign, "value": str(v)}
            for sub, s_j, sign, v in terms
        ],
    }
    text = [f"p({_set_str(i_set)},{n}) = {total}"]
    text += [f"  {'+' if sign > 0 else '-'} d({_set_str(s_j)},{n}) = {value}"
             f"   [J = {_set_str(subset)}]" for subset, s_j, sign, value in terms]
    return Output(payload, ("subset", "descent_set", "sign", "value"),
                  [(_set_str(sub), _set_str(s_j), sign, v) for sub, s_j, sign, v in terms],
                  text)


def _cmd_flips(args: SimpleNamespace) -> Output:
    p = parse_permutation(args.permutation)
    removals = flips._spike_removals(p)
    peaks = set(peak_set(p))
    entries, text = [], [f"{_perm_str(p)}: spikes {_set_str(tuple(removals))}"]
    for i, (plus, minus) in removals.items():
        kind = "peak" if i in peaks else "valley"
        image = plus or minus
        entry: dict[str, Any] = {"position": i, "kind": kind, "plus": plus is not None,
                                 "minus": minus is not None, "admits": image is not None}
        if image is not None:
            entry["image"] = list(image)
            which = f"{i}+" if plus else f"{i}-"
            text.append(f"  spike {i} ({kind}): admits {which} -> {_perm_str(image)}")
        else:
            text.append(f"  spike {i} ({kind}): no flip")
        entries.append(entry)
    payload = {"permutation": list(p), "spikes": list(removals), "profile": entries}
    return Output(payload, ("position", "kind", "plus", "minus", "admits"),
                  [(e["position"], e["kind"], int(e["plus"]), int(e["minus"]),
                    int(e["admits"])) for e in entries],
                  text)


def _cmd_table1(args: SimpleNamespace) -> Output:
    i_set = parse_positions(args.set)
    center = args.center if args.center is not None else max(i_set, default=0)
    table = polynomials.flip_admission_table(i_set, center)
    text = [f"D({_set_str(canonical_descent_set(i_set))},{2 * center}) "
            f"rows meeting the initial-set condition, spikes {_set_str(i_set)}"]
    for k, block in enumerate(table.blocks):
        text.append(f"k={k}  ({len(block)} rows)")
        text += [f"  {_perm_str(row.permutation)}  "
                 + "  ".join(f"{i}:{CHECK if flag else CROSS}"
                             for i, flag in zip(table.spikes, row.admits))
                 for row in block]
    return Output(table.to_json_dict(),
                  ("k", "permutation") + tuple(f"flip_{i}" for i in table.spikes),
                  [(k, _perm_str(row.permutation)) + tuple(int(flag) for flag in row.admits)
                   for k, block in enumerate(table.blocks) for row in block],
                  text)


# ---------------------------------------------------------------------------
# Verification suite driver
# ---------------------------------------------------------------------------

CLAIMS = ("marked-lemma", "spike-sum", "flip-bijection", "flip-table")


def _verification_reports(claim: str | None, max_n: int) -> list[verify.VerificationReport]:
    reports = []
    if claim in (None, "marked-lemma"):
        for n in range(1, min(max_n, 7) + 1):
            reports.append(verify.check_marked_lemma(n))
    if claim in (None, "spike-sum"):
        sets = [
            c for r in range(5) for c in itertools.combinations(range(1, 5), r)
        ]
        for s in sets:
            top = max(s) if s else 0
            ns = range(top + 1, min(max_n, 8) + 1)
            if ns:
                reports.append(verify.check_spike_sum(s, ns))
    if claim in (None, "flip-bijection"):
        n = min(max_n, 8)
        peak_sets = [(), (2,), (3,), (4,), (2, 4)]
        for i_set in peak_sets:
            if i_set and max(i_set) >= n:
                continue
            for r in range(len(i_set) + 1):
                for j_sub in itertools.combinations(i_set, r):
                    reports.append(verify.check_flip_bijection(i_set, j_sub, n))
    if claim in (None, "flip-table"):
        for i_set in ((2,), (3,), (4,), (2, 4)):
            reports.append(verify.check_flip_table_partition(i_set, max(i_set)))
    return reports


def _cmd_verify(args: SimpleNamespace) -> Output:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    reports = _verification_reports(args.claim, args.max_n)
    passed = sum(r.passed for r in reports)
    text = []
    for r in reports:
        params = ", ".join(f"{k}={v}" for k, v in r.params.items())
        line = f"{'PASS' if r.passed else 'FAIL'}  {r.claim}  ({params})  [{r.checked} cases]"
        if not r.passed:
            line += f"  counterexample: {r.counterexample}"
        text.append(line)
    return Output([r.to_json_dict() for r in reports], ("claim", "params", "passed", "checked"),
                  [(r.claim, r.params, int(r.passed), r.checked) for r in reports],
                  text, note=f"{passed}/{len(reports)} checks passed",
                  code=0 if passed == len(reports) else 1)


# ---------------------------------------------------------------------------
# Command table and argument reading
# ---------------------------------------------------------------------------

def _cmd_help(args: SimpleNamespace) -> Output:
    if args.command not in COMMANDS:
        return Output(None, (), (), ["usage: peakpoly COMMAND ...  (a set is 2,4 or - for empty)"]
                      + [f"  {name:<13}{entry[3]}" for name, entry in COMMANDS.items()])
    _, positionals, options, line = COMMANDS[args.command]
    usage = " ".join([args.command, *(_metavar(arg, r) for arg, r in positionals.items())])
    return Output(None, (), (), [f"usage: peakpoly {usage} [options]", line] + [
        f"  {arg} {_metavar(arg, reader)}" + ("" if default is None else f" (default: {default})")
        for arg, (reader, default) in {**options, **FORMAT}.items()])


# Each subcommand: handler, positionals, options with their defaults and one
# help line. An argument is read by str, int or the tuple of its choices.
FORMAT = {"--format": (("text", "json", "csv"), "text")}
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], Output], dict, dict, str]] = {
    "descent-poly": (_cmd_descent_poly, {"set": str}, {"--center": (int, None)},
                     "binomial-basis coefficients of d(S,n) (center: max(S)+1)"),
    "peak-poly": (_cmd_peak_poly, {"set": str}, {"--center": (int, None)},
                  "binomial-basis coefficients of p(I,n) (center: max(I))"),
    "count": (_cmd_count, {"kind": ("descent", "peak"), "set": str, "n": int}, {},
              "exact class sizes d(S,n) or |P(I,n)| with p(I,n)"),
    "expand": (_cmd_expand, {"set": str, "n": int}, {}, "d(S,n) as a sum over spike subsets"),
    "moebius": (_cmd_moebius, {"set": str, "n": int}, {}, "p(I,n) by Moebius inversion"),
    "flips": (_cmd_flips, {"permutation": str}, {}, "flip admissions of one permutation"),
    "table1": (_cmd_table1, {}, {"--set": (str, "2,4"), "--center": (int, None)},
               "flip-admission table of D(S,2·center) (center: max(I))"),
    "verify": (_cmd_verify, {}, {"--claim": (CLAIMS, None), "--max-n": (int, 6)},
               "brute-force checks up to --max-n: marked-lemma stops at 7, spike-sum and "
               "flip-bijection at 8, and flip-table scans its fixed boards (2·max(I) ≤ 8)"),
}


def _metavar(arg: str, reader: Any) -> str:
    return "{" + ",".join(reader) + "}" if isinstance(reader, tuple) else arg.strip("-").upper()


def _parse(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], Output], SimpleNamespace]:
    """The handler and arguments that ``argv`` asks for; a bad argument
    raises ValueError. ``-h`` or ``--help`` anywhere asks for ``_cmd_help``."""
    name = argv[0] if argv else ""
    if "-h" in argv or "--help" in argv:
        return _cmd_help, SimpleNamespace(command=name, format="text")
    if name not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {name!r}")
    handler, positionals, options, _ = COMMANDS[name]
    options = {**options, **FORMAT}
    given, pairs, words = [], [], iter(argv[1:])
    for word in words:
        arg, has_value, text = word.partition("=")
        if not word.startswith("--"):
            given.append(word)
        elif arg not in options:
            raise ValueError(f"{name} has no option {arg}")
        else:
            pairs.append((arg, options[arg][0], text if has_value else next(words, None)))
    if len(given) != len(positionals):
        raise ValueError(f"{name} takes {len(positionals)} argument(s), got {len(given)}")
    values = {arg: default for arg, (_, default) in options.items()}
    for arg, reader, text in [*zip(positionals, positionals.values(), given), *pairs]:
        if text is None:
            raise ValueError(f"{arg} needs a value")
        if isinstance(reader, tuple) and text not in reader:
            raise ValueError(f"{arg} must be one of {', '.join(reader)}, got {text!r}")
        try:
            values[arg] = text if isinstance(reader, tuple) else reader(text)
        except ValueError:
            raise ValueError(f"{arg} must be an integer, got {text!r}") from None
    return handler, SimpleNamespace(**{arg.strip("-").replace("-", "_"): value
                                       for arg, value in values.items()})


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments against COMMANDS, dispatch, and return the exit code."""
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return _emit(handler(args), args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
