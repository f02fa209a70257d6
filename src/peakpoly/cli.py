"""Command-line front end for descent and peak polynomial computations.

Subcommands cover coefficient extraction (descent-poly, peak-poly), exact
class counting (count), the spike-subset expansion (expand) and its
inversion (moebius), flip diagnostics for a single permutation (flips),
the flip-admission table (table1), and the brute-force verification
suite (verify). Data goes to stdout, diagnostics to stderr. Exit codes:
0 on success, 1 when a verification check fails, 2 on bad arguments.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import sys
from typing import Any, Sequence

from . import enumeration, flips, polynomials, verify
from .core import (
    CapExceeded,
    Perm,
    Positions,
    as_permutation,
    is_admissible,
    peak_set,
    resolve_cap,
    spike_set,
    spikes_of,
)

CHECK, CROSS = "✓", "✗"


@dataclasses.dataclass(frozen=True)
class CliConfig:
    """Settings shared by every subcommand."""

    cap: int
    fmt: str
    center: int | None = None


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")


def _config_from(args: argparse.Namespace) -> CliConfig:
    cap = args.cap if args.cap is not None else _env_int("PEAKPOLY_CAP")
    return CliConfig(
        cap=resolve_cap(cap),
        fmt=args.format,
        center=getattr(args, "center", None),
    )


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
        values = tuple(int(part) for part in cleaned.split(","))
    except ValueError:
        raise ValueError(f"cannot parse position set from {text!r}")
    if any(v < 1 for v in values):
        raise ValueError(f"positions must be >= 1, got {sorted(values)}")
    return tuple(sorted(set(values)))


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


def _set_str(positions: Sequence[int]) -> str:
    return "{" + ",".join(str(p) for p in positions) + "}"


def _perm_str(p: Sequence[int]) -> str:
    if all(v <= 9 for v in p):
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _print_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _emit_polynomial(poly: polynomials.BinomialPolynomial, fmt: str,
                     label: str) -> None:
    if fmt == "json":
        _print_json(poly.to_json_dict())
    elif fmt == "csv":
        _print_csv(("k", "coeff"), poly.csv_rows())
    else:
        coeffs = ", ".join(str(c) for c in poly.coeffs)
        print(f"{label}: center {poly.center}, coefficients [{coeffs}]")
        print(poly.pretty())


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns an exit code)
# ---------------------------------------------------------------------------

def _cmd_descent_poly(config: CliConfig, args: argparse.Namespace) -> int:
    s = parse_positions(args.set)
    # Default to max(S)+1, the center at which the spike-subset expansion
    # of d(S,n) shares a basis with all of its peak polynomial summands.
    center = config.center if config.center is not None else (max(s) + 1 if s else 0)
    poly = polynomials.descent_coeffs(s, center, cap=config.cap)
    _emit_polynomial(poly, config.fmt, f"d({_set_str(s)},n)")
    return 0


def _cmd_peak_poly(config: CliConfig, args: argparse.Namespace) -> int:
    i_set = parse_positions(args.set)
    center = config.center if config.center is not None else (max(i_set) if i_set else 0)
    poly = polynomials.peak_coeffs(i_set, center, cap=config.cap)
    _emit_polynomial(poly, config.fmt, f"p({_set_str(i_set)},n)")
    return 0


def _cmd_count(config: CliConfig, args: argparse.Namespace) -> int:
    positions = parse_positions(args.set)
    n = args.n
    if args.kind == "descent":
        value = enumeration.count_descent_class(positions, n)
        payload: dict[str, Any] = {
            "kind": "descent", "set": list(positions), "n": n, "count": str(value),
        }
        text = f"|D({_set_str(positions)},{n})| = {value}"
        rows = [("descent", _set_str(positions), n, value)]
    else:
        size = enumeration.count_peak_class(positions, n)
        scaled = enumeration.scale_peak_count(size, positions, n)
        payload = {
            "kind": "peak", "set": list(positions), "n": n,
            "class_size": str(size), "scaled_count": str(scaled),
        }
        text = (f"|P({_set_str(positions)},{n})| = {size}\n"
                f"p({_set_str(positions)},{n}) = {scaled}")
        rows = [("peak", _set_str(positions), n, size)]
    if config.fmt == "json":
        _print_json(payload)
    elif config.fmt == "csv":
        _print_csv(("kind", "set", "n", "count"), rows)
    else:
        print(text)
    return 0


def _cmd_expand(config: CliConfig, args: argparse.Namespace) -> int:
    s = parse_positions(args.set)
    n = args.n
    total = enumeration.count_descent_class(s, n)
    spikes = spikes_of(s, n)
    terms = [
        (subset, enumeration.peak_poly_value(subset, n))
        for r in range(len(spikes) + 1)
        for subset in itertools.combinations(spikes, r) if is_admissible(subset)
    ]
    if config.fmt == "json":
        _print_json({
            "set": list(s), "n": n, "spikes": list(spikes),
            "descent_count": str(total),
            "terms": [{"spikes": list(sub), "value": str(v)} for sub, v in terms],
        })
    elif config.fmt == "csv":
        _print_csv(("spikes", "value"),
                   [(_set_str(sub), v) for sub, v in terms] + [("total", total)])
    else:
        print(f"d({_set_str(s)},{n}) = {total}, spikes {_set_str(spikes)}")
        for subset, value in terms:
            print(f"  p({_set_str(subset)},{n}) = {value}")
        check = sum(v for _, v in terms)
        print(f"  sum = {check}")
    return 0


def _cmd_moebius(config: CliConfig, args: argparse.Namespace) -> int:
    i_set = parse_positions(args.set)
    n = args.n
    terms = polynomials.moebius_terms(i_set, n)
    total = sum(sign * value for _, _, sign, value in terms)
    if config.fmt == "json":
        _print_json({
            "set": list(i_set), "n": n, "value": str(total),
            "terms": [
                {"subset": list(sub), "descent_set": list(s_j),
                 "sign": sign, "value": str(v)}
                for sub, s_j, sign, v in terms
            ],
        })
    elif config.fmt == "csv":
        _print_csv(("subset", "descent_set", "sign", "value"),
                   [(_set_str(sub), _set_str(s_j), sign, v)
                    for sub, s_j, sign, v in terms])
    else:
        print(f"p({_set_str(i_set)},{n}) = {total}")
        for subset, s_j, sign, value in terms:
            mark = "+" if sign > 0 else "-"
            print(f"  {mark} d({_set_str(s_j)},{n}) = {value}   [J = {_set_str(subset)}]")
    return 0


def _cmd_flips(config: CliConfig, args: argparse.Namespace) -> int:
    p = parse_permutation(args.permutation)
    profile = flips.flip_profile(p)
    peaks = set(peak_set(p))
    entries = []
    for i in sorted(profile):
        admission = profile[i]
        entry: dict[str, Any] = {
            "position": i,
            "kind": "peak" if i in peaks else "valley",
            "plus": admission.plus,
            "minus": admission.minus,
            "admits": admission.admits,
        }
        if admission.admits:
            entry["image"] = list(flips.psi(p, i))
        entries.append(entry)
    if config.fmt == "json":
        _print_json({
            "permutation": list(p),
            "spikes": list(spike_set(p)),
            "profile": entries,
        })
    elif config.fmt == "csv":
        _print_csv(("position", "kind", "plus", "minus", "admits"),
                   [(e["position"], e["kind"], int(e["plus"]), int(e["minus"]),
                     int(e["admits"])) for e in entries])
    else:
        print(f"{_perm_str(p)}: spikes {_set_str(spike_set(p))}")
        for e in entries:
            if e["admits"]:
                which = f"{e['position']}+" if e["plus"] else f"{e['position']}-"
                image = _perm_str(tuple(e["image"]))
                print(f"  spike {e['position']} ({e['kind']}): admits {which} "
                      f"-> {image}")
            else:
                print(f"  spike {e['position']} ({e['kind']}): no flip")
    return 0


def _cmd_table1(config: CliConfig, args: argparse.Namespace) -> int:
    i_set = parse_positions(args.set)
    center = config.center if config.center is not None else (max(i_set) if i_set else 0)
    table = polynomials.flip_admission_table(i_set, center, cap=config.cap)
    if config.fmt == "json":
        _print_json(table.to_json_dict())
    elif config.fmt == "csv":
        header = ("k", "permutation") + tuple(f"flip_{i}" for i in table.spikes)
        rows = [
            (k, _perm_str(row.permutation)) + tuple(int(flag) for flag in row.admits)
            for k, block in enumerate(table.blocks)
            for row in block
        ]
        _print_csv(header, rows)
    else:
        print(f"D({_set_str(flips.canonical_descent_set(i_set))},{2 * center}) "
              f"rows meeting the initial-set condition, spikes {_set_str(i_set)}")
        for k, block in enumerate(table.blocks):
            print(f"k={k}  ({len(block)} rows)")
            for row in block:
                flags = "  ".join(
                    f"{i}:{CHECK if flag else CROSS}"
                    for i, flag in zip(table.spikes, row.admits))
                print(f"  {_perm_str(row.permutation)}  {flags}")
    return 0


# ---------------------------------------------------------------------------
# Verification suite driver
# ---------------------------------------------------------------------------

CLAIMS = ("marked-lemma", "spike-sum", "flip-bijection", "flip-table")


def _verification_reports(claim: str | None, max_n: int,
                          cap: int) -> list[verify.VerificationReport]:
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
        # Gated by the cap alone: with these sets each scan is at most 8!.
        for i_set in ((2,), (3,), (4,), (2, 4)):
            if 2 * max(i_set) <= cap:
                reports.append(verify.check_flip_table_partition(i_set, max(i_set)))
    return reports


def _cmd_verify(config: CliConfig, args: argparse.Namespace) -> int:
    if args.claim is not None and args.claim not in CLAIMS:
        raise ValueError(f"unknown claim {args.claim!r}; choose from {', '.join(CLAIMS)}")
    reports = _verification_reports(args.claim, args.max_n, config.cap)
    failures = [r for r in reports if not r.passed]
    if config.fmt == "json":
        _print_json([r.to_json_dict() for r in reports])
        print(f"{len(reports) - len(failures)}/{len(reports)} checks passed",
              file=sys.stderr)
    elif config.fmt == "csv":
        _print_csv(("claim", "params", "passed", "checked"),
                   [(r.claim, json.dumps(r.params), int(r.passed), r.checked)
                    for r in reports])
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            params = ", ".join(f"{k}={v}" for k, v in r.params.items())
            line = f"{status}  {r.claim}  ({params})  [{r.checked} cases]"
            if not r.passed:
                line += f"  counterexample: {r.counterexample}"
            print(line)
        print(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default: text)")
    common.add_argument("--cap", type=int, default=None, metavar="N",
                        help="enumeration size cap (default: 12, env PEAKPOLY_CAP)")

    parser = argparse.ArgumentParser(
        prog="peakpoly",
        description="Exact descent and peak statistics for permutations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("descent-poly", parents=[common],
                       help="binomial-basis coefficients of d(S,n)")
    p.add_argument("set", help="descent set S, comma-separated ('-' for empty)")
    p.add_argument("--center", type=int, default=None,
                   help="basis center m (default: max(S)+1)")
    p.set_defaults(handler=_cmd_descent_poly)

    p = sub.add_parser("peak-poly", parents=[common],
                       help="binomial-basis coefficients of p(I,n)")
    p.add_argument("set", help="admissible peak set I, comma-separated")
    p.add_argument("--center", type=int, default=None,
                   help="basis center m (default: max(I))")
    p.set_defaults(handler=_cmd_peak_poly)

    p = sub.add_parser("count", parents=[common],
                       help="exact class sizes d(S,n) or |P(I,n)| with p(I,n)")
    p.add_argument("kind", choices=("descent", "peak"))
    p.add_argument("set", help="position set, comma-separated ('-' for empty)")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("expand", parents=[common],
                       help="d(S,n) as a sum of p(I,n) over spike subsets")
    p.add_argument("set", help="descent set S, comma-separated ('-' for empty)")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("moebius", parents=[common],
                       help="p(I,n) as an alternating sum of descent counts")
    p.add_argument("set", help="admissible peak set I, comma-separated")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_moebius)

    p = sub.add_parser("flips", parents=[common],
                       help="flip admissions and images for one permutation")
    p.add_argument("permutation",
                   help="one-line notation, digits (n <= 9) or comma-separated")
    p.set_defaults(handler=_cmd_flips)

    p = sub.add_parser("table1", parents=[common],
                       help="flip-admission table of the canonical descent class")
    p.add_argument("--set", default="2,4",
                   help="admissible peak set I (default: 2,4)")
    p.add_argument("--center", type=int, default=None,
                   help="half the board size m (default: max(I))")
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("verify", parents=[common],
                       help="run the brute-force verification suite")
    p.add_argument("--claim", default=None,
                   help=f"restrict to one claim: {', '.join(CLAIMS)}")
    p.add_argument("--max-n", type=int, default=6, dest="max_n",
                   help="largest board size for exhaustive sweeps (default: 6)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        return args.handler(config, args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
