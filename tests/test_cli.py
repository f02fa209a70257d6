import json
import math
import re
import subprocess
import sys
import time

import pytest

import oracles
import peakpoly as pp
from peakpoly import flips
from peakpoly.cli import CLAIMS, COMMANDS, parse_permutation, parse_positions, run


def out_of(capsys):
    return capsys.readouterr().out


def test_parse_positions():
    assert parse_positions("2,3") == (2, 3)
    assert parse_positions("{4,2}") == (2, 4)
    assert parse_positions("") == ()
    assert parse_positions("-") == ()
    with pytest.raises(ValueError):
        parse_positions("2,x")
    with pytest.raises(ValueError):
        parse_positions("0,2")


def test_parse_permutation():
    assert parse_permutation("24315678") == (2, 4, 3, 1, 5, 6, 7, 8)
    assert parse_permutation("3,1,2") == (3, 1, 2)
    assert parse_permutation("10,2,3,4,5,6,7,8,9,1") == \
        (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    with pytest.raises(ValueError):
        parse_permutation("abc")
    with pytest.raises(ValueError):
        parse_permutation("1123")


def test_descent_poly_text(capsys):
    assert run(["descent-poly", "2,3"]) == 0
    out = out_of(capsys)
    assert "center 4" in out
    assert "[3, 8, 7, 2, 0]" in out


def test_default_centers_of_the_empty_set(capsys):
    # max(S)+1 and max(I) both fall back to 0 on an empty set.
    assert run(["descent-poly", "-"]) == 0
    assert out_of(capsys) == "d({},n): center 0, coefficients [1]\n1 C(n,0)\n"
    assert run(["peak-poly", "-"]) == 0
    assert out_of(capsys) == "p({},n): center 0, coefficients [1]\n1 C(n,0)\n"
    assert run(["table1", "--set", "-"]) == 0
    assert out_of(capsys) == ("D({},0) rows meeting the initial-set condition, spikes {}\n"
                              "k=0  (1 rows)\n    \n")


def test_descent_poly_center_flag(capsys):
    assert run(["descent-poly", "2,3", "--center", "5", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["basis"] == "binomial"
    assert data["center"] == 5
    assert [int(c) for c in data["coeffs"]] == [11, 15, 9, 2, 0, 0]


def test_peak_poly_json_schema(capsys):
    assert run(["peak-poly", "2,4", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data == {
        "basis": "binomial",
        "center": 4,
        "coeffs": ["0", "4", "4", "1", "0"],
    }


def test_text_and_json_agree(capsys):
    assert run(["peak-poly", "4", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert run(["peak-poly", "4"]) == 0
    text = out_of(capsys)
    coeffs = [int(c) for c in data["coeffs"]]
    assert f"[{', '.join(str(c) for c in coeffs)}]" in text


def test_poly_csv(capsys):
    assert run(["descent-poly", "1", "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "k,coeff"
    assert lines[1:] == ["0,1", "1,1", "2,0"]


def test_count_descent(capsys):
    assert run(["count", "descent", "2,3", "8"]) == 0
    assert "85" in out_of(capsys)
    assert run(["count", "descent", "2,3", "8", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["count"] == "85"


def test_count_peak(capsys):
    assert run(["count", "peak", "2,4", "8", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["class_size"] == "1408"
    assert data["scaled_count"] == "44"


def test_count_beyond_cap_uses_closed_form(capsys):
    assert run(["count", "descent", "2,3", "40", "--format", "json"]) == 0
    poly = pp.descent_coeffs((2, 3), 4)
    assert json.loads(out_of(capsys))["count"] == str(poly.evaluate(40))


def test_expand(capsys):
    assert run(["expand", "2,3", "8", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["descent_count"] == "85"
    assert data["spikes"] == [2, 4]
    values = {tuple(t["spikes"]): int(t["value"]) for t in data["terms"]}
    assert values == {(): 1, (2,): 6, (4,): 34, (2, 4): 44}
    assert sum(values.values()) == 85


@pytest.mark.parametrize("argv", [["5", "1582"], ["2,4,6,8,10", "120"]])
def test_expand_is_priced_by_the_subsets_it_counts(argv, capsys):
    # 3 and 144 admissible spike subsets fit the step limit; all 4 and 1024
    # subsets (5,008,612 and 7,434,240 steps) would not.
    assert run(["expand", *argv, "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert run(["count", "descent", *argv, "--format", "json"]) == 0
    count = json.loads(out_of(capsys))["count"]
    assert sum(int(t["value"]) for t in data["terms"]) == int(data["descent_count"]) == int(count)
    assert len(data["terms"]) == {"5": 3, "2,4,6,8,10": 144}[argv[0]]


def test_moebius(capsys):
    assert run(["moebius", "2,4", "8", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["value"] == "44"
    terms = {tuple(t["subset"]): t for t in data["terms"]}
    assert terms[()]["sign"] == 1
    assert terms[(2,)]["sign"] == -1
    assert terms[(2,)]["descent_set"] == [1]
    assert terms[(4,)]["descent_set"] == [1, 2, 3]
    assert int(terms[(2, 4)]["value"]) == 85


def test_flips_text(capsys):
    assert run(["flips", "24315678"]) == 0
    out = out_of(capsys)
    assert "spike 2 (peak): no flip" in out
    assert "spike 4 (valley): admits 4+" in out


def test_flips_json(capsys):
    assert run(["flips", "24315678", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["spikes"] == [2, 4]
    by_pos = {e["position"]: e for e in data["profile"]}
    assert by_pos[2]["admits"] is False
    assert by_pos[4]["admits"] is True
    assert by_pos[4]["image"] == [3, 1, 2, 4, 5, 6, 7, 8]


def test_flips_and_table1_build_each_flip_once(capsys, monkeypatch):
    # 34215678 has spikes 2 and 4, and their four flips give every answer.
    # Neither route asks admits_flip or psi.
    def forbidden(*args):
        raise AssertionError("a second route to the kept flips")

    fl, built = flips.fl, []
    monkeypatch.setattr(flips, "fl", lambda p, i: built.append(i) or fl(p, i))
    monkeypatch.setattr(flips, "admits_flip", forbidden)
    monkeypatch.setattr(flips, "psi", forbidden)
    assert run(["flips", "3,4,2,1,5,6,7,8"]) == 0
    assert "spike 2 (peak): admits 2+ -> 43215678" in out_of(capsys)
    assert sorted(built) == [1, 2, 3, 4]
    assert run(["table1", "--set", "2,4", "--center", "5"]) == 0


def test_table1_text(capsys):
    assert run(["table1"]) == 0
    out = out_of(capsys)
    assert "34215678  2:✓  4:✓" in out
    assert "67512348  2:✓  4:✗" in out
    assert "k=4  (0 rows)" in out


def test_table1_csv(capsys):
    assert run(["table1", "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "k,permutation,flip_2,flip_4"
    assert len(lines) == 21  # header + the 20 table rows
    assert "3,67512348,1,0" in lines


def test_table1_other_set(capsys):
    assert run(["table1", "--set", "2", "--center", "2", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    sizes = [len(b["rows"]) for b in data["blocks"]]
    assert sizes == [c for c in pp.descent_coeffs((1,), 2).coeffs]


def test_verify_exit_code_and_json(capsys):
    assert run(["verify", "--claim", "flip-table", "--format", "json"]) == 0
    reports = json.loads(out_of(capsys))
    assert reports and all(r["passed"] for r in reports)


def test_verify_text_summary(capsys):
    assert run(["verify", "--claim", "marked-lemma", "--max-n", "4"]) == 0
    out = out_of(capsys)
    assert "PASS" in out and "FAIL" not in out
    assert "4/4 checks passed" in out
    assert run(["verify", "--claim", "marked-lemma", "--max-n", "1", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("marked-lemma,")
    assert captured.err == "1/1 checks passed\n"


def test_argument_errors_exit_2(capsys):
    assert run(["peak-poly", "2,3"]) == 2
    assert run(["count", "peak", "2,3", "6"]) == 2
    assert "not an admissible peak set" in capsys.readouterr().err
    for peak_set in ("1", "2,3", "1,3"):
        for argv in (["peak-poly", peak_set], ["count", "peak", peak_set, "6"],
                     ["moebius", peak_set, "6"], ["table1", "--set", peak_set]):
            assert run(argv) == 2
            assert capsys.readouterr().err.startswith("error: not an admissible peak set: ")
    assert run(["count", "descent", "3", "2"]) == 2
    assert "needs n > 3" in capsys.readouterr().err
    assert run(["moebius", "2", "2"]) == 2
    assert "peak position 2 needs n > 2" in capsys.readouterr().err
    for argv in (["count", "descent", "-", "0"], ["moebius", "-", "0"]):
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: n must be positive, got 0\n"
    for argv in (["table1", "--set", "-", "--center", "-1"],
                 ["descent-poly", "-", "--center", "-1"]):
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: center must be nonnegative\n"
    assert run(["verify", "--max-n", "0"]) == 2
    assert "--max-n" in capsys.readouterr().err
    assert run(["flips", "1123"]) == 2
    capsys.readouterr()
    # A bad argument leaves as every other error does: one line, no output.
    for argv in (["no-such-command"], [], ["count", "descent", "2,3"],
                 ["flips", "123", "321"], ["verify", "--max-n"], ["table1", "--set"],
                 ["count", "descent", "2,3", "x"], ["descent-poly", "2", "--center", "x"],
                 ["verify", "--max-n", "six"], ["count", "ascent", "2,3", "8"],
                 ["peak-poly", "2,4", "--format", "xml"], ["verify", "--claim", "bogus"],
                 ["descent-poly", "2,3", "--form", "json"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, argv
        assert captured.err.startswith("error: "), argv


def test_options_take_a_value_either_way(capsys):
    # --name=value and --name value, anywhere after the subcommand; a value
    # may start with '-'.
    assert run(["table1", "--set=2", "--center=2", "--format=csv"]) == 0
    joined = out_of(capsys)
    assert run(["table1", "--format", "csv", "--center", "2", "--set", "2"]) == 0
    assert out_of(capsys) == joined
    assert run(["descent-poly", "--center", "5", "2,3"]) == 0
    assert "center 5" in out_of(capsys)
    assert run(["table1", "--set", "-", "--center", "0"]) == 0


HELP = {
    "descent-poly": ["usage: peakpoly descent-poly SET [options]", "  --center CENTER"],
    "peak-poly": ["usage: peakpoly peak-poly SET [options]", "  --center CENTER"],
    "count": ["usage: peakpoly count {descent,peak} SET N [options]"],
    "expand": ["usage: peakpoly expand SET N [options]"],
    "moebius": ["usage: peakpoly moebius SET N [options]"],
    "flips": ["usage: peakpoly flips PERMUTATION [options]"],
    "table1": ["usage: peakpoly table1 [options]", "  --set SET (default: 2,4)",
               "  --center CENTER"],
    "verify": ["usage: peakpoly verify [options]",
               "  --claim {marked-lemma,spike-sum,flip-bijection,flip-table}",
               "  --max-n MAX-N (default: 6)"],
}


def test_help_lists_the_commands_and_each_usage(capsys):
    assert list(HELP) == list(COMMANDS)
    for argv in (["--help"], ["-h"]):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        listed = captured.out.splitlines()[1:]
        assert [line.split()[0] for line in listed] == list(COMMANDS)
    for name, lines in HELP.items():
        for flag in ("--help", "-h"):
            assert run([name, flag]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            out = captured.out.splitlines()
            assert out[0] == lines[0]
            assert set(lines[1:]) | {"  --format {text,json,csv} (default: text)"} <= set(out)
    assert run(["verify", "--max-n", "3", "--help"]) == 0
    out = out_of(capsys)
    assert "marked-lemma stops at 7, spike-sum and flip-bijection at 8" in out
    assert "flip-table scans its fixed boards" in out


def test_env_cap_is_ignored(capsys, monkeypatch):
    # table1 --center 5 lists D(S,10), so a cap of 8 on 2m would refuse it.
    monkeypatch.setenv("PEAKPOLY_CAP", "8")
    assert run(["table1", "--set", "2,4", "--center", "5"]) == 0
    monkeypatch.setenv("PEAKPOLY_CAP", "junk")
    assert run(["count", "peak", "2,4", "8"]) == 0


def test_tables_and_blocks_are_priced_by_their_head_class():
    # 2^m·(m+h) steps for the table of D({2,3},2m), C(m,k)·(m+h) for block k,
    # with h = |D({2,3},m)| by the chain count; both over the limit here.
    for m, value_sets, build, what in (
            (20, 2 ** 20, lambda: pp.flip_admission_table((2, 4), 20),
             "building the flip-admission table of D({2,3},40)"),
            (24, math.comb(24, 12), lambda: pp.prefix_interval_class((2, 3), 24, 12),
             "listing block 12 of D({2,3},48)")):
        steps = value_sets * (m + oracles.chain_descent_count((2, 3), m))
        with pytest.raises(pp.CapExceeded, match=re.escape(
                f"{what} takes {steps} steps, over the limit of {pp.MAX_STEPS}")):
            build()


def test_step_limit_refuses_at_once(capsys):
    odd = ",".join(map(str, range(1, 30, 2)))
    # flips takes 2·n steps per spike: 2·1584·1582 = 5011776 is over the limit.
    for argv in (["table1", "--set", "2,4", "--center", "14"],
                 ["count", "descent", "2,3,7", "100000"],
                 ["moebius", ",".join(map(str, range(2, 41, 2))), "50"],
                 ["expand", odd, "40"],
                 ["flips", ",".join(map(str, oracles.alternating(1584)))]):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"steps, over the limit of {pp.MAX_STEPS}\n")
    with pytest.raises(pp.CapExceeded):
        pp.flip_profile(oracles.alternating(1584))
    # 2m = 14 and a center of 41 are well inside the step limit.
    assert run(["peak-poly", "2,4", "--center", "7"]) == 0
    assert run(["descent-poly", "1,5,40"]) == 0


@pytest.mark.parametrize("claim", CLAIMS)
def test_every_claim_runs_a_check(claim, capsys):
    assert run(["verify", "--claim", claim, "--max-n", "1"]) == 0
    passed, total = out_of(capsys).splitlines()[-1].split()[0].split("/")
    assert passed == total and int(total) >= 1
    assert run(["verify", "--claim", claim, "--cap", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verify has no option --cap\n"


def test_counts_are_exact_past_the_cap(capsys):
    assert run(["count", "peak", "2,4", "13", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["scaled_count"] == str(pp.peak_poly_via_moebius((2, 4), 13))


def test_table1_center_6_lists_the_class_without_a_scan(capsys):
    # Under the step limit; a scan of all 12! permutations would take minutes.
    start = time.perf_counter()
    assert run(["table1", "--set", "3,6", "--center", "6", "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    data = json.loads(out_of(capsys))
    sizes = tuple(len(b["rows"]) for b in data["blocks"])
    assert sizes == pp.descent_coeffs(pp.canonical_descent_set((3, 6)), 6).coeffs


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "peakpoly", "descent-poly", "2,3",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"] == ["3", "8", "7", "2", "0"]


def test_import_loads_neither_numpy_nor_a_process_pool():
    # Every CLI call pays for what `import peakpoly.cli` loads; no layer
    # needs numpy or a process pool for it, and the CLI reads its arguments
    # without argparse, which would pull in `gettext` and `locale`.
    # `dataclasses` would pull in `inspect`, `ast`, `dis` and `tokenize`;
    # `csv` serves `--format csv` only, and `json` the json and csv formats.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, peakpoly.cli; print(sorted({'numpy', 'concurrent.futures.process', "
         "'dataclasses', 'inspect', 'csv', 'json', 'argparse', 'gettext'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # A count runs `enumeration` only; a descent polynomial, a Moebius
    # inversion and a spike expansion add `polynomials`, which reads the
    # canonical descent sets from `core`. `flips` runs its own layer only,
    # and only `verify` runs every layer. Reading a module's __dict__ this
    # way does not load it.
    verify_answer = [
        "PASS  marked-lemma  (n=1)  [1 cases]", "PASS  marked-lemma  (n=2)  [4 cases]",
        "PASS  marked-lemma  (n=3)  [24 cases]",
        "PASS  spike-sum  (s=[], n_range=[1, 2, 3])  [3 cases]",
        "PASS  spike-sum  (s=[1], n_range=[2, 3])  [2 cases]",
        "PASS  spike-sum  (s=[2], n_range=[3])  [1 cases]",
        "PASS  spike-sum  (s=[1, 2], n_range=[3])  [1 cases]",
        "PASS  flip-bijection  (i=[], j=[], n=3)  [1 cases]",
        "PASS  flip-bijection  (i=[2], j=[], n=3)  [2 cases]",
        "PASS  flip-bijection  (i=[2], j=[2], n=3)  [1 cases]",
        "PASS  flip-table  (i=[2], m=2)  [9 cases]", "PASS  flip-table  (i=[3], m=3)  [12 cases]",
        "PASS  flip-table  (i=[4], m=4)  [15 cases]",
        "PASS  flip-table  (i=[2, 4], m=4)  [25 cases]", "14/14 checks passed"]
    layers = ("enumeration", "flips", "polynomials", "verify")
    for argv, answer, ran in (
            (['count', 'descent', '2,3', '6'], ["|D({2,3},6)| = 26"], {"enumeration"}),
            (['descent-poly', '2', '--center', '2'],
             ["d({2},n): center 2, coefficients [0, 2, 1]",
              "0 C(n-2,0) + 2 C(n-2,1) + 1 C(n-2,2)"], {"enumeration", "polynomials"}),
            (['moebius', '2,4', '20'],
             ["p({2,4},20) = 1104", "  + d({},20) = 1   [J = {}]",
              "  - d({1},20) = 19   [J = {2}]", "  - d({1,2,3},20) = 969   [J = {4}]",
              "  + d({2,3},20) = 2091   [J = {2,4}]"], {"enumeration", "polynomials"}),
            (['expand', '2,3', '8'],
             ["d({2,3},8) = 85, spikes {2,4}", "  p({},8) = 1", "  p({2},8) = 6",
              "  p({4},8) = 34", "  p({2,4},8) = 44", "  sum = 85"],
             {"enumeration", "polynomials"}),
            (['flips', '24315678'],
             ["24315678: spikes {2,4}", "  spike 2 (peak): no flip",
              "  spike 4 (valley): admits 4+ -> 31245678"], {"flips"}),
            (['verify', '--max-n', '3'], verify_answer, set(layers))):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from peakpoly import cli\n"
             f"code = cli.run({argv!r})\n"
             "for layer, name in [('enumeration', 'count_descent_class'), ('flips', 'admits_flip'),\n"
             "                    ('polynomials', 'peak_coeffs'), ('verify', 'check_marked_lemma')]:\n"
             "    module = sys.modules['peakpoly.' + layer]\n"
             "    print(layer, name in object.__getattribute__(module, '__dict__'))\n"
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
             "print(code)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            *answer, *(f"{layer} {layer in ran}" for layer in layers), "[]", "0"], argv


def test_every_layer_is_registered_after_importing_the_cli():
    # A tracer that wraps the public functions of each layer looks the
    # layers up in sys.modules right after `import peakpoly.cli`.
    layers = ("cli", "core", "enumeration", "flips", "polynomials", "verify")
    listing = (
        f"for layer in {layers!r}:\n"
        "    module = sys.modules['peakpoly.' + layer]\n"
        "    print(layer, sorted(name for name, obj in vars(module).items()\n"
        "                        if not name.startswith('_') and inspect.isfunction(obj)\n"
        "                        and obj.__module__ == module.__name__))\n")
    fresh = subprocess.run(
        [sys.executable, "-c", "import inspect, sys, peakpoly.cli\n" + listing],
        capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    # The same listing once every layer has been imported outright.
    loaded = subprocess.run(
        [sys.executable, "-c", "import importlib, inspect, sys\n"
         f"for layer in {layers!r}: importlib.import_module('peakpoly.' + layer)\n" + listing],
        capture_output=True, text=True)
    assert loaded.returncode == 0, loaded.stderr
    assert fresh.stdout == loaded.stdout
    functions = dict(line.split(" ", 1) for line in fresh.stdout.splitlines())
    for layer, name in [("cli", "run"), ("core", "descent_set"),
                        ("enumeration", "count_descent_class"), ("flips", "admits_flip"),
                        ("polynomials", "peak_coeffs"), ("verify", "check_marked_lemma")]:
        assert repr(name) in functions[layer], layer
