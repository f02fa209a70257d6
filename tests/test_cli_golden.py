"""README's command lines, replayed in every output format against recorded output.

`cli_golden.json` holds the argv, stdout and exit code of each command line
in the README "Command line" block, run through `peakpoly.cli.run` as text,
json and csv. After an intended change of output or of that block,
regenerate it with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""
import contextlib
import io
import json
import pathlib
import shlex

import pytest

from peakpoly.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"
FORMATS = ("text", "json", "csv")


def readme_argvs():
    """Each README command line as argv, without `peakpoly` and `--format`."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    argvs = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        assert words[0] == "peakpoly", line
        words = words[1:]
        if "--format" in words:
            at = words.index("--format")
            del words[at:at + 2]
        argvs.append(words)
    return argvs


def golden_argvs():
    return [argv + ["--format", fmt] for argv in readme_argvs() for fmt in FORMATS]


def record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return {"argv": argv, "stdout": out.getvalue(), "code": code}


CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_the_readme_block():
    assert [case["argv"] for case in CASES] == golden_argvs()


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(case, capsys):
    code = run(case["argv"])
    assert (capsys.readouterr().out, code) == (case["stdout"], case["code"])


if __name__ == "__main__":
    cases = [record(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
