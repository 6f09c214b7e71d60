"""Pinned CLI output of class, snumbers and chern on the localization ladder.

Each case records stdout, stderr and the exit code of one command, in text
and JSON. The file golden_localize.json was written by running this module
as a script:

    PYTHONPATH=src python tests/test_golden_localize.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from torigen.cli import main

GOLDEN = Path(__file__).with_name("golden_localize.json")
M10 = "SU(4)/S(U(1)xU(1)xU(2))"

SPACES = [
    ("CP1",), ("CP2",), ("CP3",), ("CP4",), ("CP5",),
    ("U(3)/T3",), ("U(4)/T4",), ("U(4)/U(2)xU(2)",), ("U(4)/U(1)xU(1)xU(2)",),
    ("U(5)/U(2)xU(3)",),
    (M10, "--structure", "J1"), (M10, "--structure", "J2"), (M10, "--structure", "J3"),
    ("G2/SU(3)",),
    ("CP3", "--structure", "conjugate"), ("CP4", "--structure", "conjugate"),
    ("U(4)/U(2)xU(2)", "--structure", "conjugate"), ("G2/SU(3)", "--structure", "conjugate"),
    ("U(4)/T4", "--signs=1,-1,1,1,-1,1"), ("U(4)/T4", "--signs=-1,1,1,-1,-1,1"),
    ("U(4)/U(1)xU(1)xU(2)", "--signs=1,-1,-1,1,1"),
    # not the weights of any almost complex structure: the localization sum has poles
    ("CP2", "--signs=1,-1"),
    ("U(4)/U(1)xU(1)xU(2)", "--signs=1,-1,1,-1,1"),
]

EXTRA = [
    ("snumbers", "--space", "U(4)/U(2)xU(2)", "--numeric", "1,2,3,4", "--omega", "0,0,0,1"),
    ("snumbers", "--space", "U(4)/U(2)xU(2)", "--numeric", "1,1,3,4", "--omega", "0,0,0,1"),
    ("snumbers", "--space", "CP3", "--numeric", "0,2,5,11", "--omega", "1,1"),
    ("snumbers", "--space", "G2/SU(3)", "--numeric", "3,7", "--omega", "3"),
    ("snumbers", "--space", "U(3)/T3", "--omega", "0,0,1"),
    ("snumbers", "--space", "CP2", "--signs=1,-1", "--numeric", "1,2,4", "--omega", "0,1"),
    ("verify", "--space", "CP3"),
    ("verify", "--space", "U(4)/U(2)xU(2)"),
    ("verify", "--space", M10, "--structure", "J2"),
    ("verify", "--space", "G2/SU(3)", "--structure", "conjugate"),
    ("verify", "--space", "CP2", "--signs=1,-1"),
    ("genus", "--space", "CP3"),
    ("genus", "--space", "G2/SU(3)"),
]


def commands():
    out = []
    for space in SPACES:
        for verb in ("class", "snumbers", "chern"):
            out.append((verb, "--space") + space)
    out += EXTRA
    return [argv + fmt for argv in out for fmt in ((), ("--format", "json"))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cases():
    # empty only while the file is being written; the coverage test then fails
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize("case", _cases(), ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_pinned(case):
    assert run(case["argv"]) == case


def test_golden_covers_every_command():
    cases = json.loads(GOLDEN.read_text())
    assert [c["argv"] for c in cases] == [list(a) for a in commands()]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(a) for a in commands()], indent=1) + "\n")
    sys.exit(0)
