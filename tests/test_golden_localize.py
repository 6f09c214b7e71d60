"""Pinned CLI output of class, snumbers and chern on the localization ladder,
of verify, genus and stable on a few spaces, of the divided-difference
routes flag and grassmann, of the formal group law fgl and of reproduce.

Each case records stdout, stderr and the exit code of one command, in text
and JSON; file arguments are relative to this directory. The file golden_localize.json was written by running this module
as a script:

    PYTHONPATH=src python tests/test_golden_localize.py
"""

import hashlib
import io
import json
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

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
    ("verify", "--space", "CP4"),
    ("verify", "--space", "U(4)/T4"),
    ("verify", "--space", "U(4)/U(1)xU(1)xU(2)", "--signs=1,-1,-1,1,1"),
    ("verify", "--space", M10, "--structure", "J3"),
    ("genus", "--space", "CP3"),
    ("genus", "--space", "G2/SU(3)"),
    ("genus", "--space", "U(4)/U(2)xU(2)"),
    # genus takes no truncation order: a usage error
    ("genus", "--space", "U(4)/U(2)xU(2)", "--trunc", "3"),
    # large chi: the point evaluator does the most work here
    ("class", "--space", "U(5)/T5"),
    ("snumbers", "--space", "U(5)/T5"),
    ("chern", "--space", "U(5)/T5"),
    ("class", "--space", "U(5)/U(1)xU(2)xU(2)"),
    ("snumbers", "--space", "U(5)/U(1)xU(2)xU(2)"),
    ("chern", "--space", "U(5)/U(1)xU(2)xU(2)"),
    # the sign-system search; U(4)/U(2)xU(2) makes 2^20 additions, the default budget
    ("stable", "--space", "CP1"),
    ("stable", "--space", "CP2"),
    ("stable", "--space", "CP3"),
    ("stable", "--space", "G2/SU(3)"),
    ("stable", "--space", "U(4)/U(2)xU(2)"),
    # on non-standard bases, whose signs the search composes with its own
    ("stable", "--space", "CP2", "--signs=1,-1"),
    ("stable", "--space", "CP3", "--signs=1,-1,1"),
    ("stable", "--space", "G2/SU(3)", "--structure", "conjugate"),
    # one table each: passing on CP3 and on an invariant structure of the SU(4)
    # quotient, and failing on a low block, with its residue (no table of CP3
    # or U(3)/T3 cancels its low blocks and fails at the top weight)
    ("stable", "--space", "CP3", "--assign", "assign/cp3.json"),
    ("stable", "--space", M10, "--assign", "assign/m10_j.json"),
    ("stable", "--space", "CP3", "--assign", "assign/cp3_flip.json"),
    # the divided-difference routes, and their usage errors (exit 2)
    *(("flag", "--n", str(n), "--method", m) for n in (2, 3, 4) for m in ("corL", "tchi")),
    ("flag", "--n", "4", "--method", "thm8"),
    ("flag", "--n", "5", "--method", "thm8"),
    ("flag", "--n", "5", "--method", "corL"),
    *(("grassmann", "--q", str(q), "--l", str(l)) for q, l in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2))),
    ("flag", "--n", "3", "--method", "thm8"),
    ("flag", "--n", "1"),
    ("grassmann", "--q", "0", "--l", "2"),
    # the symbolic products that take the longest
    ("verify", "--space", "CP5"),
    ("genus", "--space", "CP5"),
    ("verify", "--space", "U(5)/U(2)xU(3)"),
    ("flag", "--n", "5", "--method", "tchi"),
    ("grassmann", "--q", "3", "--l", "3"),
    # the formal group law; higher orders are pinned by digest below
    *(("fgl", "--trunc", str(t)) for t in range(1, 9)),
    # the published value table, every row's shown value
    ("reproduce",),
    # above rootdata.SPACE_N_LIMIT: refused before the root datum is built
    ("class", "--space", "CP99999999999"),
    ("class", "--space", "CP40"),
    # above character.CHARACTER_COST_LIMIT: refused once the fixed points are listed
    ("verify", "--space", "U(7)/T7"),
    ("genus", "--space", "U(7)/T7"),
    # a key that names no point (CP1 has points 0 and 1) is refused, not dropped
    ("stable", "--space", "CP1", "--assign", "assign/cp1_stray_key.json"),
]

# U(3)/T3 lists 4372 tables, too many for the golden file: pin the sha256 and
# the length of its stdout instead, also on a non-standard basis. CP4 (32
# tables) is the only search within the default budget with five variables
# and a cofactor of degree 6.
STABLE_DIGESTS = [
    ("U(3)/T3", (), "ab9ab5602bf91d52d1b96ae9c32ef8cd23dd8092411174025f31cff8b5e89844", 524657),
    ("U(3)/T3", ("--format", "json"), "fbf4b3317209ef30192aa6debf73e8d22c6a7a4ebaddd0b78be16561c672897d", 415389),
    ("U(3)/T3", ("--signs=1,-1,1",), "11f35b003052936a41e0d24d8a47adb88bcccf7c8e78bd61befd4973e9f8a126", 524657),
    ("U(3)/T3", ("--signs=1,-1,1", "--format", "json"),
     "4f0ea39862d14495fdb57590a82e7adf834bfcd46ac8fa406f58490a6b08b868", 415389),
    ("CP4", (), "29b9c92abe32da1e146e17b20d9a6c94a79927d26726c3b0c099410d63e2a79e", 3855),
    ("CP4", ("--format", "json"), "e234537af666b39a00b8729ccaa9bdeae369edc2a7780526bc18188b86e809bc", 3051),
]

# fgl --trunc 9 to 14 print 6 to 73 kB each: pin the sha256 and the length
FGL_DIGESTS = [
    (9, (), "ede0361fcc3439c6e6051e4694c88643fd43905f783b30d93c4fc7c1803492de", 6041),
    (9, ("--format", "json"), "c0938c21fc91c025bc900d45d0cc68689553c096562a3c1369386e3e9452685a", 6066),
    (10, (), "aa3d91087f62907626d5f4cb933051cad0da44439eedd3942ffff60f29267f81", 10444),
    (10, ("--format", "json"), "d249f2fe6e88f9a897c8200f2aed50e03c6360b446ddf01aa7d494dc8ffc50da", 10470),
    (11, (), "9187efe8768057971f842cce7b859d31e37416537aea8544804a3c6eb9b934e9", 17652),
    (11, ("--format", "json"), "7c2097ab2040da55e433990a42b3a61e3bed05097a53ac8285c839ac33ff2bed", 17678),
    (12, (), "ca532b9db2d09ba4f867745b9501827d92e1824c286075f0564493ff88fa005d", 28883),
    (12, ("--format", "json"), "962c1ea0ccf0d3b212d162a267a1b89413aefb6f2cb95117a832f1b65c8f6c69", 28909),
    (13, (), "4f1ae1c45507b257d419e19969bbe7e55b6a6e5cc9dd3e54dcf657f25bfabfee", 46427),
    (13, ("--format", "json"), "150ef9b967ad097f7bedcbb8d76dc4e4bae15ad88f4889c6f6bcb9f4f28fabd8", 46453),
    (14, (), "1843ea0c9510be8cc102248446f56878f5661ab47e3e86509244f9d66e407a83", 72814),
    (14, ("--format", "json"), "acb04e3376dd34ac8fb54b79f4a82429c68e1cef72cb5ba9ebbb7462504e30a7", 72840),
]


def commands():
    out = []
    for space in SPACES:
        for verb in ("class", "snumbers", "chern"):
            out.append((verb, "--space") + space)
    out += EXTRA
    return [argv + fmt for argv in out for fmt in ((), ("--format", "json"))]


@contextmanager
def chdir(path):
    # contextlib.chdir exists only from Python 3.11
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage to COLUMNS
    with chdir(GOLDEN.parent), patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # an option argparse does not know
            code = exc.code
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


def _digest(argv):
    case = run(argv)
    assert (case["code"], case["stderr"]) == (0, "")
    data = case["stdout"].encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def _stable_id(space, args):
    """The space, any option but --format, then json or text."""
    options = "".join(" " + a for a in args if a.startswith("--") and a != "--format")
    return "%s%s-%s" % (space, options, "json" if "json" in args else "text")


@pytest.mark.parametrize("space, fmt, digest, size", STABLE_DIGESTS,
                         ids=[_stable_id(s, f) for s, f, _, _ in STABLE_DIGESTS])
def test_stable_output_is_pinned(space, fmt, digest, size):
    assert _digest(("stable", "--space", space) + fmt) == (digest, size)


@pytest.mark.parametrize("trunc, fmt, digest, size", FGL_DIGESTS,
                         ids=["%d-%s" % (t, "json" if f else "text") for t, f, _, _ in FGL_DIGESTS])
def test_fgl_output_is_pinned(trunc, fmt, digest, size):
    assert _digest(("fgl", "--trunc", str(trunc)) + fmt) == (digest, size)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(a) for a in commands()], indent=1) + "\n")
    sys.exit(0)
