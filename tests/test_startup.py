"""What a fresh interpreter loads and how it exits, verb by verb.

In-process tests run with every torigen module already imported, so they
cannot see which modules a verb needs or whether the command line still
picks the right exit code without them. These tests start a new
interpreter for each command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torigen

SRC = str(Path(torigen.__file__).resolve().parent.parent)

# runs the command line as `python -m torigen.cli` would, then prints the
# modules loaded as the last line of standard output
RUN_AND_LIST = """\
import json, sys
from torigen import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _modules(code, *argv):
    proc = _python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded(*argv):
    """The torigen modules, without the package prefix, that one command loads."""
    return {name[len("torigen."):] for name in _modules(RUN_AND_LIST, *argv) if name.startswith("torigen.")}


SYMBOLIC = {"exactalg", "divdiff", "stablex", "fgl", "reproduce"}


@pytest.mark.parametrize("verb", ["class", "snumbers", "chern"])
def test_certified_point_route_loads_no_symbolic_engine(verb):
    loaded = _loaded(verb, "--space", "CP5", "--format", "json")
    assert "genus" in loaded
    assert not loaded & SYMBOLIC


def test_integral_point_values_load_no_fractions():
    # an integral table makes no Fraction; whatever the interpreter loads at
    # start-up (site, .pth files) is left out of the comparison
    bare = _modules("import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert "fractions" not in _modules(RUN_AND_LIST, "class", "--space", "CP5") - bare


def test_flag_loads_no_localization():
    loaded = _loaded("flag", "--n", "3")
    assert "divdiff" in loaded
    assert not loaded & {"genus", "stablex", "fgl", "reproduce"}


def test_chern_module_loads_no_kernel():
    assert "torigen.exactalg" not in _modules("import json, sys, torigen.chern; "
                                              "print(json.dumps(sorted(sys.modules)))")


@pytest.mark.parametrize("argv, code, message", [
    (("stable", "--space", "U(4)/U(2)xU(2)"), 1, "error: 2^24 candidates exceed budget 1048576"),
    (("class", "--space", "CP2", "--signs=1,-1"), 1, "error: degree-2 numerator block does not cancel"),
    (("class", "--space", "U(4)/U(2)xU(3)"), 2, "error: subgroup blocks sum to 5, expected 4"),
], ids=["stable-budget", "signs-with-poles", "grammar"])
def test_exit_codes_in_a_fresh_interpreter(argv, code, message):
    proc = _python("-m", "torigen.cli", *argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(message)
    assert "Traceback" not in proc.stderr
