"""What a fresh interpreter loads and how it exits, verb by verb.

In-process tests run with every torigen module already imported, so they
cannot see which modules a verb needs or whether the command line still
picks the right exit code without them. These tests start a new
interpreter for each command.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import torigen
from torigen import cli, stablex

from test_golden_localize import STABLE_DIGESTS

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


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def _python(*args):
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True, text=True, timeout=120)


def _modules(code, *argv, exit_code=0):
    proc = _python("-c", code, *argv)
    assert proc.returncode == exit_code, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded(*argv, exit_code=0):
    """The torigen modules, without the package prefix, that one command loads."""
    return {name[len("torigen."):] for name in _modules(RUN_AND_LIST, *argv, exit_code=exit_code)
            if name.startswith("torigen.")}


# the modules of every verb but class, snumbers and chern
OTHER_VERBS = {"character", "divdiff", "stablex", "fgl", "reproduce"}


@pytest.mark.parametrize("verb", ["class", "snumbers", "chern"])
def test_certified_point_route_loads_no_symbolic_engine(verb):
    # a table that the certificate passes compiles no residues either
    loaded = _loaded(verb, "--space", "CP5", "--format", "json")
    assert "genus" in loaded
    assert not loaded & (OTHER_VERBS | {"residues"})


@pytest.mark.parametrize("argv", [("verify", "--space", "CP2"), ("genus", "--space", "U(3)/T3")], ids=" ".join)
def test_certified_character_route_loads_no_residues(argv):
    # the character and verify's a-series route read the fixed points
    # alone; only a table that the certificate does not pass reads residues
    loaded = _loaded(*argv)
    assert "character" in loaded and "residues" not in loaded


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_every_verb_resolves_to_a_function(verb):
    # one rule finds every verb: cmd_VERB in the module its entry names. cli
    # defines no verb and looks none up among its own names
    assert len(cli.VERBS[verb]) == 4
    _, module, _, _ = cli.VERBS[verb]
    assert callable(getattr(import_module("torigen." + module), "cmd_" + verb))
    tree = ast.parse(Path(cli.__file__).read_text())
    assert not [node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "globals"]


@pytest.mark.parametrize("argv, module", [(("verify", "--space", "CP2"), "character"),
                                          (("stable", "--space", "CP1"), "stablex"),
                                          (("reproduce",), "reproduce")], ids=("verify", "stable", "reproduce"))
def test_a_verb_loads_its_own_module(argv, module):
    assert module in _loaded(*argv)


def test_module_run_loads_cli_once():
    # python -m runs cli.py as __main__; a module that imported cli back
    # would load the file a second time, under its own name.
    # -X importtime lists what import statements load, so the verb's module
    # itself, which main loads by importlib.import_module, is not listed,
    # but genus, which it imports, is
    proc = _python("-X", "importtime", "-m", "torigen.cli", "verify", "--space", "CP3")
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "torigen.genus" in imported
    assert "torigen.cli" not in imported


def test_collection_stays_on_until_exit():
    # importing cli freezes nothing; its exit hook, registered after this
    # one and so run before it, freezes what is left. The counts are taken
    # against the one before the import, as CPython 3.12 starts with objects
    # already frozen
    code = ("import atexit, gc, json\n"
            "before = gc.get_freeze_count()\n"
            "atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count() > before])))\n"
            "from torigen import cli\n"
            "print(json.dumps([gc.isenabled(), gc.get_freeze_count() - before]))\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[true, 0]", "[true, true]"]


def test_library_modules_load_no_command_line():
    # no verb's module imports cli, so importing the library registers no
    # exit hook and loads no argparse
    loaded = _modules("import json, sys, torigen.character, torigen.divdiff, torigen.fgl, "
                      "torigen.reproduce, torigen.stablex; print(json.dumps(sorted(sys.modules)))")
    assert not loaded & {"torigen.cli", "argparse"}


def test_streamed_tables_survive_the_exit_hook():
    # stable's listing is 415 kB of JSON; a fresh interpreter must print
    # all of it, as the golden digest pins, before it exits
    proc = _python("-m", "torigen.cli", "stable", "--space", "U(3)/T3", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    data = proc.stdout.encode()
    digest, size = next((d, n) for sp, fmt, d, n in STABLE_DIGESTS if (sp, fmt) == ("U(3)/T3", ("--format", "json")))
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)


def test_integral_point_values_load_no_fractions():
    # an integral table makes no Fraction; whatever the interpreter loads at
    # start-up (site, .pth files) is left out of the comparison
    bare = _modules("import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert "fractions" not in _modules(RUN_AND_LIST, "class", "--space", "CP5") - bare


@pytest.mark.parametrize("argv", [("flag", "--n", "4"), ("stable", "--space", "CP2"), ("verify", "--space", "CP3"),
                                  ("genus", "--space", "U(3)/T3"), ("reproduce",)], ids=" ".join)
def test_kernel_verbs_load_no_fractions(argv):
    # every division by a common denominator goes through genus.exact, which
    # loads fractions only for a value that is not integral; the character,
    # the divided differences and the sign search make no Fraction on these
    bare = _modules("import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert "fractions" not in _modules(RUN_AND_LIST, *argv) - bare


def test_stable_search_loads_no_kernel():
    # the search reads the certificate's line groups and one point; --assign
    # takes the route of class, and a table that the certificate does not
    # decide is read by genus's residues, so no stable run loads character
    loaded = _loaded("stable", "--space", "CP3")
    assert "stablex" in loaded
    assert "character" not in loaded
    assign = Path(__file__).with_name("assign")
    for space, name in (("CP3", "cp3.json"), ("SU(4)/S(U(1)xU(1)xU(2))", "m10_j.json")):
        assert not _loaded("stable", "--space", space, "--assign", str(assign / name)) & {"character", "residues"}
    flip = _loaded("stable", "--space", "CP3", "--assign", str(assign / "cp3_flip.json"), exit_code=1)
    assert "residues" in flip and "character" not in flip


def test_stablex_imports_no_kernel():
    # not at module level and not inside a function; of residues, only
    # _ResidueLine and only inside enumerate_feasible, so --assign loads none
    tree = ast.parse(Path(stablex.__file__).read_text())
    imported, from_residues = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
            if node.module == "residues":
                from_residues.append(node)
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name.rsplit(".", 1)[-1] for name in imported if name} & {"character", "residue_rows"}
    search = next(node for node in tree.body if getattr(node, "name", None) == "enumerate_feasible")
    assert [[alias.name for alias in node.names] for node in from_residues] == [["_ResidueLine"]]
    assert from_residues[0] in list(ast.walk(search))


def test_only_cli_imports_cli():
    # a verb returns its output and cli writes it, so no other module needs
    # cli's helpers, and python -m torigen.cli loads cli once
    package = Path(torigen.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = ".".join(["torigen"] + [node.module] * bool(node.module)) if node.level else node.module
                names = {base} | {base + "." + alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            if "torigen.cli" in names:
                importers.add(path.stem)
    assert importers == set()


# the smallest input of every verb
SMALL = {"class": ("--space", "CP1"), "genus": ("--space", "CP1"), "snumbers": ("--space", "CP1"),
         "chern": ("--space", "CP1"), "verify": ("--space", "CP1"), "flag": ("--n", "2"),
         "grassmann": ("--q", "1", "--l", "1"), "stable": ("--space", "CP1"), "fgl": ("--trunc", "2"),
         "reproduce": ()}


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_every_verb_returns_its_output(verb, capsys):
    _, module, space, _ = cli.VERBS[verb]
    args = cli._parse([verb, *SMALL[verb]])
    result = getattr(import_module("torigen." + module), "cmd_" + verb)(args, cli._build_space(args) if space else None)
    assert capsys.readouterr().out == ""
    text, data, code = result
    assert (type(text), type(data), type(code)) == (str, type(None) if verb == "stable" else dict, int)
    assert code == 0


def test_flag_loads_no_localization():
    loaded = _loaded("flag", "--n", "3")
    assert "divdiff" in loaded
    assert not loaded & {"genus", "rootdata", "stablex", "fgl", "reproduce"}


@pytest.mark.parametrize("argv", [("flag", "--n", "3"), ("grassmann", "--q", "2", "--l", "2")], ids=" ".join)
def test_divided_differences_load_no_kernel(argv):
    # the block read works on packed big ints of its own, with no root datum
    loaded = _loaded(*argv)
    assert "divdiff" in loaded
    assert not loaded & {"character", "rootdata"}


def test_fgl_loads_no_kernel():
    loaded = _loaded("fgl", "--trunc", "4")
    assert {"fgl", "cobordism"} <= loaded
    assert not loaded & {"character", "genus", "divdiff", "stablex", "reproduce"}


def test_chern_module_loads_no_kernel():
    # s_to_chern tests integrality by .denominator, so no cobordism either
    loaded = _modules("import json, sys, torigen.chern; print(json.dumps(sorted(sys.modules)))")
    assert not {"torigen.character", "torigen.genus", "torigen.cobordism"} & loaded


@pytest.mark.parametrize("argv, code, message", [
    (("stable", "--space", "CP5"), 1, "error: 2^25 additions and lookups exceed budget 1048576"),
    (("class", "--space", "CP2", "--signs=1,-1"), 1, "error: block omega=[1, 0] has a pole: residue 2 at "),
    (("class", "--space", "U(4)/U(2)xU(3)"), 2, "error: subgroup blocks sum to 5, expected 4"),
], ids=["stable-budget", "signs-with-poles", "grammar"])
def test_exit_codes_in_a_fresh_interpreter(argv, code, message):
    proc = _python("-m", "torigen.cli", *argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(message)
    assert "Traceback" not in proc.stderr


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # stable's 0.5 MB of tables do not fit in a pipe: once the reader has
    # read one line and gone, the next write fails. That is no usage error:
    # the status is the shell's for SIGPIPE, and nothing is printed
    proc = subprocess.Popen([sys.executable, "-m", "torigen.cli", "stable", "--space", "U(3)/T3"], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"admissible: 4372\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_a_reader_gone_before_the_output_ends_the_run_quietly():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "torigen.cli", "class", "--space", "CP3"], env=_env(),
                              stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv, stream, line", [
    (("class", "--space", "CP2", "--signs=1,-1"), "stderr",
     "error: block omega=[1, 0] has a pole: residue 2 at (6, 3, 6) on x1 - x3 = 0"),
    (("stable", "--space", "CP3", "--assign", str(Path(__file__).with_name("assign") / "cp3_flip.json")), "stdout",
     "FAIL at omega=[1]: residue -1/6 at (4, 8, 16, 16) on x3 - x4 = 0"),
], ids=["class", "stable-assign"])
def test_pole_tables_print_the_residue(argv, stream, line):
    # a table whose sum has poles: one line naming the block, the residue,
    # the point and the line, exit 1, and no traceback
    proc = _python("-m", "torigen.cli", *argv)
    assert proc.returncode == 1
    assert getattr(proc, stream).splitlines() == [line]
    assert "Traceback" not in proc.stderr
