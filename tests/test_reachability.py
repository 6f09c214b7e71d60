"""src/torigen holds only what a verb runs.

The walk starts from the names in cli.main, from the functions that the verb
table cli.VERBS names by string, and from the names in the module-level
statements of every module in the package (the `if __name__ == "__main__"`
block included; import statements excluded). A top-level function or class,
or a method, is reached when its name is used, as a bare name or as an
attribute, in code already reached; the walk then takes in the names its own
code uses. A reached class brings its bases, decorators, class-level
statements and dunder methods with it; its other methods must be reached by
name. The walk goes by name, not by type, so a method that shares its name
with a reached one passes too: a Series.coeff would pass beside the
reached CobordismPoly.coeff. Code that only tests need belongs in
tests/reference.py: the symbolic kernel and character there are the oracle
of the point engine, and no module of the package imports or defines them.

A name that a module imports and never uses fails as well.
"""

import ast
from pathlib import Path

import torigen

SRC = Path(torigen.__file__).resolve().parent


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(modules):
    """{name: [(label, node, is_class)]} over top-level functions and classes
    and the non-dunder methods of top-level classes."""
    defs = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(
                    ("%s.%s" % (mod, node.name), node, isinstance(node, ast.ClassDef)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        defs.setdefault(item.name, []).append(
                            ("%s.%s.%s" % (mod, node.name, item.name), item, False))
    return defs


def _names(nodes):
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _own_code(node, is_class):
    """The nodes whose names a reached definition uses."""
    if not is_class:
        return [node]
    code = node.bases + node.keywords + node.decorator_list
    return code + [item for item in node.body
                   if not isinstance(item, ast.FunctionDef) or _is_dunder(item.name)]


def verb_functions(modules):
    """The function names in cli's VERBS table: each entry is (help, module,
    function, reads a space, arguments), the module and the function as
    strings, since main imports the module only for the verb that runs."""
    for node in modules["cli"].body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["VERBS"]:
            return {entry.elts[2].value for entry in node.value.values}
    raise AssertionError("cli defines no VERBS table")


def unreached(modules):
    defs = _definitions(modules)
    roots = [node for tree in modules.values() for node in tree.body
             if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
    todo = _names(roots) | {"main"} | verb_functions(modules)
    seen = set()
    reached = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for label, node, is_class in defs.get(name, ()):
            reached.add(label)
            todo |= _names(_own_code(node, is_class)) - seen
    return sorted({label for entries in defs.values() for label, _, _ in entries} - reached)


def unused_imports(modules):
    out = []
    for mod, tree in modules.items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append("%s: %s" % (mod, name))
    return out


def test_every_definition_is_reached_from_a_verb():
    missing = unreached(_modules())
    assert not missing, "reached by no verb:\n" + "\n".join(missing)


def test_every_import_is_used():
    unused = unused_imports(_modules())
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# the symbolic kernel and character, the oracle of the point engine
ORACLE_MODULES = {"exactalg", "reference"}
ORACLE_NAMES = {"MultiPoly", "f_product_sum", "exact_div_terms",
                "localization_data", "character_numerator", "chern_character_of_genus",
                "class_of_character", "symbolic_class"}


def test_no_verb_reaches_the_oracle():
    # the oracle lives in tests/reference.py: no module of the package is
    # named after it or imports it, and none defines its names
    modules = _modules()
    assert not set(modules) & ORACLE_MODULES
    imported = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Import):
                imported |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    assert not imported & ORACLE_MODULES
    assert not set(_definitions(modules)) & ORACLE_NAMES


def _parse(**sources):
    return {mod: ast.parse(text) for mod, text in sources.items()}


def test_walk_lists_what_no_verb_reaches():
    mods = _parse(cli='''
from .alg import Poly

VERBS = {}

def main():
    return Poly().add(helper())

def helper():
    return 1

def orphan():
    return helper()
''', alg='''
class Poly:
    def __init__(self):
        self.terms = {}

    def add(self, other):
        return self

    def evaluate(self, point):
        return 0

class Unused:
    def __repr__(self):
        return "Unused"
''')
    # dunder methods come with their class, so Unused.__repr__ is not listed
    # apart from Unused
    assert unreached(mods) == ["alg.Poly.evaluate", "alg.Unused", "cli.orphan"]


def test_walk_starts_at_module_level_statements():
    mods = _parse(cli='''
VERBS = {}

def main():
    return 0

def only_at_top():
    return 1

def only_under_main_guard():
    return 2

TABLE = only_at_top()

if __name__ == "__main__":
    only_under_main_guard()
''')
    assert unreached(mods) == []


def test_walk_goes_by_name():
    # a reached name reaches every definition of that name, in any class:
    # nothing builds a Series, yet Series.permute passes beside Poly.permute
    mods = _parse(cli='''
VERBS = {}

class Series:
    def permute(self, perm):
        return self

class Poly:
    def permute(self, perm):
        return self

def main():
    return Poly().permute((1, 0))
''')
    assert unreached(mods) == ["cli.Series"]


def test_walk_follows_the_verb_table():
    # a verb's function is named by string, in the module that runs it; a
    # cmd_ function that no entry names is still listed
    mods = _parse(cli='''
VERBS = {
    "show": ("show it", "cli", "cmd_show", False, ()),
    "draw": ("draw it", "art", "cmd_draw", True, (("--size", {"type": int}),)),
}

def main():
    return 0

def cmd_show(args):
    return 0

def cmd_hide(args):
    return 0
''', art='''
def cmd_draw(args):
    return brush()

def brush():
    return 1

def cmd_erase(args):
    return 0
''')
    assert verb_functions(mods) == {"cmd_show", "cmd_draw"}
    assert unreached(mods) == ["art.cmd_erase", "cli.cmd_hide"]


def test_unused_import_is_listed():
    mods = _parse(alg='''
import json
from itertools import permutations, product
from .exactalg import MultiPoly as MP

def pairs(xs):
    return list(product(xs, xs)), MP
''')
    assert unused_imports(mods) == ["alg: json", "alg: permutations"]
