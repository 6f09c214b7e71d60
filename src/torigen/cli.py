"""Command-line front end and regression driver.

Verbs: class, genus, snumbers, chern, verify, flag, grassmann, stable, fgl,
reproduce. Text output uses the canonical polynomial rendering so golden
files stay diff-stable; --format json emits deterministic JSON (sorted keys).
Exit codes: 0 success, 1 check failure, 2 usage error.

A verb is a function cmd_VERB(args, spec) that returns (text, data,
exit_code) and writes nothing: spec is the space that --space names when the
verb reads one, and None otherwise; data is what --format json writes, and
None when text is the output in either format. main builds the space, runs
the verb and writes its output, so no other module imports this one.

A call compiles only what its verb runs. This module holds main, the parser
and the three verbs of the point route (class, snumbers, chern); every other
verb lives in the module whose work it runs, and VERBS names that module and
the function. main imports the module only for the verb that runs, a verb
named first gets a parser of its own, and each verb imports inside its
function what it needs: class, snumbers and chern load genus and never
character. At exit the interpreter's remaining objects are frozen out of the
garbage collector, so shutdown does not walk them; a caller that imports cli
keeps normal collection until then.
"""

import argparse
import atexit
import gc
import json
import sys
from importlib import import_module

from . import CheckFailure, SpaceGrammarError

atexit.register(gc.freeze)

# verb: (help, the module and the function that run it, whether it reads a
# space, its own arguments)
VERBS = {
    "class": ("cobordism class", "cli", "cmd_class", True, ()),
    "genus": ("full genus report", "character", "cmd_genus", True, ()),
    "snumbers": ("s_omega characteristic numbers", "cli", "cmd_snumbers", True,
                 (("--omega", {"help": "single omega, e.g. 0,0,0,1"}),
                  ("--numeric", {"help": "evaluate at an integer point, e.g. 1,2,3,4"}))),
    "chern": ("classical Chern numbers", "cli", "cmd_chern", True, ()),
    "verify": ("run consistency checks for a space", "character", "cmd_verify", True, ()),
    "flag": ("[U(n)/T^n] by Schubert calculus", "divdiff", "cmd_flag", False,
             (("--n", {"type": int, "required": True}),
              ("--method", {"choices": ("corL", "tchi", "thm8"), "default": "corL"}))),
    "grassmann": ("[G_{q+l,l}] by the operator L", "divdiff", "cmd_grassmann", False,
                  (("--q", {"type": int, "required": True}), ("--l", {"type": int, "required": True}))),
    "stable": ("equivariant stable complex structures", "stablex", "cmd_stable", True,
               (("--assign", {"help": "JSON file {coset_index: [signs], epsilon}"}),
                ("--budget", {"type": int, "default": 1 << 20}))),
    "fgl": ("formal group law of geometric cobordisms", "fgl", "cmd_fgl", False,
            (("--trunc", {"type": int}),)),
    "reproduce": ("recompute the published value table", "reproduce", "cmd_reproduce", False, ()),
}

# the spaces --space accepts, in the help epilog and after a grammar error
SPACE_GRAMMAR = '"CPn", "U(n)/Tn", "U(n)/U(k1)x...xU(km)", "G2/SU(3)", "SU(4)/S(U(1)xU(1)xU(2))"'


def _ints(option, text):
    """The integers of an option's value, separated by commas or spaces. An
    empty value or comma-separated item (as in "1,,1" or "1,1,"), or a
    token that is not an integer, is a usage error that names the option and
    the value or the token."""
    values = []
    for item in text.split(","):
        if not item.strip():
            raise ValueError("%s takes integers, got %r" % (option, text))
        for tok in item.split():
            try:
                values.append(int(tok))
            except ValueError:
                raise ValueError("%s takes integers, got %r" % (option, tok)) from None
    return tuple(values)


def _build_space(args):
    from . import rootdata
    signs = getattr(args, "signs", None)
    signs = None if signs is None else _ints("--signs", signs)
    return rootdata.build_space(args.space, structure=getattr(args, "structure", None), signs=signs)


def _emit(args, text, data):
    """Write a verb's output: data as JSON under --format json, text
    otherwise; data None means text is the output in either format."""
    if data is not None and args.format == "json":
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    print(text)


def cmd_class(args, spec):
    from . import genus, rootdata
    text = genus.cobordism_class(rootdata.fixed_point_weights(spec)).canonical_text()
    return text, {"space": spec.descriptor, "structure": genus.structure_label(spec), "class": text}, 0


def cmd_snumbers(args, spec):
    from . import genus, rootdata
    from .symmfunc import omega_weight, trim
    fp = rootdata.fixed_point_weights(spec)
    n = len(fp[0].weights)
    omega = None if args.omega is None else _ints("--omega", args.omega)
    if omega is not None and (min(omega, default=0) < 0 or omega_weight(omega) != n):
        raise ValueError("omega %s is not a nonnegative omega of weight %d, the dimension of %s"
                         % (list(omega), n, spec.descriptor))
    if args.numeric is not None:
        point = _ints("--numeric", args.numeric)
        if omega is None:
            raise ValueError("--numeric needs --omega")
        k = len(fp[0].weights[0])
        if len(point) != k:
            raise ValueError("point %s has %d coordinates; the weights of %s have %d"
                             % (list(point), len(point), spec.descriptor, k))
        value = genus.s_number_numeric(fp, omega, point)
        return str(value), {"omega": list(omega), "point": list(point), "value": str(value)}, 0
    table = genus.s_numbers(fp)
    if omega is not None:
        value = table.get(trim(omega), 0)
        return str(value), {"omega": list(omega), "value": value}, 0
    rows = genus.s_table(table, n)
    return "\n".join(genus.s_lines(rows)), {"space": spec.descriptor, "s_numbers": rows}, 0


def cmd_chern(args, spec):
    from . import genus, rootdata
    from .cobordism import CobordismPoly
    from .symmfunc import pad
    fp = rootdata.fixed_point_weights(spec)
    n = len(fp[0].weights)
    table = genus.chern_numbers(fp)
    rows = [(xi, table[xi]) for xi in sorted(table)]
    text = "\n".join("%s = %d" % (CobordismPoly({xi: 1}).canonical_text("c"), v) for xi, v in rows)
    return text, {"space": spec.descriptor, "chern": [{"xi": pad(xi, n), "value": v} for xi, v in rows]}, 0


def _arguments(parser, verb):
    """parser, given the arguments of verb."""
    _, _, _, space, extra = VERBS[verb]
    if space:
        parser.add_argument("--space", required=True, help="space descriptor")
        parser.add_argument("--structure", help="structure preset (standard, conjugate, J1..J3)")
        parser.add_argument("--signs", help="explicit root signs, e.g. 1,-1,1")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    for flag, kwargs in extra:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(verb=verb)
    return parser


def _parse(argv):
    """The arguments of argv. When argv starts with a verb, one parser,
    "torigen VERB", reads the rest with that verb's arguments alone.
    Otherwise the top-level parser reads argv: it takes no option but -h and
    registers every verb, so -h lists them all and the errors for no verb
    or an unknown one name the argument "verb"; the verb that argv names,
    the first token not starting with "-", gets its arguments, so that an
    option placed before it is all the top level reports."""
    if argv and argv[0] in VERBS:
        return _arguments(argparse.ArgumentParser(prog="torigen " + argv[0]), argv[0]).parse_args(argv[1:])
    # a usage line of its own, as argparse wraps the list of verbs
    # differently from one Python to the next
    p = argparse.ArgumentParser(
        prog="torigen", usage="%(prog)s [-h] verb ...",
        description="Exact toric genus, cobordism classes and characteristic "
                    "numbers of homogeneous spaces.",
        epilog="Space grammar: %s." % SPACE_GRAMMAR)
    sub = p.add_subparsers(dest="verb", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for verb, (text, *_) in VERBS.items():
        sp = sub.add_parser(verb, help=text)
        if verb == named:
            _arguments(sp, verb)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    _, module, name, space, _ = VERBS[args.verb]
    fn = globals()[name] if module == "cli" else getattr(import_module("." + module, __package__), name)
    try:
        text, data, code = fn(args, _build_space(args) if space else None)
        _emit(args, text, data)
        return code
    except SpaceGrammarError as exc:
        print("error: %s" % exc, file=sys.stderr)
        print("space grammar: %s" % SPACE_GRAMMAR, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
