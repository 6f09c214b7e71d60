"""Command-line front end and regression driver.

Verbs: class, genus, snumbers, chern, verify, flag, grassmann, stable, fgl,
reproduce. Text output uses the canonical polynomial rendering so golden
files stay diff-stable; --format json emits deterministic JSON (sorted keys).
Exit codes: 0 success, 1 check failure, 2 usage error, 141 when standard
output was closed before the output was written.

A verb is a function cmd_VERB(args, spec) that returns (text, data,
exit_code) and writes nothing: spec is the space that --space names when the
verb reads one, and None otherwise; data is what --format json writes, and
None when text is the output in either format. main builds the space, runs
the verb and writes its output, so no other module imports this one.

A call compiles only what its verb runs. This module holds main and the
parser; every verb lives in the module whose work it runs, which VERBS
names, and main imports that module only for the verb that runs and calls
its cmd_VERB. A verb named first gets a parser of its own, and each verb
imports inside its function what it needs: class, snumbers and chern load
genus and never character. At exit the interpreter's remaining objects are
frozen out of the garbage collector, so shutdown does not walk them; a
caller that imports cli keeps normal collection until then.
"""

import argparse
import atexit
import gc
import json
import os
import sys
from importlib import import_module

from . import CheckFailure, SpaceGrammarError

atexit.register(gc.freeze)

# verb: (help, the module whose cmd_VERB runs it, whether it reads a space,
# its own arguments)
VERBS = {
    "class": ("cobordism class", "genus", True, ()),
    "genus": ("full genus report", "character", True, ()),
    "snumbers": ("s_omega characteristic numbers", "genus", True,
                 (("--omega", {"help": "single omega, e.g. 0,0,0,1"}),
                  ("--numeric", {"help": "evaluate at an integer point, e.g. 1,2,3,4"}))),
    "chern": ("classical Chern numbers", "genus", True, ()),
    "verify": ("run consistency checks for a space", "character", True, ()),
    "flag": ("[U(n)/T^n] by Schubert calculus", "divdiff", False,
             (("--n", {"type": int, "required": True}),
              ("--method", {"choices": ("corL", "tchi", "thm8"), "default": "corL",
                            "help": "tchi is corL's read of the same product"}))),
    "grassmann": ("[G_{q+l,l}] by the operator L", "divdiff", False,
                  (("--q", {"type": int, "required": True}), ("--l", {"type": int, "required": True}))),
    "stable": ("equivariant stable complex structures", "stablex", True,
               (("--assign", {"help": "JSON file {coset_index: [signs], epsilon}"}),
                ("--budget", {"type": int, "default": 1 << 20}))),
    "fgl": ("formal group law of geometric cobordisms", "fgl", False,
            (("--trunc", {"type": int}),)),
    "reproduce": ("recompute the published value table", "reproduce", False, ()),
}

# the spaces --space accepts, in the help epilog and after a grammar error
SPACE_GRAMMAR = '"CPn", "U(n)/Tn", "U(n)/U(k1)x...xU(km)", "G2/SU(3)", "SU(4)/S(U(1)xU(1)xU(2))"'


def _build_space(args):
    from . import rootdata
    signs = None if args.signs is None else rootdata.int_list("--signs", args.signs)
    return rootdata.build_space(args.space, structure=args.structure, signs=signs)


def _emit(args, text, data):
    """Write a verb's output: data as JSON under --format json, text
    otherwise; data None means text is the output in either format. The
    output is flushed here, so a closed standard output fails in main."""
    if data is not None and args.format == "json":
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    print(text, flush=True)


def _arguments(parser, verb):
    """parser, given the arguments of verb."""
    _, _, space, extra = VERBS[verb]
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
    _, module, space, _ = VERBS[args.verb]
    verb = getattr(import_module("." + module, __package__), "cmd_" + args.verb)
    try:
        text, data, code = verb(args, _build_space(args) if space else None)
        _emit(args, text, data)
        return code
    except SpaceGrammarError as exc:
        print("error: %s" % exc, file=sys.stderr)
        print("space grammar: %s" % SPACE_GRAMMAR, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of standard output has gone, which is no usage error:
        # what is still buffered goes to the null device, so the flush at
        # exit cannot fail again, and the status is the shell's for a
        # writer ended by SIGPIPE
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
