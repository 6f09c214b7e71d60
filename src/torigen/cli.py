"""Command-line front end and regression driver.

Verbs: genus, class, snumbers, chern, verify, flag, grassmann, stable, fgl,
reproduce.  Text output uses the canonical polynomial rendering so golden
files stay diff-stable; --format json emits deterministic JSON (sorted keys).
Exit codes: 0 success, 1 check failure, 2 usage error.

Each verb imports the modules it runs inside its cmd_ function, so a run
compiles only those: class, snumbers and chern on a space that the
certificate answers never load the polynomial kernel in exactalg.
"""

import argparse
import json
import os
import sys
from itertools import product

from . import CheckFailure, SpaceGrammarError


def _ints(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _build_space(args):
    from . import rootdata
    signs = _ints(args.signs) if getattr(args, "signs", None) else None
    return rootdata.build_space(args.space, structure=getattr(args, "structure", None), signs=signs)


def _emit(args, text, data):
    if args.format == "json":
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _pad(omega, n):
    return tuple(omega) + (0,) * (n - len(omega))


def _chern_label(xi):
    parts = []
    for i, d in enumerate(xi):
        if d == 1:
            parts.append("c%d" % (i + 1))
        elif d > 1:
            parts.append("c%d^%d" % (i + 1, d))
    return "*".join(parts) if parts else "1"


def _json_poly(p):
    return p.canonical_text()


CACHE_VERSION = 1


def _cache_load(path):
    """The CobordismPoly stored at path; None if absent, corrupt or of another version."""
    from .cobordism import CobordismPoly
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
            return None
        return CobordismPoly({tuple(t["exponents"]): int(t["coefficient"]) for t in raw["terms"]})
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _cache_poly(args, key, compute):
    """Memoize a CobordismPoly as versioned canonical JSON terms under --cache DIR.

    A missing, corrupt or stale entry is recomputed and replaced atomically:
    the entry is written to a temporary file in DIR and renamed over the old one.
    """
    if not args.cache:
        return compute()
    import tempfile
    path = os.path.join(args.cache, key + ".json")
    value = _cache_load(path)
    if value is not None:
        return value
    value = compute()
    os.makedirs(args.cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=args.cache, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"version": CACHE_VERSION,
                       "terms": [{"exponents": list(e), "coefficient": str(c)}
                                 for e, c in sorted(value.terms.items())]}, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return value


def cmd_class(args):
    from . import genus, rootdata
    spec = _build_space(args)
    cls = genus.cobordism_class(rootdata.fixed_point_weights(spec))
    _emit(args, cls.canonical_text(), {"space": spec.descriptor, "structure": genus.structure_label(spec), "class": _json_poly(cls)})
    return 0


def cmd_genus(args):
    from . import genus
    from .cobordism import CobordismPoly
    spec = _build_space(args)
    if args.trunc is not None and not spec.n <= args.trunc <= spec.n + 1:
        raise ValueError("--trunc must be %d or %d on %s, got %d"
                         % (spec.n, spec.n + 1, spec.descriptor, args.trunc))
    report = genus.genus_report(spec, order=args.trunc)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return 0 if all(report["checks"].values()) else 1
    print("space: %s  structure: %s" % (report["space"], report["structure"]))
    cls = CobordismPoly({tuple(row["omega"]): int(row["coeff"]) for row in report["class"]})
    print("class: %s" % cls.canonical_text())
    for row in report["s_numbers"]:
        print("s_%s = %d" % (list(row["omega"]), row["value"]))
    for name, ok in sorted(report["checks"].items()):
        print("check %s: %s" % (name, "ok" if ok else "FAIL"))
    return 0 if all(report["checks"].values()) else 1


def cmd_snumbers(args):
    from . import genus, rootdata
    from .symmfunc import omega_weight, trim
    spec = _build_space(args)
    fp = rootdata.fixed_point_weights(spec)
    n = len(fp[0].weights)
    omega = _ints(args.omega) if args.omega else None
    if omega is not None and (min(omega, default=0) < 0 or omega_weight(omega) != n):
        raise ValueError("omega %s is not a nonnegative omega of weight %d, the dimension of %s"
                         % (list(omega), n, spec.descriptor))
    if args.numeric:
        point = _ints(args.numeric)
        if omega is None:
            raise ValueError("--numeric needs --omega")
        k = len(fp[0].weights[0])
        if len(point) != k:
            raise ValueError("point %s has %d coordinates; the weights of %s have %d"
                             % (list(point), len(point), spec.descriptor, k))
        value = genus.s_number_numeric(fp, omega, point)
        _emit(args, str(value), {"omega": list(omega), "point": list(point), "value": str(value)})
        return 0
    table = genus.s_numbers(fp)
    if omega is not None:
        value = table.get(trim(omega), 0)
        _emit(args, str(value), {"omega": list(omega), "value": value})
        return 0
    rows = [(list(_pad(om, n)), v) for om, v in sorted(table.items())]
    text = "\n".join("s_%s = %d" % (om, v) for om, v in rows)
    _emit(args, text, {"space": spec.descriptor, "s_numbers": [{"omega": om, "value": v} for om, v in rows]})
    return 0


def cmd_chern(args):
    from . import genus, rootdata
    spec = _build_space(args)
    fp = rootdata.fixed_point_weights(spec)
    n = len(fp[0].weights)
    table = genus.chern_numbers(fp)
    rows = [(xi, table[xi]) for xi in sorted(table)]
    text = "\n".join("%s = %d" % (_chern_label(_pad(xi, n)), v) for xi, v in rows)
    _emit(args, text, {"space": spec.descriptor,
                       "chern": [{"xi": list(_pad(xi, n)), "value": v} for xi, v in rows]})
    return 0


def cmd_verify(args):
    from . import genus, rootdata
    from .chern import chern_to_s
    spec = _build_space(args)
    fp = rootdata.fixed_point_weights(spec)
    n = len(fp[0].weights)
    checks = {}
    # one symbolic character: building it raises SingularSum unless the low
    # blocks cancel, and its degree-0 block is the class
    ch = genus.chern_character_of_genus(fp, n + 1)
    checks["low_vanishing"] = True
    cls = genus.class_of_character(ch, n)
    checks["class_integral"] = cls.is_integral() and cls.is_homogeneous(n)
    # two independent routes: the symbolic class against the point-evaluated
    # table, and that table against the sum at a second point
    chern = genus.chern_numbers(fp)
    table = chern_to_s(chern, n)
    # a failed comparison names its first offending omega or xi and both values
    evidence = {}
    bad = [om for om in sorted(table) if cls.coeff(om) != table[om]]
    checks["class_matches_s"] = not bad
    if bad:
        evidence["class_matches_s"] = {"omega": list(_pad(bad[0], n)), "symbolic": str(cls.coeff(bad[0])),
                                       "point": str(table[bad[0]])}
    # c_n[M] = sum_p sign(p): -chi for a conjugate structure of odd n
    checks["euler"] = table.get((n,), 0) == sum(pt.sign for pt in fp)
    checks["weyl_invariance"] = genus.weyl_invariance_ok(spec, ch)
    second = genus.point_chern_numbers(fp, genus.second_numeric_point(fp))
    bad = [xi for xi in sorted(set(chern) | set(second)) if chern.get(xi) != second.get(xi)]
    checks["numeric_agreement"] = not bad
    if bad:
        evidence["numeric_agreement"] = {"xi": list(_pad(bad[0], n)), "default_point": str(chern.get(bad[0])),
                                         "second_point": str(second.get(bad[0]))}
    ok = all(checks.values())
    lines = []
    for k, v in sorted(checks.items()):
        lines.append("check %s: %s" % (k, "ok" if v else "FAIL"))
        if k in evidence:
            lines[-1] += " at " + ", ".join("%s=%s" % kv for kv in evidence[k].items())
    data = {"space": spec.descriptor, "structure": genus.structure_label(spec), "checks": checks, "ok": ok}
    if evidence:
        data["evidence"] = evidence
    _emit(args, "\n".join(lines), data)
    return 0 if ok else 1


# flag --n 6 takes 10-14 s and peaks at about 225 MB (165 MB by thm8); n + 1
# multiplies n more factors, to an order n higher
FLAG_N_LIMIT = 6


def cmd_flag(args):
    if args.n > FLAG_N_LIMIT:
        raise ValueError("--n must be at most %d, got %d" % (FLAG_N_LIMIT, args.n))
    from . import divdiff
    cls = _cache_poly(args, "flag_%d_%s" % (args.n, args.method),
                      lambda: divdiff.flag_class(args.n, args.method))
    _emit(args, cls.canonical_text(), {"n": args.n, "method": args.method, "class": _json_poly(cls)})
    return 0


# grassmann (3,3) takes 0.8 s, (1,6) 1.1 s and (2,4) 0.4 s; (2,5) takes 17.5 s
# and 300 MB, (1,7) 28 s and 650 MB, and (1,8) and (4,4) run out of a 1.5 GB
# address space. The top blocks have weight q*l, and the base
# Delta_q * Delta_{q+1,q+l} has q! * l! terms, so both are bounded.
GRASSMANN_QL_LIMIT = 9
GRASSMANN_SIDE_LIMIT = 6


def cmd_grassmann(args):
    if args.q * args.l > GRASSMANN_QL_LIMIT:
        raise ValueError("--q times --l must be at most %d, got %d" % (GRASSMANN_QL_LIMIT, args.q * args.l))
    if max(args.q, args.l) > GRASSMANN_SIDE_LIMIT:
        raise ValueError("--q and --l must be at most %d, got %d"
                         % (GRASSMANN_SIDE_LIMIT, max(args.q, args.l)))
    from . import divdiff
    cls = _cache_poly(args, "grassmann_%d_%d" % (args.q, args.l),
                      lambda: divdiff.grassmann_class(args.q, args.l))
    _emit(args, cls.canonical_text(), {"q": args.q, "l": args.l, "class": _json_poly(cls)})
    return 0


def cmd_stable(args):
    from . import rootdata, stablex
    from .exactalg import MultiPoly
    spec = _build_space(args)
    if args.assign:
        with open(args.assign) as fh:
            assign = stablex.assignment_from_json(json.load(fh), spec)
        report = stablex.check_necessary(spec, assign)
        if report.ok:
            table = stablex.s_numbers_for(spec, assign)
            n = len(next(iter(rootdata.fixed_point_weights(spec))).weights)
            rows = [(list(_pad(om, n)), v) for om, v in sorted(table.items())]
            text = "PASS\n" + "\n".join("s_%s = %d" % (om, v) for om, v in rows)
            _emit(args, text, {"ok": True, "s_numbers": [{"omega": om, "value": v} for om, v in rows]})
            return 0
        value = report.value.canonical_text() if isinstance(report.value, MultiPoly) else str(report.value)
        _emit(args, "FAIL at omega=%s: %s" % (list(report.omega), value),
              {"ok": False, "omega": list(report.omega), "value": value})
        return 1
    sols = stablex.enumerate_feasible(spec, budget=args.budget)
    _write_tables(args, spec, sols)
    return 0


def _write_tables(args, spec, sols):
    """Write the tables one at a time, as _emit would write the list of
    {coset_index: [signs], "epsilon": e}, keys sorted as strings ("10" before
    "2"): U(3)/T3 lists 4372 of them. Each table is joined from the JSON
    texts of the 2^n sign vectors, made once."""
    compact = args.format == "json"
    item, colon = (",", ":") if compact else (", ", ": ")
    texts = {v: json.dumps(v, separators=(item, colon)) for v in product((1, -1), repeat=spec.n)}
    keys = [(p, '"%d"%s' % (p, colon)) for p in sorted(range(len(sols[0].table) if sols else 0), key=str)]
    write = sys.stdout.write
    write('{"assignments":[' if compact else "admissible: %d" % len(sols))
    for i, sol in enumerate(sols):
        row = item.join([k + texts[sol.table[p]] for p, k in keys])
        sep = ("," if i else "") if compact else "\n"
        write('%s{%s%s"epsilon"%s%d}' % (sep, row, item, colon, sol.epsilon))
    write('],"count":%d,"space":%s}\n' % (len(sols), json.dumps(spec.descriptor)) if compact else "\n")


# fgl --trunc 24 takes about half a minute and prints 3 MB; the cost grows
# about fourfold per four orders
FGL_TRUNC_LIMIT = 24


def cmd_fgl(args):
    order = 4 if args.trunc is None else args.trunc
    if order < 1:
        raise ValueError("--trunc must be at least 1, got %d" % order)
    if order > FGL_TRUNC_LIMIT:
        raise ValueError("--trunc must be at most %d, got %d" % (FGL_TRUNC_LIMIT, order))
    from . import fgl
    text = fgl.fgl_addition(order).canonical_text("b")
    _emit(args, text, {"order": order, "addition": text})
    return 0


def cmd_reproduce(args):
    from .reproduce import reproduce_table
    ok, results = reproduce_table()
    if args.format == "json":
        print(json.dumps(
            {"ok": ok, "rows": [{"name": n, "ok": o, "value": s} for n, o, s in results]},
            sort_keys=True, separators=(",", ":")))
    else:
        for name, row_ok, shown in results:
            print("%-28s %s  %s" % (name, "PASS" if row_ok else "FAIL", shown))
        print("%d/%d rows pass" % (sum(1 for _, o, _ in results if o), len(results)))
    return 0 if ok else 1


def _parser():
    p = argparse.ArgumentParser(
        prog="torigen",
        description="Exact toric genus, cobordism classes and characteristic "
                    "numbers of homogeneous spaces.",
        epilog='Space grammar: "CPn", "U(n)/Tn", "U(n)/U(k1)x...xU(km)", '
               '"G2/SU(3)", "SU(4)/S(U(1)xU(1)xU(2))".')
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, space=True):
        if space:
            sp.add_argument("--space", required=True, help="space descriptor")
            sp.add_argument("--structure", help="structure preset (standard, conjugate, J1..J3)")
            sp.add_argument("--signs", help="explicit root signs, e.g. 1,-1,1")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("class", help="cobordism class")
    common(sp)
    sp.set_defaults(fn=cmd_class)

    sp = sub.add_parser("genus", help="full genus report")
    common(sp)
    sp.add_argument("--trunc", type=int, help="character truncation order")
    sp.set_defaults(fn=cmd_genus)

    sp = sub.add_parser("snumbers", help="s_omega characteristic numbers")
    common(sp)
    sp.add_argument("--omega", help="single omega, e.g. 0,0,0,1")
    sp.add_argument("--numeric", help="evaluate at an integer point, e.g. 1,2,3,4")
    sp.set_defaults(fn=cmd_snumbers)

    sp = sub.add_parser("chern", help="classical Chern numbers")
    common(sp)
    sp.set_defaults(fn=cmd_chern)

    sp = sub.add_parser("verify", help="run consistency checks for a space")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("flag", help="[U(n)/T^n] by Schubert calculus")
    common(sp, space=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--method", choices=("corL", "tchi", "thm8"), default="corL")
    sp.add_argument("--cache", help="directory for memoized polynomials")
    sp.set_defaults(fn=cmd_flag)

    sp = sub.add_parser("grassmann", help="[G_{q+l,l}] by the operator L")
    common(sp, space=False)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--cache", help="directory for memoized polynomials")
    sp.set_defaults(fn=cmd_grassmann)

    sp = sub.add_parser("stable", help="equivariant stable complex structures")
    common(sp)
    sp.add_argument("--assign", help="JSON file {coset_index: [signs], epsilon}")
    sp.add_argument("--budget", type=int, default=1 << 20)
    sp.set_defaults(fn=cmd_stable)

    sp = sub.add_parser("fgl", help="formal group law of geometric cobordisms")
    common(sp, space=False)
    sp.add_argument("--trunc", type=int)
    sp.set_defaults(fn=cmd_fgl)

    sp = sub.add_parser("reproduce", help="recompute the published value table")
    common(sp, space=False)
    sp.set_defaults(fn=cmd_reproduce)

    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpaceGrammarError as exc:
        print("error: %s" % exc, file=sys.stderr)
        print('space grammar: "CPn", "U(n)/Tn", "U(n)/U(k1)x...xU(km)", '
              '"G2/SU(3)", "SU(4)/S(U(1)xU(1)xU(2))"', file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
