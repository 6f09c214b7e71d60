"""Command-line front end and regression driver.

Verbs: genus, class, snumbers, chern, verify, flag, grassmann, stable, fgl,
reproduce.  Text output uses the canonical polynomial rendering so golden
files stay diff-stable; --format json emits deterministic JSON (sorted keys).
Exit codes: 0 success, 1 check failure, 2 usage error.
"""

import argparse
import json
import os
import sys
import tempfile
from itertools import product

from . import divdiff, fgl, genus, rootdata, stablex
from .chern import chern_to_s
from .exactalg import CobordismPoly, MultiPoly, block_coefficient, xvars
from .symmfunc import omega_weight, trim


def _ints(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _build_space(args):
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
    spec = _build_space(args)
    cls = genus.cobordism_class(rootdata.fixed_point_weights(spec))
    _emit(args, cls.canonical_text(), {"space": spec.descriptor, "structure": genus.structure_label(spec), "class": _json_poly(cls)})
    return 0


def cmd_genus(args):
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
    cls = _cache_poly(args, "grassmann_%d_%d" % (args.q, args.l),
                      lambda: divdiff.grassmann_class(args.q, args.l))
    _emit(args, cls.canonical_text(), {"q": args.q, "l": args.l, "class": _json_poly(cls)})
    return 0


def cmd_stable(args):
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
    text = fgl.fgl_addition(order).canonical_text("b")
    _emit(args, text, {"order": order, "addition": text})
    return 0


def _s6_sigma_blocks():
    """ch_U Phi(S^6) blocks rewritten in sigma_2, sigma_3 (x3 eliminated)."""
    spec = rootdata.build_space("G2/SU(3)")
    fp = rootdata.fixed_point_weights(spec)
    ch = genus.chern_character_of_genus(fp, 9)
    arena = xvars(2)
    x1 = MultiPoly.variable(arena, 0)
    x2 = MultiPoly.variable(arena, 1)
    s2 = x1 * x2 + (x1 + x2) * (-(x1 + x2))
    s3 = x1 * x2 * (-(x1 + x2))
    out = {}
    for d, basis in ((2, s2), (4, s2 * s2)):
        mono = next(iter(basis.terms))
        out[("s2", d)] = block_coefficient(ch, mono) / basis.terms[mono]
    b1, b2 = s2 * s2 * s2, s3 * s3
    e1, e2 = (6, 0), (4, 2)
    a11, a12 = b1.coeff(e1), b2.coeff(e1)
    a21, a22 = b1.coeff(e2), b2.coeff(e2)
    det = a11 * a22 - a12 * a21
    v1, v2 = block_coefficient(ch, e1), block_coefficient(ch, e2)
    out[("s2", 6)] = (v1 * a22 - v2 * a12) / det
    out[("s3", 6)] = (v2 * a11 - v1 * a21) / det
    return out


def _reproduce_rows():
    """(name, fn) pairs; fn returns (ok, shown-value) with exact comparisons."""
    rows = []

    def row(name):
        def deco(fn):
            rows.append((name, fn))
            return fn
        return deco

    def cls_of(descriptor, structure=None):
        spec = rootdata.build_space(descriptor, structure=structure)
        return genus.cobordism_class(rootdata.fixed_point_weights(spec))

    @row("CP1-class")
    def _():
        got = cls_of("CP1").canonical_text()
        return got == "2*a1", got

    @row("U3T3-class")
    def _():
        got = cls_of("U(3)/T3").canonical_text()
        return got == "6*a1^3 + 6*a1*a2 - 6*a3", got

    @row("U3T3-operator-L-route")
    def _():
        got = divdiff.flag_class(3).canonical_text()
        return got == "6*a1^3 + 6*a1*a2 - 6*a3", got

    @row("U3T3-chern")
    def _():
        spec = rootdata.build_space("U(3)/T3")
        table = genus.chern_numbers(rootdata.fixed_point_weights(spec))
        want = {(0, 0, 1): 6, (1, 1): 24, (3,): 48}
        return table == want, str(sorted(table.items()))

    @row("G42-class")
    def _():
        got = cls_of("U(4)/U(2)xU(2)").canonical_text()
        want = "6*a1^4 + 24*a1^2*a2 + 4*a1*a3 + 14*a2^2 - 20*a4"
        return got == want, got

    @row("G42-s-table")
    def _():
        spec = rootdata.build_space("U(4)/U(2)xU(2)")
        got = genus.s_numbers(rootdata.fixed_point_weights(spec))
        want = {(4,): 6, (2, 1): 24, (0, 2): 14, (1, 0, 1): 4, (0, 0, 0, 1): -20}
        return got == want, str(sorted(got.items()))

    @row("G42-chern")
    def _():
        spec = rootdata.build_space("U(4)/U(2)xU(2)")
        table = genus.chern_numbers(rootdata.fixed_point_weights(spec))
        want = {(0, 0, 0, 1): 6, (1, 0, 1): 48, (0, 2): 98, (2, 1): 224, (4,): 512}
        return table == want, str(sorted(table.items()))

    @row("G42-s4-numeric")
    def _():
        spec = rootdata.build_space("U(4)/U(2)xU(2)")
        got = genus.s_number_numeric(rootdata.fixed_point_weights(spec), (0, 0, 0, 1), (1, 2, 3, 4))
        return got == -20, str(got)

    @row("G42-Q-delta")
    def _():
        got = divdiff.grassmann_Q_polynomials(2, 2, (3, 2, 1, 0)).canonical_text()
        return got == "a1^4 - 4*a1*a3 + 4*a2^2", got

    m10_class = {
        "J1": "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 - 8*a2*a3 + 20*a5",
        "J2": "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 + 32*a2*a3 - 20*a5",
        "J3": "12*a1^5 - 48*a1^3*a2 + 60*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 - 48*a2*a3 + 60*a5",
    }
    m10_chern = {
        "J1": (12, 108, 292, 612, 1028, 2148, 4500),
        "J2": (12, 108, 292, 612, 1068, 2268, 4860),
        "J3": (12, 12, 4, 20, -4, -4, -20),
    }
    m10_keys = [(0, 0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1), (2, 0, 1), (1, 2), (3, 1), (5,)]

    def m10_rows(name):
        @row("M10-%s-class" % name)
        def _():
            spec = rootdata.build_space(rootdata.M10_DESCRIPTOR, structure=name)
            got = genus.cobordism_class(rootdata.fixed_point_weights(spec)).canonical_text()
            return got == m10_class[name], got

        @row("M10-%s-chern" % name)
        def _():
            spec = rootdata.build_space(rootdata.M10_DESCRIPTOR, structure=name)
            table = genus.chern_numbers(rootdata.fixed_point_weights(spec))
            got = tuple(table[k] for k in m10_keys)
            return got == m10_chern[name], str(got)

    for name in ("J1", "J2", "J3"):
        m10_rows(name)

    @row("S6-class")
    def _():
        got = cls_of("G2/SU(3)").canonical_text()
        return got == "2*a1^3 - 6*a1*a2 + 6*a3", got

    @row("S6-sigma-coefficients")
    def _():
        blocks = _s6_sigma_blocks()
        g = CobordismPoly.gen
        want = {
            ("s2", 2): (g(1) * g(2) ** 2 - g(1) ** 2 * g(3) * 2 - g(2) * g(3)
                        + g(1) * g(4) * 5 - g(5) * 5) * 2,
            ("s2", 4): (g(1) * g(3) ** 2 - g(1) * g(2) * g(4) * 2 - g(3) * g(4)
                        + g(1) ** 2 * g(5) * 2 + g(2) * g(5) * 3 - g(1) * g(6) * 7
                        + g(7) * 7) * 2,
            ("s2", 6): (g(9) * -9 + g(1) * g(8) * 9 - g(2) * g(7) * 5 + g(3) * g(6) * 3
                        - g(4) * g(5) - g(1) ** 2 * g(7) * 2 + g(1) * g(2) * g(6) * 2
                        - g(1) * g(3) * g(5) * 2 + g(1) * g(4) ** 2) * 2,
            ("s3", 6): (g(9) * 3 - g(1) * g(8) * 3 - g(2) * g(7) * 3 + g(3) * g(6) * 6
                        - g(4) * g(5) * 3 + g(1) ** 2 * g(7) * 3 - g(1) * g(2) * g(6) * 3
                        - g(1) * g(3) * g(5) * 3 + g(1) * g(4) ** 2 * 3 + g(2) ** 2 * g(5) * 3
                        - g(2) * g(3) * g(4) * 3 + g(3) ** 3) * 2,
        }
        ok = all(blocks[k] == want[k] for k in want)
        return ok, "4 blocks"

    @row("S6-stable-count")
    def _():
        sols = stablex.enumerate_feasible(rootdata.build_space("G2/SU(3)"))
        return len(sols) == 10, str(len(sols))

    @row("S6-stable-nonJ-trivial")
    def _():
        spec = rootdata.build_space("G2/SU(3)")
        bad = []
        for sol in stablex.enumerate_feasible(spec):
            if sol.table in (((1, 1, 1), (1, 1, 1)), ((-1, -1, -1), (-1, -1, -1))):
                continue
            cls = genus.cobordism_class(stablex.derived_fixed_point_data(spec, sol))
            if not cls.is_zero():
                bad.append(sol.table)
        return not bad, "all trivial" if not bad else str(bad)

    @row("flag-s80")
    def _():
        got = divdiff.flag_class(4).coeff((1, 0, 0, 0, 1, 0))
        return got == 80, str(got)

    @row("flag-methods-agree-n4")
    def _():
        a = divdiff.flag_class(4, "corL")
        b = divdiff.flag_class(4, "tchi")
        c = divdiff.flag_class(4, "thm8")
        spec = rootdata.build_space("U(4)/T4")
        d = genus.cobordism_class(rootdata.fixed_point_weights(spec))
        return a == b == c == d, "4 routes"

    @row("flag-even-n4")
    def _():
        rep = divdiff.flag_vanishing_checks(4)
        return rep["even_chern"]["ok"], str(rep["even_chern"])

    @row("flag-vanishing-n4")
    def _():
        rep = divdiff.flag_vanishing_checks(4)
        return rep["ok"], json.dumps(rep, sort_keys=True)

    @row("flag-P-delta")
    def _():
        p = divdiff.flag_P_polynomials(3, (2, 1, 0)).canonical_text()
        q = divdiff.flag_P_polynomials(3, (2, 0, 1)).canonical_text()
        ok = p == "a1^3 - a1*a2 - 3*a3" and q == "-a1^3 - 5*a1*a2 - 3*a3"
        return ok, "%s ; %s" % (p, q)

    @row("CPn-sn")
    def _():
        got = []
        for n in range(1, 6):
            spec = rootdata.build_space("CP%d" % n)
            table = genus.s_numbers(rootdata.fixed_point_weights(spec))
            got.append(table[(0,) * (n - 1) + (1,)])
        return got == [2, 3, 4, 5, 6], str(got)

    @row("CP3-nonstandard-s3")
    def _():
        spec = rootdata.build_space("CP3")
        assign = stablex.SignAssignment(
            ((1, 1, 1), (1, 1, -1), (1, 1, -1), (1, 1, -1)), -1)
        fp = stablex.derived_fixed_point_data(spec, assign)
        signs = tuple(pt.sign for pt in fp)
        s3 = genus.s_numbers(fp)[(0, 0, 1)]
        return signs == (-1, 1, 1, 1) and s3 == -2, "signs=%s s3=%d" % (signs, s3)

    @row("CP3-admissible-16")
    def _():
        sols = stablex.enumerate_feasible(rootdata.build_space("CP3"))
        return len(sols) == 16, str(len(sols))

    return rows


def reproduce_table():
    """Run every row; returns (all_ok, [(name, ok, shown)])."""
    results = []
    for name, fn in _reproduce_rows():
        try:
            ok, shown = fn()
        except Exception as exc:  # a crashed row is a failed row
            ok, shown = False, "%s: %s" % (type(exc).__name__, exc)
        results.append((name, ok, shown))
    return all(ok for _, ok, _ in results), results


def cmd_reproduce(args):
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
    except (rootdata.ParseError, rootdata.UnsupportedGroup) as exc:
        print("error: %s" % exc, file=sys.stderr)
        print('space grammar: "CPn", "U(n)/Tn", "U(n)/U(k1)x...xU(km)", '
              '"G2/SU(3)", "SU(4)/S(U(1)xU(1)xU(2))"', file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (genus.SingularSum, genus.NonIntegerClass, genus.SingularPoint,
            stablex.BudgetExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
