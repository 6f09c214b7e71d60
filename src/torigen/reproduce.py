"""The published value table behind the reproduce verb.

Each row recomputes one value of the paper (a class, an s- or Chern-number
table, a sigma-coefficient block, a count of admissible sign systems) by
localization, by divided differences or by the sign search, and compares it
exactly with the published value. A row is its name and a function that
returns (ok, shown value): _row(computation, published value) shows str of
what it computed, _class and _table are its forms for a class and for a
{key: number} table, and the few rows that show something else are
functions of their own.
"""

import json
from fractions import Fraction

from . import character, divdiff, genus, rootdata, stablex
from .chern import chern_to_s
from .cobordism import CobordismPoly
from .symmfunc import omegas_of_weight


def _fp(descriptor, structure=None):
    """The fixed-point table of a grammar space, in a preset structure."""
    return rootdata.fixed_point_weights(rootdata.build_space(descriptor, structure=structure))


def _s6_sigma_blocks():
    """ch_U Phi(S^6) blocks in sigma_2, sigma_3 of x1, x2, x3 = -x1 - x2:
    {(sigma, degree): canonical text}. The a^omega blocks are W(G2)-invariant,
    so that of degree d is c sigma_2^(d/2) for d = 2, 4 and
    c sigma_2^3 + c' sigma_3^2 for d = 6. They are read by value: B_d(z) is
    chern_to_s of the values at z of the c^xi blocks of weight 3 + d
    (character.block_value). At (1, -1), sigma_2 = -1 and sigma_3 = 0, so
    c = (-1)^(d/2) B_d(1, -1); at (1, 1), sigma_2 = -3 and sigma_3 = -2, so
    c' = (B_6(1, 1) + 27 c) / 4."""
    ch = character.character_blocks(_fp("G2/SU(3)"), 9)

    def at(d, z):
        w = 3 + d
        return chern_to_s({xi: character.block_value(ch.get(xi, {}), z) for xi in omegas_of_weight(w)}, w)

    out = {("s2", d): {om: (-1) ** (d // 2) * v for om, v in at(d, (1, -1)).items()} for d in (2, 4, 6)}
    out["s3", 6] = {om: Fraction(v + 27 * out["s2", 6][om], 4) for om, v in at(6, (1, 1)).items()}
    return {key: CobordismPoly(block).canonical_text() for key, block in out.items()}


def _row(compute, published):
    """A row that passes when compute() equals the published value exactly,
    and shows str of what it computed."""
    def fn():
        got = compute()
        return got == published, str(got)
    return fn


def _class(descriptor, published, structure=None):
    """A row of the class of a grammar space by localization, in canonical text."""
    return _row(lambda: genus.cobordism_class(_fp(descriptor, structure)).canonical_text(), published)


def _table(compute, published):
    """A row of a {key: number} table, compared and shown as its sorted items."""
    return _row(lambda: sorted(compute().items()), sorted(published.items()))


def _m10_chern(structure):
    """The seven Chern numbers of the SU(4) quotient that the paper lists, in its order."""
    table = genus.chern_numbers(_fp(rootdata.M10_DESCRIPTOR, structure))
    keys = [(0, 0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1), (2, 0, 1), (1, 2), (3, 1), (5,)]
    return tuple(table[k] for k in keys)


def _s6_sigma_coefficients():
    want = {
        ("s2", 2): "-4*a1^2*a3 + 2*a1*a2^2 + 10*a1*a4 - 2*a2*a3 - 10*a5",
        ("s2", 4): "4*a1^2*a5 - 4*a1*a2*a4 + 2*a1*a3^2 - 14*a1*a6 + 6*a2*a5 - 2*a3*a4 + 14*a7",
        ("s2", 6): ("-4*a1^2*a7 + 4*a1*a2*a6 - 4*a1*a3*a5 + 2*a1*a4^2 + 18*a1*a8 - 10*a2*a7"
                    " + 6*a3*a6 - 2*a4*a5 - 18*a9"),
        ("s3", 6): ("6*a1^2*a7 - 6*a1*a2*a6 - 6*a1*a3*a5 + 6*a1*a4^2 + 6*a2^2*a5 - 6*a2*a3*a4"
                    " + 2*a3^3 - 6*a1*a8 - 6*a2*a7 + 12*a3*a6 - 6*a4*a5 + 6*a9"),
    }
    return _s6_sigma_blocks() == want, "4 blocks"


def _s6_stable_non_j_trivial():
    spec = rootdata.build_space("G2/SU(3)")
    bad = []
    for sol in stablex.enumerate_feasible(spec):
        if sol.table in (((1, 1, 1), (1, 1, 1)), ((-1, -1, -1), (-1, -1, -1))):
            continue
        cls = genus.cobordism_class(stablex.derived_fixed_point_data(spec, sol))
        if not cls.is_zero():
            bad.append(sol.table)
    return not bad, "all trivial" if not bad else str(bad)


def _flag_methods_agree_n4():
    a = divdiff.flag_class(4, "corL")
    b = divdiff.flag_class(4, "thm8")
    c = genus.cobordism_class(_fp("U(4)/T4"))
    return a == b == c, "3 routes"


def _flag_vanishing_n4():
    rep = divdiff.flag_vanishing_checks(4)
    return rep["ok"], json.dumps(rep, sort_keys=True)


def _flag_p_delta():
    p = divdiff.flag_P_polynomials(3, (2, 1, 0)).canonical_text()
    q = divdiff.flag_P_polynomials(3, (2, 0, 1)).canonical_text()
    return "%s ; %s" % (p, q)


def _cpn_sn():
    got = []
    for n in range(1, 6):
        table = genus.s_numbers(_fp("CP%d" % n))
        got.append(table[(0,) * (n - 1) + (1,)])
    return got


def _cp3_nonstandard_s3():
    spec = rootdata.build_space("CP3")
    assign = stablex.SignAssignment(
        ((1, 1, 1), (1, 1, -1), (1, 1, -1), (1, 1, -1)), -1)
    fp = stablex.derived_fixed_point_data(spec, assign)
    signs = tuple(pt.sign for pt in fp)
    s3 = genus.s_numbers(fp)[(0, 0, 1)]
    # %s, not %d, which would print a fraction truncated: the row compares this text
    return "signs=%s s3=%s" % (signs, s3)


def _reproduce_rows():
    """(name, fn) pairs in table order; fn returns (ok, shown value). Building
    the list computes nothing, so a row that raises is one crashed row."""
    g42, m10, s6 = "U(4)/U(2)xU(2)", rootdata.M10_DESCRIPTOR, "G2/SU(3)"
    return [
        ("CP1-class", _class("CP1", "2*a1")),
        ("U3T3-class", _class("U(3)/T3", "6*a1^3 + 6*a1*a2 - 6*a3")),
        ("U3T3-operator-L-route", _row(lambda: divdiff.flag_class(3).canonical_text(),
                                       "6*a1^3 + 6*a1*a2 - 6*a3")),
        ("U3T3-chern", _table(lambda: genus.chern_numbers(_fp("U(3)/T3")),
                              {(0, 0, 1): 6, (1, 1): 24, (3,): 48})),
        ("G42-class", _class(g42, "6*a1^4 + 24*a1^2*a2 + 4*a1*a3 + 14*a2^2 - 20*a4")),
        ("G42-s-table", _table(lambda: genus.s_numbers(_fp(g42)),
                               {(4,): 6, (2, 1): 24, (0, 2): 14, (1, 0, 1): 4, (0, 0, 0, 1): -20})),
        ("G42-chern", _table(lambda: genus.chern_numbers(_fp(g42)),
                             {(0, 0, 0, 1): 6, (1, 0, 1): 48, (0, 2): 98, (2, 1): 224, (4,): 512})),
        ("G42-s4-numeric", _row(lambda: genus.s_number_numeric(_fp(g42), (0, 0, 0, 1), (1, 2, 3, 4)), -20)),
        ("G42-Q-delta", _row(lambda: divdiff.grassmann_Q_polynomials(2, 2, (3, 2, 1, 0)).canonical_text(),
                             "a1^4 - 4*a1*a3 + 4*a2^2")),
        ("M10-J1-class", _class(m10, "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4"
                                     " - 8*a2*a3 + 20*a5", "J1")),
        ("M10-J1-chern", _row(lambda: _m10_chern("J1"), (12, 108, 292, 612, 1028, 2148, 4500))),
        ("M10-J2-class", _class(m10, "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4"
                                     " + 32*a2*a3 - 20*a5", "J2")),
        ("M10-J2-chern", _row(lambda: _m10_chern("J2"), (12, 108, 292, 612, 1068, 2268, 4860))),
        ("M10-J3-class", _class(m10, "12*a1^5 - 48*a1^3*a2 + 60*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4"
                                     " - 48*a2*a3 + 60*a5", "J3")),
        ("M10-J3-chern", _row(lambda: _m10_chern("J3"), (12, 12, 4, 20, -4, -4, -20))),
        ("S6-class", _class(s6, "2*a1^3 - 6*a1*a2 + 6*a3")),
        ("S6-sigma-coefficients", _s6_sigma_coefficients),
        ("S6-stable-count", _row(lambda: len(stablex.enumerate_feasible(rootdata.build_space(s6))), 10)),
        ("S6-stable-nonJ-trivial", _s6_stable_non_j_trivial),
        ("flag-s80", _row(lambda: divdiff.flag_class(4).coeff((1, 0, 0, 0, 1, 0)), 80)),
        ("flag-methods-agree-n4", _flag_methods_agree_n4),
        ("flag-even-n4", _row(lambda: divdiff.flag_vanishing_checks(4)["even_chern"], {"ok": True})),
        ("flag-vanishing-n4", _flag_vanishing_n4),
        ("flag-P-delta", _row(_flag_p_delta, "a1^3 - a1*a2 - 3*a3 ; -a1^3 - 5*a1*a2 - 3*a3")),
        ("CPn-sn", _row(_cpn_sn, [2, 3, 4, 5, 6])),
        ("CP3-nonstandard-s3", _row(_cp3_nonstandard_s3, "signs=(-1, 1, 1, 1) s3=-2")),
        ("CP3-admissible-16", _row(lambda: len(stablex.enumerate_feasible(rootdata.build_space("CP3"))), 16)),
    ]


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


def cmd_reproduce(args, spec):
    ok, results = reproduce_table()
    lines = ["%-28s %s  %s" % (name, "PASS" if row_ok else "FAIL", shown) for name, row_ok, shown in results]
    lines.append("%d/%d rows pass" % (sum(1 for _, o, _ in results if o), len(results)))
    rows = [{"name": n, "ok": o, "value": s} for n, o, s in results]
    return "\n".join(lines), {"ok": ok, "rows": rows}, 0 if ok else 1
