"""The published value table behind the reproduce verb.

Each row recomputes one value of the paper (a class, an s- or Chern-number
table, a sigma-coefficient block, a count of admissible sign systems) by
localization, by divided differences or by the sign search, and compares it
exactly with the published value.
"""

import json

from . import divdiff, genus, rootdata, stablex
from .cobordism import CobordismPoly
from .exactalg import MultiPoly, block_coefficient, xvars


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
