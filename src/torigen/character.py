"""The symbolic character of the genus, and the verify and genus verbs.

ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x> is put
over one polynomial common denominator (localization_data); the numerator,
sum_p prefactor_p * cofactor_p * prod_j f(<Lambda_j(p), x>), comes from
exactalg.f_product_sum as one polynomial in x per a^omega, and is checked
and divided a^omega by a^omega. Inconsistent input data is detected as a
failed cancellation or division, never hidden by per-summand
simplification. The character stays in that form, {omega: MultiPoly}, and
carries the low-block cancellation, the class (the blocks' constant terms)
and the Weyl check.

genus answers class, snumbers, chern and stable --assign by its certified
point route, and imports this module only where the certificate does not
hold; a failed cancellation, division or integrality check there names its
first block (genus.FailedBlock). verify and genus read the character
itself, and reproduce reads its blocks. The tests check the kernel against
omega_numerator in tests/reference.py, which builds one a^omega block by
m_lambda substitution instead, and stablex.check_necessary against
reference_check, which walks those blocks.

Degrees: block omega of ch Phi is homogeneous of geometric degree
d = ||omega|| - n, where 2n is the real dimension. Truncation orders are
absolute: an order-N character holds the blocks with ||omega|| = n + d <= N.
"""

from collections import Counter, namedtuple
from itertools import combinations_with_replacement

from . import genus
from .chern import chern_to_s
from .cobordism import CobordismPoly, render_series
from .exactalg import MultiPoly, NotDivisible, block_coefficient, exact_div_terms, f_product_sum, xvars
from .genus import SingularSum, canonical_line, non_integer_class
from .rootdata import fixed_point_weights, reflect
from .symmfunc import omega_weight


LocData = namedtuple("LocData", "arena n denom cofactors prefactors")


def localization_data(fp):
    """Common denominator for the localization sum.

    denom = product over weight lines of the highest multiplicity seen at any
    point; cofactors[p] * (point p's own denominator) = denom up to the sign
    prefactors[p], which absorbs sign(p) and the orientation of each weight.
    """
    k = len(fp[0].weights[0])
    n = len(fp[0].weights)
    arena = xvars(k)
    counted = []
    prefactors = []
    for pt in fp:
        if len(pt.weights) != n:
            raise ValueError("ragged fixed-point table")
        cnt = Counter()
        s = pt.sign
        for w in pt.weights:
            line, sg = canonical_line(w)
            cnt[line] += 1
            s *= sg
        counted.append(cnt)
        prefactors.append(s)
    need = Counter()
    for cnt in counted:
        for line, m in cnt.items():
            need[line] = max(need[line], m)
    lines = {line: MultiPoly.linear_form(arena, line) for line in need}
    denom = MultiPoly.const(arena, 1)
    for line in sorted(need):
        for _ in range(need[line]):
            denom = denom * lines[line]
    cofactors = []
    for cnt in counted:
        cof = MultiPoly.const(arena, 1)
        for line in need:
            for _ in range(need[line] - cnt.get(line, 0)):
                cof = cof * lines[line]
        cofactors.append(cof)
    return LocData(arena, n, denom, cofactors, prefactors)


def character_numerator(fp, order):
    """loc and the numerator blocks sum_p prefactor_p * cofactor_p *
    prod_j f(<Lambda_j(p), x>), {omega: MultiPoly} for ||omega|| <= order,
    multiplied and summed over the points in the kernel (f_product_sum)."""
    loc = localization_data(fp)
    summands = [(pt.weights, cof * pre) for pt, cof, pre in zip(fp, loc.cofactors, loc.prefactors)]
    return loc, f_product_sum(loc.arena, summands, order)


def chern_character_of_genus(fp, order):
    """ch Phi truncated at absolute order: {omega: MultiPoly}, the nonzero
    a^omega blocks with n <= ||omega|| <= order.

    The a^omega block of the numerator (character_numerator) has x-degree
    ||omega|| + D - n. Blocks with ||omega|| < n must vanish; the others are
    divided exactly by the denominator, and block omega of the quotient is
    homogeneous of x-degree ||omega|| - n.
    """
    n = len(fp[0].weights)
    if order < n:
        raise ValueError("order %d below dimension grade %d" % (order, n))
    loc, num = character_numerator(fp, order)
    D = loc.denom.degree()
    by_weight = [[] for _ in range(order + 1)]
    for om in sorted(num):
        if num[om].terms:
            by_weight[omega_weight(om)].append(om)
    for wt in range(n):
        if by_weight[wt]:
            block = {}
            for om in by_weight[wt]:
                for e, c in num[om].terms.items():
                    block[e] = block.get(e, 0) + CobordismPoly.monomial(om, c)
            om = by_weight[wt][0]
            raise SingularSum(
                "degree-%d numerator block does not cancel: %s"
                % (wt + D - n, render_series(block, loc.arena.names)), om, num[om].canonical_text())
    blocks = {}
    for wt in range(n, order + 1):
        for om in by_weight[wt]:
            try:
                blocks[om] = MultiPoly(loc.arena, exact_div_terms(num[om].terms, loc.denom.terms))
            except NotDivisible as exc:
                raise SingularSum("degree-%d block not divisible by denominator" % (wt + D - n),
                                  om, num[om].canonical_text()) from exc
    return blocks


def class_of_character(ch, n):
    """The t^n coefficient of a character: the constant terms of its blocks,
    which must form an integer class of weight n."""
    k = next((b.arena.arity for b in ch.values()), 0)
    cls = block_coefficient(ch, (0,) * k)
    if not cls.is_homogeneous(n):
        raise SingularSum("class is not homogeneous of weight %d" % n)
    if not cls.is_integral():
        raise non_integer_class(cls)
    return cls


def symbolic_class(fp):
    """The class read off the symbolic character of order n."""
    n = len(fp[0].weights)
    return class_of_character(chern_character_of_genus(fp, n), n)


def weyl_invariance_failure(spec, ch):
    """None when every block of the character ch of a space of spec is
    invariant under every simple reflection s of W_G, acting on x by
    x -> x - <alpha, x> alpha^vee; else the first failure found: omega, the
    reflection's index from 1, the point P, and the block's values at P and
    s P.

    A block p of degree d in k variables is compared with p(s x) at the
    points P of N^k whose coordinates sum to at most d. That is exact: a
    polynomial of degree <= d vanishing there vanishes on x_1 = 0 (induction
    on k), so it is x_1 q, and q vanishes on the points of sum <= d - 1
    (induction on d). A reflection that fixes P is skipped, as p(s P) is
    then p(P)."""
    for om in sorted(ch):
        block = ch[om]
        k = block.arena.arity
        # index k is the slack, so the coordinates sum to at most d
        for picks in combinations_with_replacement(range(k + 1), block.degree()):
            point = tuple(picks.count(i) for i in range(k))
            value = block.evaluate(point)
            for index, (alpha, coroot) in enumerate(spec.simple, 1):
                image = reflect(point, coroot, alpha)
                if image == point:
                    continue
                moved = block.evaluate(image)
                if moved != value:
                    return {"omega": list(om) + [0] * (spec.n - len(om)), "reflection": index,
                            "point": list(point), "block_at_p": str(value), "block_at_sp": str(moved)}
    return None


def _check_lines(checks, evidence):
    """One line per check; a failed one names its evidence as at k=v, ..."""
    lines = []
    for name, ok in sorted(checks.items()):
        lines.append("check %s: %s" % (name, "ok" if ok else "FAIL"))
        if name in evidence:
            lines[-1] += " at " + ", ".join("%s=%s" % kv for kv in evidence[name].items())
    return lines


def genus_report(spec, order=None):
    """Full result bundle for a space: the report (class, s-table and
    consistency checks) and the class as a CobordismPoly."""
    fp = fixed_point_weights(spec)
    n = spec.n
    if order is None:
        order = n + 1
    stable = genus.s_numbers(fp)
    # the build raises SingularSum unless the low blocks cancel, so a report
    # exists only if the vanishing check holds
    ch = chern_character_of_genus(fp, order)
    rows = [(list(om) + [0] * (n - len(om)), val) for om, val in sorted(stable.items())]
    failure = weyl_invariance_failure(spec, ch)
    report = {
        "space": spec.descriptor,
        "structure": genus.structure_label(spec),
        "class": [{"omega": om, "coeff": str(val)} for om, val in rows if val],
        "s_numbers": [{"omega": om, "value": val} for om, val in rows],
        "checks": {"vanishing": True, "weyl_invariance": failure is None},
    }
    if failure:
        report["evidence"] = {"weyl_invariance": failure}
    return report, CobordismPoly(stable)


def cmd_genus(args):
    from .cli import _build_space, _emit
    spec = _build_space(args)
    if args.trunc is not None and not spec.n <= args.trunc <= spec.n + 1:
        raise ValueError("--trunc must be %d or %d on %s, got %d"
                         % (spec.n, spec.n + 1, spec.descriptor, args.trunc))
    report, cls = genus_report(spec, order=args.trunc)
    lines = ["space: %s  structure: %s" % (report["space"], report["structure"]),
             "class: %s" % cls.canonical_text()]
    lines += ["s_%s = %d" % (row["omega"], row["value"]) for row in report["s_numbers"]]
    lines += _check_lines(report["checks"], report.get("evidence", {}))
    _emit(args, "\n".join(lines), report)
    return 0 if all(report["checks"].values()) else 1


def cmd_verify(args):
    from .cli import _build_space, _emit, _pad
    spec = _build_space(args)
    fp = fixed_point_weights(spec)
    n = len(fp[0].weights)
    checks = {}
    # one symbolic character: building it raises SingularSum unless the low
    # blocks cancel, and its degree-0 block is the class
    ch = chern_character_of_genus(fp, n + 1)
    checks["low_vanishing"] = True
    cls = class_of_character(ch, n)
    checks["class_integral"] = True  # class_of_character raises unless integral of weight n
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
    c_n, signs = table.get((n,), 0), sum(pt.sign for pt in fp)
    checks["euler"] = c_n == signs
    if c_n != signs:
        evidence["euler"] = {"c_n": str(c_n), "sum_signs": str(signs)}
    failure = weyl_invariance_failure(spec, ch)
    checks["weyl_invariance"] = failure is None
    if failure:
        evidence["weyl_invariance"] = failure
    second = genus.point_chern_numbers(fp, genus.second_numeric_point(fp))
    bad = [xi for xi in sorted(set(chern) | set(second)) if chern.get(xi) != second.get(xi)]
    checks["numeric_agreement"] = not bad
    if bad:
        evidence["numeric_agreement"] = {"xi": list(_pad(bad[0], n)), "default_point": str(chern.get(bad[0])),
                                         "second_point": str(second.get(bad[0]))}
    ok = all(checks.values())
    lines = _check_lines(checks, evidence)
    data = {"space": spec.descriptor, "structure": genus.structure_label(spec), "checks": checks, "ok": ok}
    if evidence:
        data["evidence"] = evidence
    _emit(args, "\n".join(lines), data)
    return 0 if ok else 1
