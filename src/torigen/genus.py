"""Fixed-point localization for the universal toric genus.

Given a fixed-point weight table, the Chern-Dold character of the genus is

    ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x>

and everything here (cobordism class, low-degree vanishing, s_omega numbers,
fibration coefficients) is read off that sum. The sum is evaluated by putting
all points over one polynomial common denominator and dividing back exactly;
inconsistent input data is detected as a failed division, never hidden by
per-summand simplification.

Degrees: the geometric-degree-d block of ch Phi carries cobordism weight
n + d, where 2n is the real dimension. Truncation orders are absolute: an
order-N character holds the blocks with n + d <= N.
"""

from collections import Counter, namedtuple
from fractions import Fraction

from .exactalg import (CobordismPoly, GradedSeries, MultiPoly, NotDivisible,
                       clean, exact_div, exact_div_terms, xvars)
from .fgl import b_in_a
from .rootdata import fixed_point_weights
from .symmfunc import monomial_sym, omega_to_partition, omegas_of_weight


class SingularSum(Exception):
    pass


class NonIntegerClass(Exception):
    pass


class NonConstantResult(Exception):
    pass


class SingularPoint(Exception):
    pass


class TruncationTooLow(Exception):
    pass


VanishingReport = namedtuple("VanishingReport", "ok level residue")
LocData = namedtuple("LocData", "arena n denom cofactors prefactors")


def canonical_line(weight):
    """Primitive representative of the line through a weight: (line, sign)."""
    for c in weight:
        if c > 0:
            return tuple(weight), 1
        if c < 0:
            return tuple(-x for x in weight), -1
    raise ValueError("zero weight")


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


def f_of_form(form, order, arena):
    """f(w) = 1 + a_1 w + a_2 w^2 + ... for a linear form w, as a GradedSeries."""
    out = {(0,) * arena.arity: CobordismPoly.const(1)}
    power = MultiPoly.const(arena, 1)
    for i in range(1, order + 1):
        power = power * form
        gen = CobordismPoly.gen(i)
        for e, c in power.terms.items():
            cur = out.get(e)
            add = gen * c
            out[e] = add if cur is None else cur + add
    return GradedSeries(arena, order, out)


def _numerator(fp, loc, top):
    """sum_p prefactor_p * cofactor_p * prod_j f(<Lambda_j(p),x>), degree <= top."""
    D = loc.denom.degree()
    forder = top - (D - loc.n)
    total = GradedSeries(loc.arena, top)
    for pt, cof, pre in zip(fp, loc.cofactors, loc.prefactors):
        prod = GradedSeries.const(loc.arena, forder, 1)
        for w in pt.weights:
            prod = prod * f_of_form(MultiPoly.linear_form(loc.arena, w), forder, loc.arena)
        total = total + GradedSeries(loc.arena, top, prod.terms) * cof * pre
    return total


def chern_character_of_genus(fp, order):
    """ch Phi truncated at absolute order (weight n + geometric degree <= order)."""
    n = len(fp[0].weights)
    if order < n:
        raise ValueError("order %d below dimension grade %d" % (order, n))
    loc = localization_data(fp)
    D = loc.denom.degree()
    xorder = order - n
    num = _numerator(fp, loc, D + xorder)
    for e in range(max(D - n, 0), D):
        block = num.homogeneous_part(e)
        if block:
            raise SingularSum(
                "degree-%d numerator block does not cancel: %s"
                % (e, GradedSeries(loc.arena, e, block).canonical_text()))
    terms = {}
    for d in range(xorder + 1):
        block = num.homogeneous_part(D + d)
        if not block:
            continue
        try:
            quot = exact_div_terms(block, loc.denom.terms)
        except NotDivisible as exc:
            raise SingularSum("degree-%d block not divisible by denominator" % (D + d)) from exc
        terms.update(quot)
    return GradedSeries(loc.arena, xorder, terms)


def cobordism_class(fp):
    """The t^n coefficient: degree-0 block of ch Phi, an integer class of weight n."""
    n = len(fp[0].weights)
    ch = chern_character_of_genus(fp, n)
    cls = ch.coeff((0,) * ch.arena.arity)
    if not cls.is_homogeneous(n):
        raise SingularSum("class is not homogeneous of weight %d" % n)
    if not cls.is_integral():
        raise NonIntegerClass(cls.canonical_text())
    return cls


def verify_low_vanishing(fp):
    """Check the numerator blocks for t^0..t^{n-1} cancel; failure is reported, not raised."""
    n = len(fp[0].weights)
    loc = localization_data(fp)
    D = loc.denom.degree()
    num = _numerator(fp, loc, D - 1)
    for level in range(n):
        block = num.homogeneous_part(D - n + level)
        if block:
            residue = GradedSeries(loc.arena, D - 1, block)
            return VanishingReport(False, level, residue)
    return VanishingReport(True, None, None)


def omega_numerator(fp, loc, omega):
    """Numerator of sum_p sign(p) m_{lambda(omega)}(weights) / prod(weights)
    over the common denominator loc.denom."""
    n = len(fp[0].weights)
    f_omega = monomial_sym(omega_to_partition(omega), n, xvars(n, "t"))
    num = MultiPoly(loc.arena)
    for idx, pt in enumerate(fp):
        bindings = {j: MultiPoly.linear_form(loc.arena, w) for j, w in enumerate(pt.weights)}
        num = num + f_omega.substitute(bindings) * loc.cofactors[idx] * loc.prefactors[idx]
    return num


def s_numbers(fp):
    """All s_omega, ||omega|| = n, each from its own f_omega localization sum."""
    n = len(fp[0].weights)
    loc = localization_data(fp)

    out = {}
    for omega in omegas_of_weight(n):
        num = omega_numerator(fp, loc, omega)
        if num.is_zero():
            out[omega] = 0
            continue
        try:
            quot = exact_div(num, loc.denom)
        except NotDivisible as exc:
            raise NonConstantResult("s_%s sum is not a multiple of the denominator" % (omega,)) from exc
        try:
            out[omega] = quot.as_constant()
        except ValueError as exc:
            raise NonConstantResult("s_%s collapsed to %s" % (omega, quot.canonical_text())) from exc
    return out


def default_numeric_point(fp):
    """Deterministic integer point avoiding all weight hyperplanes."""
    k = len(fp[0].weights[0])
    point = tuple(range(k))
    for _ in range(32):
        if all(sum(c * x for c, x in zip(w, point)) != 0
               for pt in fp for w in pt.weights):
            return point
        point = tuple(x + k for x in point)
    raise SingularPoint("no nonsingular default point found")


def s_number_numeric(fp, omega, point=None):
    """Evaluate the s_omega sum at an integer point; must match the symbolic value."""
    n = len(fp[0].weights)
    if point is None:
        point = default_numeric_point(fp)
    else:
        point = tuple(point)
        for pt in fp:
            for w in pt.weights:
                if sum(c * x for c, x in zip(w, point)) == 0:
                    raise SingularPoint("weight %s vanishes at %s" % (w, point))
    lam = omega_to_partition(omega)
    tarena = xvars(n, "t")
    f_omega = monomial_sym(lam, n, tarena)
    total = Fraction(0)
    for pt in fp:
        ts = [sum(c * x for c, x in zip(w, point)) for w in pt.weights]
        if any(t == 0 for t in ts):
            raise SingularPoint("weight vanishes at %s" % (point,))
        denom = 1
        for t in ts:
            denom *= t
        total += Fraction(pt.sign * f_omega.evaluate(ts), denom)
    return clean(total)


def genus_fibration_coefficients(fp, order, max_xi):
    """Coefficients [G_xi] of ch Phi rewritten in y_i = x_i/f(x_i).

    Returns a dict over all xi with |xi| <= max_xi (xi = 0 gives the class).
    """
    n = len(fp[0].weights)
    if order < n + max_xi:
        raise TruncationTooLow("order %d < n + |xi| = %d" % (order, n + max_xi))
    ch = chern_character_of_genus(fp, order)
    xorder = order - n
    arena = ch.arena
    k = arena.arity
    growth = b_in_a(xorder) if xorder >= 1 else ()
    bindings = []
    for i in range(k):
        t = {}
        for m in range(1, xorder + 1):
            e = [0] * k
            e[i] = m
            c = CobordismPoly.const(1) if m == 1 else growth[m - 2]
            t[tuple(e)] = c
        bindings.append(GradedSeries(arena, xorder, t))
    in_y = ch.substitute_series(bindings, arena, xorder) if xorder >= 1 else ch
    out = {}
    for e, c in in_y.terms.items():
        if sum(e) <= max_xi:
            out[e] = c
    zero = (0,) * k
    out.setdefault(zero, CobordismPoly())
    return out


def weyl_invariance_ok(spec, fp, order=None):
    """ch Phi must be invariant under every Weyl generator of G."""
    n = len(fp[0].weights)
    if order is None:
        order = n + 1
    ch = chern_character_of_genus(fp, order)
    if spec.family == "G2":
        from .rootdata import G2_S_LONG, G2_S_SHORT
        for M in (G2_S_SHORT, G2_S_LONG):
            forms = [MultiPoly.linear_form(ch.arena, (M[0][i], M[1][i])) for i in range(2)]
            if ch.substitute_linear(forms) != ch:
                return False
        return True
    for i in range(spec.rank - 1):
        perm = list(range(spec.rank))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if ch.permute(tuple(perm)) != ch:
            return False
    return True


def structure_label(spec):
    if spec.structure_name != "custom":
        return spec.structure_name
    return ",".join("%+d" % s for s in spec.signs)


def genus_report(spec, order=None):
    """Full result bundle for a space: class, s-table, and consistency checks."""
    fp = fixed_point_weights(spec)
    n = spec.n
    if order is None:
        order = n + 1
    cls = cobordism_class(fp)
    stable = s_numbers(fp)
    vanishing = verify_low_vanishing(fp)
    weyl_ok = weyl_invariance_ok(spec, fp, min(order, n + 1))
    class_rows = []
    for omega in omegas_of_weight(n):
        c = cls.coeff(omega)
        if c:
            class_rows.append({"omega": list(omega) + [0] * (n - len(omega)), "coeff": str(c)})
    s_rows = [{"omega": list(om) + [0] * (n - len(om)), "value": val}
              for om, val in sorted(stable.items())]
    return {
        "space": spec.descriptor,
        "structure": structure_label(spec),
        "class": class_rows,
        "s_numbers": s_rows,
        "checks": {"vanishing": bool(vanishing.ok), "weyl_invariance": bool(weyl_ok)},
    }
