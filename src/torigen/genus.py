"""Fixed-point localization for the universal toric genus.

Given a fixed-point weight table, the Chern-Dold character of the genus is

    ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x>

and everything here (cobordism class, low-degree vanishing, s_omega numbers,
fibration coefficients) is read off that sum. The class and the s_omega are
read off one integer point wherever the exact certificate _pole_free shows
that the sum has no poles. Otherwise, and wherever the full series in x is
needed, the sum is evaluated by putting all points over one polynomial common
denominator and dividing back exactly; inconsistent input data is detected as
a failed division, never hidden by per-summand simplification.

Degrees: the geometric-degree-d block of ch Phi carries cobordism weight
n + d, where 2n is the real dimension. Truncation orders are absolute: an
order-N character holds the blocks with n + d <= N.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .exactalg import (CobordismPoly, GradedSeries, MultiPoly, NotDivisible,
                       clean, exact_div_terms, xvars)
from .fgl import b_in_a
from .rootdata import fixed_point_weights
from .symmfunc import (monomial_sym, omega_to_partition, omega_weight, omegas_of_weight,
                       omegas_up_to, trim)


class SingularSum(Exception):
    pass


class NonIntegerClass(Exception):
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


def symbolic_class(fp):
    """The t^n coefficient read off the symbolic character: its degree-0 block,
    an integer class of weight n."""
    n = len(fp[0].weights)
    ch = chern_character_of_genus(fp, n)
    cls = ch.coeff((0,) * ch.arena.arity)
    if not cls.is_homogeneous(n):
        raise SingularSum("class is not homogeneous of weight %d" % n)
    if not cls.is_integral():
        raise NonIntegerClass(cls.canonical_text())
    return cls


def cobordism_class(fp):
    """The class sum_omega s_omega a^omega, ||omega|| = n: from one integer point
    where _pole_free vouches for the data, else from symbolic_class."""
    table = _certified_s_numbers(fp)
    if table is None:
        return symbolic_class(fp)
    cls = CobordismPoly(table)
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


def _pole_free(fp):
    """Exact certificate that every residue of the localization sum cancels.

    True only if every weight is primitive, the n weight lines at each point
    are distinct, and for every line l the points carrying l cancel in
    groups: points whose other weights agree modulo l as multisets (keyed
    by l_i*u - u_i*l, i the first nonzero coordinate of l) have
    sum sign(p) * orientation_p(l) = 0.

    Guarantee: then each point's term has at most a simple pole along
    <l, x> = 0, and within a group the residues there are one and the same
    rational function, so they cancel. Every a^omega block of the sum is
    therefore a polynomial, homogeneous of degree ||omega|| - n: zero for
    ||omega|| < n, and for ||omega|| = n a constant that its value at one
    nonsingular integer point gives exactly. False promises nothing; the
    caller falls back to the symbolic route.
    """
    n = len(fp[0].weights)
    groups = Counter()
    for pt in fp:
        if len(pt.weights) != n or any(gcd(*w) != 1 for w in pt.weights):
            return False
        lines = [canonical_line(w) for w in pt.weights]
        if len({line for line, _ in lines}) != n:
            return False
        for j, (line, orient) in enumerate(lines):
            i = next(i for i, c in enumerate(line) if c)
            rest = sorted(tuple(line[i] * uc - u[i] * lc for uc, lc in zip(u, line))
                          for m, u in enumerate(pt.weights) if m != j)
            groups[line, tuple(rest)] += pt.sign * orient
    return not any(groups.values())


@lru_cache(maxsize=None)
def _product_steps(n):
    """Monomials a^omega of weight <= n, and for each the (k, index of a_k * a^omega)
    that stay within weight n: the moves of one factor 1 + sum_k a_k (c t)^k."""
    omegas = omegas_up_to(n)
    index = {om: i for i, om in enumerate(omegas)}
    steps = []
    for om in omegas:
        w = omega_weight(om)
        moves = []
        for k in range(1, n - w + 1):
            up = list(om) + [0] * (k - len(om))
            up[k - 1] += 1
            moves.append((k, index[tuple(up)]))
        steps.append(moves)
    return omegas, steps


def point_s_numbers(fp, point):
    """All s_omega, ||omega|| = n, evaluated at one integer point:

        s_omega = sum_p sign(p) [a^omega t^n] prod_j f(c_j t) / prod_j c_j,

    c_j = <Lambda_j(p), point>, in exact integers and one Fraction per omega.
    This is the localization sum at that point; it is the s-number wherever the
    sum is constant (see _pole_free)."""
    n = len(fp[0].weights)
    point = tuple(point)
    omegas, steps = _product_steps(n)
    top = [i for i, om in enumerate(omegas) if omega_weight(om) == n]
    rows = []
    for pt in fp:
        cs = []
        for w in pt.weights:
            c = sum(a * x for a, x in zip(w, point))
            if c == 0:
                raise SingularPoint("weight %s vanishes at %s" % (w, point))
            cs.append(c)
        acc = [0] * len(omegas)
        acc[0] = 1
        for c in cs:
            powers = [c ** k for k in range(n + 1)]
            nxt = acc[:]
            for i, v in enumerate(acc):
                if v:
                    for k, j in steps[i]:
                        nxt[j] += v * powers[k]
            acc = nxt
        rows.append((pt.sign, prod(cs), acc))
    common = lcm(*(den for _, den, _ in rows))
    sums = [0] * len(omegas)
    for sign, den, acc in rows:
        scale = sign * (common // den)
        for i in top:
            sums[i] += scale * acc[i]
    return {omegas[i]: clean(Fraction(sums[i], common)) for i in top}


def _certified_s_numbers(fp):
    """point_s_numbers at default_numeric_point if _pole_free holds, else None."""
    if not _pole_free(fp):
        return None
    try:
        return point_s_numbers(fp, default_numeric_point(fp))
    except SingularPoint:
        return None


def s_numbers(fp):
    """All s_omega, ||omega|| = n: the certified point values, else the
    coefficients of symbolic_class (whose errors propagate)."""
    table = _certified_s_numbers(fp)
    if table is None:
        cls = symbolic_class(fp)
        table = {om: cls.coeff(om) for om in omegas_of_weight(len(fp[0].weights))}
    return table


def _nonsingular(fp, point):
    return all(sum(c * x for c, x in zip(w, point)) != 0 for pt in fp for w in pt.weights)


def default_numeric_point(fp):
    """Deterministic integer point avoiding all weight hyperplanes."""
    k = len(fp[0].weights[0])
    point = tuple(range(k))
    for _ in range(32):
        if _nonsingular(fp, point):
            return point
        point = tuple(x + k for x in point)
    raise SingularPoint("no nonsingular default point found")


def second_numeric_point(fp):
    """A nonsingular point (1, m, m^2, ...), m >= 2, for a cross-check against
    default_numeric_point. The default sequence steps along (1, ..., 1), on
    which every root of U(n) vanishes, so its points all give the same weight
    values; this one does not."""
    k = len(fp[0].weights[0])
    for m in range(2, 34):
        point = tuple(m ** i for i in range(k))
        if _nonsingular(fp, point):
            return point
    raise SingularPoint("no nonsingular second point found")


def s_number_numeric(fp, omega, point=None):
    """One entry of point_s_numbers, at point or at default_numeric_point."""
    if point is None:
        point = default_numeric_point(fp)
    return point_s_numbers(fp, point)[trim(omega)]


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
