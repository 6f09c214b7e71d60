"""Fixed-point localization for the universal toric genus.

Given a fixed-point weight table, the Chern-Dold character of the genus is

    ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x>

and everything here (cobordism class, s_omega numbers, Chern numbers, the
character's a^omega blocks) is read off that sum. Each kind of answer has one
route:

- Numbers come from one point evaluator. At a fixed point the Chern classes
  restrict to the elementary symmetric functions of the weights, so
  c^xi[M] = sum_p sign(p) e^xi(c(p)) / prod_j c_j(p) (Atiyah-Bott);
  point_chern_numbers evaluates this at an integer point, and the s-numbers
  solve c = T s by forward substitution on the integer unitriangular e -> m
  matrix T (chern.chern_to_s). Where the exact certificate _pole_free shows
  that the sum has no poles, one point gives every number exactly.
- Otherwise, and wherever the blocks in x are needed, the symbolic
  character puts all points over one polynomial common denominator, checks
  that the singular blocks cancel and divides back exactly; inconsistent
  input data is detected as a failed cancellation or division, never hidden
  by per-summand simplification. The numerator, sum_p prefactor_p *
  cofactor_p * prod_j f(<Lambda_j(p), x>), comes from exactalg.f_product_sum
  as one polynomial in x per a^omega, and is checked and divided a^omega by
  a^omega. The character stays in that form, {omega: MultiPoly}, and carries
  the low-block cancellation, the class (the blocks' constant terms) and the
  Weyl check.
- Only the symbolic route (localization_data, character_numerator,
  chern_character_of_genus, class_of_character, weyl_invariance_ok)
  imports the polynomial kernel, inside those functions: a verb that the
  certificate answers never loads exactalg.
- The tests check the kernel and stablex.check_necessary against
  omega_numerator in tests/reference.py, which builds one a^omega block by
  m_lambda substitution instead.

Degrees: block omega of ch Phi is homogeneous of geometric degree
d = ||omega|| - n, where 2n is the real dimension. Truncation orders are
absolute: an order-N character holds the blocks with ||omega|| = n + d <= N.
"""

from collections import Counter, namedtuple
from math import gcd, lcm, prod

from . import CheckFailure
from .chern import chern_to_s, s_to_chern
from .cobordism import CobordismPoly
from .rootdata import fixed_point_weights
from .symmfunc import omega_weight, omegas_of_weight, trim


class SingularSum(CheckFailure):
    pass


class NonIntegerClass(CheckFailure):
    pass


class SingularPoint(CheckFailure):
    pass


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
    from .exactalg import MultiPoly, xvars
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
    from .exactalg import f_product_sum
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
    from .exactalg import GradedSeries, MultiPoly, NotDivisible, exact_div_terms
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
            raise SingularSum(
                "degree-%d numerator block does not cancel: %s"
                % (wt + D - n, GradedSeries(loc.arena, wt + D - n, block).canonical_text()))
    blocks = {}
    for wt in range(n, order + 1):
        for om in by_weight[wt]:
            try:
                blocks[om] = MultiPoly(loc.arena, exact_div_terms(num[om].terms, loc.denom.terms))
            except NotDivisible as exc:
                raise SingularSum("degree-%d block not divisible by denominator" % (wt + D - n)) from exc
    return blocks


def class_of_character(ch, n):
    """The t^n coefficient of a character: the constant terms of its blocks,
    which must form an integer class of weight n."""
    from .exactalg import block_coefficient
    k = next((b.arena.arity for b in ch.values()), 0)
    cls = block_coefficient(ch, (0,) * k)
    if not cls.is_homogeneous(n):
        raise SingularSum("class is not homogeneous of weight %d" % n)
    if not cls.is_integral():
        raise NonIntegerClass(cls.canonical_text())
    return cls


def symbolic_class(fp):
    """The class read off the symbolic character of order n."""
    n = len(fp[0].weights)
    return class_of_character(chern_character_of_genus(fp, n), n)


def cobordism_class(fp):
    """The class sum_omega s_omega a^omega, ||omega|| = n."""
    return CobordismPoly(s_numbers(fp))


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


def point_chern_numbers(fp, point):
    """All Chern numbers c^xi, |xi| = n, evaluated at one integer point:

        c^xi = sum_p sign(p) e_1^xi_1 ... e_n^xi_n / prod_j c_j,

    e_k the elementary symmetric functions of c_j = <Lambda_j(p), point>, in
    exact integers over one common denominator; a value is an int where that
    denominator divides it, else a Fraction. This is the localization sum at
    that point; it is the Chern number wherever the sum is constant (see
    _pole_free)."""
    n = len(fp[0].weights)
    point = tuple(point)
    xis = omegas_of_weight(n)
    rows = []
    for pt in fp:
        cs = []
        for w in pt.weights:
            c = sum(a * x for a, x in zip(w, point))
            if c == 0:
                raise SingularPoint("weight %s vanishes at %s" % (w, point))
            cs.append(c)
        e = [1] + [0] * n
        for i, c in enumerate(cs, 1):
            for k in range(i, 0, -1):
                e[k] += c * e[k - 1]
        rows.append((pt.sign, prod(cs),
                     [prod(e[k] ** m for k, m in enumerate(xi, 1) if m) for xi in xis]))
    common = lcm(*(den for _, den, _ in rows))
    sums = [0] * len(xis)
    for sign, den, vals in rows:
        scale = sign * (common // den)
        for i, v in enumerate(vals):
            sums[i] += scale * v
    out = {}
    for xi, v in zip(xis, sums):
        q, r = divmod(v, common)
        if r:
            from fractions import Fraction
            q = Fraction(v, common)
        out[xi] = q
    return out


def _certified_chern_numbers(fp):
    """point_chern_numbers at default_numeric_point if _pole_free holds, else
    None. A certified table that is not integral raises NonIntegerClass: T is
    integer unitriangular, so the Chern numbers are integers exactly when the
    s-numbers are."""
    if not _pole_free(fp):
        return None
    try:
        table = point_chern_numbers(fp, default_numeric_point(fp))
    except SingularPoint:
        return None
    if not all(isinstance(v, int) for v in table.values()):
        raise NonIntegerClass(CobordismPoly(chern_to_s(table, len(fp[0].weights))).canonical_text())
    return table


def _symbolic_s_numbers(fp):
    cls = symbolic_class(fp)
    return {om: cls.coeff(om) for om in omegas_of_weight(len(fp[0].weights))}


def chern_numbers(fp):
    """All c^xi, |xi| = n: the certified point values, else s_to_chern of the
    coefficients of symbolic_class (whose errors propagate)."""
    table = _certified_chern_numbers(fp)
    if table is None:
        return s_to_chern(_symbolic_s_numbers(fp), len(fp[0].weights))
    return table


def s_numbers(fp):
    """All s_omega, ||omega|| = n: chern_to_s of the certified Chern numbers, else
    the coefficients of symbolic_class (whose errors propagate)."""
    table = _certified_chern_numbers(fp)
    if table is None:
        return _symbolic_s_numbers(fp)
    return chern_to_s(table, len(fp[0].weights))


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


def s_number_numeric(fp, omega, point):
    """s_omega of the localization sum at point. Data that _pole_free rejects
    goes through symbolic_class first, so inconsistent data raises the error
    that class raises."""
    if _certified_chern_numbers(fp) is None:
        symbolic_class(fp)
    return chern_to_s(point_chern_numbers(fp, point), len(fp[0].weights))[trim(omega)]


def weyl_invariance_ok(spec, ch):
    """Every block of the character ch of a space of spec must be invariant
    under every Weyl generator of G."""
    from .exactalg import MultiPoly
    if spec.family == "G2":
        from .rootdata import G2_S_LONG, G2_S_SHORT
        for M in (G2_S_SHORT, G2_S_LONG):
            for block in ch.values():
                forms = {i: MultiPoly.linear_form(block.arena, (M[0][i], M[1][i])) for i in range(2)}
                if block.substitute(forms) != block:
                    return False
        return True
    for i in range(spec.rank - 1):
        perm = list(range(spec.rank))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if any(block.permute(perm) != block for block in ch.values()):
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
    stable = s_numbers(fp)
    # the build raises SingularSum unless the low blocks cancel, so a report
    # exists only if the vanishing check holds
    ch = chern_character_of_genus(fp, order)
    rows = [(list(om) + [0] * (n - len(om)), val) for om, val in sorted(stable.items())]
    return {
        "space": spec.descriptor,
        "structure": structure_label(spec),
        "class": [{"omega": om, "coeff": str(val)} for om, val in rows if val],
        "s_numbers": [{"omega": om, "value": val} for om, val in rows],
        "checks": {"vanishing": True, "weyl_invariance": weyl_invariance_ok(spec, ch)},
    }
