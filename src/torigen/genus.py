"""Fixed-point localization for the universal toric genus.

Given a fixed-point weight table, the Chern-Dold character of the genus is

    ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x>

and the cobordism class, the s_omega numbers and the Chern numbers are read
off that sum here, from fixed-point data alone (Atiyah-Bott).

- The numbers come from one point evaluator. At a fixed point the Chern
  classes restrict to the elementary symmetric functions of the weights, so
  c^xi[M] = sum_p sign(p) e^xi(c(p)) / prod_j c_j(p). point_terms gives
  every e^xi with |xi| <= order at once, one multiplication each on the
  plan of that order (plan); point_chern_numbers sums them at an integer
  point as they stream (signed_sum), and the s-numbers solve c = T s by
  forward substitution on the integer unitriangular e -> m matrix T
  (chern.chern_to_s). Where the sum has no poles, one point gives every
  number exactly. The residues and the sign search read the same
  point_terms, and form_values is the one place a point is found
  singular.
- The exact certificate _pole_free shows that the sum has no poles when the
  points on each weight line cancel in groups. line_sums holds only the
  groups that stay open, the ones its readers read: a group leaves as soon
  as its running sum returns to 0. Where the certificate fails,
  check_poles decides by residues (the residues module, loaded only then):
  along each weight line whose groups do not cancel, the residue of c^xi
  is sum_g c_g e^xi(V_g) / prod V_g over the groups, evaluated on a
  determining set (lattice), and that of block a^omega is chern_to_s of
  those of its weight. The first block with a nonzero residue, by weight
  and then in sorted order, is a SingularSum that names the line, the
  point and the value; when every residue is zero, the blocks are
  polynomials and one point gives the class.
- Either failure is a FailedBlock that names the a^omega block and its
  value as text: the check of stable --assign is s_numbers itself.

Block omega of ch Phi is homogeneous of geometric degree d = ||omega|| - n,
where 2n is the real dimension. The character module interpolates its
blocks, the equivariant Chern numbers, from point_chern_numbers at every
weight, and this module never loads it.
"""

from functools import lru_cache
from itertools import count, repeat
from math import gcd, lcm, prod

from . import CheckFailure
from .chern import chern_to_s
from .cobordism import CobordismPoly
from .symmfunc import omegas_of_weight, pad, trim


class FailedBlock(CheckFailure):
    """A localization sum that fails a check at an a^omega block: omega names
    the first such block and value its value as text (the residue of a pole
    with its point and line, or the non-integral s-number), None where no
    block is named."""

    def __init__(self, message, omega=None, value=None):
        super().__init__(message)
        self.omega = omega
        self.value = value


class NonIntegerClass(FailedBlock):
    pass


class SingularSum(FailedBlock):
    pass


class SingularPoint(CheckFailure):
    pass


def canonical_line(weight):
    """Primitive representative of the line through a weight: (line, sign)."""
    for c in weight:
        if c > 0:
            return tuple(weight), 1
        if c < 0:
            return tuple(-x for x in weight), -1
    raise ValueError("zero weight")


def cobordism_class(fp):
    """The class sum_omega s_omega a^omega, ||omega|| = n."""
    return CobordismPoly(s_numbers(fp))


def line_groups(pt):
    """The groups of _pole_free at one point: ((line, key), orientation) per
    weight, key the other weights modulo the line (l_i*u - u_i*l, i the first
    nonzero coordinate of l), sorted. None when a weight is not primitive or
    two weights share a line."""
    lines = [canonical_line(w) for w in pt.weights if gcd(*w) == 1]
    if len({line for line, _ in lines}) != len(pt.weights):
        return None
    out = []
    for j, (line, orient) in enumerate(lines):
        i = next(i for i, c in enumerate(line) if c)
        rest = sorted(tuple(line[i] * uc - u[i] * lc for uc, lc in zip(u, line))
                      for m, u in enumerate(pt.weights) if m != j)
        out.append(((line, tuple(rest)), orient))
    return out


def line_sums(fp):
    """{line: {key: sum of sign(p) * orientation_p(line)}} over the groups of
    line_groups at every point, holding only the open groups: a group leaves
    its line's dict as soon as its running sum returns to 0, so a line whose
    groups all cancel maps to {}. None when a point has a weight that is not
    primitive, two weights on one line, or not n weights."""
    n = len(fp[0].weights)
    sums = {}
    for pt in fp:
        found = line_groups(pt) if len(pt.weights) == n else None
        if found is None:
            return None
        for (line, key), orient in found:
            groups = sums.setdefault(line, {})
            c = groups.pop(key, 0) + pt.sign * orient
            if c:
                groups[key] = c
    return sums


def _pole_free(sums):
    """Exact certificate that every residue of the localization sum cancels,
    read off sums = line_sums(fp), which holds only the groups that do not
    cancel: the certificate holds when no line holds one.

    True only if every weight is primitive, the n weight lines at each point
    are distinct (sums is not None), and for every line l the points
    carrying l cancel in groups (line_groups): points whose other weights
    agree modulo l as multisets have sum sign(p) * orientation_p(l) = 0.

    Guarantee: then each point's term has at most a simple pole along
    <l, x> = 0, and within a group the residues there are one and the same
    rational function, so they cancel. Every a^omega block of the sum is
    therefore a polynomial, homogeneous of degree ||omega|| - n: zero for
    ||omega|| < n, and for ||omega|| = n a constant that its value at one
    nonsingular integer point gives exactly. False promises nothing; the
    residues decide (check_poles).
    """
    return sums is not None and not any(sums.values())


def check_poles(fp, order, sums=None):
    """Return when no a^omega block with ||omega|| <= order has a pole; else
    raise SingularSum naming the first that has one, by weight and then in
    sorted order, the line, a point on it and the residue's value there.

    _pole_free answers first, off sums = line_sums(fp), which a caller that
    checks twice computes once and passes; only a table that it does not
    certify loads the residues module, which reads the residues of the sum
    along every line whose groups do not cancel (residues.check_residues),
    off the same sums."""
    if sums is None:
        sums = line_sums(fp)
    if not _pole_free(sums):
        from .residues import check_residues
        check_residues(sums, len(fp[0].weights), order)


def form_values(forms, point):
    """[<v, point> for v in forms]: the values of weights, or of the vectors
    of a residue key, at an integer point. SingularPoint if one is 0."""
    cs = [sum(a * x for a, x in zip(v, point)) for v in forms]
    if 0 in cs:
        raise SingularPoint("weight %s vanishes at %s" % (forms[cs.index(0)], tuple(point)))
    return cs


@lru_cache(maxsize=None)
def plan(order):
    """(xis, steps) for point_terms: every xi with |xi| <= order, by weight
    and then sorted, and for each after () the (index, k) of its parent, xi
    less one smallest part k, so that e^xi = e^parent * e_k."""
    xis = tuple(xi for w in range(order + 1) for xi in omegas_of_weight(w))
    index = {xi: i for i, xi in enumerate(xis)}
    steps = []
    for xi in xis[1:]:
        k = next(k for k, m in enumerate(xi, 1) if m)
        steps.append((index[trim(xi[:k - 1] + (xi[k - 1] - 1,) + xi[k:])], k))
    return xis, tuple(steps)


def point_terms(cs, order):
    """[e^xi(cs) for xi in plan(order)'s xis], e^xi = e_1^xi_1 e_2^xi_2 ...
    in the numbers cs, e_k = 0 above their number: one multiplication per
    xi. The weight-w terms are the last len(omegas_of_weight(w)) of
    point_terms(cs, w)."""
    e = [1] + [0] * order
    for i, c in enumerate(cs, 1):
        for k in range(min(i, order), 0, -1):
            e[k] += c * e[k - 1]
    vals = [1]
    for parent, k in plan(order)[1]:
        vals.append(vals[parent] * e[k])
    return vals


def common_scales(groups, point):
    """(common, [(cs, common // prod cs)]): cs = form_values(forms, point) for
    each list of forms in groups, and common the lcm of the |prod cs|, so
    that v * scale is common * v / prod cs exactly. Every sum over one
    common denominator (signed_sum, the residue rows, the sign search's
    integrality test) is scaled here."""
    cs = [form_values(forms, point) for forms in groups]
    dens = [prod(c) for c in cs]
    common = lcm(*dens)
    return common, [(c, common // den) for c, den in zip(cs, dens)]


def signed_sum(fp, point, values):
    """(common, sums): sums[i] = common * sum_p sign(p) values(cs)[i] / prod cs,
    cs = form_values(pt.weights, point) at each point p of fp and common
    the lcm of the |prod cs| (common_scales). The denominators come first,
    and each point's scaled values are added into one running list, so no
    point's values outlive its turn."""
    common, scales = common_scales([pt.weights for pt in fp], point)
    sums = []
    for pt, (c, scale) in zip(fp, scales):
        sums = [t + pt.sign * scale * v for t, v in zip(sums or repeat(0), values(c))]
    return common, sums


def point_chern_numbers(fp, point, weight=None):
    """All c^xi, |xi| = weight (default n), evaluated at one integer point:

        c^xi = sum_p sign(p) e_1^xi_1 e_2^xi_2 ... / prod_j c_j,

    e_k the elementary symmetric functions of c_j = <Lambda_j(p), point>
    (point_terms), 0 for k above n, in exact integers over one common
    denominator (signed_sum); a value is an int where that denominator
    divides it, else a Fraction. This is the localization sum at that
    point. At weight n it is the Chern number wherever the sum is constant
    (see check_poles); at any weight, it is the value there of the
    equivariant Chern number c^xi of the character
    (character.character_blocks), and chern_to_s of it that of every block
    a^omega of that weight, as e^xi = sum_omega T[xi][omega] m_lambda(omega)
    holds in n variables too."""
    w = len(fp[0].weights) if weight is None else weight
    xis = omegas_of_weight(w)
    common, sums = signed_sum(fp, point, lambda cs: point_terms(cs, w)[-len(xis):])
    out = {}
    for xi, v in zip(xis, sums):
        q, r = divmod(v, common)
        if r:
            from fractions import Fraction
            q = Fraction(v, common)
        out[xi] = q
    return out


def non_integer_class(cls):
    """NonIntegerClass for a class that is not integral, naming its first
    non-integral coefficient in sorted omega order."""
    omega = next(om for om in sorted(cls.terms) if type(cls.terms[om]) is not int)
    return NonIntegerClass(cls.canonical_text(), omega, str(cls.terms[omega]))


def chern_numbers(fp, sums=None):
    """All c^xi, |xi| = n: the point values at default_numeric_point, once
    check_poles (on sums, if given) has shown that the blocks with
    ||omega|| <= n have no poles (its SingularSum propagates). A table that
    is not integral raises NonIntegerClass: T is integer unitriangular, so
    the Chern numbers are integers exactly when the s-numbers are."""
    n = len(fp[0].weights)
    check_poles(fp, n, sums)
    table = point_chern_numbers(fp, default_numeric_point(fp))
    if not all(isinstance(v, int) for v in table.values()):
        raise non_integer_class(CobordismPoly(chern_to_s(table, n)))
    return table


def s_numbers(fp):
    """All s_omega, ||omega|| = n: chern_to_s of chern_numbers, whose errors
    propagate."""
    return chern_to_s(chern_numbers(fp), len(fp[0].weights))


def simplex(dims, d):
    """The points of N^dims with coordinate sum at most d, by sum and then in
    lexicographic order, so that those of sum at most d' < d come first."""
    pts = [()]
    for _ in range(dims):
        pts = [p + (c,) for p in pts for c in range(d + 1 - sum(p))]
    return sorted(pts, key=lambda a: (sum(a), a))


def lattice(vectors, coords, size, top):
    """points(d), d <= top: the determining set of degree d, lists of size
    coordinates at which no vector of `vectors` vanishes. They are
    m b + (alpha, 0), alpha over simplex(len(coords) - 1, d) on coords but
    the last: b is base^r at the r-th of coords and 0 off them, base >= 2
    the first at which no vector vanishes, and m = top * max|entry| + 1, so
    |<v, m b>| >= m exceeds |<v, (alpha, 0)>|. They run by |alpha|: m b
    comes first, and points(d) is a prefix of points(top).

    A polynomial Q homogeneous of degree d in coords is zero exactly when it
    is zero at points(d): with the last coordinate fixed at s != 0, Q(z', s)
    has degree <= d in one coordinate fewer, so it is zero exactly when it
    vanishes on a shifted simplex of degree d, and Q(z', t) = (t / s)^d
    Q(s z' / t, s) for t != 0.

    The residues' and the character's determining sets and
    default_numeric_point are all built here."""
    base = next(b for b in count(2) if all(sum(v[j] * b ** r for r, j in enumerate(coords)) for v in vectors))
    m = top * max((abs(c) for v in vectors for c in v), default=0) + 1
    shift = [m * base ** coords.index(j) if j in coords else 0 for j in range(size)]

    @lru_cache(maxsize=None)
    def points(d):
        out = []
        for alpha in simplex(len(coords) - 1, d):
            z = list(shift)
            for j, a in zip(coords, alpha):
                z[j] += a
            out.append(z)
        return out
    return points


def default_numeric_point(fp):
    """m b + e_1, the last point of lattice's degree-1 set on every
    coordinate: nonsingular, and not proportional to m b, the first point,
    at which the character (character.character_blocks) reads its blocks of
    degree 0, so verify's two reads give different weight values."""
    k = len(fp[0].weights[0])
    return tuple(lattice([w for pt in fp for w in pt.weights], range(k), k, 1)(1)[-1])


def s_number_numeric(fp, omega, point):
    """s_omega of the localization sum at point, once s_numbers has accepted
    the data, so inconsistent data raises the error that class raises."""
    s_numbers(fp)
    return chern_to_s(point_chern_numbers(fp, point), len(fp[0].weights))[trim(omega)]


def s_table(table, n):
    """An s-table as the rows {"omega": omega padded to n, "value": s}, by
    omega: the rows that snumbers, genus and stable --assign print."""
    return [{"omega": pad(om, n), "value": v} for om, v in sorted(table.items())]


def s_lines(rows):
    """The text lines "s_[...] = s" of the rows of s_table."""
    return ["s_%s = %d" % (row["omega"], row["value"]) for row in rows]


def structure_label(spec):
    if spec.structure_name != "custom":
        return spec.structure_name
    return ",".join("%+d" % s for s in spec.signs)
