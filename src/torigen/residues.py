"""The residues of a localization sum that the certificate does not pass.

genus.check_poles loads this module only where genus._pole_free fails, so
the certified route compiles none of it. Each point's term of

    ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x>

has at most a simple pole along each weight line <l, x> = 0 (primitive
weights on distinct lines), and the points carrying l enter its residue in
the groups of genus.line_groups: the residue of block a^omega along l is
sum_g c_g m_lambda(V_g) / prod V_g, c_g a group's sum of
sign(p) * orientation_p(l) and V_g its other weights on the hyperplane
(residue_rows). A block has no pole exactly when every residue is zero, and
_ResidueLine decides that exactly on a determining set. The residue rows
are those the sign search reads too (stablex._full_rank).

series_values is the a-series product prod_j (1 + sum_i a_i c_j^i) at
numbers c_j, whose a^omega coefficient is m_lambda(c): the residue rows and
the interpolated character blocks (character.point_blocks) read it.
"""

from collections import Counter
from functools import lru_cache
from itertools import count
from math import gcd, lcm, prod

from . import CheckFailure, genus
from .cobordism import render_terms
from .symmfunc import omega_weight, omegas_of_weight


@lru_cache(maxsize=None)
def _series_plan(order):
    """(omegas, steps) for series_values: every omega of weight <= order, and
    per omega, heaviest first, its index and the (index, k) of omega + e_k."""
    omegas = [om for w in range(order + 1) for om in omegas_of_weight(w)]
    index = {om: i for i, om in enumerate(omegas)}
    steps = []
    for om in sorted(omegas, key=omega_weight, reverse=True):
        ups = []
        for k in range(1, order - omega_weight(om) + 1):
            up = list(om) + [0] * (k - len(om))
            up[k - 1] += 1
            ups.append((index[tuple(up)], k))
        steps.append((index[om], ups))
    return omegas, steps


def series_values(cs, order):
    """{omega: m_lambda(cs)}, ||omega|| <= order: the a^omega coefficients of
    prod_j (1 + a_1 c_j + a_2 c_j^2 + ...) at the numbers cs, lambda the
    partition of omega. One pass over the factors, in place: factor j adds
    c_j^k times block omega into block omega + e_k, the heaviest blocks
    first, so each is read before this factor adds into it."""
    omegas, steps = _series_plan(order)
    vals = [1] + [0] * (len(omegas) - 1)
    for c in cs:
        powers = [1]
        for _ in range(order):
            powers.append(powers[-1] * c)
        for i, ups in steps:
            v = vals[i]
            if v:
                for j, k in ups:
                    vals[j] += v * powers[k]
    return dict(zip(omegas, vals))


def residue_rows(keys, point, order):
    """(common, rows): the residue rows of one weight line at point. Per
    omega, ||omega|| <= order, rows[omega] lists common * m_lambda(V) / prod V
    over the groups, V the values <v, point> of the vectors v of a group's
    key and common the lcm of the |prod V|. The key of line_groups has 0 at
    the line's first nonzero coordinate i, and <key, z> = <u, y> for y on
    the line's hyperplane with y_j = l_i z_j off i, so every point z gives
    the true residues at such a y. SingularPoint if a V is 0."""
    terms = []
    for key in keys:
        vs = [sum(a * b for a, b in zip(v, point)) for v in key]
        if 0 in vs:
            raise genus.SingularPoint("weight %s vanishes at %s" % (key[vs.index(0)], tuple(point)))
        terms.append((prod(vs), series_values(vs, order)))
    common = lcm(*(den for den, _ in terms))
    return common, {om: [vals[om] * (common // den) for den, vals in terms] for om in terms[0][1]}


def simplex(dims, d):
    """The points of N^dims with coordinate sum at most d, by sum and then in
    lexicographic order, so that those of sum at most d' < d come first."""
    pts = [()]
    for _ in range(dims):
        pts = [p + (c,) for p in pts for c in range(d + 1 - sum(p))]
    return sorted(pts, key=lambda a: (sum(a), a))


def _primitive(v):
    g = gcd(*v)
    return genus.canonical_line(tuple(c // g for c in v))[0]


class _ResidueLine:
    """The residues of the blocks along one weight line l whose groups do
    not cancel, at the points of a determining set, evaluated as needed.

    The residue R of block omega is a rational function on the hyperplane
    <l, x> = 0, homogeneous of degree ||omega|| - (n - 1), with denominators
    the key forms. Cleared by D, the product of the distinct forms (up to
    scale) at their highest multiplicity in one group, it is a polynomial
    Q = D R of degree ||omega|| - (n - 1) + deg D in the k - 1 coordinates
    off i: zero when that is negative, and else zero exactly when it
    vanishes on the simplex of that degree (simplex), shifted by m b. No
    form vanishes there, b a point where none does and m above the largest
    |<v, alpha>| on the simplex, so Q vanishes there exactly when R does:
    R is zero exactly when it is zero at those points. The points of lower
    degree come first, so every block reads a prefix of one list; each
    point is evaluated only to the weight of the block being proved, and
    the prefix is evaluated again when that weight rises."""

    def __init__(self, line, groups, n, order):
        self.line, self.n = line, n
        self.keys = [key for key, _ in groups]
        self.weights = [c for _, c in groups]
        self.i = next(i for i, c in enumerate(line) if c)
        need = Counter()
        for key in self.keys:
            for form, mult in Counter(_primitive(v) for v in key).items():
                need[form] = max(need[form], mult)
        self.clear = sum(need.values())
        top = order - (n - 1) + self.clear
        free = [j for j in range(len(line)) if j != self.i]
        vectors = [v for key in self.keys for v in key]
        b = next(b for b in ({j: base ** r for r, j in enumerate(free)} for base in count(2))
                 if all(sum(v[j] * b[j] for j in free) for v in vectors))
        m = top * max(abs(c) for v in vectors for c in v) + 1
        lattice = simplex(len(free), top) if top >= 0 else []
        self.points = []
        for alpha in lattice:
            z = [0] * len(line)
            for j, a in zip(free, alpha):
                z[j] = m * b[j] + a
            self.points.append(z)
        self.sizes = Counter(sum(a) for a in lattice)
        self.weight = None   # the omega weight that done is evaluated to
        self.done = []   # (point, common, {omega: residue times common})

    def first_nonzero(self, omega):
        """(point, common, value times common) at the first point of the
        determining set of omega's residue where it is not 0; None when it
        is 0 there, and so everywhere."""
        weight = omega_weight(omega)
        d = weight - (self.n - 1) + self.clear
        need = sum(self.sizes[t] for t in range(d + 1)) if d >= 0 else 0
        if weight != self.weight:
            self.weight, self.done = weight, []
        while len(self.done) < need:
            point = self.points[len(self.done)]
            common, rows = residue_rows(self.keys, point, weight)
            self.done.append((point, common, {om: sum(c * r for c, r in zip(self.weights, row))
                                              for om, row in rows.items()}))
        return next(((p, common, vals[omega]) for p, common, vals in self.done[:need] if vals.get(omega)), None)

    def on_line(self, z):
        """The point y of <l, y> = 0 at which the key values at z are the
        values <u, y> of the weights: y_j = l_i z_j off i."""
        li = self.line[self.i]
        y = [li * c for c in z]
        y[self.i] = -sum(lc * c for lc, c in zip(self.line, z))
        return tuple(y)


def check_residues(fp, order):
    """Return when no a^omega block with ||omega|| <= order has a pole; else
    raise SingularSum naming the first that has one, by weight and then in
    sorted order, the line, a point on it and the residue's value there.

    Every line whose groups do not cancel is read by _ResidueLine. A block
    has no pole exactly when every residue is 0; a nonzero value proves a
    pole, and a zero is proved on a determining set. CheckFailure where the
    weights at a point are not primitive on distinct lines, which the
    residues need."""
    sums = genus.line_sums(fp)
    if sums is None:
        raise CheckFailure("the residues need primitive weights on distinct lines at every point")
    n = len(fp[0].weights)
    lines = []
    for line in sorted(sums):
        groups = [(key, c) for key, c in sorted(sums[line].items()) if c]
        if groups:
            lines.append(_ResidueLine(line, groups, n, order))
    for weight in range(order + 1):
        for omega in omegas_of_weight(weight):
            for res in lines:
                hit = res.first_nonzero(omega)
                if hit is None:
                    continue
                z, common, value = hit
                from fractions import Fraction
                residue = Fraction(value, common)
                form = render_terms({tuple(int(j == i) for j in range(len(res.line))): c
                                     for i, c in enumerate(res.line) if c},
                                    ["x%d" % (j + 1) for j in range(len(res.line))])
                text = "residue %s at %s on %s = 0" % (residue, res.on_line(z), form)
                padded = list(omega) + [0] * (n - len(omega))
                raise genus.SingularSum("block omega=%s has a pole: %s" % (padded, text), omega, text)


