"""The residues of a localization sum that the certificate does not pass,
and the a-series product at a point that reads them.

genus.check_poles loads this module only where genus._pole_free fails, so
the certified route compiles none of it. Each point's term of

    ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x>

has at most a simple pole along each weight line <l, x> = 0 (primitive
weights on distinct lines), and the points carrying l enter its residue in
the groups of genus.line_groups: the residue of block a^omega along l is
sum_g c_g m_lambda(V_g) / prod V_g, c_g a group's sum of
sign(p) * orientation_p(l) and V_g its other weights on the hyperplane
(residue_rows). A block has no pole exactly when every residue is zero, and
_ResidueLine decides that exactly on a determining set. The sign search
reads the same rows at the same points: the rank of _ResidueLine is its
proof that the group sums decide admissibility.

The determining sets are genus.lattice's, as are character.character_blocks'.
residue_rows reads the a-series product prod_j (1 + sum_i a_i c_j^i) over one
common denominator. Beyond the residues, only verify reads it, once, for
the class at one point (character.point_blocks); the character's blocks,
the equivariant Chern numbers, come from genus.point_chern_numbers.
"""

from collections import Counter
from functools import lru_cache
from math import gcd, lcm, prod

from . import CheckFailure, genus
from .cobordism import render_terms
from .symmfunc import omega_weight, omegas_of_weight, pad


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
    """(common, rows): per omega, ||omega|| <= order, rows[omega] lists
    common * m_lambda(V) / prod V over the keys, V the values <v, point> of
    the vectors v of a key and common the lcm of the |prod V|. The key of a
    line's group has 0 at the line's first nonzero coordinate i, and
    <key, z> = <u, y> for y on the line's hyperplane with y_j = l_i z_j off
    i, so every z gives the true residues at such a y. SingularPoint if a V
    is 0."""
    terms = []
    for key in keys:
        vs = [sum(a * b for a, b in zip(v, point)) for v in key]
        if 0 in vs:
            raise genus.SingularPoint("weight %s vanishes at %s" % (key[vs.index(0)], tuple(point)))
        terms.append((prod(vs), series_values(vs, order)))
    common = lcm(*(den for den, _ in terms))
    return common, {om: [vals[om] * (common // den) for den, vals in terms] for om in terms[0][1]}


def _primitive(v):
    g = gcd(*v)
    return genus.canonical_line(tuple(c // g for c in v))[0]


class _ResidueLine:
    """The residue rows of the groups with keys `keys` along one weight line
    l, at the points of a determining set, read as needed.

    A combination R = sum_g c_g R_g of the rows of block omega is a
    rational function on the hyperplane <l, x> = 0, homogeneous of degree
    ||omega|| - (n - 1), with denominators the key forms. Cleared by D, the
    product of the distinct forms (up to scale) at their highest
    multiplicity in one group, it is a polynomial Q = D R, homogeneous of
    degree ||omega|| - (n - 1) + deg D in the k - 1 coordinates off i: zero
    when that is negative, and else zero exactly when it is zero on
    genus.lattice's set of that degree, where no key form vanishes. So R is
    zero exactly when it is zero at points(||omega||). Each weight's rows are
    read once, at its own points and only to that weight."""

    def __init__(self, line, keys, n, order):
        self.line, self.keys, self.n = line, keys, n
        self.i = next(i for i, c in enumerate(line) if c)
        need = Counter()
        for key in keys:
            for form, mult in Counter(_primitive(v) for v in key).items():
                need[form] = max(need[form], mult)
        self.clear = sum(need.values())
        vectors, free = [v for key in keys for v in key], [j for j in range(len(line)) if j != self.i]
        self.at = genus.lattice(vectors, free, len(line), order - (n - 1) + self.clear)
        self.read = {}   # weight: [(point, common, {omega: row})]

    def points(self, weight):
        """The determining set of the blocks of this weight, at most order."""
        d = weight - (self.n - 1) + self.clear
        return self.at(d) if d >= 0 else []

    def rows(self, weight):
        """[(point, common, rows)]: residue_rows to this weight at each of
        points(weight), read once."""
        if weight not in self.read:
            self.read[weight] = [(z,) + residue_rows(self.keys, z, weight) for z in self.points(weight)]
        return self.read[weight]

    def rank(self):
        """The rank of the groups' rows over the blocks with ||omega|| <= n,
        each block's read at its own weight's points, the rows that
        check_residues reads: a combination of the groups is 0 in all of
        them exactly when it is 0 on these rows. The sets are prefixes of
        points(n), so each of its points is read once, to weight n, for the
        blocks whose set holds it, one point at a time up to full rank.
        Reduced modulo P = 2^61 - 1, a rank modulo P is that of a nonzero
        integer minor, so no more than the exact rank."""
        P = (1 << 61) - 1
        sets = [(len(self.points(w)), omegas_of_weight(w)) for w in range(self.n + 1)]
        basis = []   # (pivot, row): 1 at its pivot, 0 at the pivots before it
        for i, z in enumerate(self.points(self.n)):
            rows = residue_rows(self.keys, z, self.n)[1]
            for om in (om for size, blocks in sets if i < size for om in blocks):
                row = [x % P for x in rows[om]]
                for pivot, b in basis:
                    c = row[pivot]
                    if c:
                        row = [(x - c * v) % P for x, v in zip(row, b)]
                pivot = next((j for j, x in enumerate(row) if x), None)
                if pivot is not None:
                    c = pow(row[pivot], -1, P)
                    basis.append((pivot, [x * c % P for x in row]))
                    if len(basis) == len(self.keys):
                        return len(basis)
        return len(basis)

    def on_line(self, z):
        """The point y of <l, y> = 0 at which the key values at z are the
        values <u, y> of the weights: y_j = l_i z_j off i."""
        li = self.line[self.i]
        y = [li * c for c in z]
        y[self.i] = -sum(lc * c for lc, c in zip(self.line, z))
        return tuple(y)


def check_residues(sums, n, order):
    """Return when no a^omega block with ||omega|| <= order has a pole; else
    raise SingularSum naming the first that has one, by weight and then in
    sorted order, the line, a point on it and the residue's value there.

    sums are genus.line_sums of a table with n weights per point. Every
    line whose groups do not cancel is read by _ResidueLine. A block has no
    pole exactly when every residue sum_g c_g R_g is 0; a nonzero value
    proves a pole, and a zero is proved on a determining set. CheckFailure
    where the weights at a point are not primitive on distinct lines, which
    the residues need."""
    if sums is None:
        raise CheckFailure("the residues need primitive weights on distinct lines at every point")
    lines = []
    for line in sorted(sums):
        groups = [(key, c) for key, c in sorted(sums[line].items()) if c]
        if groups:
            keys, weights = zip(*groups)
            lines.append((_ResidueLine(line, keys, n, order), weights))
    for weight in range(order + 1):
        for omega in omegas_of_weight(weight):
            for res, weights in lines:
                for z, common, rows in res.rows(weight):
                    value = sum(c * r for c, r in zip(weights, rows[omega]))
                    if not value:
                        continue
                    from fractions import Fraction
                    form = render_terms({tuple(int(j == i) for j in range(len(res.line))): c
                                         for i, c in enumerate(res.line) if c},
                                        ["x%d" % (j + 1) for j in range(len(res.line))])
                    text = "residue %s at %s on %s = 0" % (Fraction(value, common), res.on_line(z), form)
                    message = "block omega=%s has a pole: %s" % (pad(omega, n), text)
                    raise genus.SingularSum(message, omega, text)
