"""The residues of a localization sum that the certificate does not pass.

genus.check_poles loads this module only where genus._pole_free fails, so
the certified route compiles none of it. Each point's term of

    ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x>

has at most a simple pole along each weight line <l, x> = 0 (primitive
weights on distinct lines), and the points carrying l enter its residue in
the groups of genus.line_groups: the residue of the equivariant Chern
number c^xi along l is sum_g c_g e^xi(V_g) / prod V_g, c_g a group's sum
of sign(p) * orientation_p(l) and V_g its other weights on the hyperplane
(residue_rows, off genus.point_terms). Those of the blocks a^omega of a
weight are chern_to_s of those of its c^xi: at each weight the two differ
by the integer unimodular e -> m matrix T, which holds in the n - 1 values
too, so a block has no pole exactly when every c^xi residue of its weight
is zero, and _ResidueLine decides that exactly on a determining set. The
sign search reads the same rows at the same points: the rank of
_ResidueLine, the same in either basis, is its proof that the group sums
decide admissibility.

The determining sets are genus.lattice's, as are character.character_blocks'.
"""

from collections import Counter
from math import gcd
from operator import mul

from . import genus
from .chern import chern_to_s
from .cobordism import render_terms
from .symmfunc import omegas_of_weight, pad


def residue_rows(keys, point, order):
    """(common, rows): per xi, |xi| <= order, rows[xi] lists
    common * e^xi(V) / prod V over the keys (genus.point_terms), V the
    values <v, point> of the vectors v of a key and common the lcm of the
    |prod V|. The key of a line's group has 0 at the line's first nonzero
    coordinate i, and <key, z> = <u, y> for y on the line's hyperplane with
    y_j = l_i z_j off i, so every z gives the true residues at such a y.
    SingularPoint if a V is 0."""
    common, scales = genus.common_scales(keys, point)
    terms = [[v * scale for v in genus.point_terms(vs, order)] for vs, scale in scales]
    return common, dict(zip(genus.plan(order)[0], zip(*terms)))


def _primitive(v):
    g = gcd(*v)
    return genus.canonical_line(tuple(c // g for c in v))[0]


class _ResidueLine:
    """The residue rows of the groups with keys `keys` along one weight line
    l, at the points of a determining set, read as needed.

    A combination R = sum_g c_g R_g of the rows of c^xi is a rational
    function on the hyperplane <l, x> = 0, homogeneous of degree
    |xi| - (n - 1), with denominators the key forms. Cleared by D, the
    product of the distinct forms (up to scale) at their highest
    multiplicity in one group, it is a polynomial Q = D R, homogeneous of
    degree |xi| - (n - 1) + deg D in the k - 1 coordinates off i: zero
    when that is negative, and else zero exactly when it is zero on
    genus.lattice's set of that degree, where no key form vanishes. So R is
    zero exactly when it is zero at points(|xi|), and so are those of the
    blocks a^omega of that weight, chern_to_s of them. Each weight's rows are
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
        self.read = {}   # weight: [(point, common, {xi: row})]

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
        """The rank of the groups' rows over the xi with |xi| <= n, each
        read at its own weight's points, the rows that check_residues
        reads: a combination of the groups is 0 in all of them exactly when
        it is 0 on these rows. The sets are prefixes of points(n), so each
        of its points is read once, to weight n, for the xi whose set holds
        it, one point at a time up to full rank.
        Reduced modulo P = 2^61 - 1, a rank modulo P is that of a nonzero
        integer minor, so no more than the exact rank. The basis is kept in
        reduced echelon form, by its columns off the pivots, so a row is
        reduced by one product per free column and pivot."""
        P = (1 << 61) - 1
        sets = [(len(self.points(w)), omegas_of_weight(w)) for w in range(self.n + 1)]
        pivots = []
        cols = {j: [] for j in range(len(self.keys))}   # free column: its entry in each basis row
        for i, z in enumerate(self.points(self.n)):
            rows = residue_rows(self.keys, z, self.n)[1]
            for xi in (xi for size, blocks in sets if i < size for xi in blocks):
                cs = [rows[xi][p] % P for p in pivots]
                left = {j: (rows[xi][j] - sum(map(mul, cs, col))) % P for j, col in cols.items()}
                pivot = next((j for j, x in left.items() if x), None)
                if pivot is not None:
                    c = pow(left.pop(pivot), -1, P)
                    at = cols.pop(pivot)
                    for j, col in cols.items():
                        v = left[j] * c % P
                        col[:] = [(b - a * v) % P for a, b in zip(at, col)] + [v]
                    pivots.append(pivot)
                    if not cols:
                        return len(pivots)
        return len(pivots)

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
    proves a pole, and a zero is proved on a determining set. The rows are
    those of the c^xi, so at each weight the a^omega residues at a (line,
    point) are chern_to_s of its c^xi residues, converted when the scan,
    block by block, first reaches it, and only where one is nonzero."""
    lines = []
    for line in sorted(sums):
        groups = sorted(sums[line].items())
        if groups:
            keys, weights = zip(*groups)
            lines.append((_ResidueLine(line, keys, n, order), weights))
    for weight in range(order + 1):
        xis = omegas_of_weight(weight)
        blocks = {}   # (line, point index): the a^omega residues there
        for omega in xis:
            for res, weights in lines:
                for p, (z, common, rows) in enumerate(res.rows(weight)):
                    if (res, p) not in blocks:
                        at = [sum(c * r for c, r in zip(weights, rows[xi])) for xi in xis]
                        blocks[res, p] = chern_to_s(dict(zip(xis, at)), weight) if any(at) else {}
                    value = blocks[res, p].get(omega)
                    if not value:
                        continue
                    form = render_terms({tuple(int(j == i) for j in range(len(res.line))): c
                                         for i, c in enumerate(res.line) if c},
                                        ["x%d" % (j + 1) for j in range(len(res.line))])
                    text = "residue %s at %s on %s = 0" % (genus.exact(value, common), res.on_line(z), form)
                    message = "block omega=%s has a pole: %s" % (pad(omega, n), text)
                    raise genus.SingularSum(message, omega, text)
