"""Answers computed apart from torigen, used to check its outputs.

Nothing here imports torigen. Fixed points of the U(r) block quotients come
from an own coset enumeration; every characteristic number is a localization
sum evaluated at an integer point, in exact integers over a common
denominator. Values that cover spaces outside the U(r) block quotients
(G2/SU(3) and the three structures J1-J3 on the SU(4) quotient) are the
paper's.

A fixed-point table is a list of (weights, sign) pairs, each weight an
integer vector. Characteristic numbers are indexed by omega tuples: omega[k]
counts the parts equal to k + 1, with trailing zeros trimmed, which is the
key torigen uses too.
"""

from itertools import permutations, product
from math import comb, factorial, lcm, prod


def partitions(n, largest=None):
    """Partitions of n as weakly decreasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def omega_of(parts):
    omega = [0] * max(parts, default=0)
    for p in parts:
        omega[p - 1] += 1
    return tuple(omega)


def omegas(weight):
    return sorted(omega_of(lam) for lam in partitions(weight))


def trim(omega):
    omega = list(omega)
    while omega and omega[-1] == 0:
        omega.pop()
    return tuple(omega)


def block_quotient(sizes, root_signs=None, conjugate=False):
    """Fixed points of U(r)/U(k1)x...xU(km), blocks of consecutive positions.

    The tangent weights at the coset of a permutation p are p applied to the
    roots e_i - e_j with i < j in different blocks, taken in lex order and
    multiplied by root_signs. Representatives increase on every block and
    come in lex order, the order torigen's sign tables and --signs use.
    conjugate sets every root sign to -1. Each point has sign +1 in the
    orientation of its own structure, except that torigen writes the
    conjugate structure (all signs -1) in the standard orientation, which
    reverses all n weight lines and gives each point (-1)^n.
    """
    rank = sum(sizes)
    owner = [b for b, k in enumerate(sizes) for _ in range(k)]
    roots = [(i, j) for i in range(rank) for j in range(i + 1, rank) if owner[i] != owner[j]]
    if conjugate:
        root_signs = (-1,) * len(roots)
    root_signs = root_signs or (1,) * len(roots)
    sign = (-1) ** len(roots) if all(x < 0 for x in root_signs) else 1
    points = []
    for p in permutations(range(rank)):
        if any(owner[i] == owner[i + 1] and p[i] > p[i + 1] for i in range(rank - 1)):
            continue
        weights = []
        for (i, j), s in zip(roots, root_signs):
            w = [0] * rank
            w[p[i]], w[p[j]] = s, -s
            weights.append(tuple(w))
        points.append((tuple(weights), sign))
    return points


def projective(n):
    """CP^n as U(n+1)/U(n)xU(1), the big block first."""
    return block_quotient((n, 1))


# The two fixed points of S^6 = G2/SU(3) in coordinates (x1, x2), x3 = -x1 - x2:
# the tangent weights are x1, x2, x3 at one point and their negatives at the
# other, listed in the order torigen gives them.
G2_POINTS = [(((1, 0), (0, 1), (-1, -1)), 1), (((-1, 0), (1, 1), (0, -1)), 1)]


def nonsingular_point(points, rng, spread=10 ** 6):
    """A seeded integer point where no tangent weight vanishes."""
    k = len(points[0][0][0])
    while True:
        v = tuple(rng.randint(-spread, spread) for _ in range(k))
        if all(_dot(w, v) for weights, _ in points for w in weights):
            return v


def _dot(w, v):
    return sum(a * b for a, b in zip(w, v))


def monomial_values(ts, top):
    """m_lambda(ts) for every partition lambda of weight <= top, keyed by omega.

    Coefficient of a^omega in prod_j (1 + sum_k a_k t_j^k): each variable
    takes one part or none, so the coefficient is the orbit sum m_lambda.
    """
    acc = {(): 1}
    for t in ts:
        pw = [1]
        for _ in range(top):
            pw.append(pw[-1] * t)
        nxt = dict(acc)
        for om, val in acc.items():
            used = sum((i + 1) * m for i, m in enumerate(om))
            for k in range(1, top - used + 1):
                no = list(om) + [0] * (k - len(om))
                no[k - 1] += 1
                no = tuple(no)
                nxt[no] = nxt.get(no, 0) + val * pw[k]
        acc = nxt
    return acc


def elementary_values(ts):
    """e_0(ts), ..., e_n(ts)."""
    e = [1]
    for t in ts:
        e = [a + t * b for a, b in zip(e + [0], [0] + e)]
    return e


def _localize(points, v, integrand):
    """sum_p sign(p) * integrand(t_p) / prod t_p at v, as (numerators, common denominator).

    integrand returns a dict of integers; the sums come back as integer
    numerators over one denominator, so no rational arithmetic is needed.
    """
    ts = [[_dot(w, v) for w in weights] for weights, _ in points]
    den = lcm(*(abs(prod(t)) for t in ts))
    total = {}
    for (_, sign), t in zip(points, ts):
        scale = sign * den // prod(t)
        for key, val in integrand(t).items():
            total[key] = total.get(key, 0) + scale * val
    return total, den


def _exact(total, den, what):
    out = {}
    for key, num in total.items():
        if num % den:
            raise ArithmeticError("%s %s is not an integer at this point" % (what, key))
        out[key] = num // den
    return out


def s_numbers(points, v):
    """s_omega for every omega of weight n, by point-evaluated localization."""
    n = len(points[0][0])
    keep = set(omegas(n))
    total, den = _localize(points, v, lambda t: {
        om: m for om, m in monomial_values(t, n).items() if om in keep})
    return _exact({om: total.get(om, 0) for om in keep}, den, "s")


def chern_numbers(points, v):
    """c^xi for every xi of weight n: prod_i e_i(t)^xi_i replaces m_lambda."""
    n = len(points[0][0])
    xis = omegas(n)

    def integrand(t):
        e = elementary_values(t)
        return {xi: prod(e[i + 1] ** m for i, m in enumerate(xi)) for xi in xis}
    total, den = _localize(points, v, integrand)
    return _exact(total, den, "c")


def projective_s(n):
    """s_lambda[CP^n] = (n+1)! / ((n+1-l(lambda))! * prod_i m_i(lambda)!)."""
    return {om: factorial(n + 1) // (factorial(n + 1 - sum(om)) * prod(factorial(m) for m in om))
            for om in omegas(n)}


def projective_chern(n):
    """c^xi[CP^n] = prod_i C(n+1, i)^xi_i."""
    return {xi: prod(comb(n + 1, i + 1) ** m for i, m in enumerate(xi)) for xi in omegas(n)}


def parse_class(text):
    """{omega: coefficient} from torigen's canonical text, e.g. '6*a1^3 - 2*a3'."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        factors = term.lstrip("-").split("*")
        coeff = int(factors.pop(0)) if factors[0].isdigit() else 1
        exps = {}
        for f in factors:
            gen, _, power = f.partition("^")
            if not gen.startswith("a"):
                raise ValueError("not a generator: %r" % f)
            exps[int(gen[1:])] = exps.get(int(gen[1:]), 0) + int(power or 1)
        omega = [0] * max(exps)
        for i, p in exps.items():
            omega[i - 1] = p
        out[tuple(omega)] = out.get(tuple(omega), 0) + sign * coeff
    return out


def nonzero(table):
    return {k: v for k, v in table.items() if v}


# The paper's values for the spaces outside the U(r) block quotients.
PAPER_CLASS = {
    "G2/SU(3)": "2*a1^3 - 6*a1*a2 + 6*a3",
    "J1": "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 - 8*a2*a3 + 20*a5",
    "J2": "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 + 32*a2*a3 - 20*a5",
    "J3": "12*a1^5 - 48*a1^3*a2 + 60*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 - 48*a2*a3 + 60*a5",
}
_M10_XI = [(0, 0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1), (2, 0, 1), (1, 2), (3, 1), (5,)]
PAPER_CHERN = {
    "G2/SU(3)": {(0, 0, 1): 2, (1, 1): 0, (3,): 0},
    "J1": dict(zip(_M10_XI, (12, 108, 292, 612, 1028, 2148, 4500))),
    "J2": dict(zip(_M10_XI, (12, 108, 292, 612, 1068, 2268, 4860))),
    "J3": dict(zip(_M10_XI, (12, 12, 4, 20, -4, -4, -20))),
}
# Admissible sign tables the paper counts.
PAPER_ADMISSIBLE = {"CP1": 4, "CP3": 16, "G2/SU(3)": 10}


class SignConditions:
    """The necessary conditions on a sign table, evaluated at integer points.

    A table rescales the weight j at point p by a_j(p) and gives the point
    the sign epsilon * prod_j a_j(p) * sign(p); then sign/prod(weights) is
    unchanged, and each omega contributes epsilon * sign(p) * m_lambda(a t) /
    prod t. The sums of weight below n must vanish and those of weight n must
    be one integer, the same at every point. A sum that is not identically
    zero, or not constant, shows that at a seeded point with probability
    about 1 - deg / 10^6.
    """

    def __init__(self, points, vs):
        self.points = points
        self.n = len(points[0][0])
        self.top = set(omegas(self.n))
        self.low = [om for w in range(self.n) for om in omegas(w)]
        self.ts = [[[_dot(w, v) for w in weights] for weights, _ in points] for v in vs]
        self.dens = [lcm(*(abs(prod(t)) for t in ts)) for ts in self.ts]
        self._cache = {}

    def _contribution(self, at, p, avec):
        key = (at, p, avec)
        if key not in self._cache:
            t = self.ts[at][p]
            scale = self.points[p][1] * self.dens[at] // prod(t)
            vals = monomial_values([a * x for a, x in zip(avec, t)], self.n)
            self._cache[key] = {om: scale * m for om, m in vals.items()}
        return self._cache[key]

    def evaluate(self, table, epsilon=1):
        """(ok, top values): ok when every condition holds at every point."""
        tops = []
        for at, den in enumerate(self.dens):
            sums = {}
            for p, avec in enumerate(table):
                for om, val in self._contribution(at, p, tuple(avec)).items():
                    sums[om] = sums.get(om, 0) + val
            if any(sums.get(om, 0) for om in self.low):
                return False, None
            if any(sums.get(om, 0) % den for om in self.top):
                return False, None
            tops.append({om: epsilon * sums.get(om, 0) // den for om in self.top})
        if any(t != tops[0] for t in tops[1:]):
            return False, None
        return True, tops[0]

    def admissible(self):
        """Every admissible table by brute force; for small spaces only."""
        vectors = list(product((1, -1), repeat=self.n))
        return [table for table in product(vectors, repeat=len(self.points))
                if self.evaluate(table)[0]]
