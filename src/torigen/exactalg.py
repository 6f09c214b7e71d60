"""Exact polynomial kernel: multivariate polynomials and exact division.

Everything is exact. Coefficients are python ints whenever they are integral
and fractions.Fraction otherwise; no floats anywhere. Polynomials are dicts
from exponent tuples to coefficients, term order is graded lex (total degree
first, then lex on the exponent tuple).

f_product_sum is the kernel for prod_j f(<w_j, x>), f(t) = 1 + a_1 t +
a_2 t^2 + ...: each product times a polynomial cofactor, summed over the
products, as a^omega blocks in x, one MultiPoly each, built on packed
exponents. Its one caller is the localization character (character), whose
readers take the x^e coefficient over all blocks as one CobordismPoly
(block_coefficient), and which divides the blocks by exact_div_terms. The
divided-difference routes have their own reader on packed big ints
(divdiff). CobordismPoly, clean and the term rendering live in cobordism,
which the certified point route, the sign search, the fgl verb and the
divided-difference routes load without this module.
"""

from .cobordism import CobordismPoly, clean, grlex_key, render_terms


class ArenaMismatch(Exception):
    pass


class NotDivisible(Exception):
    pass


class VarArena:
    """Immutable set of variable names; fixes exponent-vector arity."""

    __slots__ = ("names",)

    def __init__(self, names):
        self.names = tuple(names)

    @property
    def arity(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarArena) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VarArena(%s)" % ",".join(self.names)


def xvars(k, prefix="x"):
    return VarArena("%s%d" % (prefix, i + 1) for i in range(k))


def _check_arena(a, b):
    if a != b:
        raise ArenaMismatch("%r vs %r" % (a, b))


class MultiPoly:
    """Multivariate polynomial over Q with a fixed variable arena."""

    __slots__ = ("arena", "terms")

    def __init__(self, arena, terms=None):
        self.arena = arena
        t = {}
        if terms:
            for exp, c in terms.items():
                c = clean(c)
                if c:
                    t[tuple(exp)] = c
        self.terms = t

    @classmethod
    def const(cls, arena, c):
        return cls(arena, {(0,) * arena.arity: c})

    @classmethod
    def variable(cls, arena, i):
        exp = [0] * arena.arity
        exp[i] = 1
        return cls(arena, {tuple(exp): 1})

    @classmethod
    def linear_form(cls, arena, coeffs):
        """sum coeffs[i]*x_i from an integer vector."""
        t = {}
        for i, c in enumerate(coeffs):
            if c:
                exp = [0] * arena.arity
                exp[i] = 1
                t[tuple(exp)] = c
        return cls(arena, t)

    def is_zero(self):
        return not self.terms

    def coeff(self, exp):
        return self.terms.get(tuple(exp), 0)

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point):
        """The value at point, one number per variable."""
        total = 0
        for e, c in self.terms.items():
            for v, d in zip(point, e):
                c *= v ** d
            total += c
        return total

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arena, other)
        _check_arena(self.arena, other.arena)
        t = dict(self.terms)
        for exp, c in other.terms.items():
            t[exp] = t.get(exp, 0) + c
        return MultiPoly(self.arena, t)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.arena, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if other == 0:
                return MultiPoly(self.arena)
            return MultiPoly(self.arena, {e: c * other for e, c in self.terms.items()})
        _check_arena(self.arena, other.arena)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return MultiPoly(self.arena, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = MultiPoly.const(self.arena, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return self.terms == MultiPoly.const(self.arena, other).terms
        return self.arena == other.arena and self.terms == other.terms

    def __hash__(self):
        return hash((self.arena, frozenset(self.terms.items())))

    def canonical_text(self):
        return render_terms(self.terms, self.arena.names)

    def __repr__(self):
        return "MultiPoly(%s)" % self.canonical_text()


def exact_div_terms(num_terms, div_terms):
    """Divide exponent->coeff maps with numeric coefficients, raising
    NotDivisible on nonzero remainder."""
    from fractions import Fraction

    rem = dict(num_terms)
    dexp = max(div_terms, key=grlex_key)
    dc = div_terms[dexp]
    quot = {}
    while rem:
        exp = max(rem, key=grlex_key)
        q = tuple(a - b for a, b in zip(exp, dexp))
        if any(x < 0 for x in q):
            raise NotDivisible("leading term x^%s not divisible" % (exp,))
        qc = clean(Fraction(rem[exp]) / dc)
        quot[q] = qc
        for e2, c2 in div_terms.items():
            e = tuple(a + b for a, b in zip(q, e2))
            nc = clean(rem.get(e, 0) - qc * c2)
            if nc:
                rem[e] = nc
            else:
                rem.pop(e, None)
    return quot


def f_product_sum(arena, summands, order):
    """{omega: MultiPoly}: the blocks of sum over (weights, times) in summands
    of times * prod_j f(<w_j, x>), f(t) = 1 + a_1 t + a_2 t^2 + ..., times a
    MultiPoly, for the omega (trimmed, as CobordismPoly keys) of weight sum
    l * omega_l <= order. Block omega of one product is homogeneous of
    x-degree its weight.

    Products and sum stay on packed exponents, one int per monomial with
    `bits` bits per variable (Monagan and Pearce, CASC 2007), so multiplying
    monomials adds ints. No exponent exceeds order plus the largest degree
    of a times, so no field carries into the next."""
    bits = (order + max((t.degree() for _, t in summands), default=0)).bit_length() or 1
    offsets = range(0, bits * arena.arity, bits)
    shifts = [1 << s for s in offsets]
    total = {}
    for weights, times in summands:
        blocks = _packed_blocks([[(shifts[i], c) for i, c in enumerate(w) if c] for w in weights], order)
        times = [(sum(d << s for s, d in zip(offsets, e)), c) for e, c in times.terms.items()]
        for om, t in blocks.items():
            acc = total.setdefault(om, {})
            for e1, c1 in t.items():
                for e2, c2 in times:
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
    mask = (1 << bits) - 1
    # one block at a time, so that only one is held in both forms; cancelled
    # terms are dropped before they are unpacked
    return {om: MultiPoly(arena, {tuple(e >> s & mask for s in offsets): c
                                  for e, c in total.pop(om).items() if c})
            for om in list(total)}


def _packed_blocks(forms, order):
    """{omega: {packed exponent: c}} for prod_j f(form_j), each form a list of
    (shift, coefficient). One pass over the factors, updating the blocks in
    place: factor j adds form_j^k times block omega into block omega + e_k.
    A block only adds into heavier ones, so visiting the blocks heaviest
    first reads each before this factor adds into it (the 0/1 knapsack
    order)."""
    blocks = {(): (0, {0: 1})}
    for form in forms:
        for om in sorted(blocks, key=lambda om: blocks[om][0], reverse=True):
            wt, t = blocks[om]
            for k in range(1, order - wt + 1):
                t = _times_form(t, form)
                if not t:
                    break
                key = list(om) + [0] * (k - len(om))
                key[k - 1] += 1
                acc = blocks.setdefault(tuple(key), (wt + k, {}))[1]
                for e, c in t.items():
                    acc[e] = acc.get(e, 0) + c
    return {om: t for om, (_, t) in blocks.items()}


def _times_form(t, form):
    """t times one form, {packed exponent: c}."""
    step = {}
    get = step.get
    for sh, wc in form:
        for e, c in t.items():
            x = e + sh
            step[x] = get(x, 0) + c * wc
    return step


def block_coefficient(blocks, e):
    """sum_omega a^omega * (x^e coefficient of block omega), for blocks
    {omega: MultiPoly} as f_product_sum returns them."""
    return CobordismPoly({om: b.coeff(e) for om, b in blocks.items()})
