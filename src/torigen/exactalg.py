"""Exact polynomial kernel: multivariate polynomials, exact division, graded series.

Everything is exact. Coefficients are python ints whenever they are integral
and fractions.Fraction otherwise; no floats anywhere. Polynomials are dicts
from exponent tuples to coefficients, term order is graded lex (total degree
first, then lex on the exponent tuple).

f_product_sum is the one kernel for prod_j f(<w_j, x>), f(t) = 1 + a_1 t +
a_2 t^2 + ...: the localization character, the sign search and the
divided-difference routes all read their products off its a^omega blocks,
each a MultiPoly in x, instead of multiplying GradedSeries of CobordismPoly
coefficients. It also multiplies each product by a polynomial cofactor and
sums over the products on its packed exponents, which no caller sees.
Callers read the x^e coefficient of a block dict as one CobordismPoly through
block_coefficient. GradedSeries stays for the formal group law (fgl).
CobordismPoly, clean and the term rendering live in cobordism, which the
certified point route loads without this module.
"""

from fractions import Fraction

from .cobordism import CobordismPoly, clean, grlex_key, render_terms


class ArenaMismatch(Exception):
    pass


class NotDivisible(Exception):
    pass


class BadLeadingTerm(Exception):
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
    def monomial(cls, arena, exp, c=1):
        return cls(arena, {tuple(exp): c})

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

    def as_constant(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            ((exp, c),) = self.terms.items()
            if not any(exp):
                return c
        raise ValueError("not a constant: %s" % self.canonical_text())

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

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

    def permute(self, perm):
        """Apply the variable permutation x_i -> x_{perm[i]} (perm 0-based)."""
        t = {}
        for e, c in self.terms.items():
            ne = [0] * len(e)
            for i, d in enumerate(e):
                ne[perm[i]] = d
            t[tuple(ne)] = c
        return MultiPoly(self.arena, t)

    def substitute(self, bindings):
        """bindings: var index -> MultiPoly (same or other arena) or number."""
        target = self.arena
        for v in bindings.values():
            if isinstance(v, MultiPoly):
                target = v.arena
                break
        pows = {}
        for i, b in bindings.items():
            if not isinstance(b, MultiPoly):
                b = MultiPoly.const(target, b)
            pows[i] = {0: MultiPoly.const(target, 1), 1: b}
        result = MultiPoly(target)
        for e, c in self.terms.items():
            factor = MultiPoly.const(target, c)
            for i, d in enumerate(e):
                if d == 0:
                    continue
                if i in bindings:
                    cache = pows[i]
                    while max(cache) < d:
                        top = max(cache)
                        cache[top + 1] = cache[top] * cache[1]
                    factor = factor * cache[d]
                else:
                    if self.arena != target:
                        raise ArenaMismatch("unbound variable %s" % self.arena.names[i])
                    factor = factor * MultiPoly.variable(target, i) ** d
            result = result + factor
        return result

    def canonical_text(self):
        return render_terms(self.terms, self.arena.names)

    def __repr__(self):
        return "MultiPoly(%s)" % self.canonical_text()


def exact_div_terms(num_terms, div_terms):
    """Divide exponent->coeff maps with numeric coefficients, raising
    NotDivisible on nonzero remainder."""
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


def exact_div(p, q):
    """Exact polynomial quotient p/q; NotDivisible if the remainder is nonzero."""
    _check_arena(p.arena, q.arena)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return MultiPoly(p.arena)
    return MultiPoly(p.arena, exact_div_terms(p.terms, q.terms))


def f_product_sum(arena, summands, order, odd=(), cap=None, top=False):
    """sum over (weights, times) in summands of times * prod_j f(<w_j, x>),
    f(t) = 1 + a_1 t + a_2 t^2 + ...; times is a MultiPoly, or None for 1.

    Returns {omega: MultiPoly} over the omega (trimmed, as CobordismPoly keys)
    of weight sum l * omega_l <= order; block omega of one product is
    homogeneous of x-degree its weight. A factor whose index is in odd uses
    the odd part a_1 t + a_3 t^3 + ... of f.

    top keeps only the blocks of weight order. cap keeps only the terms whose
    exponent in every x_i is at most cap: exact for a caller that reads no
    higher exponent, as every factor and every times has exponents >= 0, so a
    dropped term has no descendant it could read.

    Each product and the sum stay on packed exponents, one int per monomial
    with `bits` bits per variable (Monagan-Pearce), so multiplying by x_i is
    one addition; blocks are unpacked once, at the end. With a cap, each
    field holds its exponent plus bias = guard - 1 - cap, guard the field's
    top bit, so an exponent above cap sets its guard bit and one AND finds it.
    """
    tdeg = max((t.degree() for _, t in summands if t is not None), default=0)
    if cap is None:
        bits = (order + tdeg).bit_length()
    else:
        cap = max(cap, 0)
        bits = max(cap, tdeg).bit_length() + 1
    offsets = range(0, bits * arena.arity, bits)
    guard = bias = 0
    if cap is not None:
        guard = sum(1 << s + bits - 1 for s in offsets)
        bias = sum((1 << bits - 1) - 1 - cap << s for s in offsets)
    shifts = [1 << s for s in offsets]
    total = {}
    for weights, times in summands:
        blocks = _packed_blocks([[(shifts[i], c) for i, c in enumerate(w) if c] for w in weights],
                                order, odd, bias, guard, top)
        if times is None and len(summands) == 1:
            total = blocks
            break
        times = [(0, 1)] if times is None else [(sum(d << s for s, d in zip(offsets, e)), c)
                                                for e, c in times.terms.items()]
        for om, (wt, t) in blocks.items():
            if top and wt != order:
                continue
            acc = total.setdefault(om, (wt, {}))[1]
            for e1, c1 in t.items():
                for e2, c2 in times:
                    e = e1 + e2
                    if not e & guard:
                        acc[e] = acc.get(e, 0) + c1 * c2
    mask = (1 << bits) - 1

    def unpack(t):
        out = {}
        for e, c in t.items():
            if c:
                e -= bias
                out[tuple(e >> s & mask for s in offsets)] = c
        return MultiPoly(arena, out)

    # pop each packed block as it is unpacked, so that only one block at a
    # time is held in both forms
    out = {}
    for om in list(total):
        wt, t = total.pop(om)
        if not top or wt == order:
            out[om] = unpack(t)
    return out


def _packed_blocks(forms, order, odd, bias, guard, top):
    """{omega: (weight, {packed exponent: c})} for prod_j f(form_j), each form
    a list of (shift, coefficient). One pass over the factors, updating the
    blocks in place: factor j adds form_j^k times block omega into block
    omega + e_k. A block only adds into heavier ones, so visiting the blocks
    heaviest first reads each before this factor adds into it (the 0/1
    knapsack order). A factor in odd has no constant term, so it deletes each
    block once read; with top, the last factor writes only blocks of weight
    order and deletes the lighter ones. A term whose exponent sets a guard
    bit is dropped."""
    blocks = {(): (0, {bias: 1})}
    for j, form in enumerate(forms):
        least = order if top and j == len(forms) - 1 else 0
        for om in sorted(blocks, key=lambda om: blocks[om][0], reverse=True):
            wt, t = blocks[om]
            if j in odd or wt < least:
                del blocks[om]
            for k in range(1, order - wt + 1):
                step = {}
                for e, c in t.items():
                    for sh, wc in form:
                        x = e + sh
                        if not x & guard:
                            step[x] = step.get(x, 0) + c * wc
                t = step
                if not t:
                    break
                if j in odd and k % 2 == 0 or wt + k < least:
                    continue
                key = list(om) + [0] * (k - len(om))
                key[k - 1] += 1
                acc = blocks.setdefault(tuple(key), (wt + k, {}))[1]
                for e, c in t.items():
                    acc[e] = acc.get(e, 0) + c
    return blocks


def block_coefficient(blocks, e):
    """sum_omega a^omega * (x^e coefficient of block omega), for blocks
    {omega: MultiPoly} as f_product_sum returns them."""
    return CobordismPoly({om: b.coeff(e) for om, b in blocks.items()})


class GradedSeries:
    """Series in geometric variables truncated by total degree.

    Coefficients are CobordismPoly; exponent tuples follow the arena.
    """

    __slots__ = ("arena", "order", "terms")

    def __init__(self, arena, order, terms=None):
        self.arena = arena
        self.order = order
        t = {}
        if terms:
            for exp, c in terms.items():
                if sum(exp) > order:
                    continue
                if not isinstance(c, CobordismPoly):
                    c = CobordismPoly.const(c)
                if not c.is_zero():
                    t[tuple(exp)] = c
        self.terms = t

    @classmethod
    def const(cls, arena, order, c):
        return cls(arena, order, {(0,) * arena.arity: c})

    @classmethod
    def from_multipoly(cls, p, order):
        return cls(p.arena, order, p.terms)

    def coeff(self, exp):
        return self.terms.get(tuple(exp), CobordismPoly())

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            other = GradedSeries.const(self.arena, self.order, other)
        _check_arena(self.arena, other.arena)
        t = dict(self.terms)
        for exp, c in other.terms.items():
            s = t.get(exp, CobordismPoly()) + c
            if s.is_zero():
                t.pop(exp, None)
            else:
                t[exp] = s
        return GradedSeries(self.arena, min(self.order, other.order), t)

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries(self.arena, self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            other = GradedSeries.const(self.arena, self.order, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = GradedSeries.from_multipoly(other, self.order)
        if not isinstance(other, GradedSeries):
            return GradedSeries(self.arena, self.order, {e: c * other for e, c in self.terms.items()})
        _check_arena(self.arena, other.arena)
        order = min(self.order, other.order)
        t = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if e in t:
                    t[e] = t[e] + prod
                else:
                    t[e] = prod
        return GradedSeries(self.arena, order, t)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.arena == other.arena and self.order == other.order and self.terms == other.terms

    def canonical_text(self, prefix="a"):
        if not self.terms:
            return "0"
        parts = []
        names = self.arena.names
        for exp in sorted(self.terms, key=grlex_key):
            mono = "*".join(
                names[i] if d == 1 else "%s^%d" % (names[i], d) for i, d in enumerate(exp) if d
            )
            ctext = self.terms[exp].canonical_text(prefix)
            if mono:
                parts.append("(%s)*%s" % (ctext, mono))
            else:
                parts.append(ctext)
        return " + ".join(parts)

    def __repr__(self):
        return "GradedSeries(%s)" % self.canonical_text()


def series_mul(a, b, order):
    """Truncated product of univariate coefficient lists (index = power)."""
    out = [0] * (order + 1)
    for i, ca in enumerate(a):
        if i > order or _is_zero_coeff(ca):
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            if _is_zero_coeff(cb):
                continue
            out[i + j] = out[i + j] + ca * cb
    return out


def _is_zero_coeff(c):
    return c.is_zero() if isinstance(c, CobordismPoly) else c == 0


def series_compose(h, r, order):
    """h(r(y)) truncated; requires r[0] = 0."""
    if r and not _is_zero_coeff(r[0]):
        raise ValueError("inner series must have zero constant term")
    out = [0] * (order + 1)
    power = [1] + [0] * order
    for i, c in enumerate(h):
        if i > order:
            break
        if i > 0:
            power = series_mul(power, r, order)
        if _is_zero_coeff(c):
            continue
        for j in range(order + 1):
            if not _is_zero_coeff(power[j]):
                out[j] = out[j] + c * power[j]
    return out


def reverse_series(h, order):
    """Compositional inverse of h = y + O(y^2) to the given order.

    Returns r with h(r(y)) = y mod y^(order+1).
    """
    if len(h) < 2 or not _is_zero_coeff(h[0]) or h[1] != 1:
        raise BadLeadingTerm("need h(0)=0 and linear coefficient 1")
    r = [0, 1] + [0] * (order - 1)
    for d in range(2, order + 1):
        c = series_compose(h, r, d)[d]
        r[d] = -c
    return r[: order + 1]
