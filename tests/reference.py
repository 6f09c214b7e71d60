"""Independent references that the tests compare src/torigen against.

No verb runs any of these. Each builds its answer the slow, direct way:

- RingPoly adds the ring operations to CobordismPoly, which torigen only
  holds and prints; the sums of classes and blocks below are taken in it.
- The symbolic kernel (MultiPoly, f_product_sum, exact_div_terms) and the
  symbolic character built on it (localization_data, character_numerator,
  chern_character_of_genus, class_of_character, symbolic_class) put ch Phi
  over one polynomial common denominator. character.character_blocks must
  equal its blocks, and genus.check_poles must reach its verdict on the
  same omega, once omega_blocks has converted its equivariant Chern
  numbers to a^omega blocks by chern_to_s. block_coefficient reads the x^e
  coefficient off those blocks, as kernel_coefficient off the kernel's;
  degree_zero_point is where character_blocks reads its constant blocks.
- omega_numerator substitutes the weights into m_lambda, one a^omega block
  at a time, and omega_numerator_values gives its values at a point in
  integers, by way of the e^xi and elementary_product (e_to_m); the kernel
  must agree with the one, and character.character_blocks with the other
  on a determining set; reference_check, which walks a sign
  table's blocks on it, must agree with stablex.check_necessary and the
  sign search.
- operator_L antisymmetrizes and divides by the Vandermonde; the signed
  delta-orbit sums of divdiff must agree with it.
- pair_product_blocks builds the blocks of prod f(x_a - x_b) with the
  kernel (f_product_sum), with no box, taking the odd part of f as
  (f(t) - f(-t))/2, and pair_product_reads reads them; divdiff's packed
  product and reader must agree with them. The
  Grassmann base route multiplies Delta_q * Delta_{q+1,q+l} into the product
  with the kernel and takes L as the signed delta-orbit sum over q!l!
  (grassmann_class_by_base, grassmann_Q_by_base); divdiff's reads of the
  bare product must agree with it.
- elementary_product and monomial_sym build e^xi and m_lambda as
  polynomials; symmfunc.transition_table and chern.chern_to_s must agree.
  e_monomials takes each e^xi at numbers as a product of powers of the e_k,
  which genus.point_terms, one multiplication per xi, must equal;
  residue_rank ranks the a^omega residue rows, m_lambda by monomial_sym,
  by exact_rank: residues._ResidueLine.rank, on e^xi rows, must agree.
  zero_one_count counts the 0-1 matrices with given row and column sums,
  row by row, which transition_table's entries must equal.
- unitary_blocks reads the blocks of a type A space off its descriptor,
  apart from rootdata's root datum; G2/SU(3) is told apart by its
  descriptor too.
- euler_characteristic counts the cosets by the order formula; the top
  number s_(n) must be +-chi.
- cosets_by_filter keeps the permutations of the rank that increase on
  every block; the representatives of rootdata.fixed_point_weights, which
  walks the cosets on the root datum, must be the same ones in the same
  order. For G2, g2_weyl_group and g2_subgroup build W(G2) and W(SU(3)) by
  closure from the matrices here, and the representatives must be the
  first element of each coset, as first_of_each_coset lists them.
- is_homogeneous reads the weights of a CobordismPoly, and perm_sign counts
  inversions.
- permute and substitute act on a MultiPoly term by term; antisymmetrize
  and omega_numerator are built on them, and weyl_invariance_by_substitution
  compares each block of a character with its image under the simple
  reflections, as character.weyl_invariance_failure must by values at points.
- GradedSeries is a series in several variables truncated by total degree,
  and apply_series substitutes one into a univariate series: exp_series
  reverts log_series by fixed-point iteration, and addition_law is the
  formal group law g^{-1}(g(u1) + g(u2)) by series products, all in
  RingPoly, which fgl's packed exp_series and fgl_addition must equal.
  substitute_series and permute_series substitute into and permute a
  truncated series, and multi_bracket builds [Lambda](u) from the reference
  logarithm and exponential; the axioms of the fgl verb's addition law are
  checked with them.
- assignment_to_json builds one sign table as a dict; the stable verb's
  streamed rendering must equal json.dumps of these dicts.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, permutations, product
from math import comb, factorial, gcd, lcm, prod
import re

from torigen.chern import chern_to_s
from torigen.cobordism import CobordismPoly, clean, grlex_key, render_series, render_terms
from torigen.genus import SingularSum, canonical_line, lattice, non_integer_class
from torigen.rootdata import M10_DESCRIPTOR, fixed_point_weights
from torigen.stablex import NecessaryReport, SignAssignment, derived_fixed_point_data
from torigen.symmfunc import omega_weight, omegas_of_weight


# -- the reference ring -------------------------------------------------------


class RingPoly(CobordismPoly):
    """CobordismPoly with the ring operations, which torigen itself never
    needs: its engines compute on plain dicts. Sums, products and powers
    take RingPoly, CobordismPoly or scalar operands (ring)."""

    __slots__ = ()

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def gen(cls, i):
        """The generator a_i, i >= 1."""
        return cls({(0,) * (i - 1) + (1,): 1})

    def __add__(self, other):
        t = dict(self.terms)
        for exp, c in ring(other).terms.items():
            t[exp] = t.get(exp, 0) + c
        return RingPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return RingPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-ring(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CobordismPoly):
            return RingPoly({e: c * other for e, c in self.terms.items()})
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                ea, eb = (e2, e1) if len(e1) < len(e2) else (e1, e2)
                e = tuple(a + b for a, b in zip(ea, eb)) + ea[len(eb):]
                t[e] = t.get(e, 0) + c1 * c2
        return RingPoly(t)

    __rmul__ = __mul__

    def __truediv__(self, num):
        return RingPoly({e: Fraction(c) / Fraction(num) for e, c in self.terms.items()})

    def __pow__(self, n):
        result = RingPoly.const(1)
        for _ in range(n):
            result = result * self
        return result


def ring(x):
    """x, a CobordismPoly or a scalar, as a RingPoly."""
    if isinstance(x, RingPoly):
        return x
    return RingPoly(x.terms if isinstance(x, CobordismPoly) else {(): x})


# -- the symbolic kernel and the symbolic character ----------------------------
#
# Multivariate polynomials over Q on a fixed variable arena, exact division,
# and f_product_sum, the kernel for prod_j f(<w_j, x>), f(t) = 1 + a_1 t +
# a_2 t^2 + ..., each product times a polynomial cofactor, summed over the
# products as a^omega blocks in x built on packed exponents. Everything is
# exact: coefficients are ints whenever they are integral and Fractions
# otherwise. The symbolic character puts ch Phi over one polynomial common
# denominator (localization_data), checks that the numerator blocks below
# weight n cancel and divides the others exactly: the route that
# character.character_blocks and genus.check_poles must agree with.


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


def kernel_coefficient(blocks, e):
    """sum_omega a^omega * (x^e coefficient of block omega), for blocks
    {omega: MultiPoly} as f_product_sum returns them."""
    return RingPoly({om: b.coeff(e) for om, b in blocks.items()})


def block_coefficient(blocks, e):
    """sum_omega a^omega * (x^e coefficient of block omega), for blocks
    {omega: {exponent: coefficient}} as omega_blocks returns them."""
    return CobordismPoly({om: block.get(tuple(e), 0) for om, block in blocks.items()})


def omega_blocks(ch):
    """The a^omega blocks {omega: {exponent: coefficient}}, nonzero ones
    only, of a character held as character.character_blocks holds it, by
    its equivariant Chern numbers {xi: block}: at each weight w and exponent
    e, chern_to_s of the x^e coefficients of the blocks of weight w. Every
    comparison of character_blocks with an a^omega oracle converts here."""
    out = {}
    for w in sorted({omega_weight(xi) for xi in ch}):
        for e in sorted({e for xi, block in ch.items() if omega_weight(xi) == w for e in block}):
            table = chern_to_s({xi: ch.get(xi, {}).get(e, 0) for xi in omegas_of_weight(w)}, w)
            for om, c in table.items():
                if c:
                    out.setdefault(om, {})[e] = clean(c)
    return out


def degree_zero_point(fp):
    """m b, the first point of genus.lattice on every coordinate at top 1:
    where character.character_blocks at order n + 1 reads its blocks of
    degree 0, the second numeric point of verify."""
    k = len(fp[0].weights[0])
    return tuple(lattice([w for pt in fp for w in pt.weights], range(k), k, 1)(0)[0])


LocData = namedtuple("LocData", "arena n denom cofactors prefactors")


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


def character_numerator(fp, order):
    """loc and the numerator blocks sum_p prefactor_p * cofactor_p *
    prod_j f(<Lambda_j(p), x>), {omega: MultiPoly} for ||omega|| <= order,
    multiplied and summed over the points in the kernel (f_product_sum)."""
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
                    block[e] = block.get(e, 0) + RingPoly({om: c})
            om = by_weight[wt][0]
            raise SingularSum(
                "degree-%d numerator block does not cancel: %s"
                % (wt + D - n, render_series(block, loc.arena.names)), om, num[om].canonical_text())
    blocks = {}
    for wt in range(n, order + 1):
        for om in by_weight[wt]:
            try:
                blocks[om] = MultiPoly(loc.arena, exact_div_terms(num[om].terms, loc.denom.terms))
            except NotDivisible as exc:
                raise SingularSum("degree-%d block not divisible by denominator" % (wt + D - n),
                                  om, num[om].canonical_text()) from exc
    return blocks


def class_of_character(ch, n):
    """The t^n coefficient of a character: the constant terms of its blocks,
    each of degree ||omega|| - n, which must form an integer class."""
    k = next((b.arena.arity for b in ch.values()), 0)
    cls = kernel_coefficient(ch, (0,) * k)
    if not cls.is_integral():
        raise non_integer_class(cls)
    return cls


def symbolic_class(fp):
    """The class read off the symbolic character of order n."""
    n = len(fp[0].weights)
    return class_of_character(chern_character_of_genus(fp, n), n)


def cobordism_weights(cls):
    """The weights of the monomials of a CobordismPoly."""
    return {sum((l + 1) * m for l, m in enumerate(e)) for e in cls.terms}


def is_homogeneous(cls, weight=None):
    """Whether a CobordismPoly has monomials of one weight, that weight if given."""
    ws = cobordism_weights(cls)
    if len(ws) > 1:
        return False
    return True if weight is None else (not ws or ws == {weight})


def perm_sign(perm):
    """The sign of a permutation, by counting its inversions."""
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


# -- partitions and symmetric polynomials ------------------------------------


def omega_to_partition(omega, n=None):
    """Partition with i_k parts equal to k, weakly decreasing, padded to n."""
    parts = []
    for l in range(len(omega) - 1, -1, -1):
        parts.extend([l + 1] * omega[l])
    if n is not None:
        if len(parts) > n:
            raise ValueError("omega has more parts than arity %d" % n)
        parts.extend([0] * (n - len(parts)))
    return tuple(parts)


def omegas_up_to(w):
    out = []
    for k in range(w + 1):
        out.extend(omegas_of_weight(k))
    return out


def rearrangements(xi):
    """Distinct rearrangements of the tuple xi, each once, in lexicographic order."""
    if not xi:
        yield ()
        return
    for v in sorted(set(xi)):
        i = xi.index(v)
        for tail in rearrangements(xi[:i] + xi[i + 1:]):
            yield (v,) + tail


def orbit_monomial(xi, n, arena=None):
    """Sum of the distinct S_n-orbit of the monomial u^xi."""
    if len(xi) != n:
        raise ValueError("exponent vector length %d != arity %d" % (len(xi), n))
    if arena is None:
        arena = xvars(n)
    return MultiPoly(arena, {e: 1 for e in rearrangements(xi)})


def monomial_sym(lam, n, arena=None):
    """m_lambda in n variables."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    return orbit_monomial(lam, n, arena)


def elementary(k, n, arena=None):
    if arena is None:
        arena = xvars(n)
    if k == 0:
        return MultiPoly.const(arena, 1)
    if k > n:
        return MultiPoly(arena)
    return orbit_monomial((1,) * k + (0,) * (n - k), n, arena)


def e_monomials(cs, xis):
    """[e^xi(cs) for xi in xis], e^xi = e_1^xi_1 e_2^xi_2 ... in the numbers
    cs, each a product of powers of the e_k, and 0 where xi has a part
    above their number: genus.point_terms must equal it on its plan."""
    e = [1] + [0] * len(cs)
    for i, c in enumerate(cs, 1):
        for k in range(i, 0, -1):
            e[k] += c * e[k - 1]
    return [0 if len(xi) > len(cs) else prod(e[k] ** m for k, m in enumerate(xi, 1) if m) for xi in xis]


def elementary_product(xi, n, arena=None):
    """e_1^{xi_1} * e_2^{xi_2} * ... in n variables."""
    if arena is None:
        arena = xvars(n)
    prod = MultiPoly.const(arena, 1)
    for k, mult in enumerate(xi, start=1):
        for _ in range(mult):
            prod = prod * elementary(k, n, arena)
    return prod


def permute(p, perm):
    """Apply the variable permutation x_i -> x_{perm[i]} (perm 0-based)."""
    t = {}
    for e, c in p.terms.items():
        ne = [0] * len(e)
        for i, d in enumerate(e):
            ne[perm[i]] = d
        t[tuple(ne)] = c
    return MultiPoly(p.arena, t)


def substitute(p, bindings):
    """bindings: var index -> MultiPoly (same or other arena) or number."""
    target = p.arena
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
    for e, c in p.terms.items():
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
                if p.arena != target:
                    raise ArenaMismatch("unbound variable %s" % p.arena.names[i])
                factor = factor * MultiPoly.variable(target, i) ** d
        result = result + factor
    return result


def antisymmetrize(p):
    """Sum of sign(sigma) * sigma(p) over the full symmetric group of the arena."""
    n = p.arena.arity
    total = MultiPoly(p.arena)
    for perm in permutations(range(n)):
        total = total + permute(p, perm) * perm_sign(perm)
    return total


def exact_div(p, q):
    """The exact quotient p / q of two MultiPolys, by the kernel's
    exact_div_terms; NotDivisible if a remainder is left."""
    _check_arena(p.arena, q.arena)
    return MultiPoly(p.arena, exact_div_terms(p.terms, q.terms))


def as_constant(p):
    """The value of a constant MultiPoly; ValueError for any other."""
    if any(any(e) for e in p.terms):
        raise ValueError("not a constant: %s" % p.canonical_text())
    return p.coeff((0,) * p.arena.arity)


def vandermonde(arena):
    n = arena.arity
    v = MultiPoly.const(arena, 1)
    for i in range(n):
        for j in range(i + 1, n):
            v = v * (MultiPoly.variable(arena, i) - MultiPoly.variable(arena, j))
    return v


def operator_L(p, n=None):
    """Antisymmetrize and divide by the Vandermonde determinant.

    The division is always exact because the antisymmetrization is an
    alternating polynomial.  n defaults to the arena arity and is accepted
    only as a guard against feeding a polynomial in the wrong ring.
    """
    if n is not None and p.arena.arity != n:
        raise ValueError("polynomial lives in %d variables, expected %d" % (p.arena.arity, n))
    return exact_div(antisymmetrize(p), vandermonde(p.arena))


def pair_weights(n, pairs):
    """The weights of x_a - x_b over the pairs (a, b), a != b."""
    return tuple(tuple(1 if k == a else -1 if k == b else 0 for k in range(n)) for a, b in pairs)


@lru_cache(maxsize=None)
def pair_product_blocks(n, pairs, order, odd=()):
    """The weight-order a^omega blocks of prod_j f(x_a - x_b), (a, b) =
    pairs[j], from the kernel, with the odd part of f at the factors in odd:
    f_odd(t) = (f(t) - f(-t))/2, so that product is 2^-|odd| times the sum
    over flips eps of the odd factors' weights of prod(eps) times the
    product with the flipped weights."""
    weights = pair_weights(n, pairs)
    zero = MultiPoly(xvars(n))
    out = {}
    for eps in product((1, -1), repeat=len(odd)):
        flip = dict(zip(odd, eps))
        flipped = [tuple(flip.get(j, 1) * c for c in w) for j, w in enumerate(weights)]
        for om, b in f_product_sum(xvars(n), [(flipped, MultiPoly.const(xvars(n), 1))], order).items():
            if omega_weight(om) == order:
                out[om] = out.get(om, zero) + b * prod(eps)
    return {om: b * Fraction(1, 2 ** len(odd)) for om, b in out.items() if not b.is_zero()}


def pair_product_reads(n, pairs, order, reads, odd=()):
    """sum_r s_r [x^r] of pair_product_blocks, reads listing (r, s_r)."""
    blocks = pair_product_blocks(n, tuple(pairs), order, tuple(odd))
    total = RingPoly()
    for r, s in reads:
        total = total + kernel_coefficient(blocks, r) * s
    return total


def delta_orbit(n):
    """(sigma(delta), sign(sigma)) over the permutations sigma of range(n)."""
    out = []
    for perm in permutations(range(n)):
        e = [0] * n
        for i, d in enumerate(range(n - 1, -1, -1)):
            e[perm[i]] = d
        out.append((tuple(e), perm_sign(perm)))
    return out


@lru_cache(maxsize=None)
def grassmann_base_blocks(q, l, weight):
    """The a^omega blocks, ||omega|| = weight, of
    Delta_q * Delta_{q+1,q+l} * prod_{i<=q<j} f(x_i - x_j), by the kernel."""
    n = q + l
    arena = xvars(n)
    base = MultiPoly.const(arena, 1)
    for i, j in list(combinations(range(q), 2)) + list(combinations(range(q, n), 2)):
        base = base * MultiPoly.linear_form(arena, pair_weights(n, [(i, j)])[0])
    weights = pair_weights(n, [(i, j) for i in range(q) for j in range(q, n)])
    blocks = f_product_sum(arena, [(weights, base)], weight) if weight >= 0 else {}
    return {om: b for om, b in blocks.items() if omega_weight(om) == weight}


def grassmann_class_by_base(q, l):
    """(1/q!l!) L(Delta_q Delta_{q+1,q+l} prod f(x_i - x_j)), L of the top
    blocks as their signed delta-orbit sums."""
    blocks = grassmann_base_blocks(q, l, q * l)
    total = RingPoly()
    for e, s in delta_orbit(q + l):
        total = total + kernel_coefficient(blocks, e) * s
    return total / (factorial(q) * factorial(l))


def grassmann_Q_by_base(q, l, xi):
    """The x^xi coefficient of Delta_q Delta_{q+1,q+l} prod f(x_i - x_j)."""
    weight = sum(xi) - q * (q - 1) // 2 - l * (l - 1) // 2
    return kernel_coefficient(grassmann_base_blocks(q, l, weight), xi)


def _row_choices(groups, r):
    """(ways, column sums left) for one row of sum r over column groups.

    groups lists (remaining sum v, number of columns c), v decreasing. Taking
    k columns of a group leaves c - k at v and k at v - 1, in comb(c, k) ways;
    the column sums left stay weakly decreasing.
    """
    if not groups:
        if r == 0:
            yield 1, ()
        return
    (v, c), rest = groups[0], groups[1:]
    for k in range(min(c, r) + 1):
        for ways, tail in _row_choices(rest, r - k):
            yield comb(c, k) * ways, (v,) * (c - k) + (v - 1,) * k + tail


def zero_one_count(rows, cols, memo=None):
    """Number of 0-1 matrices with row sums rows and column sums cols, both
    partitions without zeros, row by row: the coefficient of m_cols in
    e_rows, which symmfunc.transition_table must give. The count depends
    only on the multiset of column sums, so memo is keyed on the sorted
    tuple."""
    if memo is None:
        memo = {}
    if not rows:
        return 0 if cols else 1
    key = (rows, cols)
    if key not in memo:
        groups = tuple((v, len(tuple(g))) for v, g in groupby(cols))
        memo[key] = sum(ways * zero_one_count(rows[1:], tuple(v for v in left if v), memo)
                        for ways, left in _row_choices(groups, rows[0]))
    return memo[key]


# -- localization and fixed points -------------------------------------------


def omega_numerator(fp, loc, omega):
    """Numerator of sum_p sign(p) m_{lambda(omega)}(weights) / prod(weights)
    over the common denominator loc.denom."""
    n = len(fp[0].weights)
    f_omega = monomial_sym(omega_to_partition(omega), n, xvars(n, "t"))
    num = MultiPoly(loc.arena)
    for idx, pt in enumerate(fp):
        bindings = {j: MultiPoly.linear_form(loc.arena, w) for j, w in enumerate(pt.weights)}
        num = num + substitute(f_omega, bindings) * loc.cofactors[idx] * loc.prefactors[idx]
    return num


@lru_cache(maxsize=None)
def e_to_m(weight):
    """{omega: {xi: q}}, m_lambda(omega) = sum_xi q e^xi in weight: the
    inverse, by Gauss-Jordan elimination over Q, of the matrix whose row xi
    holds the coefficients of the monomials x^lambda in
    elementary_product(xi, weight)."""
    oms = omegas_of_weight(weight)
    rows = []
    for r, xi in enumerate(oms):
        e = elementary_product(xi, weight)
        rows.append([Fraction(e.coeff(omega_to_partition(om, weight))) for om in oms]
                    + [Fraction(int(i == r)) for i in range(len(oms))])
    for col in range(len(oms)):
        pivot = next(r for r in range(col, len(oms)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(len(oms)):
            if r != col and rows[r][col]:
                rows[r] = [v - rows[r][col] * u for v, u in zip(rows[r], rows[col])]
    return {om: {xi: clean(rows[c][len(oms) + r]) for r, xi in enumerate(oms) if rows[c][len(oms) + r]}
            for c, om in enumerate(oms)}


def denominator_lines(fp):
    """{line: multiplicity} of the common denominator of localization_data:
    each weight line at the highest multiplicity seen at any point."""
    need = Counter()
    for pt in fp:
        for line, m in Counter(canonical_line(w)[0] for w in pt.weights).items():
            need[line] = max(need[line], m)
    return need


def omega_numerator_values(fp, point, weight):
    """(denominator, {omega: numerator}) at point, ||omega|| = weight: the
    values of loc.denom and of omega_numerator(fp, loc, omega), loc =
    localization_data(fp), computed in integers at that point. Per fixed
    point, prefactor * cofactor * e^xi(c), c_j = <w_j, point>, the cofactor
    as the product of its line values; m_lambda then comes from the e^xi by
    e_to_m."""
    need = denominator_lines(fp)
    at = {line: sum(a * b for a, b in zip(line, point)) for line in need}
    xis = omegas_of_weight(weight)
    sums = [0] * len(xis)
    for pt in fp:
        lines = [canonical_line(w) for w in pt.weights]
        cnt = Counter(line for line, _ in lines)
        scale = pt.sign * prod(sg for _, sg in lines) * prod(at[line] ** (m - cnt[line]) for line, m in need.items())
        e = [1] + [0] * max(weight, len(pt.weights))
        for line, sg in lines:
            c = sg * at[line]
            for k in range(len(e) - 1, 0, -1):
                e[k] += c * e[k - 1]
        sums = [t + scale * prod(e[k] ** m for k, m in enumerate(xi, 1)) for t, xi in zip(sums, xis)]
    by_xi = dict(zip(xis, sums))
    values = {om: sum(q * by_xi[xi] for xi, q in row.items()) for om, row in e_to_m(weight).items()}
    return prod(at[line] ** m for line, m in need.items()), values


def reference_check(spec, assign):
    """stablex.check_necessary by one omega_numerator per omega, sharing
    neither the certificate nor the kernel with it: the first omega, by
    weight and then in sorted order, whose numerator does not cancel below
    weight n, or at weight n does not divide or gives no integer, with its
    value as text; else ok with the s-numbers."""
    fp = derived_fixed_point_data(spec, assign)
    n = len(fp[0].weights)
    loc = localization_data(fp)
    for k in range(n):
        for omega in omegas_of_weight(k):
            num = omega_numerator(fp, loc, omega)
            if not num.is_zero():
                return NecessaryReport(False, omega, num.canonical_text())
    table = {}
    for omega in omegas_of_weight(n):
        num = omega_numerator(fp, loc, omega)
        try:
            value = clean(as_constant(exact_div(num, loc.denom)))
        except (NotDivisible, ValueError):
            return NecessaryReport(False, omega, num.canonical_text())
        if type(value) is not int:
            return NecessaryReport(False, omega, str(value))
        table[omega] = value
    return NecessaryReport(True, None, table)


G2_DESCRIPTOR = "G2/SU(3)"


def unitary_blocks(descriptor):
    """The blocks of positions 1..k of a type A descriptor, read off the
    text: CPn is U(n + 1)/U(n)xU(1), and the SU(4) quotient has its U(2) on
    x_1, x_2."""
    if descriptor.startswith("CP"):
        sizes = [int(descriptor[2:]), 1]
    elif descriptor == M10_DESCRIPTOR:
        sizes = [2, 1, 1]
    else:
        rank, sub = re.fullmatch(r"U\((\d+)\)/(.+)", descriptor).groups()
        sizes = [1] * int(rank) if sub == "T" + rank else [int(f[2:-1]) for f in sub.split("x")]
    starts = [sum(sizes[:i]) + 1 for i in range(len(sizes))]
    return tuple(tuple(range(a, a + k)) for a, k in zip(starts, sizes))


def euler_characteristic(spec):
    if spec.descriptor == G2_DESCRIPTOR:
        return 2
    blocks = unitary_blocks(spec.descriptor)
    total = 1
    for i in range(2, sum(map(len, blocks)) + 1):
        total *= i
    for block in blocks:
        for i in range(2, len(block) + 1):
            total //= i
    return total


def cosets_by_filter(blocks, rank):
    """Minimal coset representatives as the sorted permutations of
    range(rank) that increase on every block (1-based positions)."""
    return sorted(p for p in permutations(range(rank))
                  if all(p[a - 1] < p[b - 1] for block in blocks for a, b in zip(block, block[1:])))


# W(G2) as 2x2 integer matrices acting on weights, with x_3 = -x_1 - x_2
# eliminated
G2_IDENTITY = ((1, 0), (0, 1))
G2_S_SHORT = ((-1, 1), (0, 1))       # reflection in x1
G2_S_LONG = ((0, 1), (1, 0))         # reflection in x1-x2 (swap)
G2_S_LONG23 = ((1, -1), (0, -1))     # reflection in x2-x3


def _matmul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def g2_closure(gens):
    """The group of 2x2 matrices that gens generate, in breadth-first word
    order: each new element is s*g for a generator s and an earlier g."""
    seen = [G2_IDENTITY]
    frontier = [G2_IDENTITY]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = _matmul(s, g)
                if h not in seen:
                    seen.append(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def g2_weyl_group():
    """All 12 elements of W(G2), acting on weights."""
    return g2_closure([G2_S_SHORT, G2_S_LONG])


def g2_subgroup():
    """W(SU(3)), order 6, generated by the long-root reflections."""
    return g2_closure([G2_S_LONG, G2_S_LONG23])


def first_of_each_coset(group, sub):
    """The first element of each left coset g*sub, in the order of group."""
    reps = []
    covered = set()
    for g in group:
        if g not in covered:
            reps.append(g)
            covered.update(_matmul(g, h) for h in sub)
    return reps


def weyl_invariance_by_substitution(spec, ch):
    """Whether every block of ch is fixed by W_G, term by term: type A
    permutes each block by the adjacent transpositions, G2 substitutes
    x -> M^T x for its two simple reflections M."""
    for block in ch.values():
        k = block.arena.arity
        if spec.descriptor == G2_DESCRIPTOR:
            images = [substitute(block, {i: MultiPoly.linear_form(block.arena, (M[0][i], M[1][i]))
                                         for i in range(2)})
                      for M in (G2_S_SHORT, G2_S_LONG)]
        else:
            images = [permute(block, list(range(i)) + [i + 1, i] + list(range(i + 2, k)))
                      for i in range(k - 1)]
        if any(image != block for image in images):
            return False
    return True


def residue_rank(line, keys, n):
    """The rank over the rationals of the residue rows of the groups with
    keys `keys` along line, one column per group, every block with
    ||omega|| <= n read at every point of the determining set of the blocks
    of weight n (_ResidueLine.points(n)): the exact rank of the residue
    map (exact_rank). The rows are the a^omega residues,
    L * m_lambda(V) / prod V over the keys, V a key's values at the point
    and L the lcm of the |prod V|, with m_lambda by monomial_sym in the
    n - 1 values (0, and left out, where lambda has more parts). torigen's
    residue rows are e^xi sums, which reach the same rank because T is
    unimodular."""
    from torigen.residues import _ResidueLine
    syms = [monomial_sym(omega_to_partition(om), n - 1) for om in omegas_up_to(n)
            if sum(om) <= n - 1]
    rows = []
    for z in _ResidueLine(line, keys, n, n).points(n):
        values = [[sum(a * b for a, b in zip(v, z)) for v in key] for key in keys]
        common = lcm(*map(prod, values))
        rows += [[sym.evaluate(vs) * (common // prod(vs)) for vs in values] for sym in syms]
    return exact_rank(rows)


def exact_rank(rows):
    """The rank over the rationals of integer rows, by integer elimination
    with each row divided by its content."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                row = [top[col] * a - rows[r][col] * b for a, b in zip(rows[r], top)]
                g = gcd(*row) or 1
                rows[r] = [a // g for a in row]
        rank += 1
    return rank


def identity_assignment(spec):
    """All a_i(w) = +1, epsilon = +1: reproduces the structure spec carries."""
    base = fixed_point_weights(spec)
    return SignAssignment(tuple((1,) * len(pt.weights) for pt in base), 1)


def assignment_to_json(assign):
    """Flat mapping {coset_index: [signs], "epsilon": e}."""
    out = {str(i): list(av) for i, av in enumerate(assign.table)}
    out["epsilon"] = assign.epsilon
    return out


# -- truncated series and the formal group law -------------------------------


class GradedSeries:
    """Series in geometric variables truncated by total degree.

    Coefficients are RingPoly (ring); exponent tuples follow the arena.
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
                c = ring(c)
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
        return self.terms.get(tuple(exp), RingPoly())

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            other = GradedSeries.const(self.arena, self.order, other)
        _check_arena(self.arena, other.arena)
        t = dict(self.terms)
        for exp, c in other.terms.items():
            s = t.get(exp, RingPoly()) + c
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


def apply_series(coeffs, s):
    """sum coeffs[m] * s^m for a GradedSeries s with zero constant term."""
    out = GradedSeries.const(s.arena, s.order, coeffs[0]) if len(coeffs) else \
        GradedSeries(s.arena, s.order)
    power = GradedSeries.const(s.arena, s.order, 1)
    for m in range(1, min(len(coeffs), s.order + 1)):
        power = power * s
        c = coeffs[m]
        if not ring(c).is_zero():
            out = out + power * c
    return out


def _univariate(arena, order, coeffs, var):
    t = {}
    for m, c in enumerate(coeffs):
        if m > order:
            break
        e = [0] * arena.arity
        e[var] = m
        t[tuple(e)] = c
    return GradedSeries(arena, order, t)



def permute_series(series, perm):
    t = {}
    for e, c in series.terms.items():
        ne = [0] * len(e)
        for i, d in enumerate(e):
            ne[perm[i]] = d
        t[tuple(ne)] = c
    return GradedSeries(series.arena, series.order, t)


def substitute_series(series, bindings, arena, order):
    """Substitute x_i -> bindings[i] (GradedSeries over the target arena)."""
    result = GradedSeries(arena, order)
    one = GradedSeries.const(arena, order, 1)
    pows = [{0: one} for _ in bindings]
    for e, c in series.terms.items():
        m = one
        for i, d in enumerate(e):
            if d:
                cache = pows[i]
                while max(cache) < d:
                    top = max(cache)
                    cache[top + 1] = cache[top] * bindings[i]
                m = m * cache[d]
        result = result + m * c
    return result


def multi_bracket(weight, order, arena=None):
    """[Lambda](u_1..u_k) = g^{-1}(sum_q Lambda_q g(u_q)), iterated formal sum."""
    k = len(weight)
    if arena is None:
        arena = xvars(k, "u")
    g = log_series(order)
    s = GradedSeries(arena, order)
    for q, wq in enumerate(weight):
        if wq:
            s = s + _univariate(arena, order, [c * wq for c in g], q)
    return apply_series(exp_series(order), s)


def log_series(order):
    """g(u) = u + b_1 u^2 + b_2 u^3 + ... with b_i on the a-slots, as the
    list of its RingPoly coefficients (index = power)."""
    return [RingPoly(), RingPoly.const(1)] + [RingPoly.gen(i - 1) for i in range(2, order + 1)]


@lru_cache(maxsize=None)
def exp_series(order):
    """g^{-1}(y) on the reference ring, by the fixed point e = y - (g(e) - e):
    g(e) - e has no term below y^2, so each step makes one more coefficient
    right."""
    ar = xvars(1, "y")
    y = _univariate(ar, order, [0, 1], 0)
    e = y
    for _ in range(order):
        e = y - (apply_series(log_series(order), e) - e)
    return tuple(e.coeff((m,)) for m in range(order + 1))


def addition_law(order):
    """g^{-1}(g(u1) + g(u2)) by products of truncated series: {(a, b):
    RingPoly}, which fgl.fgl_addition must equal."""
    ar = xvars(2, "u")
    g = log_series(order)
    return apply_series(exp_series(order), _univariate(ar, order, g, 0) + _univariate(ar, order, g, 1)).terms
