"""Independent references that the tests compare src/torigen against.

No verb runs any of these. Each builds its answer the slow, direct way:

- omega_numerator substitutes the weights into m_lambda, one a^omega block
  at a time; the kernel (exactalg.f_product_sum) and
  stablex.check_necessary must agree with it.
- operator_L antisymmetrizes and divides by the Vandermonde; the signed
  delta-orbit sums of divdiff must agree with it.
- elementary_product and monomial_sym build e^xi and m_lambda as
  polynomials; symmfunc.transition_table and chern.chern_to_s must agree.
- euler_characteristic counts the cosets by the order formula; the top
  number s_(n) must be +-chi.
- cosets_by_filter keeps the permutations of the rank that increase on
  every block; rootdata.weyl_cosets, which builds them directly, must list
  the same ones in the same order.
- substitute_series and permute_series substitute into and permute a
  truncated series, and multi_bracket builds [Lambda](u) from the law's own
  logarithm and exponential; the axioms of the fgl verb's addition law are
  checked with them.
- assignment_to_json builds one sign table as a dict; the stable verb's
  streamed rendering must equal json.dumps of these dicts.
"""

from itertools import permutations

from torigen.exactalg import GradedSeries, MultiPoly, exact_div, xvars
from torigen.fgl import _univariate, apply_series, exp_series, log_series
from torigen.rootdata import fixed_point_weights
from torigen.stablex import SignAssignment
from torigen.symmfunc import omegas_of_weight, perm_sign


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


def elementary_product(xi, n, arena=None):
    """e_1^{xi_1} * e_2^{xi_2} * ... in n variables."""
    if arena is None:
        arena = xvars(n)
    prod = MultiPoly.const(arena, 1)
    for k, mult in enumerate(xi, start=1):
        for _ in range(mult):
            prod = prod * elementary(k, n, arena)
    return prod


def antisymmetrize(p):
    """Sum of sign(sigma) * sigma(p) over the full symmetric group of the arena."""
    n = p.arena.arity
    total = MultiPoly(p.arena)
    for perm in permutations(range(n)):
        total = total + p.permute(perm) * perm_sign(perm)
    return total


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


# -- localization and fixed points -------------------------------------------


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


def euler_characteristic(spec):
    if spec.family == "G2":
        return 2
    total = 1
    for i in range(2, spec.rank + 1):
        total *= i
    for block in spec.blocks:
        for i in range(2, len(block) + 1):
            total //= i
    return total


def cosets_by_filter(blocks, rank):
    """Minimal coset representatives as the sorted permutations of
    range(rank) that increase on every block (1-based positions)."""
    return sorted(p for p in permutations(range(rank))
                  if all(p[a - 1] < p[b - 1] for block in blocks for a, b in zip(block, block[1:])))


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
