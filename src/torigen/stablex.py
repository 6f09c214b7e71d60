"""Torus-equivariant stable complex structures as sign systems.

On G/H with an invariant structure, any equivariant stable complex structure
shows up at the fixed points as the invariant weight vectors rescaled by signs
a_i(w), with point signs epsilon * prod_i a_i(w).  The localization sum then
imposes necessary conditions on the a_i(w): every f_omega sum with
||omega|| <= n-1 must vanish identically and the ||omega|| = n sums must be
integers.  This module derives the rescaled fixed-point data, checks those
conditions symbolically for one table, and enumerates all admissible tables
by an exhaustive, exact search in which each point's low-weight blocks are
packed into one int per sign vector.

"Admissible" is deliberate: the conditions are necessary, and which admissible
tables are realized by honest stable complex structures is a separate
geometric question that we do not decide.
"""

from collections import namedtuple
from itertools import product

from .exactalg import NotDivisible, clean, exact_div, f_product_blocks
from .genus import localization_data, omega_numerator
from .genus import s_numbers as _genus_s_numbers
from .rootdata import FixedPoint, fixed_point_weights
from .symmfunc import omega_weight, omegas_of_weight


class BudgetExceeded(Exception):
    pass


SignAssignment = namedtuple("SignAssignment", "table epsilon")
NecessaryReport = namedtuple("NecessaryReport", "ok omega value")


def identity_assignment(spec):
    """All a_i(w) = +1, epsilon = +1: reproduces the structure spec carries."""
    base = fixed_point_weights(spec)
    return SignAssignment(tuple((1,) * len(pt.weights) for pt in base), 1)


def _check_shape(assign, base):
    if assign.epsilon not in (1, -1):
        raise ValueError("epsilon must be +-1")
    if len(assign.table) != len(base):
        raise ValueError("assignment covers %d points, space has %d" % (len(assign.table), len(base)))
    for avec, pt in zip(assign.table, base):
        if len(avec) != len(pt.weights):
            raise ValueError("point %s needs %d signs" % (pt.rep, len(pt.weights)))
        if any(a not in (1, -1) for a in avec):
            raise ValueError("signs must be +-1")


def derived_fixed_point_data(spec, assign):
    """Fixed-point table of the rescaled structure.

    Weights become a_i(w) * Lambda_i(w) and the sign of w becomes
    epsilon * prod_i a_i(w), composed with whatever sign the underlying
    structure already carries.
    """
    base = fixed_point_weights(spec)
    _check_shape(assign, base)
    out = []
    for avec, pt in zip(assign.table, base):
        weights = tuple(tuple(a * c for c in w) for a, w in zip(avec, pt.weights))
        sgn = assign.epsilon * pt.sign
        for a in avec:
            sgn *= a
        out.append(FixedPoint(pt.rep, weights, sgn))
    return out


def check_necessary(spec, assign):
    """Evaluate the localization conditions for one sign table.

    Walks omega by weight: each sum with ||omega|| <= n-1 must vanish as a
    polynomial, each ||omega|| = n sum must collapse to an integer.  Returns
    the first violated omega with the offending value (residue polynomial or
    non-integer constant).
    """
    fp = derived_fixed_point_data(spec, assign)
    n = len(fp[0].weights)
    loc = localization_data(fp)
    for k in range(n):
        for omega in omegas_of_weight(k):
            num = omega_numerator(fp, loc, omega)
            if not num.is_zero():
                return NecessaryReport(False, omega, num)
    for omega in omegas_of_weight(n):
        num = omega_numerator(fp, loc, omega)
        if num.is_zero():
            continue
        try:
            value = clean(exact_div(num, loc.denom).as_constant())
        except (NotDivisible, ValueError):
            return NecessaryReport(False, omega, num)
        if not isinstance(value, int):
            return NecessaryReport(False, omega, value)
    return NecessaryReport(True, None, None)


def _point_blocks(base, loc, signs):
    """Per point p and sign vector a, p's own omega_numerator blocks
    cofactor_p * prefactor_p * m_lambda(a_1 w_1, ..., a_n w_n), ||omega|| <= n,
    as int maps: the a^omega blocks of prod_j f(<a_j w_j, x>) (f_product_blocks)
    times cofactor_p * prefactor_p.

    prefactor_p does not depend on a: flipping a weight also flips its
    canonical line orientation, so each a_i enters it squared and cancels.
    """
    n = len(base[0].weights)
    out = []
    for pt, cof, pre in zip(base, loc.cofactors, loc.prefactors):
        cof = cof * pre
        row = []
        for avec in signs:
            weights = [tuple(a * c for c in w) for a, w in zip(avec, pt.weights)]
            row.append({om: (block * cof).terms
                        for om, block in f_product_blocks(loc.arena, weights, n).items()})
        out.append(row)
    return out


def _integer_multiple(num, denom):
    """The ||omega|| = n rule of check_necessary in exact ints: True if the
    int map num is q * denom for an integer q, zero included.  A q that is
    not an integer makes the floor quotient miss num[exp]."""
    exp, d = next(iter(denom.items()))
    q = num.get(exp, 0) // d
    return num == {e: q * c for e, c in denom.items() if q}


def _pack(rows):
    """One int per point and sign vector, from rows of {omega: {exponent: c}}.

    Each (omega, exponent) gets its own slot of W bits.  With B the sum over
    points of the largest |c| a point has, 2^W > 2B + 1: a table's packed
    sum is a number in balanced base 2^W whose digits are the slot totals,
    and balanced digits are unique, so the sum is 0 exactly when every slot
    total is 0.
    """
    bound = sum(max((abs(c) for b in row for terms in b.values() for c in terms.values()), default=0)
                for row in rows)
    width = (2 * bound + 1).bit_length()
    slots = {}
    return [[sum(c << width * slots.setdefault((om, e), len(slots))
                 for om, terms in b.items() for e, c in terms.items()) for b in row] for row in rows]


def enumerate_feasible(spec, budget=1 << 20):
    """All sign tables passing check_necessary, in the order of
    product((1, -1), repeat=n*chi).

    The search is exhaustive and exact; past `budget` candidates it raises
    BudgetExceeded.  Per point and sign vector, the ||omega|| < n blocks are
    packed into one int (_pack).  A depth-first walk over the points adds
    one int per step and looks up the last point by the value that cancels
    the rest, 2^(n*(chi-1)) additions and lookups in all; the tables found
    are checked on the ||omega|| = n blocks.  Feasibility does not depend on
    epsilon (a global sign scales every condition), so each table is
    reported once with epsilon = +1.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1, got %d" % budget)
    base = fixed_point_weights(spec)
    n = len(base[0].weights)
    chi = len(base)
    if 2 ** (n * chi) > budget:
        raise BudgetExceeded("2^%d candidates exceed budget %d" % (n * chi, budget))
    loc = localization_data(base)
    signs = list(product((1, -1), repeat=n))
    top = omegas_of_weight(n)
    blocks = _point_blocks(base, loc, signs)
    packed = _pack([[{om: t for om, t in b.items() if omega_weight(om) < n} for b in row] for row in blocks])
    cancels = {}
    for i, v in enumerate(packed[-1]):
        cancels.setdefault(-v, []).append(i)
    found = []

    def admissible(picks):
        for om in top:
            num = {}
            for row, i in zip(blocks, picks):
                for e, c in row[i].get(om, {}).items():
                    num[e] = num.get(e, 0) + c
            if not _integer_multiple({e: c for e, c in num.items() if c}, loc.denom.terms):
                return False
        return True

    def walk(p, total, picks):
        if p == chi - 1:
            for i in cancels.get(total, ()):
                if admissible(picks + (i,)):
                    found.append(SignAssignment(tuple(signs[j] for j in picks + (i,)), 1))
            return
        for i, v in enumerate(packed[p]):
            walk(p + 1, total + v, picks + (i,))

    walk(0, 0, ())
    return found


def s_numbers_for(spec, assign):
    """s_omega table of the rescaled structure; assumes check_necessary passes."""
    return _genus_s_numbers(derived_fixed_point_data(spec, assign))


def assignment_to_json(assign):
    """Flat mapping {coset_index: [signs], "epsilon": e}."""
    out = {str(i): list(av) for i, av in enumerate(assign.table)}
    out["epsilon"] = assign.epsilon
    return out


def assignment_from_json(data, spec):
    """SignAssignment from {coset_index: [signs], "epsilon": e}, optionally
    nested under "table"; ValueError for any other shape."""
    base = fixed_point_weights(spec)
    src = data.get("table", data) if isinstance(data, dict) else data
    if not isinstance(src, dict):
        raise ValueError("assignment must be a JSON object, got %s" % type(src).__name__)
    table = []
    for i in range(len(base)):
        key = str(i)
        if key not in src:
            raise ValueError("assignment missing point %s" % key)
        if not isinstance(src[key], list):
            raise ValueError("point %s needs a list of signs" % key)
        table.append(tuple(src[key]))
    epsilon = data.get("epsilon", src.get("epsilon", 1))
    assign = SignAssignment(tuple(table), epsilon)
    _check_shape(assign, base)
    return assign
