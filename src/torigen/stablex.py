"""Torus-equivariant stable complex structures as sign systems.

On G/H with an invariant structure, any equivariant stable complex structure
shows up at the fixed points as the invariant weight vectors rescaled by signs
a_i(w), with point signs epsilon * prod_i a_i(w).  The localization sum then
imposes necessary conditions on the a_i(w): every f_omega sum with
||omega|| <= n-1 must vanish identically and the ||omega|| = n sums must be
integers.  This module derives the rescaled fixed-point data and checks
those conditions for one table on the numerator blocks of one kernel pass
(genus.character_numerator).  It enumerates all admissible tables by an
exhaustive, exact search on ints: per point and sign vector, the kernel's
||omega|| < n blocks are packed into one int, which the table's sum must
cancel, and its ||omega|| = n blocks into another, whose sum must be an
integer multiple of the common denominator in every block.

"Admissible" is deliberate: the conditions are necessary, and which admissible
tables are realized by honest stable complex structures is a separate
geometric question that we do not decide.
"""

from collections import namedtuple
from itertools import product

from . import CheckFailure
from .cobordism import clean
from .exactalg import NotDivisible, exact_div, f_product_sum
from .genus import character_numerator, localization_data
from .genus import s_numbers as _genus_s_numbers
from .rootdata import FixedPoint, fixed_point_weights
from .symmfunc import omega_weight, omegas_of_weight


class BudgetExceeded(CheckFailure):
    pass


SignAssignment = namedtuple("SignAssignment", "table epsilon")
NecessaryReport = namedtuple("NecessaryReport", "ok omega value")


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

    Walks omega by weight over the numerator blocks of one kernel pass
    (genus.character_numerator at order n): each sum with ||omega|| <= n-1
    must vanish as a polynomial, each ||omega|| = n sum must collapse to an
    integer.  Returns the first violated omega with the offending value
    (residue polynomial or non-integer constant).
    """
    fp = derived_fixed_point_data(spec, assign)
    n = len(fp[0].weights)
    loc, blocks = character_numerator(fp, n)
    for k in range(n + 1):
        for omega in omegas_of_weight(k):
            num = blocks.get(omega)
            if num is None or num.is_zero():
                continue
            if k < n:
                return NecessaryReport(False, omega, num)
            try:
                value = clean(exact_div(num, loc.denom).as_constant())
            except (NotDivisible, ValueError):
                return NecessaryReport(False, omega, num)
            if not isinstance(value, int):
                return NecessaryReport(False, omega, value)
    return NecessaryReport(True, None, None)


def _point_blocks(base, loc, signs):
    """Per point p and sign vector a, the a^omega blocks, ||omega|| <= n, of
    cofactor_p * prefactor_p * prod_j f(<a_j w_j, x>) as int maps, multiplied
    in the kernel (f_product_sum).

    prefactor_p does not depend on a: flipping a weight also flips its
    canonical line orientation, so each a_i enters it squared and cancels.
    """
    n = len(base[0].weights)
    # the kernel makes one exponent tuple per term; sharing them across all
    # the blocks, which are held at once while packing, takes the peak of
    # stable --space CP4 from 35 MB to 23 MB
    exps = {}
    out = []
    for pt, cof, pre in zip(base, loc.cofactors, loc.prefactors):
        times = cof * pre
        row = []
        for avec in signs:
            weights = [tuple(a * c for c in w) for a, w in zip(avec, pt.weights)]
            blocks = f_product_sum(loc.arena, [(weights, times)], n)
            row.append({om: {exps.setdefault(e, e): c for e, c in b.terms.items()} for om, b in blocks.items()})
        out.append(row)
    return out


def _bound(rows):
    """Sum over points of the largest |c| in any block of a point's row."""
    return sum(max((abs(c) for b in row for terms in b.values() for c in terms.values()), default=0)
               for row in rows)


def _slot_ints(rows, width, slots):
    """One int per point and sign vector: c << width * slot per (omega,
    exponent) term, slots[omega, exponent] the slot (new keys appended)."""
    return [[sum(c << width * slots.setdefault((om, e), len(slots))
                 for om, terms in b.items() for e, c in terms.items()) for b in row] for row in rows]


def _pack(rows):
    """One int per point and sign vector, from rows of {omega: {exponent: c}}.

    Each (omega, exponent) gets its own slot of W bits.  With B = _bound(rows),
    2^W > 2B + 1: a table's packed sum is a number in balanced base 2^W whose
    digits are the slot totals, and balanced digits are unique, so the sum is
    0 exactly when every slot total is 0.
    """
    return _slot_ints(rows, (2 * _bound(rows) + 1).bit_length(), {})


def _top_rule(rows, denom):
    """The ||omega|| = n rule of check_necessary on packed ints: (packed,
    accepts), packed one int per point and sign vector as in _pack, and
    accepts(total) True exactly when, for every omega, the slot totals of
    block omega in a table's packed sum are q_omega * denom for an integer
    q_omega, zero included.

    accepts reads one digit per omega, at the slot of denom's first monomial
    e0, takes q_omega = digit / d0 (rejecting if d0 does not divide it) and
    compares total with sum_omega q_omega * D_omega, D_omega denom packed into
    omega's slots.  Guarantee: with B = _bound(rows), C = max |c_e| over
    denom's coefficients and d0 = denom[e0], the width W has
    2^W > 2 * B * C / |d0|.  A table's slot totals are at most B <=
    B * C / |d0| in size, and so is every digit q_omega * c_e of the other
    side, as |q_omega| <= B / |d0|.  Both sides are then numbers in balanced
    base 2^W with these digits, and balanced digits are unique, so they are
    equal exactly when every block is q_omega * denom.  A width sized by B
    alone lets a digit q_omega * c_e carry into the next slot and match a
    wrong table.
    """
    e0, d0 = next(iter(denom.items()))
    width = (2 * _bound(rows) * max(abs(c) for c in denom.values()) // abs(d0) + 1).bit_length()
    omegas = sorted({om for row in rows for b in row for om in b})
    slots = {key: i for i, key in enumerate(product(omegas, denom))}
    packed = _slot_ints(rows, width, slots)
    reads = [(width * slots[om, e0], sum(c << width * slots[om, e] for e, c in denom.items()))
             for om in omegas]
    half, mask = 1 << width - 1, (1 << width) - 1

    def accepts(total):
        rest = total
        for shift, multiple in reads:
            # the balanced digit at shift: round off the digits below, then
            # read W bits as a balanced residue
            digit = (((total + (1 << shift >> 1)) >> shift) + half & mask) - half
            q, r = divmod(digit, d0)
            if r:
                return False
            rest -= q * multiple
        return rest == 0

    return packed, accepts


def enumerate_feasible(spec, budget=1 << 20):
    """All sign tables passing check_necessary, in the order of
    product((1, -1), repeat=n*chi).

    The search is exhaustive and exact; past `budget` candidates it raises
    BudgetExceeded.  Per point and sign vector, the kernel's blocks are
    packed into two ints: the ||omega|| < n blocks (_pack) and, in slots and
    a width of their own, the ||omega|| = n blocks (_top_rule).  A
    depth-first walk over the points adds one low int per step and looks up
    the last point by the value that cancels the rest, 2^(n*(chi-1))
    additions and lookups in all; at each table found there, the chi top
    ints are summed and checked by _top_rule.  Feasibility does not depend
    on epsilon (a global sign scales every condition), so each table is
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
    blocks = _point_blocks(base, loc, signs)
    packed = _pack([[{om: t for om, t in b.items() if omega_weight(om) < n} for b in row] for row in blocks])
    top, accepts = _top_rule([[{om: t for om, t in b.items() if omega_weight(om) == n} for b in row]
                              for row in blocks], loc.denom.terms)
    cancels = {}
    for i, v in enumerate(packed[-1]):
        cancels.setdefault(-v, []).append(i)
    found = []

    def walk(p, total, picks):
        if p == chi - 1:
            for i in cancels.get(total, ()):
                table = picks + (i,)
                if accepts(sum(row[j] for row, j in zip(top, table))):
                    found.append(SignAssignment(tuple(signs[j] for j in table), 1))
            return
        for i, v in enumerate(packed[p]):
            walk(p + 1, total + v, picks + (i,))

    walk(0, 0, ())
    return found


def s_numbers_for(spec, assign):
    """s_omega table of the rescaled structure; assumes check_necessary passes."""
    return _genus_s_numbers(derived_fixed_point_data(spec, assign))


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
