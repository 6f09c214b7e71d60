"""Torus-equivariant stable complex structures as sign systems.

On G/H with an invariant structure, any equivariant stable complex structure
shows up at the fixed points as the invariant weight vectors rescaled by signs
a_i(w), with point signs epsilon * prod_i a_i(w).  The localization sum then
imposes necessary conditions on the a_i(w): every f_omega sum with
||omega|| <= n-1 must vanish identically and the ||omega|| = n sums must be
integers.  This module derives the rescaled fixed-point data and checks
those conditions for one table on the numerator blocks of one kernel pass
(character.character_numerator).  It enumerates all admissible tables by an
exhaustive, exact search on ints: per point and sign vector, the kernel's
packed blocks (exactalg.packed_product_sum) with ||omega|| < n become one
int, a slot per (omega, packed exponent), which the table's sum must cancel,
and those with ||omega|| = n another, whose sum must be an integer multiple
of the common denominator in every block.

"Admissible" is deliberate: the conditions are necessary, and which admissible
tables are realized by honest stable complex structures is a separate
geometric question that we do not decide.

The stable verb, which enumerates the tables or checks one given with
--assign, lives here.
"""

import json
import sys
from collections import namedtuple
from itertools import product

from . import CheckFailure
from .character import character_numerator, localization_data
from .cobordism import clean
from .exactalg import MultiPoly, NotDivisible, exact_div, packed_product_sum
from .genus import s_numbers as _genus_s_numbers
from .rootdata import FixedPoint, fixed_point_weights
from .symmfunc import omega_weight, omegas_of_weight


class BudgetExceeded(CheckFailure):
    pass


SignAssignment = namedtuple("SignAssignment", "table epsilon")
NecessaryReport = namedtuple("NecessaryReport", "ok omega value")


def _is_unit(a):
    """a is the int +1 or -1: not a float such as 1.0, and not a bool."""
    return type(a) is int and a in (1, -1)


def _check_shape(assign, base):
    if not _is_unit(assign.epsilon):
        raise ValueError("epsilon must be +-1")
    if len(assign.table) != len(base):
        raise ValueError("assignment covers %d points, space has %d" % (len(assign.table), len(base)))
    # a point is named by its coset index, the key of the --assign JSON
    for index, (avec, pt) in enumerate(zip(assign.table, base)):
        if len(avec) != len(pt.weights):
            raise ValueError("point %d needs %d signs" % (index, len(pt.weights)))
        if not all(_is_unit(a) for a in avec):
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
    (character.character_numerator at order n): each sum with ||omega|| <= n-1
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
    """(layout, rows): per point p and sign vector a, the a^omega blocks,
    ||omega|| <= n, of cofactor_p * prefactor_p * prod_j f(<a_j w_j, x>), as
    the kernel packs them (packed_product_sum).

    Every cofactor has degree D - n, D = deg loc.denom, so every call builds
    the same layout, for degree D, and loc.denom packs into it too.
    prefactor_p does not depend on a: flipping a weight also flips its
    canonical line orientation, so each a_i enters it squared and cancels.
    """
    n = len(base[0].weights)
    rows = []
    for pt, cof, pre in zip(base, loc.cofactors, loc.prefactors):
        times = cof * pre
        row = []
        for avec in signs:
            weights = [tuple(a * c for c in w) for a, w in zip(avec, pt.weights)]
            layout, blocks = packed_product_sum(loc.arena, [(weights, times)], n)
            row.append(blocks)
        rows.append(row)
    return layout, rows


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

    The search is exhaustive and exact.  Per point and sign vector, the
    kernel's blocks are packed into two ints: the ||omega|| < n blocks
    (_pack) and, in slots and a width of their own, the ||omega|| = n blocks
    (_top_rule).  A depth-first walk over the points adds one low int per
    step and looks up the last point by the value that cancels the rest,
    2^(n*(chi-1)) additions and lookups in all; past `budget` of them it
    raises BudgetExceeded instead.  At each table found there, the chi top
    ints are summed and checked by _top_rule.  Feasibility does not depend
    on epsilon (a global sign scales every condition), so each table is
    reported once with epsilon = +1.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1, got %d" % budget)
    base = fixed_point_weights(spec)
    n = len(base[0].weights)
    chi = len(base)
    if 2 ** (n * (chi - 1)) > budget:
        raise BudgetExceeded("2^%d additions and lookups exceed budget %d" % (n * (chi - 1), budget))
    loc = localization_data(base)
    signs = list(product((1, -1), repeat=n))
    layout, blocks = _point_blocks(base, loc, signs)
    packed = _pack([[{om: t for om, t in b.items() if omega_weight(om) < n} for b in row] for row in blocks])
    top, accepts = _top_rule([[{om: t for om, t in b.items() if omega_weight(om) == n} for b in row]
                              for row in blocks], layout.pack(loc.denom.terms))
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


def cmd_stable(args):
    from .cli import _build_space, _emit, _pad
    spec = _build_space(args)
    if args.assign is not None:
        with open(args.assign) as fh:
            assign = assignment_from_json(json.load(fh), spec)
        report = check_necessary(spec, assign)
        if report.ok:
            table = s_numbers_for(spec, assign)
            n = len(next(iter(fixed_point_weights(spec))).weights)
            rows = [(list(_pad(om, n)), v) for om, v in sorted(table.items())]
            text = "PASS\n" + "\n".join("s_%s = %d" % (om, v) for om, v in rows)
            _emit(args, text, {"ok": True, "s_numbers": [{"omega": om, "value": v} for om, v in rows]})
            return 0
        value = report.value.canonical_text() if isinstance(report.value, MultiPoly) else str(report.value)
        _emit(args, "FAIL at omega=%s: %s" % (list(report.omega), value),
              {"ok": False, "omega": list(report.omega), "value": value})
        return 1
    sols = enumerate_feasible(spec, budget=args.budget)
    _write_tables(args, spec, sols)
    return 0


def _write_tables(args, spec, sols):
    """Write the tables one at a time, as _emit would write the list of
    {coset_index: [signs], "epsilon": e}, keys sorted as strings ("10" before
    "2"): U(3)/T3 lists 4372 of them. Each table is joined from the JSON
    texts of the 2^n sign vectors, made once."""
    compact = args.format == "json"
    item, colon = (",", ":") if compact else (", ", ": ")
    texts = {v: json.dumps(v, separators=(item, colon)) for v in product((1, -1), repeat=spec.n)}
    keys = [(p, '"%d"%s' % (p, colon)) for p in sorted(range(len(sols[0].table) if sols else 0), key=str)]
    write = sys.stdout.write
    write('{"assignments":[' if compact else "admissible: %d" % len(sols))
    for i, sol in enumerate(sols):
        row = item.join([k + texts[sol.table[p]] for p, k in keys])
        sep = ("," if i else "") if compact else "\n"
        write('%s{%s%s"epsilon"%s%d}' % (sep, row, item, colon, sol.epsilon))
    write('],"count":%d,"space":%s}\n' % (len(sols), json.dumps(spec.descriptor)) if compact else "\n")
