"""Torus-equivariant stable complex structures as sign systems.

On G/H with an invariant structure, any equivariant stable complex structure
shows up at the fixed points as the invariant weight vectors rescaled by signs
a_i(w), with point signs epsilon * prod_i a_i(w).  The localization sum then
imposes necessary conditions on the a_i(w): every f_omega sum with
||omega|| <= n-1 must vanish identically and the ||omega|| = n sums must be
integers.  This module derives the rescaled fixed-point data, checks those
conditions, and enumerates all admissible sign tables.

"Admissible" is deliberate: the conditions are necessary, and which admissible
tables are realized by honest stable complex structures is a separate
geometric question that we do not decide.
"""

from collections import namedtuple
from itertools import product

from .exactalg import MultiPoly, NotDivisible, clean, exact_div
from .genus import localization_data, omega_numerator
from .genus import s_numbers as _genus_s_numbers
from .rootdata import FixedPoint, fixed_point_weights
from .symmfunc import omega_to_partition, omegas_of_weight, rearrangements


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


def _sign_tables(base, loc):
    """Per point and omega, contributions keyed by the parity of each a_i.

    m_lambda of the rescaled weights is the same sum of form-products with a
    monomial in the a_i in front; a_i = +-1 only sees the exponent parity, so
    each orbit term lands in a bucket keyed by the set of odd positions.

    The prod_i a_i(w) from the sign formula never shows up here: flipping a
    weight also flips its canonical line orientation in the common
    denominator, so each a_i enters the prefactor squared and cancels.
    """
    n = len(base[0].weights)
    omegas = [om for k in range(n + 1) for om in omegas_of_weight(k)]
    tables = []
    for idx, pt in enumerate(base):
        forms = [MultiPoly.linear_form(loc.arena, w) for w in pt.weights]
        scale = loc.cofactors[idx] * loc.prefactors[idx]
        powers = []
        for form in forms:
            row = [MultiPoly.const(loc.arena, 1)]
            for _ in range(n):
                row.append(row[-1] * form)
            powers.append(row)
        per = {}
        for om in omegas:
            lam = omega_to_partition(om)
            buckets = {}
            if len(lam) <= n:
                for e in rearrangements(lam + (0,) * (n - len(lam))):
                    mask = sum(1 << j for j, d in enumerate(e) if d % 2)
                    poly = scale
                    for j, d in enumerate(e):
                        if d:
                            poly = poly * powers[j][d]
                    buckets[mask] = buckets[mask] + poly if mask in buckets else poly
            per[om] = buckets
        tables.append(per)
    return omegas, tables


def _masked_sum(tables, cand, omega, arena):
    num = MultiPoly(arena)
    for idx, per in enumerate(tables):
        av = cand[idx]
        for mask, poly in per[omega].items():
            s = 1
            j = 0
            while mask:
                if mask & 1:
                    s *= av[j]
                mask >>= 1
                j += 1
            num = num + (poly if s > 0 else -poly)
    return num


def enumerate_feasible(spec, budget=1 << 20):
    """All sign tables passing check_necessary, in deterministic order.

    The search space is 2^(n*chi); anything past `budget` candidates raises
    BudgetExceeded.  Conditions are tested by ascending ||omega||, so the
    cheap linear relations prune almost everything before the expensive ones
    run.  Feasibility does not depend on epsilon (a global sign scales every
    condition), so each table is reported once with epsilon = +1.
    """
    base = fixed_point_weights(spec)
    n = len(base[0].weights)
    chi = len(base)
    bits = n * chi
    if 2 ** bits > budget:
        raise BudgetExceeded("2^%d candidates exceed budget %d" % (bits, budget))
    loc = localization_data(base)
    omegas, tables = _sign_tables(base, loc)
    low = [om for om in omegas if sum((k + 1) * m for k, m in enumerate(om)) < n]
    top = [om for om in omegas if om not in low]
    found = []
    for flat in product((1, -1), repeat=bits):
        cand = tuple(flat[p * n:(p + 1) * n] for p in range(chi))
        ok = True
        for om in low:
            if not _masked_sum(tables, cand, om, loc.arena).is_zero():
                ok = False
                break
        if not ok:
            continue
        for om in top:
            num = _masked_sum(tables, cand, om, loc.arena)
            if num.is_zero():
                continue
            try:
                value = clean(exact_div(num, loc.denom).as_constant())
            except (NotDivisible, ValueError):
                ok = False
                break
            if not isinstance(value, int):
                ok = False
                break
        if ok:
            found.append(SignAssignment(cand, 1))
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
    base = fixed_point_weights(spec)
    src = data.get("table", data)
    table = []
    for i in range(len(base)):
        key = str(i)
        if key not in src:
            raise ValueError("assignment missing point %s" % key)
        table.append(tuple(src[key]))
    epsilon = data.get("epsilon", src.get("epsilon", 1))
    assign = SignAssignment(tuple(table), epsilon)
    _check_shape(assign, base)
    return assign
