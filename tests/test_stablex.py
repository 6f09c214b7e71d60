"""Admissible torus-equivariant sign systems on the fixed-point data."""

import random
import re
from itertools import product

import pytest

from torigen.exactalg import MultiPoly, NotDivisible, clean, exact_div, xvars
from torigen.genus import _pole_free, cobordism_class, localization_data, s_numbers
from torigen.rootdata import build_space, fixed_point_weights
from torigen.stablex import (
    BudgetExceeded,
    NecessaryReport,
    SignAssignment,
    _pack,
    _top_rule,
    assignment_from_json,
    check_necessary,
    derived_fixed_point_data,
    enumerate_feasible,
    s_numbers_for,
)
from torigen.symmfunc import omegas_of_weight

from reference import assignment_to_json, identity_assignment, omega_numerator

M10 = "SU(4)/S(U(1)xU(1)xU(2))"

# equality classes of sign slots (point, weight index) cutting the CP3
# feasible set down to 2^4
CP3_CLASSES = (
    ((0, 0), (1, 0), (2, 0)),
    ((0, 1), (1, 1), (3, 0)),
    ((0, 2), (2, 1), (3, 1)),
    ((1, 2), (2, 2), (3, 2)),
)


def test_identity_assignment_reproduces_base():
    spec = build_space("U(3)/T3")
    base = fixed_point_weights(spec)
    derived = derived_fixed_point_data(spec, identity_assignment(spec))
    assert derived == base


def test_derived_sign_law():
    spec = build_space("CP2")
    base = fixed_point_weights(spec)
    table = [[1] * len(pt.weights) for pt in base]
    table[1][0] = -1
    assign = SignAssignment(tuple(tuple(r) for r in table), 1)
    derived = derived_fixed_point_data(spec, assign)
    assert derived[1].weights[0] == tuple(-c for c in base[1].weights[0])
    assert derived[1].sign == -base[1].sign
    assert derived[0] == base[0]
    eps = SignAssignment(assign.table, -1)
    assert [pt.sign for pt in derived_fixed_point_data(spec, eps)] == \
        [-pt.sign for pt in derived]


def test_check_necessary_accepts_identity():
    for text in ("CP2", "U(3)/T3", "G2/SU(3)"):
        spec = build_space(text)
        rep = check_necessary(spec, identity_assignment(spec))
        assert rep.ok and rep.omega is None


def test_single_flip_breaks_first_moment():
    for text in ("U(3)/T3", "U(4)/U(2)xU(2)"):
        spec = build_space(text)
        base = fixed_point_weights(spec)
        table = [[1] * len(pt.weights) for pt in base]
        table[0][0] = -1
        rep = check_necessary(spec, SignAssignment(tuple(tuple(r) for r in table), 1))
        assert not rep.ok
        assert rep.omega == (1,)
        assert not rep.value.is_zero()


def test_cp1_enumeration_and_classes():
    spec = build_space("CP1")
    sols = enumerate_feasible(spec)
    assert len(sols) == 4
    texts = []
    for sol in sols:
        cls = cobordism_class(derived_fixed_point_data(spec, sol))
        texts.append(cls.canonical_text())
    assert sorted(texts) == sorted(["2*a1", "0", "0", "-2*a1"])


def test_six_sphere_has_ten_sign_systems():
    spec = build_space("G2/SU(3)")
    sols = enumerate_feasible(spec)
    assert len(sols) == 10
    tables = {sol.table for sol in sols}
    assert ((1, 1, 1), (1, 1, 1)) in tables
    assert ((-1, -1, -1), (-1, -1, -1)) in tables
    for sol in sols:
        rep = check_necessary(spec, sol)
        assert rep.ok


def cp3_slot_tables():
    out = set()
    for choice in product((1, -1), repeat=4):
        table = [[0] * 3 for _ in range(4)]
        for cls, s in zip(CP3_CLASSES, choice):
            for p, j in cls:
                table[p][j] = s
        out.add(tuple(tuple(r) for r in table))
    return out


def test_cp3_feasible_set_matches_slot_classes():
    spec = build_space("CP3")
    sols = enumerate_feasible(spec)
    assert len(sols) == 16
    assert {sol.table for sol in sols} == cp3_slot_tables()


def test_certificate_accepts_admissible_tables():
    # the pole-cancellation certificate vouches for every admissible table
    # of CP3 and S^6, so their classes come from one point evaluation
    spec = build_space("CP3")
    for table in cp3_slot_tables():
        for epsilon in (1, -1):
            assert _pole_free(derived_fixed_point_data(spec, SignAssignment(table, epsilon)))
    spec = build_space("G2/SU(3)")
    sols = enumerate_feasible(spec)
    assert len(sols) == 10
    for sol in sols:
        assert _pole_free(derived_fixed_point_data(spec, sol))


def test_line_sum_structure():
    # eta^3 + eta over CP3: flip the last slot of every non-identity point
    spec = build_space("CP3")
    assign = SignAssignment(((1, 1, 1), (1, 1, -1), (1, 1, -1), (1, 1, -1)), -1)
    derived = derived_fixed_point_data(spec, assign)
    assert [pt.sign for pt in derived] == [-1, 1, 1, 1]
    table = s_numbers_for(spec, assign)
    assert table[(0, 0, 1)] == -2
    cls = cobordism_class(derived)
    assert cls.canonical_text() == "2*a1^3 - 6*a1*a2 - 2*a3"


def test_s_numbers_for_identity_matches_direct():
    spec = build_space("U(3)/T3")
    assert s_numbers_for(spec, identity_assignment(spec)) == \
        s_numbers(fixed_point_weights(spec))


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_feasible(build_space("U(4)/U(2)xU(2)"))
    # raising the budget is allowed in principle; a tiny budget always trips
    with pytest.raises(BudgetExceeded):
        enumerate_feasible(build_space("CP1"), budget=2)


def all_tables(base):
    """Every sign table of the space, in the order enumerate_feasible keeps."""
    n = len(base[0].weights)
    for flat in product((1, -1), repeat=n * len(base)):
        yield tuple(flat[p * n:(p + 1) * n] for p in range(len(base)))


@pytest.mark.parametrize("text", ["CP1", "CP2", "G2/SU(3)"])
def test_search_matches_symbolic_checker_exhaustively(text):
    spec = build_space(text)
    expected = [SignAssignment(t, 1) for t in all_tables(fixed_point_weights(spec))
                if check_necessary(spec, SignAssignment(t, 1)).ok]
    assert enumerate_feasible(spec) == expected


@pytest.mark.parametrize("text, found", [("CP3", 16), ("U(3)/T3", 4372)])
def test_search_matches_symbolic_checker_on_a_sample(text, found):
    spec = build_space(text)
    base = fixed_point_weights(spec)
    sols = enumerate_feasible(spec)
    tables = {sol.table for sol in sols}
    assert len(sols) == len(tables) == found
    rng = random.Random(20080131)
    for sol in rng.sample(sols, min(found, 60)):
        assert check_necessary(spec, sol).ok
    for _ in range(300):
        table = tuple(tuple(rng.choice((1, -1)) for _ in pt.weights) for pt in base)
        assert check_necessary(spec, SignAssignment(table, 1)).ok == (table in tables)


def test_cp4_fits_the_default_budget():
    spec = build_space("CP4")
    sols = enumerate_feasible(spec)
    assert len(sols) == 32
    assert all(check_necessary(spec, sol).ok for sol in sols)


def test_packed_sum_is_zero_exactly_when_every_slot_cancels():
    # 2 at slot 0 and -1 at slot 1 would read 0 with one-bit slots
    assert sum(r[0] for r in _pack([[{(): {(0,): 2}}], [{(): {(1,): -1}}]])) != 0
    rng = random.Random(7)
    keys = [((), (0,)), ((), (1,)), ((1,), (0,))]
    for _ in range(200):
        rows = [[{} for _ in range(3)] for _ in range(3)]
        for row in rows:
            for b in row:
                for om, e in rng.sample(keys, 2):
                    b.setdefault(om, {})[e] = rng.randint(-3, 3)
        packed = _pack(rows)
        for picks in product(range(3), repeat=3):
            totals = {key: sum(rows[p][i].get(key[0], {}).get(key[1], 0) for p, i in enumerate(picks))
                      for key in keys}
            assert (sum(packed[p][i] for p, i in enumerate(picks)) == 0) == (not any(totals.values()))


def _symbolic_top_rule(num, denom):
    # the ||omega|| = n test of check_necessary, on int maps in two variables
    if not num:
        return True
    arena = xvars(2)
    try:
        value = clean(exact_div(MultiPoly(arena, num), MultiPoly(arena, denom)).as_constant())
    except (NotDivisible, ValueError):
        return False
    return isinstance(value, int)


def _top_accepts(nums, denom):
    """_top_rule on one point with one sign vector whose blocks are nums."""
    packed, accepts = _top_rule([[nums]], denom)
    return accepts(packed[0][0])


@pytest.mark.parametrize("denom", [
    {(1, 1): 1, (0, 2): -1},    # x2 * (x1 - x2)
    {(2, 0): 2, (1, 1): 4},     # 2 * x1 * (x1 + 2 x2): not primitive
])
def test_top_weight_rule(denom):
    # no table of a real space reaches this rule after the low blocks cancel,
    # so it is planted on synthetic maps
    double = {e: 2 * c for e, c in denom.items()}
    bent = {e: c + (e == max(denom)) for e, c in double.items()}
    extra = dict(double)
    extra[(0, 1)] = 1
    accepted = [double, {}]
    rejected = [bent, extra]
    if any(abs(c) != 1 for c in denom.values()):
        rejected.append({e: c // 2 for e, c in denom.items()})    # denom / 2
    for num in accepted:
        assert _top_accepts({(3,): num}, denom) and _symbolic_top_rule(num, denom)
        assert _top_accepts({(3,): num, (1, 1): double}, denom)
    for num in rejected:
        assert not _top_accepts({(3,): num}, denom) and not _symbolic_top_rule(num, denom)
        assert not _top_accepts({(3,): double, (1, 1): num}, denom)


def test_top_weight_rule_width_covers_the_quotient():
    # num = 3 x1^2 - x1 x2 + 2 x2^2 is no multiple of x1^2 + 5 x1 x2.  With
    # B = 3, a width sized by B alone is 3 bits, and q = 3 puts the digit 15
    # in the x1 x2 slot, which carries: 3 - 8 + 2 * 64 == 3 + 15 * 8.  The
    # width of _top_rule also covers q * 5.
    denom = {(2, 0): 1, (1, 1): 5}
    num = {(2, 0): 3, (1, 1): -1, (0, 2): 2}
    assert 3 - 1 * 8 + 2 * 64 == 3 + 15 * 8
    assert not _symbolic_top_rule(num, denom)
    assert not _top_accepts({(2,): num}, denom)


def test_top_weight_rule_on_packed_sums():
    # tables of three points with three sign vectors each: every block a
    # small multiple of denom, some with a planted error; a table passes
    # exactly when every omega's total is a multiple of denom
    denom = {(1, 1): 2, (0, 2): -3, (2, 0): 1}
    omegas = [(2,), (0, 1)]
    rng = random.Random(11)
    for _ in range(100):
        rows = []
        for _ in range(3):
            row = []
            for _ in range(3):
                b = {}
                for om in rng.sample(omegas, rng.randint(0, 2)):
                    q = rng.randint(-4, 4)
                    b[om] = {e: q * c for e, c in denom.items()}
                    if rng.random() < 0.3:
                        e = rng.choice([(2, 0), (1, 1), (0, 2)])
                        b[om][e] = b[om].get(e, 0) + rng.choice((-2, -1, 1, 2))
                row.append(b)
            rows.append(row)
        packed, accepts = _top_rule(rows, denom)
        for picks in product(range(3), repeat=3):
            totals = {om: {} for om in omegas}
            for p, i in enumerate(picks):
                for om, terms in rows[p][i].items():
                    for e, c in terms.items():
                        totals[om][e] = totals[om].get(e, 0) + c
            want = all(_symbolic_top_rule({e: c for e, c in t.items() if c}, denom) for t in totals.values())
            assert accepts(sum(packed[p][i] for p, i in enumerate(picks))) == want


def reference_check(spec, assign):
    """check_necessary with one omega_numerator m_lambda substitution per omega."""
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


def _report_text(rep):
    value = rep.value.canonical_text() if isinstance(rep.value, MultiPoly) else str(rep.value)
    return rep.ok, rep.omega, value


def _tables_to_check(text):
    spec = build_space(text)
    base = fixed_point_weights(spec)
    if text in ("CP1", "CP2", "G2/SU(3)"):
        return [SignAssignment(t, e) for t in all_tables(base) for e in (1, -1)]
    rng = random.Random(text)
    sample = [SignAssignment(tuple(tuple(rng.choice((1, -1)) for _ in pt.weights) for pt in base),
                             rng.choice((1, -1))) for _ in range(6)]
    if text == M10:
        # an invariant structure takes one sign per isotropy summand: roots
        # 0, 2 | 1, 3 | 4
        sample += [SignAssignment(((a, b, a, b, c),) * len(base), 1) for a, b, c in product((1, -1), repeat=3)]
    else:
        sols = enumerate_feasible(spec)
        sample += [SignAssignment(sol.table, rng.choice((1, -1))) for sol in rng.sample(sols, 4)]
    return sample


@pytest.mark.parametrize("text", ["CP1", "CP2", "G2/SU(3)", "CP3", "U(3)/T3", "CP4", M10])
def test_check_necessary_matches_reference(text):
    spec = build_space(text)
    for assign in _tables_to_check(text):
        assert _report_text(check_necessary(spec, assign)) == _report_text(reference_check(spec, assign))


def test_assignment_json_round_trip():
    spec = build_space("CP2")
    assign = SignAssignment(((1, -1), (1, 1), (-1, 1)), -1)
    data = assignment_to_json(assign)
    assert data["epsilon"] == -1
    assert data["1"] == [1, 1]
    back = assignment_from_json(data, spec)
    assert back == assign
    nested = assignment_from_json({"table": data}, spec)
    assert nested == assign


@pytest.mark.parametrize("data", [[1, 2], 3, "table", None, {"table": [1, 2]},
                                  {"0": 1, "1": [1, 1], "2": [1, 1]}])
def test_assignment_json_rejects_other_shapes(data):
    with pytest.raises(ValueError):
        assignment_from_json(data, build_space("CP2"))


def test_malformed_tables_are_rejected_with_the_fault_named():
    spec = build_space("CP2")
    cases = [
        (SignAssignment(((1, 1), (1, 1), (1, 1)), 0), "epsilon must be +-1"),
        (SignAssignment(((1, 1), (1, 1)), 1), "assignment covers 2 points, space has 3"),
        (SignAssignment(((1, 1), (1,), (1, 1)), 1), "needs 2 signs"),
        (SignAssignment(((1, 1), (1, 2), (1, 1)), 1), "signs must be +-1"),
    ]
    for assign, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            derived_fixed_point_data(spec, assign)
    with pytest.raises(ValueError, match="assignment missing point 2"):
        assignment_from_json({"0": [1, 1], "1": [1, 1]}, spec)
    with pytest.raises(ValueError, match=re.escape("signs must be +-1")):
        assignment_from_json({"0": [1, 1], "1": [1, 1], "2": [0, 1]}, spec)
