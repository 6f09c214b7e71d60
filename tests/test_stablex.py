"""Admissible torus-equivariant sign systems on the fixed-point data."""

from itertools import product

import pytest

from torigen.genus import _pole_free, cobordism_class, s_numbers
from torigen.rootdata import build_space, fixed_point_weights
from torigen.stablex import (
    BudgetExceeded,
    SignAssignment,
    assignment_from_json,
    assignment_to_json,
    check_necessary,
    derived_fixed_point_data,
    enumerate_feasible,
    identity_assignment,
    s_numbers_for,
)

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
