"""Admissible torus-equivariant sign systems on the fixed-point data."""

import json
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from torigen import CheckFailure, genus, residues, stablex
from torigen.cli import main
from torigen.genus import (NonIntegerClass, _pole_free, cobordism_class, line_sums, point_chern_numbers,
                          s_numbers)
from torigen.rootdata import FixedPoint, build_space, fixed_point_weights
from torigen.stablex import (
    BudgetExceeded,
    SignAssignment,
    _group_ints,
    _integral,
    _signed,
    assignment_from_json,
    check_necessary,
    derived_fixed_point_data,
    enumerate_feasible,
)
from torigen.symmfunc import omega_weight

from reference import assignment_to_json, exact_rank, identity_assignment, reference_check, residue_rank

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
        # the residue of the pole, with its point and its line
        assert re.fullmatch(r"residue -?\d+(/\d+)? at \(-?\d+(, -?\d+)*\) on x\d.* = 0", rep.value)


def test_a_non_integral_point_value_names_its_omega(monkeypatch, capsys, tmp_path):
    # no natural pole-free table has a non-integral point value, so CP2's
    # c_2 is shifted by 1/2: s_(0,1) = c_1^2 - 2 c_2 stays integral, as a
    # Fraction, and s_(2) = c_2 becomes 7/2, the first non-integral omega
    real = genus.point_chern_numbers

    def shifted(fp, point):
        table = real(fp, point)
        table[(0, 1)] += Fraction(1, 2)
        return table

    monkeypatch.setattr(genus, "point_chern_numbers", shifted)
    spec = build_space("CP2")
    with pytest.raises(NonIntegerClass) as info:
        s_numbers(fixed_point_weights(spec))
    assert (str(info.value), info.value.omega, info.value.value) == ("7/2*a1^2 + 2*a2", (2,), "7/2")
    assert main(["class", "--space", "CP2"]) == 1
    assert capsys.readouterr() == ("", "error: 7/2*a1^2 + 2*a2\n")
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(assignment_to_json(identity_assignment(spec))))
    for fmt, out in (("text", "FAIL at omega=[2]: 7/2\n"), ("json", '{"ok":false,"omega":[2],"value":"7/2"}\n')):
        assert main(["stable", "--space", "CP2", "--assign", str(identity), "--format", fmt]) == 1
        assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("space, name, poles", [("CP3", "cp3.json", 0), (M10, "m10_j.json", 0),
                                                   ("CP3", "cp3_flip.json", 1)])
def test_one_route_call_per_assign_run(monkeypatch, capsys, space, name, poles):
    # --assign enters genus's route once, and reads residues only for a
    # table that the certificate does not decide
    checked, read = genus.check_poles, residues._ResidueLine
    entries, lines = [], []
    monkeypatch.setattr(genus, "check_poles", lambda fp, *args: entries.append(fp) or checked(fp, *args))
    monkeypatch.setattr(residues, "_ResidueLine", lambda *args: lines.append(args) or read(*args))
    code = main(["stable", "--space", space, "--assign", str(Path(__file__).with_name("assign") / name)])
    assert code == poles
    assert (len(entries), bool(lines)) == (1, bool(poles))
    assert capsys.readouterr().out.startswith("FAIL" if poles else "PASS")


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
            assert _pole_free(line_sums(derived_fixed_point_data(spec, SignAssignment(table, epsilon))))
    spec = build_space("G2/SU(3)")
    sols = enumerate_feasible(spec)
    assert len(sols) == 10
    for sol in sols:
        assert _pole_free(line_sums(derived_fixed_point_data(spec, sol)))


def test_line_sum_structure():
    # eta^3 + eta over CP3: flip the last slot of every non-identity point
    spec = build_space("CP3")
    assign = SignAssignment(((1, 1, 1), (1, 1, -1), (1, 1, -1), (1, 1, -1)), -1)
    derived = derived_fixed_point_data(spec, assign)
    assert [pt.sign for pt in derived] == [-1, 1, 1, 1]
    table = check_necessary(spec, assign).value
    assert table[(0, 0, 1)] == -2
    cls = cobordism_class(derived)
    assert cls.canonical_text() == "2*a1^3 - 6*a1*a2 - 2*a3"


def test_check_necessary_reports_the_s_numbers_of_a_passing_table():
    spec = build_space("U(3)/T3")
    assert check_necessary(spec, identity_assignment(spec)).value == \
        s_numbers(fixed_point_weights(spec))


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_feasible(build_space("CP5"))
    # raising the budget is allowed in principle; a tiny budget always trips
    with pytest.raises(BudgetExceeded):
        enumerate_feasible(build_space("CP1"), budget=1)


def all_tables(base):
    """Every sign table of the space, in the order enumerate_feasible keeps."""
    n = len(base[0].weights)
    for flat in product((1, -1), repeat=n * len(base)):
        yield tuple(flat[p * n:(p + 1) * n] for p in range(len(base)))


@pytest.mark.parametrize("text", ["CP1", "CP2", "G2/SU(3)"])
def test_search_matches_symbolic_checker_exhaustively(text):
    # reference_check shares neither the certificate nor the kernel with
    # the search
    spec = build_space(text)
    expected = [SignAssignment(t, 1) for t in all_tables(fixed_point_weights(spec))
                if reference_check(spec, SignAssignment(t, 1)).ok]
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


def test_certificate_is_the_symbolic_checker_exhaustively():
    # on these spaces every table whose groups cancel is integral, so the
    # certificate alone decides each of the 2^(n*chi) tables, both epsilons
    for text in ("CP1", "CP2", "G2/SU(3)"):
        spec = build_space(text)
        for assign in _tables_to_check(text):
            fp = derived_fixed_point_data(spec, assign)
            assert _pole_free(line_sums(fp)) == reference_check(spec, assign).ok


@pytest.mark.parametrize("text", ["CP2", "G2/SU(3)", "U(3)/T3"])
def test_group_ints_cancel_exactly_when_the_certificate_holds(text):
    # balanced slots of (2 chi + 1).bit_length() bits: no carry lets a
    # table's sum read 0 while some group sum is not 0
    spec = build_space(text)
    base = fixed_point_weights(spec)
    signs = list(product((1, -1), repeat=len(base[0].weights)))
    ints, _ = _group_ints([[_signed(pt, avec) for avec in signs] for pt in base], len(base))
    rng = random.Random(text)
    tables = all_tables(base) if text != "U(3)/T3" else \
        (tuple(rng.choice(signs) for _ in base) for _ in range(2000))
    for table in tables:
        total = sum(row[signs.index(avec)] for row, avec in zip(ints, table))
        assert (total == 0) == _pole_free(line_sums(derived_fixed_point_data(spec, SignAssignment(table, 1))))


def test_group_ints_do_not_carry():
    # five points, each on group A with sign * orientation +1 or -1 or on
    # group B with -1: four A's and one B would read 4 - 4 = 0 in slots of
    # two bits
    choices = [FixedPoint(0, ((1, 0),), 1), FixedPoint(0, ((0, 1),), -1), FixedPoint(0, ((-1, 0),), 1)]
    ints, _ = _group_ints([choices] * 5, 5)
    for picks in product(range(3), repeat=5):
        total = sum(ints[p][i] for p, i in enumerate(picks))
        assert (total == 0) == _pole_free(line_sums([choices[i] for i in picks]))


def test_top_digits_are_the_chern_totals():
    # random points of three weights, whose Chern values take either sign:
    # the integrality test of the search must agree with the exact Chern
    # sums of every table
    point = (1, 0)
    rng = random.Random(28)
    seen = set()
    for _ in range(60):
        rows = [[FixedPoint(p, tuple((rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(-2, 2))
                                    for _ in range(3)), rng.choice((1, -1))) for _ in range(3)]
                for p in range(3)]
        integral = _integral(rows, point, 3)
        for picks in product(range(3), repeat=3):
            table = [rows[p][i] for p, i in enumerate(picks)]
            want = all(isinstance(v, int) for v in point_chern_numbers(table, point).values())
            assert integral(picks) == want
            seen.add(want)
    assert seen == {True, False}


def _lines(text):
    """n and {line: {key}} over every signed point of a space."""
    base = fixed_point_weights(build_space(text))
    n = len(base[0].weights)
    rows = [[_signed(pt, avec) for avec in product((1, -1), repeat=n)] for pt in base]
    return n, _group_ints(rows, len(base))[1]


@pytest.mark.parametrize("text", ["CP1", "CP2", "CP3", "CP4", "G2/SU(3)", "U(3)/T3", "U(4)/U(2)xU(2)"])
def test_residue_rows_separate_the_groups_within_the_default_budget(text):
    # so on every space that the default budget reaches, the search lists
    # exactly the tables that check_necessary admits; the rank modulo a
    # prime is the exact rank of the rows over the rationals
    n, lines = _lines(text)
    for line, keys in lines.items():
        assert residues._ResidueLine(line, keys, n, n).rank() == len(keys) == residue_rank(line, keys, n)


def test_every_assignment_key_is_read():
    # a key that is not a coset index below chi or "epsilon", or beside
    # "table" anything but "epsilon", names no point: it is refused, not
    # dropped
    spec = build_space("CP1")
    good = {"0": [1], "1": [-1]}
    assert assignment_from_json(dict(good, epsilon=-1), spec) == SignAssignment(((1,), (-1,)), -1)
    assert assignment_from_json({"table": good, "epsilon": -1}, spec) == SignAssignment(((1,), (-1,)), -1)
    assert assignment_from_json({"table": dict(good, epsilon=-1)}, spec) == SignAssignment(((1,), (-1,)), -1)
    for data, key in ((dict(good, **{"7": [1]}), "7"), (dict(good, **{"2": [1]}), "2"),
                      (dict(good, **{"01": [1]}), "01"), (dict(good, **{"-1": [1]}), "-1"),
                      (dict(good, Epsilon=1), "Epsilon"), ({"table": good, "0": [1]}, "0"),
                      ({"table": good, "tables": 1}, "tables"), ({"table": dict(good, table=good)}, "table")):
        with pytest.raises(ValueError, match='^assignment key "%s" is not read: the keys are the coset indices '
                                             '0 to 1 of CP1 and "epsilon", or "table" holding them$' % key):
            assignment_from_json(data, spec)


def test_search_refuses_where_the_residues_do_not_separate_the_groups():
    # line [1, 0, -1, 0] carries 33 groups, and its residue rows reach rank
    # 27: a table with nonzero group sums there might still be admissible
    spec = build_space(M10)
    with pytest.raises(BudgetExceeded):
        enumerate_feasible(spec, budget=(1 << 55) - 1)
    with pytest.raises(CheckFailure) as info:
        enumerate_feasible(spec, budget=1 << 55)
    assert type(info.value) is CheckFailure
    assert str(info.value) == ("residue rank 27 of 33 groups on line [1, 0, -1, 0]: "
                               "the search cannot prove that it finds every admissible table")
    n, lines = _lines(M10)
    assert residues._ResidueLine((1, 0, -1, 0), lines[1, 0, -1, 0], n, n).rank() == 27


@pytest.mark.parametrize("text", [M10, "U(4)/U(1)xU(1)xU(2)"])
def test_a_residue_rank_short_of_full_is_the_exact_rank(text):
    # 27 is the rank of the residue map over the rationals on every line,
    # not merely the rank that the rows reach modulo a prime
    n, lines = _lines(text)
    assert len(lines) == 6
    for line, keys in lines.items():
        assert len(keys) == 33
        assert residues._ResidueLine(line, keys, n, n).rank() == residue_rank(line, keys, n) == 27


def test_the_rank_reads_each_block_only_on_its_own_set(monkeypatch):
    # rows of a block at the points of points(n) past its own weight's set
    # are replaced by noise that lifts the rank of all rows to full: the
    # rank, which eliminates none of them, stays 27
    n, lines = _lines(M10)
    line = (1, 0, -1, 0)
    keys = lines[line]
    res = residues._ResidueLine(line, keys, n, n)
    sizes = [len(res.points(w)) for w in range(n + 1)]
    index = {tuple(z): i for i, z in enumerate(res.points(n))}
    read, rng = residues.residue_rows, random.Random(5)

    def noisy(keys, z, order):
        common, rows = read(keys, z, order)
        return common, {om: row if index[tuple(z)] < sizes[omega_weight(om)] else
                        [rng.randrange(1, 1 << 20) for _ in row] for om, row in rows.items()}
    monkeypatch.setattr(residues, "residue_rows", noisy)
    assert sizes[-1] > sizes[0] and res.rank() == 27
    assert exact_rank(row for z in res.points(n) for row in residues.residue_rows(keys, z, n)[1].values()) == 33


def test_search_refuses_weights_off_distinct_primitive_lines(monkeypatch):
    doubled = [FixedPoint(0, ((2, -2),), 1), FixedPoint(1, ((-2, 2),), 1)]
    monkeypatch.setattr(stablex, "fixed_point_weights", lambda spec: doubled)
    with pytest.raises(CheckFailure, match=re.escape("the weights ((2, -2),) are not primitive")):
        enumerate_feasible(build_space("CP1"))


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
        picked = sols if text == "CP3" else rng.sample(sols, 4)
        sample += [SignAssignment(sol.table, rng.choice((1, -1))) for sol in picked]
    return sample


@pytest.mark.parametrize("text", ["CP1", "CP2", "G2/SU(3)", "CP3", "U(3)/T3", "CP4", "U(4)/U(2)xU(2)", M10])
def test_check_necessary_matches_reference(text):
    # ok, the first failing omega and its value as text, or the s-numbers; a
    # pole's value is its residue here and its numerator block there
    spec = build_space(text)
    for assign in _tables_to_check(text):
        got, want = check_necessary(spec, assign), reference_check(spec, assign)
        assert (got.ok, got.omega) == (want.ok, want.omega)
        if got.ok or not got.value.startswith("residue "):
            assert got.value == want.value


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
        (SignAssignment(((1, 1), (1,), (1, 1)), 1), "point 1 needs 2 signs"),
        (SignAssignment(((1, 1), (1, 2), (1, 1)), 1), "signs must be +-1"),
    ]
    for assign, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            derived_fixed_point_data(spec, assign)
    with pytest.raises(ValueError, match="assignment missing point 2"):
        assignment_from_json({"0": [1, 1], "1": [1, 1]}, spec)
    with pytest.raises(ValueError, match=re.escape("signs must be +-1")):
        assignment_from_json({"0": [1, 1], "1": [1, 1], "2": [0, 1]}, spec)
