"""Command-line surface: outputs, formats and exit codes."""

import argparse
import json
import random
import time
from argparse import Namespace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from torigen import character, cli, divdiff, genus, reproduce, stablex
from torigen.cli import main
from torigen.reproduce import reproduce_table
from torigen.rootdata import build_space, fixed_point_weights
from torigen.stablex import SignAssignment
from torigen.symmfunc import omegas_of_weight

from reference import assignment_to_json, degree_zero_point


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_class_text_output(capsys):
    code, out, _ = run(capsys, "class", "--space", "U(3)/T3")
    assert code == 0
    assert out.strip() == "6*a1^3 + 6*a1*a2 - 6*a3"


def test_snumbers_numeric_point(capsys):
    code, out, _ = run(capsys, "snumbers", "--space", "U(4)/U(2)xU(2)",
                       "--numeric", "1,2,3,4", "--omega", "0,0,0,1")
    assert code == 0
    assert out.strip() == "-20"


def test_snumbers_single_omega(capsys):
    code, out, _ = run(capsys, "snumbers", "--space", "U(3)/T3", "--omega", "0,0,1")
    assert code == 0
    assert out.strip() == "-6"


def test_chern_table_text(capsys):
    code, out, _ = run(capsys, "chern", "--space", "CP2")
    assert code == 0
    assert out.splitlines() == ["c2 = 3", "c1^2 = 9"]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--space", "G2/SU(3)")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("space", ["CP1", "CP3", "U(3)/T3", "G2/SU(3)"])
@pytest.mark.parametrize("structure", ["standard", "conjugate"])
def test_verify_passes_both_orientations(capsys, space, structure):
    # odd n: the conjugate structure has c_n = -chi, still sum_p sign(p)
    code, out, _ = run(capsys, "verify", "--space", space, "--structure", structure)
    assert code == 0
    assert "check euler: ok" in out.splitlines()
    assert "FAIL" not in out


def test_structure_and_signs_flags(capsys):
    code, out, _ = run(capsys, "class", "--space", "G2/SU(3)", "--structure", "conjugate")
    assert code == 0
    assert out.strip() == "-2*a1^3 + 6*a1*a2 - 6*a3"
    code, out, _ = run(capsys, "class", "--space", "CP1", "--signs", "-1")
    assert code == 0
    assert out.strip() == "-2*a1"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class"])  # missing --space
    assert exc.value.code == 2
    for argv in (["not-a-verb"], ["class", "--space", "CP1", "--cache", "memo"],
                 ["reproduce", "--all"], ["flag", "--n", "3", "--cache", "d"],
                 ["grassmann", "--q", "2", "--l", "2", "--cache", "d"],
                 ["genus", "--space", "CP2", "--trunc", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    code, _, err = run(capsys, "class", "--space", "E8/T8")
    assert code == 2
    assert "grammar" in err
    code, _, err = run(capsys, "flag", "--n", "3", "--method", "thm8")
    assert code == 2
    assert "n >= 4" in err
    code, out, err = run(capsys, "flag", "--n", "9")
    assert (code, out, err) == (2, "", "error: --n must be at most 6, got 9\n")
    code, out, err = run(capsys, "grassmann", "--q", "4", "--l", "4")
    assert (code, out, err) == (2, "", "error: --q times --l must be at most 9, got 16\n")
    code, out, err = run(capsys, "grassmann", "--q", "1", "--l", "8")
    assert (code, out, err) == (2, "", "error: --q and --l must be at most 6, got 8\n")


@pytest.mark.parametrize("options, message", [
    (("--signs", "1,2"), "need 2 signs from {+1,-1}, got 2"),
    (("--signs", "1"), "need 2 signs from {+1,-1}, got 1"),
    (("--structure", "J1"), "structure J1 is only defined for SU(4)/S(U(1)xU(1)xU(2))"),
    (("--structure", "bogus"), "unknown structure 'bogus'"),
    (("--structure", "standard", "--signs", "1,1"), "give either a structure name or explicit signs, not both"),
], ids=["bad sign", "sign count", "J1 off the quotient", "unknown name", "name and signs"])
def test_a_structure_the_space_does_not_take_is_no_grammar_error(capsys, options, message):
    # CP2 parses: the error is one line and the space grammar is not shown
    code, out, err = run(capsys, "class", "--space", "CP2", *options)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_json_output_is_stable(capsys):
    code, out1, _ = run(capsys, "genus", "--space", "CP2", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "genus", "--space", "CP2", "--format", "json")
    assert out1 == out2
    data = json.loads(out1)
    assert out1.strip() == json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert data["checks"] == {"vanishing": True, "weyl_invariance": True}


def test_flag_grassmann_fgl_verbs(capsys):
    code, out, _ = run(capsys, "flag", "--n", "3", "--method", "tchi")
    assert code == 0
    assert out.strip() == "6*a1^3 + 6*a1*a2 - 6*a3"
    code, out, _ = run(capsys, "grassmann", "--q", "2", "--l", "2")
    assert code == 0
    assert out.strip() == "6*a1^4 + 24*a1^2*a2 + 4*a1*a3 + 14*a2^2 - 20*a4"
    code, out, _ = run(capsys, "fgl", "--trunc", "2")
    assert code == 0
    assert "-2*b1" in out


@pytest.mark.parametrize("argv", [("flag", "--n", "3", "--cache", "d"),
                                  ("grassmann", "--q", "2", "--l", "2", "--cache", "d"),
                                  ("genus", "--space", "CP2", "--trunc", "2")],
                         ids=" ".join)
def test_retired_options_are_refused_before_the_work(tmp_path, capsys, monkeypatch, argv):
    # flag and grassmann keep no store and genus takes no truncation order:
    # the verb's parser refuses the options, nothing is computed and no
    # directory made
    def never(*args, **kwargs):
        raise AssertionError("computed despite a usage error")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(divdiff, "flag_class", never)
    monkeypatch.setattr(divdiff, "grassmann_class", never)
    monkeypatch.setattr(character, "genus_report", never)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: torigen %s [-h]" % argv[0])
    assert err.endswith("\ntorigen %s: error: unrecognized arguments: %s\n" % (argv[0], " ".join(argv[-2:])))
    assert list(tmp_path.iterdir()) == []


def test_os_errors_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "stable", "--space", "CP1",
                         "--assign", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("class",), ("snumbers",), ("chern",),
                                  ("snumbers", "--numeric", "1,2,4", "--omega", "0,1")],
                         ids=" ".join)
def test_rejected_signs_fail_alike_on_every_verb(capsys, argv):
    # the localization sum of these weights has poles: no verb prints numbers,
    # not even the value of the sum at one point; the error names the first
    # block with a pole, its line, a point on it and the residue there
    code, out, err = run(capsys, argv[0], "--space", "CP2", "--signs=1,-1", *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "error: block omega=[1, 0] has a pole: residue 2 at (6, 3, 6) on x1 - x3 = 0\n"


@pytest.mark.parametrize("argv", [("class",), ("snumbers",), ("snumbers", "--omega", "0,1"),
                                  ("snumbers", "--numeric", "1,2,4", "--omega", "0,1"),
                                  ("chern",)], ids=" ".join)
def test_non_integral_point_values_fail_alike(capsys, monkeypatch, argv):
    # one integrality check guards every number read off the certified point
    monkeypatch.setattr(genus, "point_chern_numbers",
                        lambda fp, point: {(0, 1): Fraction(3, 2), (2,): 9})
    code, out, err = run(capsys, argv[0], "--space", "CP2", *argv[1:])
    assert code == 1
    assert out == ""
    # s = beta c: s_(2) = c2 = 3/2 and s_(0,1) = c1^2 - 2*c2 = 6
    assert err == "error: 3/2*a1^2 + 6*a2\n"


@pytest.mark.parametrize("content", ["[1, 2]", "3", "null", '{"table": [1]}'])
def test_stable_assign_non_object_exits_two(tmp_path, capsys, content):
    path = tmp_path / "assign.json"
    path.write_text(content)
    code, out, err = run(capsys, "stable", "--space", "CP1", "--assign", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("content, key", [
    ('{"0": [1, 1], "0": [1, -1], "1": [1, 1], "2": [1, 1]}', '"0"'),
    ('{"table": {"0": [1, 1], "1": [1, 1], "2": [1, 1], "1": [1, -1]}}', '"1"'),
    ('{"0": [1, 1], "1": [1, 1], "2": [1, 1], "epsilon": 1, "epsilon": -1}', '"epsilon"'),
])
def test_stable_assign_key_given_twice_exits_two(tmp_path, capsys, content, key):
    # json.load keeps the last of two values for one key: the file is
    # ambiguous, and is refused rather than read one way
    path = tmp_path / "assign.json"
    path.write_text(content)
    assert run(capsys, "stable", "--space", "CP2", "--assign", str(path)) == (
        2, "", "error: assignment key %s is given twice\n" % key)


def test_stable_assign_epsilon_inside_and_beside_table_exits_two(tmp_path, capsys):
    # either level alone is read; both would leave one of them unread
    path = tmp_path / "assign.json"
    path.write_text('{"table": {"0": [1, 1], "1": [1, 1], "2": [1, 1], "epsilon": 1}, "epsilon": -1}')
    assert run(capsys, "stable", "--space", "CP2", "--assign", str(path)) == (
        2, "", 'error: assignment key "epsilon" is given both inside "table" and beside it\n')


def test_stable_assign_that_is_not_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "assign.txt"
    path.write_text("not json")
    code, out, err = run(capsys, "stable", "--space", "CP1", "--assign", str(path))
    assert (code, out) == (2, "")
    assert err == "error: --assign %s is not JSON: Expecting value: line 1 column 1 (char 0)\n" % path


@pytest.mark.parametrize("table, message", [
    ({"0": [1.0], "1": [1]}, "signs must be +-1"),
    ({"0": [1], "1": [1], "epsilon": 1.0}, "epsilon must be +-1"),
    ({"0": [True], "1": [1]}, "signs must be +-1"),
])
def test_stable_assign_non_integer_signs_exit_two(tmp_path, capsys, table, message):
    # a float 1.0 once reached cobordism.clean and ended in a traceback, and
    # JSON true was taken as +1
    path = tmp_path / "assign.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "stable", "--space", "CP1", "--assign", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_verify_and_genus_are_bounded_by_the_character_cost(capsys, monkeypatch):
    # U(7)/T7 (chi = 5040, n = 21) is refused once its fixed points are
    # listed; U(6)/T6 and CP21, which verify answers in 6-8 s, stay inside
    for verb in ("verify", "genus"):
        start = time.perf_counter()
        code, out, err = run(capsys, verb, "--space", "U(7)/T7")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == ("error: the cost k*chi*n*N(n+1) of the character of U(7)/T7 must be at most "
                       "100000000, got 3339887040\n")
    for text in ("U(6)/T6", "CP21"):
        spec = build_space(text)
        character.check_cost(spec, fixed_point_weights(spec))
    # CP3: k = 4, chi = 4, n = 3 and N(4) = 12 omegas of weight at most 4
    spec = build_space("CP3")
    fp = fixed_point_weights(spec)
    monkeypatch.setattr(character, "CHARACTER_COST_LIMIT", 4 * 4 * 3 * 12)
    character.check_cost(spec, fp)
    monkeypatch.setattr(character, "CHARACTER_COST_LIMIT", 4 * 4 * 3 * 12 - 1)
    with pytest.raises(ValueError, match="got 576$"):
        character.check_cost(spec, fp)


def test_stable_verbs(tmp_path, capsys):
    code, out, _ = run(capsys, "stable", "--space", "CP1")
    assert code == 0
    assert out.splitlines()[0] == "admissible: 4"

    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"0": [1, 1, 1], "1": [1, 1, -1], "2": [1, 1, -1], "3": [1, 1, -1],
         "epsilon": -1}))
    code, out, _ = run(capsys, "stable", "--space", "CP3", "--assign", str(good))
    assert code == 0
    assert out.splitlines()[0] == "PASS"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"0": [-1, 1, 1], "1": [1, 1, 1], "2": [1, 1, 1], "3": [1, 1, 1],
         "epsilon": 1}))
    code, out, _ = run(capsys, "stable", "--space", "CP3", "--assign", str(bad))
    assert code == 1
    assert out.startswith("FAIL at omega=[1]")


def test_stable_budget_exit(capsys):
    code, _, err = run(capsys, "stable", "--space", "CP5")
    assert code == 1
    assert "budget" in err


def test_stable_refuses_where_the_residues_do_not_separate_the_groups(capsys):
    # past the budget check, the rank check refuses the SU(4) quotient
    argv = ("stable", "--space", "SU(4)/S(U(1)xU(1)xU(2))", "--budget")
    code, out, err = run(capsys, *argv, str((1 << 55) - 1))
    assert (code, out, err) == (1, "", "error: 2^55 additions and lookups exceed budget %d\n" % ((1 << 55) - 1))
    code, out, err = run(capsys, *argv, str(1 << 55))
    assert (code, out) == (1, "")
    assert err == ("error: residue rank 27 of 33 groups on line [1, 0, -1, 0]: "
                   "the search cannot prove that it finds every admissible table\n")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_stable_budget_below_one_is_usage_error(capsys, budget):
    code, out, err = run(capsys, "stable", "--space", "CP1", "--budget", budget)
    assert code == 2
    assert out == ""
    assert err == "error: budget must be at least 1, got %s\n" % budget


def test_snumbers_rejects_bad_omega(capsys):
    for omega in ("9,9", "4,-1"):
        code, out, err = run(capsys, "snumbers", "--space", "CP2", "--omega", omega)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("error:") == 1
    code, out, err = run(capsys, "snumbers", "--space", "CP2", "--numeric", "1,2,3")
    assert code == 2
    assert err == "error: --numeric needs --omega\n"
    for point in ("1,2", "1,2,3,4"):
        code, out, err = run(capsys, "snumbers", "--space", "CP2", "--numeric", point, "--omega", "0,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: point ") and err.count("\n") == 1
    code, out, _ = run(capsys, "snumbers", "--space", "CP2", "--omega", "0,1,0")
    assert code == 0
    assert out.strip() == "3"


NOT_INTEGERS = [
    (("class", "--space", "CP2", "--signs="), "error: --signs takes integers, got ''\n"),
    (("verify", "--space", "CP2", "--signs", " , "), "error: --signs takes integers, got ' , '\n"),
    (("class", "--space", "CP1", "--signs=-1,z"), "error: --signs takes integers, got 'z'\n"),
    (("snumbers", "--space", "CP2", "--omega", ""), "error: --omega takes integers, got ''\n"),
    (("snumbers", "--space", "CP2", "--omega", "x"), "error: --omega takes integers, got 'x'\n"),
    (("snumbers", "--space", "CP2", "--omega", "0,1.0"), "error: --omega takes integers, got '1.0'\n"),
    (("snumbers", "--space", "CP2", "--omega", "0,1", "--numeric", ""),
     "error: --numeric takes integers, got ''\n"),
    (("snumbers", "--space", "CP2", "--omega", "0,1", "--numeric", "1,two,3"),
     "error: --numeric takes integers, got 'two'\n"),
    # an empty item between, after or before the commas is refused, not
    # dropped: each of these read once as a valid shorter list
    (("snumbers", "--space", "CP3", "--omega", "1,,1"), "error: --omega takes integers, got '1,,1'\n"),
    (("snumbers", "--space", "CP3", "--omega", "1,1,"), "error: --omega takes integers, got '1,1,'\n"),
    (("snumbers", "--space", "CP3", "--omega", ",1,1"), "error: --omega takes integers, got ',1,1'\n"),
    (("class", "--space", "CP2", "--signs=1,,-1"), "error: --signs takes integers, got '1,,-1'\n"),
    (("snumbers", "--space", "CP2", "--omega", "0,1", "--numeric", "1,2,4,"),
     "error: --numeric takes integers, got '1,2,4,'\n"),
]


@pytest.mark.parametrize("argv, err", NOT_INTEGERS, ids=[" ".join(argv) for argv, _ in NOT_INTEGERS])
def test_option_values_that_are_not_integers_exit_two(capsys, argv, err):
    # an empty value is refused too, not read as the option left out
    assert run(capsys, *argv) == (2, "", err)


def test_empty_assign_is_not_the_enumeration(capsys):
    code, out, err = run(capsys, "stable", "--space", "CP1", "--assign", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fgl_rejects_nonpositive_order(capsys):
    for trunc in ("0", "-2"):
        code, out, err = run(capsys, "fgl", "--trunc", trunc)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("error:") == 1
    code, out, _ = run(capsys, "fgl", "--trunc", "1")
    assert code == 0
    assert out.strip() == "(1)*u2 + (1)*u1"


def test_fgl_rejects_order_above_limit(capsys):
    code, out, err = run(capsys, "fgl", "--trunc", "1000000000")
    assert code == 2
    assert out == ""
    assert err == "error: --trunc must be at most 24, got 1000000000\n"


def _raise_c1_squared(monkeypatch, at_point):
    """Make point_chern_numbers return c1^2 + 1 on CP2 at one of its two
    points, default_numeric_point or the character's degree-0 read at
    degree_zero_point, and change no other weight than n = 2."""
    real = genus.point_chern_numbers

    def fake(fp, point, weight=None):
        table = dict(real(fp, point, weight))
        if tuple(point) == at_point(fp) and weight in (None, 2):
            table[(2,)] += 1
        return table
    monkeypatch.setattr(genus, "point_chern_numbers", fake)


def test_verify_class_mismatch_names_omega(capsys, monkeypatch):
    # the certified table now disagrees with the symbolic class and with the
    # character's degree-0 blocks: s_(0,1) = c1^2 - 2*c2 reads 4 instead of 3
    _raise_c1_squared(monkeypatch, genus.default_numeric_point)
    code, out, _ = run(capsys, "verify", "--space", "CP2")
    assert code == 1
    assert "check class_matches_s: FAIL at omega=[0, 1], symbolic=3, point=4" in out.splitlines()
    assert "check numeric_agreement: FAIL at xi=[2, 0], default_point=10, second_point=9" in out.splitlines()
    code, out, _ = run(capsys, "verify", "--space", "CP2", "--format", "json")
    assert code == 1
    assert json.loads(out)["evidence"] == {
        "class_matches_s": {"omega": [0, 1], "symbolic": "3", "point": "4"},
        "numeric_agreement": {"xi": [2, 0], "default_point": "10", "second_point": "9"}}


def test_verify_euler_mismatch_names_both_values(capsys, monkeypatch):
    # c2 reads 4 at every point, so the two points still agree, but the
    # table's c_n no longer matches sum_p sign(p) = 3; no other weight than
    # n = 2 changes
    real = genus.point_chern_numbers

    def fake(fp, point, weight=None):
        table = dict(real(fp, point, weight))
        if weight in (None, 2):
            table[(0, 1)] += 1
        return table
    monkeypatch.setattr(genus, "point_chern_numbers", fake)
    code, out, _ = run(capsys, "verify", "--space", "CP2")
    assert code == 1
    assert "check euler: FAIL at c_n=4, sum_signs=3" in out.splitlines()
    code, out, _ = run(capsys, "verify", "--space", "CP2", "--format", "json")
    assert code == 1
    assert json.loads(out)["evidence"]["euler"] == {"c_n": "4", "sum_signs": "3"}


def test_verify_numeric_mismatch_names_xi(capsys, monkeypatch):
    # the character's block c1^2 of degree 0 reads 10 instead of 9
    _raise_c1_squared(monkeypatch, degree_zero_point)
    code, out, _ = run(capsys, "verify", "--space", "CP2")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "check numeric_agreement: FAIL at xi=[2, 0], default_point=9, second_point=10"]
    code, out, _ = run(capsys, "verify", "--space", "CP2", "--format", "json")
    assert code == 1
    assert json.loads(out)["evidence"] == {
        "numeric_agreement": {"xi": [2, 0], "default_point": "9", "second_point": "10"}}


def test_verify_non_integral_a_series_class_is_a_failed_check(capsys, monkeypatch):
    # the a-series values of weight n = 2 at the first fixed point read one
    # more each, so the a-series class is no longer integral: verify prints
    # every check line, class_integral and class_matches_s failing, and no
    # error
    real = character.series_values

    def fake(cs, order):
        values = real(cs, order)
        if not seen:
            values[-top:] = [v + 1 for v in values[-top:]]
        seen.append(cs)
        return values
    monkeypatch.setattr(character, "series_values", fake)
    top, seen = len(omegas_of_weight(2)), []
    code, out, err = run(capsys, "verify", "--space", "CP2")
    assert code == 1 and "error:" not in out + err
    assert out.splitlines() == ["check class_integral: FAIL at omega=[0, 1], symbolic=61/20",
                                "check class_matches_s: FAIL at omega=[0, 1], symbolic=61/20, point=3",
                                "check euler: ok", "check low_vanishing: ok",
                                "check numeric_agreement: ok", "check weyl_invariance: ok"]
    del seen[:]
    code, out, _ = run(capsys, "verify", "--space", "CP2", "--format", "json")
    assert code == 1
    assert json.loads(out)["evidence"] == {
        "class_integral": {"omega": [0, 1], "symbolic": "61/20"},
        "class_matches_s": {"omega": [0, 1], "symbolic": "61/20", "point": "3"}}


def test_zero_dimensional_spaces_rejected(capsys):
    for space in ("U(2)/U(2)", "U(1)/T1", "U(3)/U(0)xU(3)"):
        code, out, err = run(capsys, "class", "--space", space)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("error:") == 1


def test_reproduce_verb_counts_failed_and_crashed_rows(capsys, monkeypatch):
    def crash():
        raise ZeroDivisionError("no value")
    rows = [("holds", lambda: (True, "1")), ("differs", lambda: (False, "2")), ("crashes", crash)]
    monkeypatch.setattr(reproduce, "_reproduce_rows", lambda: rows)
    code, out, _ = run(capsys, "reproduce")
    assert code == 1
    assert out.splitlines() == ["%-28s PASS  1" % "holds", "%-28s FAIL  2" % "differs",
                                "%-28s FAIL  ZeroDivisionError: no value" % "crashes",
                                "1/3 rows pass"]
    code, out, _ = run(capsys, "reproduce", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "rows": [
        {"name": "holds", "ok": True, "value": "1"},
        {"name": "differs", "ok": False, "value": "2"},
        {"name": "crashes", "ok": False, "value": "ZeroDivisionError: no value"}]}
    monkeypatch.setattr(reproduce, "_reproduce_rows", lambda: rows[:1])
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert out.splitlines()[-1] == "1/1 rows pass"


def test_reproduce_rows_compare_exactly():
    # the comparator: pass only on an exact match, show str of the value
    assert reproduce._row(lambda: Fraction(4, 2), 2)() == (True, "2")
    assert reproduce._row(lambda: Fraction(5, 2), 2)() == (False, "5/2")
    assert reproduce._class("CP1", "2*a1")() == (True, "2*a1")
    assert reproduce._class("CP1", "2*a1", "conjugate")() == (False, "-2*a1")
    # a table compares and shows its sorted items, so a missing key fails
    assert reproduce._table(lambda: {(2,): 1, (1,): 3}, {(1,): 3, (2,): 1})() == (True, "[((1,), 3), ((2,), 1)]")
    assert reproduce._table(lambda: {(1,): 3}, {(1,): 3, (2,): 0})() == (False, "[((1,), 3)]")


def test_reproduce_rows_compute_nothing_until_run(monkeypatch):
    # every engine call raises: building the row list must still succeed, and
    # each row must then fail on its own
    class Offline:
        def __getattr__(self, name):
            def call(*args, **kwargs):
                raise RuntimeError("%s called" % name)
            return call
    for module in ("character", "divdiff", "genus", "rootdata", "stablex"):
        monkeypatch.setattr(reproduce, module, Offline())
    assert len(reproduce._reproduce_rows()) == 27
    ok, rows = reproduce_table()
    assert not ok and len(rows) == 27
    assert all(not row_ok and shown.startswith("RuntimeError: ") for _, row_ok, shown in rows)


def test_reproduce_table_passes():
    ok, rows = reproduce_table()
    assert [name for name, row_ok, _ in rows if not row_ok] == []
    assert ok and len(rows) == 27
    assert ("S6-sigma-coefficients", True, "4 blocks") in rows


@pytest.mark.parametrize("count", [0, 5])
def test_streamed_tables_match_json_dumps(count):
    # 12 points, so the keys "10" and "11" sort before "2"; with no table the
    # text is "admissible: 0" and the JSON has "assignments":[]
    rng = random.Random(12)
    sols = [SignAssignment(tuple(tuple(rng.choice((1, -1)) for _ in range(3)) for _ in range(12)),
                           rng.choice((1, -1))) for _ in range(count)]
    spec = SimpleNamespace(n=3, descriptor="X(12)")
    lines = ["admissible: %d" % count] + [json.dumps(assignment_to_json(s), sort_keys=True) for s in sols]
    assert stablex._tables_text(Namespace(format="text"), spec, sols) == "\n".join(lines)
    data = {"space": "X(12)", "count": count, "assignments": [assignment_to_json(s) for s in sols]}
    assert stablex._tables_text(Namespace(format="json"), spec, sols) == json.dumps(
        data, sort_keys=True, separators=(",", ":"))


# torigen --help, VERB --help for every verb, and six usage errors (no verb,
# an unknown verb, a missing --space, an unknown option on two verbs and one
# before the verb), byte for byte at 80 columns: a verb that comes first has
# a parser of its own, and the top level reports an option before the verb;
# its usage line is its own, the same on every Python from 3.10
USAGE = [
    (('--help',), 0,
     """\
usage: torigen [-h] verb ...

Exact toric genus, cobordism classes and characteristic numbers of homogeneous
spaces.

positional arguments:
  {class,genus,snumbers,chern,verify,flag,grassmann,stable,fgl,reproduce}
    class               cobordism class
    genus               full genus report
    snumbers            s_omega characteristic numbers
    chern               classical Chern numbers
    verify              run consistency checks for a space
    flag                [U(n)/T^n] by Schubert calculus
    grassmann           [G_{q+l,l}] by the operator L
    stable              equivariant stable complex structures
    fgl                 formal group law of geometric cobordisms
    reproduce           recompute the published value table

options:
  -h, --help            show this help message and exit

Space grammar: "CPn", "U(n)/Tn", "U(n)/U(k1)x...xU(km)", "G2/SU(3)",
"SU(4)/S(U(1)xU(1)xU(2))".
""",
     ""),
    (('class', '--help'), 0,
     """\
usage: torigen class [-h] --space SPACE [--structure STRUCTURE]
                     [--signs SIGNS] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --space SPACE         space descriptor
  --structure STRUCTURE
                        structure preset (standard, conjugate, J1..J3)
  --signs SIGNS         explicit root signs, e.g. 1,-1,1
  --format {text,json}
""",
     ""),
    (('genus', '--help'), 0,
     """\
usage: torigen genus [-h] --space SPACE [--structure STRUCTURE]
                     [--signs SIGNS] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --space SPACE         space descriptor
  --structure STRUCTURE
                        structure preset (standard, conjugate, J1..J3)
  --signs SIGNS         explicit root signs, e.g. 1,-1,1
  --format {text,json}
""",
     ""),
    (('snumbers', '--help'), 0,
     """\
usage: torigen snumbers [-h] --space SPACE [--structure STRUCTURE]
                        [--signs SIGNS] [--format {text,json}] [--omega OMEGA]
                        [--numeric NUMERIC]

options:
  -h, --help            show this help message and exit
  --space SPACE         space descriptor
  --structure STRUCTURE
                        structure preset (standard, conjugate, J1..J3)
  --signs SIGNS         explicit root signs, e.g. 1,-1,1
  --format {text,json}
  --omega OMEGA         single omega, e.g. 0,0,0,1
  --numeric NUMERIC     evaluate at an integer point, e.g. 1,2,3,4
""",
     ""),
    (('chern', '--help'), 0,
     """\
usage: torigen chern [-h] --space SPACE [--structure STRUCTURE]
                     [--signs SIGNS] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --space SPACE         space descriptor
  --structure STRUCTURE
                        structure preset (standard, conjugate, J1..J3)
  --signs SIGNS         explicit root signs, e.g. 1,-1,1
  --format {text,json}
""",
     ""),
    (('verify', '--help'), 0,
     """\
usage: torigen verify [-h] --space SPACE [--structure STRUCTURE]
                      [--signs SIGNS] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --space SPACE         space descriptor
  --structure STRUCTURE
                        structure preset (standard, conjugate, J1..J3)
  --signs SIGNS         explicit root signs, e.g. 1,-1,1
  --format {text,json}
""",
     ""),
    (('flag', '--help'), 0,
     """\
usage: torigen flag [-h] [--format {text,json}] --n N
                    [--method {corL,tchi,thm8}]

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --n N
  --method {corL,tchi,thm8}
""",
     ""),
    (('grassmann', '--help'), 0,
     """\
usage: torigen grassmann [-h] [--format {text,json}] --q Q --l L

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --q Q
  --l L
""",
     ""),
    (('stable', '--help'), 0,
     """\
usage: torigen stable [-h] --space SPACE [--structure STRUCTURE]
                      [--signs SIGNS] [--format {text,json}] [--assign ASSIGN]
                      [--budget BUDGET]

options:
  -h, --help            show this help message and exit
  --space SPACE         space descriptor
  --structure STRUCTURE
                        structure preset (standard, conjugate, J1..J3)
  --signs SIGNS         explicit root signs, e.g. 1,-1,1
  --format {text,json}
  --assign ASSIGN       JSON file {coset_index: [signs], epsilon}
  --budget BUDGET
""",
     ""),
    (('fgl', '--help'), 0,
     """\
usage: torigen fgl [-h] [--format {text,json}] [--trunc TRUNC]

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --trunc TRUNC
""",
     ""),
    (('reproduce', '--help'), 0,
     """\
usage: torigen reproduce [-h] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --format {text,json}
""",
     ""),
    ((), 2,
     "",
     """\
usage: torigen [-h] verb ...
torigen: error: the following arguments are required: verb
"""),
    (('nope',), 2,
     "",
     """\
usage: torigen [-h] verb ...
torigen: error: argument verb: invalid choice: 'nope' (choose from 'class', 'genus', 'snumbers', 'chern', 'verify', 'flag', 'grassmann', 'stable', 'fgl', 'reproduce')
"""),
    (('class',), 2,
     "",
     """\
usage: torigen class [-h] --space SPACE [--structure STRUCTURE]
                     [--signs SIGNS] [--format {text,json}]
torigen class: error: the following arguments are required: --space
"""),
    (('class', '--space', 'CP1', '--bogus'), 2,
     "",
     """\
usage: torigen class [-h] --space SPACE [--structure STRUCTURE]
                     [--signs SIGNS] [--format {text,json}]
torigen class: error: unrecognized arguments: --bogus
"""),
    (('stable', '--space', 'CP1', '--bogus'), 2,
     "",
     """\
usage: torigen stable [-h] --space SPACE [--structure STRUCTURE]
                      [--signs SIGNS] [--format {text,json}] [--assign ASSIGN]
                      [--budget BUDGET]
torigen stable: error: unrecognized arguments: --bogus
"""),
    (('--bogus', 'class', '--space', 'CP1'), 2,
     "",
     """\
usage: torigen [-h] verb ...
torigen: error: unrecognized arguments: --bogus
"""),
]


@pytest.mark.parametrize("argv, code, out, err", USAGE, ids=[" ".join(case[0]) or "no-verb" for case in USAGE])
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_help_before_the_verb_lists_every_verb(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["--help", "class"])
    assert capsys.readouterr().out == USAGE[0][2]


def test_a_named_verb_builds_one_parser(monkeypatch):
    # that verb's alone; with no verb, or an unknown one, the top level and
    # all ten verbs are built so that the error can list them
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    args = cli._parse(["chern", "--space", "CP2"])
    assert (args.verb, args.space, built) == ("chern", "CP2", ["torigen chern"])
    built.clear()
    with pytest.raises(SystemExit):
        cli._parse(["nope"])
    assert len(built) == 11
