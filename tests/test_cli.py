"""Command-line surface: outputs, formats and exit codes."""

import json
from fractions import Fraction

import pytest

from torigen import cli, genus
from torigen.cli import main, reproduce_table


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
                 ["reproduce", "--all"]):
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
    assert "-2*a1" in out


def test_cache_directory(tmp_path, capsys):
    cache = str(tmp_path / "memo")
    code, out1, _ = run(capsys, "flag", "--n", "3", "--cache", cache)
    assert code == 0
    assert (tmp_path / "memo" / "flag_3_corL.json").exists()
    code, out2, _ = run(capsys, "flag", "--n", "3", "--cache", cache)
    assert out2 == out1


def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys):
    memo = tmp_path / "memo"
    memo.mkdir()
    entry = memo / "flag_3_corL.json"
    for planted in ('{"exponents": [3', '[{"exponents": [3], "coefficient": "7"}]',
                    '{"version": 0, "terms": []}'):
        entry.write_text(planted)
        code, out, err = run(capsys, "flag", "--n", "3", "--cache", str(memo))
        assert code == 0 and err == ""
        assert out.strip() == "6*a1^3 + 6*a1*a2 - 6*a3"
        assert json.loads(entry.read_text())["version"] == 1
    assert sorted(p.name for p in memo.iterdir()) == ["flag_3_corL.json"]


def test_os_errors_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "stable", "--space", "CP1",
                         "--assign", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    plain = tmp_path / "plain"
    plain.write_text("not a directory")
    code, out, err = run(capsys, "flag", "--n", "3", "--cache", str(plain))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("class",), ("snumbers",), ("chern",),
                                  ("snumbers", "--numeric", "1,2,4", "--omega", "0,1")],
                         ids=" ".join)
def test_rejected_signs_fail_alike_on_every_verb(capsys, argv):
    # the localization sum of these weights has poles: no verb prints numbers,
    # not even the value of the sum at one point
    code, out, err = run(capsys, argv[0], "--space", "CP2", "--signs=1,-1", *argv[1:])
    assert code == 1
    assert out == ""
    assert err == ("error: degree-2 numerator block does not cancel: "
                   "(2*a1)*x2*x3 + (-2*a1)*x2^2 + (-2*a1)*x1*x3 + (2*a1)*x1*x2\n")


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
    code, _, err = run(capsys, "stable", "--space", "U(4)/U(2)xU(2)")
    assert code == 1
    assert "budget" in err


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


def test_genus_rejects_order_above_n_plus_one(capsys):
    code, out, err = run(capsys, "genus", "--space", "CP2", "--trunc", "100000000")
    assert code == 2
    assert out == ""
    assert err == "error: --trunc must be 2 or 3 on CP2, got 100000000\n"
    code, out, _ = run(capsys, "genus", "--space", "CP2", "--trunc", "4")
    assert code == 2
    assert out == ""
    for trunc in ("2", "3"):
        code, out, _ = run(capsys, "genus", "--space", "CP2", "--trunc", trunc)
        assert code == 0
        assert "check weyl_invariance: ok" in out


def test_genus_trunc_bounds_follow_the_dimension(capsys):
    # U(3)/T3 has n = 3: --trunc 3 and 4 run, 4 is the default, 5 is refused
    code, default, _ = run(capsys, "genus", "--space", "U(3)/T3", "--format", "json")
    assert code == 0
    for trunc in ("3", "4"):
        code, out, _ = run(capsys, "genus", "--space", "U(3)/T3", "--trunc", trunc, "--format", "json")
        assert code == 0
        assert out == default
    code, out, err = run(capsys, "genus", "--space", "U(3)/T3", "--trunc", "5")
    assert code == 2
    assert out == ""
    assert err == "error: --trunc must be 3 or 4 on U(3)/T3, got 5\n"


def _raise_c1_squared(monkeypatch, at_point):
    """Make point_chern_numbers return c1^2 + 1 on CP2 at one of its two points."""
    real = genus.point_chern_numbers

    def fake(fp, point):
        table = dict(real(fp, point))
        if point == at_point(fp):
            table[(2,)] += 1
        return table
    monkeypatch.setattr(genus, "point_chern_numbers", fake)


def test_verify_class_mismatch_names_omega(capsys, monkeypatch):
    # the certified table now disagrees with the symbolic class and with the
    # second point: s_(0,1) = c1^2 - 2*c2 reads 4 instead of 3
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


def test_verify_numeric_mismatch_names_xi(capsys, monkeypatch):
    _raise_c1_squared(monkeypatch, genus.second_numeric_point)
    code, out, _ = run(capsys, "verify", "--space", "CP2")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "check numeric_agreement: FAIL at xi=[2, 0], default_point=9, second_point=10"]
    code, out, _ = run(capsys, "verify", "--space", "CP2", "--format", "json")
    assert code == 1
    assert json.loads(out)["evidence"] == {
        "numeric_agreement": {"xi": [2, 0], "default_point": "9", "second_point": "10"}}


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
    monkeypatch.setattr(cli, "_reproduce_rows", lambda: rows)
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
    monkeypatch.setattr(cli, "_reproduce_rows", lambda: rows[:1])
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert out.splitlines()[-1] == "1/1 rows pass"


def test_reproduce_table_passes():
    ok, rows = reproduce_table()
    assert [name for name, row_ok, _ in rows if not row_ok] == []
    assert ok and len(rows) == 27
