"""bench/bench.py, the end-to-end rows that CHANGES.md quotes from BENCH files."""

import importlib.util
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench", ROOT / "bench" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_a_row_records_the_wall_time_and_peak_of_each_fresh_interpreter():
    [row] = bench.measure(["-c", "pass"], [ROOT], runs=2, cap=30)
    assert (row["argv"], row["runs"], row["timeout"], row["exit"]) == (["-c", "pass"], 2, False, [0])
    wall, peak = row["wall_s"], row["peak_mb"]
    assert 0 < wall["min"] <= wall["median"] <= wall["max"] < 30
    assert 0 < peak["median"] <= peak["max"]


def test_a_row_past_its_cap_is_a_timeout():
    start = time.perf_counter()
    [row] = bench.measure(["-c", "import time; time.sleep(30)"], [ROOT], runs=2, cap=0.5)
    assert time.perf_counter() - start < 10
    assert row == {"argv": ["-c", "import time; time.sleep(30)"], "runs": 2, "cap_s": 0.5, "timeout": True}


def test_the_document_names_the_tree_the_machine_and_every_row():
    docs = bench.bench({"here": ROOT}, rows=[("floor", ["-c", "pass"]), ("exit 3", ["-c", "raise SystemExit(3)"])],
                       runs=1)
    doc = docs["here"]
    assert set(doc) == {"commit", "dirty", "python", "machine", "beside", "rows"}
    assert doc["machine"]["cpus"] >= 1 and doc["beside"] == []
    assert [(row["name"], row["exit"]) for row in doc["rows"]] == [("floor", [0]), ("exit 3", [3])]


def _launches(monkeypatch, timeout_at=None):
    """The trees, "a" or "b", in the order run_once launches them, with
    launch number timeout_at passing its cap. Both trees are this checkout,
    told apart by how their path is written."""
    launched = []

    def run_once(argv, env, cap):
        launched.append("a" if env["PYTHONPATH"] == str(ROOT / "src") else "b")
        return None if len(launched) == timeout_at else (0.1, 10.0, 0)
    monkeypatch.setattr(bench, "run_once", run_once)
    return launched


def test_the_trees_take_turns_and_rotate_who_goes_first(monkeypatch):
    launched = _launches(monkeypatch)
    docs = bench.bench({"a": ROOT, "b": ROOT / "bench" / ".."}, rows=[("floor", ["-c", "pass"])], runs=2)
    assert launched == ["a", "b", "b", "a"]
    assert (docs["a"]["beside"], docs["b"]["beside"]) == (["b"], ["a"])
    assert docs["a"]["rows"][0]["wall_s"] == docs["b"]["rows"][0]["wall_s"] == {"median": 0.1, "min": 0.1, "max": 0.1}


def test_a_timeout_marks_only_its_own_tree(monkeypatch):
    # b's first run passes its cap: b makes no more runs, a makes all of its
    launched = _launches(monkeypatch, timeout_at=2)
    a, b = bench.measure(["-c", "pass"], [ROOT, ROOT / "bench" / ".."], runs=2)
    assert launched == ["a", "b", "a"]
    assert b == {"argv": ["-c", "pass"], "runs": 2, "cap_s": bench.CAP_S, "timeout": True}
    assert a["timeout"] is False and a["exit"] == [0]


def test_a_tree_that_is_not_a_git_checkout_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    # with no commit to name, the file would say nothing of what it measured
    monkeypatch.setattr(bench, "HERE", tmp_path)
    monkeypatch.setattr(bench, "run_once", lambda argv, env, cap: pytest.fail("a run was made"))
    with pytest.raises(SystemExit) as exit_:
        bench.main(["here=%s" % ROOT, "t=%s" % tmp_path])
    assert exit_.value.code == 2
    assert "tree t, %s, is not a git checkout" % tmp_path in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
