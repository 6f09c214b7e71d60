"""bench/bench.py, the end-to-end rows that CHANGES.md quotes from BENCH files."""

import importlib.util
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench", ROOT / "bench" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_a_row_records_the_wall_time_and_peak_of_each_fresh_interpreter():
    row = bench.measure(["-c", "pass"], ROOT, runs=2, cap=30)
    assert (row["argv"], row["runs"], row["timeout"], row["exit"]) == (["-c", "pass"], 2, False, [0])
    wall, peak = row["wall_s"], row["peak_mb"]
    assert 0 < wall["min"] <= wall["median"] <= wall["max"] < 30
    assert 0 < peak["median"] <= peak["max"]


def test_a_row_past_its_cap_is_a_timeout():
    start = time.perf_counter()
    row = bench.measure(["-c", "import time; time.sleep(30)"], ROOT, runs=2, cap=0.5)
    assert time.perf_counter() - start < 10
    assert row == {"argv": ["-c", "import time; time.sleep(30)"], "runs": 2, "cap_s": 0.5, "timeout": True}


def test_the_document_names_the_tree_the_machine_and_every_row():
    doc = bench.bench(ROOT, rows=[("floor", ["-c", "pass"]), ("exit 3", ["-c", "raise SystemExit(3)"])], runs=1)
    assert set(doc) == {"commit", "dirty", "python", "machine", "rows"}
    assert doc["machine"]["cpus"] >= 1
    assert [(row["name"], row["exit"]) for row in doc["rows"]] == [("floor", [0]), ("exit 3", [3])]
