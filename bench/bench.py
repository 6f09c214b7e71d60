"""Time the torigen command line end to end and write bench/BENCH_<tag>.json.

    python bench/bench.py TAG [--src DIR]

DIR is the checkout to measure (default: the one holding this script); its
src/ is the only PYTHONPATH of every child, and the file is written beside
this script. Standard library only.

Each row runs one command RUNS times, one after another, each in a fresh
interpreter with PYTHONDONTWRITEBYTECODE=1, output discarded. It records
the median and range of the wall time, spawn to reap, and the median and
maximum of the child's peak resident set from os.wait4. A run that passes
the row's cap is killed; the row is then recorded as a timeout, with no
figures, and its remaining runs are not made. The floor row, python -c
pass, is the least a row can read: a child's peak starts at the peak of
the process that spawned it, so this script imports nothing heavy.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 5
CAP_S = 120
# the verb rows: the boundary space of each limit constant and the heaviest
# jobs of every verb that the limits admit
VERBS = [
    "class --space U(7)/T7",
    "chern --space U(7)/T7",
    "class --space CP21",
    "verify --space U(6)/T6",
    "genus --space U(6)/T6",
    "verify --space CP21",
    "flag --n 6",
    "grassmann --q 3 --l 3",
    "grassmann --q 1 --l 6",
    "fgl --trunc 24",
    "stable --space U(3)/T3",
    "reproduce",
]
ROWS = [("python -c pass", ["-c", "pass"])] + [(verb, ["-m", "torigen.cli"] + verb.split()) for verb in VERBS]


def run_once(argv, env, cap):
    """(wall seconds, peak MB, exit status) of one child, or None when it
    was still running after cap seconds and was killed."""
    with open(os.devnull, "wb") as null:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, null.fileno(), 1),
                                                              (os.POSIX_SPAWN_DUP2, null.fileno(), 2)])
    killed = []

    def kill(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)
    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    if killed:
        return None
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def measure(args, src, runs=RUNS, cap=CAP_S):
    """One row: python ARGS run `runs` times with src/ as PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(Path(src) / "src"))
    row = {"argv": list(args), "runs": runs, "cap_s": cap}
    got = []
    for _ in range(runs):
        one = run_once([sys.executable] + list(args), env, cap)
        if one is None:
            row["timeout"] = True
            return row
        got.append(one)
    walls, peaks, codes = zip(*got)
    row.update(timeout=False, exit=sorted(set(codes)),
               wall_s={"median": round(statistics.median(walls), 3),
                       "min": round(min(walls), 3), "max": round(max(walls), 3)},
               peak_mb={"median": round(statistics.median(peaks), 1), "max": round(max(peaks), 1)})
    return row


def _git(src, *args):
    try:
        out = subprocess.run(["git", "-C", str(src)] + list(args), capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        return platform.processor() or None


def bench(src, rows=ROWS, runs=RUNS, cap=CAP_S):
    """The BENCH document of the tree src: where it was measured and each row."""
    status = _git(src, "status", "--porcelain")
    return {
        "commit": _git(src, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpu": _cpu(), "cpus": os.cpu_count()},
        "rows": [dict(name=name, **measure(args, src, runs, cap)) for name, args in rows],
    }


def main(argv):
    parser = argparse.ArgumentParser(prog="bench.py", description="Write bench/BENCH_<tag>.json.")
    parser.add_argument("tag")
    parser.add_argument("--src", type=Path, default=HERE.parent, help="the checkout to measure")
    args = parser.parse_args(argv)
    out = HERE / ("BENCH_%s.json" % args.tag)
    out.write_text(json.dumps(bench(args.src.resolve()), indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
