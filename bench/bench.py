"""Time the torigen command line end to end and write bench/BENCH_<tag>.json.

    python bench/bench.py TAG[=DIR] [TAG[=DIR] ...]

Each TAG names a tree, the checkout DIR (default: the one holding this
script); its src/ is the only PYTHONPATH of every child, and one file per
tree is written beside this script, naming the commit it holds and the tags
measured beside it. A DIR that is not a git checkout is refused before any
run. Standard library only.

Each row runs one command RUNS times on every tree, each run in a fresh
interpreter with PYTHONDONTWRITEBYTECODE=1, output discarded. The trees
take turns within a row, and which goes first rotates from one run to the
next (A, B, B, A, ...), so a drift of the machine falls on every tree
alike. A row records, per tree, the median and range of the wall time,
spawn to reap, and the median and maximum of the child's peak resident set
from os.wait4. A run that passes the row's cap is killed; that tree's row
is then recorded as a timeout, with no figures, and makes no more runs.
The floor row, python -c pass, is the least a row can read: a child's peak
starts at the peak of the process that spawned it, so this script imports
nothing heavy.
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


def _row(args, runs, cap, got):
    """A tree's row: its runs' figures, or a timeout where got is None."""
    row = {"argv": list(args), "runs": runs, "cap_s": cap}
    if got is None:
        row["timeout"] = True
        return row
    walls, peaks, codes = zip(*got)
    row.update(timeout=False, exit=sorted(set(codes)),
               wall_s={"median": round(statistics.median(walls), 3),
                       "min": round(min(walls), 3), "max": round(max(walls), 3)},
               peak_mb={"median": round(statistics.median(peaks), 1), "max": round(max(peaks), 1)})
    return row


def measure(args, srcs, runs=RUNS, cap=CAP_S):
    """One row per tree of srcs: python ARGS run `runs` times with each
    tree's src/ as PYTHONPATH, the trees in turn, run i starting at tree i
    modulo their number."""
    envs = [dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(Path(src) / "src")) for src in srcs]
    got, k = [[] for _ in srcs], len(srcs)
    for i in range(runs):
        for t in (j % k for j in range(i, i + k)):
            if got[t] is not None:
                one = run_once([sys.executable] + list(args), envs[t], cap)
                got[t] = None if one is None else got[t] + [one]
    return [_row(args, runs, cap, one) for one in got]


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


def bench(trees, rows=ROWS, runs=RUNS, cap=CAP_S):
    """{tag: the BENCH document of its tree} for trees {tag: checkout}:
    where the tree was measured, the tags measured beside it, and each
    row."""
    measured = [measure(args, list(trees.values()), runs, cap) for _, args in rows]
    docs = {}
    for t, (tag, src) in enumerate(trees.items()):
        docs[tag] = {
            "commit": _git(src, "rev-parse", "HEAD"),
            "dirty": bool(_git(src, "status", "--porcelain")),
            "python": platform.python_version(),
            "machine": {"platform": platform.platform(), "cpu": _cpu(), "cpus": os.cpu_count()},
            "beside": [other for other in trees if other != tag],
            "rows": [dict(name=name, **row[t]) for (name, _), row in zip(rows, measured)],
        }
    return docs


def main(argv):
    parser = argparse.ArgumentParser(prog="bench.py", description="Write bench/BENCH_<tag>.json per tree.")
    parser.add_argument("trees", nargs="+", metavar="TAG[=DIR]",
                        help="a tag and the checkout it measures (default: this one)")
    args = parser.parse_args(argv)
    trees = {}
    for text in args.trees:
        tag, _, src = text.partition("=")
        if not tag or tag in trees:
            parser.error("each tree needs a tag of its own, got %r" % text)
        trees[tag] = Path(src or HERE.parent).resolve()
        if _git(trees[tag], "rev-parse", "HEAD") is None:
            parser.error("tree %s, %s, is not a git checkout" % (tag, trees[tag]))
    for tag, doc in bench(trees).items():
        out = HERE / ("BENCH_%s.json" % tag)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
