"""Benchmark for torigen: four workloads of exact questions, each job in its own interpreter.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; `--workload all` runs the four workloads one
after another and names each metric <workload>.<metric>. A workload is a
fixed list of jobs built from the seed; a round runs every job once, one
after another (a closed loop with one client), each as a fresh
`python3 perfbench/job.py` with a time cap.
Rounds repeat until S seconds have passed, at least one. Every answer is
checked against oracle.py, which computes it apart from torigen.

End-to-end metrics, with --trace 0, are medians over rounds of per-round
totals: wall_s sums each job's time from launch to exit, setup_s sums each
job's time from launch until torigen is imported and the job is ready, and
peak_rss_mb is the largest peak resident set of any job. With --trace 1 the
rounds alternate untraced and traced; the traced ones give the per-layer
metrics of spans.py and trace.overhead_s, the traced minus the untraced
wall_s. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Result and trace files go to
perfbench/out/.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = OUT / "work"

JOB_CAP = 90.0   # a job running longer is killed and counted failed
RUN_CAP = 170.0  # jobs are capped, and rounds stop, so that a run ends within this

# argv: the arguments of job.py after REPORT; accept: exit codes that mean an
# answer was given; check: (parsed last line of stdout, exit code) -> bool.
Job = namedtuple("Job", "name argv stdin accept check")

M10 = "SU(4)/S(U(1)xU(1)xU(2))"


def cli_job(verb, *args, check, accept=(0,)):
    argv = ("cli", verb) + args + ("--format", "json")
    return Job(" ".join((verb,) + args), argv, None, accept, check)


def _table(rows, key):
    return {oracle.trim(r[key]): r["value"] for r in rows}


def checks_for(s, c):
    """Checks of class, snumbers and chern answers against s- and Chern tables."""
    return {
        "class": lambda out, rc: oracle.parse_class(out["class"]) == oracle.nonzero(s),
        "snumbers": lambda out, rc: oracle.nonzero(_table(out["s_numbers"], "omega")) == oracle.nonzero(s),
        "chern": lambda out, rc: _table(out["chern"], "xi") == c,
    }


def localize(rng):
    """class, snumbers and chern on a ladder varying chi, n <= 6 and shared weight lines."""
    jobs = []
    verbs3 = ("class", "snumbers", "chern")

    def ladder(space, sizes, extra=(), root_signs=None, conjugate=False, verbs=verbs3):
        pts = oracle.block_quotient(sizes, root_signs, conjugate)
        v = oracle.nonsingular_point(pts, rng)
        check = checks_for(oracle.s_numbers(pts, v), oracle.chern_numbers(pts, v))
        for verb in verbs:
            jobs.append(cli_job(verb, "--space", space, *extra, check=check[verb]))

    def paper(key, space, *extra):
        check = checks_for(oracle.parse_class(oracle.PAPER_CLASS[key]), oracle.PAPER_CHERN[key])
        for verb in verbs3:
            jobs.append(cli_job(verb, "--space", space, *extra, check=check[verb]))

    ladder("CP3", (3, 1))
    ladder("CP4", (4, 1))
    ladder("CP5", (5, 1))
    ladder("U(4)/T4", (1, 1, 1, 1))
    ladder("U(4)/U(2)xU(2)", (2, 2))
    ladder("U(4)/U(1)xU(1)xU(2)", (1, 1, 2))
    ladder("U(5)/U(2)xU(3)", (2, 3))
    for j in ("J1", "J2", "J3"):
        paper(j, M10, "--structure", j)
    paper("G2/SU(3)", "G2/SU(3)")
    conj = ("--structure", "conjugate")
    ladder("CP3", (3, 1), conj, conjugate=True, verbs=("class",))
    ladder("CP4", (4, 1), conj, conjugate=True, verbs=("chern",))
    ladder("U(4)/U(2)xU(2)", (2, 2), conj, conjugate=True, verbs=("snumbers",))
    for _ in range(2):
        signs = tuple(rng.choice((1, -1)) for _ in range(6))
        ladder("U(4)/T4", (1, 1, 1, 1), ("--signs=" + ",".join(map(str, signs)),),
               root_signs=signs, verbs=("class",))
    return jobs


def verify_ok(out, rc):
    return out["ok"] is True and bool(out["checks"]) and all(out["checks"].values())


def certify(rng):
    """verify on genuine structures, the divided-difference routes and reproduce."""
    jobs = [cli_job("verify", "--space", space, *extra, check=verify_ok) for space, extra in (
        ("CP3", ()),
        ("CP4", ()),
        ("U(4)/U(2)xU(2)", ()),
        (M10, ("--structure", "J1")),
        (M10, ("--structure", "J2")),
        (M10, ("--structure", "J3")),
        ("G2/SU(3)", ()),
    )]
    # One seeded invariant structure on U(4)/U(1)xU(1)xU(2): one sign for each
    # isotropy summand (roots 0 | 1,2 | 3,4); all -1 is the conjugate, below.
    a, b, c = rng.choice([t for t in ((x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1))
                          if t != (-1, -1, -1)])
    jobs.append(cli_job("verify", "--space", "U(4)/U(1)xU(1)xU(2)",
                        "--signs=%d,%d,%d,%d,%d" % (a, b, b, c, c), check=verify_ok))
    # Fails today: cmd_verify compares s_(n) with chi, but a conjugate
    # structure of odd n has s_(n) = -chi in the standard orientation.
    jobs.append(cli_job("verify", "--space", "CP3", "--structure", "conjugate", check=verify_ok))

    def matches(pts):
        s = oracle.nonzero(oracle.s_numbers(pts, oracle.nonsingular_point(pts, rng)))
        return lambda out, rc: oracle.parse_class(out["class"]) == s

    # tchi at n = 5 reads the same product as corL and would add 5 s.
    for n, methods in ((4, ("corL", "tchi", "thm8")), (5, ("corL", "thm8"))):
        check = matches(oracle.block_quotient((1,) * n))
        for method in methods:
            jobs.append(cli_job("flag", "--n", str(n), "--method", method, check=check))
    for q, l in ((2, 2), (2, 3), (3, 2)):
        jobs.append(cli_job("grassmann", "--q", str(q), "--l", str(l),
                            check=matches(oracle.block_quotient((q, l)))))
    jobs.append(cli_job("reproduce", check=lambda out, rc: (
        out["ok"] is True and len(out["rows"]) == 27 and all(r["ok"] for r in out["rows"]))))
    return jobs


def chern(rng):
    """s -> Chern numbers and back on the s-tables of CP6, CP7 and CP8."""
    jobs = []
    for n in (6, 7, 8):
        s = oracle.projective_s(n)
        want = oracle.projective_chern(n)

        def check(out, rc, s=s, want=want):
            got = {tuple(k): v for k, v in out["chern"]}
            back = {tuple(k): v for k, v in out["s_back"]}
            return got == want and back == s
        stdin = json.dumps(sorted([list(om), v] for om, v in s.items()))
        jobs.append(Job("chern CP%d" % n, ("chern", str(n)), stdin, (0,), check))
    return jobs


def _random_table(rng, points):
    return tuple(tuple(rng.choice((1, -1)) for _ in weights) for weights, _ in points)


def signs(rng):
    """stable enumeration, and stable --assign on seeded single tables."""
    jobs = []
    for space, pts in (("CP1", oracle.projective(1)), ("CP2", oracle.projective(2)),
                       ("CP3", oracle.projective(3)), ("G2/SU(3)", oracle.G2_POINTS),
                       ("U(3)/T3", oracle.block_quotient((1, 1, 1)))):
        cond = oracle.SignConditions(pts, [oracle.nonsingular_point(pts, rng) for _ in range(2)])
        total = 2 ** sum(len(w) for w, _ in pts)
        probes = [_random_table(rng, pts) for _ in range(min(16, total))]

        def check(out, rc, space=space, cond=cond, probes=probes):
            tables = {tuple(tuple(a[str(p)]) for p in range(len(cond.points)))
                      for a in out["assignments"]}
            if out["count"] != len(out["assignments"]) or len(tables) != out["count"]:
                return False
            if oracle.PAPER_ADMISSIBLE.get(space, out["count"]) != out["count"]:
                return False
            if not all(cond.evaluate(t)[0] for t in tables):
                return False
            return not any(cond.evaluate(t)[0] for t in probes if t not in tables)
        jobs.append(cli_job("stable", "--space", space, check=check))

    def assign(space, pts, table, epsilon, tag):
        cond = oracle.SignConditions(pts, [oracle.nonsingular_point(pts, rng) for _ in range(2)])
        ok, tops = cond.evaluate(table, epsilon)
        path = WORK / ("assign-%s.json" % tag)
        data = {str(p): list(a) for p, a in enumerate(table)}
        data["epsilon"] = epsilon
        path.write_text(json.dumps(data))

        def check(out, rc):
            if not ok:
                return rc == 1 and out["ok"] is False
            return rc == 0 and out["ok"] is True and _table(out["s_numbers"], "omega") == tops
        jobs.append(cli_job("stable", "--space", space, "--assign", str(path.relative_to(ROOT)),
                            check=check, accept=(0, 1)))

    cp3 = oracle.projective(3)
    admissible = oracle.SignConditions(cp3, [oracle.nonsingular_point(cp3, rng) for _ in range(2)]).admissible()
    for k, table in enumerate(rng.sample(admissible, 2)):
        assign("CP3", cp3, table, rng.choice((1, -1)), "cp3-a%d" % k)
    for k in range(2):
        assign("CP3", cp3, _random_table(rng, cp3), rng.choice((1, -1)), "cp3-r%d" % k)
    # On the SU(4) quotient (blocks x1,x2 | x3 | x4) an invariant structure
    # takes one sign on each isotropy summand: roots 0,2 | 1,3 | 4.
    m10 = oracle.block_quotient((2, 1, 1))
    a, b, c = (rng.choice((1, -1)) for _ in range(3))
    assign(M10, m10, ((a, b, a, b, c),) * len(m10), 1, "m10-j")
    assign(M10, m10, _random_table(rng, m10), 1, "m10-r")
    return jobs


WORKLOADS = {"localize": localize, "certify": certify, "chern": chern, "signs": signs}


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("TORIGEN_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_round(jobs, traced, env, deadline):
    """Run every job once; returns the round's totals, failures and spans."""
    rnd = {"wall_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0, "failed": 0, "correct": True,
           "failures": [], "traces": []}
    report = WORK / "job.json"
    for job in jobs:
        if report.exists():
            report.unlink()
        cap = min(JOB_CAP, deadline - time.monotonic())
        cmd = [sys.executable, str(HERE / "job.py"), str(report)]
        cmd += ["--trace"] if traced else []
        cmd += list(job.argv)
        t0 = time.monotonic()
        if cap <= 0:
            rnd["failed"] += 1
            rnd["failures"].append(job.name + ": no time left in the run")
            continue
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdin=subprocess.PIPE if job.stdin else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(job.stdin, timeout=cap)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            rnd["wall_s"] += time.monotonic() - t0
            rnd["failed"] += 1
            rnd["failures"].append(job.name + ": killed after %.0f s" % cap)
            continue
        rnd["wall_s"] += time.monotonic() - t0
        lines = out.strip().splitlines()
        try:
            answer = json.loads(lines[-1]) if lines else None
            info = json.loads(report.read_text())
        except (ValueError, OSError):
            answer = info = None
        if proc.returncode not in job.accept or answer is None or info is None:
            rnd["failed"] += 1
            tail = err.strip().splitlines()[-1:] or ["no output"]
            rnd["failures"].append("%s: exit %d, %s" % (job.name, proc.returncode, tail[0]))
            continue
        rnd["setup_s"] += info["ready"] - t0
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], info["rss_kb"] / 1024.0)
        try:
            good = bool(job.check(answer, proc.returncode))
        except (KeyError, TypeError, ValueError, ArithmeticError):
            good = False
        if not good:
            rnd["correct"] = False
            rnd["failures"].append(job.name + ": wrong answer")
        if traced:
            rnd["traces"].append({"job": job.name, **info})
    return rnd


def layer_metrics(rnd):
    """Per-layer totals of one traced round, and the metrics whose functions are gone.

    A metric whose function or class a refactor removed reads 0, since no
    time is spent in it, and is listed as absent.
    """
    totals = spans.empty_totals()
    installed, counted, absent = set(), set(), []
    for t in rnd["traces"]:
        spans.summarize(t["spans"], totals)
        installed.update(t["installed"])
        counted.update(t["counts"])
        for key, value in t["counts"].items():
            totals["exactalg.%s_calls" % key] += value
    layers = {q.split(".")[0] for q in installed}
    for name in totals:
        if name in spans.NAMED:
            present = any(q in installed for q in spans.NAMED[name])
        elif name in spans.COUNT_METRICS:
            present = spans.COUNT_METRICS[name] in counted
        else:
            present = name.split(".")[0] in layers
        if not present:
            absent.append(name)
    return totals, absent


def unit_of(name):
    return "count" if name.endswith("_calls") or name.endswith(".calls") else "s"


def run_workload(name, args, env, start):
    """Run one workload's rounds, write its files, print its metrics; returns its summary."""
    rng = random.Random("%s:%d" % (name, args.seed))
    jobs = WORKLOADS[name](rng)

    deadline = start + RUN_CAP
    plain, traced = [], []
    measured = time.monotonic()
    while True:
        t = time.monotonic()
        plain.append(run_round(jobs, False, env, deadline))
        if args.trace:
            traced.append(run_round(jobs, True, env, deadline))
        now = time.monotonic()
        if now - measured >= args.seconds or now + (now - t) > deadline:
            break
    rounds = plain + traced
    attempted = len(jobs) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(r["correct"] for r in rounds)

    absent = []
    if args.trace:
        per = [layer_metrics(r) for r in traced]
        absent = per[0][1]
        values = {m: statistics.median(p[0][m] for p in per) for m in per[0][0]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
    else:
        values = {k: statistics.median(r[k] for r in plain) for k in ("wall_s", "setup_s", "peak_rss_mb")}
    units = {"peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units.get(k, unit_of(k))} for k, v in values.items()}

    OUT.mkdir(parents=True, exist_ok=True)
    tag = "%s-%d%s" % (name, args.seed, "-trace" if args.trace else "")
    result = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "machine": platform.machine(), "cpus": os.cpu_count(),
        "jobs": [j.name for j in jobs],
        "rounds": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "failed", "correct", "failures")}
                   for r in rounds],
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "absent": absent,
    }
    (OUT / ("result-%s.json" % tag)).write_text(json.dumps(result, indent=1))
    if args.trace:
        (OUT / ("trace-%s.json" % tag)).write_text(json.dumps(traced[-1]["traces"]))

    for r in rounds:
        for f in r["failures"]:
            print("failed: " + f)
    print("workload %s: %d jobs in %d rounds, attempted %d, failed %d, correct %s"
          % (name, len(jobs), len(rounds), attempted, failed, correct))
    for m, val in metrics.items():
        print("%-36s %.6g %s%s" % (m, val["value"], val["unit"], " (absent)" if m in absent else ""))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"],
                    help="one workload, or all four one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not (ROOT / "src" / "torigen" / "cli.py").is_file():
        print("error: no torigen sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    env = child_env()
    warm = subprocess.run([sys.executable, "-c", "import torigen.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print("error: torigen does not import:\n" + warm.stderr, file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, env, start)))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = run_workload(name, args, env, time.monotonic())
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({"%s.%s" % (name, m): v for m, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
