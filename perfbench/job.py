"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/job.py REPORT [--trace] cli VERB ARGS...
    python3 perfbench/job.py REPORT [--trace] chern N < s_table.json

`cli` runs the torigen command line exactly as `python -m torigen.cli` does.
`chern` asks torigen.chern for the Chern numbers of the s-table on stdin (a
JSON list of [omega, value] pairs of weight N) and for the s-table back from
them; no verb takes an s-table. Standard output is the job's answer. REPORT
receives the monotonic time at which torigen was imported and the job was
ready to run, the peak resident set in KiB, and with --trace the spans.
"""

import json
import resource
import sys
import time


def _chern_job(chern, n):
    s = {tuple(om): v for om, v in json.load(sys.stdin)}
    c = chern.s_to_chern(s, n)
    back = chern.chern_to_s(c, n)
    print(json.dumps({"chern": sorted([list(k), v] for k, v in c.items()),
                      "s_back": sorted([list(k), v] for k, v in back.items())}))
    return 0


def main(argv):
    report_path, args = argv[0], argv[1:]
    traced = args[0] == "--trace"
    if traced:
        args = args[1:]
    kind, rest = args[0], args[1:]
    if kind == "cli":
        from torigen import cli
    elif kind == "chern":
        from torigen import chern
    else:
        raise SystemExit("unknown job kind %r" % kind)
    report = {"ready": time.monotonic()}
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if kind == "cli":
            return cli.main(rest)
        return _chern_job(chern, int(rest[0]))
    finally:
        sys.stdout.flush()
        report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            report.update(tracer.report())
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
