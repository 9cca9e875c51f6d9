"""Timed closed loop: one client, one ``latticemix`` job at a time.

Started by ``run.py`` in a fresh process.  It imports the package from the
checkout's ``src``, runs one untimed warm-up job, then runs the job list in
order until ``--seconds`` have passed, timing each ``latticemix.cli.main``
call.  With ``--trace 1`` every job runs twice, once under the tracer and
once without, alternating which goes first, so the traced and untraced rates
compare the same inputs.  Results go to ``--result`` as JSON; the artifacts
are checked afterwards by the parent, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from latticemix import cli  # noqa: E402

import envinfo  # noqa: E402
from jobs import argv  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_one(job: dict, out: str) -> dict:
    start = perf_counter()
    error = None
    try:
        rc = cli.main(argv(job, out))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a job that raised is a failed job, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return {"out": out, "seconds": perf_counter() - start, "rc": rc, "error": error}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result", required=True)
    opts = parser.parse_args()

    with open(opts.jobs) as fh:
        jobs = json.load(fh)
    tracer = Tracer() if opts.trace else None

    def out_path(index: int, tag: str) -> str:
        return os.path.join(opts.workdir, f"job{index}{tag}.{jobs[index]['fmt']}")

    warmup = dict(run_one(jobs[0], out_path(0, "")), index=0, traced=False)
    records = []
    start = perf_counter()
    deadline = start + opts.seconds
    index = 1
    while index < len(jobs) and perf_counter() < deadline:
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if index % 2 == 0 else (True, False)
        for traced in modes:
            if traced:
                tracer.install()
            try:
                record = run_one(jobs[index], out_path(index, ".t" if traced else ""))
            finally:
                if traced:
                    tracer.uninstall()
            records.append(dict(record, index=index, traced=traced))
        index += 1
    loop_s = perf_counter() - start

    result = {
        "warmup": warmup,
        "records": records,
        "loop_s": loop_s,
        "exhausted": index >= len(jobs),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "process": envinfo.process_info(),
        "trace": tracer.summary() if tracer else None,
    }
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
