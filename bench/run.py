"""latticemix benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-check --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and described in bench/README.md.
The run builds the workload's job list from the seed, times set-up in fresh
processes, runs the list as a closed loop in a fresh worker process for
``--seconds``, then checks every job's artifact.  Every line but the last
is context (environment, job-list digest, failures, the full trace table);
the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
WORKER_GRACE_S = 120.0

# Every process of a run uses one BLAS thread unless the caller sets the
# thread count.  On a shared 2-core machine the default of two threads made
# job times swing far more between runs than one thread did; the result
# records the setting either way.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def _die(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _child_env(workdir: str) -> dict:
    env = dict(os.environ, TMPDIR=workdir)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(workload: str, seed: int, digest: str, env: dict) -> list[float]:
    """Wall time of SETUP_PROBES fresh processes that import and build the list."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, str(seed)], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60)
        times.append(perf_counter() - start)
        if done.returncode != 0 or done.stdout.strip() != digest:
            _die(f"set-up probe failed or built another job list:\n{done.stderr}")
    return times


def run_worker(workdir: str, seconds: int, trace: int, env: dict) -> dict:
    result_path = os.path.join(workdir, "result.json")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--jobs", os.path.join(workdir, "jobs.json"), "--workdir", workdir,
               "--seconds", str(seconds), "--trace", str(trace), "--result", result_path]
    done = subprocess.run(command, env=env, cwd=ROOT, timeout=seconds + WORKER_GRACE_S)
    if done.returncode != 0:
        _die(f"worker exited with {done.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(result: dict, setup: list[float]) -> dict:
    times = [r["seconds"] for r in result["records"]]
    return {
        "jobs_per_s": {"value": len(times) / result["loop_s"], "unit": "1/s"},
        "job_s.p50": {"value": _quantile(times, 5), "unit": "s"},
        "job_s.p90": {"value": _quantile(times, 9), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
    }


_RATES = {"terms_per_s", "shifts_per_s", "points_per_s", "nodes_per_s"}
_OUTPUT_WRITERS = ("output.write_csv", "output.write_json", "output.write_svg")


def per_layer(result: dict, wanted: list[dict]) -> dict:
    trace = result["trace"]
    fns = trace["functions"]
    traced = [r["seconds"] for r in result["records"] if r["traced"]]
    plain = [r["seconds"] for r in result["records"] if not r["traced"]]
    traced_rate, plain_rate = len(traced) / sum(traced), len(plain) / sum(plain)

    def layer_sum(layer: str, stat: str) -> float:
        return sum(v[stat] for k, v in fns.items() if k.split(".")[0] == layer)

    def rate(keys) -> float:
        span = sum(fns[k]["span_s"] for k in keys)
        return sum(fns[k]["work"] for k in keys) / span if span > 0 else 0.0

    special = {
        "trace.jobs_per_s_traced": traced_rate,
        "trace.jobs_per_s_untraced": plain_rate,
        "trace.overhead_frac": plain_rate / traced_rate - 1.0,
        "kernels.checkpoint_saves": trace["checkpoint_saves"],
        "kernels.checkpoint_save_s": fns["kernels._save_checkpoint"]["self_s"],
        "output.bytes_per_s": rate(_OUTPUT_WRITERS),
    }
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        head, _, stat = name.rpartition(".")
        if name in special:
            value = special[name]
        elif head in fns and stat in ("calls", "self_s"):
            value = fns[head][stat]
        elif head in fns and stat in _RATES:
            value = rate([head])
        elif stat in ("self_s", "calls"):
            value = layer_sum(head, stat)
        elif stat == "share":
            value = layer_sum(head, "self_s") / sum(traced)
        elif stat == "errors":
            value = trace["errors"][head]
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "latticemix", "cli.py")):
        _die("no latticemix source under src/; run from the root of a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import checks
    import envinfo
    from jobs import WORKLOADS, job_list_digest, make_jobs

    if opts.workload not in WORKLOADS:
        _die(f"unknown workload {opts.workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    job_list = make_jobs(opts.workload, opts.seed)
    digest = job_list_digest(job_list)
    workdir = os.path.join(ROOT, ".bench_work", f"{opts.workload}-{opts.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        env = _child_env(workdir)
        with open(os.path.join(workdir, "jobs.json"), "w") as fh:
            json.dump(job_list, fh)
        setup = measure_setup(opts.workload, opts.seed, digest, env)
        result = run_worker(workdir, opts.seconds, opts.trace, env)

        executed = [result["warmup"]] + result["records"]
        failures = []
        for record in executed:
            problems = checks.check_job(job_list[record["index"]], record["out"],
                                        record["rc"], record["error"])
            if problems:
                failures.append({"job": record["index"], "traced": record["traced"],
                                 "problems": problems})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "job_list_sha256": digest, "jobs_in_list": len(job_list),
        "jobs_timed": len(result["records"]), "list_exhausted": result["exhausted"],
        "setup_samples_s": setup, "environment": {**result["process"],
                                                  **envinfo.source_identity(ROOT)},
        "failures": failures[:20],
    }
    print(json.dumps({"context": context}, sort_keys=True))
    if opts.trace:
        print(json.dumps({"trace": result["trace"]}, sort_keys=True))
        metrics = per_layer(result, spec["per_layer"])
    else:
        metrics = end_to_end(result, setup)
    for failure in failures[:20]:
        sys.stderr.write(f"bench: job {failure['job']} failed: {failure['problems']}\n")
    print(json.dumps({"correct": not failures, "attempted": len(executed),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
