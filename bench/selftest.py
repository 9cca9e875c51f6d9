"""Self-test of the output checker: good artifacts pass, perturbed ones fail.

Run from the root of a checkout:

    python3 bench/selftest.py

For one job of every kind in the three workloads, it runs the job, checks
that the untouched artifact passes, then perturbs one checked number of the
artifact (or one svg polyline by 3 px), claims the wrong exit code, and
deletes the artifact.  Each of those must count as a failure.  Exits 1 if
any perturbation goes unnoticed or any clean job fails.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from latticemix import cli  # noqa: E402

from checks import check_job  # noqa: E402
from jobs import argv, make_jobs  # noqa: E402

# The number each perturbation moves: csv column, or a function editing the JSON payload.
CSV_FIELD = {
    "kernel": "probability", "mix-classical": "tv", "mix-coordinate": "tv_factor1",
    "lemma2": "lhs", "spectrum": "eigenvalue", "fig1": "classical_return",
    "conjecture": "halving_rel",
}


def _bump(value: float) -> float:
    return value + 1e-4 * max(1.0, abs(value))


def _json_edit(job: dict):
    cmd = job["cmd"]
    if cmd == "theorem3":
        def edit(p):
            cases = {r["case"]: r for r in p["reports"]}
            cases["column_distance"]["lhs"] = 1.01 * cases["column_l1"]["lhs"]
        return edit
    if cmd == "kernel":
        return lambda p: p["first_column"].__setitem__(0, _bump(p["first_column"][0]))
    if cmd == "mix-repeated":
        key = "tv_to_uniform" if job["args"]["--mode"] == "exact" else "exact"
        return lambda p: p["curves"][key].__setitem__(0, _bump(p["curves"][key][0]))
    if cmd == "mix-classical":
        return lambda p: p["curve"]["tv"].__setitem__(1, _bump(p["curve"]["tv"][1]))
    if cmd == "mix-coordinate":
        return lambda p: p["factor_tv"][1].__setitem__(0, _bump(p["factor_tv"][1][0]))
    if cmd == "lemma2":
        return lambda p: p.__setitem__("lhs", _bump(p["lhs"]))
    if cmd == "spectrum":
        return lambda p: p.__setitem__("spectral_gap", _bump(p["spectral_gap"]))
    if cmd == "fig1":
        curve = "classical_return"
        return lambda p: p["curves"][curve].__setitem__(1, _bump(p["curves"][curve][1]))
    if cmd == "conjecture":
        return lambda p: p["reports"][0].__setitem__("halving_rel", 2e-5)
    raise KeyError(cmd)


def perturb(job: dict, path: str) -> None:
    fmt = job["fmt"]
    if fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        _json_edit(job)(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)
    elif fmt == "csv":
        field = CSV_FIELD.get(job["cmd"])
        if job["cmd"] == "mix-repeated":
            field = "tv_to_uniform" if job["args"]["--mode"] == "exact" else "exact"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index(field)
        row = rows[min(2, len(rows) - 1)]
        row[col] = repr(_bump(float(row[col])))
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    else:
        with open(path) as fh:
            text = fh.read()

        def lift(match):
            points = " ".join(f"{x},{float(y) - 3.0:.2f}" for x, y in
                              (p.split(",") for p in match.group(1).split()))
            return f'points="{points}"'
        with open(path, "w") as fh:
            fh.write(re.sub(r'points="([^"]*)"', lift, text, count=1))


def sample_jobs() -> list[dict]:
    sweep = make_jobs("cap-sweep", 0)
    picked = [make_jobs("desk-check", 0)[0],
              next(j for j in sweep if "exact_T" in j["check"]),
              next(j for j in sweep if "exact_T" not in j["check"])]
    seen = set()
    for job in make_jobs("cli-mix", 0):
        kind = (job["cmd"], job["args"].get("--kind") or job["args"].get("--mode"), job["fmt"])
        if kind not in seen:
            seen.add(kind)
            picked.append(job)
    fig1_violation = {"cmd": "fig1", "args": {"--dims": "9,5", "--t-max": 106},
                      "fmt": "json", "check": {"quad_T": [3, 14]}}
    return picked + [fig1_violation]


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    missed = []
    try:
        for index, job in enumerate(sample_jobs()):
            out = os.path.join(workdir, f"job{index}.{job['fmt']}")
            rc = cli.main(argv(job, out))
            label = " ".join(argv(job, "OUT"))
            clean = check_job(job, out, rc)
            if clean:
                missed.append(f"clean job failed: {label}: {clean}")
                continue
            if not check_job(job, out, 2 - rc):
                missed.append(f"wrong exit code passed: {label}")
            perturb(job, out)
            if not check_job(job, out, rc):
                missed.append(f"perturbed artifact passed: {label}")
            os.remove(out)
            if not check_job(job, out, rc):
                missed.append(f"missing artifact passed: {label}")
            print(f"ok  rc={rc}  {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in missed:
        print("FAIL", line)
    print(f"{len(missed)} problems")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
