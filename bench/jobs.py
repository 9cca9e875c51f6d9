"""Seeded job lists for the three benchmark workloads.

A job is one ``latticemix`` command line.  ``make_jobs(workload, seed)``
returns a list of job specs; the same seed gives the same list, and
``job_list_digest`` hashes it so two runs can show they used identical
inputs.  A spec is a plain dict:

* ``cmd``: the subcommand;
* ``args``: flag name -> value (``True`` for a bare switch);
* ``fmt``: artifact format (csv, json or svg);
* ``check``: extra parameters only the output checker reads.

Every list is stratified: the inputs are sorted into cost strata, and each
round of the list takes one job from every stratum.  Any prefix of the list
then has nearly the same mix of job sizes whatever the seed, which keeps a
fixed-length run comparable across seeds.  No two jobs in a list share
exact inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

from latticemix.experiments import deviation_time

WORKLOADS = ("desk-check", "cap-sweep", "cli-mix")

# Longer than any run at the present speed needs, so a faster program
# does not run out of distinct inputs inside one measured run.
LIST_LENGTH = {"desk-check": 1000, "cap-sweep": 800, "cli-mix": 4000}

DESK_RANGE = (21, 55)
CAP_RANGE = (10, 100)
CAP_T_MAX = 1000.0
EXACT_CHECK_MAX_PRODUCT = 1500


def argv(job: dict, out: str) -> list[str]:
    """Command line of `job` with its artifact written to `out`."""
    line = [job["cmd"]]
    for flag, value in job["args"].items():
        line.append(flag)
        if value is not True:
            line.append(str(value).replace("{out}", out))
    return line + ["--out", out, "--format", job["fmt"]]


def job_list_digest(jobs: list[dict]) -> str:
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _odd_coprime_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    odds = [n for n in range(lo, hi + 1) if n % 2 == 1 and n >= 3]
    return [(n1, n2) for i, n2 in enumerate(odds) for n1 in odds[i + 1:]
            if math.gcd(n1, n2) == 1]


def _strata(items: list, cost, count: int) -> list[list]:
    ordered = sorted(items, key=cost)
    size = math.ceil(len(ordered) / count)
    return [ordered[i:i + size] for i in range(0, len(ordered), size)]


def _stratified_rounds(rng: random.Random, strata: list[list]):
    """Endless stream: each pass shuffles every stratum, then deals round-robin."""
    while True:
        decks = [rng.sample(s, len(s)) for s in strata]
        for position in range(max(len(d) for d in decks)):
            for deck in rng.sample(decks, len(decks)):
                if position < len(deck):
                    yield deck[position]


def _desk_check(rng: random.Random, length: int) -> list[dict]:
    rects = _odd_coprime_pairs(*DESK_RANGE)
    stream = _stratified_rounds(rng, _strata(rects, lambda r: r[0] * r[1], 16))
    jobs = []
    for _ in range(length):
        n1, n2 = next(stream)
        args = {"--tier": "slow", "--relaxed": True, "--n1": n1, "--n2": n2,
                "--T": repr(rng.uniform(0.5, 1.0) * deviation_time(n1, n2))}
        if rng.random() < 0.5:
            args["--checkpoint"] = "{out}.ckpt.npz"
        check = {}
        if rng.random() < 0.1:
            check["quad_T"] = rng.uniform(5.0, 30.0)
        jobs.append({"cmd": "theorem3", "args": args, "fmt": "json", "check": check})
    return jobs


def cap_sweep_pair(seed: int, pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """The pair `conjecture --pairs 1 --seed <seed>` draws from `pairs`.

    Mirrors the CLI's sampler (one draw without replacement from a PCG64
    stream) so the list can be stratified by pair size before any job runs;
    the checker compares it with the pair the artifact reports.
    """
    index = np.random.default_rng(seed).choice(len(pairs), size=1, replace=False)[0]
    return pairs[int(index)]


def _cap_sweep(rng: random.Random, length: int) -> list[dict]:
    pairs = _odd_coprime_pairs(*CAP_RANGE)
    strata = _strata(pairs, sum, 16)
    stratum_of = {p: k for k, s in enumerate(strata) for p in s}
    queues = [[] for _ in strata]
    used = [set() for _ in strata]
    jobs = []
    sub_seed = rng.randrange(2**31)
    order = list(range(len(strata)))
    while len(jobs) < length:
        rng.shuffle(order)
        for k in order:
            # draw CLI seeds until stratum k has a pair it has not used this pass
            while not queues[k]:
                pair = cap_sweep_pair(sub_seed, pairs)
                j = stratum_of[pair]
                if pair not in used[j]:
                    queues[j].append((sub_seed, pair))
                    used[j].add(pair)
                    if len(used[j]) == len(strata[j]):
                        used[j].clear()
                sub_seed += 1
            cli_seed, pair = queues[k].pop(0)
            check = {"pair": list(pair)}
            if pair[0] * pair[1] <= EXACT_CHECK_MAX_PRODUCT:
                check["exact_T"] = rng.choice(decade_grid(CAP_T_MAX))
            jobs.append({
                "cmd": "conjecture",
                "args": {"--range": f"{CAP_RANGE[0]},{CAP_RANGE[1]}", "--pairs": 1,
                         "--seed": cli_seed, "--T-max": repr(CAP_T_MAX), "--halving": True,
                         "--parallel": 1},
                "fmt": rng.choice(("csv", "json")),
                "check": check,
            })
    return jobs[:length]


def decade_grid(t_max: float) -> list[float]:
    """Horizons 10, 100, ... below t_max, then t_max: the grid `conjecture` sweeps."""
    grid, T = [], 10.0
    while T < t_max:
        grid.append(T)
        T *= 10.0
    return grid + [float(t_max)]


def _odd(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo | 1, hi + 1, 2)


def _small_dims(rng: random.Random, odd: bool, max_size: int, max_d: int = 2):
    while True:
        d = rng.randint(1, max_d)
        dims = [(_odd(rng, 3, 23) if odd else rng.randint(2, 23)) for _ in range(d)]
        if math.prod(dims) <= max_size:
            return ",".join(map(str, dims))


def _fmt(rng: random.Random, *allowed: str) -> str:
    return rng.choice(allowed or ("csv", "json", "svg"))


def _cli_job(kind: str, rng: random.Random) -> dict:
    cmd, _, variant = kind.partition(":")
    check: dict = {}
    if cmd == "fig1":
        n2 = _odd(rng, 3, 11)
        n1 = _odd(rng, n2 + 2, 13)
        args = {"--dims": f"{n1},{n2}", "--t-max": rng.randint(n1 + n2, 48)}
        if rng.random() < 0.1:
            check["quad_T"] = [n1 + n2]
        return {"cmd": cmd, "args": args, "fmt": _fmt(rng), "check": check}
    if cmd == "kernel":
        args = {"--kind": variant}
        if variant == "averaged":
            args.update({"--dims": _small_dims(rng, True, 200), "--T": repr(rng.uniform(1, 40))})
        elif variant == "averaged-quad":
            args.update({"--dims": _small_dims(rng, True, 200), "--T": repr(rng.uniform(1, 8))})
        elif variant == "instant":
            args.update({"--dims": _small_dims(rng, False, 200), "--t": repr(rng.uniform(0.5, 10))})
        else:
            args["--dims"] = _small_dims(rng, False, 200)
        args["--power"] = rng.randint(1, 4)
        check["named_route"] = rng.random() < 0.1
        return {"cmd": cmd, "args": args, "fmt": _fmt(rng), "check": check}
    if cmd == "mix-classical":
        n = rng.randint(3, 15)
        dims = f"{n}" if rng.random() < 0.3 else f"{n},{rng.randint(2, 15)}"
        epsilon = round(rng.uniform(0.05, 0.3), 4)
        args = {"--dims": dims, "--epsilon": epsilon}
        if rng.random() < 0.5:
            args["--t-max"] = rng.randint(10, 400)
        return {"cmd": cmd, "args": args, "fmt": _fmt(rng), "check": check}
    if cmd == "mix-repeated":
        args = {"--dims": _small_dims(rng, True, 120), "--T": repr(rng.uniform(2, 20)),
                "--rounds": rng.randint(1, 4), "--mode": variant}
        check["named_route"] = rng.random() < 0.1
        if variant == "sampled":
            args.update({"--trajectories": 20000, "--seed": rng.randrange(10**6),
                         "--rounds": rng.randint(1, 3)})
        return {"cmd": cmd, "args": args, "fmt": _fmt(rng), "check": check}
    if cmd == "mix-coordinate":
        args = {"--dims": _small_dims(rng, False, 529),
                "--epsilon": round(rng.uniform(0.05, 0.3), 4)}
        if rng.random() < 0.5:
            args["--rounds"] = rng.randint(1, 6)
        return {"cmd": cmd, "args": args, "fmt": _fmt(rng), "check": check}
    if cmd == "lemma2":
        n = _odd(rng, 5, 23)
        args = {"--n": n, "--T": repr(rng.uniform(1, 60)), "--offset": rng.randrange(n)}
        return {"cmd": cmd, "args": args, "fmt": _fmt(rng, "csv", "json"), "check": check}
    if cmd == "spectrum":
        dims = _small_dims(rng, False, 200, max_d=3)
        return {"cmd": cmd, "args": {"--dims": dims}, "fmt": _fmt(rng, "csv", "json"),
                "check": check}
    raise ValueError(f"unknown job kind {kind!r}")


CLI_MIX_DECK = (
    "fig1", "kernel:averaged", "kernel:averaged-quad", "kernel:instant", "kernel:lazy",
    "mix-classical", "mix-repeated:exact", "mix-repeated:sampled", "mix-coordinate",
    "lemma2", "spectrum",
)


def _cli_mix(rng: random.Random, length: int) -> list[dict]:
    jobs, seen = [], set()
    while len(jobs) < length:
        for kind in rng.sample(CLI_MIX_DECK, len(CLI_MIX_DECK)):
            for _ in range(1000):
                job = _cli_job(kind, rng)
                key = json.dumps([job["cmd"], job["args"]], sort_keys=True)
                if key not in seen:
                    break
            else:
                raise RuntimeError(f"{kind}: no fresh inputs left; shorten the list")
            seen.add(key)
            jobs.append(job)
    return jobs[:length]


_GENERATORS = {"desk-check": _desk_check, "cap-sweep": _cap_sweep, "cli-mix": _cli_mix}


def make_jobs(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, LIST_LENGTH[workload])
