"""Output checker: every job's artifact against an independent route.

``check_job(job, out, rc)`` returns a list of problems; an empty list means
the job passed.  It runs after the timed loop, in the parent process.  Each
number the artifact reports is recomputed by a route that does not share
the code path under test, at the tolerance the repository's tests already
use for that pair of routes:

* averaged kernels: analytic vs Simpson quadrature, 1e-6;
* instantaneous kernels: closed form vs dense ``expm`` (tests/oracles.py), 1e-9;
* both kinds, on every small-lattice job: vs the dense eigendecomposition of
  the walk matrix, at the tolerance of the route pair it stands in for;
  a seeded tenth of those jobs also runs the named route above;
* kernel powers: FFT power vs dense matrix power, 1e-9 on top of the route;
* column distances: circulant shortcut vs an all-pairs scan, 1e-12;
* the d(P) sandwich tv(c, u) <= d(P) <= 2 tv(c, u), slack 1e-10; on a
  seeded tenth of desk checks, d(P) against a scan of every shift (1e-12)
  and each entry-class deviation recomputed from the column (1e-12);
* integrated oscillatory sums: closed form vs Simpson (dt 0.01), 1e-5 relative;
* product integrals: step-halving gap <= 1e-5, exact path within 1e-4;
* spectra: closed form vs dense eigenvalue scans, 1e-12;
* lazy-walk curves: stencil vs dense matrix iteration, 1e-12.

SVG artifacts carry numbers only as pixel coordinates (0.01 px) and axis
labels (6 significant digits).  Their series are decoded back into values
and compared at that precision plus the route tolerance.  Exit code 2 is a
result: the checker recomputes the verdicts and requires the exit code to
match them.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import sys
import xml.etree.ElementTree as ET

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

import oracles  # noqa: E402  (tests/oracles.py: dense expm, eigen scans)

from latticemix.kernels import averaged_kernel_analytic, averaged_kernel_quadrature  # noqa: E402
from latticemix.oscsums import product_integral_exact  # noqa: E402
from latticemix.spectral import LatticeSpec  # noqa: E402

from jobs import decade_grid  # noqa: E402

ANALYTIC_VS_QUADRATURE = 1e-6
EXPM = 1e-9
DENSE_POWER = 1e-9
COLUMN_DISTANCE = 1e-12
SANDWICH_SLACK = 1e-10
LEMMA2_REL = 1e-5
HALVING_REL = 1e-5
EXACT_REL = 1e-4
SPECTRUM = 1e-12
LAZY = 1e-12
QUAD_DT = 0.02


_BOOLS = {"true": 1.0, "false": 0.0}


class Mismatch(Exception):
    pass


# ------------------------------------------------------------------ reading

class Artifact:
    """One artifact, read back in whichever format it was written."""

    def __init__(self, path: str, fmt: str):
        self.fmt = fmt
        if fmt == "csv":
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            self.header, self.rows = rows[0], rows[1:]
        elif fmt == "json":
            with open(path) as fh:
                self.payload = json.load(fh)
        elif fmt == "svg":
            self.svg = _decode_svg(path)
        else:
            raise Mismatch(f"unknown format {fmt}")

    def column(self, name: str) -> np.ndarray:
        if name not in self.header:
            raise Mismatch(f"csv has no column {name!r}")
        index = self.header.index(name)
        return np.array([_BOOLS[row[index]] if row[index] in _BOOLS else float(row[index])
                         for row in self.rows])

    def series(self, name: str):
        """(x, y, x_tol, y_tol) of one svg polyline."""
        if name not in self.svg:
            raise Mismatch(f"svg has no series {name!r}")
        return self.svg[name]


def _decode_svg(path: str) -> dict:
    root = ET.parse(path).getroot()
    ns = {"s": "http://www.w3.org/2000/svg"}
    labels = [t.text for t in root.findall("s:text", ns) if t.get("font-size") == "12"]
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in labels[:4])
    names = labels[4:]
    lines = root.findall("s:polyline", ns)
    if len(names) != len(lines):
        raise Mismatch(f"svg has {len(lines)} polylines but {len(names)} legend entries")
    # Labels that read the same carry no span: the writer then stretched a range
    # narrower than the label precision over the axis, so every value is the label.
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    # 0.005 px of rounding per coordinate, 5e-6 relative per %.6g label
    x_tol = abs(x_span) * 0.00501 / 680.0 + 5e-6 * max(abs(x_lo), abs(x_hi)) + 1e-300
    y_tol = abs(y_span) * 0.00501 / 380.0 + 5e-6 * max(abs(y_lo), abs(y_hi)) + 1e-300
    out = {}
    for name, line in zip(names, lines):
        points = np.array([[float(v) for v in p.split(",")]
                           for p in line.get("points").split()]).reshape(-1, 2)
        xs = x_lo + (points[:, 0] - 60.0) / 680.0 * x_span
        ys = y_lo + (440.0 - points[:, 1]) / 380.0 * y_span
        out[name] = (xs, ys, x_tol, y_tol)
    return out


def _close(what: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    if got.shape != want.shape:
        raise Mismatch(f"{what}: {got.size} values, expected {want.size}")
    if got.size and not np.all(np.isfinite(got)):
        raise Mismatch(f"{what}: non-finite value")
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    if gap > tol:
        raise Mismatch(f"{what}: off by {gap:.3e} > {tol:.1e}")


def _rel_close(what: str, got: float, want: float, rel: float) -> None:
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        raise Mismatch(f"{what}: {got!r} vs {want!r}, beyond {rel:.0e} relative")


def _series(art: Artifact, what: str, want, tol: float, csv_col: str, json_get,
            svg_name: str | None, x=None) -> None:
    """Compare one named series in whichever format the artifact has."""
    if art.fmt == "csv":
        _close(what, art.column(csv_col), want, tol)
    elif art.fmt == "json":
        _close(what, json_get(art.payload), want, tol)
    elif svg_name is not None:
        xs, ys, x_tol, y_tol = art.series(svg_name)
        _close(what, ys, want, tol + y_tol)
        if x is not None:
            _close(f"{what} (x)", xs, x, x_tol)


# ------------------------------------------------------------ dense oracles

def _dims(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(","))


def _circulant(lattice: LatticeSpec, col: np.ndarray) -> np.ndarray:
    grid = np.asarray(col, dtype=float).reshape(lattice.dims)
    out = np.empty((lattice.size, lattice.size))
    for p in range(lattice.size):
        shift = np.unravel_index(p, lattice.dims)
        out[:, p] = np.roll(grid, shift, axis=tuple(range(lattice.d))).ravel()
    return out


def _allpairs_distance(matrix: np.ndarray) -> float:
    """Max pairwise column tv by scanning every pair (vectorised per column)."""
    best = 0.0
    for a in range(matrix.shape[1] - 1):
        gaps = 0.5 * np.abs(matrix[:, a + 1:] - matrix[:, a:a + 1]).sum(axis=0)
        best = max(best, float(gaps.max()))
    return best


def _max_shift_distance(grid: np.ndarray) -> float:
    """max over nonzero shifts s of tv(grid, grid shifted by s), for a 2-D grid.

    Windows of the grid tiled twice give every cyclic shift without np.roll.
    """
    n1, n2 = grid.shape
    tiled = np.tile(grid, (2, 2))
    best = 0.0
    for a in range(n1):
        windows = np.lib.stride_tricks.sliding_window_view(tiled[a:a + n1], n2, axis=1)[:, :n2]
        tv = 0.5 * np.abs(windows - grid[:, None, :]).sum(axis=(0, 2))
        if a == 0:
            tv[0] = 0.0
        best = max(best, float(tv.max()))
    return best


def _tv_uniform(col) -> float:
    col = np.asarray(col, dtype=float)
    return 0.5 * float(np.abs(col - 1.0 / col.size).sum())


def _dense_lazy(lattice: LatticeSpec) -> np.ndarray:
    """Lazy walk transition matrix written out vertex by vertex."""
    d, size = lattice.d, lattice.size
    out = np.zeros((size, size))
    for p in range(size):
        coords = np.unravel_index(p, lattice.dims)
        out[p, p] += 0.5
        for axis, n in enumerate(lattice.dims):
            for step in (1, -1):
                q = list(coords)
                q[axis] = (q[axis] + step) % n
                out[np.ravel_multi_index(q, lattice.dims), p] += 1.0 / (4 * d)
    return out


def _quad_column(lattice: LatticeSpec, T: float) -> np.ndarray:
    return averaged_kernel_quadrature(lattice, T, QUAD_DT).first_column


@functools.lru_cache(maxsize=256)
def _eigen(dims: tuple[int, ...]):
    """Eigenpairs of the dense walk matrix and the weights V[q, j] * V[0, j]."""
    w, v = np.linalg.eigh(oracles.dense_walk_matrix(LatticeSpec(dims)))
    return w, v * v[0]


def _eigen_instant(lattice: LatticeSpec, t: float) -> np.ndarray:
    """|<q|exp(i t A)|0>|^2 from the dense eigendecomposition."""
    w, weights = _eigen(lattice.dims)
    return np.abs(weights @ np.exp(1j * t * w)) ** 2


def _eigen_averaged(lattice: LatticeSpec, T: float, rows=slice(None)) -> np.ndarray:
    """(1/T) * integral_0^T |<q|exp(i t A)|0>|^2 dt, in closed form per eigenpair.

    The time average of exp(i (w_j - w_k) t) has real part sinc; the imaginary
    parts cancel between the (j, k) and (k, j) terms.
    """
    w, weights = _eigen(lattice.dims)
    weights = weights[rows]
    kernel = np.sinc(np.subtract.outer(w, w) * (T / np.pi))
    return np.einsum("qj,jk,qk->q", weights, kernel, weights)


def _expected_exit(verdicts_ok: bool) -> int:
    return 0 if verdicts_ok else 2


# --------------------------------------------------------------- commands

def _check_theorem3(job, art: Artifact) -> int:
    args, payload = job["args"], art.payload
    n1, n2, T = args["--n1"], args["--n2"], float(args["--T"])
    if (payload["n1"], payload["n2"], payload["mode"]) != (n1, n2, "relaxed"):
        raise Mismatch("theorem3 payload does not echo its inputs")
    by_case = {r["case"]: r for r in payload["reports"]}
    caps = {"origin": 4.0 / n2**2, "axis2": 3.0 / n2, "axis1": 3.0 / n2,
            "interior": 3.0 / n2 + 2.0 / 50.0, "column_l1": 13.0 / n2 + 2.0 / 50.0,
            "column_distance": 1.0 / (2.0 * math.e)}
    if list(by_case) != list(caps):
        raise Mismatch(f"theorem3 cases {list(by_case)}")
    for case, cap in caps.items():
        report = by_case[case]
        _rel_close(f"{case} cap", report["rhs"], cap, 1e-12)
        if report["T"] != T or report["lhs"] < 0 or report["satisfied"] != (report["lhs"] <= report["rhs"]):
            raise Mismatch(f"{case}: inconsistent report {report}")
    l1, dist = by_case["column_l1"]["lhs"], by_case["column_distance"]["lhs"]
    if not (0.5 * l1 <= dist + SANDWICH_SLACK and dist <= l1 + SANDWICH_SLACK):
        raise Mismatch(f"sandwich broken: l1/2={0.5 * l1:.6e} d={dist:.6e} l1={l1:.6e}")
    if "quad_T" in job["check"]:
        lattice, quad_T = LatticeSpec((n1, n2)), job["check"]["quad_T"]
        _close(f"({n1},{n2}) analytic vs quadrature at T={quad_T:.3f}",
               averaged_kernel_analytic(lattice, quad_T).first_column,
               _quad_column(lattice, quad_T), ANALYTIC_VS_QUADRATURE)
        # the same jobs also recompute every case from the column at the job's T
        grid = averaged_kernel_analytic(lattice, T).grid
        gaps = np.abs(grid - 1.0 / (n1 * n2))
        for case, value in (("origin", gaps[0, 0]), ("axis2", n2 * gaps[0, 1:].max()),
                            ("axis1", n1 * gaps[1:, 0].max()),
                            ("interior", n1 * n2 * gaps[1:, 1:].max()),
                            ("column_l1", gaps.sum())):
            _rel_close(f"{case} deviation", by_case[case]["lhs"], value, 1e-12)
        _close("column distance vs a scan of every shift", dist, _max_shift_distance(grid),
               COLUMN_DISTANCE)
    return 0


def _check_conjecture(job, art: Artifact) -> int:
    n1, n2 = job["check"]["pair"]
    grid = decade_grid(float(job["args"]["--T-max"]))
    if art.fmt == "csv":
        rows = {k: art.column(k) for k in ("n1", "n2", "T", "lhs", "rhs", "satisfied",
                                            "halving_rel")}
    else:
        reports = art.payload["reports"]
        rows = {k: np.array([float(r[k]) for r in reports])
                for k in ("n1", "n2", "T", "lhs", "rhs", "satisfied", "halving_rel")}
    if not (np.all(rows["n1"] == n1) and np.all(rows["n2"] == n2)):
        raise Mismatch(f"conjecture ran pair {rows['n1'][:1]},{rows['n2'][:1]}, "
                       f"expected ({n1},{n2})")
    _close("horizon grid", rows["T"], grid, 0.0)
    cap = 32.0 * n1 * (n2 * math.log(n2)) ** 2 + 32.0 * n2 * (n1 * math.log(n1)) ** 2
    _close("product-integral cap", rows["rhs"] / cap, np.ones(len(grid)), 1e-12)
    if np.any(rows["lhs"] < 0) or np.any(rows["satisfied"] != (rows["lhs"] <= rows["rhs"])):
        raise Mismatch("conjecture verdicts disagree with lhs/rhs")
    worst = float(rows["halving_rel"].max())
    if not worst <= HALVING_REL:
        raise Mismatch(f"step-halving gap {worst:.2e} > {HALVING_REL:.0e}")
    if "exact_T" in job["check"]:
        T = job["check"]["exact_T"]
        exact = abs(product_integral_exact(n1, n2, (0, 0), T))
        _rel_close(f"({n1},{n2}) quadrature vs exact at T={T}",
                   float(rows["lhs"][grid.index(T)]), exact, EXACT_REL)
    return _expected_exit(bool(np.all(rows["satisfied"] == 1.0)))


def _check_kernel(job, art: Artifact) -> int:
    args = job["args"]
    lattice = LatticeSpec(_dims(args["--dims"]))
    kind, power = args["--kind"], int(args["--power"])
    named = job["check"].get("named_route", False)
    if kind in ("averaged", "averaged-quad"):
        T = float(args["--T"])
        col, tol = _eigen_averaged(lattice, T), ANALYTIC_VS_QUADRATURE
        if named:
            other = (_quad_column(lattice, T) if kind == "averaged"
                     else averaged_kernel_analytic(lattice, T).first_column)
            _close("eigen route vs the other kernel route", other, col, ANALYTIC_VS_QUADRATURE)
    elif kind == "instant":
        t = float(args["--t"])
        col, tol = _eigen_instant(lattice, t), EXPM
        if named:
            amp = oracles.expm_amplitude_column(lattice, 0, t)
            _close("eigen route vs expm", np.abs(amp) ** 2, col, EXPM)
    else:
        col, tol = _dense_lazy(lattice)[:, 0], LAZY
    if power != 1:
        col = np.linalg.matrix_power(_circulant(lattice, col), power)[:, 0]
        tol += DENSE_POWER
    x = np.arange(lattice.size)
    _series(art, f"kernel {kind} column", col, tol, "probability",
            lambda p: p["first_column"], "probability", x)
    if art.fmt == "csv":
        _close("csv index", art.column("index"), x, 0.0)
        coords = np.unravel_index(x, lattice.dims)
        for axis in range(lattice.d):
            _close("csv coordinates", art.column(f"l{axis + 1}"), coords[axis], 0.0)
    if art.fmt == "json":
        got = np.array(art.payload["first_column"])
        _close("tv_to_uniform", art.payload["tv_to_uniform"], _tv_uniform(got), COLUMN_DISTANCE)
        _close("column_distance", art.payload["column_distance"],
               _allpairs_distance(_circulant(lattice, got)), COLUMN_DISTANCE)
    return 0


def _check_mix_classical(job, art: Artifact) -> int:
    args = job["args"]
    lattice = LatticeSpec(_dims(args["--dims"]))
    epsilon = float(args["--epsilon"])
    bound = 2 * lattice.d * max(lattice.dims) ** 2 * math.ceil(math.log(lattice.d / epsilon))
    t_max = int(args.get("--t-max", bound))
    walk = _dense_lazy(lattice)
    dist = np.zeros(lattice.size)
    dist[0] = 1.0
    tvs = []
    for _ in range(max(t_max, bound) + 1):
        tvs.append(_tv_uniform(dist))
        dist = walk @ dist
    steps = np.arange(t_max + 1)
    _series(art, "lazy tv curve", tvs[: t_max + 1], LAZY, "tv",
            lambda p: p["curve"]["tv"], "tv to uniform", steps)
    if art.fmt == "csv":
        _close("csv steps", art.column("t"), steps, 0.0)
    satisfied = tvs[bound] <= epsilon
    if art.fmt == "json":
        p = art.payload
        if p["bound_steps"] != bound or p["satisfied"] != satisfied:
            raise Mismatch("mix-classical bound or verdict disagrees")
        _close("tv at bound", p["tv_at_bound"], tvs[bound], LAZY)
    return _expected_exit(satisfied)


def _check_mix_repeated(job, art: Artifact) -> int:
    args = job["args"]
    lattice = LatticeSpec(_dims(args["--dims"]))
    rounds = int(args["--rounds"])
    T = float(args["--T"])
    col = _eigen_averaged(lattice, T)
    if job["check"].get("named_route", False):
        _close("eigen route vs quadrature", _quad_column(lattice, T), col, ANALYTIC_VS_QUADRATURE)
    base = _circulant(lattice, col)
    tol = ANALYTIC_VS_QUADRATURE
    if args["--mode"] == "exact":
        powers = [np.linalg.matrix_power(base, k) for k in range(1, rounds + 1)]
        tvs = [_tv_uniform(m[:, 0]) for m in powers]
        dps = [_allpairs_distance(m) for m in powers]
        caps = [dps[0] ** k for k in range(1, rounds + 1)]
        ks = np.arange(1, rounds + 1)
        _series(art, "tv per round", tvs, tol, "tv_to_uniform",
                lambda p: p["curves"]["tv_to_uniform"], "tv to uniform", ks)
        _series(art, "d(P^k) per round", dps, tol, "column_distance",
                lambda p: p["curves"]["column_distance"], "column distance", ks)
        if art.fmt != "svg":
            _series(art, "cap per round", caps, tol, "submultiplicative_cap",
                    lambda p: p["curves"]["submultiplicative_cap"], None)
        return _expected_exit(all(d <= c + 1e-9 for d, c in zip(dps, caps)))
    exact = np.linalg.matrix_power(base, rounds)[:, 0]
    trajectories = int(args["--trajectories"])
    x = np.arange(lattice.size)
    _series(art, "exact column", exact, tol, "exact",
            lambda p: p["curves"]["exact"], "exact", x)
    if art.fmt == "svg":
        empirical = art.series("empirical")[1]
        count_tol = art.series("empirical")[3] * trajectories
    else:
        empirical = (art.column("empirical") if art.fmt == "csv"
                     else np.array(art.payload["curves"]["empirical"]))
        count_tol = 1e-6
    counts = empirical * trajectories
    if np.any(np.abs(counts - np.round(counts)) > count_tol) or abs(counts.sum() - trajectories) > count_tol * lattice.size:
        raise Mismatch("empirical column is not a histogram of the trajectories")
    gap = 0.5 * float(np.abs(empirical - exact).sum())
    return _expected_exit(gap <= 3.0 * math.sqrt(lattice.size / trajectories))


def _check_mix_coordinate(job, art: Artifact) -> int:
    args = job["args"]
    dims = _dims(args["--dims"])
    epsilon = float(args["--epsilon"])
    matrices, alphas = [], []
    for n in dims:
        cycle = LatticeSpec((n,))
        col = np.abs(oracles.expm_amplitude_column(cycle, 0, n / 3.0)) ** 2
        matrices.append(_circulant(cycle, col))
        alphas.append(_allpairs_distance(matrices[-1]))
    if "--rounds" in args:
        per_axis = [int(args["--rounds"])] * len(dims)
    else:
        per_axis = [math.ceil(math.log(2.0 * math.e) / math.log(1.0 / a)) for a in alphas]
    sweeps = max(per_axis)
    factors = [np.eye(n)[0] for n in dims]
    tv = np.zeros((sweeps + 1, len(dims)))
    for sweep in range(sweeps + 1):
        for axis in range(len(dims)):
            if 0 < sweep <= per_axis[axis]:
                factors[axis] = matrices[axis] @ factors[axis]
            tv[sweep, axis] = _tv_uniform(factors[axis])
    joint = factors[0]
    for vec in factors[1:]:
        joint = np.multiply.outer(joint, vec)
    joint_tv = _tv_uniform(joint.ravel())
    sweeps_axis = np.arange(sweeps + 1)
    for axis in range(len(dims)):
        _series(art, f"factor {axis + 1} tv", tv[:, axis], EXPM, f"tv_factor{axis + 1}",
                lambda p, a=axis: np.array(p["factor_tv"])[:, a], f"factor {axis + 1}",
                sweeps_axis)
    if art.fmt == "json":
        _close("joint tv", art.payload["scalars"]["joint_tv"], joint_tv, EXPM)
        _close("contractions", art.payload["scalars"]["contractions"], alphas, EXPM)
        if list(art.payload["scalars"]["rounds_used"]) != per_axis:
            raise Mismatch("mix-coordinate rounds disagree")
    return _expected_exit(joint_tv <= epsilon and max(alphas) < 1.0)


def _dense_osc(n: int, offset: int, ts: np.ndarray) -> np.ndarray:
    """n^2 |<offset|exp(i t A/2)|0>|^2 minus its constant part, by dense eigh."""
    w, v = np.linalg.eigh(oracles.dense_cycle_adjacency(n))
    amp = np.exp(0.5j * np.multiply.outer(ts, w)) @ (v[offset] * v[0])
    return n * n * np.abs(amp) ** 2 - (n + (n * (offset == 0) - 1))


def _check_lemma2(job, art: Artifact) -> int:
    args = job["args"]
    n, T, offset = args["--n"], float(args["--T"]), args["--offset"]
    if art.fmt == "csv":
        lhs, rhs, ok = (float(art.column(k)[0]) for k in ("lhs", "rhs", "satisfied"))
    else:
        lhs, rhs, ok = art.payload["lhs"], art.payload["rhs"], art.payload["satisfied"]
    quad = oracles.simpson_integral(lambda ts: _dense_osc(n, offset, ts), 0.0, T, 0.01)
    _rel_close(f"lemma2 n={n} l={offset} T={T:.3f}", lhs, abs(quad), LEMMA2_REL)
    _rel_close("lemma2 cap", rhs, 32.0 * (n * math.log(n)) ** 2, 1e-12)
    if bool(ok) != (lhs <= rhs):
        raise Mismatch("lemma2 verdict disagrees")
    return _expected_exit(lhs <= rhs)


def _check_spectrum(job, art: Artifact) -> int:
    lattice = LatticeSpec(_dims(job["args"]["--dims"]))
    eigs = np.sort(np.linalg.eigvalsh(oracles.dense_walk_matrix(lattice)))
    gap = 1.0 - eigs[-2] if eigs.size > 1 else math.inf
    if art.fmt == "csv":
        factor = art.column("factor")
        tables = [art.column("eigenvalue")[factor == axis] for axis in range(lattice.d)]
        gaps = art.column("joint_gap")
    else:
        tables = [np.array(f["eigenvalues"]) for f in art.payload["factors"]]
        gaps = np.array([art.payload["spectral_gap"]])
    if len(tables) != lattice.d:
        raise Mismatch("spectrum factor count")
    for n, table in zip(lattice.dims, tables):
        dense = np.linalg.eigvalsh(oracles.dense_cycle_adjacency(n))
        _close(f"Z_{n} eigenvalues", np.sort(table), dense, SPECTRUM)
    _close("joint gap", gaps, np.full(gaps.size, gap), SPECTRUM)
    return 0


def _check_fig1(job, art: Artifact) -> int:
    n1, n2 = _dims(job["args"]["--dims"])
    t_max = int(job["args"]["--t-max"])
    lattice = LatticeSpec((n1, n2))
    u = 1.0 / (n1 * n2)
    walk = _dense_lazy(lattice)
    dist = np.zeros(lattice.size)
    dist[0] = 1.0
    returns, tvs = [], []
    for _ in range(max(t_max, n1 * n1 + n2 * n2) + 1):
        returns.append(dist[0])
        tvs.append(_tv_uniform(dist))
        dist = walk @ dist
    classical = np.cumsum(returns[: t_max + 1]) / np.arange(1, t_max + 2)
    T = np.arange(t_max + 1)
    _series(art, "classical return", classical, LAZY, "classical_return",
            lambda p: p["curves"]["classical_return"], "classical", T)
    if art.fmt == "svg":
        quantum = art.series("quantum")[1]
        q_tol = art.series("quantum")[3]
        _close("uniform level", art.series("uniform")[1], np.full(t_max + 1, u),
               art.series("uniform")[3])
    else:
        quantum = (art.column("quantum_return") if art.fmt == "csv"
                   else np.array(art.payload["curves"]["quantum_return"]))
        q_tol = 0.0
        _close("horizons", art.column("T") if art.fmt == "csv" else art.payload["curves"]["T"],
               T, 0.0)
    if quantum.size != t_max + 1:
        raise Mismatch("quantum curve length")
    want = [1.0] + [_eigen_averaged(lattice, float(h), slice(0, 1))[0] for h in T[1:]]
    _close("quantum return curve", quantum, want, ANALYTIC_VS_QUADRATURE + q_tol)
    for horizon in job["check"].get("quad_T", ()):
        _close(f"quantum return at T={horizon} vs quadrature", quantum[horizon],
               _quad_column(lattice, float(horizon))[0], ANALYTIC_VS_QUADRATURE + q_tol)
    mark = n1 + n2
    verdicts = (abs(quantum[mark] - u) <= 0.1 * (1.0 - u),
                abs(quantum[mark] - u) < abs(classical[mark] - u),
                tvs[n1 * n1 + n2 * n2] <= 0.1)
    return _expected_exit(all(verdicts))


_CHECKS = {
    "theorem3": _check_theorem3, "conjecture": _check_conjecture, "kernel": _check_kernel,
    "mix-classical": _check_mix_classical, "mix-repeated": _check_mix_repeated,
    "mix-coordinate": _check_mix_coordinate, "lemma2": _check_lemma2,
    "spectrum": _check_spectrum, "fig1": _check_fig1,
}


def check_job(job: dict, out: str, rc, error: str | None = None) -> list[str]:
    """Problems with one finished job; [] when it passed."""
    if error is not None:
        return [f"raised {error}"]
    if rc not in (0, 2):
        return [f"exit code {rc}"]
    if not os.path.exists(out):
        return ["no artifact"]
    try:
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        config = manifest["config"]
        if manifest["command"] != job["cmd"] or config["out"] != out or config["format"] != job["fmt"]:
            raise Mismatch("manifest does not echo the job")
        expected = _CHECKS[job["cmd"]](job, Artifact(out, job["fmt"]))
    except (Mismatch, OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    if rc != expected:
        return [f"exit code {rc}, but the checked verdicts give {expected}"]
    return []
