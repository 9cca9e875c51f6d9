"""Command-line front end.

Every subcommand resolves its configuration from, in order of precedence,
command-line flags, an optional key=value config file, and built-in defaults.
Its runner returns one artifact (a JSON payload, the CSV columns, the plot
series and an exit code), which ``main`` writes in the requested format plus
a ``<out>.manifest.json`` sidecar echoing the resolved configuration.  Exit
codes: 0 on success, 2 when a checked bound is violated (the report is still
written), 1 on usage errors and when memory runs out.

Long jobs (``theorem3`` and a ``conjecture`` sweep over every pair in range)
refuse to run without ``--tier slow``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .classical import lazy_curves, lazy_kernel, lazy_mixing_bound
from .distances import distance_to_uniform, pairwise_column_distance
from .experiments import (
    coordinate_wise_run,
    repeated_measurement_run,
    return_probability_curves,
    uniformity_case_check,
)
from .kernels import (
    averaged_kernel_analytic,
    averaged_kernel_quadrature,
    instantaneous_kernel,
    kernel_power,
)
from .oscsums import (
    bound_row,
    bound_sweep,
    coprime_odd_pairs,
    integrated_osc_bound,
    integrated_osc_sum,
    sample_coprime_odd_pairs,
)
from .output import write_csv, write_json, write_manifest, write_svg
from .spectral import LatticeSpec, class_table, spectral_gap

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this front end reserves 2 for violations.

    A value like -1e3, -.5 or -inf is read as a value, not as a flag, so a
    float flag refuses it in one line like any other bad value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_pair(text: str) -> tuple[int, int]:
    pair = _parse_dims(text)
    if len(pair) != 2:
        raise ValueError("expected two comma-separated integers")
    return pair


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _parse_positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_horizon(text: str) -> float:
    value = _parse_finite(text)
    if value <= 0:
        raise ValueError("must be > 0")
    return value


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in ("true", "false"):
        raise ValueError("expected true or false")
    return word == "true"


class _Option(NamedTuple):
    """One flag of one subcommand; its dest is also its config-file key."""

    flag: str
    cast: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Artifact(NamedTuple):
    """One run's result; every output format is written from it."""

    payload: dict                 # the JSON document
    table: dict                   # CSV column name -> values, in column order
    plot: tuple | None            # (x_label, y_label, x, {legend: y}); None: no svg
    code: int = 0                 # exit code: 0, or 2 for a violated bound


class _Command(NamedTuple):
    run: Callable[[dict], _Artifact]
    help: str
    options: tuple[_Option, ...]


def _load_config_file(path: str, keys: set[str]) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r} in {path} (expected key=value)")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} in {path} "
                                 f"(expected one of {', '.join(sorted(keys))})")
            values[key] = value.strip()
    return values


def _resolve(command: str, args) -> dict:
    """Flags over config-file values over defaults, each cast and checked."""
    options = _COMMANDS[command].options
    keys = {opt.dest for opt in options}
    file_values = _load_config_file(args.config, keys) if args.config else {}
    resolved = {}
    for opt in options:
        text, source = getattr(args, opt.dest), opt.flag
        if text is None and opt.dest in file_values:
            text, source = file_values[opt.dest], f"config key {opt.dest}"
        if text is None:
            resolved[opt.dest] = opt.default
            continue
        try:
            value = opt.cast(text)
        except ValueError as exc:
            raise ValueError(f"bad {source} value {text!r}: {exc}") from None
        if opt.choices is not None and value not in opt.choices:
            raise ValueError(f"bad {source} value {text!r}: "
                             f"expected one of {', '.join(opt.choices)}")
        resolved[opt.dest] = value
    required = [opt for opt in options if opt.required]
    if any(resolved[opt.dest] is None for opt in required):
        flags = [opt.flag for opt in required]
        listed = ", ".join(flags[:-1]) + " and " if len(flags) > 1 else ""
        raise SystemExit(f"{command} requires {listed}{flags[-1]}")
    return resolved


def _workers(value) -> int:
    """Pool size from --parallel, else the core count.

    Never more than the cores: extra workers only contend for them.
    """
    cores = os.cpu_count() or 1
    return max(1, min(cores if value is None else value, cores))


def _decade_grid(t_max: float) -> list[float]:
    grid = []
    T = 10.0
    while T < t_max:
        grid.append(T)
        T *= 10.0
    grid.append(float(t_max))
    return grid


def _record_artifact(record, table: dict, plot: tuple, **fields) -> _Artifact:
    """An experiment record's artifact: config, scalars and verdicts, then `fields`."""
    payload = {"config": record.config, "scalars": record.scalars,
               "verdicts": record.verdicts, **fields}
    return _Artifact(payload, table, plot, 0 if record.all_passed else 2)


def _emit(resolved: dict, command: str, artifact: _Artifact) -> None:
    out = resolved["out"]
    fmt = resolved["format"]
    if fmt == "csv":
        write_csv(out, list(artifact.table), zip(*artifact.table.values()))
    elif fmt == "json":
        write_json(out, artifact.payload)
    else:
        write_svg(out, *artifact.plot)
    write_manifest(out, command, resolved, __version__)


# ---------------------------------------------------------------- subcommands

def _run_spectrum(resolved) -> _Artifact:
    lattice = LatticeSpec(resolved["dims"])
    gap = spectral_gap(lattice)
    factors = []
    for n in lattice.dims:
        # lambda_j = lambda_{n-j}: index j reads its mirror class min(j, n-j)
        classes = class_table(n)
        factors.append({"n": n, "eigenvalues": classes.lambdas[classes.mirror]})
    dims = list(lattice.dims)
    payload = {"dims": dims, "spectral_gap": gap, "factors": factors}
    table = {
        "factor": np.repeat(np.arange(lattice.d), dims),
        "n": np.repeat(dims, dims),
        "j": np.concatenate([np.arange(n) for n in dims]),
        "eigenvalue": np.concatenate([factor["eigenvalues"] for factor in factors]),
        "joint_gap": np.full(sum(dims), gap),
    }
    return _Artifact(payload, table, None)


def _run_kernel(resolved) -> _Artifact:
    lattice = LatticeSpec(resolved["dims"])
    kind = resolved["kind"]
    if kind == "instant":
        if resolved["t"] is None:
            raise SystemExit("kernel --kind instant requires --t")
        kernel = instantaneous_kernel(lattice, resolved["t"])
    elif kind == "averaged":
        if resolved["T"] is None:
            raise SystemExit("kernel --kind averaged requires --T")
        kernel = averaged_kernel_analytic(lattice, resolved["T"])
    elif kind == "averaged-quad":
        if resolved["T"] is None:
            raise SystemExit("kernel --kind averaged-quad requires --T")
        kernel = averaged_kernel_quadrature(lattice, resolved["T"], resolved["dt"])
    else:
        kernel = lazy_kernel(lattice)
    if resolved["power"] != 1:
        kernel = kernel_power(kernel, resolved["power"])

    column = kernel.first_column
    index = np.arange(lattice.size)
    coords = np.unravel_index(index, lattice.dims)
    payload = {
        "dims": list(lattice.dims),
        "kind": kernel.kind,
        "first_column": column,
        "tv_to_uniform": distance_to_uniform(kernel),
        "column_distance": pairwise_column_distance(kernel),
    }
    table = {
        "index": index,
        **{f"l{axis + 1}": coord for axis, coord in enumerate(coords)},
        "probability": column,
    }
    plot = ("vertex index", "probability", index, {"probability": column})
    return _Artifact(payload, table, plot)


def _run_mix_classical(resolved) -> _Artifact:
    lattice = LatticeSpec(resolved["dims"])
    bound = lazy_mixing_bound(lattice, resolved["epsilon"])
    t_max = resolved["t_max"] if resolved["t_max"] is not None else bound
    tvs, _ = lazy_curves(lattice, max(t_max, bound))
    tv_at_bound = float(tvs[bound])
    satisfied = tv_at_bound <= resolved["epsilon"]
    curve = {"t": np.arange(t_max + 1), "tv": tvs[: t_max + 1]}
    payload = {
        "dims": list(lattice.dims),
        "epsilon": resolved["epsilon"],
        "bound_steps": bound,
        "tv_at_bound": tv_at_bound,
        "satisfied": satisfied,
        "curve": curve,
    }
    plot = ("step", "tv", curve["t"], {"tv to uniform": curve["tv"]})
    return _Artifact(payload, curve, plot, 0 if satisfied else 2)


def _run_mix_coordinate(resolved) -> _Artifact:
    lattice = LatticeSpec(resolved["dims"])
    record = coordinate_wise_run(
        lattice, epsilon=resolved["epsilon"], rounds=resolved["rounds"]
    )
    factor_tv = record.curves["factor_tv"]
    sweeps = np.arange(factor_tv.shape[0])
    table = {"sweep": sweeps,
             **{f"tv_factor{axis + 1}": tv for axis, tv in enumerate(factor_tv.T)}}
    plot = ("sweep", "tv", sweeps,
            {f"factor {axis + 1}": tv for axis, tv in enumerate(factor_tv.T)})
    return _record_artifact(record, table, plot, warnings=record.warnings, factor_tv=factor_tv)


def _run_mix_repeated(resolved) -> _Artifact:
    lattice = LatticeSpec(resolved["dims"])
    record = repeated_measurement_run(
        lattice, resolved["T"], resolved["rounds"], mode=resolved["mode"],
        trajectories=resolved["trajectories"], seed=resolved["seed"],
    )
    curves = record.curves
    if resolved["mode"] == "exact":
        table = curves
        plot = ("rounds", "distance", curves["rounds"],
                {"tv to uniform": curves["tv_to_uniform"],
                 "column distance": curves["column_distance"]})
    else:
        index = np.arange(lattice.size)
        table = {"index": index, **curves}
        plot = ("vertex index", "probability", index, curves)
    return _record_artifact(record, table, plot, curves=curves)


def _run_lemma2(resolved) -> _Artifact:
    n, T, offset = resolved["n"], resolved["T"], resolved["offset"]
    payload = bound_row({"n": n, "offset": offset, "T": T},
                        abs(integrated_osc_sum(n, offset, T)), integrated_osc_bound(n))
    table = {key: [value] for key, value in payload.items()}
    return _Artifact(payload, table, None, 0 if payload["satisfied"] else 2)


def _run_conjecture(resolved) -> _Artifact:
    lo, hi = resolved["range"]
    if resolved["pairs"] is None:
        if resolved["tier"] != "slow":
            raise SystemExit(
                "a sweep over every pair in range is a slow-tier job; "
                "pass --tier slow to acknowledge, or sample with --pairs"
            )
        pairs = coprime_odd_pairs(lo, hi)
    else:
        pairs = sample_coprime_odd_pairs(lo, hi, resolved["pairs"], resolved["seed"])
    if not pairs:
        raise ValueError(f"range {lo},{hi} holds no coprime odd pair n1 > n2 >= 3")
    grid = _decade_grid(resolved["T_max"])
    reports = bound_sweep(
        pairs, grid, dt=resolved["dt"], offset=resolved["offset"],
        check_halving=resolved["halving"], workers=_workers(resolved["parallel"]),
    )
    payload = {
        "pair_count": len(pairs),
        "range": list(resolved["range"]),
        "T_grid": grid,
        "reports": reports,
    }
    columns = ("n1", "n2", "T", "lhs", "rhs", "satisfied")
    if resolved["halving"]:
        columns += ("halving_rel",)
    table = {key: [rep[key] for rep in reports] for key in columns}
    plot = ("report index", "integral value", np.arange(len(reports)),
            {"lhs": table["lhs"], "rhs": table["rhs"]})
    return _Artifact(payload, table, plot, 0 if all(table["satisfied"]) else 2)


def _run_theorem3(resolved) -> _Artifact:
    if resolved["tier"] != "slow":
        raise SystemExit("theorem3 is a slow-tier job; pass --tier slow to acknowledge")
    strict = not resolved["relaxed"]
    reports = uniformity_case_check(
        resolved["n1"], resolved["n2"], T=resolved["T"], strict=strict,
        checkpoint=resolved["checkpoint"],
    )
    payload = {
        "n1": resolved["n1"],
        "n2": resolved["n2"],
        "mode": "strict" if strict else "relaxed",
        "reports": reports,
    }
    table = {key: [rep[key] for rep in reports]
             for key in ("case", "lhs", "rhs", "satisfied")}
    violated = strict and not all(table["satisfied"])
    return _Artifact(payload, table, None, 2 if violated else 0)


def _run_fig1(resolved) -> _Artifact:
    dims = resolved["dims"]
    if len(dims) != 2:
        raise SystemExit("fig1 requires exactly two cycle lengths")
    record = return_probability_curves(dims[0], dims[1], t_max=resolved["t_max"])
    curves = record.curves
    uniform = np.full(curves["T"].size, record.scalars["uniform_level"])
    table = {**curves, "uniform_level": uniform}
    plot = ("averaging horizon T", "return probability", curves["T"],
            {"quantum": curves["quantum_return"],
             "classical": curves["classical_return"], "uniform": uniform})
    return _record_artifact(record, table, plot, curves=curves)


def _io(default_format: str, formats=("csv", "json", "svg")) -> tuple[_Option, ...]:
    """--out and --format, which every subcommand takes."""
    return (_Option("--out", required=True, help="output path"),
            _Option("--format", default=default_format, choices=formats))


_DIMS = _Option("--dims", _parse_dims, required=True,
                help="comma-separated cycle lengths, e.g. 19,5")
_TIER = _Option("--tier", default="fast", choices=("fast", "slow"))

# Each subcommand's runner, help and options.  The parser, the config file
# and the casts are all driven from here, so each option is declared once.
_COMMANDS = {
    "spectrum": _Command(_run_spectrum, "eigenvalue tables and the joint spectral gap", (
        _DIMS,
        *_io("csv", ("csv", "json")),
    )),
    "kernel": _Command(_run_kernel, "instantaneous, averaged, quadrature or lazy kernel column", (
        _DIMS,
        _Option("--kind", default="averaged",
                choices=("instant", "averaged", "averaged-quad", "lazy")),
        _Option("--t", _parse_finite, help="evolution time (instant kernel)"),
        _Option("--T", _parse_finite, help="averaging horizon"),
        _Option("--dt", _parse_finite, 0.02, help="quadrature step"),
        _Option("--power", _parse_count, 1,
                help="compose the kernel this many times; 0 gives the identity P^0"),
        *_io("csv"),
    )),
    "mix-classical": _Command(_run_mix_classical, "lazy-walk mixing curve and its step bound", (
        _DIMS,
        _Option("--epsilon", _parse_finite, 0.1),
        _Option("--t-max", _parse_count),
        *_io("csv"),
    )),
    "mix-coordinate": _Command(_run_mix_coordinate, "coordinate-at-a-time measured walk", (
        _DIMS,
        _Option("--epsilon", _parse_finite, 0.1),
        _Option("--rounds", _parse_count),
        *_io("json"),
    )),
    "mix-repeated": _Command(_run_mix_repeated, "repeated-measurement walk, exact or sampled", (
        _DIMS,
        _Option("--T", _parse_finite, required=True, help="averaging horizon"),
        _Option("--rounds", _parse_positive, 3),
        _Option("--mode", default="exact", choices=("exact", "sampled")),
        _Option("--trajectories", _parse_positive, 100_000),
        _Option("--seed", _parse_count, 0),
        *_io("csv"),
    )),
    "lemma2": _Command(_run_lemma2, "integrated oscillatory sum against its analytic cap", (
        _Option("--n", int, required=True),
        _Option("--T", _parse_finite, required=True),
        _Option("--offset", int, 0),
        *_io("json", ("csv", "json")),
    )),
    "conjecture": _Command(
        _run_conjecture, "product-integral bound sweep over coprime odd pairs", (
        _Option("--range", _parse_pair, (10, 100), help="lo,hi bounds for the cycle lengths"),
        _Option("--pairs", _parse_positive, help="sample size (>= 1); omit for every pair"),
        _Option("--seed", _parse_count, 0),
        _Option("--T-max", _parse_horizon, 10_000.0),
        _Option("--dt", _parse_finite, 0.02, help="quadrature step"),
        _Option("--offset", _parse_pair, (0, 0), help="per-factor offsets, e.g. 0,0"),
        _Option("--halving", _parse_bool, False,
                help="also integrate at dt/2 and report the relative step-halving gap"),
        _TIER,
        _Option("--parallel", _parse_positive, help="worker processes (default: cores)"),
        *_io("csv"),
    )),
    "theorem3": _Command(_run_theorem3, "averaged-kernel uniformity case check (slow tier)", (
        _Option("--n1", int, 95),
        _Option("--n2", int, 93),
        _Option("--T", _parse_finite, help="averaging horizon"),
        _Option("--relaxed", _parse_bool, False,
                help="report values without asserting the caps"),
        _Option("--checkpoint", help="resumable partial-sum file"),
        _TIER,
        *_io("json", ("csv", "json")),
    )),
    "fig1": _Command(_run_fig1, "quantum vs classical time-averaged return probability", (
        _Option("--dims", _parse_dims, (19, 5), help=_DIMS.help),
        _Option("--t-max", _parse_count),
        *_io("csv"),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole option tree, built once per process.

    parse_args leaves the parser unchanged and returns a fresh namespace,
    so every main() call can share it.
    """
    parser = _Parser(prog="latticemix", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key=value file merged under flags")
        for opt in command.options:
            if opt.cast is _parse_bool:
                # a bare switch; its value is cast like a config-file "true"
                p.add_argument(opt.flag, dest=opt.dest, action="store_const",
                               const="true", help=opt.help)
            else:
                # choices are checked in _resolve, for config-file values too
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                p.add_argument(opt.flag, dest=opt.dest, metavar=metavar, help=opt.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        resolved = _resolve(args.command, args)
        artifact = _COMMANDS[args.command].run(resolved)
        _emit(resolved, args.command, artifact)
        return artifact.code
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 1
        return exc.code if exc.code is not None else 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"latticemix {args.command}: {exc}\n")
        return 1
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        sys.stderr.write(f"latticemix {args.command}: out of memory: {detail}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
