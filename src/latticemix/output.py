"""Deterministic CSV/JSON/SVG emission for command-line runs.

Identical inputs must produce byte-identical files: floats are written with 17
significant digits (lossless round trip), JSON keys are sorted, line endings
are LF, and nothing time- or host-dependent is ever emitted.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 1


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _column_text(values) -> list[str]:
    """format_value of each entry of one column, with one formatter for a column of one kind."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return ["%.17g" % v for v in values]
    if kinds <= {int, np.int64}:
        return [str(v) for v in values]
    if kinds <= {bool, np.bool_}:
        return ["true" if v else "false" for v in values]
    return [format_value(v) for v in values]


def write_csv(path: str, header: list[str], rows) -> None:
    """Header, then one line per row; the rows are of equal length and formatted column by column."""
    columns = [_column_text(column) for column in zip(*rows)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _numpy_value(obj):
    """json's hook for the numpy arrays and scalars it cannot write itself."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str, payload: dict) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=_numpy_value,
                      allow_nan=False)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def write_manifest(out_path: str, command: str, config: dict, version: str) -> str:
    """Sidecar <out>.manifest.json echoing everything needed to re-run the job."""
    path = out_path + ".manifest.json"
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "tool": "latticemix",
        "tool_version": version,
        "command": command,
        "config": config,
    })
    return path


_SERIES_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")


def write_svg(path: str, x_label: str, y_label: str, x, series: dict) -> None:
    """Minimal static polyline chart: axes, up to four series over one x, a legend.

    `series` maps each legend name to its y values.  Hand-rolled on purpose;
    no plotting dependency, fully deterministic.
    """
    width, height = 800.0, 500.0
    margin = 60.0
    xs = np.asarray(x, dtype=float)
    ys_all = np.concatenate([np.asarray(y, dtype=float) for y in series.values()])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    # the same operations in the same order on arrays, so the same doubles
    px = sx(xs).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{margin:g}" y1="{height - margin:g}" x2="{width - margin:g}" '
        f'y2="{height - margin:g}" stroke="black"/>',
        f'<line x1="{margin:g}" y1="{margin:g}" x2="{margin:g}" '
        f'y2="{height - margin:g}" stroke="black"/>',
    ]
    for value, anchor, x, y, dy in (
        (x_lo, "middle", sx(x_lo), height - margin + 20, 0),
        (x_hi, "middle", sx(x_hi), height - margin + 20, 0),
        (y_lo, "end", margin - 8, sy(y_lo), 4),
        (y_hi, "end", margin - 8, sy(y_hi), 4),
    ):
        parts.append(
            f'<text x="{x:.2f}" y="{y + dy:.2f}" font-size="12" '
            f'text-anchor="{anchor}">{value:.6g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:g}" y="{height - 12:g}" font-size="14" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:g}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:g})">{y_label}</text>'
    )
    for idx, (name, ys) in enumerate(series.items()):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        py = sy(np.asarray(ys, dtype=float)).tolist()
        points = " ".join(f"{xv:.2f},{yv:.2f}" for xv, yv in zip(px, py))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = margin + 18 * idx
        parts.append(
            f'<line x1="{width - margin - 150:g}" y1="{ly:g}" '
            f'x2="{width - margin - 120:g}" y2="{ly:g}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 112:g}" y="{ly + 4:g}" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
