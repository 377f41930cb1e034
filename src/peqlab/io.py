"""Output sinks: CSV time series, raw binary snapshots, and SVG plots.

CSV columns follow the frozen DiagRecord schema; floats carry 17 significant
digits so a written series round-trips losslessly and two identical runs
produce byte-identical files.

Snapshot layout: magic "PEQ1", three little-endian int32 dims (nx, ny, nz),
then the interior fields v1, v2, T, w as little-endian float64 in x-fastest
order, then the 2D surface pressure p_s.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagRecord
from .errors import ConfigError
from .grid import INTERIOR, INTERIOR2D
from .model import State

SNAPSHOT_MAGIC = b"PEQ1"
SNAPSHOT_FIELDS = ("v1", "v2", "T", "w", "p_s")


def write_csv(path, header, rows) -> list:
    """Write a header and rows of floats as CSV; returns the rows as a list.

    The first row is drawn before the file opens, so a row source that fails
    on it leaves no file; an empty one leaves the header alone.  Cells carry
    17 significant digits and every row is flushed as it comes, so a source
    that fails part-way leaves every row it gave.
    """
    rows = iter(rows)
    first = list(itertools.islice(rows, 1))
    table = []
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in itertools.chain(first, rows):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
                fh.flush()
                table.append(row)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return table


def write_timeseries(records: Sequence[DiagRecord], path) -> None:
    write_csv(path, CSV_COLUMNS, records)


def read_timeseries(path) -> dict:
    """Columns of a written time series as float arrays keyed by name.

    A file with no header, a header that names a column twice, a cell that
    is not a number or a row whose width differs from the header's raises
    ConfigError naming the path and the column or line.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read time series {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path}: empty time series, no header line")
    header = lines[0][1].split(",")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ConfigError(f"{path}: the header names the column {name} twice")
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}: line {lineno} has {len(cells)} cells, the header has {len(header)}")
        try:
            rows.append([float(tok) for tok in cells])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def write_snapshot(s: State, path) -> None:
    path = Path(path)
    nx, ny, nz = (dim - 2 for dim in s.v1.shape)
    try:
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(np.array([nx, ny, nz], dtype="<i4").tobytes())
            for name in SNAPSHOT_FIELDS:
                arr = getattr(s, name)
                interior = arr[INTERIOR2D] if name == "p_s" else arr[INTERIOR]
                fh.write(np.asarray(interior, dtype="<f8").ravel(order="F").tobytes())
    except OSError as exc:
        raise ConfigError(f"cannot write snapshot {path}: {exc}") from exc


def read_snapshot(path) -> dict:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ConfigError(f"{path}: not a PEQ1 snapshot")
    header = 4 + 12
    if len(raw) < header:
        raise ConfigError(f"{path}: truncated snapshot header ({len(raw)} of {header} bytes)")
    nx, ny, nz = (int(n) for n in np.frombuffer(raw, dtype="<i4", count=3, offset=4))
    shapes = {name: (nx, ny) if name == "p_s" else (nx, ny, nz) for name in SNAPSHOT_FIELDS}
    expected = header + 8 * sum(math.prod(shape) for shape in shapes.values())
    if min(nx, ny, nz) < 1 or len(raw) != expected:
        raise ConfigError(
            f"{path}: snapshot of dims {(nx, ny, nz)} should hold {expected} bytes, "
            f"file holds {len(raw)}"
        )
    out = {"dims": (nx, ny, nz)}
    offset = header
    for name, shape in shapes.items():
        count = math.prod(shape)
        vals = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        out[name] = vals.reshape(shape, order="F").copy()
        offset += count * 8
    return out


# ---------------------------------------------------------------------------
# minimal deterministic SVG line plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, n: int = 5):
    """About n round tick values in [lo, hi]; hi > lo, as plot_svg widens a zero span."""
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    # a step below half an ulp of v leaves v where it is: a span that floats barely resolve gets one tick
    while v <= hi + 1e-9 * span and v not in ticks[-1:]:
        ticks.append(v)
        v += step
    return ticks


def plot_svg(
    series: dict,
    path,
    title: str = "",
    log_y: bool = True,
) -> None:
    """Write a line plot of named series {name: (t, values)} to an SVG file.

    With log_y, non-positive samples are dropped from the drawn polyline.
    The title and the names are XML-escaped, as a file name may hold & or <.
    """
    # imported here: it pulls in urllib.request, tens of ms that no run should pay
    from xml.sax.saxutils import escape

    floor = 1e-300
    xs_all, ys_all = [], []
    cleaned = {}
    for name, (t, v) in series.items():
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        keep = np.isfinite(t) & np.isfinite(v)
        if log_y:
            keep &= v > floor
        t, v = t[keep], v[keep]
        cleaned[name] = (t, np.log10(v) if log_y else v)
        xs_all.extend(t.tolist())
        ys_all.extend(cleaned[name][1].tolist())
    if not xs_all:
        raise ConfigError("nothing to plot: all samples dropped")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>',
    ]
    axis = f'stroke="#333" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')
    for tx in _ticks(x0, x1):
        parts.append(
            f'<text x="{sx(tx):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y0, y1):
        label = f"1e{ty:.3g}" if log_y else f"{ty:.4g}"
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(ty) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{label}</text>'
        )
        parts.append(
            f'<line x1="{_ML}" y1="{sy(ty):.1f}" x2="{_W - _MR}" y2="{sy(ty):.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
    for i, (name, (t, v)) in enumerate(cleaned.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(t, v))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 5}" y="{_MT + 16 * (i + 1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{escape(name)}</text>'
        )
    parts.append("</svg>")
    path = Path(path)
    try:
        path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write plot {path}: {exc}") from exc
