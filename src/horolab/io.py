"""Artifact output: the CSV schemas, atomic file writes, SVG line plots, and
run manifests shared by the command-line experiments; and the key = value
line reader of config and group files.

Floats are written with repr (shortest round-trip form), so identical
computations give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

__all__ = [
    "SERIES_HEADER",
    "ATOMS_HEADER",
    "QUADRATURE_HEADER",
    "atomic_write_text",
    "csv_text",
    "series_rows_csv_text",
    "atoms_csv_text",
    "quadrature_csv_text",
    "manifest_text",
    "line_plot_svg",
    "svg_from_series_csv",
    "key_value_lines",
]

SERIES_HEADER = ("abscissa", "value", "reference", "experiment_id", "seed")
ATOMS_HEADER = ("xi", "log_weight")
QUADRATURE_HEADER = ("psi_id", "estimate", "n_cells", "grid_h")


def atomic_write_text(path, text: str) -> None:
    """Whole-file write through a same-directory temp file plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".part-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def series_rows_csv_text(rows) -> str:
    """Series rows (abscissa, value, reference, experiment_id, seed) to CSV text."""
    return csv_text(SERIES_HEADER, rows)


def atoms_csv_text(measure) -> str:
    return csv_text(
        ATOMS_HEADER,
        zip((float(x) for x in measure.points), (float(w) for w in measure.log_weights)),
    )


def quadrature_csv_text(rows) -> str:
    """Rows are (psi_id, estimate, n_cells, grid_h)."""
    return csv_text(QUADRATURE_HEADER, rows)


def manifest_text(payload: dict) -> str:
    """Sorted, indented JSON; a NaN or infinite value raises ValueError,
    since JSON has no literal for it."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ------------------------------------------------------------------- plots


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def line_plot_svg(xs, ys, refs, title: str = "series") -> str:
    """Static line plot: the value series with markers, the reference dashed."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    refs = [float(v) for v in refs]
    if not xs:
        raise ValueError("nothing to plot")
    width, height = 720.0, 440.0
    left, right, top, bottom = 80.0, 24.0, 46.0, 56.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + refs), max(ys + refs)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    ]
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append(
        '<text x="%.1f" y="26" font-family="monospace" font-size="16">%s</text>'
        % (left, title)
    )
    # frame and ticks
    out.append(
        '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" '
        'stroke="#444" stroke-width="1"/>'
        % (left, top, width - left - right, height - top - bottom)
    )
    for tx in _ticks(x_lo, x_hi):
        out.append(
            '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>'
            % (px(tx), height - bottom, px(tx), height - bottom + 5)
        )
        out.append(
            '<text x="%.1f" y="%.1f" font-family="monospace" font-size="11" '
            'text-anchor="middle">%.4g</text>'
            % (px(tx), height - bottom + 18, tx)
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>'
            % (left - 5, py(ty), left, py(ty))
        )
        out.append(
            '<text x="%.1f" y="%.1f" font-family="monospace" font-size="11" '
            'text-anchor="end">%.4g</text>'
            % (left - 8, py(ty) + 4, ty)
        )
    ref_pts = " ".join("%.2f,%.2f" % (px(x), py(r)) for x, r in zip(xs, refs))
    out.append(
        '<polyline points="%s" fill="none" stroke="#b22" stroke-width="1.5" '
        'stroke-dasharray="6 4"/>' % ref_pts
    )
    val_pts = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in zip(xs, ys))
    out.append(
        '<polyline points="%s" fill="none" stroke="#16c" stroke-width="2"/>' % val_pts
    )
    for x, y in zip(xs, ys):
        out.append('<circle cx="%.2f" cy="%.2f" r="3" fill="#16c"/>' % (px(x), py(y)))
    out.append(
        '<text x="%.1f" y="%.1f" font-family="monospace" font-size="12">value'
        "</text>" % (width - right - 150, top + 16)
    )
    out.append(
        '<text x="%.1f" y="%.1f" font-family="monospace" font-size="12" '
        'fill="#b22">reference</text>' % (width - right - 150, top + 32)
    )
    out.append("</svg>\n")
    return "\n".join(out)


def svg_from_series_csv(text: str) -> str:
    """Render the plot straight from the text of a series CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("series CSV has no rows")
    xs = [float(r["abscissa"]) for r in rows]
    ys = [float(r["value"]) for r in rows]
    refs = [float(r["reference"]) for r in rows]
    return line_plot_svg(xs, ys, refs, rows[0]["experiment_id"] or "series")


def key_value_lines(text: str, error, at):
    """(line number, key, value) of each 'key = value' line of text, both
    stripped, '#' starting a comment; a line with no '=' or an empty key
    raises error, naming the line as at(line number) does."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error("%s: expected key = value, got %r" % (at(ln), raw.strip()))
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise error("%s: empty key" % at(ln))
        yield ln, key, val
