"""Self-contained SVG emission for spectrum stem plots, step-function block
heat maps, and eigenvalue trajectories. No plotting dependency; output is
deterministic for identical inputs.
"""

from __future__ import annotations

from .fileio import write_text_atomic

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
    'viewBox="0 0 %d %d">\n'
    '<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>\n'
)
_FOOTER = "</svg>\n"

_PALETTE = ["#1f6fb2", "#d1495b", "#3a9d6c", "#8c5fa8", "#c98a2b",
            "#4c4c4c", "#56b4e9", "#b25f1f", "#2c7c7c", "#a23fa2"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class SvgCanvas:
    """Minimal command buffer writing one standalone SVG document."""

    def __init__(self, width: int = 720, height: int = 480):
        self.width = width
        self.height = height
        self.commands: list[str] = []

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0, dash=None):
        dashed = "" if dash is None else f' stroke-dasharray="{dash}"'
        self.commands.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{dashed}/>'
        )

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.commands.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )

    def circle(self, x, y, r, fill="#000000"):
        self.commands.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def polyline(self, points, color="#000000", width=1.5):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.commands.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def text(self, x, y, s, size=12, color="#333333", anchor="start"):
        self.commands.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="monospace" fill="{color}" text-anchor="{anchor}">{s}</text>'
        )

    def save(self, path: str):
        head = _HEADER % (self.width, self.height, self.width, self.height,
                          self.width, self.height)
        write_text_atomic(path, head + "\n".join(self.commands) + "\n" + _FOOTER)


_MARGIN = 56.0


def _y_scale(lo: float, hi: float, height: float):
    span = hi - lo if hi > lo else 1.0

    def to_y(v: float) -> float:
        return _MARGIN + (hi - v) / span * (height - 2 * _MARGIN)

    return to_y


def spectrum_plot(eigenvalues, clusters, path: str) -> None:
    """Stem plot of the eigenvalues with alternating cluster shading."""
    canvas = SvgCanvas(720, 480)
    width, height = canvas.width, canvas.height
    n = len(eigenvalues)
    lo = min(0.0, min(eigenvalues))
    hi = max(0.0, max(eigenvalues))
    to_y = _y_scale(lo, hi, height)
    dx = (width - 2 * _MARGIN) / max(n, 1)
    for ci, (start, stop) in enumerate(clusters):
        if ci % 2 == 1:
            canvas.rect(_MARGIN + start * dx, _MARGIN,
                        (stop - start) * dx, height - 2 * _MARGIN, fill="#eef2f7")
    y0 = to_y(0.0)
    canvas.line(_MARGIN, y0, width - _MARGIN, y0, color="#888888")
    for i, lam in enumerate(eigenvalues):
        x = _MARGIN + (i + 0.5) * dx
        canvas.line(x, y0, x, to_y(lam), color=_PALETTE[0], width=2.0)
        canvas.circle(x, to_y(lam), 3.0, fill=_PALETTE[1])
    canvas.text(_MARGIN, _MARGIN - 16, "eigenvalues by decreasing magnitude")
    canvas.text(_MARGIN, height - _MARGIN + 24,
                f"n={n}, clusters={len(clusters)}", size=11)
    canvas.save(path)


def _gray(v: float, lo: float, hi: float) -> str:
    span = hi - lo if hi > lo else 1.0
    level = int(round(235 * (1.0 - (v - lo) / span)) + 10)
    level = min(245, max(10, level))
    return f"#{level:02x}{level:02x}{level:02x}"


def partition_plot(block, part_weights, path: str) -> None:
    """Block heat map of a step function; cell sizes follow part weights."""
    canvas = SvgCanvas(560, 560)
    s = len(block)
    flat = [v for row in block for v in row]
    lo, hi = min(flat), max(flat)
    side = canvas.width - 2 * _MARGIN
    edges = [0.0]
    for wgt in part_weights:
        edges.append(edges[-1] + wgt)
    for i in range(s):
        for j in range(s):
            x = _MARGIN + edges[j] * side
            y = _MARGIN + edges[i] * side
            canvas.rect(x, y, (edges[j + 1] - edges[j]) * side,
                        (edges[i + 1] - edges[i]) * side,
                        fill=_gray(block[i][j], lo, hi), stroke="#b0b0b0")
    canvas.text(_MARGIN, _MARGIN - 16,
                f"step function, {s} parts, values in [{_fmt(lo)}, {_fmt(hi)}]")
    canvas.save(path)


def trajectory_plot(sample_sizes, trajectories, path: str, reference) -> None:
    """One polyline per tracked eigenvalue across sample sizes, and a dashed
    reference line for each target value."""
    canvas = SvgCanvas(720, 480)
    width, height = canvas.width, canvas.height
    all_vals = [v for tr in trajectories for v in tr] + list(reference)
    lo = min(0.0, min(all_vals))
    hi = max(all_vals)
    to_y = _y_scale(lo, hi, height)
    xs = {
        n: _MARGIN + i * (width - 2 * _MARGIN) / max(len(sample_sizes) - 1, 1)
        for i, n in enumerate(sample_sizes)
    }
    y0 = to_y(0.0)
    canvas.line(_MARGIN, y0, width - _MARGIN, y0, color="#888888")
    for r in reference:
        canvas.line(_MARGIN, to_y(r), width - _MARGIN, to_y(r), color="#999999", dash="6 4")
    for ti, tr in enumerate(trajectories):
        pts = [(xs[n], to_y(v)) for n, v in zip(sample_sizes, tr)]
        canvas.polyline(pts, color=_PALETTE[ti % len(_PALETTE)])
        for x, y in pts:
            canvas.circle(x, y, 2.5, fill=_PALETTE[ti % len(_PALETTE)])
    for n in sample_sizes:
        canvas.text(xs[n], height - _MARGIN + 24, str(n), size=11, anchor="middle")
    canvas.text(_MARGIN, _MARGIN - 16, "eigenvalue trajectories by sample size")
    canvas.save(path)
