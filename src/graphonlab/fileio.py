"""Plain-text file formats.

Matrix:   first line `n`, optional second line `weights: w1 ... wn`,
          then n rows of n space-separated decimals. The rows are parsed
          straight from the stream: a row ends at a line break (\n, \r\n or
          \r) only, and any other whitespace, a form feed included,
          separates two numbers.
Step:     line `parts: s`, a line of n part labels (any integers; mapped to
          0..s-1 in sorted order; atoms are uniform), then s block rows.
Graph:    line `k m`, then m lines `u v` with 1-based vertex indices.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import tempfile
import warnings

import numpy as np

from .core import (
    DiscreteSpace,
    Kernel,
    SimpleGraph,
    StepFunction,
    _symmetrize_input,
    canonical_parts,
    kernel_from_matrix,
)
from .errors import GraphonError

_FLOAT_FMT = "%.17g"  # round-trips doubles exactly


class FormatError(ValueError):
    """Malformed input file."""


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _floats(source, shape: tuple[int, int], rows: str) -> np.ndarray:
    """The decimals of source, a list of lines or an iterable of them such
    as a text stream, parsed in one numpy call as an array of the given
    shape. Unreadable or ragged text, another row count (named as `rows`)
    and any other shape raise FormatError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            a = np.loadtxt(source, dtype=float, ndmin=2, comments=None)
        except UnicodeDecodeError:
            raise  # _utf8 names the file
        except ValueError as exc:
            raise FormatError(f"unreadable numbers: {exc}") from exc
    if a.shape[0] != shape[0]:
        raise FormatError(f"expected {shape[0]} {rows}, got {a.shape[0]}")
    if a.shape != shape:
        raise FormatError(f"expected {shape[0]}x{shape[1]} numbers, got {a.shape[0]}x{a.shape[1]}")
    return a


def _ints(tokens: list[str]) -> list[int]:
    try:  # int() rejects "1.5" and "1.0"; a float parse would truncate them
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"unreadable integer: {exc}") from exc


def _read_matrix(fh, head: str | None) -> Kernel:
    """The matrix file on the text stream fh after head, its first line that
    is not blank (None if none is): one np.loadtxt parses the rows after the
    optional weights line straight from the stream, holding no copy of the
    text. fh is only read forward, so a pipe or a FIFO serves as a file."""
    if head is None:
        raise FormatError("empty matrix file")
    try:
        n = int(head)
    except ValueError as exc:
        raise FormatError(f"first line must be the size, got {head!r}") from exc
    if n < 1:
        raise FormatError(f"size must be positive, got {n}")
    weights = None
    line = _next_line(fh)
    if line is not None and line.startswith("weights:"):
        try:
            weights = np.array(line.split(":", 1)[1].split(), dtype=float)
        except ValueError as exc:
            raise FormatError(f"unreadable weights: {exc}") from exc
        if weights.size != n:
            raise FormatError(f"expected {n} weights, got {weights.size}")
        rows = fh
    else:  # that line was the first row: put it back, as fh may not seek
        rows = itertools.chain([] if line is None else [line], fh)
    return kernel_from_matrix(_floats(rows, (n, n), "matrix rows"), weights)


def _next_line(fh) -> str | None:
    """The next line of fh that is not blank, stripped; None at the end."""
    for line in iter(fh.readline, ""):
        if line.strip():
            return line.strip()
    return None


def parse_matrix(text: str) -> Kernel:
    fh = io.StringIO(text, newline=None)
    return _read_matrix(fh, _next_line(fh))


def format_matrix(kernel: Kernel) -> str:
    out = [str(kernel.n)]
    w = kernel.space.weights
    if not np.allclose(w, 1.0 / kernel.n, rtol=0, atol=0):
        out.append("weights: " + " ".join(_FLOAT_FMT % x for x in w))
    for row in kernel.values:
        out.append(" ".join(_FLOAT_FMT % x for x in row))
    return "\n".join(out) + "\n"


def parse_step(text: str) -> StepFunction:
    lines = _lines(text)
    if not lines or not lines[0].startswith("parts:"):
        raise FormatError("step file must start with 'parts: s'")
    try:
        s = int(lines[0].split(":", 1)[1])
    except ValueError as exc:
        raise FormatError("unreadable part count") from exc
    if len(lines) != 2 + s:
        raise FormatError(f"expected a label line and {s} block rows, "
                          f"got {len(lines) - 1} lines after the header")
    raw = _ints(lines[1].split())
    space = DiscreteSpace.uniform(len(raw))
    labels, pw = canonical_parts(space, raw)
    if pw.size != s:
        raise FormatError(f"label line uses {pw.size} parts, header says {s}")
    block = _symmetrize_input(_floats(lines[2 : 2 + s], (s, s), "block rows"))
    return StepFunction(space, labels, block)


def format_step(sf: StepFunction) -> str:
    out = [f"parts: {sf.parts}"]
    out.append(" ".join(str(p + 1) for p in sf.part_of))
    for row in sf.block:
        out.append(" ".join(_FLOAT_FMT % x for x in row))
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> SimpleGraph:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty graph file")
    head = _ints(lines[0].split())
    if len(head) != 2:
        raise FormatError("first line must be 'k m'")
    k, m = head
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = set()
    for ln in lines[1:]:
        edge = _ints(ln.split())
        if len(edge) != 2:
            raise FormatError(f"edge line must be 'u v', got {ln!r}")
        edges.add(tuple(edge))
    try:  # no vertices, a loop, or a vertex outside 1..k
        return SimpleGraph(k, frozenset(edges))
    except ValueError as exc:
        raise FormatError(f"not a simple graph: {exc}") from exc


def format_graph(graph: SimpleGraph) -> str:
    out = [f"{graph.k} {graph.edge_count}"]
    for u, v in sorted(graph.edges):
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


@contextlib.contextmanager
def _utf8(path: str):
    """The file opened as UTF-8 text. Bytes that do not decode, and values
    or weights the data model rejects, are a FormatError naming the file,
    not the ValueError or GraphonError that reads as a numeric failure."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except GraphonError as exc:
            raise FormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def load_kernel(path: str) -> Kernel:
    with _utf8(path) as fh:
        return _read_matrix(fh, _next_line(fh))


def load_step(path: str) -> StepFunction:
    with _utf8(path) as fh:
        return parse_step(fh.read())


def load_graph(path: str) -> SimpleGraph:
    with _utf8(path) as fh:
        return parse_graph(fh.read())


def load_source(path: str) -> Kernel | StepFunction:
    """The step function in the file if its first line that is not blank
    starts with 'parts:', else the matrix kernel, from one forward read."""
    with _utf8(path) as fh:
        head = _next_line(fh)
        if head is not None and head.startswith("parts:"):
            return parse_step(head + "\n" + fh.read())
        return _read_matrix(fh, head)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never observe a half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
