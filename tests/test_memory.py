"""The memory budget of one decompose run: M = S + E + R is formed in one
work buffer beside its five results (M, the eigenvectors F, S, E and R), so
the traced peak stays near six n x n float64 arrays. Reading the matrix file
takes the parsed array and the kernel's own copy of it, symmetrized in
place."""

import contextlib
import io
import tracemalloc

import numpy as np

from graphonlab import kernel_from_matrix
from graphonlab.cli import EXIT_OK, main
from graphonlab.fileio import format_matrix, load_kernel

N = 400
BUDGET = 7  # n x n float64 arrays
LOAD_BUDGET = 2.5


def _planted(n, seed=1):
    """Four planted blocks plus 0.4 x symmetric uniform(-1, 1) noise,
    clipped to [-1, 1], so S + E is clamped and R is bracketed
    heuristically."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0, 1.0, (4, 4))
    block = np.triu(block) + np.triu(block, 1).T
    noise = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
    noise += np.triu(noise, 1).T
    labels = np.arange(n) % 4
    return np.clip(block[np.ix_(labels, labels)] + 0.4 * noise, -1.0, 1.0)


def _decompose(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == EXIT_OK
    return out.getvalue()


def test_one_decompose_run_peaks_below_seven_matrices(tmp_path):
    path = tmp_path / "planted.txt"
    path.write_text(format_matrix(kernel_from_matrix(_planted(N))))
    argv = ["decompose", "--input", str(path), "--epsilon", "0.3", "--F", "0.25*lambda*eps"]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        first = _decompose(argv)  # warm: imports and caches stay out of the peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        second = _decompose(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert first == second
    assert '"clamped": true' in first
    assert peak <= BUDGET * 8 * N * N, f"peak {peak / (8 * N * N):.2f} n x n arrays"


def _traced_peak(run):
    """run()'s traced peak above what was allocated before it, in n x n
    float64 arrays, after a warm call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        run()  # warm: imports and caches stay out of the peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * N * N)
    finally:
        if started:
            tracemalloc.stop()


def test_loading_a_matrix_file_peaks_below_two_and_a_half_matrices(tmp_path):
    path = tmp_path / "planted.txt"
    path.write_text(format_matrix(kernel_from_matrix(_planted(N))))
    peak = _traced_peak(lambda: load_kernel(str(path)))
    assert peak <= LOAD_BUDGET, f"peak {peak:.2f} n x n arrays"
