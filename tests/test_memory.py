"""Memory budgets, as traced peaks above what was allocated before a warm call.

One decompose run forms M = S + E + R in one work buffer beside its five
results (M, the eigenvectors F, S, E and R), so the traced peak stays near
six n x n float64 arrays. Reading the matrix file takes the parsed array and
the kernel's own copy of it, symmetrized in place. The exact sign-vector
engine holds its table of low-bit patterns beside one block of sign rows and
one walk chunk, also where a cut distance scores its descended alignments;
the Monte Carlo estimator holds the samples' values beside one chunk of
draws."""

import contextlib
import io
import tracemalloc

import numpy as np

from graphonlab import DiscreteSpace, StepFunction, cycle_graph, kernel_from_matrix
from graphonlab.cli import EXIT_OK, main
from graphonlab.cutnorm import _best_signs
from graphonlab.distance import delta_bracket
from graphonlab.fileio import format_matrix, load_kernel
from graphonlab.homdensity import hom_density_mc

from conftest import random_symmetric

N = 400
BUDGET = 7  # n x n float64 arrays
LOAD_BUDGET = 2.5
TABLE_BUDGET = 1.3  # the (b, n, 2^16) table of one exact cut norm
STACK_BUDGET = 1.2  # the (b, n, 2^(n-1)) tables of a distance stack
MC_BUDGET = 1.5  # the Monte Carlo samples' values


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


def _traced_peak(run, unit=8 * N * N):
    """run()'s traced peak above what was allocated before it, in units of
    unit bytes (default an n x n float64 array), after a warm call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        run()  # warm: imports and caches stay out of the peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / unit
    finally:
        if started:
            tracemalloc.stop()


def test_loading_a_matrix_file_peaks_below_two_and_a_half_matrices(tmp_path):
    path = tmp_path / "planted.txt"
    path.write_text(format_matrix(kernel_from_matrix(_planted(N))))
    peak = _traced_peak(lambda: load_kernel(str(path)))
    assert peak <= LOAD_BUDGET, f"peak {peak:.2f} n x n arrays"


def test_one_exact_cut_norm_peaks_below_its_table_and_a_third():
    # the full 2^16 x 16 sign matrix alone would be 0.73 tables
    n = 22
    a = random_symmetric(np.random.default_rng(1), n)[None]
    peak = _traced_peak(lambda: _best_signs(a), unit=8 * n * (1 << 16))
    assert peak <= TABLE_BUDGET, f"peak {peak:.2f} tables"


def test_a_distance_stack_peaks_below_its_tables_and_a_fifth():
    # each table is one block of sign rows, written with no temporary
    b, n = 4096, 8
    rng = np.random.default_rng(2)
    stack = np.stack([random_symmetric(rng, n) for _ in range(b)])
    peak = _traced_peak(lambda: _best_signs(stack), unit=8 * b * n * (1 << (n - 1)))
    assert peak <= STACK_BUDGET, f"peak {peak:.2f} tables"


def test_a_heuristic_cut_distance_peaks_below_one_table_and_a_third():
    # the 16 descended alignments are scored one at a time: at once, their
    # cut norms would hold 16 tables
    m = 22
    rng = np.random.default_rng(4)
    space = DiscreteSpace.uniform(m)
    sf1 = StepFunction(space, range(m), random_symmetric(rng, m, 0.0, 1.0))
    sf2 = StepFunction(space, range(m), random_symmetric(rng, m, 0.0, 1.0))
    assert delta_bracket(sf1, sf2, "cut").regime == "heuristic"
    peak = _traced_peak(lambda: delta_bracket(sf1, sf2, "cut"), unit=8 * m * (1 << 16))
    assert peak <= TABLE_BUDGET, f"peak {peak:.2f} tables"


def test_monte_carlo_peaks_below_its_values_and_a_half():
    # the deviations from the mean are formed in the values' own buffer
    samples = 10**6
    kernel = kernel_from_matrix(random_symmetric(np.random.default_rng(3), 200, 0.0, 1.0))
    peak = _traced_peak(lambda: hom_density_mc(cycle_graph(4), kernel, samples),
                        unit=8 * samples)
    assert peak <= MC_BUDGET, f"peak {peak:.2f} value arrays"
