"""Parameter ranges are checked by the library function that reads them:
an argument outside its documented range raises errors.ParameterError, a
ValueError and a GraphonError, before any eigen-solve."""

import math

import numpy as np
import pytest

import graphonlab.cli
import graphonlab.regularity
from graphonlab import (
    ProfileFunction,
    cutnorm_bracket,
    delta_bracket,
    experiments,
    kernel_from_matrix,
    path_graph,
    regularity_decompose,
    symmetry_decompose,
)
from graphonlab.cutnorm import check_exact_limit
from graphonlab.ensembles import circle_halfplane_kernel, sphere_kernel, w_random_graph
from graphonlab.cli import EXIT_USAGE
from graphonlab.errors import (
    GraphonError,
    NotCoprimeError,
    ParameterError,
    TooManyVerticesError,
)
from graphonlab.fileio import format_matrix
from graphonlab.homdensity import hom_density_mc
from graphonlab.regularity import choose_threshold, cluster_eigenvectors
from graphonlab.spectral import decompose

from conftest import random_symmetric

SOURCE = experiments.builtin_rank3_step()
THRESHOLD = ProfileFunction.threshold(0.0)


def _f(lam, eps):
    return 0.25 * lam * eps


def _kernel(n):
    a = random_symmetric(np.random.default_rng(n), n)
    return kernel_from_matrix(a / np.abs(a).max())


# Each ran at the previous commit: it failed with an error that does not
# name the parameter, returned checks that pass vacuously, or was accepted.
CALLS = {
    "wrandom-without-seeds": lambda: experiments.wrandom_convergence(SOURCE, [50], []),
    "wrandom-without-counts": lambda: experiments.wrandom_convergence(SOURCE, [], [1]),
    "circle-without-factors": lambda: experiments.circle(16, [], 0),
    "sphere-without-dims": lambda: experiments.sphere([], 50, [1], THRESHOLD),
    "circle-factor-not-coprime": lambda: experiments.circle(16, [2], 0),
    "restarts-below-1-on-an-exact-input": lambda: cutnorm_bracket(_kernel(10), restarts=-3),
    "max-atoms-0": lambda: delta_bracket(SOURCE, SOURCE, max_atoms=0),
    "eps-inf": lambda: regularity_decompose(_kernel(10), _f, math.inf),
}

# The ranges the CLI checked itself before each was checked where it is read.
RANGES = {
    "wrandom-repeated-seed": lambda: experiments.wrandom_convergence(SOURCE, [50], [1, 1]),
    "sphere-without-seeds": lambda: experiments.sphere([2], 50, [], THRESHOLD),
    "circle-n-not-divisible-by-4": lambda: experiments.circle(30, [3], 0),
    "exact-limit-past-the-ceiling": lambda: check_exact_limit(27),
    "profile-table-of-one-value": lambda: ProfileFunction.from_table([1.0]),
    "profile-nan-cut": lambda: ProfileFunction.threshold(math.nan),
    "circle-kernel-n-6": lambda: circle_halfplane_kernel(6),
    "sphere-dim-0": lambda: sphere_kernel(0, THRESHOLD, 10),
    "sphere-one-point": lambda: sphere_kernel(2, THRESHOLD, 1),
    "wrandom-N-0": lambda: w_random_graph(_kernel(4), 0),
    "wrandom-source-outside-0-1": lambda: w_random_graph(
        kernel_from_matrix(-np.ones((3, 3))), 10),
    "samples-0": lambda: hom_density_mc(path_graph(2), _kernel(4), 0),
    "norm-unknown": lambda: delta_bracket(SOURCE, SOURCE, "L3"),
    "eps-0": lambda: regularity_decompose(_kernel(10), _f, 0.0),
    "eps-nan": lambda: regularity_decompose(_kernel(10), _f, math.nan),
}


@pytest.mark.parametrize("name", sorted(CALLS) + sorted(RANGES))
def test_out_of_range_raises_parameter_error_before_any_eigen_solve(name, monkeypatch):
    call = {**CALLS, **RANGES}[name]

    def no_solve(*args, **kwargs):
        raise AssertionError("an eigen-solve ran before the range check")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    with pytest.raises(ParameterError):
        call()


def test_circle_checks_every_factor_before_the_spectrum(monkeypatch):
    taken = []
    monkeypatch.setattr(experiments, "spectrum", lambda kernel: taken.append(kernel))
    with pytest.raises(NotCoprimeError):
        experiments.circle(16, [3, 2], 0)
    assert taken == []


def test_max_parts_and_eps_are_checked_by_the_clustering():
    dec = decompose(_kernel(10))
    lam, _ = choose_threshold(dec, _f, 0.3)
    for eps, max_parts in [(0.3, 0.0), (0.3, math.nan), (math.inf, 1e6), (-0.3, 1e6)]:
        with pytest.raises(ParameterError):
            cluster_eigenvectors(dec, lam, eps, max_parts=max_parts)
    with pytest.raises(ParameterError):
        choose_threshold(dec, _f, math.inf)


def _no_decomposition(*args, **kwargs):
    raise AssertionError("the decomposition ran before the max_parts check")


@pytest.mark.parametrize("max_parts", ["-1", "0", "nan"])
def test_decompose_cli_checks_max_parts_before_the_decomposition(max_parts, tmp_path,
                                                                 monkeypatch, capsys):
    path = tmp_path / "k.txt"
    path.write_text(format_matrix(_kernel(10)))
    monkeypatch.setattr(graphonlab.cli, "regularity_decompose", _no_decomposition)
    argv = ["decompose", "--input", str(path), "--epsilon", "0.3", "--max-parts", max_parts]
    assert graphonlab.cli.main(argv) == EXIT_USAGE
    assert "max_parts" in capsys.readouterr().err


@pytest.mark.parametrize("max_parts", [0.0, -1.0, math.nan])
def test_symmetry_decompose_checks_max_parts_before_decompose(max_parts, monkeypatch):
    monkeypatch.setattr(graphonlab.regularity, "decompose", _no_decomposition)
    with pytest.raises(ParameterError, match="max_parts"):
        symmetry_decompose(_kernel(10), _f, 0.3, max_parts=max_parts)


def test_parameter_error_is_a_value_error_and_a_graphon_error():
    assert issubclass(ParameterError, ValueError)
    assert issubclass(ParameterError, GraphonError)
    assert issubclass(NotCoprimeError, ParameterError)
    assert issubclass(TooManyVerticesError, ParameterError)
