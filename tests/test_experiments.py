"""The experiment drivers as library functions: plain values in, (results,
checks) out, and the CLI report carries exactly their rounded form."""

import json
import os
import re
import threading

import pytest

from graphonlab import DiscreteSpace, ProfileFunction, StepFunction, experiments
from graphonlab.cli import canonical_json, main
from graphonlab.errors import AllZeroSpectrum, EmptyPartError, WorkerError

CASES = {
    "circle": (
        ["--name", "circle", "--n", "32", "--ks", "3", "--seed", "1"],
        lambda: experiments.circle(32, [3], 1),
        {},
    ),
    "sphere": (
        ["--name", "sphere", "--dims", "2", "--count", "200", "--seeds", "1",
         "--seed", "1"],
        lambda: experiments.sphere([2], 200, [1], ProfileFunction.threshold(0.0)),
        {"f": "threshold:0"},  # the profile spec is flag text, echoed by the CLI
    ),
    "wrandom": (
        ["--name", "wrandom-convergence", "--counts", "60,240", "--runs", "3",
         "--seed", "0"],
        lambda: experiments.wrandom_convergence(
            experiments.builtin_rank3_step(), [60, 240], [0, 1, 2]),
        {},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_report_is_the_rounded_library_result(case, capsys):
    argv, library, cli_results = CASES[case]
    main(["experiment"] + argv)
    report = json.loads(capsys.readouterr().out)
    results, checks = library()
    assert checks and all(len(c) == 4 and c[3] in ("le", "ge") for c in checks)
    expected = json.loads(canonical_json({"results": {**results, **cli_results},
                                          "checks": checks}))
    assert report["results"] == expected["results"]
    assert [[c["name"], c["value"], c["bound"], c["op"]]
            for c in report["checks"]] == expected["checks"]
    # the decomposition target F is no input of any experiment
    assert "F" not in report["inputs"]


def _exact(obj) -> str:
    """Every float at full precision, arrays as lists."""
    return json.dumps(obj, sort_keys=True, default=lambda a: a.tolist())


@pytest.fixture
def pool(monkeypatch):
    # the pool runs however small the work, with two workers on any machine
    monkeypatch.setattr(experiments, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_pool_runs_the_units_in_other_processes(pool):
    pids = experiments._map_units(os.getpid, [(), (), ()], [1, 3, 2], 2)
    assert len(pids) == 3 and os.getpid() not in pids


def test_no_fork_while_another_thread_runs(pool):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        pids = experiments._map_units(os.getpid, [(), ()], [1, 1], 2)
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert pids == [os.getpid()] * 2


def _exit_outside(parent: int) -> int:
    """A unit that ends its process without returning, except in parent, so
    that a serial run can never end the test process."""
    if os.getpid() != parent:
        os._exit(1)
    return parent


def test_a_worker_that_dies_is_a_worker_error(pool):
    with pytest.raises(WorkerError, match="ended without returning"):
        experiments._map_units(_exit_outside, [(os.getpid(),)] * 2, [1, 1], 2)


@pytest.mark.parametrize("run", [
    lambda w: experiments.sphere([2, 3], 60, [1, 2], ProfileFunction.threshold(0.0),
                                 workers=w),
    lambda w: experiments.wrandom_convergence(
        experiments.builtin_rank3_step(), [40, 120], [0, 1, 2], workers=w),
], ids=["sphere", "wrandom"])
def test_pool_returns_the_serial_result(pool, run):
    # units of different sizes finish out of order; results keep index order
    assert _exact(run(2)) == _exact(run(1))


def test_worker_count_is_capped_by_units_and_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert experiments._worker_count(1, 6) == 1
    assert experiments._worker_count(2, 6) == 2
    assert experiments._worker_count(64, 6) == 3
    assert experiments._worker_count(64, 2) == 2
    assert experiments._worker_count(64, 1) == 1


@pytest.mark.parametrize("count, cores", [(3, 3), (None, 1)])
def test_worker_count_without_affinity_reads_the_cpu_count(monkeypatch, count, cores):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert experiments._worker_count(64, 6) == cores
    assert experiments._worker_count(1, 6) == 1


def test_wrandom_zero_source_raises_before_sampling(monkeypatch):
    def no_sample(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "w_random_sample", no_sample)
    zero = StepFunction(DiscreteSpace.uniform(3), [0, 1, 1], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(AllZeroSpectrum, match="no nonzero eigenvalue"):
        experiments.wrandom_convergence(zero, [20], [0])


@pytest.mark.parametrize("counts, seeds", [([1, 3], [0, 1]), ([1], [0, 1, 2])],
                         ids=["counts-1,3", "counts-1"])
def test_wrandom_sample_missing_a_part_raises(counts, seeds):
    # the sample's quotient block has fewer parts than the reference's: it
    # failed to broadcast, or a 1 x 1 block broadcast over the 3 x 3 one
    missed = "sample of 1 atoms at seed 0 misses source parts [0, 1]"
    with pytest.raises(EmptyPartError, match=re.escape(missed)):
        experiments.wrandom_convergence(experiments.builtin_rank3_step(), counts, seeds)


@pytest.mark.parametrize("run, builder, message", [
    (lambda: experiments.circle(16, [3, 5, 3], 0), "circle_halfplane_kernel", "ks repeats 3"),
    (lambda: experiments.sphere([2, 2], 50, [1], ProfileFunction.threshold(0.0)),
     "sphere_kernel", "dims repeats 2"),
    (lambda: experiments.sphere([2], 50, [1, 1], ProfileFunction.threshold(0.0)),
     "sphere_kernel", "seeds repeats 1"),
], ids=["circle-ks", "sphere-dims", "sphere-seeds"])
def test_repeated_unit_raises_before_building(monkeypatch, run, builder, message):
    # a repeated value ran the same unit twice under one check name
    def no_kernel(*args):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(experiments, builder, no_kernel)
    with pytest.raises(ValueError, match=message):
        run()


def test_wrandom_repeated_count_raises_before_sampling(monkeypatch):
    # [1600, 1600] drew every sample twice, and the report listed the count
    # twice but kept one per_count entry
    def no_sample(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "w_random_sample", no_sample)
    with pytest.raises(ValueError, match="counts repeats 60"):
        experiments.wrandom_convergence(experiments.builtin_rank3_step(), [60, 240, 60], [0])
