"""The experiment drivers as library functions: plain values in, (results,
checks) out, and the CLI report carries exactly their rounded form."""

import json
import os
import threading

import pytest

from graphonlab import ProfileFunction, experiments
from graphonlab.cli import canonical_json, main

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
