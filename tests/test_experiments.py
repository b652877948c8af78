"""The experiment drivers as library functions: plain values in, (results,
checks) out, and the CLI report carries exactly their rounded form."""

import json

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
