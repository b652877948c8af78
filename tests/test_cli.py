import json
import os
import pathlib
import shlex
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import graphonlab.cli
import graphonlab.regularity
from graphonlab import (
    DiscreteSpace,
    StepFunction,
    cycle_density_spectral,
    decompose,
    experiments,
    kernel_from_matrix,
)
from graphonlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_F,
    parse_profile,
)
from graphonlab.errors import EpsilonViolatedWarning, InvalidSpaceError, ParameterError
from graphonlab.fileio import format_matrix, format_step, load_kernel

from conftest import cycle_adjacency, random_symmetric


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def matrix_file(tmp_path, rng):
    k = kernel_from_matrix(random_symmetric(rng, 8))
    path = tmp_path / "kernel.txt"
    path.write_text(format_matrix(k))
    return str(path)


@pytest.fixture
def circle_file(tmp_path, capsys):
    path = tmp_path / "circle.txt"
    assert main(["make", "--ensemble", "circle", "--n", "8", "--output", str(path)]) == EXIT_OK
    capsys.readouterr()
    return str(path)


@pytest.fixture
def step_file(tmp_path):
    sf = StepFunction(DiscreteSpace.uniform(4), [0, 0, 1, 1],
                       [[0.9, 0.1], [0.1, 0.4]])
    path = tmp_path / "step.txt"
    path.write_text(format_step(sf))
    return str(path)


class TestParsers:
    def test_parse_F_family(self):
        F, desc = parse_F("0.25*lambda*eps")
        assert F(2.0, 0.4) == pytest.approx(0.25 * 2.0 * 0.4)
        assert desc == {"c": 0.25, "lambda_power": 1.0, "eps_power": 1.0}

    def test_parse_F_powers(self):
        F, _ = parse_F("0.1*lambda^2*eps^0.5")
        assert F(3.0, 4.0) == pytest.approx(0.1 * 9.0 * 2.0)

    def test_parse_F_constant(self):
        F, _ = parse_F("0.05")
        assert F(1.0, 9.0) == 0.05

    @pytest.mark.parametrize("spec", ["0*lambda", "-0.25*lambda*eps", "0.25*lambda*eps*0",
                                      "nan*lambda"])
    def test_parse_F_rejects_a_constant_that_is_not_positive(self, spec):
        with pytest.raises(ParameterError):
            parse_F(spec)

    @pytest.mark.parametrize("spec", ["inf", "inf*eps", "1e400", "1e400*lambda",
                                      "1e300*1e300"])
    def test_decompose_with_an_infinite_F_is_usage_error(self, spec, matrix_file, capsys):
        # each was accepted, and its check against F_at_run = inf raised a
        # TypeError out of main (exit 1 with a traceback)
        argv = ["decompose", "--input", matrix_file, "--epsilon", "0.3", "--F", spec]
        assert main(argv) == EXIT_USAGE
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, c", [("lambda*eps", 1.0), ("0.5*lambda*0.3", 0.5 * 0.3),
                                         ("0.1*0.2*0.3", 0.1 * 0.2 * 0.3), ("2*eps", 2.0)])
    def test_parse_F_constant_is_the_product_of_the_numbers(self, spec, c):
        assert parse_F(spec)[1]["c"] == c

    def test_parse_F_keeps_negative_powers(self):
        F, _ = parse_F("0.25*lambda^-1")
        assert F(0.5, 0.3) == pytest.approx(0.5)

    def test_parse_profile_kinds(self):
        assert parse_profile("threshold:0.2")(0.3) == 1.0
        assert parse_profile("linear")(np.array([0.5]))[0] == 0.5
        assert parse_profile("cos:1,0.5")(1.0) == pytest.approx(1.5)
        assert parse_profile("table:0,1")(np.array([1.0]))[0] == 1.0


class TestSubcommands:
    def test_spectrum(self, matrix_file, capsys):
        code, out = run_cli(["spectrum", "--input", matrix_file], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["schema_version"] == "graphonlab.report/1"
        assert len(rep["results"]["eigenvalues"]) == 8
        assert "runtime_seconds" not in rep

    def test_cutnorm(self, matrix_file, capsys):
        code, out = run_cli(["cutnorm", "--input", matrix_file, "--seed", "0"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["results"]["method"] == "exact"
        assert rep["results"]["lower"] == rep["results"]["upper"]

    def test_cutnorm_requires_seed(self, matrix_file, capsys):
        code, _ = run_cli(["cutnorm", "--input", matrix_file], capsys)
        assert code == EXIT_USAGE

    def test_decompose_checks_pass(self, tmp_path, rng, capsys):
        a = random_symmetric(rng, 12)
        k = kernel_from_matrix(a / max(1.0, np.abs(a).max()))
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(k))
        out_path = tmp_path / "report.json"
        code, out = run_cli(
            ["decompose", "--input", str(path), "--epsilon", "0.3",
             "--F", "0.25*lambda*eps", "--output", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out_path.read_text())
        assert all(c["pass"] for c in rep["checks"])
        assert json.loads(out) == rep

    @pytest.mark.parametrize("cap", ["1e6", "inf"])
    def test_decompose_high_rank(self, tmp_path, rng, capsys, cap):
        # noise kernel: the clustering bound (20km^3/eps)^k exceeds the float
        # range; the report still comes out, with a partition only when the
        # part cap is infinite
        path = tmp_path / "noise.txt"
        path.write_text(format_matrix(kernel_from_matrix(random_symmetric(rng, 150))))
        code, out = run_cli(["decompose", "--input", str(path), "--epsilon", "0.3",
                             "--max-parts", cap], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert (rep["results"]["partition"] is None) == (cap == "1e6")
        assert all(c["pass"] for c in rep["checks"])

    @pytest.mark.parametrize("eps", ["0.3", "0.1", "0.05", "0.02", "0.01"])
    def test_decompose_small_eps(self, tmp_path, capsys, eps):
        # every eps <= ~0.07 used to exit 3: the threshold probes underflowed
        # to 0 and F(0) = 0 raised NonDecreasingF
        path = tmp_path / "m.txt"
        a = random_symmetric(np.random.default_rng(40), 40)
        path.write_text(format_matrix(kernel_from_matrix(a)))
        code, out = run_cli(["decompose", "--input", str(path), "--epsilon", eps], capsys)
        assert code == EXIT_OK
        assert all(c["pass"] for c in json.loads(out)["checks"])

    def test_decompose_one_decomposition(self, matrix_file, capsys, monkeypatch):
        calls = []
        real = graphonlab.regularity.decompose
        for module in (graphonlab.regularity, graphonlab.cli):
            monkeypatch.setattr(module, "decompose", lambda k: calls.append(k) or real(k))
        code, out = run_cli(["decompose", "--input", matrix_file, "--epsilon", "0.3",
                             "--max-parts", "inf"], capsys)
        assert code == EXIT_OK
        assert len(calls) == 1
        assert len(json.loads(out)["results"]["eigenvalues"]) == 8

    def test_decompose_reports_a_violated_eps(self, tmp_path, capsys):
        # a noisy 3-block kernel whose clamped E lands just above eps
        rng = np.random.default_rng(1667)
        n = rng.integers(3, 30)
        lab = rng.integers(0, 3, n)
        b = rng.uniform(-1, 1, (3, 3))
        a = b[np.ix_(lab, lab)] + 0.5 * rng.uniform(-1, 1, (n, n))
        a = np.clip(np.triu(a) + np.triu(a, 1).T, -1, 1)
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(kernel_from_matrix(a)))
        with pytest.warns(EpsilonViolatedWarning):
            code, out = run_cli(["decompose", "--input", str(path), "--epsilon", "0.1",
                                 "--F", "4*lambda*eps"], capsys)
        assert code == EXIT_CHECK_FAILED
        rep = json.loads(out)
        certs = rep["results"]["certificates"]
        assert certs["clamped"] and certs["epsilon_violated"]
        assert certs["E_l2"] == pytest.approx(0.100283294045, rel=1e-9)
        assert [c["name"] for c in rep["checks"] if not c["pass"]] == ["E_l2_within_eps"]

    def test_decompose_zero_kernel_is_one_zero_part(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("3\n0 0 0\n0 0 0\n0 0 0\n")
        code, out = run_cli(["decompose", "--input", str(path), "--epsilon", "0.3"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        part = rep["results"]["partition"]
        assert part["labels"] == [0, 0, 0]
        assert part["block"] == [[0.0]]
        assert part["part_weights"] == [1.0]
        assert len(rep["checks"]) == 5 and all(c["pass"] for c in rep["checks"])

    def test_density_step_exact(self, step_file, capsys):
        code, out = run_cli(
            ["density", "--input", step_file, "--graph", "triangle"], capsys
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["results"]["method"] == "exact_step"
        assert rep["results"]["stderr"] == 0.0

    def test_density_matrix_mc(self, matrix_file, capsys):
        # past the exact vertex cap a matrix kernel is always sampled
        code, out = run_cli(
            ["density", "--input", matrix_file, "--graph", "cycle_11",
             "--samples", "500", "--seed", "3"],
            capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["results"]["method"] == "monte_carlo"
        assert rep["results"]["samples"] == 500
        assert "spectral_value" not in rep["results"]

    def test_density_of_every_cycle_is_the_trace_formula(self, matrix_file, tmp_path, capsys):
        # read off the parsed graph, not its name: 'triangle' and a cycle
        # read from a file are cycles too; the exact contraction equals
        # t(C_k, W) = sum of lambda_i^k up to the report's 12 digits
        def density(graph):
            code, out = run_cli(["density", "--input", matrix_file, "--graph", graph,
                                 "--samples", "1000", "--seed", "3"], capsys)
            assert code == EXIT_OK
            results = json.loads(out)["results"]
            assert results["method"] == "exact_matrix" and "spectral_value" not in results
            return results["value"]

        dec = decompose(load_kernel(matrix_file))
        square = tmp_path / "square.graph"
        square.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
        for graph, k in (("triangle", 3), ("cycle_3", 3), ("cycle_4", 4), (str(square), 4)):
            assert density(graph) == pytest.approx(cycle_density_spectral(dec, k).value,
                                                   rel=1e-11, abs=1e-15)

    def test_distance(self, step_file, tmp_path, capsys):
        other = tmp_path / "step2.txt"
        sf = StepFunction(DiscreteSpace.uniform(4), [0, 0, 1, 1],
                           [[0.4, 0.1], [0.1, 0.9]])
        other.write_text(format_step(sf))
        code, out = run_cli(
            ["distance", step_file, str(other), "--norm", "l2", "--seed", "0"],
            capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["results"]["upper"] == pytest.approx(0.0, abs=1e-12)

    def test_make_circle_and_spectrum(self, tmp_path, capsys):
        out_file = tmp_path / "circle.txt"
        code, _ = run_cli(
            ["make", "--ensemble", "circle", "--n", "16", "--output", str(out_file)],
            capsys,
        )
        assert code == EXIT_OK
        code, out = run_cli(["spectrum", "--input", str(out_file)], capsys)
        assert code == EXIT_OK

    def test_make_sphere_default_profile(self, tmp_path, capsys):
        code, out = run_cli(
            ["make", "--ensemble", "sphere", "--dim", "2", "--N", "30", "--seed", "0",
             "--output", str(tmp_path / "s.txt")],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["results"]["params"]["f"] == "threshold:0"

    def test_make_needs_seed_for_sphere(self, tmp_path, capsys):
        code, _ = run_cli(
            ["make", "--ensemble", "sphere", "--dim", "2", "--N", "30",
             "--output", str(tmp_path / "s.txt")],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_experiment_circle(self, capsys):
        code, out = run_cli(
            ["experiment", "--name", "circle", "--n", "32", "--ks", "3",
             "--seed", "1"],
            capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        names = {c["name"] for c in rep["checks"]}
        assert "density_agreement_k3" in names
        assert "cut_separation_k3" in names
        assert all(c["pass"] for c in rep["checks"])

    def test_experiment_sphere_small(self, capsys):
        code, out = run_cli(
            ["experiment", "--name", "sphere", "--dims", "2", "--count", "200",
             "--seeds", "1", "--seed", "1"],
            capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        names = {c["name"] for c in rep["checks"]}
        assert {"quasirandom_dim2_seed1", "quasirandom_upper_dim2_seed1"} <= names
        assert all(c["pass"] for c in rep["checks"])

    def test_experiment_wrandom_small(self, capsys):
        code, out = run_cli(
            ["experiment", "--name", "wrandom-convergence", "--counts", "60,240",
             "--runs", "3", "--seed", "0"],
            capsys,
        )
        rep = json.loads(out)
        assert "trajectories" in rep["results"]
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)  # small sizes may miss rank

    def test_experiment_wrandom_constant_source(self, tmp_path, capsys):
        # sampling from the constant-1/2 graphon: the top eigenvalue
        # concentrates near 1/2 already at N = 200
        src = tmp_path / "const.step"
        src.write_text("parts: 1\n1 1\n0.5\n")
        code, out = run_cli(
            ["experiment", "--name", "wrandom-convergence", "--counts", "50,200",
             "--runs", "3", "--seed", "0", "--input", str(src)],
            capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["results"]["source_rank"] == 1
        top_at_200 = rep["results"]["per_count"]["200"]["median_top_eigenvalues"][0]
        assert abs(top_at_200 - 0.5) <= 0.1

    def test_experiment_wrandom_zero_source(self, tmp_path, capsys):
        # failed on a reduction over no nonzero eigenvalue
        src = tmp_path / "zero.step"
        src.write_text("parts: 1\n1 1\n0\n")
        code = main(["experiment", "--name", "wrandom-convergence", "--counts", "50",
                     "--runs", "1", "--seed", "0", "--input", str(src)])
        assert code == EXIT_NUMERIC
        assert "AllZeroSpectrum" in capsys.readouterr().err

    @pytest.mark.parametrize("counts, runs", [("1,3", "2"), ("1", "3")])
    def test_experiment_wrandom_sample_missing_a_part(self, capsys, counts, runs):
        code = main(["experiment", "--name", "wrandom-convergence", "--counts", counts,
                     "--runs", runs, "--seed", "0"])
        assert code == EXIT_NUMERIC
        assert "EmptyPartError" in capsys.readouterr().err

    def test_plot_spectrum(self, matrix_file, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code, out = run_cli(
            ["spectrum", "--input", matrix_file, "--output", str(report)], capsys
        )
        assert code == EXIT_OK
        svg = tmp_path / "spec.svg"
        code, _ = run_cli(
            ["plot", "--input", str(report), "--kind", "spectrum",
             "--output", str(svg)],
            capsys,
        )
        assert code == EXIT_OK
        root = ET.parse(str(svg)).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root)) > 8

    def test_plot_partition_and_trajectory(self, tmp_path, rng, capsys):
        a = random_symmetric(rng, 10)
        k = kernel_from_matrix(a / max(1.0, np.abs(a).max()))
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(k))
        rep_path = tmp_path / "dec.json"
        code, _ = run_cli(
            ["decompose", "--input", str(path), "--epsilon", "0.4",
             "--output", str(rep_path), "--max-parts", "1e18"],
            capsys,
        )
        assert code == EXIT_OK
        svg = tmp_path / "part.svg"
        code, _ = run_cli(
            ["plot", "--input", str(rep_path), "--kind", "partition",
             "--output", str(svg)],
            capsys,
        )
        assert code == EXIT_OK
        ET.parse(str(svg))

        code, _ = run_cli(
            ["experiment", "--name", "wrandom-convergence", "--counts", "50,100",
             "--runs", "2", "--seed", "0", "--output", str(tmp_path / "wr.json")],
            capsys,
        )
        svg2 = tmp_path / "traj.svg"
        code, _ = run_cli(
            ["plot", "--input", str(tmp_path / "wr.json"), "--kind", "trajectory",
             "--output", str(svg2)],
            capsys,
        )
        assert code == EXIT_OK
        ET.parse(str(svg2))

    @pytest.mark.parametrize("kind, results", [
        ("partition", {"partition": {"part_weights": [1.0]}}),
        ("trajectory", {"trajectories": [[0.5]], "source_top_eigenvalues": [0.5]}),
        ("spectrum", {"eigenvalues": ["x"], "clusters": [[0]]}),
        ("partition", {"partition": [1, 2]}),
        ("spectrum", {"eigenvalues": [], "clusters": []}),
    ])
    def test_plot_of_a_malformed_series_is_input_error(self, kind, results, tmp_path,
                                                       capsys):
        # each raised KeyError or TypeError out of main (exit 1 with a
        # traceback), and the empty spectrum exited 3 as a numeric failure
        rep = tmp_path / "r.json"
        rep.write_text(json.dumps({"results": results}))
        argv = ["plot", "--input", str(rep), "--kind", kind,
                "--output", str(tmp_path / "x.svg")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(rep) in err and f"malformed {kind} series" in err

    def test_plot_missing_series_is_usage_error(self, matrix_file, tmp_path, capsys):
        rep = tmp_path / "r.json"
        code, _ = run_cli(["spectrum", "--input", matrix_file, "--output", str(rep)],
                          capsys)
        code, _ = run_cli(
            ["plot", "--input", str(rep), "--kind", "trajectory",
             "--output", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == EXIT_USAGE


_BLOCK_LABELS = np.arange(60) % 3
_HALVES = np.arange(40) < 20
LOW_RANK = {
    **{f"cycle{n}": cycle_adjacency(n) for n in (8, 12, 30, 64)},
    "block3x60": np.array([[0.9, 0.2, 0.4], [0.2, 0.6, 0.1],
                           [0.4, 0.1, 0.8]])[np.ix_(_BLOCK_LABELS, _BLOCK_LABELS)],
    "bipartite40": (_HALVES[:, None] != _HALVES[None, :]).astype(float),
    "constant10": np.full((10, 10), 0.5),
}


@pytest.mark.parametrize("eps", ["0.1", "0.3", "0.5"])
@pytest.mark.parametrize("name", [*LOW_RANK, "cayley16"])
def test_decompose_passes_its_checks_on_low_rank_kernels(name, eps, tmp_path, capsys):
    # the zero eigenspace of an exactly low-rank kernel comes out of eigh as a
    # cluster of noise; a threshold cut under it held R to an F of that noise,
    # and the cycles and the block kernel failed R_cut_upper_within_F (exit 1)
    path = tmp_path / "k.txt"
    if name == "cayley16":  # the 16-cycle, made through the CLI
        f = ",".join("1" if x in (1, 15) else "0" for x in range(16))
        argv = ["make", "--ensemble", "cayley", "--n", "16", "--f", f, "--output", str(path)]
        assert run_cli(argv, capsys)[0] == EXIT_OK
    else:
        path.write_text(format_matrix(kernel_from_matrix(LOW_RANK[name])))
    assert run_cli(["decompose", "--input", str(path), "--epsilon", eps], capsys)[0] == EXIT_OK


class TestReportSchema:
    def test_reports_validate_and_pass_flags_recompute(self, tmp_path, rng, capsys):
        import jsonschema

        from graphonlab.cli import REPORT_SCHEMA

        a = random_symmetric(rng, 10)
        k = kernel_from_matrix(a / max(1.0, np.abs(a).max()))
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(k))
        invocations = [
            ["spectrum", "--input", str(path)],
            ["cutnorm", "--input", str(path), "--seed", "0"],
            ["decompose", "--input", str(path), "--epsilon", "0.3"],
            ["experiment", "--name", "circle", "--n", "16", "--ks", "3",
             "--seed", "0"],
        ]
        for argv in invocations:
            code, out = run_cli(argv, capsys)
            rep = json.loads(out)
            jsonschema.validate(rep, REPORT_SCHEMA)
            for check in rep["checks"]:
                expected = (check["value"] <= check["bound"]
                            if check["op"] == "le"
                            else check["value"] >= check["bound"])
                assert check["pass"] == expected


class TestExitCodes:
    def test_usage_error_on_missing_input(self, capsys):
        assert run_cli(["spectrum"], capsys)[0] == EXIT_USAGE

    def test_usage_error_on_unknown_flag(self, capsys):
        assert run_cli(["spectrum", "--nope"], capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--input", "{bad}"],
        ["density", "--input", "{bad}", "--graph", "edge"],
        ["density", "--input", "{step}", "--graph", "{bad}"],
    ])
    def test_file_that_is_not_utf8_is_input_error(self, argv, step_file, tmp_path, capsys):
        # the decode error used to reach main as a numeric failure (exit 3)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe2\n0 1\n1 0\n")
        files = {"{bad}": str(bad), "{step}": step_file}
        assert run_cli([files.get(a, a) for a in argv], capsys)[0] == EXIT_USAGE

    def test_step_file_with_an_extra_row_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("parts: 2\n1 1 2 2\n0.9 0.1\n0.1 0.4\n7 7\n")
        argv = ["density", "--input", str(path), "--graph", "edge"]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["density", "--input", "{bad}", "--graph", "edge"],
        ["distance", "{step}", "{bad}", "--seed", "0"],
    ], ids=["density", "distance"])
    def test_step_with_an_asymmetric_block_is_input_error(self, argv, step_file, tmp_path,
                                                          capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("parts: 2\n1 1 2 2\n0 1\n0 0\n")
        files = {"{bad}": str(bad), "{step}": step_file}
        assert run_cli([files.get(a, a) for a in argv], capsys)[0] == EXIT_USAGE

    def test_sphere_with_seeds_needs_no_seed(self, capsys):
        # --seed was required although --seeds wins; it is still echoed when given
        argv = ["experiment", "--name", "sphere", "--dims", "2", "--count", "50", "--seeds", "1"]
        code, out = run_cli(argv, capsys)
        assert code == EXIT_OK
        code, with_seed = run_cli(argv + ["--seed", "99"], capsys)
        assert code == EXIT_OK
        alone, given = json.loads(out), json.loads(with_seed)
        assert "seed" not in alone["inputs"] and given["inputs"]["seed"] == 99
        assert (alone["results"], alone["checks"]) == (given["results"], given["checks"])

    @pytest.mark.parametrize("text", [
        "2\n0 abc\n1 0\n", "2\n0 1\n1\n", "0\n",
        # values or weights the data model rejects: asymmetric, NaN, a sum of 1.4
        "2\n0 1\n2 0\n", "2\n0 nan\nnan 0\n", "2\nweights: 0.7 0.7\n0 1\n1 0\n",
    ])
    def test_unreadable_matrix_is_input_error(self, tmp_path, capsys, text):
        # a non-numeric token, a ragged row or a value the data model rejects
        # is bad input (exit 2), not a numeric failure (exit 3)
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main(["spectrum", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("argv", [
        ["experiment", "--name", "circle", "--ks", "3,x", "--seed", "0"],
        ["experiment", "--name", "sphere", "--dims", "2,x", "--seed", "0"],
        ["experiment", "--name", "sphere", "--seeds", "1,z", "--seed", "0"],
        ["experiment", "--name", "sphere", "--f", "threshold:abc", "--seed", "0"],
        ["experiment", "--name", "wrandom-convergence", "--counts", "50,y", "--seed", "0"],
        ["experiment", "--name", "regularity", "--input", "{matrix}", "--epsilon", "0.3"],
        ["make", "--ensemble", "cayley", "--n", "4", "--f", "0,1,a,1", "--output", "{out}"],
        ["make", "--ensemble", "sphere", "--dim", "2", "--N", "30", "--f", "threshold:abc",
         "--seed", "0", "--output", "{out}"],
        ["density", "--input", "{step}", "--graph", "cycle_2"],
        ["density", "--input", "{step}", "--graph", "path_0"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--exact-limit", "40"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--F", "0.25**lambda"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--F", "0.25*mu"],
        ["experiment", "--name", "circle", "--ks", ",", "--seed", "0"],
        ["make", "--ensemble", "sphere", "--dim", "2", "--N", "30", "--f", "cubic",
         "--seed", "0", "--output", "{out}"],
        # a seed is needed, by sphere only without --seeds
        ["experiment", "--name", "circle"],
        ["experiment", "--name", "wrandom-convergence"],
        ["experiment", "--name", "sphere", "--dims", "2", "--count", "50"],
    ])
    def test_malformed_or_ignored_flag_is_usage_error(self, argv, matrix_file, step_file,
                                                      tmp_path, capsys):
        files = {"{matrix}": matrix_file, "{step}": step_file,
                 "{out}": str(tmp_path / "k.txt")}
        argv = [files.get(a, a) for a in argv]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("graph, reason", [
        ("cycle_2", "cycles need at least 3 vertices"),
        ("path_0", "vertex count must be positive"),
        ("square", "unknown template graph 'square'"),
    ])
    def test_graph_name_error_gives_the_builtin_reason(self, graph, reason, step_file,
                                                       capsys):
        code = main(["density", "--input", step_file, "--graph", graph])
        assert code == EXIT_USAGE
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["experiment", "--name", "circle", "--n", "30", "--seed", "0"],
        ["experiment", "--name", "circle", "--n", "0", "--seed", "0"],
        ["experiment", "--name", "circle", "--n", "32", "--ks", "4", "--seed", "0"],
        ["experiment", "--name", "sphere", "--dims", "0", "--count", "50", "--seeds", "1",
         "--seed", "0"],
        ["experiment", "--name", "sphere", "--count", "1", "--seeds", "1", "--seed", "0"],
        ["experiment", "--name", "sphere", "--f", "table:1", "--seed", "0"],
        ["experiment", "--name", "wrandom-convergence", "--counts", "0,10", "--seed", "0"],
        ["experiment", "--name", "wrandom-convergence", "--counts", "10,20", "--runs", "0",
         "--seed", "0"],
        # drew the same samples twice and exited 0
        ["experiment", "--name", "wrandom-convergence", "--counts", "1600,1600", "--runs", "1",
         "--seed", "0"],
        # ran the same unit twice under one check name and exited 0
        ["experiment", "--name", "circle", "--n", "16", "--ks", "3,3", "--seed", "0"],
        ["experiment", "--name", "sphere", "--dims", "2,2", "--count", "50", "--seeds", "1",
         "--seed", "0"],
        ["experiment", "--name", "sphere", "--dims", "2", "--count", "50", "--seeds", "1,1",
         "--seed", "0"],
        ["make", "--ensemble", "sphere", "--dim", "2", "--N", "10", "--f", "table:1",
         "--seed", "0", "--output", "{out}"],
        ["make", "--ensemble", "sphere", "--dim", "0", "--N", "10", "--seed", "0",
         "--output", "{out}"],
        ["make", "--ensemble", "circle", "--n", "6", "--output", "{out}"],
        ["make", "--ensemble", "cayley", "--n", "3", "--f", "0,1", "--output", "{out}"],
        ["make", "--ensemble", "cayley", "--n", "3", "--f", "0,1,2", "--output", "{out}"],
        ["make", "--ensemble", "cayley", "--n", "3", "--f", "nan,0,nan", "--output", "{out}"],
        ["make", "--ensemble", "cayley", "--n", "3", "--f", "0,inf,inf", "--output", "{out}"],
        ["make", "--ensemble", "wrandom", "--N", "0", "--input", "{step}", "--seed", "0",
         "--output", "{out}"],
        ["experiment", "--name", "sphere", "--dims", "2", "--count", "50", "--seeds", "1",
         "--seed", "0", "--threads", "0"],
        ["make", "--ensemble", "circle", "--n", "8", "--output", "{out}", "--threads", "-3"],
        ["cutnorm", "--input", "{matrix}", "--seed", "0", "--restarts", "-3"],
        ["distance", "{step}", "{step}", "--seed", "0", "--max-atoms", "0"],
        ["density", "--input", "{matrix}", "--graph", "cycle_4", "--samples", "0",
         "--seed", "0"],
        # past the exact-density vertex cap: exited 3 (TooManyVerticesError)
        ["density", "--input", "{step}", "--graph", "cycle_11"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0"],
        ["decompose", "--input", "{matrix}", "--epsilon", "-0.5"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--max-parts", "-1"],
        # with c <= 0 the first schedule probe raised NonDecreasingF (exit 3)
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--F", "0*lambda"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--F=-0.25*lambda*eps"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--F=0.25*lambda*eps*0"],
    ])
    def test_flag_out_of_range_is_usage_error(self, argv, matrix_file, step_file, tmp_path,
                                              capsys):
        # a flag value the constructors reject is a usage error (exit 2), not a
        # numeric failure (exit 3); --n 0 and --runs 0 used to fall back to
        # the defaults silently
        files = {"{matrix}": matrix_file, "{step}": step_file,
                 "{out}": str(tmp_path / "k.txt")}
        argv = [files.get(a, a) for a in argv]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--input", "{matrix}", "--seed", "5"],
        ["decompose", "--input", "{matrix}", "--epsilon", "0.3", "--seed", "5"],
        ["plot", "--input", "{report}", "--kind", "spectrum", "--output", "{out}",
         "--seed", "4"],
        ["distance", "{step}", "{step}", "--input", "nope", "--seed", "0"],
        ["experiment", "--name", "circle", "--n", "16", "--ks", "3", "--dims", "9",
         "--seed", "0"],
        ["experiment", "--name", "sphere", "--dims", "2", "--count", "50", "--seeds", "1",
         "--input", "{step}", "--seed", "0"],
        ["make", "--ensemble", "circle", "--n", "8", "--dim", "7", "--seed", "3",
         "--output", "{out}"],
        ["density", "--input", "{step}", "--graph", "triangle", "--samples", "10"],
        ["density", "--input", "{step}", "--graph", "triangle", "--seed", "1"],
    ])
    def test_ignored_flag_is_usage_error(self, argv, matrix_file, step_file, tmp_path,
                                         capsys):
        # each of these runs used to exit 0 and ignore the flag, or echo it
        # in the report's inputs although it had no effect
        report = tmp_path / "spectrum.json"
        assert run_cli(["spectrum", "--input", matrix_file, "--output", str(report)],
                       capsys)[0] == EXIT_OK
        files = {"{matrix}": matrix_file, "{step}": step_file, "{report}": str(report),
                 "{out}": str(tmp_path / "out")}
        argv = [files.get(a, a) for a in argv]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("spec", [
        "threshold:nan", "threshold:inf", "table:nan,1", "table:inf,1", "cos:nan",
    ])
    def test_non_finite_profile_is_usage_error(self, spec, capsys):
        # threshold:nan gave an all-zero kernel whose checks passed vacuously
        # (exit 0), and the table and cosine specs failed as NonFiniteError
        # (exit 3)
        argv = ["experiment", "--name", "sphere", "--dims", "2", "--count", "50",
                "--seeds", "1", "--seed", "0", "--f", spec]
        assert main(argv) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["3\n0 1 0\n1 0 1\n0 1 0\n", "[1, 2]", "\xff"])
    def test_plot_of_a_file_that_is_no_report_is_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="latin-1")
        argv = ["plot", "--input", str(path), "--kind", "spectrum",
                "--output", str(tmp_path / "x.svg")]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    def test_numeric_failure(self, tmp_path, capsys):
        # entries outside [-1, 1] break the decomposition precondition
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(kernel_from_matrix(np.full((3, 3), 2.0))))
        code, _ = run_cli(
            ["decompose", "--input", str(path), "--epsilon", "0.3"], capsys
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("spec", ["1e308*eps^-5", "eps^-1000"])
    def test_F_that_overflows_is_numeric_failure(self, spec, circle_file, capsys):
        # F = inf reached the report's check (TypeError), and eps^-1000
        # raised OverflowError while F was evaluated: both exited 1 with a
        # traceback
        argv = ["decompose", "--input", circle_file, "--epsilon", "0.3", "--F", spec]
        assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "NonDecreasingF" in err

    @pytest.mark.parametrize("eps", ["1e-160", "1e-200"])
    def test_eps_whose_square_leaves_the_float_range_exits_without_an_exception(
            self, eps, circle_file):
        # the step cap ceil(1 / eps^2) + 1 raised OverflowError at 1e-160
        # and 1e200, and ZeroDivisionError at 1e-200, where eps^2 underflows
        # to 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EpsilonViolatedWarning)
            code = main(["decompose", "--input", circle_file, "--epsilon", eps])
        assert code in (EXIT_CHECK_FAILED, EXIT_NUMERIC)

    @pytest.mark.parametrize("eps", ["1e100", "1e200"])
    def test_eps_above_the_grid_scale_keeps_the_step_bound_at_one(self, eps, circle_file,
                                                                  capsys):
        # past eps = 20 k m^3 the step bound fell below 1 while the grid kept
        # one cell, so step_count_within_bound failed on the one part; at
        # 1e200 the step cap also overflowed (see above)
        assert main(["decompose", "--input", circle_file, "--epsilon", eps]) == EXIT_OK
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["step_count_within_bound"]["bound"] == 1.0

    @pytest.mark.parametrize("eps", ["1e-20", "1e-306", "1e-310"])
    def test_eps_below_the_float_grid_fails_a_check_not_the_run(self, eps, circle_file,
                                                                capsys):
        # 20 k m^3 / eps cells overflowed the cell index (OverflowError from
        # astype(int)) or the float range (math.floor of inf); the grid is
        # now capped at 2^52 cells, finer than float64 resolves on [-m, m]
        argv = ["decompose", "--input", circle_file, "--epsilon", eps,
                "--F", "0.25*lambda", "--max-parts", "inf"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EpsilonViolatedWarning)
            assert main(argv) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["E_l2_within_eps"]
        assert len(set(report["results"]["partition"]["labels"])) == 8

    @pytest.mark.parametrize("failure, message", [
        ("raise", "raised in a worker"),
        ("exit", "worker process ended"),
    ])
    def test_failure_in_a_worker_is_numeric_failure(self, failure, message, monkeypatch,
                                                    capsys):
        # the kernel build fails only in a forked worker, so exit 3 shows that
        # the pool ran and that the worker's GraphonError, or its death,
        # reached the CLI
        parent = os.getpid()
        build = experiments.sphere_kernel

        def fails_in_a_worker(*args):
            if os.getpid() != parent:
                if failure == "exit":
                    os._exit(9)
                raise InvalidSpaceError("raised in a worker")
            return build(*args)

        monkeypatch.setattr(experiments, "sphere_kernel", fails_in_a_worker)
        monkeypatch.setattr(experiments, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code = main(["experiment", "--name", "sphere", "--dims", "2", "--count", "40",
                     "--seeds", "1,2", "--seed", "1", "--threads", "2"])
        assert code == EXIT_NUMERIC
        assert message in capsys.readouterr().err

    def test_parameter_error_in_a_worker_is_usage_error(self, monkeypatch, capsys):
        # dim 0 is refused by sphere_kernel inside a forked worker, and the
        # ParameterError it raises there comes back through the pool
        parent = os.getpid()
        build = experiments.sphere_kernel

        def only_in_a_worker(*args):
            assert os.getpid() != parent, "a unit ran in the parent process"
            return build(*args)

        monkeypatch.setattr(experiments, "sphere_kernel", only_in_a_worker)
        monkeypatch.setattr(experiments, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code = main(["experiment", "--name", "sphere", "--dims", "0,2", "--count", "40",
                     "--seed", "1", "--threads", "2"])
        assert code == EXIT_USAGE
        assert "sphere dimension must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["3 2\n1 1\n1 2\n", "3 1\n1 5\n", "0 0\n"])
    def test_graph_file_that_is_not_a_simple_graph_is_input_error(self, text, matrix_file,
                                                                  tmp_path, capsys):
        # a loop, a vertex out of range, no vertices: each exited 3
        path = tmp_path / "g.graph"
        path.write_text(text)
        argv = ["density", "--input", matrix_file, "--graph", str(path), "--samples", "10",
                "--seed", "0"]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    def test_wrandom_source_outside_0_1_is_usage_error(self, tmp_path, capsys):
        # exited 3, while make --ensemble wrandom on the same source exits 2
        path = tmp_path / "s.txt"
        path.write_text("parts: 2\n1 1 2 2\n1.5 0.1\n0.1 0.4\n")
        argv = ["experiment", "--name", "wrandom-convergence", "--input", str(path),
                "--counts", "10,20", "--runs", "1", "--seed", "0"]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE
        argv = ["make", "--ensemble", "wrandom", "--input", str(path), "--N", "10",
                "--seed", "0", "--output", str(tmp_path / "k.txt")]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    def test_check_failure_exit(self, tmp_path, capsys):
        # sphere bound with an absurd negative slack cannot pass: instead,
        # force a failing check via wrandom rank at tiny sizes, or simply
        # verify that exit 1 is wired by a rigged circle run with huge n
        # requirement; easiest deterministic trigger: wrandom with counts
        # too small to recover the rank
        code, out = run_cli(
            ["experiment", "--name", "wrandom-convergence", "--counts", "8,12",
             "--runs", "2", "--seed", "0"],
            capsys,
        )
        rep = json.loads(out)
        if any(not c["pass"] for c in rep["checks"]):
            assert code == EXIT_CHECK_FAILED
        else:  # pragma: no cover - rank recovery at n=12 is not expected
            assert code == EXIT_OK


class TestExactLimit:
    @pytest.mark.parametrize("limit", ["40", "-3", "27"])
    def test_cutnorm_rejects_limit_outside_the_ceiling(self, tmp_path, capsys, limit):
        # 3 atoms would run at any limit; a limit past the ceiling is refused
        # all the same, since the next input might have 40 atoms
        path = tmp_path / "k3.txt"
        path.write_text(format_matrix(kernel_from_matrix(
            np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 0.0]]))))
        argv = ["cutnorm", "--input", str(path), "--exact-limit", limit, "--seed", "0"]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("limit", ["40", "-3"])
    def test_distance_rejects_limit_outside_the_ceiling(self, step_file, capsys, limit):
        argv = ["distance", step_file, step_file, "--seed", "0", "--exact-limit", limit]
        assert run_cli(argv, capsys)[0] == EXIT_USAGE

    def test_ceiling_itself_is_accepted(self, matrix_file, capsys):
        argv = ["cutnorm", "--input", matrix_file, "--exact-limit", "26", "--seed", "0"]
        code, out = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["exact_limit"] == 26


class TestInputs:
    def test_distance_echoes_exact_limit(self, tmp_path, capsys):
        # 12-atom steps: with --exact-limit 22 the cut distance of the
        # aligned difference is enumerated exactly, with 3 it is not
        rng = np.random.default_rng(7)
        paths = []
        for tag in "ab":
            block = rng.uniform(0.0, 1.0, (12, 12))
            sf = StepFunction(DiscreteSpace.uniform(12), np.arange(12), (block + block.T) / 2)
            paths.append(tmp_path / f"{tag}.step")
            paths[-1].write_text(format_step(sf))
        inputs = []
        for limit in ("22", "3"):
            code, out = run_cli(["distance", str(paths[0]), str(paths[1]), "--seed", "0",
                                 "--exact-limit", limit], capsys)
            assert code == EXIT_OK
            inputs.append(json.loads(out)["inputs"])
        assert [i["exact_limit"] for i in inputs] == [22, 3]
        assert inputs[0] != inputs[1]

    @pytest.mark.parametrize("argv, echoed", [
        (["distance", "{step}", "{step}", "--norm", "l1", "--seed", "0"],
         {"first", "second", "norm", "max_atoms", "exact_limit", "seed"}),
        (["density", "--input", "{step}", "--graph", "edge"], {"input", "graph"}),
        (["make", "--ensemble", "wrandom", "--N", "6", "--input", "{step}", "--seed", "1",
          "--output", "{out}", "--threads", "2"], {"ensemble", "count", "input", "seed"}),
        (["experiment", "--name", "circle", "--n", "16", "--ks", "3", "--seed", "0",
          "--output", "{out}"], {"name", "n", "ks", "seed"}),
    ])
    def test_inputs_are_the_flags_read(self, argv, echoed, step_file, tmp_path, capsys):
        files = {"{step}": step_file, "{out}": str(tmp_path / "out")}
        code, out = run_cli([files.get(a, a) for a in argv], capsys)
        assert code == EXIT_OK
        assert set(json.loads(out)["inputs"]) == echoed

    @pytest.mark.parametrize("minimal, table", [
        (["experiment", "--name", "circle"], graphonlab.cli._EXPERIMENT_FLAGS),
        (["make", "--ensemble", "circle", "--output", "k.txt"],
         graphonlab.cli._ENSEMBLE_FLAGS),
        (["density", "--input", "m.txt", "--graph", "edge"], graphonlab.cli._DENSITY_FLAGS),
    ])
    def test_case_tables_match_the_parser(self, minimal, table):
        # every tabled flag is declared and defaults to None, so that given
        # means typed; every declared flag is read by every case or by some
        # case of the table, so none is unreachable
        args = vars(graphonlab.cli._build_parser().parse_args(minimal))
        declared = set(args) - set(graphonlab.cli._UNECHOED)
        always = {dest for dest in declared if args[dest] is not None}
        tabled = set().union(*table.values())
        assert tabled <= declared
        assert not tabled & always
        assert declared == always | tabled


class TestDeterminism:
    def test_reports_byte_identical_across_threads(self, matrix_file, tmp_path, capsys):
        outputs = []
        for threads in ("1", "4"):
            rep = tmp_path / f"rep-{threads}.json"
            code, out = run_cli(
                ["cutnorm", "--input", matrix_file, "--seed", "9",
                 "--threads", threads, "--output", str(rep)],
                capsys,
            )
            assert code == EXIT_OK
            outputs.append((out, rep.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_experiment_byte_identical(self, capsys):
        runs = []
        for threads in ("1", "4"):
            code, out = run_cli(
                ["experiment", "--name", "sphere", "--dims", "2", "--count", "150",
                 "--seeds", "3", "--seed", "3", "--threads", threads],
                capsys,
            )
            assert code == EXIT_OK
            runs.append(out)
        assert runs[0] == runs[1]

    def test_sphere_byte_identical_on_the_certified_radius_path(self, capsys):
        # count 600 proves the Krylov estimate of the radius (the count-150
        # run above proves the eigvalsh one), and --threads 2 runs the two
        # units in worker processes
        runs = []
        for threads in ("1", "2"):
            code, out = run_cli(
                ["experiment", "--name", "sphere", "--dims", "2", "--count", "600",
                 "--seeds", "2,3", "--seed", "2", "--threads", threads],
                capsys,
            )
            assert code == EXIT_OK
            runs.append(out)
        assert runs[0] == runs[1]

    def test_console_script_subprocess(self, matrix_file, tmp_path):
        # end-to-end check through the module's __main__ guard (CI runs the
        # installed console script)
        cmds = [
            [sys.executable, "-m", "graphonlab.cli", "spectrum",
             "--input", matrix_file, "--threads", t]
            for t in ("1", "4")
        ]
        outs = [subprocess.run(c, capture_output=True, check=True).stdout for c in cmds]
        assert outs[0] == outs[1]
        json.loads(outs[0])


def test_numpy_is_the_only_runtime_dependency(matrix_file, step_file):
    # a fresh interpreter that imports every module and runs each subcommand
    # family; modules loaded by site before the import do not count, except
    # scipy and jsonschema, which are installed here but never declared
    code = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import graphonlab, graphonlab.cli\n"
        "for mod in pkgutil.iter_modules(graphonlab.__path__):\n"
        "    importlib.import_module('graphonlab.' + mod.name)\n"
        "m, s = sys.argv[1:]\n"
        "for argv in (['spectrum', '--input', m],\n"
        "             ['decompose', '--input', m, '--epsilon', '0.3'],\n"
        "             ['cutnorm', '--input', m, '--seed', '0'],\n"
        "             ['density', '--input', m, '--graph', 'cycle_4', '--samples', '100',\n"
        "              '--seed', '0'],\n"
        "             ['density', '--input', s, '--graph', 'triangle'],\n"
        "             ['experiment', '--name', 'circle', '--n', '16', '--ks', '3',\n"
        "              '--seed', '0'],\n"
        # n = 800 takes the block Krylov + Cholesky proof of decompose_leading
        "             ['experiment', '--name', 'wrandom-convergence',\n"
        "              '--counts', '60,800', '--runs', '1', '--seed', '0']):\n"
        "    assert graphonlab.cli.main(argv) == 0, argv\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        # shims that numpy.random's Cython-compiled modules register; no package
        "loaded = {m for m in loaded if m != 'cython_runtime' and not m.startswith('_cython_')}\n"
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'graphonlab'}\n"
        "undeclared = {'scipy', 'jsonschema'} & {m.partition('.')[0] for m in sys.modules}\n"
        "sys.stderr.write(repr((sorted(loaded - allowed), sorted(undeclared))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, matrix_file, step_file],
                          capture_output=True, text=True, check=True)
    assert proc.stderr.endswith("([], [])"), proc.stderr


def test_readme_cli_examples_parse():
    # every example line of the README's CLI block, less its comment and the
    # brackets that mark optional flags, is accepted by the parser, so a
    # removed or renamed flag cannot linger in the docs
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line.split("#", 1)[0].replace("[", "").replace("]", ""))
                for line in block.splitlines() if line.strip()]
    assert len(commands) >= 8 and all(argv[0] == "graphonlab" for argv in commands)
    parser = graphonlab.cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")
