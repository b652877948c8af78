import json
import os
import threading

import numpy as np
import pytest

from graphonlab import DiscreteSpace, Kernel, StepFunction, kernel_from_matrix
from graphonlab.cli import main
from graphonlab.fileio import (
    FormatError,
    format_graph,
    format_matrix,
    format_step,
    load_kernel,
    load_source,
    parse_graph,
    parse_matrix,
    parse_step,
    write_text_atomic,
)

from graphonlab.errors import (
    AsymmetricMatrixError,
    InvalidSpaceError,
    NonFiniteError,
    SymmetrizedWarning,
)

from conftest import random_symmetric


class TestMatrixFormat:
    def test_round_trip_uniform(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 5))
        back = parse_matrix(format_matrix(k))
        assert np.array_equal(back.values, k.values)
        assert np.array_equal(back.space.weights, k.space.weights)

    def test_round_trip_weighted(self, rng):
        w = rng.uniform(0.5, 1.5, 4)
        w /= w.sum()
        k = kernel_from_matrix(random_symmetric(rng, 4), weights=w)
        back = parse_matrix(format_matrix(k))
        assert np.array_equal(back.values, k.values)
        assert np.array_equal(back.space.weights, k.space.weights)

    def test_parse_plain(self):
        k = parse_matrix("2\n0 1\n1 0\n")
        assert np.array_equal(k.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_parse_with_weights(self):
        k = parse_matrix("2\nweights: 0.25 0.75\n0 1\n1 0\n")
        assert np.array_equal(k.space.weights, [0.25, 0.75])

    def test_bad_row_count(self):
        with pytest.raises(FormatError):
            parse_matrix("2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_matrix("two\n0 1\n1 0\n")

    @pytest.mark.parametrize("text", [
        "2\n0 abc\n1 0\n",  # non-numeric token
        "2\n0 1\n1\n",  # ragged row
        "2\n0 1 2\n1 0 3\n",  # rows of the wrong length
        "2\nweights: 0.5 x\n0 1\n1 0\n",
        "2\nweights:\n0 1\n1 0\n",
        "0\n",  # no atoms
        "-1\n",
    ])
    def test_unreadable_numbers(self, text):
        with pytest.raises(FormatError):
            parse_matrix(text)

    def test_one_call_parse_matches_per_row(self, rng):
        # reference: the per-row float parse the one-call parse replaced
        text = format_matrix(kernel_from_matrix(random_symmetric(rng, 9)))
        rows = [np.array(ln.split(), dtype=float) for ln in text.splitlines()[1:]]
        assert np.array_equal(parse_matrix(text).values, np.vstack(rows))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            parse_matrix("2\ninf 0\n0 1\n")
        with pytest.raises(InvalidSpaceError):
            parse_matrix("2\nweights: nan 0.5\n0 1\n1 0\n")


SWAP = [[0.0, 1.0], [1.0, 0.0]]

# (text, values and weights, or the start of the FormatError message)
MATRIX_CASES = {
    "blank-lines": ("\n \t\n2\n\n0 1\n   \n1 0\n\n \n", (SWAP, None)),
    "weights-line": ("2\nweights: 0.25 0.75\n0 1\n1 0\n", (SWAP, [0.25, 0.75])),
    "blank-around-weights": ("\n2\n \nweights: 0.25 0.75\n\n0 1\n1 0\n", (SWAP, [0.25, 0.75])),
    "padded-rows": ("  2 \n 0 1  \n\t1\t0\n", (SWAP, None)),
    "crlf": ("2\r\nweights: 0.25 0.75\r\n\r\n0 1\r\n1 0\r\n", (SWAP, [0.25, 0.75])),
    "short-row": ("3\n0 1 1\n1 0\n1 1 0\n", "unreadable numbers"),
    "one-row-too-many": ("2\n0 1\n1 0\n1 1\n", "expected 2 matrix rows, got 3"),
    "one-row-too-few": ("2\n0 1\n", "expected 2 matrix rows, got 1"),
    "header-only": ("2\n", "expected 2 matrix rows, got 0"),
    "weights-and-no-rows": ("2\nweights: 0.25 0.75\n\n", "expected 2 matrix rows, got 0"),
    "rows-too-long": ("2\n0 1 2\n1 0 3\n", "expected 2x2 numbers, got 2x3"),
    "empty": (" \n\n", "empty matrix file"),
    "size-not-an-integer": ("2.0\n0 1\n1 0\n", "first line must be the size"),
}


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_matrix_format_cases(name, tmp_path):
    text, expected = MATRIX_CASES[name]
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, str):
        for read in (lambda: parse_matrix(text), lambda: load_kernel(str(path))):
            with pytest.raises(FormatError, match="^" + expected):
                read()
        return
    values, weights = expected
    k = parse_matrix(text)
    assert np.array_equal(k.values, values)
    assert np.array_equal(k.space.weights, [0.5, 0.5] if weights is None else weights)
    loaded = load_kernel(str(path))
    assert np.array_equal(loaded.values, k.values)
    assert np.array_equal(loaded.space.weights, k.space.weights)


def test_bytes_that_do_not_decode_inside_the_rows_name_the_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"2\n0 1\n1 \xff0\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        load_kernel(str(path))


@pytest.mark.parametrize("sep", ["\x0c", "\x0b", "\u2028"])
def test_a_form_feed_inside_a_row_separates_numbers(sep, tmp_path):
    # matrix rows end at a line break (\n, \r\n or \r) only: a form feed, a
    # vertical tab or U+2028 inside a row is whitespace between two numbers
    text = f"2\n0{sep}1\n1 0\n"
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    assert np.array_equal(parse_matrix(text).values, SWAP)
    assert np.array_equal(load_kernel(str(path)).values, SWAP)
    # so it does not split one line into two rows
    with pytest.raises(FormatError, match="expected 2 matrix rows, got 1"):
        parse_matrix(f"2\n0 1{sep}1 0\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("name", ["blank-lines", "weights-line", "crlf"])
def test_load_kernel_reads_a_stream_that_cannot_seek(name, tmp_path):
    # a FIFO stands for a pipe, `--input /dev/stdin` or a process substitution
    text, (values, weights) = MATRIX_CASES[name]
    path = tmp_path / "m.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(text.encode("utf-8"),),
                              daemon=True)
    writer.start()
    try:
        k = load_kernel(str(path))
    finally:
        writer.join(timeout=10)
    assert np.array_equal(k.values, values)
    assert np.array_equal(k.space.weights, [0.5, 0.5] if weights is None else weights)


STEP_TEXT = "parts: 2\n1 1 2 2\n0.9 0.1\n0.1 0.4\n"
MATRIX_TEXT = "4\n0.9 0.1 0.5 0.2\n0.1 0.4 0.3 0.6\n0.5 0.3 0.7 0.0\n0.2 0.6 0.0 1\n"
SOURCE_RUNS = [
    ("density-matrix", MATRIX_TEXT,
     ["density", "--input", "{}", "--graph", "edge", "--samples", "10", "--seed", "0"]),
    ("density-step", STEP_TEXT, ["density", "--input", "{}", "--graph", "edge"]),
    ("density-step-after-a-blank-line", "\n" + STEP_TEXT,
     ["density", "--input", "{}", "--graph", "edge"]),
    ("wrandom-matrix", MATRIX_TEXT,
     ["make", "--ensemble", "wrandom", "--input", "{}", "--N", "6", "--seed", "0"]),
    ("wrandom-step", STEP_TEXT,
     ["make", "--ensemble", "wrandom", "--input", "{}", "--N", "6", "--seed", "0"]),
    ("wrandom-step-after-a-blank-line", " \n\n" + STEP_TEXT,
     ["make", "--ensemble", "wrandom", "--input", "{}", "--N", "6", "--seed", "0"]),
]


def _run_on(source, argv, out, capsys):
    """cli.main on argv with source for its {} and, for make, out as the
    kernel it writes: the report's results and the written kernel text."""
    argv = [a.format(source) for a in argv]
    if argv[0] == "make":
        argv += ["--output", str(out)]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    for echo in ("written", "params"):  # these echo the paths
        results.pop(echo, None)
    return results, out.read_text() if argv[0] == "make" else None


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name", [run[0] for run in SOURCE_RUNS])
def test_density_and_wrandom_read_a_pipe_once(name, tmp_path, capsys):
    # `cat file | graphonlab ... --input /dev/stdin`: the pipe's text can be
    # read once only, so telling matrix from step must not take a read of
    # its own; a leading blank line does not make a step file a matrix
    _, text, argv = next(run for run in SOURCE_RUNS if run[0] == name)
    path = tmp_path / "source.txt"
    path.write_text(text)
    expected = _run_on(str(path), argv, tmp_path / "from-file.txt", capsys)
    r, w = os.pipe()
    try:
        os.write(w, text.encode("utf-8"))
        os.close(w)
        got = _run_on(f"/dev/fd/{r}", argv, tmp_path / "from-pipe.txt", capsys)
    finally:
        os.close(r)
    assert got == expected
    if name.startswith("density-step"):
        assert got[0]["method"] == "exact_step"


class TestStepFormat:
    def test_round_trip(self):
        sf = StepFunction(DiscreteSpace.uniform(4), [0, 0, 1, 1],
                           [[0.9, 0.1], [0.1, 0.4]])
        back = parse_step(format_step(sf))
        assert np.array_equal(back.part_of, sf.part_of)
        assert np.array_equal(back.block, sf.block)

    def test_parse(self):
        sf = parse_step("parts: 2\n1 1 2 2\n0.9 0.1\n0.1 0.4\n")
        assert sf.parts == 2
        assert np.array_equal(sf.part_of, [0, 0, 1, 1])
        assert sf.part_weights[0] == pytest.approx(0.5)

    def test_label_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_step("parts: 3\n1 1 2 2\n0.9 0.1\n0.1 0.4\n")

    def test_labels_using_fewer_parts_than_the_header(self):
        with pytest.raises(FormatError, match="label line uses 2 parts, header says 3"):
            parse_step("parts: 3\n1 1 2 2\n0.9 0.1 0\n0.1 0.4 0\n0 0 0.5\n")

    def test_labels_are_relabelled_in_sorted_order(self):
        sf = parse_step("parts: 2\n7 -3 7\n0.9 0.1\n0.1 0.4\n")
        assert np.array_equal(sf.part_of, [1, 0, 1])
        assert np.array_equal(sf.part_weights, [1 / 3, 2 / 3])

    def test_header_required(self):
        with pytest.raises(FormatError):
            parse_step("2\n1 1\n0.5\n")

    def test_line_after_the_block_rows_rejected(self):
        # a third block row under 'parts: 2' used to be ignored
        with pytest.raises(FormatError):
            parse_step("parts: 2\n1 1 2 2\n0.9 0.1\n0.1 0.4\n7 7\n")

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            parse_step("parts: 2\n1 1 2 2\ninf 0.1\n0.1 0.4\n")

    def test_asymmetric_block_rejected(self):
        # the skew ladder of matrix files: skew 1.0 is an error, not averaged
        with pytest.raises(AsymmetricMatrixError):
            parse_step("parts: 2\n1 1 2 2\n0 1\n0 0\n")

    def test_small_skew_symmetrized_with_warning(self):
        with pytest.warns(SymmetrizedWarning):
            sf = parse_step("parts: 2\n1 1 2 2\n0 1\n0.9999999999 0\n")
        assert sf.block[0, 1] == sf.block[1, 0] == pytest.approx(0.99999999995, abs=0)

    def test_huge_symmetric_block_kept_exactly(self):
        # averaging a symmetric block of +-1.7e308 would overflow to inf
        sf = parse_step("parts: 2\n1 1 2 2\n1.7e308 -1.7e308\n-1.7e308 1.7e308\n")
        assert np.array_equal(sf.block, [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])

    @pytest.mark.parametrize("text", [
        "parts: 2\n1 1 2 2\n0.9 abc\n0.1 0.4\n",
        "parts: 2\n1 1 2 2\n0.9 0.1\n0.1\n",
        "parts: 2\n1 1 x 2\n0.9 0.1\n0.1 0.4\n",
        "parts: 2\n1 1.5 2 2\n0.9 0.1\n0.1 0.4\n",  # labels are integers
        "parts: 2\n1 1 2.0 2\n0.9 0.1\n0.1 0.4\n",
        "parts: two\n1 1\n0.5\n",  # the part count
        "parts: 1.0\n1 1\n0.5\n",
    ])
    def test_unreadable_numbers(self, text):
        with pytest.raises(FormatError):
            parse_step(text)


class TestGraphFormat:
    def test_round_trip(self):
        from graphonlab import cycle_graph

        g = cycle_graph(5)
        back = parse_graph(format_graph(g))
        assert back.k == 5
        assert back.edges == g.edges

    def test_parse(self):
        g = parse_graph("3 2\n1 2\n2 3\n")
        assert g.k == 3
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_graph("3 2\n1 2\n")

    def test_no_edges(self):
        assert parse_graph("3 0\n").edges == frozenset()

    @pytest.mark.parametrize("text", [
        "3\n", "a 1\n1 2\n", "3 1\n1 x\n", "3 1\n1 2 3\n",
        "3 1.0\n1 2\n", "3 1\n1.5 2\n", "3 1\n1.9 2\n",  # no truncation
        "", "\n  \n",  # empty file
    ])
    def test_unreadable_numbers(self, text):
        with pytest.raises(FormatError):
            parse_graph(text)

    @pytest.mark.parametrize("text", ["3 2\n1 1\n1 2\n", "3 1\n1 5\n", "0 0\n"])
    def test_not_a_simple_graph(self, text):
        # a loop, a vertex outside 1..k, no vertices: SimpleGraph's ValueError
        # used to escape, which the CLI reads as a numeric failure
        with pytest.raises(FormatError, match="not a simple graph"):
            parse_graph(text)


class TestHelpers:
    def test_sniff(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("2\n0 1\n1 0\n")
        s = tmp_path / "s.txt"
        s.write_text("parts: 1\n1 1\n0.5\n")
        assert isinstance(load_source(str(m)), Kernel)
        assert isinstance(load_source(str(s)), StepFunction)

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(str(target), "payload\n")
        assert target.read_text() == "payload\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert not leftovers

    def test_atomic_write_removes_its_temp_file_when_the_rename_fails(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()  # a file cannot replace a directory
        with pytest.raises(OSError):
            write_text_atomic(str(target), "payload\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not any(target.iterdir())
