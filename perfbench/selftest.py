"""Self-test of the benchmark itself; runs in a few seconds.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks the self-time arithmetic on
a synthetic nested call, the counting of an op that raises, and that every
metric named in BENCHMARK.json is printed with its unit and appears in the
JSON result. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys

import run  # first: pins the BLAS thread variables before numpy loads
import worker
from tracer import EIGH, Tracer, pass_metrics, self_times


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def nested_spans() -> list[list]:
    """spectral.decompose over [0, 10] calls numpy eigh over [1, 4] and
    [5, 6] on 3x3 input; a second pass holds one eigh over [11, 13]."""
    class Square:
        shape = (3, 3)

    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 4.0, 5.0, 6.0, 10.0, 11.0, 13.0]))
    eigh = tracer.wrap(EIGH, lambda a: None, lambda a, k, r: a[0].shape[0] ** 3)
    decompose = tracer.wrap("spectral.decompose", lambda: (eigh(Square()), eigh(Square())))
    tracer.pass_id = 0
    decompose()
    tracer.pass_id = 1
    eigh(Square())
    return tracer.spans


def check_self_time() -> None:
    spans = nested_spans()
    assert [s[1] for s in spans] == [None, 0, 0, None], "parent links"
    assert self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0, 3: 2.0}, self_times(spans)
    first = pass_metrics(spans)[0]
    expected = {"spectral.decompose_calls": 1, "spectral.eigh_calls": 2,
                "spectral.eigh_s": 4.0, "spectral.decompose_self_s": 6.0,
                "spectral.eigh_n3": 54}
    assert {k: first[k] for k in expected} == expected, first
    # overlapping children are counted once
    overlap = [[0, None, "a", 0.0, 10.0, 0, None], [1, 0, "b", 1.0, 5.0, 0, None],
               [2, 0, "c", 3.0, 7.0, 0, None]]
    assert self_times(overlap)[0] == 4.0


def _report_text(check_passes: bool) -> str:
    from graphonlab.cli import _check

    check = _check("bound", 1.0, 2.0 if check_passes else 0.5, "le")
    return json.dumps({"schema_version": "graphonlab.report/1", "command": "synthetic",
                       "inputs": {}, "results": {"lower": 1.0, "upper": 4.0},
                       "checks": [check], "runtime_seconds": None})


def synthetic_result(check_passes: bool = True, spans=None) -> dict:
    """Two passes of a good op and of an op that raises."""
    from graphonlab.cli import REPORT_SCHEMA, _check, canonical_json

    ops = [{"name": "good", "kind": "cli"}, {"name": "boom", "kind": "cli"}]
    passes = []
    for _ in range(2):
        status, payload, tb = worker.run_op(lambda: (0, _report_text(check_passes)))
        good = {"name": "good", "status": status, "payload": payload,
                "traceback": tb, "seconds": 0.25}
        status, payload, tb = worker.run_op(lambda: (0, 1 / 0))
        boom = {"name": "boom", "status": status, "payload": payload,
                "traceback": tb, "seconds": 0.5}
        passes.append({"ops": [good, boom], "seconds": 0.75})
    return {"passes": worker.summarize(ops, passes, REPORT_SCHEMA, canonical_json, _check),
            "setup": [], "peak_rss_mb": 50.0, "machine": {}, "spans": spans}


def check_failure_counting() -> None:
    result = synthetic_result()
    boom = result["passes"][0]["ops"][1]
    assert boom["status"] == "ZeroDivisionError" and boom["failed"], boom
    lines, attempted, failed, correct = run.op_outcomes([result])
    assert (attempted, failed, correct) == (4, 2, True), (attempted, failed, correct)
    assert any(line.startswith("op boom FAILED") and "ZeroDivisionError" in line
               for line in lines), lines
    assert run.cut_gap(result) == (0.75, 1)
    _, _, _, correct = run.op_outcomes([synthetic_result(check_passes=False)])
    assert correct is False, "a failing report check must make the run incorrect"


def check_metric_names() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    traced = synthetic_result(spans=nested_spans())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        results = [synthetic_result()] + ([traced] if trace else [])
        lines = run.report("synthetic", results, [0.1, 0.2, 0.3] if not trace else None, {})
        final = json.loads(lines[-1])
        declared = {m["name"]: m["unit"] for m in bench[key]}
        printed = {name: m["unit"] for name, m in final["metrics"].items()}
        assert printed == declared, (key, set(printed) ^ set(declared))
        for name, unit in declared.items():
            assert any(line.startswith(f"{name} ") and f" {unit}" in line
                       for line in lines[:-1]), f"{name} not printed with {unit}"
        if not trace:
            for name in ("fail_frac", "cut_gap"):
                assert any(line.startswith(f"{name} ") for line in lines), name


def main() -> int:
    if not os.path.isfile(os.path.join("src", "graphonlab", "__init__.py")):
        print("run from the root of a graphonlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    for check in (check_self_time, check_failure_counting, check_metric_names):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
