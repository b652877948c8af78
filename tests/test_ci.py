"""The tier-1 workflow's benchmark report gate runs every workload that
BENCHMARK.json declares: a workload added to one and not the other fails
here."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_report_gate_loops_over_exactly_the_benchmark_workloads():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    loops = re.findall(r"^\s*for w in ([^;\n]*); do$", workflow, re.MULTILINE)
    assert len(loops) == 1, loops
    gated = loops[0].split()
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert len(set(gated)) == len(gated)
    assert sorted(gated) == sorted(declared)
