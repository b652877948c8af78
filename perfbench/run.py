"""graphonlab benchmark: run one seeded workload, check every report, print
the metrics.

    python3 perfbench/run.py --workload decompose-800 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The lines above it give the machine record, each op's status
and report digest, and every metric by name and unit. Inputs are written
under ``.perfbench_work/`` and removed at exit; a traced run keeps its
spans there as ``spans-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Pinned before numpy is imported here or in any child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))

from tracer import PER_LAYER, median_metrics, pass_metrics  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

WORK_ROOT = ".perfbench_work"
# Import time swings with the machine's state over seconds, so the untraced
# worker runs this many import probes before its first pass and after each
# pass, and setup_s is their median.
PROBES_PER_GAP = 4
# A second pass lets report bytes be compared within every run, and damps a
# slow spell of the machine that covers only one pass.
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MiB"),
              ("ok_frac", "ratio")]
PER_LAYER_UNITS = [(m, unit) for m, unit, *_ in PER_LAYER] + [
    ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
    ("cutnorm.cut_gap", "ratio"), ("cutnorm.brackets", "count")]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_worker(workdir: str, budget: float, min_passes: int, traced: int,
               probes: int, deadline: float) -> dict:
    out = os.path.join(workdir, f"result-traced{traced}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--spec", os.path.join(workdir, "ops.json"), "--budget", str(budget),
           "--min-passes", str(min_passes), "--traced", str(traced),
           "--probes", str(probes), "--out", out]
    # its own process group, so that a worker past the deadline is killed
    # together with an import probe it may be running
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker passed the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def op_outcomes(results: list[dict]) -> tuple[list[str], int, int, bool]:
    """Per-op status lines, attempted, failed, and whether every report
    passed its gate and kept its bytes across all passes of the run."""
    lines, attempted, failed, correct = [], 0, 0, True
    records = [rec for res in results for p in res["passes"] for rec in p["ops"]]
    for name in dict.fromkeys(rec["name"] for rec in records):
        recs = [r for r in records if r["name"] == name]
        attempted += len(recs)
        failures = [r for r in recs if r["failed"]]
        failed += len(failures)
        digests = sorted({r["digest"] for r in recs if not r["failed"]})
        problems = sorted({p for r in recs for p in r["problems"]})
        if len(digests) > 1:
            problems.append(f"report bytes differ across passes ({len(digests)} digests)")
        correct = correct and not problems
        status = "ok" if not failures and not problems else "INCORRECT" if problems else "FAILED"
        line = f"op {name} {status}: {len(recs) - len(failures)} of {len(recs)} runs ok"
        if failures:
            kinds = sorted({str(r["status"]) for r in failures})
            line += f", {len(failures)} failed ({','.join(kinds)})"
        lines.append(line + "".join(f"; sha256 {d}" for d in digests))
        lines += [f"op {name} problem: {p}" for p in problems]
    return lines, attempted, failed, correct


def cut_gap(result: dict) -> tuple[float | None, int]:
    """Mean (upper - lower) / upper over the cut-norm brackets of one pass."""
    found = [b for rec in result["passes"][0]["ops"] for b in rec["brackets"]]
    gaps = [(hi - lo) / hi if hi > 0 else 0.0 for lo, hi in found]
    return (statistics.fmean(gaps) if gaps else None), len(found)


def pass_s(result: dict) -> float:
    return statistics.median(p["seconds"] for p in result["passes"])


def report(workload: str, results: list[dict], setup: list[float] | None,
           machine: dict) -> list[str]:
    """The output lines; the last is the JSON result. results[0] is the
    untraced worker's outcome, results[1] (traced runs only) the traced one's."""
    out = ["machine " + json.dumps(machine, sort_keys=True)]
    out.append(f"workload {workload}: " + ", ".join(
        f"{len(r['passes'])} {'traced' if r['spans'] is not None else 'untraced'} passes"
        for r in results))
    lines, attempted, failed, correct = op_outcomes(results)
    out += lines

    untraced = results[0]
    gap, n_brackets = cut_gap(untraced)
    u_attempted = sum(len(p["ops"]) for p in untraced["passes"])
    u_failed = sum(r["failed"] for p in untraced["passes"] for r in p["ops"])
    e2e = {"pass_s": pass_s(untraced), "peak_rss_mb": untraced["peak_rss_mb"],
           "ok_frac": 1.0 - u_failed / u_attempted}
    if setup is not None:
        e2e["setup_s"] = statistics.median(setup)
        out.append(f"setup_s {e2e['setup_s']:.6f} s (median of {len(setup)} "
                   "fresh-interpreter imports)")
    out.append(f"pass_s {e2e['pass_s']:.6f} s (median of untraced passes: "
               + " ".join(f"{p['seconds']:.3f}" for p in untraced["passes"]) + ")")
    out.append(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MiB")
    out.append(f"fail_frac {u_failed / u_attempted:.4f} ratio "
               f"({u_failed} failed of {u_attempted} attempted ops)")
    out.append(f"ok_frac {e2e['ok_frac']:.4f} ratio")
    if gap is None:
        out.append("cut_gap n/a ratio (no cut-norm bracket in this workload's reports)")
    else:
        out.append(f"cut_gap {gap:.6f} ratio (mean over {n_brackets} brackets per pass)")

    if len(results) > 1:
        traced = results[1]
        layer = median_metrics(pass_metrics(traced["spans"]))
        layer["trace.pass_s"] = pass_s(traced)
        layer["trace.overhead_s"] = layer["trace.pass_s"] - e2e["pass_s"]
        layer["cutnorm.cut_gap"] = 0.0 if gap is None else gap
        layer["cutnorm.brackets"] = n_brackets
        out += [f"{name} {layer[name]:.6g} {unit}" for name, unit in PER_LAYER_UNITS]
        out.append("tracing overhead: traced pass_s - untraced pass_s = "
                   f"{layer['trace.overhead_s']:.6f} s")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    out.append(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                           "metrics": metrics}))
    return out


def _keep_spans(workdir: str, workload: str, seed: int) -> None:
    path = os.path.join(workdir, "result-traced1.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        with open(os.path.join(WORK_ROOT, f"spans-{workload}-s{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spans, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphonlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "graphonlab", "__init__.py")):
        print("no src/graphonlab here: run from the root of a graphonlab checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ops = make_ops(args.workload, args.seed, workdir)
        with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        if args.trace:
            # half the time untraced, for the tracing overhead; half traced
            results = [run_worker(workdir, args.seconds / 2, 1, 0, 0, deadline),
                       run_worker(workdir, args.seconds / 2, 1, 1, 0, deadline)]
        else:
            results = [run_worker(workdir, args.seconds, MIN_PASSES, 0, PROBES_PER_GAP,
                                  deadline)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            _keep_spans(workdir, args.workload, args.seed)
        shutil.rmtree(workdir, ignore_errors=True)

    machine = dict(results[0]["machine"], nproc=os.cpu_count(),
                   python=platform.python_version(),
                   thread_vars={v: os.environ[v] for v in THREAD_VARS},
                   git_commit=git_commit(), workload=args.workload, seed=args.seed)
    tracebacks = {rec["name"]: rec["traceback"] for res in results for p in res["passes"]
                  for rec in p["ops"] if rec["traceback"]}
    for text in tracebacks.values():
        print(text.rstrip(), file=sys.stderr)
    setup = None if args.trace else results[0]["setup"]
    print("\n".join(report(args.workload, results, setup, machine)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
