"""Run a workload's ops in passes, in this one process, and write the
outcome as JSON.

    python3 perfbench/worker.py --spec ops.json --budget 20 --min-passes 2 \
        --traced 0 --out result.json

The program is imported from ``src/`` of the current directory. With
``--traced 1`` the tracer's wrappers are installed before the first pass;
otherwise no wrapper exists in the process. Reports are validated after
all passes, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
import warnings

from tracer import Tracer, install

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")
EXIT_REFUSED = 4
IMPORT_PROBE = ("import time; t = time.perf_counter(); import graphonlab; "
                "print(time.perf_counter() - t)")


def blas_record() -> dict:
    """The BLAS library numpy loaded and the thread count it will use."""
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps", encoding="utf-8")
                   if "blas" in line.rsplit("/", 1)[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": int(fn())}
    return {"library": ",".join(os.path.basename(p) for p in libs) or None,
            "threads": None}


def run_op(call):
    """Run one op; returns (status, payload, traceback text).

    status is the exit code for CLI ops, 0 for library ops, or the type
    name of an exception the op raised; an exception never leaves here.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            status, payload = call()
    except Exception as exc:  # an op's failure is counted, never raised
        return type(exc).__name__, None, traceback.format_exc()
    return status, (out.getvalue() if payload is None else payload), None


def symmetry_report(op: dict, result, canonical_json, check) -> str:
    """A report in the CLI's schema for a symmetry_decompose result, with
    the criterion-08 checks: S is exactly invariant, T within eps.
    canonical_json and check are graphonlab.cli's own helpers."""
    reg, clustering, inv = result
    eps = op["epsilon"]
    certs = reg.certificates
    checks = [
        check("generators_found", inv.generators, 1, "ge"),
        check("S_invariant", inv.S_deviation, 1e-8, "le"),
        check("T_within_eps", inv.T_deviation, eps, "le"),
        check("E_l2_within_eps", certs.E_l2, eps, "le"),
        check("R_cut_upper_within_F", certs.R_cut.upper, 0.25 * reg.lam * eps, "le"),
    ]
    results = {
        "lambda": reg.lam, "lambda_next": reg.lam_next, "generators": inv.generators,
        "S_deviation": inv.S_deviation, "T_deviation": inv.T_deviation,
        "E_l2": certs.E_l2, "R_cut_lower": certs.R_cut.lower,
        "R_cut_upper": certs.R_cut.upper, "parts": clustering.step.parts,
    }
    report = {"schema_version": "graphonlab.report/1", "command": "symmetry_decompose",
              "inputs": {"input": os.path.basename(op["input"]), "epsilon": eps},
              "results": results, "checks": checks, "runtime_seconds": None}
    return canonical_json(report)


def _op_call(op: dict):
    import graphonlab
    import graphonlab.cli
    import graphonlab.fileio

    if op["kind"] == "cli":
        return lambda: (graphonlab.cli.main(op["argv"]), None)
    eps = op["epsilon"]

    # No part cap, as in the repo's criterion-08 tests: under the default
    # cap of 1e6, cluster_eigenvectors raises GridOverflowError on this
    # kernel within 0.01 s, before the automorphism search is reached.
    def call():
        kernel = graphonlab.fileio.load_kernel(op["input"])
        return 0, graphonlab.symmetry_decompose(
            kernel, lambda lam, e: 0.25 * lam * e, eps, max_parts=math.inf)

    return call


def report_problems(report_text: str, schema: dict) -> list[str]:
    """Correctness gate of one report: schema and check flags, plus the
    certified upper-bound check on sphere experiments."""
    import jsonschema

    report = json.loads(report_text)
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    problems = []
    for c in report["checks"]:
        expected = c["value"] <= c["bound"] if c["op"] == "le" else c["value"] >= c["bound"]
        if not c["pass"] or c["pass"] != expected:
            problems.append(f"check {c['name']}: {c['value']} {c['op']} {c['bound']}")
    if report["command"] == "experiment" and report["inputs"].get("name") == "sphere":
        problems += sphere_upper_within_bound(report)
    return problems


def sphere_upper_within_bound(report: dict) -> list[str]:
    """The certified form of the sphere check: the cut-norm upper bound,
    not the ascent's lower value, must meet the quasirandomness bound."""
    return [f"sphere dim {r['dim']} seed {r['seed']}: cut_upper {r['cut_upper']} > {r['bound']}"
            for r in report["results"]["runs"] if not r["cut_upper"] <= r["bound"]]


BRACKET_KEYS = (("lower", "upper"), ("cut_lower", "cut_upper"),
                ("R_cut_lower", "R_cut_upper"))


def brackets(obj) -> list[tuple[float, float]]:
    """Every cut-norm bracket (lower, upper) in a report."""
    found = []
    if isinstance(obj, dict):
        for lo, hi in BRACKET_KEYS:
            if isinstance(obj.get(lo), (int, float)) and isinstance(obj.get(hi), (int, float)):
                found.append((float(obj[lo]), float(obj[hi])))
        for v in obj.values():
            found += brackets(v)
    elif isinstance(obj, list):
        for v in obj:
            found += brackets(v)
    return found


def import_times(count: int) -> list[float]:
    """Wall time of `import graphonlab` in count fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import graphonlab failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def run_passes(ops: list[dict], budget: float, min_passes: int, tracer=None,
               probes: int = 0) -> tuple[list[dict], list[float]]:
    """min_passes passes over the ops, then more until the next pass would
    end past the budget. Before the first pass and after each pass, outside
    the timed ops, `probes` import probes run, so that set-up time is
    sampled across the whole run; returns the passes and the import times."""
    calls = [_op_call(op) for op in ops]
    passes = []
    start = time.perf_counter()
    setup = import_times(probes)
    while True:
        record = {"ops": [], "seconds": 0.0}
        if tracer is not None:
            tracer.pass_id = len(passes)
        for op, call in zip(ops, calls):
            t0 = time.perf_counter()
            status, payload, tb = run_op(call)
            dt = time.perf_counter() - t0
            record["seconds"] += dt
            record["ops"].append({"name": op["name"], "status": status,
                                  "payload": payload, "traceback": tb, "seconds": dt})
        passes.append(record)
        setup += import_times(probes)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + record["seconds"] > budget:
            return passes, setup


def summarize(ops: list[dict], passes: list[dict], schema: dict, canonical_json,
              check) -> list[dict]:
    """Replace each op payload by its status, digest and gate result.
    schema, canonical_json and check are graphonlab.cli's REPORT_SCHEMA,
    canonical_json and _check."""
    gate_cache: dict[str, tuple] = {}
    for record in passes:
        for op, rec in zip(ops, record["ops"]):
            payload = rec.pop("payload")
            if rec["status"] not in (0, 1):
                rec.update(failed=True, digest=None, problems=[], brackets=[])
                continue
            text = (payload if op["kind"] == "cli"
                    else symmetry_report(op, payload, canonical_json, check))
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest not in gate_cache:
                gate_cache[digest] = (report_problems(text, schema), brackets(json.loads(text)))
            problems, found = gate_cache[digest]
            if rec["status"] == 1:
                problems = ["exit 1"] + problems
            rec.update(failed=False, digest=digest, problems=problems, brackets=found)
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, default=0,
                        help="import probes before the first pass and after each pass")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy

    blas = blas_record()
    if blas["threads"] != 1:
        print(f"refusing to measure: BLAS threads = {blas['threads']} "
              f"({blas['library']}), expected 1", file=sys.stderr)
        return EXIT_REFUSED
    sys.path.insert(0, os.path.abspath("src"))
    import graphonlab
    # the CLI's report helpers, taken before the tracer wraps them, so that
    # building reports after the passes records no spans
    from graphonlab.cli import REPORT_SCHEMA, _check, canonical_json

    if not os.path.abspath(graphonlab.__file__).startswith(os.path.abspath("src")):
        print(f"graphonlab imported from {graphonlab.__file__}, not ./src", file=sys.stderr)
        return EXIT_REFUSED

    with open(args.spec, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if args.traced:
        tracer = Tracer()
        install(tracer)
    passes, setup = run_passes(ops, args.budget, args.min_passes, tracer, args.probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "passes": summarize(ops, passes, REPORT_SCHEMA, canonical_json, _check),
        "setup": setup,
        "peak_rss_mb": peak_rss_mb,
        "machine": {"numpy": numpy.__version__, "blas": blas},
        "spans": tracer.spans if tracer else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
