"""Command-line surface: spectrum, cutnorm, decompose, density, distance,
make, experiment, plot.

Reports are canonical JSON: keys sorted, floats rounded to 12 significant
digits, no wall-clock data (the runtime goes to stderr). Identical flags and
seeds therefore produce byte-identical reports regardless of --threads.

Exit codes: 0 pass, 1 check failed (a bound was violated), 2 usage error,
3 numeric failure. This module only parses flags and dispatches: a flag
value outside its range is reported by the library function that reads it,
as errors.ParameterError, and exits 2 like a flag that does not parse.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import time

import numpy as np

from . import experiments, fileio, svgplot
from .core import (
    SimpleGraph,
    StepFunction,
    builtin_graph,
    cycle_graph,
    expand_step,
    weighted_mean,
    weighted_norm,
)
from .cutnorm import DEFAULT_EXACT_LIMIT, DEFAULT_RESTARTS, EXACT_CEILING, cutnorm_bracket
from .distance import DEFAULT_MAX_ATOMS, delta_bracket
from .ensembles import (
    ProfileFunction,
    cayley_kernel,
    circle_halfplane_kernel,
    sphere_kernel,
    w_random_graph,
)
from .errors import GraphonError, GridOverflowError, ParameterError
from .experiments import builtin_rank3_step
from .homdensity import cycle_density_spectral, hom_density_mc, hom_density_step
from .regularity import (
    ADDITIVITY_TOL,
    DEFAULT_GRID_CAP,
    check_max_parts,
    cluster_eigenvectors,
    regularity_decompose,
)
from .spectral import decompose, spectral_radius, spectrum

SCHEMA_VERSION = "graphonlab.report/1"

# Published schema for every report this tool emits; the `pass` flag of a
# check is always recomputable from value, bound and op.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "inputs", "results", "checks"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value", "bound", "op", "pass"],
                "properties": {
                    "name": {"type": "string"},
                    "value": {"type": "number"},
                    "bound": {"type": "number"},
                    "op": {"enum": ["le", "ge"]},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# canonical JSON


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(report: dict) -> str:
    return json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"


def _check(name: str, value: float, bound: float, op: str) -> dict:
    # evaluate on the serialized (rounded) numbers so the pass flag is
    # always recomputable from the report itself
    value = _round_floats(float(value))
    bound = _round_floats(float(bound))
    ok = value <= bound if op == "le" else value >= bound
    return {"name": name, "value": value, "bound": bound, "op": op, "pass": bool(ok)}


def _report(command: str, inputs: dict, results: dict, checks: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# flag parsing helpers

_F_TERM = re.compile(r"^(lambda|eps|epsilon)(?:\^([-+]?\d+(?:\.\d+)?))?$")


def parse_F(spec: str):
    """Parse the two-parameter family 'c*lambda^p*eps^q' into a callable.

    Any subset of the factors may appear; bare 'lambda' or 'eps' means
    exponent 1. Examples: '0.25*lambda*eps', '0.1*lambda^2', '0.05'. The
    constant must be positive: with c <= 0 no threshold schedule can start.
    """
    c = 1.0
    p = 0.0
    q = 0.0
    saw_const = False
    for raw in spec.split("*"):
        term = raw.strip()
        if not term:
            raise ParameterError(f"empty factor in F spec {spec!r}")
        m = _F_TERM.match(term)
        if m:
            expo = float(m.group(2)) if m.group(2) else 1.0
            if m.group(1) == "lambda":
                p += expo
            else:
                q += expo
            continue
        try:
            value = float(term)
        except ValueError as exc:
            raise ParameterError(f"unreadable factor {term!r} in F spec") from exc
        if saw_const:
            c *= value
        else:
            c = value
            saw_const = True
    if not c > 0.0:  # also rejects NaN
        raise ParameterError(f"the constant of F spec {spec!r} must be positive, got {c}")

    def F(lam: float, eps: float) -> float:
        return c * lam**p * eps**q

    return F, {"c": c, "lambda_power": p, "eps_power": q}


def _number_list(spec: str, kind=int) -> list:
    """Comma-separated numbers of one kind; unreadable or empty text is a
    usage error."""
    try:
        values = [kind(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"unreadable number list {spec!r}") from exc
    if not values:
        raise ParameterError(f"empty number list {spec!r}")
    return values


def parse_profile(spec: str) -> ProfileFunction:
    """'threshold:c', 'linear', 'cos:c0,c1,...' or 'table:v0,v1,...'."""
    if spec == "linear":
        return ProfileFunction.linear()
    if ":" in spec:
        kind, arg = spec.split(":", 1)
        values = _number_list(arg, float)
        if kind == "threshold" and len(values) == 1:
            return ProfileFunction.threshold(values[0])
        if kind == "cos":
            return ProfileFunction.cosine_series(values)
        if kind == "table":
            return ProfileFunction.from_table(values)
    raise ParameterError(f"unreadable profile spec {spec!r}")


def parse_graph_arg(spec: str) -> SimpleGraph:
    """A builtin template graph by name, else a graph file."""
    try:
        return builtin_graph(spec)
    except ValueError as exc:
        reason = exc
    try:
        return fileio.load_graph(spec)
    except OSError as exc:
        raise ParameterError(
            f"graph {spec!r} is neither a builtin ({reason}) nor a readable file"
        ) from exc


# The flags, by dest, that a case reads beyond those every case of its
# subcommand reads; True marks one the case cannot run without.
_EXPERIMENT_FLAGS = {
    "circle": {"n": False, "ks": False},
    "sphere": {"dims": False, "count": False, "seeds": False, "f": False},
    "wrandom-convergence": {"counts": False, "runs": False, "input": False},
}
_ENSEMBLE_FLAGS = {
    "cayley": {"n": True, "f": True},
    "circle": {"n": True},
    "sphere": {"dim": True, "count": True, "f": False, "seed": True},
    "wrandom": {"count": True, "input": True, "seed": True},
}
_DENSITY_FLAGS = {"step": {}, "matrix": {"samples": True, "seed": True}}

# Where the output goes and how the run executes: never echoed, so reports
# are byte-identical across thread counts.
_UNECHOED = ("command", "output", "report", "threads")


def _inputs(args, case: str | None = None, table: dict | None = None) -> dict:
    """The report's inputs: every flag the run was given, by dest, less the
    execution details. With a table of the flags each case reads, a given
    flag that this case does not read, or a required one left out, is a
    usage error."""
    given = {k: v for k, v in vars(args).items() if v is not None and k not in _UNECHOED}
    if table is not None:
        reads = table[case]
        stray = sorted(set().union(*table.values()).intersection(given) - set(reads))
        if stray:
            raise ParameterError(f"{args.command} {case} does not read {', '.join(stray)}")
        missing = [dest for dest, needed in reads.items() if needed and dest not in given]
        if missing:
            raise ParameterError(f"{args.command} {case} needs {', '.join(missing)}")
    return given


# ---------------------------------------------------------------------------
# subcommand handlers; each returns a report dict


def _cmd_spectrum(args) -> dict:
    kernel = fileio.load_kernel(args.input)
    dec = decompose(kernel)
    sup_norms = np.max(np.abs(dec.eigenvectors), axis=0)
    results = {
        "n": dec.n,
        "eigenvalues": dec.eigenvalues,
        "clusters": [list(c) for c in dec.clusters],
        "cluster_dimensions": dec.cluster_dimensions(),
        "eigenvector_sup_norms": sup_norms,
        "spectral_radius": spectral_radius(dec),
        "l2_norm": weighted_norm(kernel, "L2"),
    }
    return _report("spectrum", _inputs(args), results, [])


def _cmd_cutnorm(args) -> dict:
    kernel = fileio.load_kernel(args.input)
    est = cutnorm_bracket(kernel, exact_limit=args.exact_limit, restarts=args.restarts,
                          seed=args.seed)
    results = {
        "lower": est.lower,
        "upper": est.upper,
        "method": est.method,
        "witness_f": [int(x) for x in est.witness_f],
        "witness_g": [int(x) for x in est.witness_g],
    }
    return _report("cutnorm", _inputs(args), results, [])


def _cmd_decompose(args) -> dict:
    eps = args.epsilon
    F, f_desc = parse_F(args.F)
    check_max_parts(args.max_parts)  # before the decomposition, not after it
    kernel = fileio.load_kernel(args.input)
    reg = regularity_decompose(kernel, F, eps)
    dec = reg.spectral
    try:
        clustering = cluster_eigenvectors(dec, reg.lam, eps, max_parts=args.max_parts)
        sf = clustering.step
    except GridOverflowError:
        clustering = None  # high-rank S: partition available via --max-parts
        sf = None
    certs = reg.certificates
    f_at_run = F(reg.lam, eps)
    additivity = reg.S.values + reg.E.values  # S + E + R - M in one buffer
    additivity += reg.R.values
    additivity -= kernel.values
    checks = [
        _check("additivity_sup_error", float(np.max(np.abs(additivity, out=additivity))),
               ADDITIVITY_TOL, "le"),
        _check("E_l2_within_eps", certs.E_l2, eps, "le"),
        _check("R_cut_upper_within_F", certs.R_cut.upper, f_at_run, "le"),
        _check("SE_sup_norm", certs.SE_linf, 1.0 + 1e-9, "le"),
    ]
    # an infinite bound (past the float range, under --max-parts inf) is vacuous
    if clustering is not None and math.isfinite(clustering.step_count_bound):
        checks.append(_check("step_count_within_bound", float(sf.parts),
                             clustering.step_count_bound, "le"))
    results = {
        "lambda": reg.lam,
        "lambda_next": reg.lam_next,
        "delta_floor": reg.delta_floor,
        "epsilon": eps,
        "F": f_desc,
        "F_at_run": f_at_run,
        "certificates": {
            "E_l2": certs.E_l2,
            "R_cut_lower": certs.R_cut.lower,
            "R_cut_upper": certs.R_cut.upper,
            "R_cut_method": certs.R_cut.method,
            "SE_linf": certs.SE_linf,
            "clamped": certs.clamped,
            "epsilon_violated": certs.epsilon_violated,
        },
        "eigenvalues": dec.eigenvalues,
        "clusters": [list(c) for c in dec.clusters],
        "partition": None if sf is None else {
            "labels": sf.part_of,
            "block": sf.block,
            "part_weights": sf.part_weights,
        },
    }
    return _report("decompose", _inputs(args), results, checks)


def _cmd_density(args) -> dict:
    source = fileio.load_source(args.input)
    is_step = isinstance(source, StepFunction)
    inputs = _inputs(args, "step" if is_step else "matrix", _DENSITY_FLAGS)
    graph = parse_graph_arg(args.graph)
    results: dict = {"graph": args.graph, "vertices": graph.k, "edges": graph.edge_count}
    if is_step:
        est = hom_density_step(graph, source)
    else:
        est = hom_density_mc(graph, source, args.samples, args.seed)
        if graph.k >= 3 and graph == cycle_graph(graph.k):
            results["spectral_value"] = cycle_density_spectral(spectrum(source), graph.k).value
    results.update(dataclasses.asdict(est))
    return _report("density", inputs, results, [])


def _cmd_distance(args) -> dict:
    sf1 = fileio.load_step(args.first)
    sf2 = fileio.load_step(args.second)
    norm = {"l1": "L1", "l2": "L2", "cut": "cut"}[args.norm]
    bracket = delta_bracket(sf1, sf2, norm, max_atoms=args.max_atoms,
                            exact_limit=args.exact_limit, seed=args.seed)
    return _report("distance", _inputs(args), dataclasses.asdict(bracket), [])


def _cmd_make(args) -> dict:
    ens = args.ensemble
    inputs = _inputs(args, ens, _ENSEMBLE_FLAGS)
    if ens == "cayley":
        vals = _number_list(args.f, float)
        kernel = cayley_kernel(args.n, vals)
        params = {"n": args.n, "f": vals}
    elif ens == "circle":
        kernel = circle_halfplane_kernel(args.n)
        params = {"n": args.n}
    elif ens == "sphere":
        f = args.f or "threshold:0"
        profile = parse_profile(f)
        kernel = sphere_kernel(args.dim, profile, args.count, args.seed)
        params = {"dim": args.dim, "count": args.count, "f": f}
    else:  # wrandom
        source = fileio.load_source(args.input)
        if isinstance(source, StepFunction):
            source = expand_step(source)
        kernel = w_random_graph(source, args.count, args.seed)
        params = {"count": args.count, "source": args.input}
    fileio.write_text_atomic(args.output, fileio.format_matrix(kernel))
    results = {
        "ensemble": ens,
        "params": params,
        "n": kernel.n,
        "edge_density": weighted_mean(kernel),
        "written": args.output,
    }
    return _report("make", inputs, results, [])


def _cmd_experiment(args) -> dict:
    inputs = _inputs(args, args.name, _EXPERIMENT_FLAGS)
    seed = args.seed
    if args.name == "circle":
        n = 64 if args.n is None else args.n
        results, checks = experiments.circle(n, _number_list(args.ks or "3,5"), seed)
    elif args.name == "sphere":
        f = args.f or "threshold:0"
        seeds = _number_list(args.seeds) if args.seeds else [seed + i for i in range(3)]
        dims = _number_list(args.dims or "2,3,4")
        count = 1500 if args.count is None else args.count
        results, checks = experiments.sphere(dims, count, seeds, parse_profile(f),
                                             workers=args.threads)
        results["f"] = f
    else:
        source = fileio.load_step(args.input) if args.input else builtin_rank3_step()
        counts = _number_list(args.counts or "100,400,1600")
        runs = 5 if args.runs is None else args.runs
        results, checks = experiments.wrandom_convergence(
            source, counts, [seed + i for i in range(runs)], workers=args.threads)
    return _report("experiment", inputs, results, [_check(*c) for c in checks])


def _cmd_plot(args) -> dict:
    path = args.input
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise fileio.FormatError(f"{path}: not a JSON report: {exc}") from exc
    results = report.get("results", {}) if isinstance(report, dict) else None
    if not isinstance(results, dict):
        raise fileio.FormatError(f"{path}: not a graphonlab report")
    if args.kind == "spectrum":
        if "eigenvalues" not in results or "clusters" not in results:
            raise ParameterError("report has no spectrum series")
        svgplot.spectrum_plot(results["eigenvalues"], results["clusters"], args.output)
    elif args.kind == "partition":
        part = results.get("partition")
        if not part:
            raise ParameterError("report has no partition series")
        svgplot.partition_plot(part["block"], part["part_weights"], args.output)
    else:  # trajectory
        if "trajectories" not in results:
            raise ParameterError("report has no trajectory series")
        svgplot.trajectory_plot(
            results["sample_sizes"], results["trajectories"], args.output,
            reference=results.get("reference"),
        )
    return _report("plot", _inputs(args), {"written": args.output, "kind": args.kind}, [])


# ---------------------------------------------------------------------------
# plumbing


def _flag(name: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(name, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--threads", type=int, default=1,
                     help="worker processes for the sphere and W-random experiments; "
                          "reports never depend on it")
    report = _flag("--output", dest="report", help="also write the report JSON here")
    source = _flag("--input", required=True, help="input file (matrix, step or report)")
    seed = _flag("--seed", type=int, required=True, help="RNG seed")
    case_seed = _flag("--seed", type=int, help="RNG seed; required where the run samples")
    exact = _flag("--exact-limit", dest="exact_limit", type=int, default=DEFAULT_EXACT_LIMIT,
                  help=f"largest n for exact cut-norm enumeration, 0 to {EXACT_CEILING}")

    parser = argparse.ArgumentParser(
        prog="graphonlab",
        description="Spectral analysis of discretized graphons and kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", parents=[run, report, source],
                   help="eigenvalues, clusters and sup norms")

    p_cut = sub.add_parser("cutnorm", parents=[run, report, source, seed, exact],
                           help="cut-norm bracket")
    p_cut.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)

    p_dec = sub.add_parser("decompose", parents=[run, report, source],
                           help="regularity decomposition with certificates")
    p_dec.add_argument("--epsilon", type=float, required=True)
    p_dec.add_argument("--F", default="0.25*lambda*eps",
                       help="target family c*lambda^p*eps^q")
    p_dec.add_argument("--max-parts", dest="max_parts", type=float, default=DEFAULT_GRID_CAP)

    p_den = sub.add_parser("density", parents=[run, report, source, case_seed],
                           help="homomorphism density")
    p_den.add_argument("--graph", required=True,
                       help="builtin (edge, triangle, K4, path_k, cycle_k) or file")
    p_den.add_argument("--samples", type=int, help="matrix input: Monte Carlo samples")

    p_dist = sub.add_parser("distance", parents=[run, report, seed, exact],
                            help="rearrangement distance bracket")
    p_dist.add_argument("first", help="step-function file")
    p_dist.add_argument("second", help="step-function file")
    p_dist.add_argument("--norm", choices=["l1", "l2", "cut"], default="cut")
    p_dist.add_argument("--max-atoms", dest="max_atoms", type=int, default=DEFAULT_MAX_ATOMS)

    p_make = sub.add_parser("make", parents=[run, case_seed], help="build an ensemble kernel")
    p_make.add_argument("--ensemble", required=True, choices=list(_ENSEMBLE_FLAGS))
    p_make.add_argument("--output", required=True, help="kernel file to write")
    p_make.add_argument("--n", type=int)
    p_make.add_argument("--dim", type=int)
    p_make.add_argument("--N", dest="count", type=int, help="sample count")
    p_make.add_argument("--f", help="cayley: comma values; sphere: profile spec")
    p_make.add_argument("--input", help="wrandom: source kernel (matrix or step)")

    p_exp = sub.add_parser("experiment", parents=[run, report, seed],
                           help="experiment driver")
    p_exp.add_argument("--name", required=True, choices=list(_EXPERIMENT_FLAGS))
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--ks", help="circle: dilation factors")
    p_exp.add_argument("--dims", help="sphere: dimensions")
    p_exp.add_argument("--count", type=int)
    p_exp.add_argument("--counts", help="wrandom: sample sizes")
    p_exp.add_argument("--runs", type=int, help="wrandom: seeds per size")
    p_exp.add_argument("--seeds", help="sphere: explicit seed list")
    p_exp.add_argument("--f", help="sphere: profile spec")
    p_exp.add_argument("--input", help="wrandom: source step file")

    p_plot = sub.add_parser("plot", parents=[run, source], help="render a report series")
    p_plot.add_argument("--kind", required=True,
                        choices=["spectrum", "partition", "trajectory"])
    p_plot.add_argument("--output", required=True, help="SVG file to write")
    return parser


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "cutnorm": _cmd_cutnorm,
    "decompose": _cmd_decompose,
    "density": _cmd_density,
    "distance": _cmd_distance,
    "make": _cmd_make,
    "experiment": _cmd_experiment,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        if not args.threads >= 1:  # every subcommand takes --threads
            raise ParameterError(f"--threads must be at least 1, got {args.threads}")
        report = _HANDLERS[args.command](args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, fileio.FormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphonError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"runtime: {time.monotonic() - start:.3f}s", file=sys.stderr)
    text = canonical_json(report)
    if getattr(args, "report", None):
        fileio.write_text_atomic(args.report, text)
    sys.stdout.write(text)
    failed = [c for c in report["checks"] if not c["pass"]]
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
