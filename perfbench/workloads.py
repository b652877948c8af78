"""Seeded inputs and the op list of each benchmark workload.

Every input file is generated here from the workload seed; the program
under test receives only these files and an argv. An op is a JSON-able
dict: ``{"name", "kind": "cli", "argv"}`` runs ``graphonlab.cli.main``,
``{"name", "kind": "symmetry", "input", "epsilon"}`` runs
``graphonlab.symmetry_decompose`` on a matrix file. Why each workload was
chosen, and which layers it reaches, is recorded in BENCHMARK.json and in
this directory's README.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("decompose-800", "sphere-1500", "wrandom-1600", "exact-small")

# The CLI's --threads flag is a documented no-op today; 2 is the core count
# of the machine the benchmark was tuned on, so a later process pool shows
# its effect without a benchmark edit.
THREADS = "2"
EPSILON = 0.3
# Parts per step function of the distance op. With few parts the swap
# descent's length swings with the block values (0.5-2.3 s across seeds at
# 4-7 parts); at 24 parts it stays within a few percent, so pass_s is steady.
STEP_PARTS = 24


def _sym_uniform(rng: np.random.Generator, n: int, lo: float = -1.0,
                 hi: float = 1.0) -> np.ndarray:
    """Symmetric matrix whose upper-triangle entries are iid uniform(lo, hi)."""
    u = np.triu(rng.uniform(lo, hi, (n, n)))
    return u + np.triu(u, 1).T


def _write_matrix(path: str, m: np.ndarray) -> None:
    # the documented matrix format: size line, then n rows; %.17g
    # round-trips every double
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]}\n")
        np.savetxt(fh, m, fmt="%.17g")


def _write_step(path: str, sizes: list[int], block: np.ndarray) -> None:
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"parts: {len(sizes)}\n")
        fh.write(" ".join(str(x) for x in labels) + "\n")
        np.savetxt(fh, block, fmt="%.17g")


def _refinement_size(sizes: list[int], atoms: int) -> int:
    """Common uniform refinement of part weights sizes/atoms: the smallest m
    with every size*m/atoms an integer."""
    return int(np.lcm.reduce([atoms // np.gcd(s, atoms) for s in sizes]))


def _step_sizes(rng: np.random.Generator, atoms: int, parts: int) -> list[int]:
    """Part sizes summing to atoms whose weights need the full atoms-grid."""
    while True:
        cuts = np.sort(rng.choice(np.arange(1, atoms), size=parts - 1, replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [atoms]])).tolist()
        if _refinement_size(sizes, atoms) == atoms:
            return sizes


def planted_kernel(rng: np.random.Generator, n: int) -> np.ndarray:
    """Planted 4-block kernel plus 0.4x symmetric uniform(-1,1) noise,
    clipped to [-1, 1]."""
    labels = np.arange(n) % 4
    block = _sym_uniform(rng, 4)
    noise = _sym_uniform(rng, n)
    return np.clip(block[np.ix_(labels, labels)] + 0.4 * noise, -1.0, 1.0)


def cayley_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Circulant kernel K[x,y] = f((y-x) mod n) with even f, f(0) = 0 and
    distinct values per distance, so the automorphism group is the
    dihedral group and the search is vertex-transitive by construction."""
    half = rng.uniform(-1.0, 1.0, n // 2 + 1)
    half[0] = 0.0
    f = np.concatenate([half, half[1:(n + 1) // 2][::-1]])
    x = np.arange(n)
    return f[(x[None, :] - x[:, None]) % n]


def make_ops(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input files into workdir and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    s = str(seed)

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    if workload == "decompose-800":
        _write_matrix(path("planted.txt"), planted_kernel(rng, 800))
        _write_matrix(path("noise.txt"), _sym_uniform(rng, 800))
        return [
            {"name": f"decompose-{tag}", "kind": "cli",
             "argv": ["decompose", "--input", path(f"{tag}.txt"),
                      "--epsilon", str(EPSILON), "--F", "0.25*lambda*eps"]}
            for tag in ("planted", "noise")
        ]
    if workload == "sphere-1500":
        return [{"name": "experiment-sphere", "kind": "cli",
                 "argv": ["experiment", "--name", "sphere", "--dims", "2,3,4",
                          "--count", "1500", "--seeds", f"{seed},{seed + 1}",
                          "--seed", s, "--threads", THREADS]}]
    if workload == "wrandom-1600":
        return [{"name": "experiment-wrandom", "kind": "cli",
                 "argv": ["experiment", "--name", "wrandom-convergence",
                          "--counts", "100,400,1600", "--runs", "5",
                          "--seed", s, "--threads", THREADS]}]
    # exact-small
    _write_matrix(path("k22.txt"), _sym_uniform(rng, 22))
    for tag in ("a", "b"):
        sizes = _step_sizes(rng, 60, STEP_PARTS)
        _write_step(path(f"step_{tag}.txt"), sizes, _sym_uniform(rng, len(sizes), 0.0, 1.0))
    _write_matrix(path("k200.txt"), _sym_uniform(rng, 200, 0.0, 1.0))
    _write_matrix(path("cayley48.txt"), cayley_values(rng, 48))
    return [
        {"name": "cutnorm-exact-22", "kind": "cli",
         "argv": ["cutnorm", "--input", path("k22.txt"), "--seed", s]},
        {"name": "distance-cut-60", "kind": "cli",
         "argv": ["distance", path("step_a.txt"), path("step_b.txt"),
                  "--norm", "cut", "--seed", s]},
        {"name": "density-mc-c4", "kind": "cli",
         "argv": ["density", "--input", path("k200.txt"), "--graph", "cycle_4",
                  "--samples", "1000000", "--seed", s]},
        {"name": "experiment-circle", "kind": "cli",
         "argv": ["experiment", "--name", "circle", "--n", "64", "--ks", "3,5",
                  "--seed", s]},
        {"name": "symmetry-cayley-48", "kind": "symmetry",
         "input": path("cayley48.txt"), "epsilon": EPSILON},
    ]
