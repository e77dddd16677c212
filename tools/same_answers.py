"""Check that two source trees give the same solver answers, bit for bit.

    python3 tools/same_answers.py OLD_SRC NEW_SRC [--seeds 1-10]

Runs each ``src/`` tree in its own process, on one BLAS thread, over

* the ``certify-222`` operations of the given seeds (``perfbench/workloads.py``),
* the ladder rungs of ``perfbench/workloads.py`` for ``Linear()``,
  ``DistributedQuadratic(0.1)`` and ``LocalQuadratic(0.1)``, the last up to
  (4,4,2), with the ladder's iteration budget,
* the SDPA reconstructions ``from_sdpa_data(to_sdpa_data(problem))`` of the
  same three models at (2,2,2), (4,2,2), (6,2,4) and (4,4,2), which carry no
  pivots, with the default settings,
* and, built but not solved, the ``export-large`` problems:
  ``LocalQuadratic(0.1)`` at (4,4,4), ``DistributedQuadratic(0.1)`` and
  ``Linear()`` at (6,4,4), and ``Linear()`` at (6,4,6),

and compares, operation by operation, the SHA-256 of the built problem
(its SDPA entries and objective, the bytes of its SDPA file, ``eq_rhs``,
``eq_pivots``, ``zero_vars`` and the CSR arrays of each block's ``coeffs``
and of ``eq_matrix``), the bytes of ``x``, the status and the iteration
count.
Prints every difference, with both objectives, and exits 1 if there is one,
0 otherwise.  The two processes run side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LOCAL_LAST = (4, 4, 2)  # the largest LocalQuadratic rung: (4,4,4) takes minutes
RECONSTRUCTED = [(2, 2, 2), (4, 2, 2), (6, 2, 4), (4, 4, 2)]


def parse_seeds(text: str) -> list[int]:
    """'1-10', '3' or '1,4,7' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def problem_digest(problem, path: Path) -> str:
    """SHA-256 of a problem's SDPA entries and objective, the bytes that
    ``write_sdpa_data`` writes for them (to ``path``), ``eq_rhs``,
    ``eq_pivots``, ``zero_vars`` and the CSR arrays (``indptr``, ``indices``,
    ``data``) of each block's ``coeffs`` and of ``eq_matrix``.

    The SDPA entries are sorted, so only the CSR arrays show the order of
    the entries within a row, which is the order in which the solver sums
    them."""
    from momentpde.sdpa import to_sdpa_data, write_sdpa_data

    data = to_sdpa_data(problem)
    write_sdpa_data(data, path)
    arrays = [data.entries, data.rhs, np.frombuffer(path.read_bytes(), dtype=np.uint8)]
    arrays += [problem.eq_rhs, problem.eq_pivots, problem.zero_vars]
    for matrix in [block.coeffs for block in problem.blocks] + [problem.eq_matrix]:
        arrays += [matrix.indptr, matrix.indices, matrix.data]
    digest = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def answers(seeds: list[int]) -> None:
    """Build, and solve, every operation with the package on sys.path; print
    one JSON line per operation: label, problem digest, SHA-256 of x's
    bytes, status, iterations, objective (the last four null if the
    operation is only built)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from momentpde import (
        DistributedQuadratic, InitialData, Linear, LocalQuadratic, SolverSettings,
        TruncationDegrees, build_problem, from_sdpa_data, solve, to_sdpa_data,
    )

    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for op in workloads.operations("certify-222", seed, Path(workdir)):
                label = f"certify-222 seed {seed} {op.label}"
                cases.append((label, op.model, op.deg, op.u0, op.settings, False))
    ladder = SolverSettings(max_iters=workloads.LADDER_BUDGET)
    models = (Linear(), DistributedQuadratic(0.1), LocalQuadratic(0.1))
    for model in models:
        rungs = workloads.LADDER_TRIPLES
        if isinstance(model, LocalQuadratic):
            rungs = rungs[: rungs.index(LOCAL_LAST) + 1]
        for triple in rungs:
            deg = TruncationDegrees(*triple)
            label = f"ladder {model!r} {triple}"
            cases.append((label, model, deg, InitialData.default(), ladder, False))
    for model in models:
        for triple in RECONSTRUCTED:
            deg = TruncationDegrees(*triple)
            label = f"sdpa {model!r} {triple}"
            cases.append((label, model, deg, InitialData.default(), SolverSettings(), True))
    for model, triple in (  # the export-large problems, built only
        (LocalQuadratic(0.1), (4, 4, 4)),
        (DistributedQuadratic(0.1), (6, 4, 4)),
        (Linear(), (6, 4, 4)),
        (Linear(), (6, 4, 6)),
    ):
        label = f"build {model!r} {triple}"
        cases.append((label, model, TruncationDegrees(*triple), InitialData.default(), None, False))
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "problem.dat-s"
        for label, model, deg, u0, settings, reconstruct in cases:
            problem = build_problem(model, deg, u0)
            line = [label, problem_digest(problem, path), None, None, None, None]
            if settings is not None:
                if reconstruct:
                    problem = from_sdpa_data(to_sdpa_data(problem))
                x, report = solve(problem, settings)
                digest = hashlib.sha256(x.tobytes()).hexdigest()
                line[2:] = [digest, report.status, report.iterations, report.primal_objective]
            print(json.dumps(line), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the first src/ directory")
    parser.add_argument("new", type=Path, help="the second src/ directory")
    parser.add_argument("--seeds", default="1-10", help="certify-222 seeds, e.g. 1-10 or 1,3")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    # each side imports this module from tools/ and its package from its own src/
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import same_answers; "
    code += f"same_answers.answers({seeds!r})"
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            env={**os.environ, **threads, "PYTHONPATH": str(src.resolve())},
            stdout=subprocess.PIPE,
            text=True,
        )
        for src in (args.old, args.new)
    ]
    outputs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("a side failed: exit codes", [p.returncode for p in procs])
        return 1
    old, new = ([json.loads(line) for line in out.splitlines()] for out in outputs)
    same = [a[:5] == b[:5] for a, b in zip(old, new)]  # the objective is only shown
    for a, b, equal in zip(old, new, same):
        if equal:
            continue
        print(f"{a[0]}: problem {a[1][:12]} -> {b[1][:12]}", end="")
        if a[2] is not None and b[2] is not None:
            print(f", x {a[2][:12]} {a[3]} {a[4]} iterations {a[5]!r}", end="")
            print(f" -> x {b[2][:12]} {b[3]} {b[4]} iterations {b[5]!r}", end="")
            print(f" (objective {abs(b[5] - a[5]) / max(abs(a[5]), 1e-300):.1e} relative)", end="")
        print()
    total = max(len(old), len(new))
    print(f"{sum(same)} of {total} operations give the same problem, x, status and iterations")
    return 0 if sum(same) == len(old) == len(new) else 1


if __name__ == "__main__":
    sys.exit(main())
