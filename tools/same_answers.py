"""Check that two source trees give the same solver answers, bit for bit.

    python3 tools/same_answers.py OLD_SRC NEW_SRC [--seeds 1-10]

Runs each ``src/`` tree in its own process, on one BLAS thread, over

* the ``certify-222`` operations of the given seeds (``perfbench/workloads.py``),
* the ladder rungs of ``perfbench/workloads.py`` for ``Linear()``,
  ``DistributedQuadratic(0.1)`` and ``LocalQuadratic(0.1)``, the last up to
  (4,4,2), with the ladder's iteration budget,

and compares, operation by operation, the bytes of ``x``, the status and the
iteration count.  Prints every difference and exits 1 if there is one, 0
otherwise.  The two processes run side by side.
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

ROOT = Path(__file__).resolve().parent.parent
LOCAL_LAST = (4, 4, 2)  # the largest LocalQuadratic rung: (4,4,4) takes minutes


def parse_seeds(text: str) -> list[int]:
    """'1-10', '3' or '1,4,7' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def answers(seeds: list[int]) -> None:
    """Solve every operation with the package on sys.path; print one JSON
    line per operation: label, SHA-256 of x's bytes, status, iterations."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from momentpde import (
        DistributedQuadratic, InitialData, Linear, LocalQuadratic, SolverSettings,
        TruncationDegrees, build_problem, solve,
    )

    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for op in workloads.operations("certify-222", seed, Path(workdir)):
                label = f"certify-222 seed {seed} {op.label}"
                cases.append((label, op.model, op.deg, op.u0, op.settings))
    ladder = SolverSettings(max_iters=workloads.LADDER_BUDGET)
    for model in (Linear(), DistributedQuadratic(0.1), LocalQuadratic(0.1)):
        rungs = workloads.LADDER_TRIPLES
        if isinstance(model, LocalQuadratic):
            rungs = rungs[: rungs.index(LOCAL_LAST) + 1]
        for triple in rungs:
            deg = TruncationDegrees(*triple)
            cases.append((f"ladder {model!r} {triple}", model, deg, InitialData.default(), ladder))
    for label, model, deg, u0, settings in cases:
        x, report = solve(build_problem(model, deg, u0), settings)
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        print(json.dumps([label, digest, report.status, report.iterations]), flush=True)


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
    for a, b in zip(old, new):
        if a != b:
            print(f"{a[0]}: x {a[1][:12]} {a[2]} {a[3]} iterations", end="")
            print(f" -> x {b[1][:12]} {b[2]} {b[3]} iterations")
    same = sum(a == b for a, b in zip(old, new))
    total = max(len(old), len(new))
    print(f"{same} of {total} operations give the same x, status and iterations")
    return 0 if same == len(old) == len(new) else 1


if __name__ == "__main__":
    sys.exit(main())
