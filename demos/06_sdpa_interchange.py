"""Round-tripping the relaxation through the SDPA sparse format.

Large truncations outgrow the embedded dense-Schur interior-point solver;
the escape hatch is the plain-text SDPA sparse format (.dat-s) consumed by
external solvers.  This script

  * exports the (2,2,2) linear heat relaxation,
  * parses the file back and checks structural identity with the writer's
    own view of the problem,
  * reconstructs a solvable problem from nothing but the file contents
    (the equality pairs come back as the equalities) and re-solves it,
    confirming the file carries the full problem,
  * writes and re-imports a plain-text solution vector.
"""

import tempfile
from pathlib import Path

import numpy as np

from momentpde import (
    InitialData,
    Linear,
    TruncationDegrees,
    build_problem,
    export_sdpa,
    from_sdpa_data,
    import_solution,
    read_sdpa,
    solve,
    to_sdpa_data,
    write_solution,
)

u0 = InitialData.default()
problem = build_problem(Linear(), TruncationDegrees(2, 2, 2), u0)

workdir = Path(tempfile.mkdtemp(prefix="momentpde_"))
dat = workdir / "heat_222.dat-s"
export_sdpa(problem, dat)
print(f"wrote {dat} ({dat.stat().st_size} bytes)")
head = dat.read_text().splitlines()
print("header:", head[:4])
print(f"entry lines: {len(head) - 4}")

data = read_sdpa(dat)
written = to_sdpa_data(problem)
assert (data.num_constraints, data.block_sizes, data.rhs) == (
    written.num_constraints,
    written.block_sizes,
    written.rhs,
)
assert np.array_equal(data.entries, written.entries)
print("parse-back is structurally identical to the writer's view")

reconstructed = from_sdpa_data(data)
_, direct = solve(problem)
_, from_file = solve(reconstructed)
rel = abs(direct.primal_objective - from_file.primal_objective) / abs(
    direct.primal_objective
)
print(f"objective solved directly:       {direct.primal_objective:.9f}")
print(f"objective solved from the file:  {from_file.primal_objective:.9f}")
print(f"relative difference: {rel:.1e}")

x, _ = solve(problem)
sol = workdir / "solution.txt"
write_solution(x, sol)
back = import_solution(sol, problem)
print(f"solution file round-trip: max deviation {np.abs(x - back).max():.1e}")
