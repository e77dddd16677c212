"""Assemble and solve the linear heat relaxation, then grade the answer.

The relaxation's decision variables are the occupation and terminal
pseudo-moments; initial moments are data.  Linear moment equations tie the
three groups together, three Hermitian blocks (moment, localizing and
terminal matrices) must be PSD, and the sum of the moment and terminal
traces is minimized to keep the pseudo-moments from growing.  Each block H
enters the solver as the real symmetric K = V*HV of the same size and
spectrum, V a fixed unitary of the reflection a -> -a of its basis.

The embedded solver eliminates the equalities once, writing x = x0 + Z z
with one sparse LU of the equalities' pivot columns, so equalities hold to
roundoff from the first iteration.  It then runs a primal-dual
interior-point method on z until the duality gap certifies the optimum.
Accuracy is graded against the closed-form moments: the fraction of
canonical occupation pseudo-moments within each relative-error threshold.
"""

import time

from momentpde import (
    InitialData,
    Linear,
    MeasureTag,
    TruncationDegrees,
    analytic_tables,
    build_problem,
    extract_pseudomoments,
    matching_percentages,
    solve,
)

u0 = InitialData.default()

for triple in [(2, 2, 2), (4, 2, 2)]:
    deg = TruncationDegrees(*triple)
    problem = build_problem(Linear(), deg, u0)
    print(f"\ndegrees {triple}: {problem.num_vars} variables, "
          f"{problem.num_eq} equalities, real block sizes "
          f"{[b.size for b in problem.blocks]}")
    start = time.perf_counter()
    x, report = solve(problem)
    print(f"  {report.status} after {report.iterations} iterations "
          f"({time.perf_counter() - start:.2f}s), objective "
          f"{report.primal_objective:.6f}, relative gap {report.relative_gap:.1e}, "
          f"equality residual "
          f"{report.max_equality_residual:.1e}, min block eigenvalue "
          f"{report.min_block_eigenvalue:+.1e}")

    occupation = extract_pseudomoments(problem, x)[MeasureTag.OCCUPATION]
    reference = analytic_tables(u0, deg)[MeasureTag.OCCUPATION]
    print("  threshold  matched/total  percent")
    for tau, matched, total, percent in matching_percentages(occupation, reference):
        print(f"  {tau:9.0e}  {matched:4d}/{total:<9d} {percent:6.1f}%")

print("""
Reading the histograms: most moments are pinned exactly by the equations.
The stragglers are the top time-degree moments of each conjugacy pattern,
which the equations leave free and trace minimization biases low; raising
the time degree (2,2,2) -> (4,2,2) visibly tightens them.""")
