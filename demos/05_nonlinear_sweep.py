"""Quadratic perturbations: how pseudo-moments drift as epsilon grows.

Two nonlinear right-hand sides are supported on top of the heat operator:

  distributed : eps * <u, f1> <u, f2> * 1   (forces only the constant mode)
  local       : eps * u^2                   (a convolution in mode space)

Neither has closed-form moments, so each epsilon run is graded against the
epsilon = 0 closed-form tables: the matching percentage at a fixed relative
accuracy must not increase with epsilon.  The sweep uses the values
{0, 1e-6, 1e-3, 1}.

Note the structural cliff for the local model: the convolution term of a
test index with k modes references k+1 modes, so at algebraic degree 2
every k = 2 test constraint is dropped as soon as eps != 0, and even a tiny
epsilon loses the equations that pinned the k = 2 moments.  The distributed
model only drops test indices that contain a zero mode, which the remaining
structure compensates for.

At epsilon = 1 the local model's relaxation at (4,2,2) looks infeasible (the
PDE itself blows up at t ~ 0.41): the solver stops short of "optimal" there,
and its best iterate is graded like the others.
"""

import time

from momentpde import (
    DistributedQuadratic,
    InitialData,
    LocalQuadratic,
    MeasureTag,
    TruncationDegrees,
    analytic_tables,
    build_problem,
    extract_pseudomoments,
    matching_percentages,
    solve,
)

u0 = InitialData.default()
deg = TruncationDegrees(4, 2, 2)
reference = analytic_tables(u0, deg)[MeasureTag.OCCUPATION]
TAU = 1e-3

for name, make in [
    ("distributed", lambda e: DistributedQuadratic(e, 1, 1)),
    ("local", LocalQuadratic),
]:
    print(f"\n{name} quadratic model at degrees {deg.as_tuple()}:")
    for eps in (0.0, 1e-6, 1e-3, 1.0):
        problem = build_problem(make(eps), deg, u0)
        start = time.perf_counter()
        x, report = solve(problem)
        occupation = extract_pseudomoments(problem, x)[MeasureTag.OCCUPATION]
        rows = dict((t, p) for t, _, _, p in matching_percentages(occupation, reference))
        print(f"  eps = {eps:>6g}: {rows[TAU]:5.1f}% of occupation pseudo-moments "
              f"within {TAU:.0e} of the eps=0 closed form "
              f"({problem.num_eq} equalities, {report.status}, "
              f"{time.perf_counter() - start:.2f}s)")
