"""Acceptance suite: each test enforces one criterion at its stated tolerance
and prints a [PASS]/[FAIL] line (run with -s to see them all).

Two sub-criteria fail for structural reasons and are kept at their stated
tolerances rather than loosened:

* embedded-solve at degrees (2,2,2): the equality constraints leave one free
  parameter per conjugacy pattern (the top time-degree moments), and trace
  minimization biases those by ~1e-2.  The embedded interior-point solver
  certifies that min-trace optimum to a relative gap of 1e-8, and it matches
  71.8% at 1e-3, so no solver can reach 90% there.  The (4,2,2) case passes
  with margin.

* nonlinear-consistency for the local model at (4,2,2): any eps != 0 drops
  every k=2 test constraint (the convolution term needs k+1 <= algebraic
  degree), so the feasible set changes discontinuously at eps = 0 and the
  eps=1e-6 run cannot match the eps=0 run.  Keeping clipped constraints
  instead would impose equations that are simply wrong by O(eps) and break
  the Galerkin oracle consistency checks.  Monotonicity holds for both
  models; the distributed model passes both clauses.
"""

import math
import random
import time

import numpy as np
import pytest

from momentpde.analytic import analytic_tables, i_ell
from momentpde.compare import matching_percentages, relative_error
from momentpde.galerkin import integrate, trajectory_moments
from momentpde.indices import (
    MomentIndex,
    TruncationDegrees,
    canonicalize,
    count_matrix_basis,
    count_moment_vector,
)
from momentpde.models import (
    DistributedQuadratic,
    InitialData,
    Linear,
    LocalQuadratic,
    MeasureTag,
    constraint_residual,
    generate_constraints,
)
from momentpde.relaxation import (
    build_problem,
    extract_pseudomoments,
    localizing_matrix,
    moment_matrix,
    terminal_matrix,
)
from momentpde.sdpa import export_sdpa, read_sdpa, to_sdpa_data
from momentpde.solver import solve

from test_relaxation import PHASES
from test_sdpa import same_data
from test_solver import min_trace_completion_problem, rank_one_forcing_problem

SIZE_TABLE = {
    (2, 2, 2): (63, 12),
    (4, 2, 2): (105, 18),
    (6, 2, 2): (147, 24),
    (6, 2, 4): (385, 40),
    (2, 4, 2): (378, 42),
    (4, 4, 2): (630, 63),
    (6, 4, 2): (882, 84),
    (4, 4, 4): (3575, 165),
    (6, 4, 4): (5005, 220),
    (6, 4, 6): (16660, 420),
    (6, 6, 4): (35035, 880),
    (6, 6, 6): (189924, 2240),
}

U0 = InitialData.default()


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_size_table_reproduction():
    start = time.perf_counter()
    mismatches = []
    for triple, expected in SIZE_TABLE.items():
        deg = TruncationDegrees(*triple)
        got = (count_moment_vector(deg), count_matrix_basis(deg))
        if got != expected:
            mismatches.append((triple, got, expected))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    assert report(
        "size-table", ok, f"12/12 rows exact, {elapsed * 1e3:.1f} ms"
    ), mismatches


def test_analytic_witness_feasibility():
    start = time.perf_counter()
    worst_res, worst_eig = 0.0, 0.0
    for triple in [(2, 2, 2), (4, 2, 2), (4, 4, 2), (6, 4, 4)]:
        deg = TruncationDegrees(*triple)
        tables = analytic_tables(U0, deg)
        res = constraint_residual(generate_constraints(Linear(), deg), tables)
        worst_res = max(worst_res, res)
        blocks = (
            moment_matrix(tables[MeasureTag.OCCUPATION], deg),
            localizing_matrix(tables[MeasureTag.OCCUPATION], deg),
            terminal_matrix(tables[MeasureTag.TERMINAL], deg),
        )
        worst_eig = min(
            [worst_eig] + [float(np.linalg.eigvalsh(h).min()) for h in blocks]
        )
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-10 and worst_eig >= -1e-9 and elapsed < 30.0
    assert report(
        "analytic-witness",
        ok,
        f"max residual {worst_res:.2e}, min eigenvalue {worst_eig:.2e}, {elapsed:.1f} s",
    )


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2)])
def test_embedded_solve_accuracy(triple):
    deg = TruncationDegrees(*triple)
    problem = build_problem(Linear(), deg, U0)
    start = time.perf_counter()
    x, rep = solve(problem)
    elapsed = time.perf_counter() - start
    occupation = extract_pseudomoments(problem, x)[MeasureTag.OCCUPATION]
    reference = analytic_tables(U0, deg)[MeasureTag.OCCUPATION]
    rows = dict(
        (tau, percent) for tau, _, _, percent in matching_percentages(occupation, reference)
    )
    pct = rows[1e-3]
    ok = pct >= 90.0 and rep.max_equality_residual <= 1e-6 and elapsed < 60.0
    assert report(
        f"embedded-solve{triple}",
        ok,
        f"{pct:.1f}% within 1e-3, equality residual "
        f"{rep.max_equality_residual:.2e}, {elapsed:.1f} s ({rep.status})",
    )


def test_oracle_cross_check():
    deg = TruncationDegrees(4, 4, 2)
    occupation, terminal = trajectory_moments(
        integrate(Linear(), U0, step=1e-3, cutoff=deg.harmonic), deg
    )
    exact = analytic_tables(U0, deg)
    worst = 0.0
    for measure, table in ((MeasureTag.OCCUPATION, occupation), (MeasureTag.TERMINAL, terminal)):
        ref = exact[measure].lookup(table.moments.ell, table.moments.counts)
        worst = max(worst, float(relative_error(table.values, ref).max()))

    def terminal_error(step):
        traj = integrate(Linear(), U0, step=step, cutoff=1)
        return abs(traj.mode_series(1)[-1] - math.exp(-1))

    ratio = terminal_error(2e-2) / terminal_error(1e-2)
    ok = worst <= 1e-6 and 12.0 <= ratio <= 20.0
    assert report(
        "oracle-cross-check",
        ok,
        f"worst relative error {worst:.2e}, step-halving ratio {ratio:.2f}",
    )


def _sweep_percentages(make_model):
    deg = TruncationDegrees(4, 2, 2)
    reference = analytic_tables(U0, deg)[MeasureTag.OCCUPATION]
    percentages = []
    for eps in (0.0, 1e-6, 1e-3, 1.0):
        problem = build_problem(make_model(eps), deg, U0)
        x, _ = solve(problem)
        occupation = extract_pseudomoments(problem, x)[MeasureTag.OCCUPATION]
        rows = dict(
            (tau, pct) for tau, _, _, pct in matching_percentages(occupation, reference)
        )
        percentages.append(rows[1e-3])
    return percentages


@pytest.mark.parametrize(
    "name,factory",
    [
        ("distributed", lambda eps: DistributedQuadratic(eps, 1, 1)),
        ("local", LocalQuadratic),
    ],
)
def test_nonlinear_consistency(name, factory):
    pcts = _sweep_percentages(factory)
    monotone = all(pcts[i] >= pcts[i + 1] for i in range(len(pcts) - 1))
    indistinguishable = pcts[0] == pcts[1]
    ok = monotone and indistinguishable
    assert report(
        f"nonlinear-consistency-{name}",
        ok,
        "match% at 1e-3 over eps {0, 1e-6, 1e-3, 1} = "
        + "/".join(f"{p:.1f}" for p in pcts)
        + f", monotone={monotone}, eps=1e-6 matches eps=0: {indistinguishable}",
    )


def test_property_suites(tmp_path):
    # canonicalization: idempotence and involution on 1e4 random indices
    rng = random.Random(12345)
    canon_ok = True
    for _ in range(10_000):
        idx = MomentIndex(
            rng.randrange(0, 7),
            tuple(rng.randrange(-6, 7) for _ in range(rng.randrange(0, 7))),
        )
        canon = canonicalize(idx)
        again = canonicalize(canon.index)
        mirror = MomentIndex(idx.time_degree, tuple(-n for n in idx.freqs))
        flipped = canonicalize(mirror)
        canon_ok &= again.index == canon.index and not again.conjugated
        canon_ok &= flipped.index == canon.index
        if mirror == idx:
            canon_ok &= not canon.conjugated and not flipped.conjugated
        else:
            canon_ok &= flipped.conjugated != canon.conjugated

    # real blocks: every build_problem block has the spectrum of its numeric
    # Hermitian block, on seeded pseudo-moments, for all three models and on
    # data that are real or carry unrelated phases on modes 1 and 2
    np_rng = np.random.default_rng(99)
    block_err = 0.0
    deg = TruncationDegrees(4, 4, 2)
    for model in (Linear(), DistributedQuadratic(0.1), LocalQuadratic(0.1)):
        for u0 in (U0, PHASES):
            problem = build_problem(model, deg, u0)
            x = np_rng.normal(size=problem.num_vars)
            tables = extract_pseudomoments(problem, x)
            occupation, terminal = tables[MeasureTag.OCCUPATION], tables[MeasureTag.TERMINAL]
            numeric = {
                "occupation_moment": moment_matrix(occupation, deg),
                "occupation_localizing": localizing_matrix(occupation, deg),
                "terminal_moment": terminal_matrix(terminal, deg),
            }
            for block in problem.blocks:
                ev_h = np.linalg.eigvalsh(numeric[block.name])
                ev_k = np.linalg.eigvalsh(block.matrix(x))
                block_err = max(block_err, float(np.abs(ev_h - ev_k).max()))

    # time-weighted integral recursion against quadrature values
    rec_err = 0.0
    for ell in range(6):
        for n in range(1, 73):
            recursed = ((ell + 1) * i_ell(ell, n) - math.exp(-n)) / n
            value = i_ell(ell + 1, n)
            rec_err = max(rec_err, abs(value - recursed) / abs(value))

    # SDPA export/import round-trip structural identity
    problem = build_problem(Linear(), TruncationDegrees(2, 2, 2), U0)
    path = tmp_path / "roundtrip.dat-s"
    export_sdpa(problem, path)
    sdpa_ok = same_data(read_sdpa(path), to_sdpa_data(problem))

    # trivial semidefinite problems solved exactly
    x1, r1 = solve(min_trace_completion_problem())
    x2, r2 = solve(rank_one_forcing_problem())
    trivial_err = max(
        float(np.abs(x1 - np.array([1.0, 0.0, 0.0])).max()),
        float(np.abs(x2 - np.ones(3)).max()),
        abs(r1.primal_objective - 1.0),
        abs(r2.primal_objective - 2.0),
    )

    ok = (
        canon_ok
        and block_err <= 1e-10
        and rec_err <= 1e-12
        and sdpa_ok
        and trivial_err <= 1e-6
    )
    assert report(
        "property-suites",
        ok,
        f"canonicalization={canon_ok}, real-block spectrum err {block_err:.1e}, "
        f"recursion err {rec_err:.1e}, sdpa roundtrip={sdpa_ok}, "
        f"trivial SDP err {trivial_err:.1e}",
    )
