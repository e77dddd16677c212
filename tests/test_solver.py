import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from momentpde import solver
from momentpde.indices import TruncationDegrees
from momentpde.models import DistributedQuadratic, Linear, LocalQuadratic
from momentpde.relaxation import Block, ConicProblem, build_problem
from momentpde.solver import SolverSettings, initial_penalty, null_space, project_psd, solve

NO_FACE = np.zeros(0, dtype=np.int64)

MODELS = [Linear(), DistributedQuadratic(0.1), LocalQuadratic(0.1)]


def symmetric_variable_block(n, num_vars, var_of_entry):
    """Block whose matrix entries are single variables (upper triangle given)."""
    rows, cols, data = [], [], []
    for (r, c), var in var_of_entry.items():
        rows.append(r * n + c)
        cols.append(var)
        data.append(1.0)
        if r != c:
            rows.append(c * n + r)
            cols.append(var)
            data.append(1.0)
    coeffs = sp.coo_matrix((data, (rows, cols)), shape=(n * n, num_vars)).tocsr()
    return Block(name="X", size=n, coeffs=coeffs, const=np.zeros(n * n))


def min_trace_completion_problem():
    # min tr X, X PSD 2x2, X11 = 1  ->  X = diag(1, 0), objective 1
    return ConicProblem(
        num_vars=3,
        blocks=[symmetric_variable_block(2, 3, {(0, 0): 0, (0, 1): 1, (1, 1): 2})],
        eq_matrix=sp.csr_matrix(np.array([[1.0, 0.0, 0.0]])),
        eq_rhs=np.array([1.0]),
        objective=np.array([1.0, 0.0, 1.0]),
    )


def rank_one_forcing_problem():
    # min tr X, X PSD 2x2, X12 = 1, X11 = X22  ->  all-ones matrix, objective 2
    return ConicProblem(
        num_vars=3,
        blocks=[symmetric_variable_block(2, 3, {(0, 0): 0, (0, 1): 1, (1, 1): 2})],
        eq_matrix=sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -1.0]])),
        eq_rhs=np.array([1.0, 0.0]),
        objective=np.array([1.0, 0.0, 1.0]),
    )


def test_min_trace_completion():
    x, report = solve(min_trace_completion_problem())
    assert report.status == "optimal"
    assert np.abs(x - np.array([1.0, 0.0, 0.0])).max() <= 1e-6
    assert report.primal_objective == pytest.approx(1.0, abs=1e-6)


def test_rank_one_forcing():
    x, report = solve(rank_one_forcing_problem())
    assert report.status == "optimal"
    assert np.abs(x - np.ones(3)).max() <= 1e-6
    assert report.primal_objective == pytest.approx(2.0, abs=1e-6)


def test_psd_projection_idempotent_and_metric():
    rng = np.random.default_rng(3)
    for _ in range(25):
        mat = rng.normal(size=(5, 5))
        mat = 0.5 * (mat + mat.T)
        proj = project_psd(mat)
        assert np.linalg.eigvalsh(proj).min() >= -1e-12
        assert np.abs(project_psd(proj) - proj).max() <= 1e-12
        # metric projection: no PSD point is closer to mat than proj
        for _ in range(5):
            g = rng.normal(size=(5, 5))
            psd_point = g @ g.T
            assert np.linalg.norm(mat - proj) <= np.linalg.norm(mat - psd_point) + 1e-12


def clamp_reference(mat):
    """The projection by the full spectrum, negative eigenvalues clamped."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    return (v * np.maximum(w, 0.0)) @ v.T


def projection_cases():
    rng = np.random.default_rng(7)
    for n in (1, 5, 24, 110):
        g = rng.normal(size=(n, n))
        yield pytest.param(0.5 * (g + g.T), id=f"random-{n}")
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    yield pytest.param((q * -rng.uniform(0.5, 2.0, 8)) @ q.T, id="negative-definite")
    yield pytest.param((q * rng.uniform(0.5, 2.0, 8)) @ q.T, id="positive-definite")
    yield pytest.param((q * np.array([3.0, 2.0, 1.0, 0.5, 0, 0, 0, 0])) @ q.T, id="psd-with-kernel")
    a, b = rng.normal(size=(2, 6, 6))
    a, b = a + a.T, b - b.T  # a Hermitian A + iB, embedded with a doubled spectrum
    yield pytest.param(np.block([[a, -b], [b, a]]), id="embedded-hermitian")


@pytest.mark.parametrize("mat", list(projection_cases()))
def test_projection_matches_full_spectrum_clamp(mat):
    proj = project_psd(mat)
    assert np.abs(proj - clamp_reference(mat)).max() <= 1e-12 * np.linalg.norm(mat)
    if np.linalg.eigvalsh(mat).max() < 0:
        assert not proj.any()  # no positive pair: exactly the zero matrix


def test_projection_falls_back_when_lapack_fails(monkeypatch):
    def failing(a, **kwargs):
        n = len(a)
        return np.full(n, 7.0), np.ones((n, n)), n, np.zeros(2 * n, dtype=np.int32), 1

    monkeypatch.setattr(solver, "_dsyevr", failing)
    g = np.random.default_rng(5).normal(size=(24, 24))
    mat = g + g.T
    assert np.abs(project_psd(mat) - clamp_reference(mat)).max() <= 1e-12 * np.linalg.norm(mat)


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e308], ids=["inf", "nan", "1e308"])
def test_diverging_iterate_is_infeasible_suspect(capfd, value):
    problem = min_trace_completion_problem()
    problem.objective[1] = value
    with np.errstate(over="ignore", invalid="ignore"):
        _, report = solve(problem)
    assert report.status == "infeasible_suspect"
    assert math.isnan(report.min_block_eigenvalue)
    out, err = capfd.readouterr()
    assert "On entry to" not in out + err  # LAPACK saw no inf or NaN


def test_combined_residual_monotone_after_burn_in(monkeypatch):
    # Each problem has one full block, so each projection sees the target of
    # one iteration and returns S; the scaled dual is U = target - S, bit for
    # bit.  The fixed-point displacement of the splitting step is monotone
    # non-increasing for an averaged operator iteration.
    for problem in (min_trace_completion_problem(), rank_one_forcing_problem()):
        s_prev, u_prev, h = np.zeros(4), np.zeros(4), []

        def spy(mat):
            nonlocal s_prev, u_prev
            s = project_psd(mat)
            s_all, u_all = s.ravel(), (mat - s).ravel()
            h.append(np.sqrt(np.sum((s_all - s_prev) ** 2) + np.sum((u_all - u_prev) ** 2)))
            s_prev, u_prev = s_all, u_all
            return s

        monkeypatch.setattr(solver, "project_psd", spy)
        _, report = solve(problem)
        # it stops before the first penalty adaptation, which rescales U
        assert report.status == "optimal" and report.iterations < solver._ADAPT_EVERY
        assert len(h) == report.iterations > 51
        increases = np.diff(h[50:])
        assert increases.max() <= 1e-12


def test_solver_is_deterministic():
    xa, ra = solve(rank_one_forcing_problem())
    xb, rb = solve(rank_one_forcing_problem())
    assert np.array_equal(xa, xb)
    assert ra.iterations == rb.iterations


def scaled_by(scale):
    return lambda problem: scale * problem.objective


def trace_plus_mass(scale):
    """scale times the trace objective, with the coefficient of the
    occupation mass y[0; ()] (variable 0, fixed by the equalities) set back
    to 1: the same minimizers as the scaled trace, but |c|_inf stays 1."""

    def objective(problem):
        c = scale * problem.objective
        c[0] = 1.0
        return c

    return objective


@pytest.mark.parametrize(
    "model, triple, objective, max_iters, status, iterations, objective_value, penalty",
    [
        (Linear(), (2, 2, 2), scaled_by(1.0), 50000, "optimal", 225, 5.959644256173723, (8.0, 8.0)),
        (
            LocalQuadratic(0.1), (2, 2, 2), scaled_by(1.0), 50000,
            "optimal", 325, 7.18815847090775, (8.0, 8.0),
        ),
        (Linear(), (4, 2, 2), scaled_by(1.0), 200, "max_iters", 200, 6.438261310218957, (8.0, 8.0)),
        (
            Linear(), (2, 2, 2), scaled_by(1e-4), 50000,
            "optimal", 150, 5.959644158200202e-4, (8e-4, 8e-4),
        ),
        # the start, 4, is 5,000 times the scaled trace's own (8e-4):
        # residual balancing doubles it at iteration 500 and halves it at
        # 1,000, 1,500 and 2,000
        (
            Linear(), (2, 2, 2), trace_plus_mass(1e-4), 50000,
            "optimal", 2375, 1.0004959645397329, (4.0, 1.0),
        ),
    ],
    ids=["linear-222", "local-222", "linear-422-200", "linear-222-scaled", "linear-222-mass"],
)
def test_solver_arithmetic_is_pinned(
    u0, model, triple, objective, max_iters, status, iterations, objective_value, penalty
):
    # default data and settings; values recorded from the splitting iteration
    problem = build_problem(model, TruncationDegrees(*triple), u0)
    problem = replace(problem, objective=objective(problem))
    _, report = solve(problem, SolverSettings(max_iters=max_iters))
    assert (report.status, report.iterations) == (status, iterations)
    assert report.primal_objective == pytest.approx(objective_value, rel=1e-10)
    assert (report.penalty_start, report.penalty_end) == pytest.approx(penalty, rel=1e-15)


@pytest.mark.parametrize("model", [Linear(), LocalQuadratic(0.1)], ids=["linear", "local-0.1"])
def test_iterates_do_not_depend_on_the_objective_scale(u0, deg222, model):
    # the start scales with |c|_inf, so c / rho and every iterate are the same
    problem = build_problem(model, deg222, u0)
    scaled = replace(problem, objective=1e-4 * problem.objective)
    x, report = solve(problem, SolverSettings(max_iters=100))
    x_scaled, report_scaled = solve(scaled, SolverSettings(max_iters=100))
    assert report.iterations == report_scaled.iterations == 100
    assert report_scaled.penalty_start == pytest.approx(1e-4 * report.penalty_start, rel=1e-15)
    assert np.abs(x_scaled - x).max() <= 1e-10 * np.abs(x).max()


def test_initial_penalty_falls_back_when_not_finite_and_positive():
    problem = min_trace_completion_problem()
    assert initial_penalty(problem) == 4.0  # 4 |c|_inf / |f|_inf
    for objective in (np.zeros(3), np.array([1.0, np.nan, 1.0]), np.array([1e308, 0.0, 1.0])):
        assert initial_penalty(replace(problem, objective=objective)) == solver._PENALTY
    assert initial_penalty(replace(problem, eq_rhs=np.zeros(1))) == solver._PENALTY


@pytest.mark.parametrize(
    "model", [Linear(), DistributedQuadratic(0.01)], ids=["linear", "distributed-0.01"]
)
def test_face_keeps_the_answer(u0, deg222, model):
    # the dead-mode face against the same problem solved without it
    problem = build_problem(model, deg222, u0)
    assert len(problem.zero_vars) > 0
    x, on_face = solve(problem)
    _, full = solve(replace(problem, zero_vars=NO_FACE))
    assert (on_face.status, on_face.iterations) == (full.status, full.iterations)
    assert on_face.primal_objective == pytest.approx(full.primal_objective, rel=1e-10)
    assert len(x) == problem.num_vars
    assert np.all(x[problem.zero_vars] == 0.0)


def zero_row_face_problem():
    # X PSD 3x3 with X11 = X22 = 1 and X33 = 0: the third row is zero on
    # every feasible point, so X13, X23 and X33 form the face
    entries = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (0, 2): 3, (1, 2): 4, (2, 2): 5}
    return ConicProblem(
        num_vars=6,
        blocks=[symmetric_variable_block(3, 6, entries)],
        eq_matrix=sp.csr_matrix(np.eye(6)[[0, 2, 5]]),
        eq_rhs=np.array([1.0, 1.0, 0.0]),
        objective=np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
        zero_vars=np.array([3, 4, 5]),
    )


def test_hand_built_face_drops_a_zero_row():
    x, report = solve(zero_row_face_problem())
    assert report.status == "optimal"
    assert np.abs(x - np.array([1.0, 0, 1.0, 0, 0, 0])).max() <= 1e-6
    assert np.all(x[3:] == 0.0)
    # the restricted 2x2 block is near the identity; the full block adds a
    # zero row, so its minimum eigenvalue is exactly 0
    assert report.min_block_eigenvalue == 0.0


def test_full_block_of_size_zero_is_rejected():
    empty = Block(name="empty", size=0, coeffs=sp.csr_matrix((0, 3)), const=np.zeros(0))
    with pytest.raises(ValueError, match="block empty has size 0"):
        replace(min_trace_completion_problem(), blocks=[empty])


def test_settings_validation():
    for bad in (0, -1e-7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="abs_tol must be positive and finite"):
            SolverSettings(abs_tol=bad)
    for bad in (True, "1e-7"):
        with pytest.raises(ValueError, match="abs_tol must be a number"):
            SolverSettings(abs_tol=bad)
    for bad in ("10", 1.5, True, 0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            SolverSettings(max_iters=bad)


def test_infeasible_problem_is_not_reported_optimal():
    # X11 = -1 contradicts PSD; the solver must not claim optimality
    problem = ConicProblem(
        num_vars=3,
        blocks=[symmetric_variable_block(2, 3, {(0, 0): 0, (0, 1): 1, (1, 1): 2})],
        eq_matrix=sp.csr_matrix(np.array([[1.0, 0.0, 0.0]])),
        eq_rhs=np.array([-1.0]),
        objective=np.array([1.0, 0.0, 1.0]),
    )
    _, report = solve(problem, SolverSettings(max_iters=2000))
    assert report.status != "optimal"
    assert report.min_block_eigenvalue < -1e-3


def test_linear_heat_222_feasibility(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    x, report = solve(problem)
    assert report.status == "optimal"
    assert report.max_equality_residual <= 1e-6
    assert report.min_block_eigenvalue >= -1e-6


def assert_null_space_of_face(problem, x0, z_basis, tol):
    """x0 + range(Z) lies in {E x = f, x_F = 0}, with one column per live
    variable that is not the pivot of a kept equality row."""
    live, dropped = problem.face()
    assert z_basis.shape == (problem.num_vars, live.sum() - (~dropped).sum())
    assert z_basis[problem.zero_vars].nnz == 0
    assert np.all(x0[problem.zero_vars] == 0.0)
    eq_z = abs(problem.eq_matrix @ z_basis)
    assert eq_z.sum(axis=1).max() <= tol
    assert np.abs(problem.eq_matrix @ x0 - problem.eq_rhs).max() <= tol


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2), (4, 4, 2)])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_null_space_of_generated_equalities(u0, model, triple):
    problem = build_problem(model, TruncationDegrees(*triple), u0)
    assert len(problem.eq_pivots) == len(np.unique(problem.eq_pivots)) == problem.num_eq
    x0, z_basis = null_space(problem)
    assert_null_space_of_face(problem, x0, z_basis, 1e-12)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_first_x_step_matches_dense_kkt_solve(u0, deg222, model):
    # From S = U = 0 the first x-step minimizes (rho/2)|A x + d|^2 + c.x
    # subject to E x = f and x = 0 on the face's zero variables.  The face
    # rows repeat the equality rows on zero variables only: a consistent,
    # singular KKT system, with x unique.
    problem = build_problem(model, deg222, u0)
    rho = initial_penalty(problem)
    x, _ = solve(problem, SolverSettings(max_iters=1))
    a = np.vstack([b.coeffs.toarray() for b in problem.blocks])
    d = np.concatenate([b.const for b in problem.blocks])
    n = problem.num_vars
    e = np.vstack([problem.eq_matrix.toarray(), np.eye(n)[problem.zero_vars]])
    m = len(e)
    kkt = np.block([[rho * a.T @ a, e.T], [e, np.zeros((m, m))]])
    rhs = np.concatenate(
        [-rho * a.T @ d - problem.objective, problem.eq_rhs, np.zeros(len(problem.zero_vars))]
    )
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    assert np.abs(kkt @ sol - rhs).max() <= 1e-10
    assert np.abs(x - sol[:n]).max() <= 1e-10


def test_equalities_hold_to_roundoff_during_solve(u0, deg422):
    problem = build_problem(Linear(), deg422, u0)
    _, report = solve(problem, SolverSettings(max_iters=200))
    assert report.iterations == 200
    assert report.max_equality_residual <= 1e-12


@pytest.mark.parametrize("make", [min_trace_completion_problem, rank_one_forcing_problem])
def test_hand_built_problem_gets_pivots_by_qr(make):
    problem = make()
    assert problem.eq_pivots is None
    x0, z_basis = null_space(problem)
    assert z_basis.shape == (3, 3 - problem.num_eq)
    assert np.abs(problem.eq_matrix @ z_basis).max() <= 1e-15
    assert np.abs(problem.eq_matrix @ x0 - problem.eq_rhs).max() <= 1e-15


def test_qr_pivots_on_a_face():
    # no recorded pivots: the QR factors the kept rows on the live columns
    problem = zero_row_face_problem()
    assert problem.eq_pivots is None
    x0, z_basis = null_space(problem)
    assert z_basis.shape == (6, 1)  # X12 alone is free
    assert_null_space_of_face(problem, x0, z_basis, 1e-15)


def test_dependent_equality_rows_are_rejected():
    problem = ConicProblem(
        num_vars=3,
        blocks=[symmetric_variable_block(2, 3, {(0, 0): 0, (0, 1): 1, (1, 1): 2})],
        eq_matrix=sp.csr_matrix(np.array([[1.0, 0.0, -1.0], [2.0, 0.0, -2.0]])),
        eq_rhs=np.array([0.0, 0.0]),
        objective=np.array([1.0, 0.0, 1.0]),
    )
    with pytest.raises(ValueError, match="linearly dependent"):
        solve(problem)


@pytest.mark.parametrize("pivots", [[0], [0, 7], [2, 2], [-1, 0], [0.0, 2.0]])
@pytest.mark.parametrize("face", [NO_FACE, np.array([2])], ids=["no-face", "face"])
def test_malformed_pivots_are_rejected(pivots, face):
    # one distinct integer column in range per equality row, or a ValueError
    with pytest.raises(ValueError, match="eq_pivots must be"):
        replace(rank_one_forcing_problem(), eq_pivots=pivots, zero_vars=face)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("eq_rhs", np.array([1.0]), "equality system shape mismatch"),
        ("objective", np.ones(4), "objective length mismatch"),
        ("blocks", [symmetric_variable_block(2, 4, {(0, 0): 0})], "coefficient shape mismatch"),
    ],
    ids=["equalities", "objective", "block"],
)
def test_malformed_shapes_are_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        replace(rank_one_forcing_problem(), **{field: value})


def test_singular_pivot_columns_are_rejected():
    problem = rank_one_forcing_problem()
    problem.eq_pivots = np.array([0, 2])  # the first row vanishes on both
    with pytest.raises(ValueError, match="pivot columns are singular"):
        null_space(problem)
