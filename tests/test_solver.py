import numpy as np
import pytest
import scipy.sparse as sp

from momentpde.indices import TruncationDegrees
from momentpde.models import DistributedQuadratic, Linear, LocalQuadratic
from momentpde.relaxation import Block, ConicProblem, build_problem
from momentpde.solver import _PENALTY, SolverSettings, null_space, project_psd, solve

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


def test_combined_residual_monotone_after_burn_in():
    for problem in (min_trace_completion_problem(), rank_one_forcing_problem()):
        _, report = solve(problem, SolverSettings(track_residuals=True))
        h = np.array(report.residual_history)
        assert len(h) > 51
        increases = h[51:] - h[50:-1]
        assert increases.max() <= 1e-12


def test_solver_is_deterministic():
    xa, ra = solve(rank_one_forcing_problem())
    xb, rb = solve(rank_one_forcing_problem())
    assert np.array_equal(xa, xb)
    assert ra.iterations == rb.iterations


@pytest.mark.parametrize(
    "model, triple, max_iters, status, iterations, objective",
    [
        (Linear(), (2, 2, 2), 50000, "optimal", 650, 5.959644251461846),
        (LocalQuadratic(0.1), (2, 2, 2), 50000, "optimal", 575, 7.188158484655687),
        (Linear(), (4, 2, 2), 200, "max_iters", 200, 6.432535143240761),
    ],
    ids=["linear-222", "local-222", "linear-422-200"],
)
def test_solver_arithmetic_is_pinned(u0, model, triple, max_iters, status, iterations, objective):
    # default data and settings; values recorded from the splitting iteration
    problem = build_problem(model, TruncationDegrees(*triple), u0)
    _, report = solve(problem, SolverSettings(max_iters=max_iters))
    assert (report.status, report.iterations) == (status, iterations)
    assert report.primal_objective == pytest.approx(objective, rel=1e-10)


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


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2), (4, 4, 2)])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_null_space_of_generated_equalities(u0, model, triple):
    problem = build_problem(model, TruncationDegrees(*triple), u0)
    assert len(problem.eq_pivots) == len(np.unique(problem.eq_pivots)) == problem.num_eq
    x0, z_basis = null_space(problem)
    assert z_basis.shape == (problem.num_vars, problem.num_vars - problem.num_eq)
    eq_z = abs(problem.eq_matrix @ z_basis)
    assert eq_z.sum(axis=1).max() <= 1e-12
    assert np.abs(problem.eq_matrix @ x0 - problem.eq_rhs).max() <= 1e-12


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_first_x_step_matches_dense_kkt_solve(u0, deg222, model):
    # From S = U = 0 the first x-step minimizes (rho/2)|A x + d|^2 + c.x
    # subject to E x = f.
    problem = build_problem(model, deg222, u0)
    rho = _PENALTY
    x, _ = solve(problem, SolverSettings(max_iters=1))
    a = np.vstack([b.coeffs.toarray() for b in problem.blocks])
    d = np.concatenate([b.const for b in problem.blocks])
    e = problem.eq_matrix.toarray()
    n, m = problem.num_vars, problem.num_eq
    kkt = np.block([[rho * a.T @ a, e.T], [e, np.zeros((m, m))]])
    rhs = np.concatenate([-rho * a.T @ d - problem.objective, problem.eq_rhs])
    reference = np.linalg.solve(kkt, rhs)[:n]
    assert np.abs(x - reference).max() <= 1e-10


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


def test_singular_pivot_columns_are_rejected():
    problem = rank_one_forcing_problem()
    problem.eq_pivots = np.array([0, 2])  # the first row vanishes on both
    with pytest.raises(ValueError, match="pivot columns are singular"):
        null_space(problem)
