import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from momentpde import solver
from momentpde.indices import TruncationDegrees
from momentpde.models import DistributedQuadratic, InitialData, Linear, LocalQuadratic
from momentpde.relaxation import Block, ConicProblem, build_problem
from momentpde.sdpa import from_sdpa_data, to_sdpa_data
from momentpde.solver import SolverSettings, null_space, project_psd, solve

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


def test_nan_residual_is_infeasible_suspect(u0, deg222):
    # epsilon = 1e300: the data norms overflow, so the start and the primal
    # residual hold NaN
    problem = build_problem(LocalQuadratic(1e300), deg222, u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = solve(problem)
    assert (report.status, report.iterations) == ("infeasible_suspect", 0)
    assert math.isnan(report.primal_infeasibility)


def test_singular_schur_complement_stalls(u0, deg222):
    # epsilon = 1e8: the first Schur complement is finite but has exactly zero
    # LU pivots; the solve stops at the best iterate, the start
    problem = build_problem(LocalQuadratic(1e8), deg222, u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no LinAlgWarning from the LU
        x, report = solve(problem)
    assert (report.status, report.iterations) == ("stalled", 1)
    assert report.primal_objective == 2.0
    assert np.isfinite(x).all()
    assert all(math.isfinite(v) for v in report.as_dict().values() if isinstance(v, float))


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
    to 1: the objective on z is the scaled trace's, so the iterates are the
    same and the optimum is 1 higher."""

    def objective(problem):
        c = scale * problem.objective
        c[0] = 1.0
        return c

    return objective


@pytest.mark.parametrize(
    "model, triple, objective, max_iters, status, iterations, objective_value",
    [
        (Linear(), (2, 2, 2), scaled_by(1.0), 50000, "optimal", 10, 5.959644276756003),
        (LocalQuadratic(0.1), (2, 2, 2), scaled_by(1.0), 50000, "optimal", 14, 7.188158528009831),
        (Linear(), (4, 2, 2), scaled_by(1.0), 200, "optimal", 12, 6.442642684145424),
        (Linear(), (2, 2, 2), scaled_by(1e-4), 50000, "optimal", 10, 5.95965033839165e-4),
        (Linear(), (2, 2, 2), trace_plus_mass(1e-4), 50000, "optimal", 10, 1.0004959650413805),
    ],
    ids=["linear-222", "local-222", "linear-422-200", "linear-222-scaled", "linear-222-mass"],
)
def test_solver_arithmetic_is_pinned(
    u0, model, triple, objective, max_iters, status, iterations, objective_value
):
    # default data and settings; values recorded from the interior-point method
    problem = build_problem(model, TruncationDegrees(*triple), u0)
    problem = replace(problem, objective=objective(problem))
    _, report = solve(problem, SolverSettings(max_iters=max_iters))
    assert (report.status, report.iterations) == (status, iterations)
    assert report.primal_objective == pytest.approx(objective_value, rel=1e-10)
    assert report.relative_gap <= 1e-8


def test_small_amplitude_datum_certifies(u0, deg222):
    # the default datum scaled by 0.1: the moments of degree k scale by 0.1^k
    small = InitialData({n: 0.1 * v for n, v in u0.coeffs.items()})
    _, report = solve(build_problem(Linear(), deg222, small))
    assert report.status == "optimal"
    assert report.relative_gap <= 1e-8 and report.dual_infeasibility <= 1e-8


@pytest.mark.parametrize(
    "model", [Linear(), DistributedQuadratic(0.01)], ids=["linear", "distributed-0.01"]
)
def test_face_keeps_the_answer(u0, deg222, model):
    # the dead-mode face against the same problem solved without it
    problem = build_problem(model, deg222, u0)
    assert len(problem.zero_vars) > 0
    x, on_face = solve(problem)
    _, full = solve(replace(problem, zero_vars=NO_FACE))
    assert on_face.status == full.status == "optimal"
    assert on_face.primal_objective == pytest.approx(full.primal_objective, rel=1e-7)
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


def test_rows_the_substitution_zeroes_are_dropped():
    # [[x1, x2], [x2, x3]] with x1 = x2 = 0 and no recorded face: the first
    # row is zero on every feasible point, and only the substitution shows it
    problem = ConicProblem(
        num_vars=3,
        blocks=[symmetric_variable_block(2, 3, {(0, 0): 0, (0, 1): 1, (1, 1): 2})],
        eq_matrix=sp.csr_matrix(np.eye(3)[:2]),
        eq_rhs=np.zeros(2),
        objective=np.array([0.0, 0.0, 1.0]),
        eq_pivots=np.array([0, 1]),
    )
    x0, z_basis = null_space(problem)
    op = solver._Stack(problem, x0, z_basis)
    assert ([len(r) for r in op.rows], op.dropped) == ([1], True)
    _, report = solve(problem)
    assert report.status == "optimal"
    assert report.min_block_eigenvalue == 0.0
    assert (report.z_dim, report.block_rows) == (1, [1])


def stacked_problem(u0, case):
    if case == "linear-444":
        return build_problem(Linear(), TruncationDegrees(4, 4, 4), u0)
    if case == "distributed-222":
        return build_problem(DistributedQuadratic(0.1), TruncationDegrees(2, 2, 2), u0)
    if case == "sdpa-222":  # the equalities come back without pivots: a matching picks them
        return from_sdpa_data(to_sdpa_data(build_problem(Linear(), TruncationDegrees(2, 2, 2), u0)))
    return build_problem(LocalQuadratic(0.1), TruncationDegrees(4, 4, 2), u0)


@pytest.mark.parametrize(
    "case, sparse_images",
    [
        ("linear-444", False),
        ("distributed-222", False),
        ("sdpa-222", False),
        ("sdpa-222", True),
        ("local-442", True),
    ],
)
def test_stacked_operator_matches_each_block(monkeypatch, u0, case, sparse_images):
    # each block's part of f0 + G z, G^T x and the Schur complement, against
    # the same quantities formed block by block from the kept rows
    if case == "sdpa-222" and sparse_images:  # (2,2,2) is small: force sparse images
        monkeypatch.setattr(solver, "_STACK_ENTRIES", 1)
    problem = stacked_problem(u0, case)
    x0, z_basis = null_space(problem)
    op = solver._Stack(problem, x0, z_basis)
    assert sp.issparse(op.gt) == sparse_images
    assert (problem.eq_pivots is None) == (case == "sdpa-222")
    rng = np.random.default_rng(11)
    z = rng.normal(size=z_basis.shape[1])
    x = x0 + z_basis @ z
    kept = [(b, r) for b, r in zip(problem.blocks, op.rows) if len(r)]
    assert len(op.cones) == len(kept)
    ys = [rng.normal(size=(len(r), len(r))) for _, r in kept]
    ys = [y @ y.T for y in ys]  # positive (semi)definite
    adjoint, schur = np.zeros(len(z)), np.zeros((len(z), len(z)))
    for (block, rows), view, y in zip(kept, op.views(op.f0 + op.g @ z), ys):
        n = block.size
        entries = (rows[:, None] * n + rows).ravel()
        want = (block.coeffs @ x + block.const)[entries]
        assert np.abs(view.ravel() - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        a = (block.coeffs[entries] @ z_basis).toarray().T  # row i: A_bi
        adjoint += a @ y.ravel()
        t = y @ a.reshape(len(z), len(rows), len(rows)) @ y  # Y A_bj Y
        schur += a @ t.reshape(len(z), -1).T
    flat = op.flat(ys)
    assert np.abs(op.gt @ flat - adjoint).max() <= 1e-12 * max(1.0, np.abs(adjoint).max())
    assert np.abs(op.schur(flat, flat) - schur).max() <= 1e-12 * max(1.0, np.abs(schur).max())


def test_optimal_needs_the_equality_residual(monkeypatch, u0, deg222):
    # x0 off by 1e-3 at the first pivot: every iterate misses E x = f by
    # that much, however well it does on the z-space problem
    def shifted(problem):
        x0, z_basis = null_space(problem)
        x0 = x0.copy()
        x0[problem.eq_pivots[0]] += 1e-3
        return x0, z_basis

    monkeypatch.setattr(solver, "null_space", shifted)
    _, report = solve(build_problem(Linear(), deg222, u0))
    assert report.status != "optimal"
    assert report.max_equality_residual == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("cost, status", [(0.0, "optimal"), (1.0, "stalled")])
def test_variable_that_no_block_touches(cost, status):
    # min tr X + cost * w, X PSD 2x2, X11 = 1, where w touches no block and
    # no equality: its Schur row is zero.  Without a cost w stays put; with
    # one the problem is unbounded along w, and the solver stops once the
    # residuals stop improving, at a finite iterate
    block = symmetric_variable_block(2, 4, {(0, 0): 0, (0, 1): 1, (1, 1): 2})
    problem = ConicProblem(
        num_vars=4,
        blocks=[block],
        eq_matrix=sp.csr_matrix(np.array([[1.0, 0.0, 0.0, 0.0]])),
        eq_rhs=np.array([1.0]),
        objective=np.array([1.0, 0.0, 1.0, cost]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a singular LU or an overflow warns
        x, report = solve(problem)
    assert report.status == status and report.iterations < 20
    assert np.isfinite(x).all()
    if status == "optimal":
        assert report.primal_objective == pytest.approx(1.0, abs=1e-6)
        assert x[3] == 0.0


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


def test_equalities_hold_to_roundoff_during_solve(u0, deg422):
    problem = build_problem(Linear(), deg422, u0)
    _, report = solve(problem, SolverSettings(max_iters=5))
    assert (report.status, report.iterations) == ("max_iters", 5)
    assert report.max_equality_residual <= 1e-12


@pytest.mark.parametrize("make", [min_trace_completion_problem, rank_one_forcing_problem])
def test_hand_built_problem_gets_pivots_by_matching(make):
    problem = make()
    assert problem.eq_pivots is None
    x0, z_basis = null_space(problem)
    assert z_basis.shape == (3, 3 - problem.num_eq)
    assert np.abs(problem.eq_matrix @ z_basis).max() <= 1e-15
    assert np.abs(problem.eq_matrix @ x0 - problem.eq_rhs).max() <= 1e-15


def test_matched_pivots_on_a_face():
    # no recorded pivots: the kept rows are matched to the live columns
    problem = zero_row_face_problem()
    assert problem.eq_pivots is None
    x0, z_basis = null_space(problem)
    assert z_basis.shape == (6, 1)  # X12 alone is free
    assert_null_space_of_face(problem, x0, z_basis, 1e-15)


@pytest.mark.parametrize(
    "rows, face",
    [
        ([[1.0, 0.0, -1.0], [2.0, 0.0, -2.0]], NO_FACE),
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], NO_FACE),
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]], np.array([2])),
        ([[1.0, 0.0, 0.0], [1.0, 1e-14, 0.0]], NO_FACE),
        ([[3.0, 1.0, 0.1], [1.0, 1.0 / 3.0, 0.1 / 3.0]], NO_FACE),
    ],
    ids=["multiple", "zero-row", "rows-over-live-columns", "near-multiple", "rounded-multiple"],
)
def test_dependent_equality_rows_are_rejected(rows, face):
    # no recorded pivots; a matching alone would match each live column of
    # the 3 x 2 case, or fail on the zero row with its own message
    problem = ConicProblem(
        num_vars=3,
        blocks=[symmetric_variable_block(2, 3, {(0, 0): 0, (0, 1): 1, (1, 1): 2})],
        eq_matrix=sp.csr_matrix(np.array(rows)),
        eq_rhs=np.zeros(len(rows)),
        objective=np.array([1.0, 0.0, 1.0]),
        zero_vars=face,
    )
    with pytest.raises(ValueError, match="linearly dependent"):
        solve(problem)


def test_null_space_without_pivots_holds_no_dense_copy(u0):
    # Linear (4,4,2) read back from SDPA data: E is 630 x 756, and one dense
    # copy of it takes 3.8 MB
    problem = from_sdpa_data(to_sdpa_data(build_problem(Linear(), TruncationDegrees(4, 4, 2), u0)))
    tracemalloc.start()
    try:
        x0, z_basis = null_space(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert_null_space_of_face(problem, x0, z_basis, 1e-12)


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
