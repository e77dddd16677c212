"""Embedded interior-point solver: a primal-dual path-following method on the
problem's face, in the null space of its equalities.

The problem is min c.x subject to E x = f and (A_b x + d_b) in the PSD cone
for every block b.  First, once per solve, one substitution x = x0 + Z z
covers both the equalities and the face {x : x_F = 0}, F the variables the
problem certifies zero (``ConicProblem.zero_vars``).  The equality rows the
face empties read 0 = 0 and are left out.  One sparse LU of the pivot
columns E_B (one per kept row: recorded by the problem, or matched to the
rows when it has none) gives E x0 = f and the sparse Z = [-E_B^-1 E_N; I]
on the live columns, with x0 and Z exactly zero on F.
Each block keeps only the rows that the substitution leaves nonzero, since a
matrix with a zero row is PSD exactly when the rest of it is; a block left
without rows is dropped.

What is left is

  min c_z.z  subject to  F_b(z) = F0_b + sum_i z_i A_bi  PSD for every b,

with c_z = Z^T c, F0_b the block at x0 and A_bi the block image of column i
of Z.  The dual is max c.x0 - sum_b <F0_b, X_b> subject to
sum_b <A_bi, X_b> = c_z,i and X_b PSD.  As in SDPT3 (Toh, Todd and Tutuncu,
Optim. Methods Softw. 1999), all blocks form one stacked operator
F(z) = f0 + G z, set up by one product of the stacked block rows with Z,
and every iterate and direction (S, X, dS, dX) is one flat vector with an
n x n view per block, so that F(z), the adjoint G^T X, the residuals and
the step updates are one call each.  Every cone is PSD: the problem's
equalities are never cone rows.  The solver is an infeasible-start
primal-dual interior-point method with the HKM direction and Mehrotra's
predictor-corrector (Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J.
Optim. 1996; Todd, Toh and Tutuncu, SIAM J. Optim. 1998).  It starts from
z = 0 and SDPT3's scaled identities S_b and X_b, and each iteration

  1. forms the Schur complement M_ij = sum_b tr(A_bi X_b A_bj S_b^-1) and
     factors it by one dense LU (a z-column that no block touches gets a
     unit diagonal);
  2. solves it once for the predictor and twice for the corrector, the
     second time for what forming dX lost of the dual equations;
  3. steps to a fraction 0.9-0.99 of the distance to the cone boundary,
     found from the least eigenvalue of L^-1 D L^-T for S = L L^T (or X) and
     a direction D.

It stops at the status "optimal" once the relative duality gap and the dual
infeasibility are at most _GAP_TOL, and F(z) is PSD and E x = f hold within
``abs_tol``.  Once the residuals or <X, S> grow, the residuals stop
improving, S or X is no longer numerically positive definite, or the Schur
complement has an exactly zero pivot, it stops at the best iterate
("stalled"); a residual or iterate that leaves the finite range (NaN
included) ends "infeasible_suspect", with NaN off the face.  Everything is
deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgWarning
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .relaxation import Block, ConicProblem

# Raised for kept equality rows that have no nonsingular pivot columns.
_DEPENDENT = "equality rows are linearly dependent"
# Right-hand sides per LU solve while building Z.  Each solve holds a dense
# num_eq x _SOLVE_CHUNK array; 16 keeps that under 0.5 MB at (4,4,4).
_SOLVE_CHUNK = 16
# The relative duality gap and dual infeasibility that count as optimal.
_GAP_TOL = 1e-8
# Doubles (8 MB) up to which the stacked block images are held dense, and
# per chunk of dense images while forming the Schur complement, so that a
# large block is never held as one (m, n, n) stack.
_STACK_ENTRIES = 1 << 20
# The merit max(gap, primal, dual infeasibility) and the complementarity
# <X, S> / n may exceed their values at the best iterate by this factor
# before the solver stops there.
_GROWTH = 100.0
# Iterations without a new best merit before the solver stops at the best
# iterate: a converging solve improves it every iteration.
_PATIENCE = 10
# LAPACK called directly: scipy.linalg.eigh adds ~15 us per call, a lot
# against the solver's small blocks.  dsyevr gets lower=1 because the upper
# triangle failed (info=1) on a finite block; each call returns info, never
# raises.
_dsyevr = scipy.linalg.lapack.dsyevr
_dpotrf = scipy.linalg.lapack.dpotrf
_dtrtri = scipy.linalg.lapack.dtrtri


@dataclass
class SolverSettings:
    max_iters: int = 50000
    abs_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, int) or isinstance(self.max_iters, bool):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not isinstance(self.abs_tol, (int, float)) or isinstance(self.abs_tol, bool):
            raise ValueError(f"abs_tol must be a number, got {self.abs_tol!r}")
        if not 0 < self.abs_tol < float("inf"):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")


@dataclass
class SolveReport:
    status: str  # "optimal" | "max_iters" | "stalled" | "infeasible_suspect"
    primal_objective: float
    max_equality_residual: float
    min_block_eigenvalue: float
    iterations: int  # Schur complements factored
    relative_gap: float  # |primal - dual objective| / (1 + |primal| + |dual|)
    primal_infeasibility: float  # |F(z) - S| / (1 + |F0|), Frobenius norms
    dual_infeasibility: float  # |c_z - sum_b A_b^T X_b| / (1 + |c_z|)
    z_dim: int  # columns of Z: the free parameters left by the equalities and the face
    block_rows: list[int]  # rows each block keeps, in problem.blocks order; 0 if dropped

    def as_dict(self) -> dict:
        """Every field, in declaration order."""
        return asdict(self)


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Metric projection onto the PSD cone: the sum of the positive eigenpairs.

    ``mat`` must be finite; halving before the sum keeps ``sym`` finite too.
    """
    sym = 0.5 * mat + 0.5 * mat.T
    w, v, k, _, info = _dsyevr(sym, range="V", vl=0.0, vu=np.inf, lower=1)
    if info != 0:  # no convergence: full spectrum, negative eigenvalues clamped
        w, v = np.linalg.eigh(sym)
        w, k = np.maximum(w, 0.0), len(w)
    return (v[:, :k] * w[:k]) @ v[:, :k].T


def null_space(problem: ConicProblem) -> tuple[np.ndarray, sp.csr_matrix]:
    """Particular solution x0 and sparse basis Z with
    {x : E x = f, x_F = 0} = x0 + range(Z), F the zero variables.

    The equality rows the face empties are left out; their right-hand sides
    are 0.  Z has no entry in a row of F, and x0 is 0.0 there.  A problem
    without recorded pivots gets one live column per kept row from a
    maximum-product matching of the rows to the live columns (the MC64 idea:
    Duff and Koster, SIAM J. Matrix Anal. Appl. 2001), and its rows count
    as dependent when the LU of those columns is singular or its 1-norm
    condition estimate reaches 1e12.  So independent rows whose matched
    columns are singular are rejected too: [[1, 1, 0], [1, 1, 1]] matches
    columns 0 and 1.
    """
    live, dropped = problem.face()
    kept = ~dropped
    eq, f = problem.eq_matrix[kept], problem.eq_rhs[kept]
    n, num_eq = problem.num_vars, len(f)
    if num_eq == 0:
        return np.zeros(n), sp.identity(n, format="csr")[:, live]
    if problem.eq_pivots is not None:
        pivots, singular = problem.eq_pivots[kept], "the equality pivot columns are singular"
    else:
        pivots, singular = _matched_pivots(eq, np.flatnonzero(live)), _DEPENDENT
    live[pivots] = False  # the live columns left are free
    free = np.flatnonzero(live)
    eq = eq[:, np.concatenate([pivots, free])].tocsc()
    e_base, e_free = eq[:, :num_eq], eq[:, num_eq:]
    try:
        lu = spla.splu(e_base)
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise ValueError(f"{singular}: {err}") from err
    if problem.eq_pivots is None:  # 1-norm condition estimate from the solves alone
        inverse = spla.LinearOperator(
            e_base.shape, lu.solve, lambda b: lu.solve(b, "T"), dtype=float
        )
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: rejected
            cond = abs(e_base).sum(axis=0).max() * spla.onenormest(inverse, t=1)
        if not cond < 1e12:
            raise ValueError(_DEPENDENT)
    x0 = np.zeros(n)
    x0[pivots] = lu.solve(f)

    # Z rows: -E_B^-1 E_N on the pivots, the identity on the free columns.
    rows, cols, vals = [free], [np.arange(len(free))], [np.ones(len(free))]
    for lo in range(0, len(free), _SOLVE_CHUNK):
        sol = lu.solve(e_free[:, lo : lo + _SOLVE_CHUNK].toarray())
        pos, j = np.nonzero(sol)
        rows.append(pivots[pos])
        cols.append(lo + j)
        vals.append(-sol[pos, j])
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return x0, sp.csr_matrix(entries, shape=(n, len(free)))


def _matched_pivots(eq: sp.csr_matrix, live_cols: np.ndarray) -> np.ndarray:
    """One column of ``live_cols`` per row of ``eq``, matched so that the
    product of the |E_ij| taken is largest: a minimum-weight full matching on
    the weights 1 - log(|E_ij| / max|E|), each at least 1, as scipy drops a
    stored zero."""
    weights = abs(eq[:, live_cols]).tocsr()
    weights.eliminate_zeros()
    weights.data = 1.0 - np.log(weights.data / weights.data.max(initial=0.0))
    try:
        rows, cols = min_weight_full_bipartite_matching(weights)
    except ValueError as err:  # "no full matching exists"
        raise ValueError(_DEPENDENT) from err
    if len(rows) < eq.shape[0]:  # more rows than live columns: each column matched
        raise ValueError(_DEPENDENT)
    return live_cols[cols]  # rows matched in order


def _kept_entries(mask: np.ndarray, blocks: list[Block]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Stacked indices of the entries that each block keeps (the rows with
    any entry where ``mask`` holds, and the same columns), and those rows
    per block."""
    entries, rows, lo = [np.zeros(0, dtype=np.int64)], [], 0
    for block in blocks:
        n = block.size
        keep = np.flatnonzero(mask[lo : lo + block.vec_dim].reshape(n, n).any(axis=1))
        entries.append(lo + (keep[:, None] * n + keep).ravel())
        rows.append(keep)
        lo += block.vec_dim
    return np.concatenate(entries), rows


class _Stack:
    """Every block in z-space as one operator: F(z) = f0 + g z on the
    concatenated rows that the substitution x = x0 + Z z leaves nonzero (each
    block keeps the same rows and columns).  ``rows`` holds each block's
    kept rows, in ``problem.blocks`` order, and ``dropped`` says whether one
    left out a row.  ``cones`` holds the blocks that kept rows, each stored
    row-major as (slice of the flat vector, n, block images gt[:, slice]).
    The images gt = g^T (one row per z-column) are dense when they fit in
    _STACK_ENTRIES doubles, sparse otherwise."""

    def __init__(self, problem: ConicProblem, x0: np.ndarray, z_basis: sp.csr_matrix):
        blocks, m = problem.blocks, z_basis.shape[1]
        coeffs = sp.vstack([b.coeffs for b in blocks] or [sp.csr_matrix((0, len(x0)))], "csr")
        const = np.concatenate([b.const for b in blocks] + [np.zeros(0)])
        g = coeffs @ z_basis
        g.eliminate_zeros()
        f0 = coeffs @ x0 + const
        entries, self.rows = _kept_entries((np.diff(g.indptr) > 0) | (f0 != 0), blocks)
        self.dropped = any(len(r) < b.size for r, b in zip(self.rows, blocks))
        g, self.f0, self.dim = g[entries], f0[entries], len(entries)
        sizes = [len(r) for r in self.rows if len(r)]
        lengths = np.array([n * n for n in sizes], dtype=np.int64)
        ends = np.cumsum(lengths)
        # |A_bi|_F, one row per cone b: the squares summed by (cone, z-column)
        owner = np.repeat(np.repeat(np.arange(len(sizes)), lengths), np.diff(g.indptr))
        squares = np.bincount(owner * m + g.indices, g.data**2, len(sizes) * m)
        self.norms = np.sqrt(squares).reshape(len(sizes), m)
        gt = g.T.tocsr()
        if m * self.dim <= _STACK_ENTRIES:
            gt = gt.toarray()
        self.gt, self.g = gt, gt.T
        self.perm = np.arange(self.dim)  # the flat index of each entry's transpose
        self.cones = []
        for n, lo, hi in zip(sizes, ends - lengths, ends):
            self.perm[lo:hi] = lo + np.arange(hi - lo).reshape(n, n).T.ravel()
            self.cones.append((slice(lo, hi), n, gt[:, lo:hi]))
        self.degree = max(1, sum(sizes))

    def views(self, v: np.ndarray) -> list[np.ndarray]:
        """Each cone's part of a flat vector, as an n x n matrix."""
        return [v[sl].reshape(n, n) for sl, n, _ in self.cones]

    def flat(self, mats) -> np.ndarray:
        """The flat vector with each cone's part from ``mats``, in cone order."""
        return np.concatenate([mat.ravel() for mat in mats] + [np.zeros(0)])

    def sym(self, v: np.ndarray) -> np.ndarray:
        return 0.5 * (v + v[self.perm])

    def start(self, c_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """SDPT3's infeasible start X_b = xi_b I and S_b = eta_b I, with xi_b
        and eta_b from the norms of the block's data and of the objective."""
        x, s = np.zeros(self.dim), np.zeros(self.dim)
        for (sl, n, _), norms in zip(self.cones, self.norms):
            ratio = float(np.max((1 + np.abs(c_z)) / (1 + norms), initial=0.0))
            xi = max(10.0, np.sqrt(n), n * ratio)
            eta = max(10.0, np.sqrt(n), norms.max(initial=0.0), np.linalg.norm(self.f0[sl]))
            eye = np.eye(n).ravel()
            x[sl], s[sl] = xi * eye, eta * eye
        return x, s

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """M_ij = sum_b tr(A_bi X_b A_bj S_b^-1)."""
        out = np.zeros((self.gt.shape[0],) * 2)
        for (_, n, gt), xb, sb in zip(self.cones, self.views(x), self.views(s_inv)):
            step = max(1, _STACK_ENTRIES // (n * n))
            for lo in range(0, len(out), step):
                a = _dense(gt[lo : lo + step]).reshape(-1, n, n)
                t = xb @ (a.reshape(-1, n) @ sb).reshape(a.shape)
                out[:, lo : lo + len(a)] += gt @ t.reshape(len(a), n * n).T
        return out


def _dense(a) -> np.ndarray:
    return a.toarray() if sp.issparse(a) else a


def _inverse_factor(a: np.ndarray) -> np.ndarray | None:
    """L^-1 for a = L L^T, or None when a is not numerically positive
    definite.  LAPACK is never handed inf or NaN."""
    if not np.isfinite(a).all():
        return None
    low, info = _dpotrf(a, lower=1)
    if info != 0:
        return None
    inv, info = _dtrtri(low, lower=1)
    return inv if info == 0 else None


def _least_eig(a: np.ndarray) -> float:
    """The least eigenvalue of a symmetric matrix, read from its lower
    triangle, or NaN when a is not finite or LAPACK does not converge."""
    if not np.isfinite(a).all():
        return np.nan
    w, _, _, _, info = _dsyevr(a, compute_v=0, range="I", il=1, iu=1, lower=1)
    return float(w[0]) if info == 0 else np.nan


def _max_step(inv_factor: np.ndarray, d: np.ndarray) -> float:
    """The largest alpha with L L^T + alpha d PSD, from the least eigenvalue of
    L^-1 d L^-T (inf when every alpha is); 0.0 when that eigenvalue cannot be
    found."""
    low = _least_eig(inv_factor @ d @ inv_factor.T)
    if np.isnan(low):
        return 0.0
    return -1.0 / low if low < 0 else np.inf


def _min_eig(mats: list[np.ndarray], dropped: bool) -> float:
    """Minimum eigenvalue of the blocks, whose dropped rows are zero: at
    most 0.0 if any was dropped.  NaN when a block is not finite; LAPACK is
    never handed inf or NaN."""
    worst = 0.0 if dropped else np.inf
    for mat in mats:
        low = _least_eig(mat)
        if np.isnan(low):
            return np.nan
        worst = min(worst, low)
    return worst if mats else 0.0


def _newton(op, lu, x, s_inv, r_p, r_d, sigma_mu, corr, passes):
    """The HKM direction (dz, dS, dX) toward X S = sigma_mu I, with corr the
    corrector's second-order term (dX dS of the predictor, per block), or
    None when a right-hand side is not finite.  Every argument but the LU
    and sigma_mu is flat.

    dS = A(dz) + R_p and dX = sigma_mu S^-1 - X - (X dS + corr) S^-1,
    symmetrized, where M dz makes sum_b A_b^T dX_b = r_d.  Forming dX loses
    up to eps |X| |dS| |S^-1| of that equation near the optimum; each pass
    after the first solves for what it lost, with the same LU, and adds the
    correction, whose own rounding is as small as it is.
    """
    xs, si = op.views(x), op.views(s_inv)
    dz, ds = np.zeros(len(r_d)), r_p
    terms = zip(xs, op.views(r_p), op.views(corr), si)
    dx = op.sym(sigma_mu * s_inv - x - op.flat((u @ r + k) @ v for u, r, k, v in terms))
    for _ in range(passes):
        err = op.gt @ dx - r_d
        if not np.isfinite(err).all():
            return None
        delta = scipy.linalg.lu_solve(lu, err, check_finite=False)
        image = op.g @ delta
        dz, ds = dz + delta, ds + image
        terms = zip(xs, op.views(image), si)
        dx = dx - op.sym(op.flat(u @ a @ v for u, a, v in terms))
    return dz, ds, dx


def solve(
    problem: ConicProblem, settings: SolverSettings | None = None
) -> tuple[np.ndarray, SolveReport]:
    """Run the interior-point method on the problem's face; returns the
    optimal iterate, or the best one when it stops short (NaN off the face
    when it diverged), exactly 0.0 on the zero variables, and a report."""
    settings = settings or SolverSettings()
    eq, f, c = problem.eq_matrix, problem.eq_rhs, problem.objective
    x0, z_basis = null_space(problem)
    c_z, c_x0 = z_basis.T @ c, float(c @ x0)
    m = len(c_z)
    with np.errstate(over="ignore", invalid="ignore"):  # huge data: the merit is NaN
        op = _Stack(problem, x0, z_basis)
        xs, ss = op.start(c_z)
    f0_norm, c_norm = float(np.linalg.norm(op.f0)), float(np.linalg.norm(c_z))
    z = np.zeros(m)

    def measure(z, xs, ss):
        """(Relative gap, primal and dual infeasibility), F(z), R_p and r_d."""
        image = op.f0 + op.g @ z
        r_p = image - ss
        r_d = c_z - op.gt @ xs
        with np.errstate(over="ignore", invalid="ignore"):
            primal = c_x0 + float(c_z @ z)
            dual = c_x0 - float(op.f0 @ xs)
            gap = abs(primal - dual) / (1.0 + abs(primal) + abs(dual))
            p_inf = float(np.linalg.norm(r_p)) / (1.0 + f0_norm)
            d_inf = float(np.linalg.norm(r_d)) / (1.0 + c_norm)
        return (gap, p_inf, d_inf), op.views(image), r_p, r_d

    def eq_residual(z):  # max |E x - f| at x = x0 + Z z
        return float(np.abs(eq @ (x0 + z_basis @ z) - f).max()) if eq.shape[0] else 0.0

    status, iterations, best = "max_iters", 0, None
    for it in range(settings.max_iters + 1):
        (gap, p_inf, d_inf), images, r_p, r_d = measure(z, xs, ss)
        merit, mu = float(np.max([gap, p_inf, d_inf])), float(xs @ ss) / op.degree
        if not np.isfinite(merit):
            status = "infeasible_suspect"
            break
        if best is None or merit < best[0]:
            best, best_at = (merit, mu, z, xs, ss), it
        elif merit > _GROWTH * best[0] or mu > _GROWTH * best[1] or it - best_at > _PATIENCE:
            status = "stalled"
            break
        converged = max(gap, d_inf) <= _GAP_TOL and _min_eig(images, op.dropped) >= -settings.abs_tol
        if converged and eq_residual(z) <= settings.abs_tol:
            status = "optimal"
            break
        if it == settings.max_iters:
            break

        inv_s = [_inverse_factor(s) for s in op.views(ss)]
        inv_x = [_inverse_factor(x) for x in op.views(xs)]
        if any(v is None for v in inv_s + inv_x):
            status = "stalled"
            break
        s_inv = op.sym(op.flat(v.T @ v for v in inv_s))
        schur = op.schur(xs, s_inv)
        untouched = np.flatnonzero(np.diag(schur) == 0)  # z-columns no block touches
        schur[untouched, untouched] = 1.0
        if not np.isfinite(schur).all():
            status = "infeasible_suspect"
            break
        with warnings.catch_warnings():  # an exactly zero pivot stops below
            warnings.simplefilter("ignore", LinAlgWarning)
            lu = scipy.linalg.lu_factor(schur, check_finite=False)
        iterations = it + 1
        if not np.diag(lu[0]).all():
            status = "stalled"
            break

        def step_lengths(ds, dx, gamma):
            primal = min([_max_step(v, d) for v, d in zip(inv_s, op.views(ds))], default=np.inf)
            dual = min([_max_step(v, d) for v, d in zip(inv_x, op.views(dx))], default=np.inf)
            return min(1.0, gamma * primal), min(1.0, gamma * dual)

        # Mehrotra: the predictor's reach sets the centering and the corrector.
        pred = _newton(op, lu, xs, s_inv, r_p, r_d, 0.0, np.zeros(op.dim), 1)
        if pred is None:
            status = "infeasible_suspect"
            break
        _, ds, dx = pred
        a_p, a_d = step_lengths(ds, dx, 1.0)
        mu_aff = float((xs + a_d * dx) @ (ss + a_p * ds)) / op.degree
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3) if mu > 0 else 0.0
        corr = op.flat(u @ v for u, v in zip(op.views(dx), op.views(ds)))
        step = _newton(op, lu, xs, s_inv, r_p, r_d, sigma * mu, corr, 2)
        if step is None:
            status = "infeasible_suspect"
            break
        dz, ds, dx = step
        a_p, a_d = step_lengths(ds, dx, 0.9 + 0.09 * min(a_p, a_d))
        z, ss, xs = z + a_p * dz, ss + a_p * ds, xs + a_d * dx

    if status == "infeasible_suspect":
        z = np.full(m, np.nan)  # the iterate left the finite range
    elif status != "optimal":
        _, _, z, xs, ss = best
    (gap, p_inf, d_inf), images, _, _ = measure(z, xs, ss)
    x = x0 + z_basis @ z
    report = SolveReport(
        status=status,
        primal_objective=float(c @ x),
        max_equality_residual=eq_residual(z),
        min_block_eigenvalue=_min_eig(images, op.dropped),
        iterations=iterations,
        relative_gap=gap,
        primal_infeasibility=p_inf,
        dual_infeasibility=d_inf,
        z_dim=m,
        block_rows=[len(r) for r in op.rows],
    )
    return x, report
