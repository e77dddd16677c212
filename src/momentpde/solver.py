"""Embedded first-order conic solver: operator splitting in the equality null space.

The problem is min c.x subject to E x = f and (A_b x + d_b) in the PSD cone
for every block b.  First, once per solve, one substitution x = x0 + Z z
covers both the equalities and the face {x : x_F = 0}, F the variables the
problem certifies zero (``ConicProblem.zero_vars``).  The equality rows the
face empties read 0 = 0 and are left out, and so are the block rows that are
identically zero on it, since a matrix with a zero row is PSD exactly when
the rest of it is.  One sparse LU of the pivot columns E_B (one per kept
row) gives E x0 = f and the sparse Z = [-E_B^-1 E_N; I] on the live columns,
with x0 and Z exactly zero on F.  A mirror variable S_b per block then
alternates

  1. a z-step: least squares pulling the block images toward S_b - U_b, with
     one LU of Z^T A^T A Z per solve (it does not depend on the penalty);
  2. a blockwise PSD projection giving the new S_b: LAPACK's dsyevr finds
     only the positive eigenpairs, and the block is rebuilt from them (the
     iterates are low-rank, so that is few pairs);
  3. a scaled dual update U_b.

Equality residuals sit at roundoff.  Over-relaxation with a fixed factor
speeds up the consensus.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .relaxation import Block, ConicProblem

# Right-hand sides per LU solve while building Z.  Each solve holds a dense
# num_eq x _SOLVE_CHUNK array; 16 keeps that under 0.5 MB at (4,4,4).
_SOLVE_CHUNK = 16
# Iterations between termination checks, and between penalty adaptations.
_CHECK_EVERY = 25
_ADAPT_EVERY = 500
# Initial splitting penalty rho, kept within 1e-5..1e5 times this value by
# residual balancing.  2.0 because the real m x m blocks have half the squared
# norms of the [[A, -B], [B, A]] embedding: this is its iteration at rho = 1.
_PENALTY = 2.0
_OVER_RELAXATION = 1.6
# Relative change of the objective between checks that counts as stable.
_REL_TOL = 1e-9
# Called directly because scipy.linalg.eigh(subset_by_value=...) adds ~15 us
# per call; lower=1 because the upper triangle failed (info=1) on a finite block.
_dsyevr = scipy.linalg.lapack.dsyevr


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
    status: str  # "optimal" | "max_iters" | "infeasible_suspect"
    primal_objective: float
    max_equality_residual: float
    min_block_eigenvalue: float
    iterations: int

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
    are 0.  Z has no entry in a row of F, and x0 is 0.0 there.  Problems
    without recorded pivots get them from a column-pivoted QR of the kept
    rows on the live columns.
    """
    live, dropped = problem.face()
    kept = ~dropped
    eq, f = problem.eq_matrix[kept].tocsc(), problem.eq_rhs[kept]
    n, num_eq = problem.num_vars, len(f)
    if num_eq == 0:
        return np.zeros(n), sp.identity(n, format="csr")[:, live]
    live_cols = np.flatnonzero(live)
    if problem.eq_pivots is not None:
        pivots = problem.eq_pivots[kept]
    else:
        _, r, perm = scipy.linalg.qr(eq[:, live_cols].toarray(), mode="economic", pivoting=True)
        if num_eq > len(live_cols) or abs(r[num_eq - 1, num_eq - 1]) <= 1e-12 * abs(r[0, 0]):
            raise ValueError("equality rows are linearly dependent")
        pivots = live_cols[perm[:num_eq]]
    free = np.setdiff1d(live_cols, pivots)
    e_base, e_free = eq[:, pivots], eq[:, free]
    try:
        lu = spla.splu(e_base)
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise ValueError(f"the equality pivot columns are singular: {err}") from err
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


def _blocks_on_face(problem: ConicProblem) -> tuple[list[Block], np.ndarray, bool]:
    """The blocks restricted to their rows that are not identically zero on
    the face, a full block to the same rows and columns; the live variables;
    and whether a row was dropped.  A block left without rows is dropped."""
    live, _ = problem.face()
    blocks, dropped = [], False
    for block in problem.blocks:
        nonzero = (abs(block.coeffs) @ live.astype(float) > 0) | (block.const != 0)
        if not block.diagonal:
            nonzero = nonzero.reshape(block.size, block.size).any(axis=1)
        keep = np.flatnonzero(nonzero)
        entries = keep if block.diagonal else (keep[:, None] * block.size + keep).ravel()
        dropped |= len(keep) < block.size
        if len(keep):
            coeffs, const = block.coeffs[entries], block.const[entries]
            blocks.append(Block(block.name, len(keep), coeffs, const, block.diagonal))
    return blocks, live, dropped


def solve(
    problem: ConicProblem, settings: SolverSettings | None = None
) -> tuple[np.ndarray, SolveReport]:
    """Run the splitting iteration on the problem's face; returns the last
    iterate, exactly 0.0 on the zero variables, and a report."""
    settings = settings or SolverSettings()
    blocks, live, dropped = _blocks_on_face(problem)
    n = problem.num_vars
    rho = _PENALTY

    a_all = sp.vstack([b.coeffs for b in blocks], format="csr") if blocks else sp.csr_matrix((0, n))
    d_all = (
        np.concatenate([b.const for b in blocks]) if blocks else np.zeros(0)
    )
    a_all_t = a_all.T.tocsr()
    offsets = np.cumsum([0] + [b.vec_dim for b in blocks])

    eq, f, c = problem.eq_matrix, problem.eq_rhs, problem.objective
    x0, z_basis = null_space(problem)
    z_basis_t = z_basis.T.tocsr()
    h_lu = spla.splu((z_basis_t @ ((a_all_t @ a_all) @ z_basis)).tocsc())
    v0 = a_all @ x0 + d_all  # block images at z = 0
    c_z = z_basis_t @ c
    s_all = np.zeros(a_all.shape[0])
    u_all = np.zeros_like(s_all)
    x = x0

    def project_all(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for b, block in enumerate(blocks):
            seg = slice(offsets[b], offsets[b + 1])
            if block.diagonal:
                out[seg] = np.maximum(v[seg], 0.0)
            else:
                out[seg] = project_psd(
                    v[seg].reshape(block.size, block.size)
                ).ravel()
        return out

    def min_block_eig(v: np.ndarray) -> float:
        """Minimum eigenvalue of the full blocks, whose rows dropped by the
        face are zero: at most 0.0 if any was dropped.  NaN when a block is
        not finite; LAPACK is never handed inf or NaN."""
        worst = 0.0 if dropped else np.inf
        for b, block in enumerate(blocks):
            seg = v[offsets[b] : offsets[b + 1]]
            if not block.diagonal:
                mat = seg.reshape(block.size, block.size)
                sym = 0.5 * (mat + mat.T)  # inf where the sum overflows
                seg = np.linalg.eigvalsh(sym) if np.isfinite(sym).all() else sym
            if not np.isfinite(seg).all():
                return np.nan
            worst = min(worst, float(seg.min()) if len(seg) else np.inf)
        return worst if blocks else 0.0

    status = "max_iters"
    iterations = settings.max_iters
    prev_obj = np.inf

    for it in range(1, settings.max_iters + 1):
        z = h_lu.solve(z_basis_t @ (a_all_t @ (s_all - u_all - v0)) - c_z / rho)
        x = x0 + z_basis @ z
        v_all = a_all @ x + d_all
        v_relaxed = _OVER_RELAXATION * v_all + (1.0 - _OVER_RELAXATION) * s_all
        target = v_relaxed + u_all
        if not (np.isfinite(x).all() and np.isfinite(target).all()):
            # a diverging iterate; LAPACK is never handed inf or NaN
            status = "infeasible_suspect"
            iterations = it
            break
        s_prev = s_all
        s_all = project_all(target)
        u_all = u_all + v_relaxed - s_all

        check = it % _CHECK_EVERY == 0 or it == settings.max_iters
        adapt = it % _ADAPT_EVERY == 0 and it < settings.max_iters
        if not (check or adapt):
            continue
        primal = float(np.abs(v_all - s_all).max()) if len(s_all) else 0.0
        # on the live variables only: a kept block row may hold a zero variable
        dual = (
            float(rho * np.abs((a_all_t @ (s_all - s_prev))[live]).max()) if len(s_all) else 0.0
        )

        if check:
            eq_res = float(np.abs(eq @ x - f).max()) if eq.shape[0] else 0.0
            obj = float(c @ x)
            obj_stable = abs(obj - prev_obj) <= _REL_TOL * max(1.0, abs(obj))
            prev_obj = obj
            if (
                eq_res <= settings.abs_tol
                and primal <= settings.abs_tol
                and dual <= settings.abs_tol
                and obj_stable
                and min_block_eig(v_all) >= -settings.abs_tol
            ):
                status = "optimal"
                iterations = it
                break

        if adapt:
            # Residual balancing; the scaled duals U = Lambda / rho follow rho.
            if primal > 10 * dual and rho < 1e5 * _PENALTY:
                rho *= 2.0
                u_all /= 2.0
            elif dual > 10 * primal and rho > 1e-5 * _PENALTY:
                rho /= 2.0
                u_all *= 2.0

    v_all = a_all @ x + d_all
    report = SolveReport(
        status=status,
        primal_objective=float(c @ x),
        max_equality_residual=float(np.abs(eq @ x - f).max()) if eq.shape[0] else 0.0,
        min_block_eigenvalue=min_block_eig(v_all),
        iterations=iterations,
    )
    return x, report
