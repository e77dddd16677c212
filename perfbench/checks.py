"""Correctness checks on benchmark outputs.

Every check tests a property the method must have, never a stored copy of an
earlier output, and raises ``CheckFailed`` naming itself when it does not
hold.  The checks read the program's outputs through its public API only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from momentpde import (
    MeasureTag,
    analytic_tables,
    constraint_residual,
    embed_tables,
    generate_constraints,
    localizing_matrix,
    moment_matrix,
    read_sdpa,
    terminal_matrix,
)

CONSTRAINT_TOL = 1e-6
CLOSED_FORM_EQ_TOL = 1e-10
CLOSED_FORM_EIG_TOL = 1e-9
OBJECTIVE_REL_TOL = 1e-6


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"check {check} failed: {detail}")
        self.check = check


def tables_satisfy_constraints(model, deg, tables, tol: float = CONSTRAINT_TOL) -> None:
    """Extracted pseudo-moments satisfy the model's moment equations."""
    worst = constraint_residual(generate_constraints(model, deg), tables)
    if not worst <= tol:
        raise CheckFailed("moment_equations", f"max residual {worst:.3e} > {tol:.0e}")


def pack_sdpa(data) -> tuple[np.ndarray, ...]:
    """Compact, bit-exact image of an ``SdpaData`` (floats as their bit patterns).

    The entry indices are integers far below 2**53, so one float64 array
    holds them and the values exactly.
    """
    entries = np.array(data.entries, dtype=np.float64).reshape(-1, 5)
    return (
        np.array([data.num_constraints], dtype=np.int64),
        np.array(data.block_sizes, dtype=np.int64),
        np.array(data.rhs, dtype=np.float64).view(np.uint64),
        entries[:, :4].astype(np.int64),
        np.ascontiguousarray(entries[:, 4]).view(np.uint64),
    )


_SDPA_PARTS = ("constraint count", "block sizes", "objective", "entry indices", "entry values")


def sdpa_file_matches(expected: tuple[np.ndarray, ...], path: Path) -> None:
    """The file read back with ``read_sdpa`` equals ``to_sdpa_data`` bit for bit."""
    try:
        got = pack_sdpa(read_sdpa(path))
    except ValueError as exc:
        raise CheckFailed("sdpa_roundtrip", f"{path.name} does not parse: {exc}") from None
    for part, a, b in zip(_SDPA_PARTS, expected, got):
        if a.shape != b.shape or not np.array_equal(a, b):
            raise CheckFailed("sdpa_roundtrip", f"{part} differ after reading {path.name}")


def closed_form_is_feasible(problem, u0, deg) -> np.ndarray:
    """Closed-form moments of the linear flow satisfy the assembled problem.

    Returns the embedded closed-form vector for later checks.
    """
    x = embed_tables(problem.layout, analytic_tables(u0, deg))
    eq_res = float(np.abs(problem.eq_matrix @ x - problem.eq_rhs).max()) if problem.num_eq else 0.0
    if not eq_res <= CLOSED_FORM_EQ_TOL:
        raise CheckFailed(
            "closed_form_equalities", f"residual {eq_res:.3e} > {CLOSED_FORM_EQ_TOL:.0e}"
        )
    for block in problem.blocks:
        mat = block.matrix(x)
        low = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
        if not low >= -CLOSED_FORM_EIG_TOL:
            raise CheckFailed(
                "closed_form_psd", f"block {block.name} min eigenvalue {low:.3e}"
            )
    return x


def certified_tables_are_psd(tables, deg, abs_tol: float) -> None:
    """Numeric moment, localizing and terminal matrices are PSD within abs_tol."""
    occupation = tables[MeasureTag.OCCUPATION]
    terminal = tables[MeasureTag.TERMINAL]
    for name, mat in (
        ("moment_matrix", moment_matrix(occupation, deg)),
        ("localizing_matrix", localizing_matrix(occupation, deg)),
        ("terminal_matrix", terminal_matrix(terminal, deg)),
    ):
        low = float(np.linalg.eigvalsh(mat).min()) if mat.size else 0.0
        if not low >= -abs_tol:
            raise CheckFailed("certified_psd", f"{name} min eigenvalue {low:.3e}")


def objective_within_closed_form(problem, x, closed_form_x) -> None:
    """A certified linear optimum does not exceed the closed-form trace."""
    obj = float(problem.objective @ x)
    bound = float(problem.objective @ closed_form_x)
    if not obj <= bound + OBJECTIVE_REL_TOL * max(1.0, abs(bound)):
        raise CheckFailed("objective_bound", f"objective {obj:.12g} > closed-form trace {bound:.12g}")


def vectors_identical(written: np.ndarray, imported: np.ndarray) -> None:
    """The imported solution equals the written one bit for bit."""
    if written.shape != imported.shape or not np.array_equal(
        written.view(np.uint64), imported.view(np.uint64)
    ):
        raise CheckFailed("solution_roundtrip", "imported vector differs from the written one")
