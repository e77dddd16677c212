"""Each benchmark check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import checks  # noqa: E402
from momentpde import (  # noqa: E402
    InitialData,
    Linear,
    MeasureTag,
    MomentIndex,
    SolverSettings,
    TruncationDegrees,
    build_problem,
    extract_pseudomoments,
    read_solution,
    solve,
    to_sdpa_data,
    write_solution,
)
from momentpde.sdpa import write_sdpa_data  # noqa: E402

DEG = TruncationDegrees(2, 2, 2)
U0 = InitialData.default()


@pytest.fixture(scope="module")
def problem():
    return build_problem(Linear(), DEG, U0)


@pytest.fixture(scope="module")
def closed_x(problem):
    return checks.closed_form_is_feasible(problem, U0, DEG)


@pytest.fixture(scope="module")
def solved(problem):
    x, report = solve(problem)
    assert report.status == "optimal"
    return x


def test_closed_form_tables_satisfy_the_moment_equations(problem, closed_x):
    checks.tables_satisfy_constraints(Linear(), DEG, extract_pseudomoments(problem, closed_x))


def test_perturbed_pseudo_moment_is_rejected(problem, closed_x):
    slot = problem.layout.slots[(MeasureTag.OCCUPATION, MomentIndex(1, (-1, 1)))].real
    x = closed_x.copy()
    x[slot] += 1e-4
    with pytest.raises(checks.CheckFailed, match="moment_equations"):
        checks.tables_satisfy_constraints(Linear(), DEG, extract_pseudomoments(problem, x))


def test_sdpa_file_read_back_matches(problem, tmp_path):
    data = to_sdpa_data(problem)
    path = tmp_path / "p.dat-s"
    write_sdpa_data(data, path)
    checks.sdpa_file_matches(checks.pack_sdpa(data), path)


@pytest.mark.parametrize("cut", ["lines", "mid_line", "header"])
def test_truncated_sdpa_file_is_rejected(problem, tmp_path, cut):
    data = to_sdpa_data(problem)
    path = tmp_path / "p.dat-s"
    write_sdpa_data(data, path)
    text = path.read_text()
    if cut == "lines":
        text = "".join(text.splitlines(keepends=True)[:-3])
    elif cut == "mid_line":
        text = text[: len(text) - 7]
    else:
        text = "".join(text.splitlines(keepends=True)[:2])
    path.write_text(text)
    with pytest.raises(checks.CheckFailed, match="sdpa_roundtrip"):
        checks.sdpa_file_matches(checks.pack_sdpa(data), path)


def test_changed_sdpa_value_is_rejected(problem, tmp_path):
    data = to_sdpa_data(problem)
    path = tmp_path / "p.dat-s"
    write_sdpa_data(data, path)
    lines = path.read_text().splitlines(keepends=True)
    matno, blkno, i, j, value = lines[-1].split()
    lines[-1] = f"{matno} {blkno} {i} {j} {np.nextafter(float(value), np.inf):.17g}\n"
    path.write_text("".join(lines))
    with pytest.raises(checks.CheckFailed, match="entry values"):
        checks.sdpa_file_matches(checks.pack_sdpa(data), path)


def test_flipped_equality_row_is_rejected(problem):
    row = int(np.argmax(np.abs(problem.eq_rhs)))
    flip = np.ones(problem.num_eq)
    flip[row] = -1.0
    broken = build_problem(Linear(), DEG, U0)
    broken.eq_matrix = (sp.diags(flip) @ problem.eq_matrix).tocsr()
    with pytest.raises(checks.CheckFailed, match="closed_form_equalities"):
        checks.closed_form_is_feasible(broken, U0, DEG)


def test_indefinite_block_is_rejected(problem):
    broken = build_problem(Linear(), DEG, U0)
    block = broken.blocks[0]
    block.const = block.const.copy()
    block.const[0] = -1.0  # pushes one diagonal entry far below zero
    with pytest.raises(checks.CheckFailed, match="closed_form_psd"):
        checks.closed_form_is_feasible(broken, U0, DEG)


def test_certified_solve_passes_its_checks(problem, closed_x, solved):
    tables = extract_pseudomoments(problem, solved)
    checks.tables_satisfy_constraints(Linear(), DEG, tables)
    checks.certified_tables_are_psd(tables, DEG, SolverSettings().abs_tol)
    checks.objective_within_closed_form(problem, solved, closed_x)


def test_non_psd_pseudo_moments_are_rejected(problem, solved):
    slot = problem.layout.slots[(MeasureTag.OCCUPATION, MomentIndex(0, ()))].real
    x = solved.copy()
    x[slot] = -1.0  # the mass of the occupation measure must be nonnegative
    with pytest.raises(checks.CheckFailed, match="certified_psd"):
        checks.certified_tables_are_psd(
            extract_pseudomoments(problem, x), DEG, SolverSettings().abs_tol
        )


def test_objective_above_closed_form_trace_is_rejected(problem, closed_x):
    x = closed_x + 1e-3 * problem.objective
    with pytest.raises(checks.CheckFailed, match="objective_bound"):
        checks.objective_within_closed_form(problem, x, closed_x)


def test_solution_file_roundtrip_is_bit_exact(closed_x, tmp_path):
    path = tmp_path / "x.sol"
    write_solution(closed_x, path)
    checks.vectors_identical(closed_x, read_solution(path))
    changed = closed_x.copy()
    changed[-1] = np.nextafter(changed[-1], np.inf)
    with pytest.raises(checks.CheckFailed, match="solution_roundtrip"):
        checks.vectors_identical(changed, read_solution(path))
