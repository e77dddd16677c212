import math

import numpy as np
import pytest
from scipy.special import gammainc

from momentpde.analytic import (
    analytic_occupation_moment,
    analytic_tables,
    analytic_terminal_moment,
    i_ell,
    i_ell_closed_form,
)
from momentpde.indices import MomentIndex, TruncationDegrees, enumerate_moment_vector
from momentpde.models import (
    InitialData,
    Linear,
    MeasureTag,
    constraint_residual,
    generate_constraints,
)
from momentpde.relaxation import localizing_matrix, moment_matrix, terminal_matrix
from momentpde.tables import read_table_csv, write_table_csv


def _i_ell_reference(ell, n):
    # independent oracle: regularized lower incomplete gamma
    return float(gammainc(ell + 1, n)) * math.factorial(ell) / n ** (ell + 1)


def test_i_ell_base_case():
    assert i_ell(0, 1) == pytest.approx(1 - math.exp(-1), rel=1e-14)


def test_i_ell_against_incomplete_gamma():
    for ell in range(7):
        for n in range(1, 73):
            ref = _i_ell_reference(ell, n)
            assert abs(i_ell(ell, n) - ref) <= 1e-13 * abs(ref)


def test_i_ell_recursion():
    for ell in range(6):
        for n in range(1, 73):
            recursed = ((ell + 1) * i_ell(ell, n) - math.exp(-n)) / n
            value = i_ell(ell + 1, n)
            assert abs(value - recursed) <= 1e-12 * abs(value)


def test_i_ell_closed_form_agrees_despite_cancellation():
    for ell in range(7):
        for n in range(1, 73):
            gl = i_ell(ell, n)
            assert abs(i_ell_closed_form(ell, n) - gl) <= 1e-10 * abs(gl)


def test_i_ell_domain():
    with pytest.raises(ValueError):
        i_ell(0, 0)
    with pytest.raises(ValueError):
        i_ell(-1, 1)


def test_occupation_examples(u0):
    assert analytic_occupation_moment(u0, MomentIndex(0, ())) == pytest.approx(1)
    assert analytic_occupation_moment(u0, MomentIndex(1, ())) == pytest.approx(0.5)
    assert analytic_occupation_moment(u0, MomentIndex(0, (1,))) == pytest.approx(
        1 - math.exp(-1), rel=1e-12
    )


def test_terminal_examples(u0):
    assert analytic_terminal_moment(u0, MomentIndex(0, (1, 1))) == pytest.approx(
        math.exp(-2), rel=1e-14
    )
    assert analytic_terminal_moment(u0, MomentIndex(5, ())) == 1
    # independent of the time degree
    assert analytic_terminal_moment(u0, MomentIndex(3, (1,))) == analytic_terminal_moment(
        u0, MomentIndex(0, (1,))
    )


def test_complex_initial_data_conjugation():
    data = InitialData({1: 0.5 + 0.25j, -1: 0.5 - 0.25j, 0: 1.0})
    deg = TruncationDegrees(2, 2, 1)
    table = analytic_tables(data, deg)[MeasureTag.OCCUPATION]
    for idx in enumerate_moment_vector(deg):
        mirror = MomentIndex(idx.time_degree, tuple(-n for n in idx.freqs))
        assert table.get(mirror) == pytest.approx(
            table.get(idx).conjugate(), abs=1e-15
        )


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2), (4, 4, 2), (6, 4, 4)])
def test_analytic_tables_satisfy_linear_constraints(u0, triple):
    deg = TruncationDegrees(*triple)
    tables = analytic_tables(u0, deg)
    res = constraint_residual(generate_constraints(Linear(), deg), tables)
    assert res <= 1e-10


def test_analytic_hermitian_blocks_are_psd(u0):
    deg = TruncationDegrees(4, 4, 2)
    tables = analytic_tables(u0, deg)
    occ = moment_matrix(tables[MeasureTag.OCCUPATION], deg)
    loc = localizing_matrix(tables[MeasureTag.OCCUPATION], deg)
    term = terminal_matrix(tables[MeasureTag.TERMINAL], deg)
    for h in (occ, loc, term):
        assert np.abs(h - h.conj().T).max() <= 1e-14
        assert np.linalg.eigvalsh(h).min() >= -1e-10


def test_table_csv_roundtrip(tmp_path, u0):
    deg = TruncationDegrees(2, 2, 2)
    table = analytic_tables(u0, deg)[MeasureTag.OCCUPATION]
    path = tmp_path / "occ.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert len(back) == len(table)
    for idx, value in table.items():
        assert back.get(idx) == value
