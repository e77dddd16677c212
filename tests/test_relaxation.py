from dataclasses import replace

import numpy as np
import pytest

from momentpde import relaxation
from momentpde.analytic import analytic_tables
from momentpde.indices import (
    MomentIndex,
    TruncationDegrees,
    enumerate_moment_vector,
    is_canonical,
    is_self_conjugate,
)
from momentpde.models import DistributedQuadratic, Linear, MeasureTag, generate_constraints
from momentpde.relaxation import (
    build_layout,
    build_problem,
    embed_tables,
    extract_pseudomoments,
    hermitian_embedding,
    localizing_matrix,
    moment_matrix,
    terminal_matrix,
)
from momentpde.tables import MomentTable

from test_solver import MODELS


def test_layout_slot_structure(deg222):
    layout = build_layout(deg222)
    # self-conjugate multiset: one real slot
    slot, sign = layout.resolve(MeasureTag.OCCUPATION, MomentIndex(0, (1, -1)))
    assert slot.imag is None and sign == 1
    # generic multiset: a (re, im) pair, conjugate flips the sign
    slot_pos, sign_pos = layout.resolve(MeasureTag.OCCUPATION, MomentIndex(0, (1,)))
    slot_neg, sign_neg = layout.resolve(MeasureTag.OCCUPATION, MomentIndex(0, (-1,)))
    assert slot_pos == slot_neg and slot_pos.imag is not None
    assert sign_pos == -sign_neg
    # terminal moments alias the time-degree-zero slot
    s0, _ = layout.resolve(MeasureTag.TERMINAL, MomentIndex(0, (1,)))
    s2, _ = layout.resolve(MeasureTag.TERMINAL, MomentIndex(2, (1,)))
    assert s0 == s2
    # occupation slots first, then terminal; numbering is dense
    assert layout.num_vars == 84


def test_block_sizes_at_222(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    by_name = {b.name: b for b in problem.blocks}
    assert by_name["occupation_moment"].size == 24
    assert by_name["occupation_localizing"].size == 12
    assert by_name["terminal_moment"].size == 12


def test_degrees_below_minimum_rejected(u0):
    with pytest.raises(ValueError):
        build_problem(Linear(), TruncationDegrees(0, 2, 2), u0)
    with pytest.raises(ValueError):
        build_problem(Linear(), TruncationDegrees(2, 0, 2), u0)


def test_hermitian_embedding_spectrum_doubling():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = 0.5 * (a + a.conj().T)
        embedded = hermitian_embedding(h)
        assert np.abs(embedded - embedded.T).max() == 0
        ev_h = np.sort(np.repeat(np.linalg.eigvalsh(h), 2))
        ev_e = np.sort(np.linalg.eigvalsh(embedded))
        assert np.abs(ev_h - ev_e).max() <= 1e-10


def test_analytic_witness_is_feasible(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    tables = analytic_tables(u0, deg222)
    x = embed_tables(problem.layout, tables)
    assert np.abs(problem.eq_matrix @ x - problem.eq_rhs).max() <= 1e-10
    for block in problem.blocks:
        mat = block.matrix(x)
        assert np.abs(mat - mat.T).max() <= 1e-14
        assert np.linalg.eigvalsh(mat).min() >= -1e-9


def random_tables(deg, seed):
    """Seeded tables: generic complex moments, real self-conjugate ones."""
    rng = np.random.default_rng(seed)
    tables = {}
    for measure in (MeasureTag.OCCUPATION, MeasureTag.TERMINAL):
        table = MomentTable()
        for idx in enumerate_moment_vector(deg):
            if is_canonical(idx):
                re, im = rng.normal(size=2)
                table.set(idx, complex(re, 0.0 if is_self_conjugate(idx) else im))
        tables[measure] = table
    return tables


@pytest.mark.parametrize("source", ["analytic", "random"])
@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2), (4, 4, 2)], ids=lambda t: "%d-%d-%d" % t)
@pytest.mark.parametrize("model", MODELS, ids=["linear", "distributed", "local"])
def test_embedded_blocks_match_numeric_hermitian_blocks(u0, model, triple, source):
    deg = TruncationDegrees(*triple)
    problem = build_problem(model, deg, u0)
    tables = analytic_tables(u0, deg) if source == "analytic" else random_tables(deg, 5)
    x = embed_tables(problem.layout, tables)
    numeric = {
        "occupation_moment": moment_matrix(tables[MeasureTag.OCCUPATION], deg),
        "occupation_localizing": localizing_matrix(tables[MeasureTag.OCCUPATION], deg),
        "terminal_moment": terminal_matrix(tables[MeasureTag.TERMINAL], deg),
    }
    for block in problem.blocks:
        assert np.abs(block.matrix(x) - hermitian_embedding(numeric[block.name])).max() <= 1e-12
    # Both sides read one spec, so check a localizer entry written out by
    # hand: row 1, column u_1 is y[1; -1] - y[2; -1] (weight t - t^2).
    occupation = tables[MeasureTag.OCCUPATION]
    expected = occupation.get(MomentIndex(1, (-1,))) - occupation.get(MomentIndex(2, (-1,)))
    col = deg.harmonic + 2  # basis: 1, u_-h, ..., u_h, ...
    localizing = numeric["occupation_localizing"]
    assert localizing[0, col] == pytest.approx(expected, abs=1e-14)
    assert localizing[col, 0] == pytest.approx(expected.conjugate(), abs=1e-14)


def test_objective_is_sum_of_hermitian_traces(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    tables = analytic_tables(u0, deg222)
    x = embed_tables(problem.layout, tables)
    expected = (
        moment_matrix(tables[MeasureTag.OCCUPATION], deg222).trace().real
        + terminal_matrix(tables[MeasureTag.TERMINAL], deg222).trace().real
    )
    value = problem.objective @ x
    assert value == pytest.approx(expected, rel=1e-12)
    assert value > 0


def test_extraction_round_trip(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    tables = analytic_tables(u0, deg222)
    x = embed_tables(problem.layout, tables)
    out = extract_pseudomoments(problem, x)
    for measure in (MeasureTag.OCCUPATION, MeasureTag.TERMINAL):
        for idx, value in tables[measure].items():
            assert out[measure].get(idx) == pytest.approx(value, abs=1e-14)
    # initial table is carried through as data
    assert out[MeasureTag.INITIAL].get(MomentIndex(0, (1,))) == 1
    # forced-real slots never grow an imaginary part
    assert out[MeasureTag.OCCUPATION].get(MomentIndex(1, (-1, 1))).imag == 0


def test_extraction_checks_vector_length(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    with pytest.raises(ValueError):
        extract_pseudomoments(problem, np.zeros(problem.num_vars + 1))


def test_assembly_is_deterministic(u0, deg222):
    a = build_problem(DistributedQuadratic(1e-3, 1, 1), deg222, u0)
    b = build_problem(DistributedQuadratic(1e-3, 1, 1), deg222, u0)
    assert (a.eq_matrix != b.eq_matrix).nnz == 0
    assert np.array_equal(a.eq_rhs, b.eq_rhs)
    assert np.array_equal(a.objective, b.objective)
    for ba, bb in zip(a.blocks, b.blocks):
        assert (ba.coeffs != bb.coeffs).nnz == 0
        assert np.array_equal(ba.const, bb.const)


def test_nonlinear_constraints_embed_consistently(u0, deg422):
    # the analytic (epsilon = 0) witness violates nonlinear equalities by
    # exactly the epsilon terms, so the residual scales linearly in epsilon
    res = {}
    for eps in (1e-4, 1e-2):
        problem = build_problem(DistributedQuadratic(eps, 1, 1), deg422, u0)
        tables = analytic_tables(u0, deg422)
        x = embed_tables(problem.layout, tables)
        res[eps] = np.abs(problem.eq_matrix @ x - problem.eq_rhs).max()
    assert res[1e-2] == pytest.approx(100 * res[1e-4], rel=1e-6)


def test_constraint_without_its_pivot_is_rejected(u0, deg222, monkeypatch):
    # Drop the occupation moment (ell - 1, freqs) that an ell > 0 row solves for.
    constraints = generate_constraints(Linear(), deg222, canonical_only=True)
    target = next(c for c in constraints if c.test_index.time_degree > 0)
    ell = target.test_index.time_degree
    stripped = replace(
        target, terms=tuple(t for t in target.terms if t[2].time_degree != ell - 1)
    )
    patched = [stripped if c is target else c for c in constraints]
    monkeypatch.setattr(relaxation, "generate_constraints", lambda *a, **k: patched)
    with pytest.raises(ValueError, match="no pivot slot"):
        build_problem(Linear(), deg222, u0)
