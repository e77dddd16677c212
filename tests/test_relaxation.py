from dataclasses import replace

import numpy as np
import pytest

from momentpde import relaxation
from momentpde.analytic import analytic_tables
from momentpde.indices import (
    MomentIndex,
    TruncationDegrees,
    canonicalize,
    enumerate_moment_vector,
    is_canonical,
    is_self_conjugate,
    mode_counts,
)
from momentpde.models import DistributedQuadratic, Linear, MeasureTag, generate_constraints
from momentpde.relaxation import (
    Slot,
    build_layout,
    build_problem,
    embed_tables,
    extract_pseudomoments,
    hermitian_embedding,
    localizing_matrix,
    moment_matrix,
    terminal_matrix,
)
from momentpde.tables import MomentTable, write_table_csv

from test_solver import MODELS


def test_layout_slot_structure(deg222):
    layout = build_layout(deg222)

    def lookup(measure, ell, freqs):
        counts = mode_counts([freqs], deg222.harmonic)
        return tuple(int(a[0]) for a in layout.lookup(measure, np.array([ell]), counts))

    occupation, terminal = MeasureTag.OCCUPATION, MeasureTag.TERMINAL
    # self-conjugate multiset: one real slot
    real, imag, sign = lookup(occupation, 0, (1, -1))
    assert imag == -1 and sign == 1
    assert layout.slots[(occupation, MomentIndex(0, (-1, 1)))] == Slot(real, None)
    # generic multiset: a (re, im) pair, conjugate flips the sign; the slot
    # belongs to the representative (-1,)
    pos, neg = lookup(occupation, 0, (1,)), lookup(occupation, 0, (-1,))
    assert pos[:2] == neg[:2] and pos[1] >= 0
    assert (pos[2], neg[2]) == (-1, 1)
    assert layout.slots[(occupation, MomentIndex(0, (-1,)))] == Slot(*neg[:2])
    # terminal moments alias the time-degree-zero slot
    assert lookup(terminal, 0, (1,)) == lookup(terminal, 2, (1,))
    # a moment outside the truncation has no slot
    with pytest.raises(ValueError, match="no slot"):
        lookup(occupation, 3, (1,))
    # a multiset longer than the algebraic degree has no slot either
    with pytest.raises(ValueError, match="no slot"):
        lookup(occupation, 0, (1, 1, 1))
    # a time degree that does not fit the int8 key is rejected, not wrapped
    # onto ell = 0
    with pytest.raises(ValueError, match="do not fit"):
        lookup(occupation, 256, (1,))
    # occupation slots first, then terminal; numbering is dense
    assert layout.num_vars == 84


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 4, 2), (2, 2, 20)], ids=lambda t: "%d-%d-%d" % t)
def test_lookup_agrees_with_canonicalize(triple):
    deg = TruncationDegrees(*triple)
    layout = build_layout(deg)
    moments = enumerate_moment_vector(deg)
    ell = np.array([idx.time_degree for idx in moments])
    counts = mode_counts([idx.freqs for idx in moments], deg.harmonic)
    for measure in (MeasureTag.OCCUPATION, MeasureTag.TERMINAL):
        real, imag, sign = layout.lookup(measure, ell, counts)
        for idx, re, im, s in zip(moments, real, imag, sign):
            canon = canonicalize(idx)
            key = canon.index
            if measure is MeasureTag.TERMINAL:
                key = MomentIndex(0, key.freqs)
            slot = layout.slots[(measure, key)]
            assert (re, None if im < 0 else im) == (slot.real, slot.imag)
            assert s == (-1 if canon.conjugated else 1)


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


def test_extraction_fills_terminal_aliases_in_moment_vector_order(u0, tmp_path):
    # The rule the aliases follow: every canonical index of the moment vector
    # with ell > 0, in order, takes its ell = 0 value.  Table order sets the
    # CSV bytes.
    deg = TruncationDegrees(4, 4, 2)
    problem = build_problem(Linear(), deg, u0)
    x = np.random.default_rng(2).normal(size=problem.num_vars)
    expected = MomentTable()
    for (measure, idx), slot in problem.layout.slots.items():
        if measure is MeasureTag.TERMINAL:
            expected.set(idx, complex(x[slot.real], 0.0 if slot.imag is None else x[slot.imag]))
    for idx in enumerate_moment_vector(deg):
        if idx.time_degree > 0 and is_canonical(idx):
            expected.set(idx, expected.get(MomentIndex(0, idx.freqs)))
    write_table_csv(expected, tmp_path / "expected.csv")
    write_table_csv(extract_pseudomoments(problem, x)[MeasureTag.TERMINAL], tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


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


def test_inconsistent_constant_constraint_is_rejected(u0, deg222, monkeypatch):
    # Keep only the initial term of the constraint of y[0; -1]: 0 = u0[-1] = 1.
    constraints = generate_constraints(Linear(), deg222, canonical_only=True)
    target = next(c for c in constraints if c.test_index == MomentIndex(0, (-1,)))
    stripped = replace(
        target, terms=tuple(t for t in target.terms if t[1] is MeasureTag.INITIAL)
    )
    patched = [stripped if c is target else c for c in constraints]
    monkeypatch.setattr(relaxation, "generate_constraints", lambda *a, **k: patched)
    with pytest.raises(ValueError, match="inconsistent constant constraint"):
        build_problem(Linear(), deg222, u0)
