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
    mode_counts,
)
from momentpde.models import (
    DistributedQuadratic,
    InitialData,
    Linear,
    LocalQuadratic,
    MeasureTag,
    generate_constraints,
)
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
                self_conjugate = tuple(sorted(-n for n in idx.freqs)) == idx.freqs
                table.set(idx, complex(re, 0.0 if self_conjugate else im))
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
    assert np.array_equal(a.zero_vars, b.zero_vars)
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
    # Drop the occupation moment (ell - 1, C) that an ell > 0 row solves for.
    equations = generate_constraints(Linear(), deg222, canonical_only=True)
    test = equations.eq
    pivot_term = np.flatnonzero(
        (equations.test_ell[test] > 0)
        & (equations.ell == equations.test_ell[test] - 1)
        & (equations.counts == equations.test_counts[test]).all(axis=1)
    )[0]
    keep = np.arange(len(test)) != pivot_term
    stripped = replace(
        equations,
        eq=test[keep],
        coeff=equations.coeff[keep],
        ell=equations.ell[keep],
        counts=equations.counts[keep],
    )
    monkeypatch.setattr(relaxation, "generate_constraints", lambda *a, **k: stripped)
    with pytest.raises(ValueError, match="no pivot slot"):
        build_problem(Linear(), deg222, u0)


class TwistedData(InitialData):
    """Default data whose product over the self-conjugate (-1, 1) gains an
    imaginary part, which no moment of that equation can balance."""

    def product(self, freqs):
        return super().product(freqs) + (1j if freqs == (-1, 1) else 0)


def test_inconsistent_constant_constraint_is_rejected(deg222):
    # The imaginary row of the test index y[0; -1, 1] is empty: 0 = 1.
    with pytest.raises(ValueError, match="inconsistent constant constraint"):
        build_problem(Linear(), deg222, TwistedData.default())


LADDER = [(2, 2, 2), (4, 2, 2), (6, 2, 4), (4, 4, 2), (4, 4, 4)]


def free_dimension_on_face(problem):
    live, dropped = problem.face()
    return int(live.sum() - (~dropped).sum())


@pytest.mark.parametrize(
    "model, triples, free, zero",
    [
        (Linear(), LADDER, [10, 10, 10, 35, 35], [44, 66, 360, 546, 4080]),
        (DistributedQuadratic(0.1), LADDER[:3], [19, 25, 31], [44, 66, 360]),
    ],
    ids=["linear", "distributed"],
)
def test_dead_mode_face_free_dimensions(u0, model, triples, free, zero):
    # the default datum leaves the modes |k| >= 2 dead
    problems = [build_problem(model, TruncationDegrees(*t), u0) for t in triples]
    assert [free_dimension_on_face(p) for p in problems] == free
    assert [len(p.zero_vars) for p in problems] == zero


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2), (4, 4, 2)], ids=lambda t: "%d-%d-%d" % t)
def test_local_model_has_no_face(u0, triple):
    # the convolution feeds every mode: no certificate holds
    problem = build_problem(LocalQuadratic(0.1), TruncationDegrees(*triple), u0)
    assert len(problem.zero_vars) == 0
    assert free_dimension_on_face(problem) == problem.num_vars - problem.num_eq


def seeded_datum(seed):
    """u_0 real and u_{+-1} = r e^{+-i theta}, near the default datum."""
    rng = np.random.default_rng(seed)
    a0, r = rng.uniform(0.9, 1.1, 2)
    c1 = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return InitialData({0: a0, 1: c1, -1: np.conj(c1)})


@pytest.mark.parametrize("datum", ["default", "seeded", "no-mean"])
@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2), (6, 2, 4), (4, 4, 2)], ids=lambda t: "%d-%d-%d" % t)
def test_closed_form_witness_vanishes_on_the_face(u0, triple, datum):
    # "no-mean" has u_0(0) = 0: rows of the mode 0 alone stay, and the
    # face passes the construction checks
    data = {
        "default": u0,
        "seeded": seeded_datum(41),
        "no-mean": InitialData({-1: 1.0, 1: 1.0}),
    }[datum]
    deg = TruncationDegrees(*triple)
    problem = build_problem(Linear(), deg, data)
    assert len(problem.zero_vars) > 0
    x = embed_tables(problem.layout, analytic_tables(data, deg))
    assert np.all(x[problem.zero_vars] == 0.0)


def test_live_mode_two_is_not_eliminated():
    # u_{+-2}(0) != 0 at harmonic degree 3: only the modes +-3 are dead
    data = InitialData({-2: 0.5, -1: 1.0, 0: 1.0, 1: 1.0, 2: 0.5})
    problem = build_problem(Linear(), TruncationDegrees(2, 2, 3), data)
    modes = {}
    for (_, idx), slot in problem.layout.slots.items():
        for var in (slot.real, slot.imag):
            if var is not None:
                modes[var] = set(idx.freqs)
    assert len(problem.zero_vars) > 0
    assert all(modes[v] & {-3, 3} for v in problem.zero_vars.tolist())
    assert not any(modes[v] == {2} for v in problem.zero_vars.tolist())


def test_inconsistent_face_is_rejected(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    live, dropped = problem.face()
    row = np.flatnonzero(dropped)[0]
    rhs = problem.eq_rhs.copy()
    rhs[row] = 1.0
    with pytest.raises(ValueError, match="nonzero right-hand side"):
        replace(problem, eq_rhs=rhs)
    kept = np.flatnonzero(~dropped & (np.diff(problem.eq_matrix.indptr) > 1))[0]
    zero = np.union1d(problem.zero_vars, problem.eq_pivots[kept])
    with pytest.raises(ValueError, match="pivot among the zero variables"):
        replace(problem, zero_vars=zero)
    with pytest.raises(ValueError, match="sorted, distinct and in range"):
        replace(problem, zero_vars=np.array([problem.num_vars]))
