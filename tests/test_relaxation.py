from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from momentpde import relaxation
from momentpde.analytic import analytic_tables
from momentpde.indices import (
    MomentIndex,
    TruncationDegrees,
    canonicalize,
    enumerate_moment_vector,
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
    MOMENT,
    BlockSpec,
    Slot,
    block_specs,
    build_layout,
    build_problem,
    embed_tables,
    extract_pseudomoments,
    localizing_matrix,
    moment_matrix,
    terminal_matrix,
)
from momentpde.tables import (
    MissingMomentError,
    MomentKeys,
    MomentTable,
    read_table_csv,
    write_table_csv,
)

from test_indices import EXAMPLE_BASIS
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
def test_lookup_agrees_with_canonicalize(triple, tmp_path):
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

    # The array table against a plain dict keyed by the canonical index.  The
    # seeded mapping gives every moment and its conjugate: the later wins.
    rng = np.random.default_rng(7)
    given, plain = {}, {}
    for idx in moments:
        re, im = rng.normal(size=2)
        given[idx] = complex(re, 0.0 if sorted(-n for n in idx.freqs) == list(idx.freqs) else im)
        canon = canonicalize(idx)
        plain[canon.index] = given[idx].conjugate() if canon.conjugated else given[idx]
    table = MomentTable.from_moments(given)
    canonical = [idx for idx in moments if not canonicalize(idx).conjugated]
    assert [idx for idx, _ in table.items()] == canonical

    def expected(idx):
        canon = canonicalize(idx)
        value = plain[canon.index]
        return value.conjugate() if canon.conjugated else value

    def bits(values):  # (re, im) bit patterns, one row per value
        return np.array(values, dtype=complex).view(np.uint64).reshape(-1, 2)

    conjugates = [MomentIndex(idx.time_degree, [-n for n in idx.freqs]) for idx in moments]
    for query in (moments, conjugates):
        want = bits([expected(idx) for idx in query])
        assert np.array_equal(bits([table.get(idx) for idx in query]), want)
        q_ell = np.array([idx.time_degree for idx in query])
        # count rows of a wider or narrower harmonic width are re-padded
        for h in (deg.harmonic, deg.harmonic + 3, deg.harmonic - 1):
            fit = [i for i, idx in enumerate(query) if all(abs(n) <= h for n in idx.freqs)]
            q_counts = mode_counts([query[i].freqs for i in fit], h)
            assert np.array_equal(bits(table.lookup(q_ell[fit], q_counts)), want[fit])
        assert all(idx in table for idx in query)
    # forced-real entries read an imaginary part of exactly +0.0
    for idx in moments:
        if sorted(-n for n in idx.freqs) == list(idx.freqs):
            assert bits([table.get(idx)])[0, 1] == 0
    # a mode outside the table's width is a missing moment
    outside = MomentIndex(0, (deg.harmonic + 1,))
    assert outside not in table
    with pytest.raises(MissingMomentError, match=r"y\[0;%d\]" % (deg.harmonic + 1)):
        table.get(outside)
    # the CSV keeps the bytes
    write_table_csv(table, tmp_path / "a.csv")
    write_table_csv(read_table_csv(tmp_path / "a.csv"), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_block_sizes_at_222(u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    by_name = {b.name: b for b in problem.blocks}
    assert by_name["occupation_moment"].size == 12
    assert by_name["occupation_localizing"].size == 6
    assert by_name["terminal_moment"].size == 6


def test_degrees_below_minimum_rejected(u0):
    with pytest.raises(ValueError):
        build_problem(Linear(), TruncationDegrees(0, 2, 2), u0)
    with pytest.raises(ValueError):
        build_problem(Linear(), TruncationDegrees(2, 0, 2), u0)


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
        entries = {}
        for idx in enumerate_moment_vector(deg):
            if not canonicalize(idx).conjugated:
                re, im = rng.normal(size=2)
                self_conjugate = tuple(sorted(-n for n in idx.freqs)) == idx.freqs
                entries[idx] = complex(re, 0.0 if self_conjugate else im)
        tables[measure] = MomentTable.from_moments(entries)
    return tables


def reflection_unitary(basis):
    """The unitary V with conj(V) = P V, P the reflection a -> -a of a basis:
    e_r on a self-conjugate row r; (e_r + e_s)/sqrt 2 at column r and
    i (e_r - e_s)/sqrt 2 at column s for a pair r < s."""
    position = {b: i for i, b in enumerate(basis)}
    v = np.zeros((len(basis), len(basis)), dtype=complex)
    for r, b in enumerate(basis):
        s = position[MomentIndex(b.time_degree, tuple(-n for n in b.freqs))]
        if s == r:
            v[r, r] = 1.0
        elif r < s:
            v[[r, s], r] = 1 / np.sqrt(2)
            v[[r, s], s] = 1j / np.sqrt(2), -1j / np.sqrt(2)
    return v


# modes +-1 and +-2 with unrelated phases: u_2 / u_1^2 is not real, so no
# translation makes the datum real
PHASES = InitialData(
    {
        1: 0.8 * np.exp(0.7j), -1: 0.8 * np.exp(-0.7j),
        2: 0.5 * np.exp(2.1j), -2: 0.5 * np.exp(-2.1j),
    }
)


@pytest.mark.parametrize("datum", ["default", "phases"])
@pytest.mark.parametrize("source", ["analytic", "random"])
# (4,2,4): many pairs of basis multisets share one canonical count row
@pytest.mark.parametrize(
    "triple", [(2, 2, 2), (4, 2, 2), (4, 4, 2), (4, 2, 4)], ids=lambda t: "%d-%d-%d" % t
)
@pytest.mark.parametrize("model", MODELS, ids=["linear", "distributed", "local"])
def test_real_blocks_match_numeric_hermitian_blocks(u0, model, triple, source, datum):
    u0 = u0 if datum == "default" else PHASES
    deg = TruncationDegrees(*triple)
    problem = build_problem(model, deg, u0)
    tables = analytic_tables(u0, deg) if source == "analytic" else random_tables(deg, 5)
    x = embed_tables(problem.layout, tables)
    numeric = {
        "occupation_moment": moment_matrix(tables[MeasureTag.OCCUPATION], deg),
        "occupation_localizing": localizing_matrix(tables[MeasureTag.OCCUPATION], deg),
        "terminal_moment": terminal_matrix(tables[MeasureTag.TERMINAL], deg),
    }
    specs = block_specs(deg)
    assert [b.name for b in problem.blocks] == [spec.name for spec in specs]
    for block, spec in zip(problem.blocks, specs):
        h, v = numeric[block.name], reflection_unitary(spec.basis)
        assert np.abs(v @ v.conj().T - np.eye(len(v))).max() <= 1e-15
        # one real symmetric block of the basis' size with H = V K V*
        assert block.size == len(spec.basis)
        k = block.matrix(x)
        assert k.dtype == float and np.array_equal(k, k.T)
        assert np.abs(v @ k @ v.conj().T - h).max() <= 1e-12
        spectrum = np.linalg.eigvalsh(h)
        scale = max(1.0, abs(spectrum).max())
        assert np.abs(np.linalg.eigvalsh(k) - spectrum).max() <= 1e-12 * scale
        # the coefficients are exact: no rounded product of square roots
        assert np.isin(np.abs(block.coeffs.data), [1.0, np.sqrt(2.0)]).all()
    # Both sides read one spec, so check a localizer entry written out by
    # hand: row 1, column u_1 is y[1; -1] - y[2; -1] (weight t - t^2).
    occupation = tables[MeasureTag.OCCUPATION]
    expected = occupation.get(MomentIndex(1, (-1,))) - occupation.get(MomentIndex(2, (-1,)))
    col = deg.harmonic + 2  # basis: 1, u_-h, ..., u_h, ...
    localizing = numeric["occupation_localizing"]
    assert localizing[0, col] == pytest.approx(expected, abs=1e-14)
    assert localizing[col, 0] == pytest.approx(expected.conjugate(), abs=1e-14)


def every_term_block(spec, terms, slots, num_vars):
    """Reference for ``_real_block``: every upper term and its mirror below
    the diagonal, the reflected terms included, summed by ``tocsr``."""
    m = len(spec.basis)
    row = {(b.time_degree, b.freqs): i for i, b in enumerate(spec.basis)}
    mirror = np.array(
        [row[b.time_degree, tuple(-n for n in reversed(b.freqs))] for b in spec.basis]
    )
    turn = np.sign(mirror - np.arange(m))
    lo, hi = np.minimum(mirror, np.arange(m)), np.maximum(mirror, np.arange(m))
    scale = np.array([1.0, np.sqrt(0.5), 0.5])
    paired = abs(turn)
    r, c, sign = terms.row, terms.col, terms.sign
    real, imag, conj = slots
    has_imag = imag >= 0
    ri, ci, var, s = r[has_imag], c[has_imag], imag[has_imag], (sign * conj)[has_imag]
    passes = [
        (r, c, real, lo, lo, sign),
        (r, c, real, hi, hi, turn[r] * turn[c] * sign),
        (ri, ci, var, lo, hi, -turn[ci] * s),
        (ri, ci, var, hi, lo, turn[ri] * s),
    ]
    pos, cols, vals = [], [], []
    for j, k, v, left, right, value in passes:
        keep = value != 0
        j, k, v, value = j[keep], k[keep], v[keep], value[keep]
        p, q, low = left[j], right[k], j < k
        value = value * scale[paired[j] + paired[k]]
        pos += [p * m + q, (q * m + p)[low]]
        cols += [v, v[low]]
        vals += [value, value[low]]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(pos), np.concatenate(cols))),
        shape=(m * m, num_vars),
    ).tocsr()


# (4,2,4): many multiset pairs share one canonical row; (2,2,8): 17 modes
@pytest.mark.parametrize(
    "triple", [(2, 2, 2), (4, 2, 4), (4, 4, 2), (2, 2, 8)], ids=lambda t: "%d-%d-%d" % t
)
@pytest.mark.parametrize("model", MODELS, ids=["linear", "distributed", "local"])
def test_real_blocks_match_every_term_assembly(u0, model, triple):
    deg = TruncationDegrees(*triple)
    problem = build_problem(model, deg, u0)
    for block, spec in zip(problem.blocks, block_specs(deg)):
        terms = spec.upper_terms()
        slots = relaxation._term_slots(problem.layout, spec.measure, terms)
        want = every_term_block(spec, terms, slots, problem.num_vars)
        got = block.coeffs
        # canonical CSR, so the SDPA export takes its sort-free path
        assert got.has_canonical_format and (got.data != 0).all(), spec.name
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (spec.name, name)


def loop_hermitian(spec, table):
    """Reference for ``hermitian_matrix``: entry (r, c), r <= c, summed term
    by term, one ``MomentIndex`` per term, in the spec's term order; entry
    (c, r), the diagonal included, is its conjugate."""
    m = len(spec.basis)
    h = np.zeros((m, m), dtype=complex)
    for r, row in enumerate(spec.basis):
        for c in range(r, m):
            col = spec.basis[c]
            freqs = row.freqs + tuple(-n for n in col.freqs)
            total = 0j
            for shift, sign in spec.terms:
                ell = row.time_degree + col.time_degree + shift
                total += sign * table.get(MomentIndex(ell, freqs))
            h[r, c], h[c, r] = total, total.conjugate()
    return h


@pytest.mark.parametrize("triple", [None, (2, 2, 2), (4, 2, 4), (2, 2, 20), (0, 2, 2)])
def test_hermitian_matrix_matches_entry_loop(triple):
    # None: the hand-built spec of test_entry_index_examples; at (0,2,2) the
    # localizer's basis is empty
    deg = TruncationDegrees(*(triple or (2, 2, 2)))
    tables = random_tables(deg, 3)
    if triple is None:
        specs = [BlockSpec("example", MeasureTag.OCCUPATION, EXAMPLE_BASIS, MOMENT, 2)]
    else:
        specs = block_specs(deg)
    for spec in specs:
        table = tables[spec.measure]
        got, want = relaxation.hermitian_matrix(spec, table), loop_hermitian(spec, table)
        assert got.tobytes() == want.tobytes(), spec.name  # bit for bit


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


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 4, 2), (6, 2, 4)], ids=lambda t: "%d-%d-%d" % t)
@pytest.mark.parametrize("model", MODELS, ids=["linear", "distributed", "local"])
def test_extraction_round_trip(u0, model, triple):
    deg = TruncationDegrees(*triple)
    problem = build_problem(model, deg, u0)
    tables = analytic_tables(u0, deg)
    x = embed_tables(problem.layout, tables)
    out = extract_pseudomoments(problem, x)
    for measure in (MeasureTag.OCCUPATION, MeasureTag.TERMINAL):
        for idx, value in tables[measure].items():
            assert out[measure].get(idx) == pytest.approx(value, abs=1e-14)
    # initial table is carried through as data
    assert out[MeasureTag.INITIAL].get(MomentIndex(0, (1,))) == 1
    # forced-real slots never grow an imaginary part
    assert out[MeasureTag.OCCUPATION].get(MomentIndex(1, (-1, 1))).imag == 0
    # x -> tables -> x is the identity, bit for bit
    x = np.random.default_rng(3).normal(size=problem.num_vars)
    again = embed_tables(problem.layout, extract_pseudomoments(problem, x))
    assert np.array_equal(again.view(np.uint64), x.view(np.uint64))


@pytest.mark.parametrize(
    "triple", [(2, 2, 2), (4, 4, 2), (6, 2, 4), (2, 2, 0)], ids=lambda t: "%d-%d-%d" % t
)
def test_extracted_tables_share_the_truncation_keys(u0, triple):
    deg = TruncationDegrees(*triple)
    problem = build_problem(LocalQuadratic(0.1), deg, u0)
    out = extract_pseudomoments(problem, np.random.default_rng(4).normal(size=problem.num_vars))
    # the terminal table is laid on the layout's occupation keys, not a copy
    assert out[MeasureTag.TERMINAL].moments is out[MeasureTag.OCCUPATION].moments
    assert out[MeasureTag.OCCUPATION].moments is problem.layout.moments[MeasureTag.OCCUPATION][0]
    # ... which are the truncation's canonical moments in moment-vector order
    canonical = [idx for idx in enumerate_moment_vector(deg) if not canonicalize(idx).conjugated]
    truncation = MomentKeys.truncation(deg)
    assert truncation.ell.tolist() == [idx.time_degree for idx in canonical]
    counts = mode_counts([idx.freqs for idx in canonical], deg.harmonic)
    assert np.array_equal(truncation.counts, counts)
    for table in out.values():
        assert np.array_equal(table.moments.ell, truncation.ell)
        assert np.array_equal(table.moments.counts, truncation.counts)


def test_extraction_fills_terminal_aliases_in_moment_vector_order(u0, tmp_path):
    # The rule the aliases follow: every canonical index of the moment vector
    # with ell > 0, in order, takes its ell = 0 value.  Table order sets the
    # CSV bytes.
    deg = TruncationDegrees(4, 4, 2)
    problem = build_problem(Linear(), deg, u0)
    x = np.random.default_rng(2).normal(size=problem.num_vars)
    expected = {}
    for (measure, idx), slot in problem.layout.slots.items():
        if measure is MeasureTag.TERMINAL:
            expected[idx] = complex(x[slot.real], 0.0 if slot.imag is None else x[slot.imag])
    for idx in enumerate_moment_vector(deg):
        if idx.time_degree > 0 and not canonicalize(idx).conjugated:
            expected[idx] = expected[MomentIndex(0, idx.freqs)]
    write_table_csv(MomentTable.from_moments(expected), tmp_path / "expected.csv")
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
