import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpde.indices import TruncationDegrees
from momentpde.models import InitialData, Linear
from momentpde.relaxation import Block, ConicProblem, build_problem, extract_pseudomoments
from momentpde.sdpa import (
    _CHUNK,
    SdpaData,
    export_sdpa,
    from_sdpa_data,
    import_solution,
    read_sdpa,
    read_solution,
    to_sdpa_data,
    write_sdpa_data,
    write_solution,
)
from momentpde.solver import SolverSettings, solve

from test_solver import MODELS, min_trace_completion_problem, rank_one_forcing_problem


def same_data(a, b):
    """Equal SDPA file data, entry rows compared as arrays."""
    return (a.num_constraints, a.block_sizes, a.rhs) == (
        b.num_constraints,
        b.block_sizes,
        b.rhs,
    ) and np.array_equal(a.entries, b.entries)


def test_trivial_problem_roundtrip(tmp_path):
    problem = min_trace_completion_problem()
    path = tmp_path / "trivial.dat-s"
    export_sdpa(problem, path)
    assert same_data(read_sdpa(path), to_sdpa_data(problem))
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    # header: m, nblocks, sizes, objective vector; then entry quintuples
    assert lines[0] == "3"
    assert lines[1] == "2"
    assert lines[2] == "2 -2"
    assert all(len(l.split()) == 5 for l in lines[4:])


def test_heat_problem_roundtrip(tmp_path, u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    path = tmp_path / "heat.dat-s"
    export_sdpa(problem, path)
    data = read_sdpa(path)
    assert same_data(data, to_sdpa_data(problem))
    assert data.num_constraints == problem.num_vars
    # upper-triangle convention
    assert np.all(data.entries[:, 2] <= data.entries[:, 3])
    # the equality block is diagonal with paired signs
    assert data.block_sizes[-1] == -2 * problem.num_eq
    # the reconstruction has no moment names to extract by
    with pytest.raises(ValueError, match="carries no variable layout"):
        extract_pseudomoments(from_sdpa_data(data), np.zeros(problem.num_vars))


def test_values_roundtrip_bit_exactly(tmp_path):
    problem = rank_one_forcing_problem()
    problem.objective[0] = 1.0 / 3.0
    problem.eq_rhs[0] = np.nextafter(1.0, 2.0)
    path = tmp_path / "vals.dat-s"
    export_sdpa(problem, path)
    data = read_sdpa(path)
    assert data.rhs[0] == 1.0 / 3.0
    f0 = data.entries[(data.entries[:, 0] == 0) & (data.entries[:, 2] == 1)]
    assert f0[0, 4] == np.nextafter(1.0, 2.0)


@pytest.mark.parametrize("factory", [min_trace_completion_problem, rank_one_forcing_problem])
def test_reconstructed_trivial_problems_solve_identically(tmp_path, factory):
    # neither problem records pivots, so both solves take the same matched
    # pivots of the same equalities: the same arithmetic, bit for bit
    problem = factory()
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    recon = from_sdpa_data(read_sdpa(path))
    x, direct = solve(problem)
    x_file, from_file = solve(recon)
    assert x_file.tobytes() == x.tobytes()
    assert (from_file.status, from_file.iterations) == (direct.status, direct.iterations)
    assert direct.status == "optimal"


def test_reconstructed_heat_solve_matches_embedded(tmp_path, u0, deg222):
    # no external SDPA solver exists in this environment; solving the
    # reconstruction read back from the file still exercises the format end
    # to end (wrong signs or indices would change the optimum)
    problem = build_problem(Linear(), deg222, u0)
    path = tmp_path / "heat.dat-s"
    export_sdpa(problem, path)
    recon = from_sdpa_data(read_sdpa(path))
    _, direct = solve(problem)
    _, from_file = solve(recon, SolverSettings(max_iters=100000))
    assert from_file.primal_objective == pytest.approx(
        direct.primal_objective, rel=1e-5
    )


def test_reconstructed_heat_solve_matches_interior_point(tmp_path, u0, deg222):
    cp = pytest.importorskip("cvxpy")
    problem = build_problem(Linear(), deg222, u0)
    path = tmp_path / "heat.dat-s"
    export_sdpa(problem, path)
    recon = from_sdpa_data(read_sdpa(path))
    x = cp.Variable(recon.num_vars)
    constraints = [recon.eq_matrix @ x == recon.eq_rhs]
    for block in recon.blocks:
        expr = block.coeffs @ x + block.const
        constraints.append(cp.reshape(expr, (block.size, block.size), order="C") >> 0)
    cvx = cp.Problem(cp.Minimize(recon.objective @ x), constraints)
    cvx.solve(solver=cp.CLARABEL)
    _, direct = solve(problem)
    assert cvx.value == pytest.approx(direct.primal_objective, rel=1e-5)


# The (2,2,2) optimum of the default linear problem, as the splitting solver
# it replaced recorded it; certified interior-point probes agree to 3e-8.
PINNED_222 = 5.959644256173723


def test_heat_solve_matches_pinned_optimum_directly_and_from_file(tmp_path, u0, deg222):
    # the in-repo counterpart of the cvxpy cross-check above: the embedded
    # problem, and its reconstruction from the file, whose equality pairs
    # read back as the problem's equalities, without its pivots
    problem = build_problem(Linear(), deg222, u0)
    path = tmp_path / "heat.dat-s"
    export_sdpa(problem, path)
    recon = from_sdpa_data(read_sdpa(path))
    assert len(recon.blocks) == len(problem.blocks) and recon.eq_pivots is None
    assert recon.eq_matrix.toarray().tobytes() == problem.eq_matrix.toarray().tobytes()
    assert recon.eq_rhs.tobytes() == problem.eq_rhs.tobytes()
    for p in (problem, recon):
        _, report = solve(p)
        assert report.status == "optimal" and report.relative_gap <= 1e-8
        assert report.primal_objective == pytest.approx(PINNED_222, rel=1e-7)


# Iterations of the reconstructions of MODELS, in order, at each triple.
RECONSTRUCTION_ITERATIONS = {(2, 2, 2): [9, 12, 14], (4, 2, 2): [12, 14, 14]}


@pytest.mark.parametrize("triple", list(RECONSTRUCTION_ITERATIONS), ids=str)
@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_reconstructions_certify(u0, model, triple):
    # the equalities read back from the file, pivoted by the matching,
    # certify as the problem's own do, at the same optimum; the iteration
    # counts pin the quality of the matched pivots (a plain transversal
    # takes 18 for LocalQuadratic at (4,2,2))
    problem = build_problem(model, TruncationDegrees(*triple), u0)
    _, direct = solve(problem)
    _, report = solve(from_sdpa_data(to_sdpa_data(problem)))
    assert report.status == "optimal" and report.relative_gap <= 1e-8
    assert report.primal_objective == pytest.approx(direct.primal_objective, rel=1e-7)
    assert report.iterations == RECONSTRUCTION_ITERATIONS[triple][MODELS.index(model)]


def test_solution_file_roundtrip(tmp_path, u0, deg222):
    problem = build_problem(Linear(), deg222, u0)
    x, _ = solve(problem)
    path = tmp_path / "sol.txt"
    write_solution(x, path)
    back = import_solution(path, problem)
    assert np.array_equal(x, back)


def test_import_solution_dimension_mismatch(tmp_path, u0, deg222, deg422):
    small = build_problem(Linear(), deg222, u0)
    big = build_problem(Linear(), deg422, u0)
    path = tmp_path / "sol.txt"
    write_solution(np.zeros(small.num_vars), path)
    with pytest.raises(ValueError, match=r"84 values.*expects 126"):
        import_solution(path, big)


def test_read_sdpa_tolerates_comments_and_braces(tmp_path):
    path = tmp_path / "c.dat-s"
    path.write_text(
        '"comment line\n* another comment\n2\n1\n{2}\n{1.0, 0.5}\n1 1 1 1 1\n'
    )
    data = read_sdpa(path)
    assert data.num_constraints == 2
    assert data.block_sizes == [2]
    assert data.rhs == [1.0, 0.5]
    assert np.array_equal(data.entries, [(1, 1, 1, 1, 1.0)])


def test_read_sdpa_rejects_malformed(tmp_path):
    path = tmp_path / "bad.dat-s"
    path.write_text("2\n1\n2\n1.0 0.5\n1 1 1\n")
    with pytest.raises(ValueError, match="malformed"):
        read_sdpa(path)
    path.write_text("2\n1\n2\n1.0 0.5\n1.5 1 1 1 1.0\n")
    with pytest.raises(ValueError, match=r"bad\.dat-s: malformed entry line '1\.5 1 1 1 1\.0\\n'"):
        read_sdpa(path)
    path.write_text("2\n1\n")
    with pytest.raises(ValueError, match="incomplete"):
        read_sdpa(path)
    for header, message in [
        ("2.5\n1\n2\n1.0 0.5", r"malformed SDPA header: .*'2\.5'"),
        ("2\n1\nx\n1.0 0.5", r"malformed SDPA header: .*'x'"),
        ("2\n1\n0\n1.0 0.5", "block size line has a block of size 0"),
        ("2\n1\n-0\n1.0 0.5", "block size line has a block of size 0"),
        ("{}\n1\n2\n1.0 0.5", r"empty header line '\{\}\\n'"),
        ("2\n2\n2\n1.0 0.5", "block size line has 1 entries, expected 2"),
        ("2\n1\n2\n1.0", "RHS line has 1 values, expected 2"),
    ]:
        path.write_text(f"{header}\n1 1 1 1 1.0\n")
        with pytest.raises(ValueError, match=rf"bad\.dat-s: {message}"):
            read_sdpa(path)
    for objective, entry, message in [
        ("nan 0.5", "1 1 1 1 1.0", "RHS line has a non-finite value"),
        ("1.0 0.5", "1 1 1 1 inf", r"entry \(1, 1, 1, 1, inf\) has a non-finite value"),
        ("1.0 0.5", "1 1 1 1 nan", r"entry \(1, 1, 1, 1, nan\) has a non-finite value"),
    ]:
        path.write_text(f"2\n1\n2\n{objective}\n{entry}\n")
        with pytest.raises(ValueError, match=rf"bad\.dat-s: {message}"):
            read_sdpa(path)


def test_out_of_range_block_is_rejected(tmp_path):
    path = tmp_path / "blocks.dat-s"
    for blkno in (7, 0):
        path.write_text(f"1\n1\n2\n1.0\n1 1 1 1 1.0\n1 {blkno} 1 1 5.0\n")
        with pytest.raises(ValueError, match=f"block {blkno}"):
            from_sdpa_data(read_sdpa(path))


@pytest.mark.parametrize(
    "size, line, message",
    [
        (2, "0 1 0 0 5.0", r"entry \(0, 1, 0, 0, 5.0\).*row or column"),
        (2, "0 1 0 2 5.0", r"entry \(0, 1, 0, 2, 5.0\).*row or column"),
        (2, "0 1 3 3 5.0", r"entry \(0, 1, 3, 3, 5.0\).*row or column"),
        (2, "1 1 0 1 5.0", r"entry \(1, 1, 0, 1, 5.0\).*row or column"),
        (2, "2 1 1 1 5.0", r"entry \(2, 1, 1, 1, 5.0\).*matrix 2"),
        (-2, "1 1 1 2 5.0", r"off-diagonal entry \(1,2\) in diagonal block 1"),
    ],
    ids=["row-0", "column-0", "row-3", "coeff-row-0", "matrix-2", "off-diagonal"],
)
def test_invalid_entry_is_rejected(tmp_path, size, line, message):
    # one 2x2 block (full, or diagonal when size < 0) and m = 1: rows and
    # columns run 1..2, matrices 0..1
    path = tmp_path / "entries.dat-s"
    path.write_text(f"1\n1\n{size}\n1.0\n1 1 1 1 1.0\n{line}\n")
    with pytest.raises(ValueError, match=message):
        from_sdpa_data(read_sdpa(path))


def sdpa_file(path, sizes, lines):
    """A file with one variable, objective 1.0, the given blocks and entries."""
    path.write_text("\n".join(["1", str(len(sizes.split())), sizes, "1.0", *lines]) + "\n")
    return path


# A 1x1 full block (block 1), and the pairs of E x = f with E = (1, 2) and
# f = (0.5, 0) as block 2: its rows 3 and 4 negate rows 1 and 2.
FULL = ["1 1 1 1 1.0"]
PAIR = ["0 2 1 1 0.5", "0 2 3 3 -0.5", "1 2 1 1 1.0", "1 2 2 2 2.0", "1 2 3 3 -1.0", "1 2 4 4 -2.0"]
PAIR_FIRST = [line.replace(" 2 ", " 1 ", 1) for line in PAIR]  # the same pairs as block 1


def test_equality_pairs_read_back_as_equalities(tmp_path):
    recon = from_sdpa_data(read_sdpa(sdpa_file(tmp_path / "p.dat-s", "1 -4", FULL + PAIR)))
    assert len(recon.blocks) == 1 and recon.eq_pivots is None
    assert np.array_equal(recon.eq_matrix.toarray(), [[1.0], [2.0]])
    assert np.array_equal(recon.eq_rhs, [0.5, 0.0])


@pytest.mark.parametrize(
    "sizes, lines, message",
    [
        ("1 -3", FULL + ["1 2 1 1 1.0", "1 2 2 2 -1.0"], "diagonal block 2 has odd size 3"),
        ("1 -4", FULL + PAIR[:5] + ["1 2 4 4 -2.5"], "block 2 .* row 4 .* of row 2"),
        ("1 -4", FULL + PAIR[:5], "block 2 .* row 4 .* of row 2"),
        ("1 -4", FULL + PAIR[:1] + ["0 2 3 3 -0.25"] + PAIR[2:], "block 2 .* row 3 .* of row 1"),
        ("-4 -4", PAIR_FIRST + PAIR, "diagonal block 1 is not the last block"),
        ("-4 1", PAIR_FIRST + ["1 2 1 1 1.0"], "diagonal block 1 is not the last block"),
    ],
    ids=["odd-size", "value-off", "value-missing", "constant-off", "two-diagonal", "first"],
)
def test_other_diagonal_blocks_are_rejected(tmp_path, sizes, lines, message):
    # a diagonal block is read back only as the equality pairs: last, of
    # even size, its second half the exact negation of its first
    with pytest.raises(ValueError, match=message):
        from_sdpa_data(read_sdpa(sdpa_file(tmp_path / "p.dat-s", sizes, lines)))


@pytest.mark.parametrize(
    "factory",
    [
        min_trace_completion_problem,
        rank_one_forcing_problem,
        lambda: build_problem(Linear(), TruncationDegrees(2, 2, 2), InitialData.default()),
    ],
    ids=["min_trace", "rank_one", "linear222"],
)
def test_file_data_roundtrips_through_reconstruction(tmp_path, factory):
    # The reconstruction reads the equality pairs back as the equalities;
    # exporting it again must give the same file data, entry values and
    # order included.
    path = tmp_path / "p.dat-s"
    export_sdpa(factory(), path)
    data = read_sdpa(path)
    again = to_sdpa_data(from_sdpa_data(data))
    assert same_data(again, data)
    for entries in (data.entries, again.entries):
        assert entries.dtype == np.float64
        assert entries.ndim == 2 and entries.shape[1] == 5
        assert np.array_equal(entries[:, :4], np.round(entries[:, :4]))


def test_reversed_file_reads_back_in_writer_order(tmp_path):
    # An unsummed CSR duplicate puts two values at position (1, 1) of the
    # full block; the writer orders them by value.  A file listing the entry
    # lines in reverse order reads back to the writer's array, rows in order.
    block = Block(
        name="full",
        size=2,
        coeffs=sp.csr_matrix(
            (np.array([3.0, -1.0, 2.0]), np.array([0, 0, 1]), np.array([0, 2, 2, 2, 3])),
            shape=(4, 2),
        ),
        const=np.array([1.0, 0.0, 0.0, 1.0]),
    )
    problem = ConicProblem(
        num_vars=2,
        blocks=[block],
        eq_matrix=sp.csr_matrix((0, 2)),
        eq_rhs=np.zeros(0),
        objective=np.array([1.0, 1.0]),
    )
    expected = to_sdpa_data(problem)
    assert np.array_equal(expected.entries[2:4], [(1, 1, 1, 1, -1.0), (1, 1, 1, 1, 3.0)])
    path = tmp_path / "reversed.dat-s"
    write_sdpa_data(expected, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + lines[:3:-1]) + "\n")
    assert same_data(read_sdpa(path), expected)


def sorted_reference(problem):
    """Entry rows as the writer once ordered them: each block's rows from the
    COO of its coefficients, then one lexsort of all rows by matno, blkno, i,
    j and value."""
    parts = [(b.coeffs, b.const, b.size) for b in problem.blocks]
    if problem.num_eq:
        eq, f = problem.eq_matrix, problem.eq_rhs
        parts.append((sp.vstack([eq, -eq], format="csr"), np.concatenate([-f, f]), -2 * len(f)))
    rows = [np.zeros((0, 5))]
    for blkno, (coeffs, const, size) in enumerate(parts, start=1):
        coo = coeffs.tocoo()
        nonzero = np.flatnonzero(const)
        pos = np.concatenate([nonzero, coo.row])
        matno = np.concatenate([np.zeros(len(nonzero)), coo.col + 1])
        value = np.concatenate([-const[nonzero], coo.data])
        i, j = (pos, pos) if size < 0 else np.divmod(pos, size)
        keep = (value != 0.0) & (i <= j)
        block = [matno[keep], np.full(keep.sum(), blkno), i[keep] + 1, j[keep] + 1, value[keep]]
        rows.append(np.column_stack(block))
    entries = np.concatenate(rows)
    return entries[np.lexsort(entries.T[::-1])]


VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0])


def stored_csr(draw, shape):
    """A CSR matrix stored as drawn: column indices in drawn order within a
    row, explicit zeros and unsummed duplicates included."""
    rows, cols = shape
    if not rows or not cols:
        return sp.csr_matrix(shape)
    triples = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), VALUES),
                            max_size=2 * rows * cols))
    triples.sort(key=lambda t: t[0])  # stable: drawn order within a row
    row, col, value = (np.array([t[k] for t in triples], dtype=d) for k, d in enumerate("iid"))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=rows))])
    return sp.csr_matrix((value, col, indptr), shape=shape)


@st.composite
def small_problems(draw):
    n = draw(st.integers(0, 5))
    blocks = []
    for k in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, 4))
        const = np.array(draw(st.lists(VALUES, min_size=size * size, max_size=size * size)))
        blocks.append(Block(name=f"b{k}", size=size, coeffs=stored_csr(draw, (size * size, n)),
                            const=const))
    p = draw(st.integers(0, 3))
    return ConicProblem(
        num_vars=n,
        blocks=blocks,
        eq_matrix=stored_csr(draw, (p, n)),
        eq_rhs=np.array(draw(st.lists(VALUES, min_size=p, max_size=p)), dtype=float),
        objective=np.ones(n),
    )


@settings(max_examples=300, deadline=None)
@given(small_problems())
def test_entries_come_out_in_sorted_order(problem):
    # Block sizes 1-4 with explicit zeros, lower-triangle entries, unsorted
    # CSR indices, unsummed duplicates and zero constants: the entry rows,
    # produced without a sort of all rows, are those of the full sort.
    entries = to_sdpa_data(problem).entries
    expected = sorted_reference(problem)
    assert entries.dtype == expected.dtype and entries.shape == expected.shape
    assert entries.tobytes() == expected.tobytes()


def test_hand_built_block_constants_and_stored_zeros():
    # Full 2x2 block: row-major positions 0..3, with explicitly stored zeros
    # at positions 1 and 3, a constant off the diagonal and a lower-triangle
    # coefficient that the upper-triangle convention drops.  Two equality
    # rows, with a stored zero, become the diagonal block 2 = [E; -E].
    full = Block(
        name="full",
        size=2,
        coeffs=sp.csr_matrix(
            (np.array([2.0, 0.0, 4.0, 0.0, 3.0]), np.array([0, 1, 1, 0, 1]),
             np.array([0, 1, 2, 3, 5])),
            shape=(4, 2),
        ),
        const=np.array([1.0, 0.5, 0.5, 0.0]),
    )
    eq = sp.csr_matrix(
        (np.array([1.0, -1.0, 0.0, -1.5]), np.array([0, 1, 0, 1]), np.array([0, 2, 4])),
        shape=(2, 2),
    )
    problem = ConicProblem(
        num_vars=2,
        blocks=[full],
        eq_matrix=eq,
        eq_rhs=np.array([0.75, -2.0]),
        objective=np.array([1.0, 2.0]),
    )
    data = to_sdpa_data(problem)
    assert data.num_constraints == 2
    assert data.block_sizes == [2, -4]
    assert data.rhs == [1.0, 2.0]
    assert np.array_equal(data.entries, [
        (0, 1, 1, 1, -1.0),
        (0, 1, 1, 2, -0.5),
        (0, 2, 1, 1, 0.75),
        (0, 2, 2, 2, -2.0),
        (0, 2, 3, 3, -0.75),
        (0, 2, 4, 4, 2.0),
        (1, 1, 1, 1, 2.0),
        (1, 2, 1, 1, 1.0),
        (1, 2, 3, 3, -1.0),
        (2, 1, 2, 2, 3.0),
        (2, 2, 1, 1, -1.0),
        (2, 2, 2, 2, -1.5),
        (2, 2, 3, 3, 1.0),
        (2, 2, 4, 4, 1.5),
    ])
    recon = from_sdpa_data(data)
    assert np.array_equal(recon.eq_matrix.toarray(), eq.toarray())
    assert np.array_equal(recon.eq_rhs, problem.eq_rhs)


def per_line_file(data):
    """The file bytes as a per-line formatter renders them: the reference
    for the table writer."""
    head = [
        f"{data.num_constraints}\n{len(data.block_sizes)}\n",
        " ".join(str(s) for s in data.block_sizes) + "\n",
        " ".join(f"{v:.17g}" for v in data.rhs) + "\n",
    ]
    line = "{} {} {} {} {:.17g}\n".format  # matno blkno i j value
    ints = data.entries[:, :4].astype(np.int64).tolist()
    body = [line(*k, v) for k, v in zip(ints, data.entries[:, 4].tolist())]
    return "".join(head + body).encode()


def entry_rows(n, values):
    """n sorted entry rows of one block, indices of one to four digits, with
    ``values`` repeated cyclically."""
    k = np.arange(n)
    return np.column_stack(
        [k // 7, np.ones(n), k % 7 + 1, k % 7 + 1 + k // 11, np.resize(values, n)]
    )


EXTREMES = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            np.inf, -np.inf, np.nan, 1 / 3, -2.5, 1e16, 1e-5]


@pytest.mark.parametrize(
    "data",
    [
        SdpaData(2, [2, -3], [0.0, -0.0], entry_rows(40, [0.0, -0.0, 1.0, -0.0])),
        SdpaData(3, [4], [np.inf, np.nan, 5e-324], entry_rows(44, EXTREMES)),
        # a second chunk whose values all occur in the first
        SdpaData(1, [7], [1.5], entry_rows(_CHUNK + 1001, [0.1, -0.0, 1 / 3, 7.0, 2.0**-1074])),
        SdpaData(0, [1], [], np.zeros((0, 5))),
        SdpaData(2, [1, -1], [1.0, 2.0], np.zeros((0, 5))),
    ],
    ids=["signed-zeros", "extremes", "two-chunks", "empty", "no-entries"],
)
def test_writer_matches_per_line_formatter(tmp_path, data):
    path = tmp_path / "p.dat-s"
    write_sdpa_data(data, path)
    assert path.read_bytes() == per_line_file(data)


def test_writer_memory_does_not_follow_the_largest_index(tmp_path):
    # one table row per index value present: an index of 10**7 costs one
    # row, not a table of 10**7 rows (40 MB even as int32)
    big = 10**7
    data = SdpaData(big, [big], [1.0] * 3, np.array([(1, 1, 1, big, 0.5), (big, 1, big, big, -1.0)]))
    path = tmp_path / "big.dat-s"
    tracemalloc.start()
    try:
        write_sdpa_data(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert path.read_bytes() == per_line_file(data)


@pytest.mark.parametrize(
    "index, shown",
    [(1.5, "1.5"), (np.nan, "nan"), (np.inf, "inf"), (2.0**31, "2147483648"),
     (-(2.0**31) - 1, "-2147483649")],
)
def test_writer_rejects_an_index_that_is_not_a_32_bit_integer(tmp_path, index, shown):
    # the first such entry is named; none is cast to a wrong integer (or,
    # for NaN, with a RuntimeWarning, which this suite turns into an error)
    rows = np.array([(1, 1, 1, 1, 0.5), (1, 1, 1, 2, 0.25), (2, 1, 2, 2, -1.0)])
    rows[1, 2] = rows[2, 3] = index
    path = tmp_path / "bad.dat-s"
    message = rf"entry \(1, 1, {shown}, 2, 0\.25\) has an index"
    with pytest.raises(ValueError, match=message):
        write_sdpa_data(SdpaData(2, [2], [1.0, 1.0], rows), path)
    assert not path.exists()
    rows[1, 2] = rows[2, 3] = 2**31 - 1  # the largest 32-bit index is written
    write_sdpa_data(SdpaData(2, [2], [1.0, 1.0], rows), path)
    assert path.read_bytes() == per_line_file(SdpaData(2, [2], [1.0, 1.0], rows))


def test_solution_file_matches_per_value_formatter(tmp_path):
    x = np.resize([*EXTREMES, 0.0, -0.0], _CHUNK + 500)
    path = tmp_path / "sol.txt"
    write_solution(x, path)
    # bytes, not text: pytest's line diff of a long failing text takes minutes
    assert path.read_bytes() == "".join(f"{float(v):.17g}\n" for v in x).encode()
    write_solution(np.zeros(0), path)
    assert path.read_bytes() == b""


def test_read_solution_skips_blank_lines(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.5\n\n-2.25\n")
    assert np.array_equal(read_solution(path), [1.5, -2.25])


def test_export_matches_recorded_digests(tmp_path, u0):
    # SHA-256 of each exported file, pinned in tests/data: any change to the
    # assembly or the file format shows here.  Update the file only for an
    # intended change of the exported problem.  Harmonic degree 4 and the
    # 41 modes of (2, 2, 20) exercise wide count rows in the moment keys.
    recorded = json.loads((Path(__file__).parent / "data" / "sdpa_digests.json").read_text())
    triples = ((2, 2, 2), (4, 2, 2), (4, 4, 2), (6, 2, 4), (4, 4, 4))
    cases = [(model, triple) for model in MODELS for triple in triples]
    cases.append((Linear(), (2, 2, 20)))
    digests = {}
    for model, triple in cases:
        path = tmp_path / "problem.dat-s"
        problem = build_problem(model, TruncationDegrees(*triple), u0)
        write_sdpa_data(to_sdpa_data(problem), path)
        digests[f"{model!r} {triple}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == recorded
