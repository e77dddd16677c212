import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from momentpde.indices import TruncationDegrees
from momentpde.models import InitialData, Linear
from momentpde.relaxation import Block, ConicProblem, build_problem, extract_pseudomoments
from momentpde.sdpa import (
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
    problem = factory()
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    recon = from_sdpa_data(read_sdpa(path))
    _, direct = solve(problem)
    _, from_file = solve(recon)
    assert from_file.primal_objective == pytest.approx(
        direct.primal_objective, rel=1e-5, abs=1e-6
    )


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
    # the file's equalities become the block constants [-f; f]: same start
    assert from_file.penalty_start == direct.penalty_start


def test_reconstructed_heat_solve_matches_interior_point(tmp_path, u0, deg222):
    cp = pytest.importorskip("cvxpy")
    problem = build_problem(Linear(), deg222, u0)
    path = tmp_path / "heat.dat-s"
    export_sdpa(problem, path)
    recon = from_sdpa_data(read_sdpa(path))
    x = cp.Variable(recon.num_vars)
    constraints = []
    for block in recon.blocks:
        expr = block.coeffs @ x + block.const
        if block.diagonal:
            constraints.append(expr >= 0)
        else:
            constraints.append(
                cp.reshape(expr, (block.size, block.size), order="C") >> 0
            )
    cvx = cp.Problem(cp.Minimize(recon.objective @ x), constraints)
    cvx.solve(solver=cp.CLARABEL)
    _, direct = solve(problem)
    assert cvx.value == pytest.approx(direct.primal_objective, rel=1e-5)


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
    # The reconstruction turns the equality pairs into a diagonal block with
    # nonzero constants; exporting it again must give the same file data,
    # entry values and order included.
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


def test_hand_built_block_constants_and_stored_zeros():
    # Full 2x2 block: row-major positions 0..3, with explicitly stored zeros
    # at positions 1 and 3, a constant off the diagonal and a lower-triangle
    # coefficient that the upper-triangle convention drops.  Diagonal 3x3
    # block: a nonzero constant and a stored zero.  One equality row.
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
    diag = Block(
        name="diag",
        size=3,
        coeffs=sp.csr_matrix(
            (np.array([0.0, -1.5]), np.array([0, 1]), np.array([0, 1, 1, 2])),
            shape=(3, 2),
        ),
        const=np.array([0.0, -2.0, 0.25]),
        diagonal=True,
    )
    problem = ConicProblem(
        num_vars=2,
        blocks=[full, diag],
        eq_matrix=sp.csr_matrix(np.array([[1.0, -1.0]])),
        eq_rhs=np.array([0.75]),
        objective=np.array([1.0, 2.0]),
    )
    data = to_sdpa_data(problem)
    assert data.num_constraints == 2
    assert data.block_sizes == [2, -3, -2]
    assert data.rhs == [1.0, 2.0]
    assert np.array_equal(data.entries, [
        (0, 1, 1, 1, -1.0),
        (0, 1, 1, 2, -0.5),
        (0, 2, 2, 2, 2.0),
        (0, 2, 3, 3, -0.25),
        (0, 3, 1, 1, 0.75),
        (0, 3, 2, 2, -0.75),
        (1, 1, 1, 1, 2.0),
        (1, 3, 1, 1, 1.0),
        (1, 3, 2, 2, -1.0),
        (2, 1, 2, 2, 3.0),
        (2, 2, 3, 3, -1.5),
        (2, 3, 1, 1, -1.0),
        (2, 3, 2, 2, 1.0),
    ])


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
