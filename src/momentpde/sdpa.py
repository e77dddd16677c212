"""SDPA sparse interchange format (.dat-s) plus plain-text solution files.

The conic problem min c.x s.t. E x = f, (A_b x + d_b) PSD is written in the
standard vector form: the file's constraint count is the number of decision
variables, line 4 carries the objective coefficients, each PSD block stores
the per-variable coefficient matrices F_i (matno i >= 1) and the constant
matrix F_0 = -d_b, and the equality rows become one diagonal block holding
the pairs (E x - f >= 0, f - E x >= 0).  Values are rendered with 17
significant digits so doubles round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .relaxation import Block, ConicProblem

Entry = tuple[int, int, int, int, float]  # matno, blkno, i, j, value (1-based, i <= j)


@dataclass
class SdpaData:
    """Structural content of one .dat-s file."""

    num_constraints: int
    block_sizes: list[int]  # negative size marks a diagonal block
    rhs: list[float]
    entries: list[Entry]  # sorted by (matno, blkno, i, j)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def to_sdpa_data(problem: ConicProblem) -> SdpaData:
    entries: list[Entry] = []
    sizes: list[int] = []

    for blkno, block in enumerate(problem.blocks, start=1):
        sizes.append(-block.size if block.diagonal else block.size)
        coo = block.coeffs.tocoo()
        for p, var, val in zip(coo.row, coo.col, coo.data):
            if val == 0.0:
                continue
            if block.diagonal:
                r = c = int(p)
            else:
                r, c = divmod(int(p), block.size)
                if r > c:
                    continue
            entries.append((int(var) + 1, blkno, r + 1, c + 1, float(val)))
        for p, val in enumerate(block.const):
            if val == 0.0:
                continue
            if block.diagonal:
                r = c = p
            else:
                r, c = divmod(p, block.size)
                if r > c:
                    continue
            entries.append((0, blkno, r + 1, c + 1, -float(val)))

    num_eq = problem.num_eq
    if num_eq:
        blkno = len(problem.blocks) + 1
        sizes.append(-2 * num_eq)
        eq = problem.eq_matrix.tocoo()
        for r, var, val in zip(eq.row, eq.col, eq.data):
            if val == 0.0:
                continue
            entries.append((int(var) + 1, blkno, int(r) + 1, int(r) + 1, float(val)))
            entries.append(
                (int(var) + 1, blkno, num_eq + int(r) + 1, num_eq + int(r) + 1, -float(val))
            )
        for r, val in enumerate(problem.eq_rhs):
            if val == 0.0:
                continue
            entries.append((0, blkno, r + 1, r + 1, float(val)))
            entries.append((0, blkno, num_eq + r + 1, num_eq + r + 1, -float(val)))

    entries.sort()
    return SdpaData(
        num_constraints=problem.num_vars,
        block_sizes=sizes,
        rhs=[float(v) for v in problem.objective],
        entries=entries,
    )


def write_sdpa_data(data: SdpaData, path: str | Path) -> None:
    with open(path, "w") as f:
        f.write(f"{data.num_constraints}\n")
        f.write(f"{len(data.block_sizes)}\n")
        f.write(" ".join(str(s) for s in data.block_sizes) + "\n")
        f.write(" ".join(_fmt(v) for v in data.rhs) + "\n")
        for matno, blkno, i, j, value in data.entries:
            f.write(f"{matno} {blkno} {i} {j} {_fmt(value)}\n")


def export_sdpa(problem: ConicProblem, path: str | Path) -> None:
    """Write the problem in SDPA sparse format."""
    write_sdpa_data(to_sdpa_data(problem), path)


def _tokenize(line: str) -> list[str]:
    for ch in "{}(),":
        line = line.replace(ch, " ")
    return line.split()


def read_sdpa(path: str | Path) -> SdpaData:
    """Parse a .dat-s file back into its structural content."""
    header: list[list[str]] = []
    entries: list[Entry] = []
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("*") or line.startswith('"'):
                continue
            tokens = _tokenize(line)
            if len(header) < 4:
                header.append(tokens)
                continue
            if len(tokens) != 5:
                raise ValueError(f"{path}: malformed entry line {raw!r}")
            matno, blkno, i, j = (int(t) for t in tokens[:4])
            entries.append((matno, blkno, i, j, float(tokens[4])))
    if len(header) < 4:
        raise ValueError(f"{path}: incomplete SDPA header")
    m = int(header[0][0])
    nblocks = int(header[1][0])
    sizes = [int(t) for t in header[2]]
    if len(sizes) != nblocks:
        raise ValueError(
            f"{path}: block size line has {len(sizes)} entries, expected {nblocks}"
        )
    rhs = [float(t) for t in header[3]]
    if len(rhs) != m:
        raise ValueError(f"{path}: RHS line has {len(rhs)} values, expected {m}")
    entries.sort()
    return SdpaData(m, sizes, rhs, entries)


def from_sdpa_data(data: SdpaData) -> ConicProblem:
    """Rebuild a conic problem from file data (equalities stay inequality pairs)."""
    n = data.num_constraints
    per_block: dict[int, list[Entry]] = {}
    for entry in data.entries:
        if not 1 <= entry[1] <= len(data.block_sizes):
            raise ValueError(
                f"entry {entry} names block {entry[1]}, but the problem has "
                f"{len(data.block_sizes)} blocks"
            )
        per_block.setdefault(entry[1], []).append(entry)

    blocks: list[Block] = []
    for blkno, signed in enumerate(data.block_sizes, start=1):
        diagonal = signed < 0
        size = abs(signed)
        vec_dim = size if diagonal else size * size
        const = np.zeros(vec_dim)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def positions(i: int, j: int) -> list[int]:
            if diagonal:
                if i != j:
                    raise ValueError(f"off-diagonal entry ({i},{j}) in diagonal block {blkno}")
                return [i - 1]
            if i == j:
                return [(i - 1) * size + (j - 1)]
            return [(i - 1) * size + (j - 1), (j - 1) * size + (i - 1)]

        for matno, _, i, j, value in per_block.get(blkno, []):
            for p in positions(i, j):
                if matno == 0:
                    const[p] -= value  # block constant d = -F_0
                else:
                    rows.append(p)
                    cols.append(matno - 1)
                    vals.append(value)
        coeffs = sp.coo_matrix((vals, (rows, cols)), shape=(vec_dim, n)).tocsr()
        blocks.append(
            Block(
                name=f"block{blkno}",
                size=size,
                coeffs=coeffs,
                const=const,
                diagonal=diagonal,
            )
        )
    return ConicProblem(
        num_vars=n,
        blocks=blocks,
        eq_matrix=sp.csr_matrix((0, n)),
        eq_rhs=np.zeros(0),
        objective=np.array(data.rhs),
        description="reconstructed from SDPA file",
    )


def write_solution(x: np.ndarray, path: str | Path) -> None:
    """One variable value per line, problem order."""
    with open(path, "w") as f:
        for v in x:
            f.write(_fmt(float(v)) + "\n")


def read_solution(path: str | Path) -> np.ndarray:
    values = []
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if line:
                values.append(float(line))
    return np.array(values)


def import_solution(path: str | Path, problem: ConicProblem) -> np.ndarray:
    """Read a solution vector and check it against the problem dimensions."""
    x = read_solution(path)
    if len(x) != problem.num_vars:
        raise ValueError(
            f"solution file {path} has {len(x)} values, problem expects "
            f"{problem.num_vars}"
        )
    return x
