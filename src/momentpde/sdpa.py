"""SDPA sparse interchange format (.dat-s) plus plain-text solution files.

The conic problem min c.x s.t. E x = f, (A_b x + d_b) PSD is written in the
standard vector form: the file's constraint count is the number of decision
variables, line 4 carries the objective coefficients, and each PSD block
stores its coefficient matrices F_i (matno i >= 1) and F_0 = -d_b.  The
equalities go last, as the file's one diagonal block: the pairs
E x - f >= 0 and f - E x >= 0, that is A = [E; -E] and d = [-f; f], written
by the same block-to-entries rule.  ``from_sdpa_data`` is the exact inverse
of ``to_sdpa_data``: it reads that block back as E x = f and rejects any
other diagonal block.
The entries stay one float64 array of rows (matno, blkno, i, j, value) from
assembly to file and back; the writer limits the indices to 32 bits, so the
array holds them exactly.
Values are rendered with 17 significant digits so doubles round-trip bit-exactly.

Every number is rendered once per file: the writer keeps one table of the
index values present and one of the distinct floats (by bits, so -0.0 stays
"-0"), and builds the text of a chunk of rows from these byte tables with
numpy.  The objective line and solution files go through the same float
table.  The bytes written are those of the earlier per-line formatter.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .relaxation import Block, ConicProblem

_CHUNK = 65536  # rows written at a time


@dataclass
class SdpaData:
    """Structural content of one .dat-s file.

    ``entries`` is an (N, 5) float64 array of rows (matno, blkno, i, j,
    value), 1-based with i <= j and integer-valued indices, sorted by matno,
    blkno, i, j and then value.
    """

    num_constraints: int
    block_sizes: list[int]  # negative size marks a diagonal block
    rhs: list[float]
    entries: np.ndarray


def _sorted(entries: np.ndarray) -> np.ndarray:
    return entries[np.lexsort(entries.T[::-1])]  # by matno, blkno, i, j, then value


def _block_entries(coeffs: sp.csr_matrix, const: np.ndarray, size: int, blkno: int) -> np.ndarray:
    """Entry rows of one block of SDPA size ``size`` (negative: diagonal, one
    row per diagonal entry): F_0 = -const is matrix 0, the coefficients of
    variable k are matrix k + 1, full blocks keep the upper triangle and zeros
    are dropped."""
    coo = coeffs.tocoo()
    nonzero = np.flatnonzero(const)
    pos = np.concatenate([nonzero, coo.row])
    matno = np.concatenate([np.zeros(len(nonzero)), coo.col + 1])
    value = np.concatenate([-const[nonzero], coo.data])
    i, j = (pos, pos) if size < 0 else np.divmod(pos, size)
    keep = (value != 0.0) & (i <= j)
    matno, i, j, value = matno[keep], i[keep] + 1, j[keep] + 1, value[keep]
    return np.column_stack([matno, np.full(len(value), blkno), i, j, value])


def to_sdpa_data(problem: ConicProblem) -> SdpaData:
    parts = [(b.coeffs, b.const, b.size) for b in problem.blocks]
    if problem.num_eq:  # the equality pairs, last, as a diagonal block
        eq, f, p = problem.eq_matrix, problem.eq_rhs, problem.num_eq
        parts.append((sp.vstack([eq, -eq], format="csr"), np.concatenate([-f, f]), -2 * p))
    sizes = [size for _, _, size in parts]
    if max([problem.num_vars + 1, *map(abs, sizes)]) > np.iinfo(np.int32).max:
        raise ValueError("too many variables or too large a block for 32-bit entry indices")
    rows = (_block_entries(*part, k) for k, part in enumerate(parts, start=1))
    return SdpaData(
        num_constraints=problem.num_vars,
        block_sizes=sizes,
        rhs=[float(v) for v in problem.objective],
        entries=_sorted(np.concatenate([np.zeros((0, 5)), *rows])),
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  np.unique hashes integer arrays, which takes
    several times longer here than one np.sort."""
    s = np.sort(values, axis=None)
    new = np.ones(len(s), dtype=bool)
    new[1:] = s[1:] != s[:-1]
    return s[new]


def _text_table(texts: list[str]) -> np.ndarray:
    """ASCII texts as rows of 8-byte words, padded with zero bytes."""
    width = -(-max(map(len, texts), default=1) // 8) * 8
    return np.array(texts, dtype=f"S{width}").view(np.uint64).reshape(len(texts), width // 8)


# A field of the written rows: its sorted distinct keys, their texts as a
# table (row k is the text of key k), and its values, one per written row
# (1-D) or several adjacent columns per written row (2-D).
_Field = tuple[np.ndarray, np.ndarray, np.ndarray]


def _float_field(values) -> _Field:
    """Each distinct value rendered once, with 17 significant digits and a
    newline.  Values are told apart by their bits, so -0.0 renders as "-0"."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    keys = _distinct(bits)
    return keys, _text_table([f"{v:.17g}\n" for v in keys.view(np.float64).tolist()]), bits


def _join(fields: list[_Field], rows: slice) -> bytes:
    """Text of the given rows: each row's texts of every field, side by side."""
    # column by column, the searches mostly walk up the keys
    parts = [table[np.searchsorted(keys, values[rows].T).T] for keys, table, values in fields]
    words = np.concatenate([p.reshape(len(p), math.prod(p.shape[1:])) for p in parts], axis=1)
    return words.tobytes().translate(None, b"\0")  # drops the padding


def _write_fields(f, fields: list[_Field]) -> None:
    for k in range(0, len(fields[0][2]), _CHUNK):
        f.write(_join(fields, slice(k, k + _CHUNK)))


def write_sdpa_data(data: SdpaData, path: str | Path) -> None:
    columns = data.entries[:, :4]  # matno blkno i j
    keys = _distinct(columns)
    fields = [
        (keys, _text_table([f"{k} " for k in keys.astype(np.int64).tolist()]), columns),
        _float_field(data.entries[:, 4]),
    ]
    objective = _join([_float_field(data.rhs)], slice(None))
    with open(path, "wb") as f:
        f.write(f"{data.num_constraints}\n{len(data.block_sizes)}\n".encode())
        f.write((" ".join(str(s) for s in data.block_sizes) + "\n").encode())
        f.write(objective[:-1].replace(b"\n", b" ") + b"\n")  # one line
        _write_fields(f, fields)


def export_sdpa(problem: ConicProblem, path: str | Path) -> None:
    """Write the problem in SDPA sparse format."""
    write_sdpa_data(to_sdpa_data(problem), path)


# Maps SDPA's optional punctuation {}(), to spaces.  A full ASCII table, not
# str.maketrans: a dict lookup misses on every other character, which made
# reading slower than five str.replace calls.
_PUNCTUATION = "".join(" " if c in "{}()," else c for c in map(chr, range(128)))


def _tokenize(line: str) -> list[str]:
    return line.translate(_PUNCTUATION).split()


def read_sdpa(path: str | Path) -> SdpaData:
    """Parse a .dat-s file back into its structural content."""
    header: list[list[str]] = []
    flat = array("d")  # entry rows, back to back
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("*") or line.startswith('"'):
                continue
            tokens = _tokenize(line)
            if len(header) < 4:
                if not tokens:
                    raise ValueError(f"{path}: empty header line {raw!r}")
                header.append(tokens)
                continue
            try:
                matno, blkno, i, j, value = tokens
                flat.extend((int(matno), int(blkno), int(i), int(j), float(value)))
            except (ValueError, OverflowError):
                raise ValueError(f"{path}: malformed entry line {raw!r}") from None
    if len(header) < 4:
        raise ValueError(f"{path}: incomplete SDPA header")
    try:
        m, nblocks = int(header[0][0]), int(header[1][0])
        sizes = [int(t) for t in header[2]]
        rhs = [float(t) for t in header[3]]
    except ValueError as err:
        raise ValueError(f"{path}: malformed SDPA header: {err}") from None
    if len(sizes) != nblocks:
        raise ValueError(
            f"{path}: block size line has {len(sizes)} entries, expected {nblocks}"
        )
    if 0 in sizes:
        raise ValueError(f"{path}: block size line has a block of size 0")
    if len(rhs) != m:
        raise ValueError(f"{path}: RHS line has {len(rhs)} values, expected {m}")
    if not np.isfinite(rhs).all():
        raise ValueError(f"{path}: RHS line has a non-finite value")
    entries = np.frombuffer(flat).reshape(-1, 5)
    if (e := _first(entries, ~np.isfinite(entries[:, 4]))) is not None:
        raise ValueError(f"{path}: entry {e} has a non-finite value")
    return SdpaData(m, sizes, rhs, _sorted(entries))


def _first(entries: np.ndarray, bad: np.ndarray) -> tuple | None:
    """The first entry row where ``bad`` holds, indices as ints."""
    row = entries[np.flatnonzero(bad)[:1]].tolist()
    return (*map(int, row[0][:4]), row[0][4]) if row else None


def from_sdpa_data(data: SdpaData) -> ConicProblem:
    """Rebuild the conic problem that ``to_sdpa_data`` wrote.

    Each full block comes back as a PSD block.  A diagonal block must be the
    file's last block and an equality pair: of size -2p, with rows p+1..2p
    the exact negation of rows 1..p in every matrix, F_0 included.  Rows
    1..p come back as the equalities E x = f, without pivots, so the solver
    picks them by a weighted matching of rows to columns (see
    ``solver.null_space``).  Any other diagonal block raises ``ValueError``
    naming it.
    """
    n, nblocks = data.num_constraints, len(data.block_sizes)
    matno, blkno, i, j = data.entries[:, :4].T.astype(np.int64)
    value = data.entries[:, 4]
    if (e := _first(data.entries, (blkno < 1) | (blkno > nblocks))) is not None:
        raise ValueError(f"entry {e} names block {e[1]}, but the problem has {nblocks} blocks")
    signed = np.array(data.block_sizes, dtype=np.int64)[blkno - 1]
    size, diagonal = np.abs(signed), signed < 0
    outside = (np.minimum(i, j) < 1) | (np.maximum(i, j) > size)
    if (e := _first(data.entries, outside)) is not None:
        rows = abs(data.block_sizes[e[1] - 1])
        raise ValueError(f"entry {e} has a row or column outside 1..{rows} of block {e[1]}")
    if (e := _first(data.entries, (matno < 0) | (matno > n))) is not None:
        raise ValueError(f"entry {e} names matrix {e[0]}, but the matrices run 0..{n}")
    if (e := _first(data.entries, diagonal & (i != j))) is not None:
        raise ValueError(f"off-diagonal entry ({e[2]},{e[3]}) in diagonal block {e[1]}")
    for b, signed_size in enumerate(data.block_sizes, start=1):
        if signed_size < 0 and (b < nblocks or signed_size % 2):
            why = "is not the last block" if b < nblocks else f"has odd size {-signed_size}"
            raise ValueError(f"diagonal block {b} {why}; only the equality pairs may be diagonal")

    # An off-diagonal entry of a full block also stands for its mirror (j, i),
    # taken right after it so that duplicates sum in entry order.
    take = np.repeat(np.arange(len(value)), np.where(diagonal | (i == j), 1, 2))
    mirror = np.diff(take, prepend=-1) == 0
    i, j = np.where(mirror, j[take], i[take]), np.where(mirror, i[take], j[take])
    matno, blkno, value = matno[take], blkno[take], value[take]
    pos = np.where(diagonal[take], i - 1, (i - 1) * size[take] + (j - 1))

    blocks: list[Block] = []
    eq, f = sp.csr_matrix((0, n)), np.zeros(0)
    for b, signed_size in enumerate(data.block_sizes, start=1):
        vec_dim = -signed_size if signed_size < 0 else signed_size**2
        const = np.zeros(vec_dim)
        f0 = (blkno == b) & (matno == 0)
        np.subtract.at(const, pos[f0], value[f0])  # block constant d = -F_0
        fk = (blkno == b) & (matno > 0)
        coeffs = sp.csr_matrix((value[fk], (pos[fk], matno[fk] - 1)), shape=(vec_dim, n))
        if signed_size > 0:
            blocks.append(Block(name=f"block{b}", size=signed_size, coeffs=coeffs, const=const))
            continue
        p = vec_dim // 2  # rows [E; -E], constants [-f; f]
        eq, f = coeffs[:p], const[p:]
        unpaired = ((eq != -coeffs[p:]).getnnz(axis=1) > 0) | (const[:p] != -f)
        if unpaired.any():
            r = int(np.flatnonzero(unpaired)[0]) + 1
            raise ValueError(
                f"diagonal block {b} is not an equality pair: "
                f"row {p + r} is not the negation of row {r}"
            )
    return ConicProblem(
        num_vars=n,
        blocks=blocks,
        eq_matrix=eq,
        eq_rhs=f,
        objective=np.array(data.rhs),
        description="reconstructed from SDPA file",
    )


def write_solution(x: np.ndarray, path: str | Path) -> None:
    """One variable value per line, problem order."""
    with open(path, "wb") as f:
        _write_fields(f, [_float_field(x)])


def read_solution(path: str | Path) -> np.ndarray:
    """Vector of a ``write_solution`` file, blank lines skipped; a malformed
    value raises ``ValueError`` naming the file and line."""
    values = []
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if line:
                try:
                    values.append(float(line))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {number}: {exc}") from None
    x = np.array(values)
    if not np.isfinite(x).all():
        raise ValueError(f"solution file {path} has a non-finite value")
    return x


def import_solution(path: str | Path, problem: ConicProblem) -> np.ndarray:
    """Read a solution vector and check it against the problem dimensions."""
    x = read_solution(path)
    if len(x) != problem.num_vars:
        raise ValueError(
            f"solution file {path} has {len(x)} values, problem expects "
            f"{problem.num_vars}"
        )
    return x
