"""Assembly of the truncated semidefinite relaxation.

Decision variables are the occupation and terminal pseudo-moments; initial
moments are data and enter the equality constraints as constants.  Complex
moments are laid out as (real, imag) slot pairs, with the imaginary slot
dropped for multisets that are invariant under negation (those moments are
forced real by conjugation symmetry).  Terminal moments are independent of
the time degree, so all time degrees alias the ell = 0 slot.

Positive semidefiniteness is imposed on three Hermitian blocks: the
occupation moment matrix, the occupation localizing matrix with weight
t(1-t), and the terminal moment matrix.  Each Hermitian block H = A + iB is
embedded as the real symmetric block [[A, -B], [B, A]] of doubled size, which
has the same eigenvalues with doubled multiplicity.  The objective is the
sum of the Hermitian traces of the occupation and terminal moment blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .indices import (
    BasisMonomial,
    MomentIndex,
    TruncationDegrees,
    basis_monomials,
    canonicalize,
    enumerate_matrix_basis,
    enumerate_moment_vector,
    entry_index,
    is_canonical,
    is_self_conjugate,
)
from .models import (
    HeatModel,
    InitialData,
    MeasureTag,
    generate_constraints,
    initial_moment,
)
from .tables import MomentTable


@dataclass(frozen=True)
class Slot:
    real: int
    imag: int | None  # None when the moment is forced real


@dataclass
class VariableLayout:
    """Slot assignment for the decision pseudo-moments of one truncation."""

    degrees: TruncationDegrees
    slots: dict[tuple[MeasureTag, MomentIndex], Slot]
    num_vars: int

    def resolve(self, measure: MeasureTag, idx: MomentIndex) -> tuple[Slot, int]:
        """Slot of an arbitrary index plus the conjugation sign of its imag part."""
        if measure is MeasureTag.TERMINAL and idx.time_degree != 0:
            idx = MomentIndex(0, idx.freqs)
        canon = canonicalize(idx)
        slot = self.slots[(measure, canon.index)]
        return slot, (-1 if canon.conjugated else 1)

    def entry(self, measure: MeasureTag, idx: MomentIndex) -> dict[int, complex]:
        """A moment as a complex-linear expression over real slots."""
        slot, sign = self.resolve(measure, idx)
        if slot.imag is None:
            return {slot.real: 1 + 0j}
        return {slot.real: 1 + 0j, slot.imag: 1j * sign}

    def value(self, x: np.ndarray, measure: MeasureTag, idx: MomentIndex) -> complex:
        slot, sign = self.resolve(measure, idx)
        imag = 0.0 if slot.imag is None else sign * x[slot.imag]
        return complex(x[slot.real], imag)


def build_layout(deg: TruncationDegrees, model: HeatModel | None = None) -> VariableLayout:
    """Deterministic slot numbering: occupation moments first, then terminal."""
    slots: dict[tuple[MeasureTag, MomentIndex], Slot] = {}
    counter = 0

    def assign(measure: MeasureTag, idx: MomentIndex) -> None:
        nonlocal counter
        if is_self_conjugate(idx):
            slots[(measure, idx)] = Slot(counter, None)
            counter += 1
        else:
            slots[(measure, idx)] = Slot(counter, counter + 1)
            counter += 2

    for idx in enumerate_moment_vector(deg):
        if is_canonical(idx):
            assign(MeasureTag.OCCUPATION, idx)
    for idx in enumerate_moment_vector(deg):
        if idx.time_degree == 0 and is_canonical(idx):
            assign(MeasureTag.TERMINAL, idx)
    return VariableLayout(degrees=deg, slots=slots, num_vars=counter)


@dataclass
class Block:
    """One PSD cone: an affine map from the variable vector into matrix space.

    ``coeffs @ x + const`` gives the vectorized block; for full blocks that is
    the row-major flattening of a symmetric ``size x size`` matrix, for
    diagonal blocks just the ``size`` diagonal entries.
    """

    name: str
    size: int
    coeffs: sp.csr_matrix  # (vec_dim, num_vars)
    const: np.ndarray  # (vec_dim,)
    diagonal: bool = False
    hermitian_dim: int | None = None  # size // 2 for embedded Hermitian blocks

    @property
    def vec_dim(self) -> int:
        return self.size if self.diagonal else self.size * self.size

    def matrix(self, x: np.ndarray) -> np.ndarray:
        v = self.coeffs @ x + self.const
        if self.diagonal:
            return np.diag(v)
        return v.reshape(self.size, self.size)


@dataclass
class ConicProblem:
    """Real conic program: linear objective, affine equalities, PSD blocks."""

    num_vars: int
    blocks: list[Block]
    eq_matrix: sp.csr_matrix  # (num_eq, num_vars)
    eq_rhs: np.ndarray
    objective: np.ndarray  # dense (num_vars,)
    # one column per equality row, E[:, eq_pivots] nonsingular; None if unknown
    eq_pivots: np.ndarray | None = None
    layout: VariableLayout | None = None
    initial_table: MomentTable | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.eq_matrix.shape != (len(self.eq_rhs), self.num_vars):
            raise ValueError("equality system shape mismatch")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        for block in self.blocks:
            if block.coeffs.shape != (block.vec_dim, self.num_vars):
                raise ValueError(f"block {block.name} coefficient shape mismatch")

    @property
    def num_eq(self) -> int:
        return len(self.eq_rhs)


def hermitian_embedding(h: np.ndarray) -> np.ndarray:
    """Real symmetric [[A, -B], [B, A]] image of a Hermitian matrix A + iB."""
    a, b = h.real, h.imag
    return np.block([[a, -b], [b, a]])


def _embedded_block(
    name: str,
    measure: MeasureTag,
    basis: list[BasisMonomial],
    entry_expr,
    num_vars: int,
) -> Block:
    m = len(basis)
    size = 2 * m
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []

    def put(r: int, c: int, var: int, value: float) -> None:
        if value != 0.0:
            rows.append(r * size + c)
            cols.append(var)
            data.append(value)

    for r, row_mono in enumerate(basis):
        for c, col_mono in enumerate(basis):
            for var, gamma in entry_expr(row_mono, col_mono).items():
                re, im = gamma.real, gamma.imag
                put(r, c, var, re)
                put(m + r, m + c, var, re)
                put(r, m + c, var, -im)
                put(m + r, c, var, im)

    coeffs = sp.coo_matrix(
        (data, (rows, cols)), shape=(size * size, num_vars)
    ).tocsr()
    return Block(
        name=name,
        size=size,
        coeffs=coeffs,
        const=np.zeros(size * size),
        hermitian_dim=m,
    )


MIN_TIME_DEGREE = 2
MIN_ALGEBRAIC_DEGREE = 2


def build_problem(
    model: HeatModel, deg: TruncationDegrees, u0: InitialData
) -> ConicProblem:
    """Assemble the truncated relaxation for one model, truncation and datum."""
    if deg.time < MIN_TIME_DEGREE or deg.algebraic < MIN_ALGEBRAIC_DEGREE:
        raise ValueError(
            f"degrees {deg.as_tuple()} below the minimum "
            f"({MIN_TIME_DEGREE}, {MIN_ALGEBRAIC_DEGREE}, 0) for a relaxation"
        )
    layout = build_layout(deg, model)
    n = layout.num_vars

    # Equalities: real/imag split of the canonical moment constraints, with
    # initial moments substituted as constants.  A row's pivot is the slot its
    # recursion step solves for: the terminal moment of the test index at
    # ell = 0, else the occupation moment (ell - 1, freqs).
    constraints = generate_constraints(model, deg, canonical_only=True)
    eq_rows: list[dict[int, float]] = []
    eq_rhs: list[float] = []
    eq_pivots: list[int] = []
    for constraint in constraints:
        ell = constraint.test_index.time_degree
        row_re: dict[int, float] = {}
        row_im: dict[int, float] = {}
        pivot = None
        const = -constraint.rhs
        for coeff, measure, idx in constraint.terms:
            if measure is MeasureTag.INITIAL:
                const += coeff * initial_moment(u0, idx)
                continue
            entry = layout.entry(measure, idx)
            if idx.time_degree == ell - 1 or (ell == 0 and measure is MeasureTag.TERMINAL):
                pivot = entry
            for var, gamma in entry.items():
                g = coeff * gamma
                if g.real != 0.0:
                    row_re[var] = row_re.get(var, 0.0) + g.real
                if g.imag != 0.0:
                    row_im[var] = row_im.get(var, 0.0) + g.imag
        pivot_slots = iter(pivot or ())  # real slot, then imag slot if any
        for row, rhs_part in ((row_re, -const.real), (row_im, -const.imag)):
            pivot_var = next(pivot_slots, None)
            row = {v: c for v, c in row.items() if c != 0.0}
            if row:
                if pivot_var is None:
                    raise ValueError(
                        f"no pivot slot for a row of the constraint of test "
                        f"index {constraint.test_index}"
                    )
                eq_rows.append(row)
                eq_rhs.append(rhs_part)
                eq_pivots.append(pivot_var)
            elif abs(rhs_part) > 1e-9:
                raise ValueError(
                    f"inconsistent constant constraint from test index "
                    f"{constraint.test_index}: 0 = {rhs_part}"
                )

    eq = sp.lil_matrix((len(eq_rows), n))
    for i, row in enumerate(eq_rows):
        for var, c in row.items():
            eq[i, var] = c

    # PSD blocks.
    occ_basis = enumerate_matrix_basis(deg)
    loc_basis = basis_monomials(deg.time // 2 - 1, deg.algebraic // 2, deg.harmonic)
    term_basis = basis_monomials(0, deg.algebraic // 2, deg.harmonic)

    def occ_entry(row: BasisMonomial, col: BasisMonomial) -> dict[int, complex]:
        return layout.entry(MeasureTag.OCCUPATION, entry_index(row, col))

    def loc_entry(row: BasisMonomial, col: BasisMonomial) -> dict[int, complex]:
        base = entry_index(row, col)
        e1 = layout.entry(
            MeasureTag.OCCUPATION, MomentIndex(base.time_degree + 1, base.freqs)
        )
        e2 = layout.entry(
            MeasureTag.OCCUPATION, MomentIndex(base.time_degree + 2, base.freqs)
        )
        out = dict(e1)
        for var, gamma in e2.items():
            out[var] = out.get(var, 0j) - gamma
        return {var: gamma for var, gamma in out.items() if gamma != 0}

    def term_entry(row: BasisMonomial, col: BasisMonomial) -> dict[int, complex]:
        return layout.entry(MeasureTag.TERMINAL, entry_index(row, col))

    blocks = [
        _embedded_block("occupation_moment", MeasureTag.OCCUPATION, occ_basis, occ_entry, n),
        _embedded_block("occupation_localizing", MeasureTag.OCCUPATION, loc_basis, loc_entry, n),
        _embedded_block("terminal_moment", MeasureTag.TERMINAL, term_basis, term_entry, n),
    ]

    # Objective: Hermitian traces of the occupation and terminal moment blocks.
    objective = np.zeros(n)
    for basis, measure in ((occ_basis, MeasureTag.OCCUPATION), (term_basis, MeasureTag.TERMINAL)):
        for mono in basis:
            slot, _ = layout.resolve(measure, entry_index(mono, mono))
            objective[slot.real] += 1.0

    initial_table = MomentTable.from_function(
        lambda idx: initial_moment(u0, idx), enumerate_moment_vector(deg)
    )
    model_name = type(model).__name__
    return ConicProblem(
        num_vars=n,
        blocks=blocks,
        eq_matrix=eq.tocsr(),
        eq_rhs=np.array(eq_rhs),
        objective=objective,
        eq_pivots=np.array(eq_pivots, dtype=np.int64),
        layout=layout,
        initial_table=initial_table,
        description=f"{model_name} relaxation at degrees {deg.as_tuple()}",
    )


def embed_tables(
    layout: VariableLayout, tables: dict[MeasureTag, MomentTable]
) -> np.ndarray:
    """Write moment tables into a flat variable vector (inverse of extraction)."""
    x = np.zeros(layout.num_vars)
    for (measure, idx), slot in layout.slots.items():
        value = tables[measure].get(idx)
        x[slot.real] = value.real
        if slot.imag is not None:
            x[slot.imag] = value.imag
    return x


def extract_pseudomoments(
    problem: ConicProblem, x: np.ndarray
) -> dict[MeasureTag, MomentTable]:
    """Read per-measure moment tables off a solution vector."""
    layout = problem.layout
    if layout is None:
        raise ValueError("problem carries no variable layout")
    if len(x) != problem.num_vars:
        raise ValueError(
            f"solution vector has {len(x)} entries, problem expects {problem.num_vars}"
        )
    occupation = MomentTable()
    terminal = MomentTable()
    out = {MeasureTag.OCCUPATION: occupation, MeasureTag.TERMINAL: terminal}
    for (measure, idx), slot in layout.slots.items():
        imag = 0.0 if slot.imag is None else x[slot.imag]
        out[measure].set(idx, complex(x[slot.real], imag))
    # Terminal moments alias across time degrees; fill the aliases for lookups
    # that go through plain tables.
    for idx in enumerate_moment_vector(layout.degrees):
        if idx.time_degree > 0 and is_canonical(idx):
            terminal.set(idx, terminal.get(MomentIndex(0, idx.freqs)))
    if problem.initial_table is not None:
        out[MeasureTag.INITIAL] = problem.initial_table
    return out


def _hermitian_from_table(
    table: MomentTable, basis: list[BasisMonomial], entry_fn
) -> np.ndarray:
    m = len(basis)
    h = np.empty((m, m), dtype=complex)
    for r, row_mono in enumerate(basis):
        for c in range(r, m):
            value = entry_fn(row_mono, basis[c])
            h[r, c] = value
            h[c, r] = value.conjugate()
    return h


def moment_matrix(table: MomentTable, deg: TruncationDegrees) -> np.ndarray:
    """Numeric Hermitian moment matrix of an occupation (or terminal) table."""
    basis = enumerate_matrix_basis(deg)
    return _hermitian_from_table(
        table, basis, lambda r, c: table.get(entry_index(r, c))
    )


def localizing_matrix(table: MomentTable, deg: TruncationDegrees) -> np.ndarray:
    """Numeric Hermitian localizing matrix with weight t(1-t)."""
    basis = basis_monomials(deg.time // 2 - 1, deg.algebraic // 2, deg.harmonic)

    def entry(r: BasisMonomial, c: BasisMonomial) -> complex:
        base = entry_index(r, c)
        return table.get(
            MomentIndex(base.time_degree + 1, base.freqs)
        ) - table.get(MomentIndex(base.time_degree + 2, base.freqs))

    return _hermitian_from_table(table, basis, entry)


def terminal_matrix(table: MomentTable, deg: TruncationDegrees) -> np.ndarray:
    """Numeric Hermitian moment matrix of a terminal table (time degree zero)."""
    basis = basis_monomials(0, deg.algebraic // 2, deg.harmonic)
    return _hermitian_from_table(
        table, basis, lambda r, c: table.get(entry_index(r, c))
    )
