"""Assembly of the truncated semidefinite relaxation.

Decision variables are the occupation and terminal pseudo-moments; initial
moments are data and enter the equality constraints as constants.  Complex
moments are laid out as (real, imag) slot pairs, with the imaginary slot
dropped for multisets that are invariant under negation (those moments are
forced real by conjugation symmetry).  Terminal moments are independent of
the time degree, so all time degrees alias the ell = 0 slot.

Positive semidefiniteness is imposed on three Hermitian blocks: the
occupation moment matrix, the occupation localizing matrix with weight
t(1-t), and the terminal moment matrix.  Each is described once by a
``BlockSpec``: a name, a measure, a row/column basis and a tuple of
(time shift, sign) terms.  Entry (r, c) is the sum over the terms of
sign * y[ell + shift; freqs], where (ell, freqs) is the entry index of
basis[r] times conjugated basis[c]; the moment blocks have the single term
(0, +1) and the localizer (1, +1), (2, -1), i.e. t - t^2.  The same spec
yields the numeric Hermitian matrix of a moment table and the affine map of
the solver's block, built from the upper triangle with the lower triangle
as its conjugate.  Each Hermitian block H = A + iB is embedded as the real
symmetric block [[A, -B], [B, A]] of doubled size, which has the same
eigenvalues with doubled multiplicity.  The objective is the sum of the
Hermitian traces of the two moment blocks.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def build_layout(deg: TruncationDegrees) -> VariableLayout:
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


MOMENT = ((0, 1),)
LOCALIZER = ((1, 1), (2, -1))  # weight t(1 - t) = t - t^2


@dataclass(frozen=True)
class BlockSpec:
    """One Hermitian PSD block: its basis and the moment terms of an entry."""

    name: str
    measure: MeasureTag
    basis: list[BasisMonomial]
    terms: tuple[tuple[int, int], ...]  # (time shift, sign) per moment

    def upper_terms(self) -> Iterator[tuple[int, int, int, MomentIndex]]:
        """(row, col, sign, moment index) of every term on or above the diagonal."""
        basis = self.basis
        for r, row in enumerate(basis):
            for c in range(r, len(basis)):
                base = entry_index(row, basis[c])
                for shift, sign in self.terms:
                    yield r, c, sign, MomentIndex(base.time_degree + shift, base.freqs)


def block_specs(deg: TruncationDegrees) -> tuple[BlockSpec, BlockSpec, BlockSpec]:
    """Occupation moment, occupation localizing and terminal moment blocks."""
    half_alg = deg.algebraic // 2
    return (
        BlockSpec("occupation_moment", MeasureTag.OCCUPATION, enumerate_matrix_basis(deg), MOMENT),
        BlockSpec(
            "occupation_localizing",
            MeasureTag.OCCUPATION,
            basis_monomials(deg.time // 2 - 1, half_alg, deg.harmonic),
            LOCALIZER,
        ),
        BlockSpec(
            "terminal_moment",
            MeasureTag.TERMINAL,
            basis_monomials(0, half_alg, deg.harmonic),
            MOMENT,
        ),
    )


def _embedded_block(spec: BlockSpec, layout: VariableLayout) -> Block:
    """The spec's block as an affine map into its real embedding."""
    m = len(spec.basis)
    size = 2 * m
    # One complex coefficient gamma per (row, col, slot) of the upper triangle.
    keys: list[tuple[int, int, int]] = []
    gamma: list[complex] = []
    for r, c, sign, idx in spec.upper_terms():
        for var, coeff in layout.entry(spec.measure, idx).items():
            keys.append((r, c, var))
            gamma.append(sign * coeff)
    r, c, var = np.array(keys, dtype=np.int64).T
    gamma = np.array(gamma, dtype=complex)
    low = r < c  # mirrored below the diagonal as the conjugate
    r, c = np.concatenate([r, c[low]]), np.concatenate([c, r[low]])
    var = np.concatenate([var, var[low]])
    gamma = np.concatenate([gamma, gamma[low].conj()])
    # [[A, -B], [B, A]] with H = A + iB
    rows = np.concatenate([r, m + r, r, m + r])
    cols = np.concatenate([c, m + c, m + c, c])
    vals = np.concatenate([gamma.real, gamma.real, -gamma.imag, gamma.imag])
    keep = vals != 0.0
    coeffs = sp.coo_matrix(
        (vals[keep], (rows[keep] * size + cols[keep], np.tile(var, 4)[keep])),
        shape=(size * size, layout.num_vars),
    ).tocsr()
    return Block(name=spec.name, size=size, coeffs=coeffs, const=np.zeros(size * size))


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
    layout = build_layout(deg)
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

    specs = block_specs(deg)
    blocks = [_embedded_block(spec, layout) for spec in specs]

    # Objective: Hermitian traces of the moment blocks, half the traces of
    # their embeddings.
    objective = np.zeros(n)
    for spec, block in zip(specs, blocks):
        if spec.terms == MOMENT:
            diagonal = np.arange(block.size) * (block.size + 1)
            objective += 0.5 * np.asarray(block.coeffs[diagonal].sum(axis=0)).ravel()

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


def hermitian_matrix(spec: BlockSpec, table: MomentTable) -> np.ndarray:
    """Numeric Hermitian matrix of a block spec over one moment table."""
    m = len(spec.basis)
    h = np.zeros((m, m), dtype=complex)
    for r, c, sign, idx in spec.upper_terms():
        h[r, c] += sign * table.get(idx)
    lower = np.tril_indices(m)
    h[lower] = h.T[lower].conj()
    return h


def moment_matrix(table: MomentTable, deg: TruncationDegrees) -> np.ndarray:
    """Numeric Hermitian moment matrix of an occupation (or terminal) table."""
    return hermitian_matrix(block_specs(deg)[0], table)


def localizing_matrix(table: MomentTable, deg: TruncationDegrees) -> np.ndarray:
    """Numeric Hermitian localizing matrix with weight t(1-t)."""
    return hermitian_matrix(block_specs(deg)[1], table)


def terminal_matrix(table: MomentTable, deg: TruncationDegrees) -> np.ndarray:
    """Numeric Hermitian moment matrix of a terminal table (time degree zero)."""
    return hermitian_matrix(block_specs(deg)[2], table)
