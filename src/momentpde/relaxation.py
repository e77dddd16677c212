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
as its conjugate.  The layout stores y[ell; -C] as the conjugate of
y[ell; C], so every block has P H P = conj(H), P the reflection a -> -a of
its basis (Gatermann and Parrilo, J. Pure Appl. Algebra 2004), and the
solver's block is the real symmetric K = V* H V of the basis' size and H's
spectrum, for every model and datum.  V = P conj(V) is e_r at a
self-conjugate row r, and (e_r + e_s)/sqrt(2) at r and i(e_r - e_s)/sqrt(2)
at s for a pair r < s = P r, so K's coefficients are +-1 and +-sqrt(2).
The objective is the sum of the Hermitian traces of the two moment blocks.

Assembly works on integer arrays, not on one ``MomentIndex`` per entry.
The truncation is enumerated once, by ``indices.truncation_counts``: the
layout's moments are its canonical rows (``MomentKeys.truncation``) and
the equations' test indices are its rows.  A mode multiset is a count row
over the modes -h..h, and negating its modes reverses the row, so entry
(r, c) has time degree th_r + th_c + shift and count row
C_r + reversed(C_c).  The moment is conjugated (its value is the
conjugate of the stored representative's) exactly when the reversed row is
larger at the first mode where the row and its reverse differ; this is the
order of ``canonicalize``.  The layout holds each measure's moments as a
``tables.MomentKeys`` in slot order: ``VariableLayout.lookup`` finds slots by
the key search by which a ``MomentTable`` finds values, and extraction,
embedding and ``hermitian_matrix`` are one table lookup each.

The count row of an entry and its conjugation depend only on the multisets
of its row and column, not on their time degrees.  So
``BlockSpec.upper_terms`` canonicalizes each pair of basis multisets once
and describes the terms on and above the diagonal as ``BlockTerms``: per
term its entry, sign, conjugation and the number of its moment among the
block's distinct canonical moments, which are listed once.  Both
``hermitian_matrix`` and ``build_problem`` look up only the distinct
moments and give each term its value or slots by a gather.  Three readers
share a block's terms and slots: ``_real_block``, which builds K in real
arithmetic from one term of each reflection pair (j, k), (Pj, Pk), whose
shares of K are equal; the objective, 1.0 at the real slot of each diagonal
term of a moment block; and ``_dead_face``.  The equality rows use the same
lookup on the count rows of ``MomentEquations``, and the initial table for
their constants.  The pivot of a row, the slot its recursion step solves for,
comes from its test index (ell, C): the terminal moment (0, C) at ell = 0,
else the occupation moment (ell - 1, C).

``build_problem`` also records the dead-mode face, ``ConicProblem.zero_vars``:
the moments that a certificate (see ``_dead_face``) shows to be zero on every
feasible point.  The solver fixes them at 0.0 in its one substitution for
the equalities; the SDPA export and extraction see the whole problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .indices import (
    MomentIndex,
    TruncationDegrees,
    basis_monomials,
    canonical_counts,
    count_freqs,
    enumerate_matrix_basis,
    mode_counts,
)
from .indices import enumerate_moment_vector  # noqa: F401  perfbench/tracing.py patches it
from .models import (
    HeatModel,
    InitialData,
    MeasureTag,
    MomentEquations,
    generate_constraints,
    initial_table,
)
from .tables import MissingMomentError, MomentKeys, MomentTable


@dataclass(frozen=True)
class Slot:
    real: int
    imag: int | None  # None when the moment is forced real


@dataclass
class VariableLayout:
    """Slot assignment for the decision pseudo-moments of one truncation.

    ``moments`` holds, per measure, its canonical moments in slot order with
    the real and imaginary slot of each (imaginary -1 when the moment is
    forced real); ``lookup`` resolves moments through it.
    """

    degrees: TruncationDegrees
    num_vars: int
    moments: dict[MeasureTag, tuple[MomentKeys, np.ndarray, np.ndarray]] = field(repr=False)

    def lookup(
        self, measure: MeasureTag, ell: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real slots, imaginary slots (-1 if forced real) and the sign of the
        imaginary part, -1 where the moment is the conjugate of its slot's."""
        moments, real, imag = self.moments[measure]
        if measure is MeasureTag.TERMINAL:
            ell = np.zeros_like(ell)  # terminal moments alias the ell = 0 slot
        try:
            rows, conjugated = moments.find(ell, counts)
        except MissingMomentError as exc:
            raise ValueError(f"{measure.value} moment {exc.index} has no slot") from None
        return real[rows], imag[rows], np.where(conjugated, -1, 1)

    @cached_property
    def slots(self) -> dict[tuple[MeasureTag, MomentIndex], Slot]:
        """Slot of each (measure, canonical index), built on first read.  The
        package does not read it; the benchmark's checks do, until ROADMAP
        item 1's benchmark-only change moves them to ``lookup`` and retires
        ``slots`` and ``Slot``."""
        out = {}
        for measure, (moments, real, imag) in self.moments.items():
            freqs = count_freqs(moments.counts, self.degrees.harmonic)
            for ell, f, re, im in zip(moments.ell.tolist(), freqs, real.tolist(), imag.tolist()):
                out[(measure, MomentIndex(ell, f))] = Slot(re, None if im < 0 else im)
        return out


def build_layout(deg: TruncationDegrees) -> VariableLayout:
    """Deterministic slot numbering: occupation moments first, then terminal
    (the occupation moments at ell = 0)."""
    occupation = MomentKeys.truncation(deg)
    first = occupation.ell == 0
    terminal = MomentKeys(occupation.ell[first], occupation.counts[first])
    moments = {}
    counter = 0
    for measure, keys in ((MeasureTag.OCCUPATION, occupation), (MeasureTag.TERMINAL, terminal)):
        forced_real = (keys.counts == keys.counts[:, ::-1]).all(axis=1)
        width = np.where(forced_real, 1, 2)
        real = counter + np.cumsum(width) - width
        imag = np.where(forced_real, -1, real + 1)
        counter += int(width.sum())
        moments[measure] = (keys, real, imag)
    return VariableLayout(degrees=deg, num_vars=counter, moments=moments)


@dataclass
class Block:
    """One PSD cone: an affine map from the variable vector into matrix space.

    ``coeffs @ x + const`` gives the row-major flattening of a symmetric
    ``size x size`` matrix.
    """

    name: str
    size: int
    coeffs: sp.csr_matrix  # (vec_dim, num_vars)
    const: np.ndarray  # (vec_dim,)

    @property
    def vec_dim(self) -> int:
        return self.size * self.size

    def matrix(self, x: np.ndarray) -> np.ndarray:
        return (self.coeffs @ x + self.const).reshape(self.size, self.size)


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
    # sorted variables that are zero on every feasible point (the face)
    zero_vars: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        if self.eq_matrix.shape != (len(self.eq_rhs), self.num_vars):
            raise ValueError("equality system shape mismatch")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        for block in self.blocks:
            if block.coeffs.shape != (block.vec_dim, self.num_vars):
                raise ValueError(f"block {block.name} coefficient shape mismatch")
            if block.size < 1:
                raise ValueError(f"block {block.name} has size {block.size}")
        if self.eq_pivots is not None:
            pivots = self.eq_pivots = np.asarray(self.eq_pivots)
            if (
                pivots.shape != (self.num_eq,)
                or pivots.dtype.kind not in "iu"
                or not ((0 <= pivots) & (pivots < self.num_vars)).all()
                or len(np.unique(pivots)) < len(pivots)
            ):
                raise ValueError("eq_pivots must be one distinct column in range per equality row")
        if not len(self.zero_vars):
            return
        zero = self.zero_vars
        if zero[0] < 0 or zero[-1] >= self.num_vars or (np.diff(zero) <= 0).any():
            raise ValueError("zero variables must be sorted, distinct and in range")
        live, dropped = self.face()
        if (self.eq_rhs[dropped] != 0).any():
            raise ValueError("an equality row on zero variables only has a nonzero right-hand side")
        if self.eq_pivots is not None and not live[self.eq_pivots[~dropped]].all():
            raise ValueError("a kept equality row has its pivot among the zero variables")

    @property
    def num_eq(self) -> int:
        return len(self.eq_rhs)

    def face(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the live variables and of the equality rows the face drops:
        those whose every coefficient falls on a zero variable."""
        live = np.ones(self.num_vars, dtype=bool)
        live[self.zero_vars] = False
        weight = abs(self.eq_matrix)
        dropped = (weight @ (~live).astype(float) > 0) & (weight @ live.astype(float) == 0)
        return live, dropped


MOMENT = ((0, 1),)
LOCALIZER = ((1, 1), (2, -1))  # weight t(1 - t) = t - t^2


@dataclass(frozen=True)
class BlockTerms:
    """The terms on and above the diagonal of a block spec, ordered by row,
    then column, then term, over the block's distinct moments.

    Term i adds ``sign[i]`` times moment ``moment[i]``, conjugated where
    ``conjugated[i]``, to entry (``row[i]``, ``col[i]``).  Moment j is the
    canonical moment of time degree ``ell[j]`` and count row ``counts[j]``;
    each is listed once.
    """

    row: np.ndarray
    col: np.ndarray
    sign: np.ndarray
    moment: np.ndarray
    conjugated: np.ndarray
    ell: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class BlockSpec:
    """One Hermitian PSD block: its basis and the moment terms of an entry."""

    name: str
    measure: MeasureTag
    basis: list[MomentIndex]  # time degree: the half degree of t
    terms: tuple[tuple[int, int], ...]  # (time shift, sign) per moment
    harmonic: int  # modes -harmonic..harmonic of the count rows

    def upper_terms(self) -> BlockTerms:
        """The terms on and above the diagonal and their distinct moments.

        The count row C_a + reversed(C_b) of an entry and its conjugation
        depend only on the multisets a, b of its row and column, so each
        pair of basis multisets is canonicalized once; a term's moment is
        then its time degree and its pair's canonical row.
        """
        multisets = {}  # numbered in basis order
        a = np.array(
            [multisets.setdefault(b.freqs, len(multisets)) for b in self.basis], dtype=np.intp
        )
        th = np.array([b.time_degree for b in self.basis], dtype=np.int64)
        counts = mode_counts(list(multisets), self.harmonic)
        n, w = counts.shape
        # pair a * n + b, and the number of its canonical row
        canon, conjugated = canonical_counts(
            (counts[:, None] + counts[None, :, ::-1]).reshape(n * n, w)
        )
        _, first, canon_row = np.unique(
            canon.view(np.dtype((np.void, w))).ravel(),  # one key per row
            return_index=True,
            return_inverse=True,
        )
        r, c = np.triu_indices(len(self.basis))
        shift, sign = np.array(self.terms, dtype=np.int64).T
        k, width = len(self.terms), len(first)
        pair = a[r] * n + a[c]
        # each term's moment as ell * width + canonical row; marking them
        # numbers the distinct ones in that order
        flat = np.add.outer((th[r] + th[c]) * width + canon_row[pair], shift * width).ravel()
        held = np.zeros(int(flat.max(initial=-1)) + 1, dtype=bool)
        held[flat] = True
        ell, row = np.divmod(np.flatnonzero(held), width)
        return BlockTerms(
            row=np.repeat(r, k),
            col=np.repeat(c, k),
            sign=np.tile(sign, len(r)),
            moment=(np.cumsum(held) - 1)[flat],
            conjugated=np.repeat(conjugated[pair], k),
            ell=ell,
            counts=canon[first[row]],
        )


def block_specs(deg: TruncationDegrees) -> tuple[BlockSpec, BlockSpec, BlockSpec]:
    """Occupation moment, occupation localizing and terminal moment blocks."""
    half_alg, h = deg.algebraic // 2, deg.harmonic
    return (
        BlockSpec(
            "occupation_moment", MeasureTag.OCCUPATION, enumerate_matrix_basis(deg), MOMENT, h
        ),
        BlockSpec(
            "occupation_localizing",
            MeasureTag.OCCUPATION,
            basis_monomials(deg.time // 2 - 1, half_alg, h),
            LOCALIZER,
            h,
        ),
        BlockSpec(
            "terminal_moment",
            MeasureTag.TERMINAL,
            basis_monomials(0, half_alg, h),
            MOMENT,
            h,
        ),
    )


def _term_slots(
    layout: VariableLayout, measure: MeasureTag, terms: BlockTerms
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real slot, imaginary slot and imaginary sign of each term; the
    layout looks up each distinct moment once."""
    real, imag, _ = layout.lookup(measure, terms.ell, terms.counts)
    return real[terms.moment], imag[terms.moment], np.where(terms.conjugated, -1, 1)


def _real_block(
    spec: BlockSpec, terms: BlockTerms, slots: tuple[np.ndarray, ...], num_vars: int
) -> Block:
    """The spec's block as an affine map into K = V* H V (module docstring),
    from the terms and their slots in real arithmetic, one pass at a time.

    A term (j, k) and its reflection (Pj, Pk) carry conjugate moments on the
    same slots and put the same real share on the same entries of K, so only
    the term of the smaller entry key j m + k is assembled, at twice its
    value.  The sum is unchanged bit for bit: 2 v is exactly v + v, and
    every coefficient of K is at most two equal shares.  The few entries
    that still receive two shares (passes 3 and 4 of a term with k = Pj)
    are summed by ``tocsr``, which leaves the CSR canonical.
    """
    m = len(spec.basis)
    row = {(b.time_degree, b.freqs): i for i, b in enumerate(spec.basis)}
    mirror = np.array(
        [row[b.time_degree, tuple(-n for n in reversed(b.freqs))] for b in spec.basis]
    )
    # V = W S with S = 1/sqrt(2) on pair columns: row j of W holds 1 at
    # column lo_j = min(j, Pj) and i t_j at hi_j = max(j, Pj), t_j =
    # sign(Pj - j), 0 on a self row.  A term puts h = sign on H[j, k]
    # through its real slot and h = i s, s = sign * conj, through its
    # imaginary slot.  Its share Re(conj(W[j, p]) W[k, q] h) of K[p, q] is
    # sign at (lo_j, lo_k) and t_j t_k sign at (hi_j, hi_k) for the real
    # slot, -t_k s at (lo_j, hi_k) and t_j s at (hi_j, lo_k) for the
    # imaginary one; the conjugate H[k, j] below the diagonal adds the
    # same to K[q, p].
    turn = np.sign(mirror - np.arange(m))
    lo, hi = np.minimum(mirror, np.arange(m)), np.maximum(mirror, np.arange(m))
    # exact: the scale is never a product of rounded square roots
    scale = np.array([1.0, np.sqrt(0.5), 0.5])
    paired = abs(turn)
    # one term per reflection pair; the reflection of (j, k) is upper as
    # (min(Pj, Pk), max(Pj, Pk)), doubled unless it is the term itself
    key, pr, pc = terms.row * m + terms.col, mirror[terms.row], mirror[terms.col]
    twin = np.minimum(pr, pc) * m + np.maximum(pr, pc)
    keep = key <= twin
    r, c = terms.row[keep], terms.col[keep]
    sign = terms.sign[keep] * np.where(key < twin, 2, 1)[keep]
    real, imag, conj = (a[keep] for a in slots)
    has_imag = imag >= 0
    ri, ci, var, s = r[has_imag], c[has_imag], imag[has_imag], (sign * conj)[has_imag]

    def passes():
        yield r, c, real, lo, lo, sign
        yield r, c, real, hi, hi, turn[r] * turn[c] * sign
        yield ri, ci, var, lo, hi, -turn[ci] * s
        yield ri, ci, var, hi, lo, turn[ri] * s

    pos, cols, vals = [], [], []
    for j, k, v, left, right, value in passes():
        keep = value != 0
        j, k, v, value = j[keep], k[keep], v[keep], value[keep]
        p, q, low = left[j], right[k], j < k
        value = value * scale[paired[j] + paired[k]]
        pos += [p * m + q, (q * m + p)[low]]
        cols += [v, v[low]]
        vals += [value, value[low]]
    coeffs = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(pos), np.concatenate(cols))),
        shape=(m * m, num_vars),
    ).tocsr()  # a variable's contributions to one entry are equal: none cancels
    return Block(name=spec.name, size=m, coeffs=coeffs, const=np.zeros(m * m))


def _equalities(
    equations: MomentEquations, layout: VariableLayout, initial: MomentTable
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Equality matrix, right-hand side and pivot slot of each row.

    Each equation gives a real and an imaginary row, dropped when empty;
    initial moments are substituted as constants.  A row's pivot is the slot
    its recursion step solves for: the terminal moment of the test index at
    ell = 0, else the occupation moment (ell - 1, C).
    """
    n, m, h = layout.num_vars, len(equations), layout.degrees.harmonic
    test_ell, test_counts = equations.test_ell, equations.test_counts
    terminal = layout.lookup(MeasureTag.TERMINAL, test_ell, test_counts)
    occupation = layout.lookup(MeasureTag.OCCUPATION, equations.ell, equations.counts)
    # coeff * y with y = x[real] + i conj x[imag]: the real part goes to row
    # 2e and the imaginary part to row 2e + 1 of equation e.  At most a
    # moment and its conjugate share an entry, so their sum is exact.
    row = np.concatenate([np.arange(m), equations.eq])
    coeff = np.concatenate([np.ones(m), equations.coeff])
    real, imag, conj = (np.concatenate(pair) for pair in zip(terminal, occupation))
    has_imag = imag >= 0
    rows = np.concatenate([2 * row, 2 * row[has_imag] + 1])
    cols = np.concatenate([real, imag[has_imag]])
    vals = np.concatenate([coeff, (coeff * conj)[has_imag]])
    eq = sp.csr_matrix((vals, (rows, cols)), shape=(2 * m, n))
    eq.eliminate_zeros()
    nonempty = np.diff(eq.indptr) > 0

    f = initial.lookup(test_ell, test_counts)  # y^0, moved to the right
    rhs = np.column_stack([f.real, f.imag]).ravel()

    # The recursion solves for y^1[0; C] at ell = 0, else for y[ell - 1; C].
    back = layout.lookup(MeasureTag.OCCUPATION, np.maximum(test_ell - 1, 0), test_counts)
    pivots = np.where(test_ell > 0, back[:2], terminal[:2]).T.ravel()
    at_pivot = np.asarray(eq[np.arange(2 * m), np.maximum(pivots, 0)]).ravel()

    no_pivot = nonempty & ((pivots < 0) | (at_pivot == 0))
    inconsistent = ~nonempty & (np.abs(rhs) > 1e-9)
    bad = np.flatnonzero(no_pivot | inconsistent)
    if len(bad):
        j = bad[0]
        (freqs,) = count_freqs(test_counts[j // 2 : j // 2 + 1], h)
        test = MomentIndex(int(test_ell[j // 2]), freqs)
        if no_pivot[j]:
            raise ValueError(f"no pivot slot for a row of the constraint of test index {test}")
        raise ValueError(
            f"inconsistent constant constraint from test index {test}: 0 = {rhs[j]}"
        )
    return eq[nonempty], rhs[nonempty], pivots[nonempty]


def _dead_face(
    equations: MomentEquations,
    moment_blocks: list[tuple[BlockTerms, tuple[np.ndarray, ...]]],
    u0: InitialData,
    num_vars: int,
) -> np.ndarray:
    """Variables zero on every feasible point: the entries of the moment-block
    rows certified zero because their monomial holds a dead mode, a mode k
    with u_k(0) = 0.  ``moment_blocks`` holds the upper terms of each moment
    block with their slots.

    Row (th, a) of a moment block has the diagonal entry y[2th; C] with
    C = a + reversed(a), or y^1[0; C] in the terminal block.  C holds a dead
    mode when a does, and for conjugate-symmetric data only then; the rest
    needs only the dead mode k of C.  Call the equation of test index
    (ell, C) clean when every occupation term sits on the count row C.  The
    initial moments of C vanish, as C holds k, so the clean equations read
    y^1[0; C] - ell y[ell - 1; C] + c y[ell; C] = 0 with c = sum n^2 over C.
    Take c > 0.  At ell = 0 both terms are diagonal entries of PSD blocks,
    so y^1[0; C] = y[0; C] = 0, and the equations at ell = 1, 2, ... then
    zero y[ell; C] in turn.  A row is certified when the clean equations
    reach the time degree of its diagonal, and a PSD block with a zero
    diagonal entry has a zero row and column.  Rows of the mode 0 alone
    (c = 0) are left alone: their chain stops one time degree short, and
    their face would leave kept equality rows without their pivots.  The
    localizer's rows are not certified here: their entries are differences
    of moments of certified moment-block rows.
    """
    h = equations.harmonic
    modes = np.arange(-h, h + 1)
    dead = np.array([u0.coeff(k) == 0 for k in modes.tolist()])
    off_row = (equations.counts != equations.test_counts[equations.eq]).any(axis=1)
    clean = np.bincount(equations.eq[off_row], minlength=len(equations)) == 0
    known = MomentKeys(equations.test_ell[clean], equations.test_counts[clean])
    zero = np.zeros(num_vars, dtype=bool)
    for terms, (real, imag, _) in moment_blocks:
        # one term per entry, so the diagonal terms come in row order; their
        # time degree 2 th is the last one the certificate needs
        r, c = terms.row, terms.col
        moment = terms.moment[r == c]
        top, diagonal = terms.ell[moment], terms.counts[moment]
        certified = (diagonal[:, dead] > 0).any(axis=1) & (diagonal @ modes**2 > 0)
        for t in range(int(top.max()) + 1):
            certified &= known.contains(np.full(len(top), t), diagonal) | (t > top)
        touched = certified[r] | certified[c]
        zero[real[touched]] = True
        zero[imag[touched & (imag >= 0)]] = True
    return np.flatnonzero(zero)


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
    equations = generate_constraints(model, deg, canonical_only=True)
    initial = initial_table(u0, deg)
    eq, eq_rhs, eq_pivots = _equalities(equations, layout, initial)

    specs = block_specs(deg)
    terms = [spec.upper_terms() for spec in specs]
    slots = [_term_slots(layout, spec.measure, t) for spec, t in zip(specs, terms)]
    blocks = [_real_block(*args, n) for args in zip(specs, terms, slots)]
    moment_blocks = [(t, s) for spec, t, s in zip(specs, terms, slots) if spec.terms == MOMENT]

    # Objective: the Hermitian traces of the moment blocks, 1.0 at the real
    # slot of each diagonal term.
    objective = np.zeros(n)
    for t, (real, *_) in moment_blocks:
        np.add.at(objective, real[t.row == t.col], 1.0)

    model_name = type(model).__name__
    return ConicProblem(
        num_vars=n,
        blocks=blocks,
        eq_matrix=eq,
        eq_rhs=eq_rhs,
        objective=objective,
        eq_pivots=eq_pivots,
        layout=layout,
        initial_table=initial,
        description=f"{model_name} relaxation at degrees {deg.as_tuple()}",
        zero_vars=_dead_face(equations, moment_blocks, u0, n),
    )


def embed_tables(
    layout: VariableLayout, tables: dict[MeasureTag, MomentTable]
) -> np.ndarray:
    """Write moment tables into a flat variable vector (inverse of extraction)."""
    x = np.zeros(layout.num_vars)
    for measure, (moments, real, imag) in layout.moments.items():
        values = tables[measure].lookup(moments.ell, moments.counts)
        has_imag = imag >= 0
        x[real] = values.real
        x[imag[has_imag]] = values.imag[has_imag]
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
    out = {}
    for measure, (moments, real, imag) in layout.moments.items():
        has_imag = imag >= 0
        values = np.zeros(len(moments), dtype=complex)
        values.real = x[real]
        values.imag[has_imag] = x[imag[has_imag]]
        if measure is MeasureTag.TERMINAL:
            # Terminal moments alias across time degrees: the table repeats
            # the ell = 0 rows at ell = 1..T, which are the occupation keys.
            moments = layout.moments[MeasureTag.OCCUPATION][0]
            values = np.tile(values, layout.degrees.time + 1)
        out[measure] = MomentTable(moments, values)
    if problem.initial_table is not None:
        out[MeasureTag.INITIAL] = problem.initial_table
    return out


def hermitian_matrix(spec: BlockSpec, table: MomentTable) -> np.ndarray:
    """Numeric Hermitian matrix of a block spec over one moment table."""
    m = len(spec.basis)
    h = np.zeros((m, m), dtype=complex)
    terms = spec.upper_terms()
    values = table.lookup(terms.ell, terms.counts)[terms.moment]
    values = np.where(terms.conjugated, values.conj(), values)
    np.add.at(h, (terms.row, terms.col), terms.sign * values)
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
