"""Heat-type evolution models on the torus and their linear moment equations.

Three right-hand sides are supported: the plain heat operator, the heat
operator plus a distributed quadratic forcing (a product of two averaged
cosine modes entering the constant Fourier mode), and the heat operator plus
a pointwise quadratic term whose Fourier image is a convolution.

For each test index (ell, n_1..n_k) inside a truncation, integrating the time
derivative of t^ell * h_{n_1}(t)...h_{n_k}(t) along a trajectory yields one
scalar linear equation tying initial, terminal and occupation moments:

    y^1 - y^0 = ell*y[ell-1, n] - (sum_j n_j^2)*y[ell, n] + eps*(model terms)

with the ell-term absent for ell = 0.  ``generate_constraints`` returns the
equations of a truncation as one ``MomentEquations`` of count-row arrays.
Equation e reads y^1[ell; C] - y^0[ell; C] + sum_k coeff_k*y[ell_k; C_k] = 0:
its terminal and initial terms are implied by its test index (ell, C), and
only the occupation terms are stored, so there is no right-hand side.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .indices import TruncationDegrees, canonical_counts, count_freqs, truncation_counts
from .indices import enumerate_moment_vector  # noqa: F401  perfbench/tracing.py patches it
from .tables import MissingMomentError, MomentKeys, MomentTable


class MeasureTag(enum.Enum):
    INITIAL = "initial"
    TERMINAL = "terminal"
    OCCUPATION = "occupation"


@dataclass(frozen=True)
class Linear:
    """Pure heat flow: du/dt = u_xx."""

    epsilon: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class DistributedQuadratic:
    """Heat flow forced by eps * <u, f1> <u, f2> * 1 with f_i the m_i-th cosine pair.

    Only the constant Fourier mode feels the forcing; the moment equations
    pick up the four sign combinations of (+-m1, +-m2).
    """

    epsilon: float
    m1: int = 1
    m2: int = 1

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError(f"mode numbers must be positive, got ({self.m1}, {self.m2})")


@dataclass(frozen=True)
class LocalQuadratic:
    """Heat flow with pointwise quadratic term: du/dt = u_xx + eps * u^2."""

    epsilon: float


HeatModel = Union[Linear, DistributedQuadratic, LocalQuadratic]


@dataclass
class InitialData:
    """Finitely many nonzero Fourier coefficients of a real initial function."""

    coeffs: dict[int, complex]

    def __post_init__(self) -> None:
        self.coeffs = {n: complex(v) for n, v in self.coeffs.items() if v != 0}
        for n, v in self.coeffs.items():
            if not cmath.isfinite(v):
                raise ValueError(f"initial coefficient at mode {n} is not finite: {v}")
            mirror = self.coeffs.get(-n, 0j)
            if abs(mirror - v.conjugate()) > 1e-12 * max(abs(v), abs(mirror)):
                raise ValueError(
                    f"initial data is not conjugate-symmetric at mode {n}: "
                    f"u[{-n}]={mirror} vs conj(u[{n}])={v.conjugate()}"
                )

    def coeff(self, n: int) -> complex:
        return self.coeffs.get(n, 0j)

    def product(self, freqs: tuple[int, ...]) -> complex:
        """Product of the coefficients at ``freqs``; 1 for no modes."""
        value = 1 + 0j
        for n in freqs:
            value *= self.coeff(n)
            if value == 0:
                return 0j
        return value

    @property
    def max_mode(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    @classmethod
    def default(cls) -> "InitialData":
        """Three-mode data u_{-1,0,1}(0) = (1,1,1) used throughout the tests."""
        return cls({-1: 1.0, 0: 1.0, 1: 1.0})


def initial_table(u0: InitialData, deg: TruncationDegrees) -> MomentTable:
    """Table of the initial Dirac on ``MomentKeys.truncation(deg)``: the
    coefficient product of each multiset at ell = 0, and 0 above."""
    keys = MomentKeys.truncation(deg)
    first = keys.counts[keys.ell == 0]
    values = np.zeros(len(keys), dtype=complex)
    values[: len(first)] = [u0.product(freqs) for freqs in count_freqs(first, deg.harmonic)]
    return MomentTable(keys, values)


@dataclass(frozen=True, eq=False)
class MomentEquations:
    """The moment equations of a truncation as count-row arrays.

    Equation e has the test index (``test_ell[e]``, ``test_counts[e]``);
    occupation term k belongs to equation ``eq[k]`` and contributes
    ``coeff[k] * y[ell[k]; counts[k]]``.  Count rows are int8 over the modes
    -harmonic..harmonic.  Terms of one equation are contiguous, in the order
    of their first occurrence.
    """

    harmonic: int
    test_ell: np.ndarray
    test_counts: np.ndarray
    eq: np.ndarray
    coeff: np.ndarray
    ell: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.test_ell)


def _moved(counts: np.ndarray, h: int, remove: np.ndarray | int, *add: np.ndarray) -> np.ndarray:
    """Count rows with one copy of mode ``remove`` taken out and ``add`` put in."""
    rows = counts.copy()
    i = np.arange(len(rows))
    rows[i, remove + h] -= 1
    for mode in add:
        rows[i, mode + h] += 1
    return rows


def generate_constraints(
    model: HeatModel, deg: TruncationDegrees, *, canonical_only: bool = False
) -> MomentEquations:
    """One equation per admissible test index of the truncation.

    Test indices whose model terms would reference moments outside the
    truncation are dropped (a clipped equation would be wrong, a dropped one
    is merely absent).  With ``canonical_only`` set, only one representative
    per conjugate pair of test indices is kept; the omitted ones give the
    conjugates of kept equations and carry no extra information.
    """
    h, eps = deg.harmonic, model.epsilon
    if isinstance(model, DistributedQuadratic):
        if model.m1 > h or model.m2 > h:
            raise ValueError(
                f"forcing modes ({model.m1}, {model.m2}) exceed harmonic degree {h}"
            )
    ell, counts = truncation_counts(deg)
    keep = ~canonical_counts(counts)[1] if canonical_only else np.ones(len(ell), bool)
    k = counts.sum(axis=1)
    distributed = isinstance(model, DistributedQuadratic) and eps != 0
    local = isinstance(model, LocalQuadratic) and eps != 0
    if distributed:  # the terms of a zero mode need one more mode
        keep &= (k < deg.algebraic) | (counts[:, h] == 0)
    elif local:  # the terms of every mode need one more mode
        keep &= (k < deg.algebraic) | (k == 0)
    ell, counts = ell[keep], counts[keep]

    # Terms (equation, coefficient, ell, count row): -ell y[ell-1; C] and
    # (sum n^2) y[ell; C], then -eps per model term and mode occurrence.
    modes = np.arange(-h, h + 1)
    n_sq = counts.astype(np.int64) @ (modes * modes)
    later, moving = np.flatnonzero(ell > 0), np.flatnonzero(n_sq)
    parts = [
        (later, -ell[later], ell[later] - 1, counts[later]),
        (moving, n_sq[moving], ell[moving], counts[moving]),
    ]
    occ_eq = np.repeat(np.repeat(np.arange(len(ell)), len(modes)), counts.ravel())
    occ_mode = np.repeat(np.tile(modes, len(ell)), counts.ravel())
    if distributed:  # (+-m1, +-m2) per zero mode
        zeros = occ_eq[occ_mode == 0]
        m1, m2 = model.m1, model.m2
        s1, s2 = np.tile([[m1, m1, -m1, -m1], [m2, -m2, m2, -m2]], len(zeros))
        eq = np.repeat(zeros, 4)
        parts.append((eq, np.full(len(eq), -eps), ell[eq], _moved(counts[eq], h, 0, s1, s2)))
    elif local:  # (m, n - m) per mode n, with both modes inside -h..h
        width = 2 * h + 1 - np.abs(occ_mode)
        eq, n = np.repeat(occ_eq, width), np.repeat(occ_mode, width)
        start = np.repeat(np.cumsum(width) - width, width)
        m = np.maximum(-h, n - h) + np.arange(len(eq)) - start
        parts.append((eq, np.full(len(eq), -eps), ell[eq], _moved(counts[eq], h, n, m, n - m)))

    eq, coeff, term_ell, term_counts = (np.concatenate(column) for column in zip(*parts))
    # A moment repeated within an equation keeps its first place; its
    # coefficients are summed in occurrence order.  The terms are grouped by
    # (equation, ell, count row) with a stable sort whose keys are the
    # equation, ell and the count row's bytes zero-padded to whole 64-bit
    # words: exact at any width, and each group's first occurrence leads it.
    rows = np.zeros((len(eq), -(-(2 * h + 1) // 8) * 8), dtype=np.int8)
    rows[:, : 2 * h + 1] = term_counts
    keys = np.column_stack([eq, term_ell, rows.view(np.int64)])
    order = np.lexsort(keys.T[::-1])  # the equation is the primary key
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    first = order[new]
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    total = np.bincount(group, weights=coeff)
    place = np.lexsort((first, eq[first]))  # by equation, then by first occurrence
    first, total = first[place], total[place]
    first, total = first[total != 0], total[total != 0]
    return MomentEquations(h, ell, counts, eq[first], total, term_ell[first], term_counts[first])


def constraint_residual(
    equations: MomentEquations, tables: Mapping[MeasureTag, MomentTable]
) -> float:
    """Max absolute violation of the equations by the given moment tables."""

    def values(measure: MeasureTag, ell: np.ndarray, counts: np.ndarray) -> np.ndarray:
        try:
            return tables[measure].lookup(ell, counts)
        except MissingMomentError as exc:
            raise MissingMomentError(exc.index, measure=measure.value) from None

    test = (equations.test_ell, equations.test_counts)
    residual = values(MeasureTag.TERMINAL, *test) - values(MeasureTag.INITIAL, *test)
    occupation = values(MeasureTag.OCCUPATION, equations.ell, equations.counts)
    np.add.at(residual, equations.eq, equations.coeff * occupation)
    return float(np.abs(residual).max(initial=0.0))
