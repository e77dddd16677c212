"""Heat-type evolution models on the torus and their linear moment equations.

Three right-hand sides are supported: the plain heat operator, the heat
operator plus a distributed quadratic forcing (a product of two averaged
cosine modes entering the constant Fourier mode), and the heat operator plus
a pointwise quadratic term whose Fourier image is a convolution.

For each test index (ell, n_1..n_k) inside a truncation, integrating the time
derivative of t^ell * h_{n_1}(t)...h_{n_k}(t) along a trajectory yields one
scalar linear equation tying initial, terminal and occupation moments:

    y^1 - y^0 = ell*y[ell-1, n] - (sum_j n_j^2)*y[ell, n] + eps*(model terms)

with the ell-term absent for ell = 0.  Constraints are stored in residual
form (all terms moved left, rhs constant on the right).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Union

from .indices import (
    MomentIndex,
    TruncationDegrees,
    enumerate_moment_vector,
    is_canonical,
)
from .tables import MissingMomentError, MomentTable


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
            mirror = self.coeffs.get(-n, 0j)
            if abs(mirror - v.conjugate()) > 1e-12 * max(1.0, abs(v)):
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


def initial_moment(u0: InitialData, idx: MomentIndex) -> complex:
    """Moment of the initial Dirac: zero for ell > 0, else the coefficient product."""
    return 0j if idx.time_degree > 0 else u0.product(idx.freqs)


@dataclass(frozen=True)
class LinearConstraint:
    """One scalar complex-linear equation over moments of the three measures."""

    terms: tuple[tuple[complex, MeasureTag, MomentIndex], ...]
    rhs: complex = 0j
    test_index: MomentIndex | None = None

    def residual(self, tables: Mapping[MeasureTag, MomentTable]) -> complex:
        total = -self.rhs
        for coeff, measure, idx in self.terms:
            try:
                total += coeff * tables[measure].get(idx)
            except MissingMomentError as exc:
                raise MissingMomentError(exc.index, measure=measure.value) from None
        return total


def _without(freqs: tuple[int, ...], pos: int) -> tuple[int, ...]:
    return freqs[:pos] + freqs[pos + 1 :]


def _constraint_for(
    model: HeatModel, deg: TruncationDegrees, test: MomentIndex
) -> LinearConstraint | None:
    ell, freqs = test.time_degree, test.freqs
    k = len(freqs)
    eps = model.epsilon

    acc: dict[tuple[MeasureTag, MomentIndex], complex] = {}

    def add(measure: MeasureTag, idx: MomentIndex, coeff: complex) -> None:
        key = (measure, idx)
        acc[key] = acc.get(key, 0j) + coeff

    add(MeasureTag.TERMINAL, test, 1)
    add(MeasureTag.INITIAL, test, -1)
    if ell > 0:
        add(MeasureTag.OCCUPATION, MomentIndex(ell - 1, freqs), -ell)
    n_sq = sum(n * n for n in freqs)
    if n_sq:
        add(MeasureTag.OCCUPATION, test, n_sq)

    if isinstance(model, DistributedQuadratic) and eps != 0:
        zero_positions = [j for j, n in enumerate(freqs) if n == 0]
        if zero_positions:
            if k + 1 > deg.algebraic:
                return None  # forcing term would leave the truncation
            for j in zero_positions:
                rest = _without(freqs, j)
                for s1 in (model.m1, -model.m1):
                    for s2 in (model.m2, -model.m2):
                        add(
                            MeasureTag.OCCUPATION,
                            MomentIndex(ell, rest + (s1, s2)),
                            -eps,
                        )
    elif isinstance(model, LocalQuadratic) and eps != 0 and k > 0:
        if k + 1 > deg.algebraic:
            return None  # convolution term would leave the truncation
        for j, n in enumerate(freqs):
            rest = _without(freqs, j)
            lo = max(-deg.harmonic, n - deg.harmonic)
            hi = min(deg.harmonic, n + deg.harmonic)
            for m in range(lo, hi + 1):
                add(MeasureTag.OCCUPATION, MomentIndex(ell, rest + (m, n - m)), -eps)

    terms = tuple(
        (coeff, measure, idx) for (measure, idx), coeff in acc.items() if coeff != 0
    )
    return LinearConstraint(terms=terms, rhs=0j, test_index=test)


def generate_constraints(
    model: HeatModel, deg: TruncationDegrees, *, canonical_only: bool = False
) -> list[LinearConstraint]:
    """One constraint per admissible test index of the truncation.

    Test indices whose model terms would reference moments outside the
    truncation are dropped (a clipped equation would be wrong, a dropped one
    is merely absent).  With ``canonical_only`` set, only one representative
    per conjugate pair of test indices is emitted; the omitted ones are the
    conjugates of emitted constraints and carry no extra information.
    """
    if isinstance(model, DistributedQuadratic):
        if model.m1 > deg.harmonic or model.m2 > deg.harmonic:
            raise ValueError(
                f"forcing modes ({model.m1}, {model.m2}) exceed harmonic degree "
                f"{deg.harmonic}"
            )
    constraints = []
    for test in enumerate_moment_vector(deg):
        if canonical_only and not is_canonical(test):
            continue
        constraint = _constraint_for(model, deg, test)
        if constraint is not None:
            constraints.append(constraint)
    return constraints


def constraint_residual(
    constraints: list[LinearConstraint], tables: Mapping[MeasureTag, MomentTable]
) -> float:
    """Max absolute violation of the constraints by the given moment tables."""
    return max((abs(c.residual(tables)) for c in constraints), default=0.0)
