"""Closed-form moments of the linear heat flow, used as ground truth.

Each Fourier mode decays independently, u_n(t) = u_n(0) exp(-n^2 t), so every
moment reduces to a coefficient product times I_ell(N) = int_0^1 t^ell
exp(-N t) dt with N the sum of squared modes.  I_ell has an explicit
factorial expression, but for small N and larger ell it subtracts nearly
equal quantities; the primary evaluation is therefore a fixed 64-node
Gauss-Legendre rule (the integrand is entire, so the rule is exact to machine
precision), with the factorial form kept as a cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .indices import MomentIndex, TruncationDegrees, enumerate_moment_vector
from .models import InitialData, MeasureTag, initial_moment
from .tables import MomentTable

_nodes, _weights = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_nodes + 1.0)
_GL_WEIGHTS = 0.5 * _weights


def i_ell(ell: int, n_sq: int) -> float:
    """int_0^1 t^ell exp(-n_sq * t) dt by 64-node Gauss-Legendre quadrature."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if n_sq < 1:
        raise ValueError("n_sq must be >= 1 (the N = 0 case is 1/(ell+1))")
    return float(np.dot(_GL_WEIGHTS, _GL_NODES**ell * np.exp(-n_sq * _GL_NODES)))


def i_ell_closed_form(ell: int, n_sq: int) -> float:
    """Factorial expression for i_ell; cancellation-prone for small n_sq."""
    if n_sq < 1:
        raise ValueError("n_sq must be >= 1")
    fact = math.factorial(ell)
    tail = sum(
        fact / (n_sq**j * math.factorial(ell - j + 1)) for j in range(1, ell + 2)
    )
    return fact / n_sq ** (ell + 1) - math.exp(-n_sq) * tail


def analytic_occupation_moment(u0: InitialData, idx: MomentIndex) -> complex:
    n_sq = sum(n * n for n in idx.freqs)
    if n_sq == 0:
        return u0.coeff(0) ** len(idx.freqs) / (idx.time_degree + 1)
    return u0.product(idx.freqs) * i_ell(idx.time_degree, n_sq)


def analytic_terminal_moment(u0: InitialData, idx: MomentIndex) -> complex:
    """Coefficient product times exp(-N); independent of the time degree."""
    n_sq = sum(n * n for n in idx.freqs)
    return u0.product(idx.freqs) * math.exp(-n_sq)


def analytic_tables(
    u0: InitialData, deg: TruncationDegrees
) -> dict[MeasureTag, MomentTable]:
    """Initial/terminal/occupation tables over the whole truncation."""
    indices = enumerate_moment_vector(deg)
    return {
        MeasureTag.INITIAL: MomentTable.from_function(
            lambda idx: initial_moment(u0, idx), indices
        ),
        MeasureTag.TERMINAL: MomentTable.from_function(
            lambda idx: analytic_terminal_moment(u0, idx), indices
        ),
        MeasureTag.OCCUPATION: MomentTable.from_function(
            lambda idx: analytic_occupation_moment(u0, idx), indices
        ),
    }
