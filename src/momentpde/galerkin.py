"""Fourier-Galerkin reference integrator for the heat models.

Projects the PDE onto modes |n| <= cutoff, integrates the resulting ODE
system with classical RK4, and turns the sampled trajectory into occupation
and terminal moment tables by composite Simpson quadrature.  This gives an
independent reference for the nonlinear models, valid up to its own mode
truncation and step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indices import (
    TruncationDegrees,
    enumerate_moment_vector,
    is_canonical,
)
from .models import (
    DistributedQuadratic,
    HeatModel,
    InitialData,
    LocalQuadratic,
    MeasureTag,
    initial_table,
)
from .tables import MomentTable


@dataclass
class Trajectory:
    """RK4 samples of the Galerkin system on [0, 1]."""

    times: np.ndarray  # (num_samples,)
    states: np.ndarray  # (num_samples, 2*cutoff + 1) complex
    cutoff: int

    def mode_series(self, n: int) -> np.ndarray:
        if abs(n) > self.cutoff:
            return np.zeros_like(self.times, dtype=complex)
        return self.states[:, n + self.cutoff]


def _mode_derivatives(model: HeatModel, u: np.ndarray, cutoff: int) -> np.ndarray:
    n = np.arange(-cutoff, cutoff + 1)
    du = -(n * n) * u
    if isinstance(model, DistributedQuadratic) and model.epsilon != 0:
        def pick(m):
            return u[m + cutoff] if abs(m) <= cutoff else 0j
        forcing = (pick(model.m1) + pick(-model.m1)) * (pick(model.m2) + pick(-model.m2))
        du[cutoff] += model.epsilon * forcing
    elif isinstance(model, LocalQuadratic) and model.epsilon != 0:
        # full self-convolution has length 4*cutoff+1; mode n sits at n + 2*cutoff
        conv = np.convolve(u, u)
        du += model.epsilon * conv[cutoff : 3 * cutoff + 1]
    return du


def integrate(
    model: HeatModel,
    u0: InitialData,
    step: float = 1e-3,
    cutoff: int | None = None,
) -> Trajectory:
    """Classical RK4 from t = 0 to 1 with samples at every step."""
    if cutoff is None:
        cutoff = max(u0.max_mode, 1)
    if u0.max_mode > cutoff:
        raise ValueError(
            f"initial data has mode {u0.max_mode} beyond cutoff {cutoff}"
        )
    if not step > 0:
        raise ValueError(f"step {step} must be positive")
    num_steps = round(1.0 / step)
    if num_steps < 1 or abs(num_steps * step - 1.0) > 1e-12:
        raise ValueError(f"step {step} does not divide the unit time interval")

    width = 2 * cutoff + 1
    u = np.zeros(width, dtype=complex)
    for n, v in u0.coeffs.items():
        u[n + cutoff] = v

    states = np.empty((num_steps + 1, width), dtype=complex)
    states[0] = u
    h = step
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(num_steps):
            k1 = _mode_derivatives(model, u, cutoff)
            k2 = _mode_derivatives(model, u + 0.5 * h * k1, cutoff)
            k3 = _mode_derivatives(model, u + 0.5 * h * k2, cutoff)
            k4 = _mode_derivatives(model, u + h * k3, cutoff)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(u.view(float))):
                peak = np.abs(u[np.isfinite(u)])
                peak_txt = f"{peak.max():.3e}" if len(peak) else "inf"
                raise FloatingPointError(
                    f"Galerkin state left the finite range at t = {(i + 1) * h:.6f} "
                    f"(max finite |u| = {peak_txt}); reduce step or epsilon"
                )
            states[i + 1] = u
    times = np.linspace(0.0, 1.0, num_steps + 1)
    return Trajectory(times=times, states=states, cutoff=cutoff)


def trajectory_moments(
    trajectory: Trajectory, deg: TruncationDegrees
) -> tuple[MomentTable, MomentTable]:
    """Occupation and terminal tables of the sampled trajectory.

    Occupation moments integrate t^ell times the mode product with composite
    Simpson quadrature; terminal moments read the product off the final state.
    """
    # Imported here, not at module level: scipy.integrate is slow to load and
    # large, and only this function needs it; `import momentpde` stays lean.
    from scipy.integrate import simpson

    if deg.harmonic > trajectory.cutoff:
        raise ValueError(
            f"harmonic degree {deg.harmonic} exceeds trajectory cutoff "
            f"{trajectory.cutoff}"
        )
    times = trajectory.times
    t_powers = {0: np.ones_like(times)}
    for ell in range(1, deg.time + 1):
        t_powers[ell] = t_powers[ell - 1] * times

    products: dict[tuple[int, ...], np.ndarray] = {}

    def product_series(freqs: tuple[int, ...]) -> np.ndarray:
        series = products.get(freqs)
        if series is None:
            if not freqs:
                series = np.ones_like(times, dtype=complex)
            else:
                series = product_series(freqs[:-1]) * trajectory.mode_series(freqs[-1])
            products[freqs] = series
        return series

    occupation, terminal = {}, {}
    for idx in enumerate_moment_vector(deg):
        if not is_canonical(idx):
            continue
        series = product_series(idx.freqs)
        occupation[idx] = complex(simpson(t_powers[idx.time_degree] * series, x=times))
        terminal[idx] = complex(series[-1])
    return MomentTable.from_moments(occupation), MomentTable.from_moments(terminal)


def oracle_tables(
    model: HeatModel,
    u0: InitialData,
    deg: TruncationDegrees,
    step: float = 1e-3,
    cutoff: int | None = None,
) -> dict[MeasureTag, MomentTable]:
    """Integrate the model and assemble all three moment tables.

    The default cutoff is twice the harmonic degree, so the oracle carries the
    modes that the truncated moment equations drop and exposes, rather than
    hides, their truncation error.
    """
    if cutoff is None:
        cutoff = max(2 * deg.harmonic, u0.max_mode, 1)
    trajectory = integrate(model, u0, step=step, cutoff=cutoff)
    occupation, terminal = trajectory_moments(trajectory, deg)
    return {
        MeasureTag.INITIAL: initial_table(u0, deg),
        MeasureTag.TERMINAL: terminal,
        MeasureTag.OCCUPATION: occupation,
    }

