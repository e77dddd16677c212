import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentpde

from momentpde.analytic import analytic_tables
from momentpde.galerkin import (
    _mode_derivatives,
    integrate,
    oracle_tables,
    trajectory_moments,
)
from momentpde.indices import (
    MomentIndex,
    TruncationDegrees,
    canonicalize,
    enumerate_moment_vector,
)
from momentpde.models import (
    DistributedQuadratic,
    InitialData,
    Linear,
    LocalQuadratic,
    MeasureTag,
    constraint_residual,
    generate_constraints,
)


def derivatives(model, values):
    """Mode derivatives of u_n, n = -2..2, given as a list indexed n + 2."""
    return _mode_derivatives(model, np.array(values, dtype=complex), 2)


def test_package_import_defers_scipy_integrate():
    # Only trajectory_moments needs scipy.integrate; loading it with the
    # package would make every import of momentpde slower and larger.
    src = str(Path(momentpde.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, momentpde; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_rhs_linear_mode_decay():
    d = derivatives(Linear(), [0, 0, 0, 1, 0])
    assert d[3] == -1  # mode n=1 decays at rate n^2


def test_rhs_distributed_forcing_hits_mode_zero():
    d = derivatives(DistributedQuadratic(1.0, 1, 1), [0, 1, 0, 1, 0])  # u_1 = u_{-1} = 1
    assert d[2] == pytest.approx(4.0)  # (1+1)*(1+1) forcing on mode 0
    assert d[1] == pytest.approx(-1.0)  # other modes stay linear


def test_rhs_local_zero_epsilon_equals_linear():
    values = [0.1 + 0.2j, 1, 0.3, 1, 0.1 - 0.2j]
    linear = derivatives(Linear(), values)
    assert np.allclose(derivatives(LocalQuadratic(0.0), values), linear)


def test_rhs_local_convolution_brute_force():
    values = [0.2 - 0.1j, 0.5, 1.0, 0.5, 0.2 + 0.1j]
    eps = 0.7
    d = derivatives(LocalQuadratic(eps), values)
    for n in range(-2, 3):
        conv = sum(
            values[m + 2] * values[n - m + 2]
            for m in range(-2, 3)
            if abs(n - m) <= 2
        )
        assert d[n + 2] == pytest.approx(-n * n * values[n + 2] + eps * conv)


def test_integrate_linear_exponential_decay(u0):
    traj = integrate(Linear(), u0, step=1e-3, cutoff=2)
    assert abs(traj.mode_series(1)[-1] - math.exp(-1)) <= 1e-10
    # u_{-n} = conj(u_n) along the whole trajectory
    assert np.abs(traj.states[:, ::-1] - traj.states.conj()).max() <= 1e-12


def test_integrate_zero_epsilon_matches_linear(u0):
    base = integrate(Linear(), u0, step=1e-2, cutoff=2)
    for model in (DistributedQuadratic(0.0, 1, 1), LocalQuadratic(0.0)):
        other = integrate(model, u0, step=1e-2, cutoff=2)
        assert np.array_equal(base.states, other.states)


def test_integrate_order_four(u0):
    def terminal_error(step):
        traj = integrate(Linear(), u0, step=step, cutoff=1)
        return abs(traj.mode_series(1)[-1] - math.exp(-1))

    ratio = terminal_error(2e-2) / terminal_error(1e-2)
    assert 12 <= ratio <= 20


def test_integrate_rejects_bad_step(u0):
    with pytest.raises(ValueError):
        integrate(Linear(), u0, step=3e-4)
    with pytest.raises(ValueError):
        integrate(Linear(), u0, step=1e-2, cutoff=0)
    for step in (0, -1e-2):
        with pytest.raises(ValueError, match="must be positive"):
            integrate(Linear(), u0, step=step)


def test_integrate_reports_blowup(u0):
    with pytest.raises(FloatingPointError, match="finite"):
        integrate(LocalQuadratic(5e3), u0, step=1e-2, cutoff=2)


def test_trajectory_moment_examples(u0):
    deg = TruncationDegrees(2, 2, 2)
    traj = integrate(Linear(), u0, step=1e-3, cutoff=2)
    occ, term = trajectory_moments(traj, deg)
    assert occ.get(MomentIndex(0, ())) == pytest.approx(1.0, abs=1e-12)
    assert occ.get(MomentIndex(0, (1,))) == pytest.approx(1 - math.exp(-1), abs=1e-8)
    idx = MomentIndex(2, (1, -1))
    exact = analytic_tables(u0, deg)[MeasureTag.OCCUPATION].get(idx)
    assert occ.get(idx) == pytest.approx(exact, abs=1e-8)
    assert term.get(MomentIndex(0, (1, 1))) == pytest.approx(math.exp(-2), abs=1e-10)
    assert term.moments is occ.moments  # one key set for both tables


def test_all_moments_match_analytic_at_442(u0):
    deg = TruncationDegrees(4, 4, 2)
    occ, term = trajectory_moments(
        integrate(Linear(), u0, step=1e-3, cutoff=2), deg
    )
    exact = analytic_tables(u0, deg)
    for table, measure in ((occ, MeasureTag.OCCUPATION), (term, MeasureTag.TERMINAL)):
        ref = exact[measure]
        assert np.array_equal(table.moments.ell, ref.moments.ell)
        assert np.array_equal(table.moments.counts, ref.moments.counts)
        error = np.abs(table.values - ref.values)
        assert np.all(error <= 1e-6 * np.maximum(np.abs(ref.values), 1e-12))


def test_trajectory_moments_match_per_moment_simpson():
    # bit for bit against one Simpson call per canonical moment, the mode
    # product formed factor by factor in sorted mode order
    from scipy.integrate import simpson

    u0 = InitialData({-2: 0.3j, -1: 0.5 - 0.25j, 0: 0.9, 1: 0.5 + 0.25j, 2: -0.3j})
    deg = TruncationDegrees(4, 4, 2)
    traj = integrate(LocalQuadratic(0.1), u0, step=1e-2, cutoff=4)
    occ, term = trajectory_moments(traj, deg)
    occupation, terminal = {}, {}
    for idx in enumerate_moment_vector(deg):
        if canonicalize(idx).conjugated:
            continue
        series = np.ones_like(traj.times, dtype=complex)
        for n in idx.freqs:
            series = series * traj.mode_series(n)
        power = np.ones_like(traj.times)
        for _ in range(idx.time_degree):
            power = power * traj.times
        occupation[idx] = complex(simpson(power * series, x=traj.times))
        terminal[idx] = complex(series[-1])

    def bits(entries):  # repr tells every bit of a float
        return [(i, repr(v)) for i, v in entries]

    assert bits(occ.items()) == bits(occupation.items())
    assert bits(term.items()) == bits(terminal.items())


def test_moment_extraction_requires_enough_modes(u0):
    traj = integrate(Linear(), u0, step=1e-2, cutoff=1)
    with pytest.raises(ValueError):
        trajectory_moments(traj, TruncationDegrees(2, 2, 2))


def test_oracle_default_cutoff_is_twice_the_harmonic_degree(u0, deg222):
    model = LocalQuadratic(0.01)
    default = oracle_tables(model, u0, deg222, step=1e-2)
    explicit = oracle_tables(
        model, u0, deg222, step=1e-2, cutoff=max(2 * deg222.harmonic, u0.max_mode, 1)
    )
    for measure, table in default.items():  # repr tells every bit of a float
        assert [(i, repr(v)) for i, v in table.items()] == [
            (i, repr(v)) for i, v in explicit[measure].items()
        ]


def test_galerkin_tables_satisfy_model_constraints(u0, deg422):
    # matching cutoff: the constraint convolution window equals the Galerkin
    # one, so only quadrature/integration error remains
    model = LocalQuadratic(1e-3)
    constraints = generate_constraints(model, deg422)
    res_matched = constraint_residual(
        constraints,
        oracle_tables(model, u0, deg422, step=1e-3, cutoff=deg422.harmonic),
    )
    assert res_matched <= 1e-8
    # a finer oracle exposes the constraint truncation error instead of
    # hiding it: the residual grows with the cutoff
    res_fine = constraint_residual(
        constraints,
        oracle_tables(model, u0, deg422, step=1e-3, cutoff=2 * deg422.harmonic),
    )
    assert res_fine >= res_matched
    assert res_fine <= 1e-6  # still small at this epsilon


def test_linear_tables_satisfy_constraints(u0, deg422):
    res = constraint_residual(
        generate_constraints(Linear(), deg422),
        oracle_tables(Linear(), u0, deg422, step=1e-3, cutoff=deg422.harmonic),
    )
    assert res <= 1e-6


def test_distributed_tables_satisfy_model_constraints(u0, deg422):
    model = DistributedQuadratic(1e-3, 1, 1)
    res = constraint_residual(
        generate_constraints(model, deg422),
        oracle_tables(model, u0, deg422, step=1e-3, cutoff=deg422.harmonic),
    )
    assert res <= 1e-8
