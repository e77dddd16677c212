"""The traced benchmark run (perfbench/tracing.py) patches program functions
by name; a refactor that drops one of those names must fail here."""

import importlib.util
from pathlib import Path

from momentpde import models, relaxation, sdpa, solver
from momentpde.models import Linear
from momentpde.solver import SolverSettings

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def patched_names():
    return (
        relaxation.enumerate_moment_vector, relaxation.generate_constraints,
        relaxation.build_layout, relaxation.build_problem, relaxation.extract_pseudomoments,
        models.enumerate_moment_vector, solver.solve, solver.project_psd, solver.scipy,
        solver.spla, sdpa.to_sdpa_data, sdpa.write_sdpa_data, sdpa.import_solution,
    )


def test_tracer_installs_traces_a_solve_and_uninstalls(u0, deg222):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = patched_names()
    tracer = tracing.Tracer()
    tracer.install()  # AttributeError if a patched name is gone
    try:
        assert all(a is not b for a, b in zip(patched_names(), originals))
        tracer.active = True
        problem = relaxation.build_problem(Linear(), deg222, u0)
        _, report = solver.solve(problem, SolverSettings(max_iters=30))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(patched_names(), originals))

    layer = tracer.per_layer(1)
    assert layer["indices.count"] > 0 and layer["models.constraints"] > 0
    assert layer["relaxation.num_vars"] == problem.num_vars
    assert report.status == "optimal" and report.iterations < 30
    assert layer["solver.iterations"] == report.iterations
    # the interior-point method projects nothing
    assert layer["solver.projections"] == 0
    # one sparse LU, solved once for x0 and once for Z's 10 columns; then one
    # Schur LU per iteration, solved once for the predictor and twice for the
    # refined corrector
    assert layer["solver.factorizations"] == 1 + report.iterations
    assert layer["solver.kkt_solves"] == 2 + 3 * report.iterations
