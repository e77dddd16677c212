"""Truncated moment relaxations for heat-type evolution PDEs on the torus.

The package turns the linear heat flow and two quadratic perturbations into
finite semidefinite relaxations over occupation and terminal pseudo-moments,
solves them with an embedded primal-dual interior-point solver (or exports
SDPA files for external solvers), and validates the results against
closed-form and Fourier-Galerkin oracles.
"""

import os

# One BLAS/OpenMP thread unless the caller chose otherwise: the solver's many
# small dense products slow down when BLAS threads contend for cores.  The
# limit takes effect only before numpy loads, so it is set here, where the
# `momentpde` console script first imports the package.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .analytic import analytic_tables, i_ell, i_ell_closed_form
from .compare import matching_percentages, relative_error
from .config import ConfigError, RunConfig, load_config, parse_config
from .galerkin import (
    Trajectory,
    integrate,
    oracle_tables,
    trajectory_moments,
)
from .indices import (
    CanonicalIndex,
    MomentIndex,
    TruncationDegrees,
    canonicalize,
    count_matrix_basis,
    count_moment_vector,
    enumerate_matrix_basis,
    enumerate_moment_vector,
)
from .models import (
    DistributedQuadratic,
    HeatModel,
    InitialData,
    Linear,
    LocalQuadratic,
    MeasureTag,
    MomentEquations,
    constraint_residual,
    generate_constraints,
)
from .relaxation import (
    Block,
    ConicProblem,
    VariableLayout,
    build_layout,
    build_problem,
    embed_tables,
    extract_pseudomoments,
    localizing_matrix,
    moment_matrix,
    terminal_matrix,
)
from .sdpa import (
    SdpaData,
    export_sdpa,
    from_sdpa_data,
    import_solution,
    read_sdpa,
    read_solution,
    to_sdpa_data,
    write_solution,
)
from .solver import SolveReport, SolverSettings, solve
from .tables import MissingMomentError, MomentTable, read_table_csv, write_table_csv

__version__ = "0.1.0"
