"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed list of operations; one *round* runs every operation of
the list once, and a run repeats whole rounds.  An operation goes from a
degree triple to pseudo-moment tables:

* ``solve`` operations: ``build_problem`` -> SDPA export -> ``solve`` ->
  ``extract_pseudomoments``;
* ``import`` operations: ``build_problem`` -> SDPA export ->
  ``import_solution`` of a file written from oracle tables before timing ->
  ``extract_pseudomoments``.

The program under test only ever sees the generated models, truncations,
initial data and settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from momentpde import (
    DistributedQuadratic,
    InitialData,
    Linear,
    LocalQuadratic,
    SolverSettings,
    TruncationDegrees,
    analytic_tables,
    build_layout,
    embed_tables,
    oracle_tables,
    write_solution,
)

WORKLOADS = ("certify-222", "ladder", "export-large")

# certify-222: seeded instances per round.
CERTIFY_LINEAR = 36
CERTIFY_LOCAL = 12
# ladder: the ROADMAP ladder, one fixed iteration budget for every solve.
LADDER_TRIPLES = ((2, 2, 2), (4, 2, 2), (6, 2, 4), (4, 4, 2), (4, 4, 4))
LADDER_BUDGET = 200
# export-large: every model once, the two linear cases on either side of the
# largest nonlinear one.
EXPORT_CASES = (
    ("local", (4, 4, 4)),
    ("distributed", (6, 4, 4)),
    ("linear", (6, 4, 4)),
    ("linear", (6, 4, 6)),
)
# Seeded data: u_0 real, u_{+-1} = r e^{+-i theta}, amplitudes 1 +- AMPLITUDE_SPAN.
AMPLITUDE_SPAN = 0.1
EPSILON_LOG10 = (-3.0, -2.0)
ORACLE_STEP = 1e-3


@dataclass
class Operation:
    label: str
    model: object
    deg: TruncationDegrees
    u0: InitialData
    kind: str  # "solve" | "import"
    settings: SolverSettings | None = None
    solution: np.ndarray | None = field(default=None, repr=False)
    solution_path: Path | None = None

    @property
    def is_linear(self) -> bool:
        return isinstance(self.model, Linear)


def seeded_initial_data(rng: np.random.Generator) -> InitialData:
    """Conjugate-symmetric three-mode data near the default (1, 1, 1)."""
    a0 = rng.uniform(1 - AMPLITUDE_SPAN, 1 + AMPLITUDE_SPAN)
    r1 = rng.uniform(1 - AMPLITUDE_SPAN, 1 + AMPLITUDE_SPAN)
    c1 = r1 * np.exp(1j * rng.uniform(-math.pi, math.pi))
    return InitialData({0: a0, 1: c1, -1: np.conj(c1)})


def seeded_epsilon(rng: np.random.Generator) -> float:
    return float(10 ** rng.uniform(*EPSILON_LOG10))


def _model(name: str, eps: float):
    if name == "linear":
        return Linear()
    if name == "local":
        return LocalQuadratic(eps)
    return DistributedQuadratic(eps)


def _certify_222(rng: np.random.Generator) -> list[Operation]:
    deg = TruncationDegrees(2, 2, 2)
    settings = SolverSettings()
    ops = [
        Operation(f"linear-{k}", Linear(), deg, seeded_initial_data(rng), "solve", settings)
        for k in range(CERTIFY_LINEAR)
    ]
    for k in range(CERTIFY_LOCAL):
        u0 = seeded_initial_data(rng)
        ops.append(
            Operation(f"local-{k}", LocalQuadratic(seeded_epsilon(rng)), deg, u0, "solve", settings)
        )
    return ops


def _ladder() -> list[Operation]:
    settings = SolverSettings(max_iters=LADDER_BUDGET)
    return [
        Operation(
            "linear-{}-{}-{}".format(*t), Linear(), TruncationDegrees(*t),
            InitialData.default(), "solve", settings,
        )
        for t in LADDER_TRIPLES
    ]


def oracle_solution(op: Operation) -> np.ndarray:
    """Oracle moments in the problem's variable order: closed form for the
    linear flow, Fourier-Galerkin otherwise."""
    if op.is_linear:
        tables = analytic_tables(op.u0, op.deg)
    else:
        tables = oracle_tables(
            op.model, op.u0, op.deg, step=ORACLE_STEP, cutoff=2 * op.deg.harmonic
        )
    return embed_tables(build_layout(op.deg), tables)


def _export_large(rng: np.random.Generator, workdir: Path) -> list[Operation]:
    ops = []
    for name, triple in EXPORT_CASES:
        u0 = seeded_initial_data(rng)
        op = Operation(
            "{}-{}-{}-{}".format(name, *triple), _model(name, seeded_epsilon(rng)),
            TruncationDegrees(*triple), u0, "import",
        )
        op.solution = oracle_solution(op)
        op.solution_path = workdir / f"{op.label}.sol"
        write_solution(op.solution, op.solution_path)
        ops.append(op)
    return ops


def operations(workload: str, seed: int, workdir: Path) -> list[Operation]:
    """The fixed operation list of one round; solution files go to ``workdir``."""
    rng = np.random.default_rng(seed)
    if workload == "certify-222":
        return _certify_222(rng)
    if workload == "ladder":
        return _ladder()
    if workload == "export-large":
        return _export_large(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_operation(workload: str, workdir: Path) -> Operation:
    """The workload's pipeline on the default (2,2,2) linear instance."""
    deg = TruncationDegrees(2, 2, 2)
    kind = "import" if workload == "export-large" else "solve"
    settings = SolverSettings(max_iters=LADDER_BUDGET) if workload == "ladder" else SolverSettings()
    op = Operation("warmup", Linear(), deg, InitialData.default(), kind, settings)
    if kind == "import":
        op.solution_path = workdir / "warmup.sol"
    return op


def write_warmup_solution(op: Operation) -> None:
    if op.kind == "import":
        op.solution = oracle_solution(op)
        write_solution(op.solution, op.solution_path)
