"""Span tracing of the program's public functions, for the traced run only.

``Tracer.install`` replaces each traced function in the namespace its caller
looks it up in (a module attribute or a module global) with a wrapper that
records one span per call: name, start, end, parent span and operation
number.  Spans stay in memory and are written once, by ``Tracer.save``.
``Tracer.uninstall`` puts the original functions back.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse.linalg as spla

from momentpde import indices, models, relaxation, sdpa, solver

PER_LAYER = (
    ("indices.enumerate_s", "s"), ("indices.count", "count"),
    ("models.constraints_s", "s"), ("models.constraints", "count"),
    ("relaxation.layout_s", "s"), ("relaxation.assemble_s", "s"),
    ("relaxation.extract_s", "s"),
    ("relaxation.num_vars", "count"), ("relaxation.num_eq", "count"),
    ("relaxation.block_vec_dim", "count"), ("relaxation.block_nnz", "count"),
    ("solver.solve_s", "s"), ("solver.iterations", "count"), ("solver.iter_ms", "ms"),
    ("solver.factor_s", "s"), ("solver.factorizations", "count"),
    ("solver.kkt_solve_s", "s"), ("solver.kkt_solves", "count"),
    ("solver.project_s", "s"), ("solver.projections", "count"),
    ("solver.other_s", "s"),
    ("sdpa.to_data_s", "s"), ("sdpa.write_s", "s"), ("sdpa.entries", "count"),
    ("sdpa.file_bytes", "count"), ("sdpa.import_s", "s"),
)

# Span name -> per-layer time metric that receives its self time.
_SELF_TIME = {
    "indices.enumerate": "indices.enumerate_s",
    "models.generate_constraints": "models.constraints_s",
    "relaxation.build_layout": "relaxation.layout_s",
    "relaxation.build_problem": "relaxation.assemble_s",
    "relaxation.extract_pseudomoments": "relaxation.extract_s",
    "solver.factor": "solver.factor_s",
    "solver.kkt_solve": "solver.kkt_solve_s",
    "solver.project_psd": "solver.project_s",
    "sdpa.to_sdpa_data": "sdpa.to_data_s",
    "sdpa.write_sdpa_data": "sdpa.write_s",
    "sdpa.import_solution": "sdpa.import_s",
}
# Span name -> count metric that counts its calls.
_CALLS = {
    "solver.factor": "solver.factorizations",
    "solver.kkt_solve": "solver.kkt_solves",
    "solver.project_psd": "solver.projections",
}


class _Namespace:
    """Attribute proxy: the overrides, then everything else of ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.op = -1
        self.active = False
        self.counts: Counter[str] = Counter()
        self._names: dict[str, int] = {}
        self._name: list[int] = []
        self._parent: list[int] = []
        self._op: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        nid = self._names.setdefault(name, len(self._names))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._op.append(self.op)
            self._end.append(0.0)
            self._stack.append(sid)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[sid] = clock()
                self._stack.pop()
            if count is not None:
                count(result, args)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- counters --------------------------------------------------------
    def _count_indices(self, result, args) -> None:
        self.counts["indices.count"] += len(result)

    def _count_constraints(self, result, args) -> None:
        self.counts["models.constraints"] += len(result)

    def _count_problem(self, problem, args) -> None:
        self.counts["relaxation.num_vars"] += problem.num_vars
        self.counts["relaxation.num_eq"] += problem.num_eq
        self.counts["relaxation.block_vec_dim"] += sum(b.vec_dim for b in problem.blocks)
        self.counts["relaxation.block_nnz"] += sum(b.coeffs.nnz for b in problem.blocks)

    def _count_solve(self, result, args) -> None:
        self.counts["solver.iterations"] += result[1].iterations

    def _count_entries(self, data, args) -> None:
        self.counts["sdpa.entries"] += len(data.entries)

    def _count_bytes(self, result, args) -> None:
        self.counts["sdpa.file_bytes"] += os.path.getsize(args[1])

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        enum = {
            name: self.wrap("indices.enumerate", getattr(indices, name), self._count_indices)
            for name in ("enumerate_moment_vector", "enumerate_matrix_basis", "basis_monomials")
        }
        for name, fn in enum.items():
            self._patch(relaxation, name, fn)
        self._patch(models, "enumerate_moment_vector", enum["enumerate_moment_vector"])
        self._patch(relaxation, "generate_constraints", self.wrap(
            "models.generate_constraints", models.generate_constraints, self._count_constraints))
        self._patch(relaxation, "build_layout", self.wrap(
            "relaxation.build_layout", relaxation.build_layout))
        self._patch(relaxation, "build_problem", self.wrap(
            "relaxation.build_problem", relaxation.build_problem, self._count_problem))
        self._patch(relaxation, "extract_pseudomoments", self.wrap(
            "relaxation.extract_pseudomoments", relaxation.extract_pseudomoments))

        self._patch(solver, "solve", self.wrap("solver.solve", solver.solve, self._count_solve))
        self._patch(solver, "project_psd", self.wrap("solver.project_psd", solver.project_psd))
        kkt_solve = "solver.kkt_solve"
        self._patch(solver, "scipy", _Namespace(scipy, linalg=_Namespace(
            scipy.linalg,
            lu_factor=self.wrap("solver.factor", scipy.linalg.lu_factor),
            lu_solve=self.wrap(kkt_solve, scipy.linalg.lu_solve),
        )))

        def splu(matrix):
            lu = spla.splu(matrix)
            return SimpleNamespace(solve=self.wrap(kkt_solve, lu.solve))

        self._patch(solver, "spla", _Namespace(spla, splu=self.wrap("solver.factor", splu)))

        self._patch(sdpa, "to_sdpa_data", self.wrap(
            "sdpa.to_sdpa_data", sdpa.to_sdpa_data, self._count_entries))
        self._patch(sdpa, "write_sdpa_data", self.wrap(
            "sdpa.write_sdpa_data", sdpa.write_sdpa_data, self._count_bytes))
        self._patch(sdpa, "import_solution", self.wrap(
            "sdpa.import_solution", sdpa.import_solution))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def _arrays(self):
        start = np.array(self._start)
        end = np.array(self._end)
        parent = np.array(self._parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return np.array(self._name, dtype=np.int64), parent, start, end, dur, dur - covered

    def per_layer(self, operations: int) -> dict[str, float]:
        """Every per-layer metric, as a mean per attempted operation."""
        names, _, _, _, dur, self_time = self._arrays()
        by_name = {name: names == nid for name, nid in self._names.items()}
        totals: dict[str, float] = {metric: 0.0 for metric, _ in PER_LAYER}
        totals.update(self.counts)
        for span, metric in _SELF_TIME.items():
            totals[metric] = float(self_time[by_name[span]].sum())
        for span, metric in _CALLS.items():
            totals[metric] = float(by_name[span].sum())
        totals["solver.solve_s"] = float(dur[by_name["solver.solve"]].sum())
        totals["solver.other_s"] = totals["solver.solve_s"] - (
            totals["solver.factor_s"] + totals["solver.kkt_solve_s"] + totals["solver.project_s"]
        )
        out = {metric: value / operations for metric, value in totals.items()}
        iterations = totals["solver.iterations"]
        out["solver.iter_ms"] = 1e3 * totals["solver.solve_s"] / iterations if iterations else 0.0
        return out

    def save(self, path: Path) -> None:
        names, parent, start, end, _, _ = self._arrays()
        np.savez(
            path,
            span_names=np.array(sorted(self._names, key=self._names.get)),
            name=names, parent=parent, op=np.array(self._op, dtype=np.int64),
            start=start, end=end,
        )
