"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-222 --seed 1 --seconds 20 --trace 0

Works through whole rounds of the workload's seeded operation list until
``--seconds`` of wall time have passed (at least one round), checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, with every time scaled to the reference machine speed of
``calibration.py``; ``--trace 1`` reports the per-layer metrics, as measured,
from spans around the program's public functions.  A failed check exits with status 3 and names the
check; no result is printed then.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, so that runs do the same
# work in the same order on any number of cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from momentpde import relaxation, sdpa, solver  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


@dataclass
class Outcome:
    t2pm_s: float
    export_s: float
    completed: bool
    failed: bool
    start: float  # perf_counter() at the start and the end of the timed steps
    end: float
    speed: float = 1.0  # machine speed around the operation, see calibration.py


def run_operation(op: workloads.Operation, sdpa_path: Path, verify: bool, tracer=None) -> Outcome:
    """Time one operation; with ``verify``, check all its outputs afterwards.

    A tracer records spans only during the timed part, not during the checks.
    """
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    t1 = t2 = None
    try:
        problem = relaxation.build_problem(op.model, op.deg, op.u0)
        t1 = time.perf_counter()
        data = sdpa.to_sdpa_data(problem)
        sdpa.write_sdpa_data(data, sdpa_path)
        t2 = time.perf_counter()
        if op.kind == "solve":
            x, report = solver.solve(problem, op.settings)
        else:
            x, report = sdpa.import_solution(op.solution_path, problem), None
        tables = relaxation.extract_pseudomoments(problem, x)
        t3 = time.perf_counter()
    except Exception as exc:  # a program fault counts as a failed operation
        t3 = time.perf_counter()
        print(f"# {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        export = (t2 or t3) - t1 if t1 else 0.0
        return Outcome(t3 - t0 - export, export, False, True, t0, t3)
    finally:
        if tracer is not None:
            tracer.active = False

    certified = report is None or report.status == "optimal"
    if verify:
        verify_outputs(op, problem, x, report, tables, certified)
        # Read the file back with the problem released, so that the check's
        # own memory does not raise the peak above the program's.
        expected = checks.pack_sdpa(data)
        del problem, data, tables, x
        checks.sdpa_file_matches(expected, sdpa_path)
    return Outcome((t1 - t0) + (t3 - t2), t2 - t1, True, not certified, t0, t3)


def verify_outputs(op, problem, x, report, tables, certified) -> None:
    checks.tables_satisfy_constraints(op.model, op.deg, tables)
    if op.is_linear:
        closed = checks.closed_form_is_feasible(problem, op.u0, op.deg)
        if report is not None and certified:
            checks.objective_within_closed_form(problem, x, closed)
    if report is not None and certified:
        checks.certified_tables_are_psd(tables, op.deg, op.settings.abs_tol)
    if op.kind == "import":
        checks.vectors_identical(op.solution, x)


def probe_setup(workload: str, work: Path) -> None:
    """Child-process body: imports (done above) plus one warm-up operation.

    Prints the wall-clock time at which the warm-up ended.
    """
    op = workloads.warmup_operation(workload, OUT)
    run_operation(op, work / "warmup.dat-s", verify=False)
    print(repr(time.time()))


def measure_setup(workload: str, cal: Calibration) -> tuple[float, float]:
    """Median time from starting a fresh process to the end of its warm-up,
    as measured and at the reference speed.

    The child reports when its warm-up ended, so neither its exit nor the
    parent's polling for that exit is counted.  The reference kernel is timed
    before and after each probe.
    """
    probes = []
    cal.sample(follows_s=1.0)
    for _ in range(SETUP_PROBES):
        start, t0 = time.perf_counter(), time.time()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload],
            check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
        )
        seconds = float(out.stdout.split()[-1]) - t0
        probes.append((seconds, start, time.perf_counter()))
        cal.sample(follows_s=seconds)
    return (
        statistics.median(s for s, _, _ in probes),
        statistics.median(s / cal.speed(a, b) for s, a, b in probes),
    )


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            probe_setup(args.workload, work)
            return 0
        return measure(args, work)
    except checks.CheckFailed as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path) -> int:
    warmup = workloads.warmup_operation(args.workload, OUT)
    workloads.write_warmup_solution(warmup)
    cal = Calibration()
    setup = None if args.trace else measure_setup(args.workload, cal)

    ops = workloads.operations(args.workload, args.seed, work)
    sdpa_path = work / "problem.dat-s"
    run_operation(warmup, sdpa_path, verify=True)

    tracer = None
    if args.trace:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
        tracer.install()

    outcomes: list[Outcome] = []
    rounds = 0
    start = time.perf_counter()
    cal.sample(follows_s=1.0)
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        for op in ops:
            if tracer is not None:
                tracer.op = len(outcomes)
            outcomes.append(run_operation(op, sdpa_path, verify=True, tracer=tracer))
            cal.sample(follows_s=outcomes[-1].end - outcomes[-1].start)
        rounds += 1
    wall = time.perf_counter() - start
    for o in outcomes:
        o.speed = cal.speed(o.start, o.end)

    if tracer is not None:
        tracer.uninstall()

    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    done = [o for o in outcomes if o.completed]
    timed = sum(o.t2pm_s + o.export_s for o in outcomes)
    print(
        f"# {args.workload} seed={args.seed} rounds={rounds} ops={attempted} failed={failed} "
        f"timed_s={timed:.3f} wall_s={wall:.3f} trace={args.trace} speed={cal.median_speed:.4f} "
        f"kernel_samples={len(cal.samples)}"
    )
    if not done:
        print("no operation completed; no metric can be measured", file=sys.stderr)
        return 4
    if tracer is not None:
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        values = tracer.per_layer(attempted)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        # Geometric means weigh every operation of a mixed list alike; the
        # median of the 4-10 unlike operations of a ladder or export-large run
        # jumps from one operation type to another.
        gmean = statistics.geometric_mean
        print(
            f"# as measured: setup_s={setup[0]:.6g} "
            f"t2pm_s={gmean(o.t2pm_s for o in done):.6g} "
            f"ops_per_min={60.0 * len(done) / timed:.6g} "
            f"export_s={gmean(o.export_s for o in done):.6g}"
        )
        scaled_timed = sum((o.t2pm_s + o.export_s) / o.speed for o in outcomes)
        metrics = {
            "setup_s": {"value": setup[1], "unit": "s"},
            "t2pm_s": {"value": gmean(o.t2pm_s / o.speed for o in done), "unit": "s"},
            "ops_per_min": {"value": 60.0 * len(done) / scaled_timed, "unit": "1/min"},
            "export_s": {"value": gmean(o.export_s / o.speed for o in done), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    text = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
