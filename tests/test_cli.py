import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentpde.cli import main
from momentpde.config import ConfigError, load_config, parse_config
from momentpde.models import DistributedQuadratic, Linear, LocalQuadratic
from momentpde.sdpa import read_sdpa, write_solution
from momentpde.solver import solve
from momentpde.relaxation import build_problem
from momentpde.tables import read_table_csv

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, **overrides):
    raw = {"model": {"variant": "linear"}, "degrees": [2, 2, 2]}
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("openblas, expected", [(None, ["1", "1", "1"]), ("2", ["2", "1", "1"])])
def test_console_script_import_limits_blas_threads(openblas, expected):
    # the console script imports momentpde.cli, and with it the package,
    # before numpy; a caller's own value wins
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import os, momentpde.cli; print(*(os.environ[v] for v in %r))" % (THREAD_VARS,)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == expected


def test_sizes_matches_golden_file(capsys):
    assert main(["sizes"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "sizes_golden.csv").read_text()


def test_sizes_reproducible(capsys):
    main(["sizes"])
    first = capsys.readouterr().out
    main(["sizes"])
    assert capsys.readouterr().out == first


def test_sizes_custom_triples(capsys, tmp_path):
    out_file = tmp_path / "sizes.csv"
    assert main(["sizes", "2,2,2", "0,0,0", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "2,2,2,63,12" in out
    assert "0,0,0,1,1" in out
    assert out_file.read_text() == out


def test_sizes_rejects_bad_triple(capsys):
    assert main(["sizes", "2,2"]) == 2
    assert main(["sizes", "3,2,2"]) == 2


def test_config_defaults():
    cfg = parse_config({})
    assert isinstance(cfg.model, Linear)
    assert cfg.degrees.as_tuple() == (4, 2, 2)
    assert cfg.initial.coeff(-1) == 1 and cfg.initial.coeff(0) == 1
    assert cfg.oracle.cutoff is None  # oracle_tables' default, twice the harmonic degree
    cfg = parse_config({"initial": [[-1, 1, 0], [0, 0.5, 0], [1, 1, 0]]})
    assert cfg.initial.coeffs == {-1: 1, 0: 0.5, 1: 1}


NONFINITE_OR_ZERO_STEP = (
    ('{"solver": {"abs_tol": NaN}}', "abs_tol"),
    ('{"solver": {"abs_tol": Infinity}}', "abs_tol"),
    ('{"oracle": {"step": NaN}}', "step"),
    ('{"oracle": {"step": 0}}', "step"),
    ('{"model": {"variant": "local", "epsilon": Infinity}}', "epsilon"),
    ('{"model": {"variant": "local", "epsilon": NaN}}', "epsilon"),
    ('{"model": {"variant": "distributed", "epsilon": NaN}}', "epsilon"),
    ('{"initial": [[0, NaN, 0]]}', "numeric parts"),
    ('{"initial": [[1, Infinity, 0], [-1, Infinity, 0]]}', "numeric parts"),
)


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config({"model": {"variant": "nope"}})
    with pytest.raises(ConfigError):
        parse_config({"model": {"variant": "linear", "epsilon": 0.1}})
    with pytest.raises(ConfigError):
        parse_config({"degrees": [3, 2, 2]})
    with pytest.raises(ConfigError):
        parse_config({"solver": {"bogus": 1}})
    with pytest.raises(ConfigError):
        parse_config({"extra_key": True})
    # the solver's knobs and its gap tolerance are module constants, not settings
    for key, value in (("penalty", 1.0), ("over_relaxation", 1.6),
                       ("adaptive_penalty", True), ("rel_tol", 1e-9),
                       ("track_residuals", True), ("gap_tol", 1e-8)):
        with pytest.raises(ConfigError, match="unknown solver keys"):
            parse_config({"solver": {key: value}})
    for bad in ("10", 1.5, True, -3, 0):
        with pytest.raises(ConfigError, match="max_iters"):
            parse_config({"solver": {"max_iters": bad}})
    with pytest.raises(ConfigError, match="integer modes"):
        parse_config({"initial": [[1.5, 1, 0], [-1.5, 1, 0]]})
    with pytest.raises(ConfigError, match="step"):
        parse_config({"oracle": {"step": "0.01"}})
    with pytest.raises(ConfigError, match="cutoff"):
        parse_config({"oracle": {"cutoff": "x"}})
    # a bool is an int in Python, but never a number here
    for bad, match in (
        ({"solver": {"abs_tol": True}}, "abs_tol"),
        ({"degrees": [2, 2, True]}, "degrees"),
        ({"model": {"variant": "local", "epsilon": True}}, "epsilon"),
        ({"initial": [[True, 1, 0], [-1, 1, 0]]}, "integer modes"),
        ({"initial": [[1, True, 0], [-1, 1, 0]]}, "numeric parts"),
        ({"oracle": {"step": True}}, "step"),
        ({"model": {"variant": "distributed", "epsilon": 0.1, "m1": True}}, "m1"),
        ({"oracle": {"cutoff": True}}, "cutoff"),
    ):
        with pytest.raises(ConfigError, match=match):
            parse_config(bad)
    for bad, match in (
        ([], "root must be an object"),
        ({"model": "linear"}, "'model' must be an object"),
        ({"model": {"variant": "linear", "mode": 1}}, "unknown model keys"),
        ({"model": {"variant": "linear", "m1": 1}}, "linear model takes no forcing modes"),
        ({"model": {"variant": "local", "m2": 1}}, "local model takes no forcing modes"),
        ({"model": {"variant": "distributed", "m1": 0}}, "mode numbers must be positive"),
        ({"initial": [[1, 1.0, 0.0]]}, "not conjugate-symmetric"),
        ({"solver": [1]}, "'solver' must be an object"),
        ({"oracle": 0.01}, "'oracle' accepts only"),
        ({"output_dir": 1}, "'output_dir' must be a string"),
    ):
        with pytest.raises(ConfigError, match=match):
            parse_config(bad)
    # json parses NaN and Infinity; no config number may be either, and the
    # Galerkin step must be positive.  The CLI exits 2 on each.
    path = tmp_path / "config.json"
    for text, match in NONFINITE_OR_ZERO_STEP:
        with pytest.raises(ConfigError, match=match):
            parse_config(json.loads(text))
        path.write_text(text)
        argv = ["oracle", "--config", str(path), "--which", "galerkin"]
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    path.write_text('{"degrees": [2, 2, 2]')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    assert main(["solve", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    # the symmetry tolerance is relative: a tiny coefficient needs its partner
    path.write_text('{"initial": [[1, 1e-13, 0]]}')
    with pytest.raises(ConfigError, match="not conjugate-symmetric"):
        load_config(path)
    assert main(["solve", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    with pytest.raises(ConfigError):
        # forcing modes beyond the harmonic degree
        parse_config(
            {"model": {"variant": "distributed", "epsilon": 0.1, "m1": 5}, "degrees": [2, 2, 2]}
        )


def test_config_model_variants():
    cfg = parse_config(
        {"model": {"variant": "distributed", "epsilon": 0.5, "m1": 1, "m2": 2},
         "degrees": [2, 2, 2]}
    )
    assert cfg.model == DistributedQuadratic(0.5, 1, 2)
    cfg = parse_config({"model": {"variant": "local", "epsilon": 2.0}})
    assert cfg.model == LocalQuadratic(2.0)


def test_solve_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["solve", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "optimal"
    assert report["max_equality_residual"] <= 1e-6
    assert report["degrees"] == [2, 2, 2]
    assert report["relative_gap"] <= 1e-8
    assert list(report) == [
        "status",
        "primal_objective",
        "max_equality_residual",
        "min_block_eigenvalue",
        "iterations",
        "relative_gap",
        "primal_infeasibility",
        "dual_infeasibility",
        "runtime_seconds",
        "degrees",
        "model",
        "num_vars",
        "num_equalities",
        "block_sizes",
    ]
    csv_text = (tmp_path / "out" / "pseudomoments.csv").read_text()
    assert csv_text.startswith("measure,ell,freqs,re,im\n")
    assert "occupation" in csv_text and "terminal" in csv_text and "initial" in csv_text


def test_default_config_solve_certifies(tmp_path):
    # the defaults: Linear at (4,2,2) on the default datum
    path = tmp_path / "config.json"
    path.write_text("{}")
    assert main(["solve", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "optimal" and report["degrees"] == [4, 2, 2]
    assert report["primal_objective"] == pytest.approx(6.4426426832, rel=1e-7)


def test_solve_output_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    main(["solve", "--config", str(cfg), "--output-dir", str(tmp_path / "a")])
    main(["solve", "--config", str(cfg), "--output-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "pseudomoments.csv").read_bytes() == (
        tmp_path / "b" / "pseudomoments.csv"
    ).read_bytes()


def test_missing_config_is_a_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_file_errors_exit_2(tmp_path, capsys):
    # exit 1 means "not optimal"; a file that cannot be written or read is an
    # error, reported without a traceback
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    out = tmp_path / "missing" / "problem.dat-s"
    assert main(["export-sdpa", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err
    sol = tmp_path / "solution.txt"
    assert main(["import-solution", "--config", str(cfg), "--solution", str(sol)]) == 2
    assert f"error: [Errno 2] No such file or directory: '{sol}'" in capsys.readouterr().err


def test_compare_analytic(tmp_path, capsys):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["compare", "--config", str(cfg), "--reference", "analytic"]) == 0
    rows = (tmp_path / "out" / "accuracy.csv").read_text().splitlines()
    assert rows[0] == "threshold,matched,total,percent"
    assert len(rows) == 9  # 8 thresholds
    first = rows[1].split(",")
    assert float(first[0]) == 0.1
    assert first[1] == first[2]  # everything matches at relerr 0.1


def test_compare_csv_reference(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, output_dir=str(out))
    assert main(["oracle", "--config", str(cfg), "--which", "analytic"]) == 0
    ref = out / "analytic_occupation.csv"
    assert ref.exists()
    assert main(["compare", "--config", str(cfg), "--reference", str(ref)]) == 0
    accuracy = (out / "accuracy.csv").read_bytes()
    # a blank line in the reference is skipped
    lines = ref.read_text().splitlines(keepends=True)
    ref.write_text("".join(lines[:2] + ["\n"] + lines[2:]))
    assert main(["compare", "--config", str(cfg), "--reference", str(ref)]) == 0
    assert (out / "accuracy.csv").read_bytes() == accuracy
    # a reference from a larger truncation (more modes, so wider count rows)
    # grades the same as the analytic reference of the solve's own truncation
    (tmp_path / "big").mkdir()
    big = write_config(tmp_path / "big", degrees=[4, 4, 4], output_dir=str(tmp_path / "big"))
    assert main(["oracle", "--config", str(big), "--which", "analytic"]) == 0
    wide = str(tmp_path / "big" / "analytic_occupation.csv")
    assert main(["compare", "--config", str(cfg), "--reference", wide]) == 0
    graded = (out / "accuracy.csv").read_bytes()
    assert main(["compare", "--config", str(cfg), "--reference", "analytic"]) == 0
    assert graded == (out / "accuracy.csv").read_bytes()


def test_compare_galerkin(tmp_path):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["compare", "--config", str(cfg), "--reference", "galerkin"]) == 0


def test_compare_missing_reference_index(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, output_dir=str(out))
    ref = tmp_path / "partial.csv"
    ref.write_text("ell,freqs,re,im\n0,,1.0,0.0\n")
    assert main(["compare", "--config", str(cfg), "--reference", str(ref)]) == 2
    # neither a keyword nor a file, and a CSV that is not a moment table
    assert main(["compare", "--config", str(cfg), "--reference", str(tmp_path / "exact")]) == 2
    ref.write_text("measure,ell,freqs,re,im\noccupation,0,,1.0,0.0\n")
    assert main(["compare", "--config", str(cfg), "--reference", str(ref)]) == 2
    # an empty file, a short row and non-finite values are named by file and line
    full = out / "ref.csv"
    assert main(["oracle", "--config", str(cfg), "--which", "analytic"]) == 0
    lines = (out / "analytic_occupation.csv").read_text().splitlines(keepends=True)
    for text, line in (
        ("", 1),
        ("".join(lines[:3]) + "1,-1|1,0.5\n" + "".join(lines[3:]), 4),
        ("".join(lines[:2]) + "0,,nan,0.0\n" + "".join(lines[3:]), 3),
        ("".join(lines[:5]) + "0,-1,1.0,-inf\n" + "".join(lines[6:]), 6),
    ):
        full.write_text(text)
        capsys.readouterr()
        assert main(["compare", "--config", str(cfg), "--reference", str(full)]) == 2
        assert f"{full}, line {line}:" in capsys.readouterr().err
    # a time degree beyond the int8 moment keys is named by file
    full.write_text("ell,freqs,re,im\n200,1,1.0,0.0\n")
    assert main(["compare", "--config", str(cfg), "--reference", str(full)]) == 2
    assert f"{full}: time degrees above 127" in capsys.readouterr().err


def test_oracle_galerkin(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, output_dir=str(out))
    assert main(["oracle", "--config", str(cfg), "--which", "galerkin"]) == 0
    for measure in ("initial", "terminal", "occupation"):
        table = read_table_csv(out / f"galerkin_{measure}.csv")
        assert len(table) > 0


@pytest.mark.parametrize(
    "argv", [["oracle", "--which", "galerkin"], ["compare", "--reference", "galerkin"]]
)
def test_galerkin_blow_up_is_a_named_error(tmp_path, capsys, argv):
    # exit 1 means "not optimal"; a Galerkin state that leaves the finite
    # range is a bad configuration, reported like one
    cfg = write_config(
        tmp_path, model={"variant": "local", "epsilon": 5000}, output_dir=str(tmp_path / "o")
    )
    assert main([*argv, "--config", str(cfg)]) == 2
    assert "error: Galerkin state left the finite range" in capsys.readouterr().err


def test_oracle_analytic_refuses_nonzero_epsilon(tmp_path):
    cfg = write_config(
        tmp_path, model={"variant": "local", "epsilon": 0.5}, output_dir=str(tmp_path / "o")
    )
    assert main(["oracle", "--config", str(cfg), "--which", "analytic"]) == 2
    # but a nonlinear variant at epsilon = 0 is the linear flow: allowed
    cfg0 = write_config(
        tmp_path, model={"variant": "local", "epsilon": 0.0}, output_dir=str(tmp_path / "o")
    )
    assert main(["oracle", "--config", str(cfg0), "--which", "analytic"]) == 0


def test_export_and_import_solution(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, output_dir=str(out))
    dat = tmp_path / "problem.dat-s"
    assert main(["export-sdpa", "--config", str(cfg), "--out", str(dat)]) == 0
    data = read_sdpa(dat)
    config = load_config(cfg)
    problem = build_problem(config.model, config.degrees, config.initial)
    assert data.num_constraints == problem.num_vars

    x, _ = solve(problem)
    sol = tmp_path / "solution.txt"
    write_solution(x, sol)
    assert main(
        ["import-solution", "--config", str(cfg), "--solution", str(sol)]
    ) == 0
    assert (out / "pseudomoments.csv").exists()

    # truncated solution file is a named dimension error
    write_solution(x[:-1], sol)
    assert main(
        ["import-solution", "--config", str(cfg), "--solution", str(sol)]
    ) == 2

    # so is a non-finite value
    for bad in (np.nan, np.inf):
        write_solution(np.where(np.arange(len(x)) == 3, bad, x), sol)
        assert main(
            ["import-solution", "--config", str(cfg), "--solution", str(sol)]
        ) == 2
        assert "non-finite value" in capsys.readouterr().err

    # a malformed value names the file and its line, blank lines counted
    for bad in ("abc", "1.0 2.0"):
        write_solution(x, sol)
        lines = sol.read_text().splitlines(keepends=True)
        lines[3:4] = ["\n", bad + "\n"]
        sol.write_text("".join(lines))
        assert main(
            ["import-solution", "--config", str(cfg), "--solution", str(sol)]
        ) == 2
        err = capsys.readouterr().err
        assert f"{sol}, line 5: could not convert string to float: '{bad}'" in err
