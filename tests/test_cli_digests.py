"""Byte-for-byte pin of the CLI's outputs.

Every subcommand that writes files runs on three configs; the test records
each command's exit code and the SHA-256 of every file it writes.
`report.json` is hashed without its `runtime_seconds` line, the one value
that varies between runs.  The solver's iterates are deterministic on one
platform, so a different BLAS build may change the last bits of solve
outputs; the oracle, export and import outputs do not depend on it.

Update `tests/data/cli_digests.json` only for an intended change of an
output: `python tests/test_cli_digests.py` rewrites it.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from momentpde.cli import main

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"

CONFIGS = {
    "linear-222": {"model": {"variant": "linear"}, "degrees": [2, 2, 2]},
    "local-0.01-422": {
        "model": {"variant": "local", "epsilon": 0.01},
        "degrees": [4, 2, 2],
        "solver": {"max_iters": 200},
    },
    "distributed-0.01-222": {
        "model": {"variant": "distributed", "epsilon": 0.01},
        "degrees": [2, 2, 2],
        "solver": {"max_iters": 300},
        "oracle": {"cutoff": 3},
    },
}


def _sha256(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data = b"".join(
            line for line in data.splitlines(keepends=True)
            if not line.lstrip().startswith(b'"runtime_seconds"')
        )
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], out_dir: Path) -> dict:
    """Run one command that writes only into out_dir; hash what it wrote."""
    code = main(argv)
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    return {"exit": code, "files": {p.name: _sha256(p) for p in files}}


def cli_digests(root: Path) -> dict:
    """Exit code and output digests of every command, per config."""
    out: dict = {}
    for name, raw in CONFIGS.items():
        work = root / name
        work.mkdir()
        cfg = work / "config.json"
        cfg.write_text(json.dumps(raw))
        base = ["--config", str(cfg)]

        def run_into(label: str, *argv: str) -> None:
            out_dir = work / label
            runs[label] = _run([*argv, *base, "--output-dir", str(out_dir)], out_dir)

        runs = {}
        run_into("solve", "solve")
        for which in ("analytic", "galerkin"):
            run_into(f"oracle-{which}", "oracle", "--which", which)
        csv_ref = work / "oracle-galerkin" / "galerkin_occupation.csv"
        for label, reference in (
            ("analytic", "analytic"), ("galerkin", "galerkin"), ("csv", str(csv_ref))
        ):
            run_into(f"compare-{label}", "compare", "--reference", reference)
        (work / "export").mkdir()
        dat = work / "export" / "problem.dat-s"
        runs["export-sdpa"] = _run(["export-sdpa", *base, "--out", str(dat)], work / "export")
        num_vars = int(dat.read_text().splitlines()[0].split()[0])
        # a fixed, exactly representable vector: pins the extraction alone
        sol = work / "solution.txt"
        sol.write_text("".join(f"{(k % 7 - 3) / 8!r}\n" for k in range(num_vars)))
        run_into("import-solution", "import-solution", "--solution", str(sol))
        sol.write_text("".join(f"{(k % 7 - 3) / 8!r}\n" for k in range(num_vars - 1)))
        run_into("import-solution-short", "import-solution", "--solution", str(sol))
        out[name] = runs
    return out


def test_cli_outputs_match_recorded_digests(tmp_path):
    assert cli_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(cli_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
