"""Run configuration: a single JSON file describing model, data and degrees."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .indices import TruncationDegrees
from .models import (
    DistributedQuadratic,
    HeatModel,
    InitialData,
    Linear,
    LocalQuadratic,
)
from .solver import SolverSettings


class ConfigError(Exception):
    """Invalid or unparsable run configuration."""


@dataclass
class OracleSettings:
    step: float = 1e-3
    cutoff: int | None = None  # None: oracle_tables' default, 2 * harmonic


@dataclass
class RunConfig:
    model: HeatModel = field(default_factory=Linear)
    initial: InitialData = field(default_factory=InitialData.default)
    degrees: TruncationDegrees = field(
        default_factory=lambda: TruncationDegrees(4, 2, 2)
    )
    solver: SolverSettings = field(default_factory=SolverSettings)
    oracle: OracleSettings = field(default_factory=OracleSettings)
    output_dir: Path = Path("out")

    def describe_model(self) -> dict:
        out: dict = {"variant": _VARIANT_NAMES[type(self.model)]}
        if not isinstance(self.model, Linear):
            out["epsilon"] = self.model.epsilon
        if isinstance(self.model, DistributedQuadratic):
            out["m1"] = self.model.m1
            out["m2"] = self.model.m2
        return out


_VARIANT_NAMES = {
    Linear: "linear",
    DistributedQuadratic: "distributed",
    LocalQuadratic: "local",
}

_MODEL_KEYS = {"variant", "epsilon", "m1", "m2"}
_SOLVER_KEYS = {f.name for f in fields(SolverSettings)}
_ORACLE_KEYS = {"step", "cutoff"}
_TOP_KEYS = {"model", "initial", "degrees", "solver", "oracle", "output_dir"}


def _fail(msg: str) -> None:
    raise ConfigError(msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # bool is an int


def _is_number(value) -> bool:
    # json parses the literals NaN and Infinity; no config number may be either
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _parse_model(raw: dict) -> HeatModel:
    if not isinstance(raw, dict):
        _fail("'model' must be an object")
    unknown = set(raw) - _MODEL_KEYS
    if unknown:
        _fail(f"unknown model keys: {sorted(unknown)}")
    variant = raw.get("variant", "linear")
    epsilon = raw.get("epsilon", 0.0)
    if not _is_number(epsilon):
        _fail("'epsilon' must be a finite number")
    if variant == "linear":
        if epsilon != 0:
            _fail("the linear model takes no epsilon (use 'distributed' or 'local')")
        if "m1" in raw or "m2" in raw:
            _fail("the linear model takes no forcing modes m1/m2")
        return Linear()
    if variant == "distributed":
        m1, m2 = raw.get("m1", 1), raw.get("m2", 1)
        if not (_is_int(m1) and _is_int(m2)):
            _fail("'m1' and 'm2' must be integers")
        try:
            return DistributedQuadratic(float(epsilon), m1, m2)
        except ValueError as exc:
            _fail(str(exc))
    if variant == "local":
        if "m1" in raw or "m2" in raw:
            _fail("the local model takes no forcing modes m1/m2")
        return LocalQuadratic(float(epsilon))
    _fail(f"unknown model variant {variant!r} (expected linear/distributed/local)")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        _fail("configuration root must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        _fail(f"unknown configuration keys: {sorted(unknown)}")

    cfg = RunConfig()
    if "model" in raw:
        cfg.model = _parse_model(raw["model"])
    if "initial" in raw:
        rows = raw["initial"]
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == 3 and _is_int(r[0]) and all(map(_is_number, r[1:]))
            for r in rows
        ):
            _fail("'initial' must be [mode, re, im] triples with integer modes and numeric parts")
        try:
            cfg.initial = InitialData({n: complex(re, im) for n, re, im in rows})
        except ValueError as exc:
            _fail(str(exc))
    if "degrees" in raw:
        triple = raw["degrees"]
        if (
            not isinstance(triple, list)
            or len(triple) != 3
            or not all(_is_int(v) for v in triple)
        ):
            _fail("'degrees' must be a list of three integers [time, algebraic, harmonic]")
        try:
            cfg.degrees = TruncationDegrees(*triple)
        except ValueError as exc:
            _fail(str(exc))
    if "solver" in raw:
        sub = raw["solver"]
        if not isinstance(sub, dict):
            _fail("'solver' must be an object")
        unknown = set(sub) - _SOLVER_KEYS
        if unknown:
            _fail(f"unknown solver keys: {sorted(unknown)}")
        try:
            cfg.solver = SolverSettings(**sub)
        except (TypeError, ValueError) as exc:
            _fail(str(exc))
    if "oracle" in raw:
        sub = raw["oracle"]
        if not isinstance(sub, dict) or set(sub) - _ORACLE_KEYS:
            _fail("'oracle' accepts only the keys 'step' and 'cutoff'")
        if "step" in sub and not (_is_number(sub["step"]) and sub["step"] > 0):
            _fail("'step' must be a positive finite number")
        if sub.get("cutoff") is not None and not _is_int(sub["cutoff"]):
            _fail("'cutoff' must be null or an integer")
        cfg.oracle = OracleSettings(**sub)
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str):
            _fail("'output_dir' must be a string")
        cfg.output_dir = Path(raw["output_dir"])

    if isinstance(cfg.model, DistributedQuadratic):
        if max(cfg.model.m1, cfg.model.m2) > cfg.degrees.harmonic:
            _fail(
                f"forcing modes ({cfg.model.m1}, {cfg.model.m2}) exceed the "
                f"harmonic degree {cfg.degrees.harmonic}"
            )
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(raw)
