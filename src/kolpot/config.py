"""Experiment configuration: JSON with fixed sections, strictly validated.

A config has exactly the sections ``operator``, ``ball``, ``quadrature``,
``experiments`` and ``output``.  Unknown keys anywhere are rejected, and a
seed is mandatory whenever any requested experiment consumes randomness
(test-point sampling or Monte Carlo paths).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigParseError, SchemaError
from .operators import OperatorSpec, validate_operator
from .quadrature import QuadratureConfig

__all__ = ["ExperimentConfig", "load_config"]

_SECTIONS = ("operator", "ball", "quadrature", "experiments", "output")
_OPERATOR_KEYS = {"block_sizes", "A0"}  # plus B1..Br
_BALL_KEYS = {"z0", "r", "r_factors"}
_QUAD_KEYS = {"time_tol", "time_order", "endpoint_depth", "max_cells",
              "mc_samples", "seed", "workers"}
_OUTPUT_KEYS = {"dir", "format"}
_EXPERIMENTS = {
    "mvf": {"max_degree", "tolerance", "centers"},
    "kernel_mass": {"tolerance"},
    "potential_identity": {"points", "tolerance"},
    "interior_inequality": {"points", "error_multiple"},
    "rigidity": {"perturbations", "points", "ratio_min", "lp_check"},
    "lp_check": {"perturbation", "p"},
}
_NEEDS_SEED = {"potential_identity", "interior_inequality", "rigidity", "lp_check"}
_PERTURBATION_KINDS = {"spatial_shift", "radius_mismatch", "slice_scale", "bite"}
_MAX_N = 3  # the slice cubature rules (quadrature.ball_rule) cover n = 1, 2, 3


@dataclass
class ExperimentConfig:
    spec: OperatorSpec
    z0: tuple
    radii: tuple[float, ...]
    quadrature: QuadratureConfig
    experiments: list[dict]
    output_dir: str
    output_format: str
    raw: dict = field(repr=False, default_factory=dict)


def _reject_unknown(section: str, data: dict, allowed: set):
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in section '{section}': {sorted(unknown)}")


def _parse_operator(data: dict) -> OperatorSpec:
    if not isinstance(data, dict):
        raise SchemaError("section 'operator' must be an object")
    block_sizes = data.get("block_sizes")
    if not isinstance(block_sizes, list) or not block_sizes:
        raise SchemaError("operator.block_sizes must be a nonempty list of integers")
    r = len(block_sizes) - 1
    allowed = _OPERATOR_KEYS | {f"B{j}" for j in range(1, r + 1)}
    _reject_unknown("operator", data, allowed)
    if "A0" not in data:
        raise SchemaError("operator.A0 is required")
    A0 = np.asarray(data["A0"], dtype=float)
    blocks = []
    for j in range(1, r + 1):
        key = f"B{j}"
        if key not in data:
            raise SchemaError(f"operator.{key} is required for {r} drift blocks")
        blocks.append(np.asarray(data[key], dtype=float))
    n = int(sum(block_sizes))
    if n > _MAX_N:
        raise SchemaError(f"operator dimension n = {n} is not supported (n <= {_MAX_N})")
    return validate_operator(n, block_sizes, A0, blocks)


def _parse_ball(data: dict, n: int):
    if not isinstance(data, dict):
        raise SchemaError("section 'ball' must be an object")
    _reject_unknown("ball", data, _BALL_KEYS)
    if "r" not in data:
        raise SchemaError("ball.r is required")
    r = float(data["r"])
    if r <= 0.0:
        raise SchemaError("ball.r must be positive")
    z0 = data.get("z0", [0.0] * (n + 1))
    if not isinstance(z0, list) or len(z0) != n + 1:
        raise SchemaError(f"ball.z0 must be a list of {n + 1} coordinates (space then time)")
    factors = data.get("r_factors", [1.0])
    if not isinstance(factors, list) or not factors:
        raise SchemaError("ball.r_factors must be a nonempty list")
    radii = tuple(r * float(f) for f in factors)
    if any(x <= 0 for x in radii):
        raise SchemaError("all ball radii must be positive")
    return tuple(float(v) for v in z0), radii


def _parse_quadrature(data: dict, needs_seed: bool) -> QuadratureConfig:
    if not isinstance(data, dict):
        raise SchemaError("section 'quadrature' must be an object")
    _reject_unknown("quadrature", data, _QUAD_KEYS)
    if needs_seed and "seed" not in data:
        raise SchemaError("quadrature.seed is mandatory for the requested experiments")
    kwargs = {}
    for key, cast in (("time_tol", float), ("time_order", int),
                      ("endpoint_depth", int), ("max_cells", int),
                      ("mc_samples", int), ("seed", int), ("workers", int)):
        if key in data:
            kwargs[key] = cast(data[key])
    try:
        return QuadratureConfig(**kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _parse_experiments(data) -> list[dict]:
    if not isinstance(data, list) or not data:
        raise SchemaError("section 'experiments' must be a nonempty list")
    out = []
    for i, exp in enumerate(data):
        if not isinstance(exp, dict) or "name" not in exp:
            raise SchemaError(f"experiments[{i}] must be an object with a 'name'")
        name = exp["name"]
        if name not in _EXPERIMENTS:
            raise SchemaError(f"unknown experiment '{name}'")
        _reject_unknown(f"experiments[{i}]", {k: v for k, v in exp.items() if k != "name"},
                        _EXPERIMENTS[name])
        if name == "rigidity":
            for pert in exp.get("perturbations", []):
                if not isinstance(pert, dict) or pert.get("kind") not in _PERTURBATION_KINDS:
                    raise SchemaError(
                        f"rigidity perturbations need a kind in {sorted(_PERTURBATION_KINDS)}")
                if not 0.0 < float(pert.get("magnitude", 0.0)) < 1.0:
                    raise SchemaError("perturbation magnitude must be in (0, 1)")
        if name == "lp_check":
            pert = exp.get("perturbation")
            if pert is not None and (not isinstance(pert, dict)
                                     or pert.get("kind") not in _PERTURBATION_KINDS):
                raise SchemaError("lp_check.perturbation needs a known kind")
        out.append(dict(exp))
    return out


def _parse_output(data: dict):
    if not isinstance(data, dict):
        raise SchemaError("section 'output' must be an object")
    _reject_unknown("output", data, _OUTPUT_KEYS)
    fmt = data.get("format", "both")
    if fmt not in ("json", "csv", "both"):
        raise SchemaError("output.format must be one of json|csv|both")
    return data.get("dir", "kolpot_out"), fmt


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigParseError/SchemaError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise SchemaError(f"unknown top-level sections: {sorted(unknown)}")
    missing = [sec for sec in _SECTIONS if sec not in raw]
    if missing:
        raise SchemaError(f"missing sections: {missing}")

    spec = _parse_operator(raw["operator"])
    z0, radii = _parse_ball(raw["ball"], spec.n)
    experiments = _parse_experiments(raw["experiments"])
    needs_seed = any(e["name"] in _NEEDS_SEED for e in experiments)
    quad = _parse_quadrature(raw["quadrature"], needs_seed)
    out_dir, fmt = _parse_output(raw["output"])
    if any(not math.isfinite(v) for v in z0):
        raise SchemaError("ball.z0 must be finite")
    return ExperimentConfig(
        spec=spec, z0=z0, radii=radii, quadrature=quad,
        experiments=experiments, output_dir=out_dir, output_format=fmt, raw=raw,
    )
