"""Experiment configuration: JSON with fixed sections, strictly validated.

A config has exactly the sections ``operator``, ``ball``, ``quadrature``,
``experiments`` and ``output``.  Unknown keys anywhere are rejected, and a
seed is mandatory whenever any requested experiment consumes randomness
(test-point sampling or the L^p check's Monte Carlo samples).  Two quadrature
keys are kept so that older configs still load: ``workers`` is validated and
dropped, and ``mc_samples`` is validated and echoed in the reports; neither
changes a number.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigParseError, OperatorValidationError, SchemaError
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
_POSITIVE = (lambda v, n: _is_real(v) and v > 0.0, "a finite number > 0")
_VALUES = {  # experiment key -> (check of a value at dimension n, what a value must be)
    "points": (lambda v, n: _is_real(v) and v >= 1 and v == int(v), "an integer >= 1"),
    "max_degree": (lambda v, n: _is_real(v) and v >= 0 and v == int(v), "an integer >= 0"),
    "tolerance": _POSITIVE, "ratio_min": _POSITIVE, "error_multiple": _POSITIVE,
    "p": (lambda v, n: v is None or _is_real(v) and v > 0.0, "a number > 0"),
    "centers": (lambda v, n: isinstance(v, list) and all(isinstance(c, list) and len(c) == n + 1
                and all(map(_is_real, c)) for c in v), "a list of (n + 1)-coordinate points"),
    "lp_check": (lambda v, n: isinstance(v, bool), "true or false"),
    "perturbations": (lambda v, n: v is None or isinstance(v, list), "a list"),
}
_NEEDS_SEED = {"potential_identity", "interior_inequality", "rigidity", "lp_check"}
_PERTURBATION_KINDS = {"spatial_shift", "radius_mismatch", "slice_scale", "bite"}
_MAX_N = 3  # the Gaussian engine (quadrature._lines, _gauss_tensor_stack) covers n = 1, 2, 3
_FLOAT_MAX = sys.float_info.max


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


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


def _real_array(value, name: str) -> np.ndarray:
    """A rectangular list (of lists) of finite numbers as a float array, else SchemaError."""
    if not isinstance(value, list) or not all(
            _is_real(v) for v in np.array(value, dtype=object).ravel()):
        raise SchemaError(f"{name} must be a rectangular list of finite numbers")
    return np.array(value, dtype=float)


def _reject_unknown(section: str, data: dict, allowed: set):
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in section '{section}': {sorted(unknown)}")


def _parse_operator(data: dict) -> OperatorSpec:
    if not isinstance(data, dict):
        raise SchemaError("section 'operator' must be an object")
    block_sizes = data.get("block_sizes")
    if (not isinstance(block_sizes, list) or not block_sizes
            or not all(_is_real(p) and float(p).is_integer() for p in block_sizes)):
        raise SchemaError("operator.block_sizes must be a nonempty list of integers")
    r = len(block_sizes) - 1
    allowed = _OPERATOR_KEYS | {f"B{j}" for j in range(1, r + 1)}
    _reject_unknown("operator", data, allowed)
    if "A0" not in data:
        raise SchemaError("operator.A0 is required")
    A0 = _real_array(data["A0"], "operator.A0")
    blocks = []
    for j in range(1, r + 1):
        key = f"B{j}"
        if key not in data:
            raise SchemaError(f"operator.{key} is required for {r} drift blocks")
        blocks.append(_real_array(data[key], f"operator.{key}"))
    n = int(sum(block_sizes))
    if n > _MAX_N:
        raise SchemaError(f"operator dimension n = {n} is not supported (n <= {_MAX_N})")
    try:
        return validate_operator(n, block_sizes, A0, blocks)
    except OperatorValidationError as exc:
        raise SchemaError(f"invalid operator: {exc}") from exc


def _parse_ball(data: dict, n: int):
    if not isinstance(data, dict):
        raise SchemaError("section 'ball' must be an object")
    _reject_unknown("ball", data, _BALL_KEYS)
    if "r" not in data:
        raise SchemaError("ball.r is required")
    r = data["r"]
    if not (_is_real(r) and r > 0.0):
        raise SchemaError("ball.r must be a finite number > 0")
    z0 = _real_array(data.get("z0", [0.0] * (n + 1)), "ball.z0")
    if z0.shape != (n + 1,):
        raise SchemaError(f"ball.z0 must be a list of {n + 1} coordinates (space then time)")
    factors = _real_array(data.get("r_factors", [1.0]), "ball.r_factors")
    if factors.ndim != 1 or not factors.size:
        raise SchemaError("ball.r_factors must be a nonempty list")
    radii = tuple(r * float(f) for f in factors)
    if not all(0.0 < x <= _FLOAT_MAX for x in radii):
        raise SchemaError("all ball radii must be positive and finite")
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
            if not _is_real(data[key]):
                raise SchemaError(f"quadrature.{key} must be a finite number")
            kwargs[key] = cast(data[key])
    kwargs.pop("workers", None)  # accepted for older configs; nothing reads it
    try:
        return QuadratureConfig(**kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _parse_experiments(data, n: int) -> list[dict]:
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
        for key, (check, what) in _VALUES.items():
            if key in exp and not check(exp[key], n):
                raise SchemaError(f"{name}.{key} must be {what}")
        one = exp.get("perturbation")
        for pert in [one] if one is not None else exp.get("perturbations") or []:
            if not isinstance(pert, dict) or pert.get("kind") not in _PERTURBATION_KINDS:
                raise SchemaError(
                    f"{name} perturbations need a kind in {sorted(_PERTURBATION_KINDS)}")
            if not (_is_real(pert.get("magnitude")) and 0.0 < pert["magnitude"] < 1.0):
                raise SchemaError(f"{name} perturbation magnitude must be a number in (0, 1)")
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
    experiments = _parse_experiments(raw["experiments"], spec.n)
    needs_seed = any(e["name"] in _NEEDS_SEED for e in experiments)
    quad = _parse_quadrature(raw["quadrature"], needs_seed)
    out_dir, fmt = _parse_output(raw["output"])
    return ExperimentConfig(
        spec=spec, z0=z0, radii=radii, quadrature=quad,
        experiments=experiments, output_dir=out_dir, output_format=fmt, raw=raw,
    )
