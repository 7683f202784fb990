"""Command-line driver: run experiment configs, describe ball geometry.

    kolpot run CONFIG [--seed N] [--out DIR] [--format json|csv|both]
    kolpot describe CONFIG [--slices-csv PATH]

``run`` executes every experiment in the config, writes one JSON (and
optionally CSV) report per experiment plus a summary, and exits 0 only if all
experiments pass their thresholds (for the rigidity experiment, detecting the
violation on perturbed domains is the pass).  Reports embed the tool version,
operator hash, seed and tolerances, and rerunning the same config and seed
reproduces them byte for byte, regardless of the worker count.

Exit codes: 0 success, 1 experiment failure, 2 config/schema error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .balls import ball_bounding_box, export_slices_csv, lball
from .config import load_config
from .errors import ConfigParseError, KolpotError, SchemaError
from .experiments import run_experiment
from .fundsol import GammaEvaluator
from .operators import operator_hash

__all__ = ["main", "run", "describe"]

_DESCRIBE_SLICES = 200  # slices written by describe --slices-csv


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kolpot-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _flatten_rows(report: dict):
    for key in ("rows", "results"):
        if key in report:
            return report[key]
    if "reports" in report:
        rows = []
        for sub in report["reports"]:
            rows.extend(sub.get("points", []))
        return rows
    return []


def _write_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        _atomic_write(path, "")
        return
    cols = sorted({k for row in rows for k in row})
    out = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "")
            if isinstance(v, float):
                cells.append(repr(v))
            elif isinstance(v, (dict, list)):
                cells.append(json.dumps(v, sort_keys=True).replace(",", ";"))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    _atomic_write(path, "\n".join(out) + "\n")


def run(config_path: str, seed: int | None = None, out_dir: str | None = None,
        fmt: str | None = None) -> int:
    """Execute a config; returns the process exit code."""
    try:
        cfg = load_config(config_path)
    except (ConfigParseError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    quad = cfg.quadrature
    if seed is not None:
        quad = dataclasses.replace(quad, seed=int(seed))
    out_dir = out_dir or cfg.output_dir
    fmt = fmt or cfg.output_format
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3

    summary = {"version": __version__, "config": os.path.basename(str(config_path)),
               "operator_hash": operator_hash(cfg.spec), "seed": quad.seed,
               "experiments": [], "passed": True}
    try:
        for exp in cfg.experiments:
            report = run_experiment(exp, cfg.spec, cfg.z0, cfg.radii, quad)
            name = exp["name"]
            if fmt in ("json", "both"):
                _atomic_write(os.path.join(out_dir, f"{name}.json"), _dump_json(report))
            if fmt in ("csv", "both"):
                _write_csv(os.path.join(out_dir, f"{name}.csv"), _flatten_rows(report))
            summary["experiments"].append({"name": name, "passed": report["passed"]})
            summary["passed"] = summary["passed"] and report["passed"]
            status = "PASS" if report["passed"] else "FAIL"
            print(f"[{status}] {name}")
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except KolpotError as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return 1
    try:
        _atomic_write(os.path.join(out_dir, "summary.json"), _dump_json(summary))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    if not summary["passed"]:
        print(_dump_json({"failure_summary": summary}), file=sys.stderr)
        return 1
    return 0


def describe(config_path: str, slices_csv: str | None = None) -> int:
    """Print operator and ball geometry without running any experiments."""
    try:
        cfg = load_config(config_path)
    except (ConfigParseError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    spec = cfg.spec
    print(f"operator: n={spec.n} blocks={list(spec.block_sizes)} Q={spec.Q} "
          f"hash={operator_hash(spec)}")
    if spec.is_heat:
        print("heat operator specialization (B = 0, A = I)")
    ev = GammaEvaluator(spec)
    z0 = spec.point(np.asarray(cfg.z0[:-1]), cfg.z0[-1])
    for r in cfg.radii:
        ball = lball(spec, r, z0, ev)
        lo, hi = ball_bounding_box(ball)
        print(f"r={r:.6g}: s_max={ball.s_max:.6g} "
              f"time=({lo[-1]:.6g}, {hi[-1]:.6g}) "
              f"box={[f'{a:.4g}..{b:.4g}' for a, b in zip(lo[:-1], hi[:-1])]} "
              f"export_slices={_DESCRIBE_SLICES}")
        if slices_csv:
            export_slices_csv(ball, slices_csv, count=_DESCRIBE_SLICES)
            print(f"slices written to {slices_csv}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kolpot",
                                     description="potential-theory experiments for "
                                                 "Kolmogorov-type operators")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiments in a config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--format", choices=["json", "csv", "both"], default=None)

    p_desc = sub.add_parser("describe", help="print geometry derived from a config")
    p_desc.add_argument("config")
    p_desc.add_argument("--slices-csv", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, seed=args.seed, out_dir=args.out, fmt=args.format)
    return describe(args.config, slices_csv=args.slices_csv)


if __name__ == "__main__":
    sys.exit(main())
