"""The three benchmark workloads.

Each workload builds every input from its seed in ``setup`` and hands out
items in rounds.  An item is a zero-argument callable that drives kolpot
once and returns whether the output passed its correctness check; it carries
the operator it ran on as its label.  Every round covers the same fixed
cases (all four operators; for mean values, every radius), so rounds cost
about the same; the seed picks the points, centres and solutions, and
successive rounds step through them, so that a run averages over many
inputs and two seeds cost about the same.

The library is called through its module objects (``lab.mean_value``, not a
name imported from it), so that tracing wrappers installed after set-up are
the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from kolpot import balls, cli, config, domains, fundsol, harmonic, lab, operators, quadrature

# the criterion-6 base radii; heat1 and proto have temporal depth one
BASE_RADII = {
    "heat1": math.sqrt(4.0 * math.pi),
    "heat2": 4.0,
    "proto": 2.0 * math.pi / math.sqrt(3.0),
    "chain": 4.0,
}
OPS = tuple(BASE_RADII)


def _spec(name: str):
    if name == "heat1":
        return operators.heat_operator(1)
    if name == "heat2":
        return operators.heat_operator(2)
    if name == "proto":
        return operators.kolmogorov_prototype()
    return operators.chain_operator()


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Workload:
    name = ""
    trace_rounds = 1  # rounds in each pass of a traced run

    def __init__(self, seed: int, root: Path):
        self.seed = int(seed)
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, j: int) -> list[tuple[str, object]]:
        raise NotImplementedError


class Exterior(Workload):
    """One below-the-ball exterior point through potential_identity_residual.

    Round j takes the j-th of each operator's seeded "below" points.
    """

    name = "exterior"
    trace_rounds = 2

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.cfg = quadrature.QuadratureConfig(time_tol=1e-8, seed=self.seed)
        self.cases = {}
        for op in OPS:
            spec = _spec(op)
            ball = balls.lball(spec, BASE_RADII[op], ev=fundsol.GammaEvaluator(spec))
            domain = domains.ExactBall(ball)
            pts = lab.exterior_test_points(domain, ball, 72, seed=_sub_seed(rng))
            below = [p for p in pts if p[1] == "below"]
            if not below:
                raise RuntimeError(f"no exterior points below the {op} ball")
            self.cases[op] = (ball, domain, below)

    def _item(self, op, j):
        ball, domain, below = self.cases[op]
        point = below[j % len(below)]

        def run():
            rep = lab.potential_identity_residual(domain, ball, [point], self.cfg,
                                                  seed=self.seed)
            return rep.sup_rel_residual < 1e-5

        return op, run

    def round(self, j):
        return [self._item(op, j) for op in OPS]


class MeanValue(Workload):
    """One mean value of a degree <= 4 solution, or the kernel mass r.

    A round holds, per operator, every radius 2^k r once: every other radius
    at the origin, the rest at the round's seeded translated centre, each with
    the next entry of a seeded ordering of the basis plus the constant (the
    kernel mass).  Successive rounds move on through centres and basis.
    """

    name = "mean_value"
    trace_rounds = 2
    POWERS = (-3, -1, 0, 2, 4)
    CENTRES = 16

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.cfg = quadrature.QuadratureConfig(time_tol=1e-9, seed=self.seed)
        self.cases = {}
        for op in OPS:
            spec = _spec(op)
            ev = fundsol.GammaEvaluator(spec)
            # None stands for the constant 1 integrated against the kernel alone
            basis = list(harmonic.harmonic_basis(spec, 4)) + [None]
            order = [basis[i] for i in rng.permutation(len(basis))]
            shifted = [spec.point(0.5 * rng.standard_normal(spec.n), rng.uniform(-0.5, 0.5))
                       for _ in range(self.CENTRES)]
            balls_at = [[balls.lball(spec, BASE_RADII[op] * 2.0 ** k, centre, ev)
                         for k in self.POWERS] for centre in [spec.origin()] + shifted]
            self.cases[op] = (balls_at, order)

    def _item(self, ball, u):
        def run():
            if u is None:
                one = harmonic.AnisoPolynomial.constant(ball.spec.n, 1.0)
                got = quadrature.integrate_over_ball(one, ball, self.cfg, kernel=True).value
                return abs(got - ball.r) / ball.r < 1e-7
            target = u(ball.z0)
            got = lab.mean_value(u, ball, self.cfg).value
            return abs(got - target) / (1.0 + abs(target)) < 1e-7

        return run

    def round(self, j):
        items = []
        for op in OPS:
            balls_at, order = self.cases[op]
            for i in range(len(self.POWERS)):
                centre = 0 if i % 2 == 0 else 1 + j % self.CENTRES
                u = order[(j * len(self.POWERS) + i) % len(order)]
                items.append((op, self._item(balls_at[centre][i], u)))
        return items


class Rigidity(Workload):
    """One run of the bundled prototype rigidity config through kolpot.cli.run."""

    name = "rigidity"

    def setup(self):
        self.config_path = self.root / "configs" / "prototype_rigidity.json"
        config.load_config(self.config_path)  # a bad config fails here, before timing
        self.scratch = self.root / ".bench_out"
        self.scratch.mkdir(exist_ok=True)

    def _run(self):
        out = tempfile.mkdtemp(prefix="rigidity-", dir=self.scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.run(str(self.config_path), seed=self.seed, out_dir=out)
            if rc != 0:
                return False
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            if summary.get("passed") is not True or summary.get("seed") != self.seed:
                return False
            for exp in summary["experiments"]:
                with open(os.path.join(out, f"{exp['name']}.json")) as fh:
                    json.load(fh)
                with open(os.path.join(out, f"{exp['name']}.csv"), newline="") as fh:
                    if len(list(csv.reader(fh))) < 2:
                        return False
            return True
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def round(self, j):
        return [("proto", self._run)]


WORKLOADS = {w.name: w for w in (Exterior, MeanValue, Rigidity)}
