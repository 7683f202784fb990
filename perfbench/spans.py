"""Span tracing of kolpot's layers, installed from outside the library.

``Tracer.install`` replaces the public functions and methods of every layer
module with thin wrappers, at each place the original is bound: the class for
methods, and for functions every ``kolpot`` module namespace that holds it
(the defining module and each module that imported the name).  Calls made
inside the library go through those names, so they are traced too.
``uninstall`` puts the originals back.

Spans are kept in flat in-memory arrays (name id, start, end, parent span,
item id) and written out once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children.

The profile callback that ``integrate_time_profile`` evaluates is wrapped as
its own span, named after the caller of the time rule plus ``.profile``
(``lab.kernel_gamma_integral.profile``, ``quadrature.integrate_over_ball.
profile``, ...).  The time rule's self time is therefore the refinement loop
alone, and the per-node work is charged to the layer that built the profile.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = (
    "operators", "covariance", "fundsol", "balls", "domains",
    "quadrature", "harmonic", "lab", "experiments", "config", "cli",
)
OPERATORS = ("heat1", "heat2", "proto", "chain")

_now = time.perf_counter


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_item = -1
        self.counts: collections.Counter = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()

    def span(self, fn, name: str):
        """``fn`` wrapped so that each call records one span called ``name``."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    # -- special wrappers ----------------------------------------------------

    def _time_rule(self, fn):
        nid = self.name_id("quadrature.integrate_time_profile")
        counts, open_, close = self.counts, self.open, self.close

        @functools.wraps(fn)
        def wrapper(profile, *args, **kwargs):
            caller = self.names[self.name[self.stack[-1]]] if self.stack else "bench"
            pid = self.name_id(caller + ".profile")
            node_key = caller + ".profile.nodes"

            def traced_profile(s):
                counts[node_key] += np.size(s)
                idx = open_(pid)
                try:
                    return profile(s)
                finally:
                    close(idx)

            idx = open_(nid)
            try:
                res = fn(traced_profile, *args, **kwargs)
            finally:
                close(idx)
            counts["quadrature.time_rule.integrals"] += 1
            counts["quadrature.time_rule.cells"] += res.cells
            return res

        return wrapper

    def _gauss_auto(self, fn):
        open_, close, name_id = self.open, self.close, self.name_id

        @functools.wraps(fn)
        def wrapper(ell, *args, **kwargs):
            idx = open_(name_id(f"quadrature.gaussian_quadratic_auto.n{len(ell.center)}"))
            try:
                return fn(ell, *args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _run_experiment(self, fn):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(exp, *args, **kwargs):
            idx = open_(self.name_id(f"experiments.run_experiment.{exp['name']}"))
            try:
                return fn(exp, *args, **kwargs)
            finally:
                close(idx)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        special = {
            "quadrature.integrate_time_profile": self._time_rule,
            "quadrature.gaussian_quadratic_auto": self._gauss_auto,
            "experiments.run_experiment": self._run_experiment,
        }
        kolpot_modules = [m for k, m in sys.modules.items()
                          if k == "kolpot" or k.startswith("kolpot.")]
        for layer in LAYERS:
            mod = sys.modules[f"kolpot.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and isinstance(meth, types.FunctionType):
                            name = f"{layer}.{obj.__name__}.{mattr}"
                            make = special.get(name)
                            self._patch(obj, mattr, make(meth) if make else self.span(meth, name))
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    make = special.get(name)
                    wrapped = make(obj) if make else self.span(obj, name)
                    for m in kolpot_modules:
                        for mattr, val in list(vars(m).items()):
                            if val is obj:
                                self._patch(m, mattr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int32),
            "item": np.frombuffer(self.item, dtype=np.intc).astype(np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name aggregates of a finished trace: calls, total and self time."""

    def __init__(self, tracer: Tracer, item_labels: dict[int, str]):
        a = tracer.arrays()
        self.names = tracer.names
        self.counts = tracer.counts
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        selft = dur - child
        k = len(self.names)
        self.n_spans = int(dur.size)
        self.calls_by = np.bincount(a["name"], minlength=k)
        self.total_by = np.bincount(a["name"], weights=dur, minlength=k)
        self.self_by = np.bincount(a["name"], weights=selft, minlength=k)
        self._idx = {n: i for i, n in enumerate(self.names)}
        self._a, self._dur = a, dur
        self._labels = item_labels

    def _ids(self, pattern: str) -> list[int]:
        """Names equal to ``pattern``, or matching its one ``*`` component."""
        if "*" not in pattern:
            return [self._idx[pattern]] if pattern in self._idx else []
        head, tail = pattern.split("*")
        return [i for n, i in self._idx.items()
                if n.startswith(head) and n.endswith(tail) and n.count(".") == pattern.count(".")]

    def calls(self, *patterns: str) -> int:
        return int(sum(self.calls_by[i] for p in patterns for i in self._ids(p)))

    def total_ms(self, *patterns: str) -> float:
        return 1e3 * float(sum(self.total_by[i] for p in patterns for i in self._ids(p)))

    def self_ms(self, *patterns: str) -> float:
        return 1e3 * float(sum(self.self_by[i] for p in patterns for i in self._ids(p)))

    def layer_self_ms(self, layer: str) -> float:
        return 1e3 * float(sum(self.self_by[i] for n, i in self._idx.items()
                               if n.split(".", 1)[0] == layer))

    def ms_per_call_for_label(self, name: str, label: str) -> float:
        ids = self._ids(name)
        if not ids:
            return 0.0
        a = self._a
        sel = (a["name"] == ids[0]) & np.isin(
            a["item"], [i for i, lab in self._labels.items() if lab == label])
        n = int(sel.sum())
        return 1e3 * float(self._dur[sel].sum()) / n if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: SpanTable, not_converged: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics that come from the trace, as name -> (value, unit)."""
    c = t.counts
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    cov = "covariance.CovarianceModel."
    put("covariance.C_inverse.calls", t.calls(cov + "C_inverse"), "count")
    put("covariance.C_inverse.self_ms", t.self_ms(cov + "C_inverse"), "ms")
    put("covariance.C.calls", t.calls(cov + "C"), "count")
    put("covariance.detC.calls", t.calls(cov + "detC"), "count")
    put("covariance.detC.self_ms", t.self_ms(cov + "detC"), "ms")

    put("fundsol.W_quadratic.calls", t.calls("fundsol.GammaEvaluator.W_quadratic"), "count")
    put("fundsol.W_quadratic.self_ms", t.self_ms("fundsol.GammaEvaluator.W_quadratic"), "ms")
    put("fundsol.Gamma.calls", t.calls("fundsol.GammaEvaluator.Gamma"), "count")

    put("operators.transport_matrix.calls", t.calls("operators.transport_matrix"), "count")
    put("operators.transport_matrix.self_ms", t.self_ms("operators.transport_matrix"), "ms")

    # LBall.slice_at only delegates to ball_slice; together they are the slice geometry
    put("balls.slice_at.calls", t.calls("balls.LBall.slice_at"), "count")
    put("balls.slice_at.self_ms", t.self_ms("balls.LBall.slice_at", "balls.ball_slice"), "ms")
    put("balls.slice_center.calls", t.calls("balls.LBall.slice_center"), "count")
    put("balls.rho.calls", t.calls("balls.LBall.rho"), "count")
    put("balls.ball_bounding_box.self_ms", t.self_ms("balls.ball_bounding_box"), "ms")
    put("balls.lball.self_ms", t.self_ms("balls.lball"), "ms")

    put("domains.signed_slices.calls", t.calls("domains.*.signed_slices"), "count")
    put("domains.signed_slices.self_ms", t.self_ms("domains.*.signed_slices"), "ms")

    integrals = c["quadrature.time_rule.integrals"]
    cells = c["quadrature.time_rule.cells"]
    nodes = sum(v for k, v in c.items() if k.endswith(".profile.nodes"))
    put("quadrature.time_rule.integrals", integrals, "count")
    put("quadrature.time_rule.cells", cells, "count")
    put("quadrature.time_rule.cells_per_integral", _ratio(cells, integrals), "count")
    put("quadrature.time_rule.nodes", nodes, "count")
    put("quadrature.time_rule.not_converged", not_converged, "count")
    put("quadrature.time_rule.self_ms", t.self_ms("quadrature.integrate_time_profile"), "ms")

    auto = "quadrature.gaussian_quadratic_auto."
    for n in (1, 2, 3):
        put(f"quadrature.gauss_quad.calls.n{n}", t.calls(f"{auto}n{n}"), "count")
    for n in (1, 2, 3):
        put(f"quadrature.gauss_quad.us_per_slice.n{n}",
            1e3 * _ratio(t.total_ms(f"{auto}n{n}"), t.calls(f"{auto}n{n}")), "us")
    put("quadrature.gauss_quad.tensor_share",
        _ratio(t.calls("quadrature.gaussian_quadratic_tensor"), t.calls(auto + "*")), "ratio")

    exact = "quadrature.integrate_over_ball.profile"
    put("quadrature.exact_path.slice_integrals", c[exact + ".nodes"], "count")
    put("quadrature.exact_path.self_ms", t.self_ms(exact), "ms")

    put("harmonic.basis.self_ms", t.self_ms("harmonic.harmonic_basis"), "ms")
    put("harmonic.evaluate.calls", t.calls("harmonic.AnisoPolynomial.evaluate"), "count")
    put("harmonic.evaluate.self_ms", t.self_ms("harmonic.AnisoPolynomial.evaluate"), "ms")

    kgi = "lab.kernel_gamma_integral"
    for op in OPERATORS:
        put(f"{kgi}.ms_per_call.{op}", t.ms_per_call_for_label(kgi, op), "ms")
    put(f"{kgi}.self_ms", t.self_ms(kgi, kgi + ".profile"), "ms")
    put("lab.mean_value.ms_per_call",
        _ratio(t.total_ms("lab.mean_value"), t.calls("lab.mean_value")), "ms")
    put("lab.lp_condition_norm.calls", t.calls("lab.lp_condition_norm"), "count")
    put("lab.lp_condition_norm.self_ms",
        t.self_ms("lab.lp_condition_norm", "lab.lp_condition_norm.profile"), "ms")
    put("lab.exterior_test_points.ms", t.total_ms("lab.exterior_test_points"), "ms")
    put("lab.interior_inequality_margin.ms", t.total_ms("lab.interior_inequality_margin"), "ms")

    put("experiments.run_experiment.ms.rigidity",
        t.total_ms("experiments.run_experiment.rigidity"), "ms")
    put("experiments.run_experiment.ms.interior_inequality",
        t.total_ms("experiments.run_experiment.interior_inequality"), "ms")
    put("config.load_config.ms", t.total_ms("config.load_config"), "ms")
    put("cli.run.self_ms", t.self_ms("cli.run"), "ms")

    for layer in LAYERS:
        put(f"layer.{layer}.self_ms", t.layer_self_ms(layer), "ms")
    put("tracing.spans", t.n_spans, "count")
    return m
