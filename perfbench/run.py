"""kolpot benchmark: one workload, one seed, closed loop, single thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exterior --seed 1 --seconds 30 --trace 0

Workloads are ``exterior``, ``mean_value`` and ``rigidity`` (see
``workloads.py``).  One caller issues the next item only after the previous
one has returned and been checked.  ``--seconds`` defaults to
``run_seconds`` in BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics with tracing off.  After set-up
it runs whole rounds until ``--seconds`` have passed.  A round holds the same
number of items each time, one or more per operator (see ``workloads.py``).
``items_per_s`` is items per round over the median round wall time, and
``cpu_ms_per_item`` the median round's process CPU time per item: medians,
because a run on a shared host sees its core slowed for stretches of seconds,
and the median round is the one such a stretch moves least.  ``setup_s`` is
the median of five cold set-ups (import plus the workload's set-up): this
process, and four fresh interpreters started for it.

``--trace 1`` measures the per-layer metrics.  It runs a fixed number of
rounds, so that its counters repeat exactly for a seed: first untraced, then
with every layer wrapped (see ``spans.py``).  The difference of the two
rates is the tracing overhead.  The spans and metrics are written to
``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every item passed its check, 1 when one did not, and 2 when kolpot
cannot be found.
"""

import os

# one thread: pinned before numpy is imported, so its BLAS reads these
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exterior", "mean_value", "rigidity")
SETUP_SAMPLES = 5


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed length of a --trace 0 run (default: run_seconds "
                         "in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up and print it (used for setup_s)")
    args = ap.parse_args(argv)
    if args.seconds is None:
        bench = ROOT / "BENCHMARK.json"
        if not bench.is_file():
            ap.error("--seconds is required without BENCHMARK.json")
        args.seconds = float(json.loads(bench.read_text())["run_seconds"])
    return args


def _cold_setup(name: str, seed: int):
    """Imports kolpot and sets the workload up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, ROOT)
    wl.setup()
    return wl, time.perf_counter() - t0


def _child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stdout}{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _environment() -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "thread_env": THREAD_ENV,
    }


class Pass:
    """Closed-loop execution of whole rounds, with failure accounting.

    Keeps the wall and process CPU time of every round.
    """

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.labels: dict[int, str] = {}
        self.tolerance_warnings = 0
        self.other_warnings = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def _item(self, label, fn) -> bool:
        item_id = self.attempted
        self.labels[item_id] = label
        tracer = self.tracer
        if tracer is not None:
            tracer.current_item = item_id
            span = tracer.open(tracer.name_id("bench.item"))
        try:
            return bool(fn())
        except Exception:  # an item that raises is a failed item; keep going
            print(f"item {item_id} ({label}) raised:\n{traceback.format_exc()}")
            return False
        finally:
            if tracer is not None:
                tracer.close(span)

    def run(self, stop) -> "Pass":
        """Runs rounds until ``stop(elapsed_s, rounds_done)`` holds."""
        from kolpot.errors import ToleranceWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            while True:
                w0, c0 = time.perf_counter(), time.process_time()
                for label, fn in self.wl.round(len(self.walls)):
                    ok = self._item(label, fn)
                    self.attempted += 1
                    self.failed += not ok
                self.cpus.append(time.process_time() - c0)
                self.walls.append(time.perf_counter() - w0)
                if stop(time.perf_counter() - t0, len(self.walls)):
                    break
        self.tolerance_warnings = sum(issubclass(w.category, ToleranceWarning) for w in caught)
        self.other_warnings = len(caught) - self.tolerance_warnings
        return self

    @property
    def items_per_round(self) -> float:
        return self.attempted / len(self.walls)

    @property
    def items_per_s(self) -> float:
        return self.items_per_round / statistics.median(self.walls)

    @property
    def cpu_ms_per_item(self) -> float:
        return 1e3 * statistics.median(self.cpus) / self.items_per_round


def _declared(kind: str):
    """Metric name -> unit declared in BENCHMARK.json, or None without it."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[kind]}


def _check_declared(metrics: dict, kind: str) -> bool:
    declared = _declared(kind)
    if declared is None:
        return True
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != declared:
        print(f"metrics differ from BENCHMARK.json {kind}: "
              f"missing {sorted(set(declared) - set(got))}, "
              f"extra {sorted(set(got) - set(declared))}, "
              f"unit mismatch {sorted(k for k in got if k in declared and got[k] != declared[k])}")
        return False
    return True


def _untraced(args) -> dict:
    wl, setup_in = _cold_setup(args.workload, args.seed)
    main = Pass(wl).run(lambda elapsed, rounds: elapsed >= args.seconds)
    setups = [setup_in] + [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup samples (s): {setups}")
    print(f"rounds {len(main.walls)}: items {main.attempted}, failed {main.failed}, "
          f"wall {sum(main.walls):.3f} s, tolerance warnings {main.tolerance_warnings}, "
          f"other warnings {main.other_warnings}")
    print(f"round wall times (s): {[round(w, 4) for w in main.walls]}")
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s": {"value": main.items_per_s, "unit": "1/s"},
        "cpu_ms_per_item": {"value": main.cpu_ms_per_item, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    ok = main.failed == 0 and _check_declared(metrics, "end_to_end")
    return {"correct": ok, "attempted": main.attempted, "failed": main.failed,
            "metrics": metrics}


def _traced(args) -> dict:
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROOT)
    tracer = spans.Tracer()
    tracer.install()
    span = tracer.open(tracer.name_id("bench.setup"))
    try:
        wl.setup()
    finally:
        tracer.close(span)
        tracer.uninstall()

    def stop(elapsed, rounds):
        return rounds >= wl.trace_rounds

    plain = Pass(wl).run(stop)
    tracer.install()
    try:
        traced = Pass(wl, tracer).run(stop)
    finally:
        tracer.uninstall()

    table = spans.SpanTable(tracer, traced.labels)
    layer = spans.per_layer_metrics(table, traced.tolerance_warnings)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    layer["tracing.overhead_items_per_s"] = (plain.items_per_s - traced.items_per_s, "1/s")
    layer["failed_frac"] = (failed / attempted, "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = out / f"trace-{args.workload}-seed{args.seed}"
    tracer.save(str(stem) + ".npz")
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": wl.trace_rounds,
        "environment": _environment(), "untraced_items_per_s": plain.items_per_s,
        "traced_items_per_s": traced.items_per_s, "metrics": metrics,
    }, indent=1, sort_keys=True))
    print(f"untraced {plain.items_per_s:.4f} items/s, traced {traced.items_per_s:.4f} "
          f"items/s, {table.n_spans} spans written to {stem}.npz")
    ok = failed == 0 and _check_declared(metrics, "per_layer")
    return {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "kolpot" / "__init__.py").is_file():
        print(f"kolpot sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        _, seconds = _cold_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    result = _traced(args) if args.trace else _untraced(args)
    print(f"environment: {json.dumps(_environment(), sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
