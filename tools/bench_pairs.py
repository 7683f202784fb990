"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload exterior --seeds 1-10

For each seed it runs ``perfbench/run.py --workload W --seed S`` once in each
checkout, the parent first on even pairs and the change first on odd ones, so
that a slow stretch of a shared host does not land on one side only.  It then
prints, per end-to-end metric, the median and quartiles
(``statistics.quantiles(values, n=4)``) of each side, the ratio of the
medians, and in how many pairs each side was better, by the metric's
``better`` direction in the change's BENCHMARK.json.  ``--seconds`` is passed
on to ``run.py`` (default: its own, ``run_seconds``).  ``--json PATH`` also
writes that summary as JSON (``bench_record``), for a ``BENCH_<label>.json``
trajectory file.

Exit codes: 0 when every run finished with no failed item, 1 when a run
failed an item, 2 when a run could not be parsed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def result_line(stdout: str) -> dict:
    """The result object: the last line of run.py's standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric of ``better`` over (parent, change) result pairs.

    ``better`` maps a metric name to "higher" or "lower".  A row holds each
    side's median and quartiles, ``ratio`` (change median over parent
    median), and the pairs each side won; equal values win for neither.
    """
    rows = []
    for name, direction in better.items():
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
               if name in p["metrics"] and name in c["metrics"]]
        if not got:
            continue
        parent = [p for p, _ in got]
        change = [c for _, c in got]
        sign = 1.0 if direction == "higher" else -1.0
        med_p, med_c = statistics.median(parent), statistics.median(change)
        rows.append({
            "metric": name,
            "parent": (med_p, *_quartiles(parent)),
            "change": (med_c, *_quartiles(change)),
            "ratio": med_c / med_p if med_p else float("nan"),
            "wins_parent": sum(sign * (p - c) > 0 for p, c in got),
            "wins_change": sum(sign * (c - p) > 0 for p, c in got),
            "pairs": len(got),
        })
    return rows


def bench_record(workload: str, seeds: list[int], rows: list[dict]) -> dict:
    """The summary rows as one JSON object: the workload, the seeds and, per
    metric, each side's median and quartiles, the ratio of medians and the wins."""
    metrics = {}
    for r in rows:
        metrics[r["metric"]] = {
            **{side: dict(zip(("median", "q1", "q3"), r[side])) for side in ("parent", "change")},
            "ratio": r["ratio"], "wins_parent": r["wins_parent"],
            "wins_change": r["wins_change"], "pairs": r["pairs"]}
    return {"workload": workload, "seeds": seeds, "metrics": metrics}


def format_rows(rows: list[dict]) -> str:
    head = (f"{'metric':<18} {'parent median (q1-q3)':>30} {'change median (q1-q3)':>30} "
            f"{'ratio':>7} {'wins p/c':>9}")
    out = [head]
    for r in rows:
        p, c = r["parent"], r["change"]
        out.append(f"{r['metric']:<18} {p[0]:>11.4g} ({p[1]:.4g}-{p[2]:.4g}) "
                   f"{c[0]:>11.4g} ({c[1]:.4g}-{c[2]:.4g}) {r['ratio']:>7.3f} "
                   f"{r['wins_parent']:>4}/{r['wins_change']:<4}")
    return "\n".join(out)


def _run(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout, timeout=900)
    try:
        return result_line(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"{checkout} seed {seed}: no result (exit {proc.returncode}): "
                         f"{exc}\n{proc.stderr}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--json", type=Path, default=None, help="also write the summary here")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, failed, seeds = [], 0, parse_seeds(args.seeds)
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        res = {side: _run(sides[side], args.workload, seed, args.seconds) for side in order}
        failed += res["parent"]["failed"] + res["change"]["failed"]
        pairs.append((res["parent"], res["change"]))
        items = {s: res[s]["metrics"].get("items_per_s", {}).get("value") for s in order}
        print(f"seed {seed} ({order[0]} first): items_per_s parent {items['parent']:.4g}, "
              f"change {items['change']:.4g}, failed {res['parent']['failed']}/"
              f"{res['change']['failed']}", flush=True)
    rows = summarize(pairs, better)
    print(format_rows(rows))
    if args.json is not None:
        args.json.write_text(json.dumps(bench_record(args.workload, seeds, rows), indent=1) + "\n")
    print(f"failed items: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
