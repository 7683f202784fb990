"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload exterior --seeds 1-10 [--trace 0]
    python3 perfbench/spread.py --workload exterior --seeds 101 --repeat 10

Runs ``run.py`` ``--repeat`` times per seed, one run after another, and
prints for each metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median, next to the metric's bound from BENCHMARK.json.  Many
seeds mix input cost with host noise; one seed repeated shows host noise
alone.  The wall time of each run is printed too, to check the total run
budget.  With ``--trace 1`` it instead reports, per seed, whether the
counters of two traced runs agree exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def counts_of(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "ratio")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    seeds = [seed for seed in _seeds(args.seeds) for _ in range(args.repeat)]

    if args.trace:
        same = True
        for seed in seeds:
            a, b = (counts_of(run_once(args.workload, seed, seconds, 1)) for _ in range(2))
            diff = sorted(k for k in a if a[k] != b.get(k))
            same &= not diff
            verdict = f"counters differ: {diff}" if diff else "identical counters"
            print(f"seed {seed}: {verdict}")
        return 0 if same else 1

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls = []
    for seed in seeds:
        t0 = time.perf_counter()
        res = run_once(args.workload, seed, seconds, 0)
        walls.append(time.perf_counter() - t0)
        print(f"seed {seed}: wall {walls[-1]:.1f} s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(k)
        print(f"{args.workload:12s} {k:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bound}  bound/3 {bound / 3:.4f}")
    print(f"{args.workload:12s} wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
