"""tools/bench_pairs.py: the pair summary on canned run.py result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher", "cpu_ms_per_item": "lower", "peak_rss_mb": "lower"}


def _line(items, cpu, rss, failed=0):
    """The last stdout line of one untraced run.py run."""
    metrics = {"items_per_s": {"value": items, "unit": "1/s"},
               "cpu_ms_per_item": {"value": cpu, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "rounds 12: items 48, failed 0\n" + json.dumps(
        {"correct": failed == 0, "attempted": 48, "failed": failed, "metrics": metrics})


def test_result_line_reads_the_last_line():
    assert bench_pairs.result_line(_line(5.0, 150.0, 67.0))["metrics"]["items_per_s"]["value"] == 5.0
    with pytest.raises(ValueError):
        bench_pairs.result_line("  \n")


def test_parse_seeds():
    assert bench_pairs.parse_seeds("7101-7103,7110") == [7101, 7102, 7103, 7110]


def test_summary_medians_quartiles_and_wins():
    parent = [(5.0, 160.0, 67.0), (6.0, 150.0, 67.5), (7.0, 140.0, 67.4), (5.5, 155.0, 67.2)]
    change = [(8.0, 110.0, 68.0), (5.0, 120.0, 67.5), (9.0, 100.0, 68.1), (8.5, 105.0, 67.9)]
    pairs = [(bench_pairs.result_line(_line(*p)), bench_pairs.result_line(_line(*c)))
             for p, c in zip(parent, change)]
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, BETTER)}
    assert list(rows) == list(BETTER)

    items = rows["items_per_s"]
    assert items["parent"] == (5.75, 5.125, 6.75)  # statistics.quantiles, n=4 (exclusive)
    assert items["change"] == (8.25, 5.75, 8.875)
    assert items["ratio"] == pytest.approx(8.25 / 5.75)
    assert (items["wins_parent"], items["wins_change"], items["pairs"]) == (1, 3, 4)

    cpu = rows["cpu_ms_per_item"]  # lower is better: the change wins every pair
    assert (cpu["wins_parent"], cpu["wins_change"]) == (0, 4)

    rss = rows["peak_rss_mb"]  # one tie (67.5 both) counts for neither side
    assert (rss["wins_parent"], rss["wins_change"]) == (3, 0)

    text = bench_pairs.format_rows(bench_pairs.summarize(pairs, BETTER))
    assert text.splitlines()[1].startswith("items_per_s")
    assert "1/3" in text.splitlines()[1]


def test_summary_skips_metrics_absent_from_a_run():
    pair = (bench_pairs.result_line(_line(5.0, 150.0, 67.0)),
            bench_pairs.result_line(_line(6.0, 140.0, 67.0)))
    rows = bench_pairs.summarize([pair], {"items_per_s": "higher", "setup_s": "lower"})
    assert [r["metric"] for r in rows] == ["items_per_s"]
    assert rows[0]["parent"] == (5.0, 5.0, 5.0)


def test_json_record_from_canned_runs(tmp_path, monkeypatch):
    # main with --json, its run.py calls replaced by canned result lines
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": n, "better": b} for n, b in BETTER.items()]}))
    canned = {("parent", 9101): (0.25, 3900.0, 68.0), ("change", 9101): (0.47, 2100.0, 68.2),
              ("parent", 9102): (0.24, 4000.0, 68.1), ("change", 9102): (0.46, 2090.0, 68.1),
              ("parent", 9103): (0.26, 3800.0, 67.9), ("change", 9103): (0.48, 2080.0, 68.3)}
    order = []

    def run(checkout, workload, seed, seconds):
        assert workload == "rigidity" and seconds is None
        order.append((checkout.name, seed))
        return bench_pairs.result_line(_line(*canned[checkout.name, seed]))

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "BENCH_test.json"
    code = bench_pairs.main([str(tmp_path / "parent"), str(change), "--workload", "rigidity",
                             "--seeds", "9101-9103", "--json", str(out)])
    assert code == 0
    assert order == [("parent", 9101), ("change", 9101), ("change", 9102), ("parent", 9102),
                     ("parent", 9103), ("change", 9103)]
    rec = json.loads(out.read_text())
    assert rec["workload"] == "rigidity" and rec["seeds"] == [9101, 9102, 9103]
    assert list(rec["metrics"]) == list(BETTER)
    items = rec["metrics"]["items_per_s"]
    assert items["parent"] == {"median": 0.25, "q1": 0.24, "q3": 0.26}
    assert items["change"] == {"median": 0.47, "q1": 0.46, "q3": 0.48}
    assert items["ratio"] == pytest.approx(0.47 / 0.25)
    assert (items["wins_parent"], items["wins_change"], items["pairs"]) == (0, 3, 3)
    rss = rec["metrics"]["peak_rss_mb"]  # one tie at 68.1
    assert (rss["wins_parent"], rss["wins_change"]) == (2, 0)
