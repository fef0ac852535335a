"""The runnable demos in scripts/ finish cleanly; the benchmark-pair summary
is right on synthetic records."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["cusp_table.py", "theta_exponents.py"])
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    """Medians, inclusive quartiles and wins per (parent, change, seed) group;
    a pair missing a side is left out."""
    def record(side, seed, pair, sha, ops, rss):
        return {"side": side, "seed": seed, "pair": pair, "git_sha": sha,
                "metrics": {"throughput_ops_per_s": ops, "peak_rss_mb": rss}}
    records = [record("parent", 1, p, "a", ops, 10) for p, ops in ((1, 100), (2, 110), (3, 90))]
    records += [record("change", 1, p, "b", ops, rss)
                for p, ops, rss in ((1, 120, 9), (2, 105, 9), (3, 130, 11))]
    records += [record("parent", 7, 1, "a", 50, 10), record("change", 7, 2, "b", 60, 9)]
    records += [record("parent", 1, 4, "b", 10, 10), record("change", 1, 4, "c", 20, 9)]
    better = {"throughput_ops_per_s": "higher", "peak_rss_mb": "lower"}
    summary = _bench_pairs().summarize(records, better)
    assert [(e["parent"], e["change"], e["seed"]) for e in summary] == [("a", "b", 1), ("b", "c", 1)]
    ops = summary[0]["throughput_ops_per_s"]
    assert ops == {"parent_median": 100, "parent_quartiles": [95, 105],
                   "change_median": 120, "change_quartiles": [112.5, 125],
                   "change_wins": "2/3"}
    assert summary[0]["peak_rss_mb"]["change_wins"] == "2/3"
    assert summary[1]["throughput_ops_per_s"]["parent_quartiles"] == [10, 10]


def test_bench_pairs_run_order():
    """The side that runs first follows the recorded pair number, so the
    alternation carries on across invocations: odd pairs run the parent first."""
    order = _bench_pairs().run_order
    assert [order(p) for p in (1, 2, 15, 16)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]
