"""The runnable demos in scripts/ finish cleanly; the benchmark-pair summary
is right on synthetic records; the mutant table still matches the code."""

import importlib.util
import json
import os
import signal
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


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script("bench_pairs")


def test_bench_pairs_summary():
    """Medians, inclusive quartiles and wins per (parent, change, seed) group,
    a side named by its sha and source digest; a pair missing a side is left
    out."""
    def record(side, seed, pair, sha, ops, rss, src="s0"):
        return {"side": side, "seed": seed, "pair": pair, "git_sha": sha, "src_sha256": src,
                "metrics": {"throughput_ops_per_s": ops, "peak_rss_mb": rss}}
    records = [record("parent", 1, p, "a", ops, 10) for p, ops in ((1, 100), (2, 110), (3, 90))]
    records += [record("change", 1, p, "b", ops, rss)
                for p, ops, rss in ((1, 120, 9), (2, 105, 9), (3, 130, 11))]
    records += [record("parent", 7, 1, "a", 50, 10), record("change", 7, 2, "b", 60, 9)]
    records += [record("parent", 1, 4, "b", 10, 10), record("change", 1, 4, "c", 20, 9)]
    # The change's sha again, measured from an edited tree.
    records += [record("parent", 1, p, "a", 100, 10) for p in (5, 6)]
    records += [record("change", 1, p, "b", ops, 9, src="s1") for p, ops in ((5, 90), (6, 80))]
    better = {"throughput_ops_per_s": "higher", "peak_rss_mb": "lower"}
    summary = _bench_pairs().summarize(records, better)
    assert [(e["parent"], e["change"], e["change_src_sha256"], e["seed"]) for e in summary] == [
        ("a", "b", "s0", 1), ("b", "c", "s0", 1), ("a", "b", "s1", 1)]
    assert summary[0]["parent_src_sha256"] == "s0"
    ops = summary[0]["throughput_ops_per_s"]
    assert ops == {"parent_median": 100, "parent_quartiles": [95, 105],
                   "change_median": 120, "change_quartiles": [112.5, 125],
                   "change_wins": "2/3"}
    assert summary[0]["peak_rss_mb"]["change_wins"] == "2/3"
    assert summary[1]["throughput_ops_per_s"]["parent_quartiles"] == [10, 10]
    assert summary[2]["throughput_ops_per_s"]["change_median"] == 85
    assert summary[2]["throughput_ops_per_s"]["change_wins"] == "0/2"


def test_bench_pairs_refuses_uncommitted_changes(monkeypatch, capsys):
    """Change records carry HEAD's sha, so a tree that differs from HEAD in
    what a run measures is refused with exit 2 and one line."""
    module = _bench_pairs()
    calls = []

    def git(*args, **kwargs):
        calls.append(args)
        return " M src/hmideals/monomial.py"

    monkeypatch.setattr(module, "git", git)
    with pytest.raises(SystemExit) as excinfo:
        module.main(["--workload", "spectra-build", "--seeds", "1", "--pairs", "1",
                     "--parent", "HEAD~1"])
    assert excinfo.value.code == 2
    assert calls == [("status", "--porcelain", "--", "src", "tests", "bench", "BENCHMARK.json")]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "commit" in err


def test_bench_pairs_run_order():
    """The side that runs first follows the recorded pair number, so the
    alternation carries on across invocations: odd pairs run the parent first."""
    order = _bench_pairs().run_order
    assert [order(p) for p in (1, 2, 15, 16)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_bench_pairs_keeps_complete_pairs_when_stopped(monkeypatch, tmp_path):
    """The file is rewritten after each complete pair, so a run stopped in
    pair 2 leaves pair 1 and its summary, and no half pair."""
    module = _bench_pairs()
    runs = []

    def run_once(checkout, workload, seed, sha):
        runs.append(sha)
        if len(runs) == 3:  # the first run of pair 2
            raise SystemExit(143)
        value = 100.0 + len(runs)
        return {"git_sha": sha, "src_sha256": "s-" + sha,
                "metrics": {name: value for name in module.directions()}}

    def git(*args, **kwargs):  # a clean tree; HEAD~1 is p0 and HEAD c1
        return {"HEAD~1": "p0", "HEAD": "c1"}[args[1]] if args[0] == "rev-parse" else ""

    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "git", git)
    monkeypatch.setattr(module, "extract", lambda rev, dest: None)
    monkeypatch.setattr(module, "run_once", run_once)
    handler = signal.getsignal(signal.SIGTERM)
    with pytest.raises(SystemExit) as excinfo:
        module.main(["--workload", "spectra-build", "--seeds", "2026", "--pairs", "3",
                     "--parent", "HEAD~1"])
    assert excinfo.value.code == 143
    assert signal.getsignal(signal.SIGTERM) is handler
    data = json.loads((tmp_path / "BENCH_spectra-build.json").read_text())
    assert data["parent"] == "p0"
    assert [(r["pair"], r["side"]) for r in data["records"]] == [(1, "parent"), (1, "change")]
    [entry] = data["summary"]
    assert (entry["parent"], entry["change"], entry["seed"]) == ("p0", "c1", 2026)
    assert entry["throughput_ops_per_s"] == {
        "parent_median": 101.0, "parent_quartiles": [101.0, 101.0],
        "change_median": 102.0, "change_quartiles": [102.0, 102.0], "change_wins": "1/1"}


def test_mutant_rows_match_once():
    """Each mutant's text occurs exactly once in its file, so a change that
    moves the code updates the row; the rows' names are distinct and their
    test files exist.  The mutants themselves run only in scripts/mutants.py."""
    rows = _script("mutants").MUTANTS
    assert len({row.name for row in rows}) == len(rows) >= 10
    for row in rows:
        assert (ROOT / row.path).read_text().count(row.old) == 1, row.name
        assert row.new != row.old and row.tests, row.name
        assert all((ROOT / test).is_file() for test in row.tests), row.name


def test_mutant_apply(tmp_path):
    """A row's edit is made only where its text occurs once."""
    module = _script("mutants")
    row = module.Mutant("m", "f.py", "a < b", "a <= b", ["tests/test_cli.py"])
    (tmp_path / "f.py").write_text("x = a < b\n")
    module.apply(row, tmp_path)
    assert (tmp_path / "f.py").read_text() == "x = a <= b\n"
    with pytest.raises(ValueError, match="occurs 0 times"):
        module.apply(row, tmp_path)
