"""Alternating parent/change benchmark pairs, appended to BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --workload spectra-build --seeds 2026,7 \
        --pairs 5 --parent HEAD~1

The change side is this checkout; the parent side is the committed files
of the --parent revision, extracted by `git archive` into a temporary
directory that is removed afterwards.  Every run lasts the
benchmark's `run_seconds` (BENCHMARK.json).  Pairs are numbered after
those the file already holds for the seed; pair i runs the parent first
when i is odd and the change first when it is even, one `bench/run.py`
run at a time.  Each run's
record (provenance and the end-to-end metrics of
`.bench_build/result-<workload>-seed<seed>-trace0.json`) is appended to
BENCH_<workload>.json at the root of this checkout, and the summary is
recomputed for every (parent, change, seed) group, each side named by its
git sha and `src/` digest: the median and quartiles of each side and the
number of pairs the change wins.  The file is rewritten after each
complete pair, so a stopped run keeps the pairs it finished.  The change
side is labelled with HEAD's sha, so the script exits 2 while `src`,
`tests`, `bench` or BENCHMARK.json differ from HEAD.  SIGTERM ends a run
like an exception: the parent's directory is removed.  Standard library
only.
"""

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METHOD = ("alternating parent/change pairs (odd pairs run the parent first), one "
          "run at a time; metrics copied from "
          ".bench_build/result-WORKLOAD-seedSEED-trace0.json")


# What a run measures; the change side must be these files as committed.
MEASURED = ("src", "tests", "bench", "BENCHMARK.json")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]


def directions():
    """{end-to-end metric: "higher" or "lower"} from BENCHMARK.json."""
    return {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def run_order(pair):
    """The sides of pair number pair in run order: parent first when odd."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def run_once(checkout, workload, seed, sha):
    """One bench/run.py run in checkout; its record without the pair fields."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                    str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                   cwd=checkout, check=True, capture_output=True)
    path = Path(checkout) / ".bench_build" / f"result-{workload}-seed{seed}-trace0.json"
    result = json.loads(path.read_text())
    prov = result["provenance"]
    return {
        "git_sha": prov["git_sha"] or sha,
        "src_sha256": prov["src_sha256"],
        "seconds": prov["seconds"],
        "python": prov["python"],
        "nproc": prov["nproc"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(records, better):
    """Median, quartiles and change wins of each metric, per (parent,
    change, seed) group of complete pairs, in first-seen order; a side is
    its (git_sha, src_sha256)."""
    groups = {}
    for r in records:
        groups.setdefault(r["seed"], {}).setdefault(r["pair"], {})[r["side"]] = r
    out = []
    for seed, pairs in groups.items():
        whole = [p for p in pairs.values() if {"parent", "change"} <= p.keys()]
        by_sides = {}
        for p in whole:
            key = tuple(p[s][k] for s in ("parent", "change") for k in ("git_sha", "src_sha256"))
            by_sides.setdefault(key, []).append(p)
        for (parent, parent_src, change, change_src), group in by_sides.items():
            entry = {"parent": parent, "parent_src_sha256": parent_src,
                     "change": change, "change_src_sha256": change_src, "seed": seed}
            for name, way in better.items():
                sides = {s: [p[s]["metrics"][name] for p in group] for s in ("parent", "change")}
                wins = sum((c > p) if way == "higher" else (c < p)
                           for p, c in zip(sides["parent"], sides["change"]))
                entry[name] = {
                    "parent_median": statistics.median(sides["parent"]),
                    "parent_quartiles": quartiles(sides["parent"]),
                    "change_median": statistics.median(sides["change"]),
                    "change_quartiles": quartiles(sides["change"]),
                    "change_wins": f"{wins}/{len(group)}",
                }
            out.append(entry)
    return out


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def extract(rev, dest):
    """The committed files of rev, by `git archive`, into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    tarfile.open(fileobj=io.BytesIO(archive)).extractall(dest, filter="data")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated, e.g. 2026,7")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)
    if git("status", "--porcelain", "--", *MEASURED):
        parser.exit(2, f"bench_pairs.py: commit the changes to {', '.join(MEASURED)} first\n")
    # main() may run inside a longer-lived program: put its handler back
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        parent_sha, change_sha = git("rev-parse", args.parent), git("rev-parse", "HEAD")
        bench = ROOT / f"BENCH_{args.workload}.json"
        data = json.loads(bench.read_text()) if bench.exists() else {
            "workload": args.workload,
            "command": f"python3 bench/run.py --workload {args.workload} --seed SEED "
                       f"--seconds {SECONDS:g} --trace 0",
            "method": METHOD.replace("WORKLOAD", args.workload),
            "summary": [], "records": []}
        data["parent"] = parent_sha
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
            extract(parent_sha, tmp)
            sides = {"parent": (tmp, parent_sha), "change": (str(ROOT), change_sha)}
            for seed in map(int, args.seeds.split(",")):
                # Pairs are numbered after those the file already holds.
                kept = max((r["pair"] for r in data["records"] if r["seed"] == seed), default=0)
                for pair in range(kept + 1, kept + args.pairs + 1):
                    order = run_order(pair)
                    for side in order:
                        checkout, sha = sides[side]
                        record = {"side": side, "seed": seed, "pair": pair,
                                  "ran_first": side == order[0],
                                  **run_once(checkout, args.workload, seed, sha)}
                        data["records"].append(record)
                        print(json.dumps({k: record[k]
                                          for k in ("side", "seed", "pair", "metrics")}))
                    data["summary"] = summarize(data["records"], directions())
                    bench.write_text(json.dumps(data, indent=1) + "\n")
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    main()
