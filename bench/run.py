"""hmideals benchmark: one seeded workload per run, every result checked.

Run from the repository root:

    python3 bench/run.py --workload spectra-build --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and bench/NOTES.md): spectra-build,
query-mix, cli-session.  Each is a closed loop with one client in this
process (cli-session: one `python -m hmideals.cli` child at a time), run in
complete passes until --seconds of timed operations have accumulated.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced passes of
the workload for --seconds as the reference, then two passes of every
workload with each hmideals layer wrapped in timing spans.  It prints each
per-layer metric from the workload that exercises that layer (LAYER_HOME),
the workload's tracing overhead, and fails unless the exact counters of the
two traced passes agree.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every operation was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build"
SETUP_REPEATS = 7
OP_BUDGET_S = 60  # in-process alarm; cli children also have their own timeout
CHILDREN = 5  # import-only children per median
# In-child import time of the package, the benchmark and tests/oracles.py.
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, 'bench'); "
    "import workloads; from pathlib import Path; workloads.load_oracles(Path('.')); "
    "print(time.perf_counter() - t0)"
)
TAIL_LADDER = (99.9, 99.0, 97.0, 95.0, 90.0, 75.0, 50.0)
# The shared host runs at speeds up to about 1.7x apart, in phases of
# seconds to minutes.  Reported times are therefore scaled to one host
# speed: each is divided by host_speed() read around it, the time of a
# fixed calibration kernel over CALIBRATION_REF_S (bench/NOTES.md,
# "Host-speed scaling").  The unscaled figures are kept in the provenance.
CALIBRATION_REF_S = 0.002  # least calibration_kernel() time on a fast phase
CALIBRATION_WINDOW_S = 0.2  # timed op work between two host_speed() reads
# Workloads whose tail is taken over each op's median time, not over every
# sample.  A spectra-build run holds only 5-9 passes of ops up to 2 s, so the
# rung the ladder reaches over every sample moves with the pass count.
TAIL_OVER_OPS = {"spectra-build"}

END_TO_END_UNITS = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "monomial.normalize.calls": "count",
    "monomial.normalize.self_s": "s",
    "monomial.normalize.gens_in": "count",
    "monomial.normalize.keep_ratio": "1",
    "monomial.contains.calls": "count",
    "monomial.contains.self_s": "s",
    "monomial.subset.calls": "count",
    "monomial.subset.self_s": "s",
    "monomial.arith.self_s": "s",
    "monomial.colength.self_s": "s",
    "monomial.count_outside.self_s": "s",
    "monomial.count.points": "count",
    "constructors.diagonal.calls": "count",
    "constructors.diagonal.self_s": "s",
    "constructors.diagonal.box_points": "count",
    "constructors.diagonal.gen_yield": "1",
    "constructors.fermat.self_s": "s",
    "constructors.ts.self_s": "s",
    "constructors.nc.self_s": "s",
    "vspectrum.validate.calls": "count",
    "vspectrum.validate.self_s": "s",
    "vspectrum.lookup.calls": "count",
    "vspectrum.lookup.self_s": "s",
    "vspectrum.graded_dim.self_s": "s",
    "vspectrum.jumps": "count",
    "vspectrum.min_gens": "count",
    "graded.calls": "count",
    "graded.self_s": "s",
    "resolution.build.self_s": "s",
    "resolution.lattice_sets": "count",
    "resolution.query.self_s": "s",
    "resolution.hypothesis_errors": "count",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.self_ms": "ms",
    "cli.exit_unexpected": "count",
    "trace.throughput_ratio": "1",
}
# The workload whose traced passes give each layer's metrics: the one that
# exercises the layer.  trace.throughput_ratio is the named workload's own.
LAYER_HOME = {
    "monomial.colength": "query-mix",
    "monomial.count_outside": "query-mix",
    "monomial.count": "query-mix",
    "monomial": "spectra-build",
    "constructors.nc": "query-mix",
    "constructors": "spectra-build",
    "vspectrum.lookup": "query-mix",
    "vspectrum.graded_dim": "query-mix",
    "vspectrum": "spectra-build",
    "graded": "query-mix",
    "resolution": "query-mix",
    "cli": "cli-session",
}


def layer_home(name):
    """Home workload of a per-layer metric: its longest LAYER_HOME prefix."""
    parts = name.split(".")
    for i in range(len(parts) - 1, 0, -1):
        home = LAYER_HOME.get(".".join(parts[:i]))
        if home:
            return home
    raise KeyError(name)


class OpBudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpBudgetExceeded(f"operation ran past its {OP_BUDGET_S} s budget")


class Context:
    def __init__(self, root, oracles):
        self.root = root
        self.oracles = oracles


def run_op(op, tracer=None):
    """Time one op under the budget; check it afterwards.  (seconds, error)."""
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    try:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.span("op." + op.kind, op.run)
            error = None
        except Exception as exc:  # any raise is a counted failure
            result, error = None, f"{op.kind}: raised {exc!r}"
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        error = op.check(result)
    return dt, error


def calibration_kernel():
    """Fixed pure-Python work that calls no hmideals code: the tuples,
    dicts, comparisons, sorting and Fractions the library is made of."""
    counts, acc = {}, Fraction(0)
    for t in itertools.product(range(10), repeat=3):
        key = (t[0] % 5, t[1] % 7, t[2] % 3)
        counts[key] = counts.get(key, 0) + sum(t)
        if all(a <= b for a, b in zip(t, (5, 7, 8))):
            acc += Fraction(t[0] + 1, t[1] + 2)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0], acc


def host_speed():
    """Least time of three calibration kernels over CALIBRATION_REF_S: 1 on
    a fast phase of the host, more when it runs slower."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return min(times) / CALIBRATION_REF_S


class Tally:
    def __init__(self, scaled=False):
        self.latencies = array("d")  # compact: peak RSS should not track op count
        self.errors = []
        self.pass_s = []
        # With scaled=True, `scaled` holds each latency divided by the mean
        # host speed read at the two ends of its window of op work.
        self.scaled = array("d") if scaled else None
        self.speeds = []
        self._window_start = 0  # index of the first latency not yet scaled
        self._window_s = 0.0

    def run_pass(self, ops, tracer=None):
        first = len(self.latencies)
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            if self.scaled is not None and not self.speeds:
                self.speeds.append(host_speed())
            dt, error = run_op(op, tracer)
            self.latencies.append(dt)
            if error:
                self.errors.append(error)
            if self.scaled is not None:
                self._window_s += dt
                if self._window_s >= CALIBRATION_WINDOW_S:
                    self.close_window()
        self.pass_s.append(sum(self.latencies[first:]))
        return self.pass_s[-1]

    def close_window(self):
        """Read the host speed and scale the latencies since the last read."""
        if len(self.latencies) == self._window_start:
            return
        self.speeds.append(host_speed())
        speed = (self.speeds[-2] + self.speeds[-1]) / 2
        self.scaled.extend(dt / speed for dt in self.latencies[self._window_start:])
        self._window_start, self._window_s = len(self.latencies), 0.0

def op_medians(lat, ops_per_pass):
    """Each op's median latency over the passes."""
    return [statistics.median(lat[i::ops_per_pass]) for i in range(ops_per_pass)]


def tail(latencies):
    """Highest ladder percentile with at least ten samples beyond it
    (nearest rank): (percentile, value, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def git_sha(root):
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hmideals").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, extra):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
        "nproc": os.cpu_count(),
        **extra,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(args, correct, attempted, failed, metrics, prov, errors):
    OUT_DIR.mkdir(exist_ok=True)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for error in errors[:20]:
        print(f"FAILED {error}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    correct = correct and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "errors": errors, **result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_probes(session):
    """Known-defect CLI inputs, run outside every timed span."""
    unexpected = []
    for op in session.probes:
        _dt, error = run_op(op)
        if error:
            unexpected.append(error)
    return unexpected


def children(root, code, count=CHILDREN):
    """Run `count` `python -c code` children, one at a time; (wall times, stdouts)."""
    from workloads import child_env

    times, outs = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                              check=True, timeout=60, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        outs.append(proc.stdout)
    return times, outs


def untraced(args, ctx, setup):
    import_samples, setup_times, setup_speeds = [], [], []

    def sample_setup():
        """One import-only child's own import time and one set-up here,
        with the host speed read before and after them."""
        before = host_speed()
        import_samples.append(float(children(ctx.root, IMPORT_PROBE, 1)[1][0]))
        t0 = time.perf_counter()
        session = setup(args.seed, ctx)
        setup_times.append(time.perf_counter() - t0)
        setup_speeds.append((before + host_speed()) / 2)
        return session

    # The first set-up serves the run.  The other samples are spread over
    # it, one each time another 1/SETUP_REPEATS of --seconds has been timed:
    # the host's speed changes within seconds, so back-to-back samples all
    # land in one phase (bench/NOTES.md, "Steadiness and bounds").
    session = sample_setup()
    tally = Tally(scaled=True)
    while sum(tally.pass_s) < args.seconds:
        if sum(tally.pass_s) >= len(setup_times) * args.seconds / SETUP_REPEATS:
            sample_setup()
        tally.run_pass(session.ops)
    tally.close_window()
    while len(setup_times) < SETUP_REPEATS:
        sample_setup()
    pass_times = tally.pass_s
    passes, elapsed = len(pass_times), sum(pass_times)
    probes = run_probes(session)
    lat = tally.latencies
    attempted, failed = len(lat), len(tally.errors)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    # Throughput and p50 take each op at its median scaled time over the
    # passes (bench/NOTES.md, "Host-speed scaling").
    tail_over = "ops" if args.workload in TAIL_OVER_OPS else "every"

    def time_metrics(lat, import_s, setup_s):
        per_op = op_medians(lat, len(session.ops))
        tail_samples = per_op if tail_over == "ops" else lat
        p, tail_value, beyond = tail(tail_samples)
        return {
            "throughput_ops_per_s": (attempted - failed) / passes / sum(per_op),
            "latency_p50_ms": statistics.median(per_op) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        }, (p, beyond, len(tail_samples))

    values, (p, beyond, tail_n) = time_metrics(
        tally.scaled,
        [t / v for t, v in zip(import_samples, setup_speeds)],
        [t / v for t, v in zip(setup_times, setup_speeds)])
    unscaled, _ = time_metrics(lat, import_samples, setup_times)
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    speeds = tally.speeds + setup_speeds
    print(f"failed_ratio: {failed / attempted:.6g} 1 ({failed} of {attempted} ops)")
    over = "each op's median" if tail_over == "ops" else "every sample"
    print(f"latency_tail_ms is p{p:g} over {over}: {beyond} of {tail_n} samples lie beyond it")
    print(f"times scaled by host speed: median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f} over {len(speeds)} reads")
    if session.probes:
        print(f"known-defect CLI probes: {len(probes)} of {len(session.probes)} "
              "exit unexpectedly (reported as cli.exit_unexpected in the traced run)")
    prov = provenance(args, {
        "samples": attempted,
        "passes": passes,
        "ops_per_pass": len(session.ops),
        "timed_s": elapsed,
        "pass_s": pass_times,
        "tail_percentile": p,
        "tail_over": tail_over,
        "tail_samples": tail_n,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setup_times,
        "import_samples_s": import_samples,
        "setup_host_speeds": setup_speeds,
        "host_speeds": list(tally.speeds),
        "calibration_ref_s": CALIBRATION_REF_S,
        "unscaled": unscaled,
        "failed_ratio": failed / attempted,
        "known_defect_probes_unexpected": len(probes),
    })
    return report(args, True, attempted, failed, metrics, prov, tally.errors)


def traced_passes(tracing, ops):
    """Two passes over ops with every layer traced: [(tracer, tally, s)]."""
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tally = Tally()
        tracer.install()
        try:
            seconds = tally.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        runs.append((tracer, tally, seconds))
    return runs


def exact_counts(tracing, tracer):
    """Call count of every span name and the EXACT_COUNTERS of one pass."""
    calls = {name: rec[0] for name, rec in tracer.self_times().items()}
    return {**calls, **{k: tracer.counts[k] for k in tracing.EXACT_COUNTERS}}


def layer_values(tracer, ops_per_pass):
    """Per-layer figures of one traced pass, keyed by metric name."""
    stats, counts = tracer.self_times(), tracer.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def total_s(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    cli_self = sum(rec[2] for name, rec in stats.items() if name.startswith("cli."))
    return {
        "monomial.normalize.calls": calls("monomial.normalize"),
        "monomial.normalize.self_s": self_s("monomial.normalize"),
        "monomial.normalize.gens_in": counts["monomial.normalize.gens_in"],
        "monomial.normalize.keep_ratio": (counts["monomial.normalize.gens_kept"]
                                          / max(1, counts["monomial.normalize.gens_in"])),
        "monomial.contains.calls": calls("monomial.contains"),
        "monomial.contains.self_s": self_s("monomial.contains"),
        "monomial.subset.calls": calls("monomial.subset"),
        "monomial.subset.self_s": self_s("monomial.subset"),
        "monomial.arith.self_s": self_s("monomial.arith"),
        "monomial.colength.self_s": self_s("monomial.colength"),
        "monomial.count_outside.self_s": self_s("monomial.count_outside"),
        "monomial.count.points": counts["monomial.count.points"],
        "constructors.diagonal.calls": calls("constructors.diagonal"),
        "constructors.diagonal.self_s": self_s("constructors.diagonal"),
        "constructors.diagonal.box_points": counts["constructors.diagonal.box_points"],
        "constructors.diagonal.gen_yield": (counts["constructors.diagonal.gens_out"]
                                            / max(1, counts["constructors.diagonal.box_points"])),
        "constructors.fermat.self_s": self_s("constructors.fermat"),
        "constructors.ts.self_s": self_s("constructors.ts"),
        "constructors.nc.self_s": self_s("constructors.nc"),
        "vspectrum.validate.calls": calls("vspectrum.validate"),
        "vspectrum.validate.self_s": self_s("vspectrum.validate"),
        "vspectrum.lookup.calls": calls("vspectrum.lookup"),
        "vspectrum.lookup.self_s": self_s("vspectrum.lookup"),
        "vspectrum.graded_dim.self_s": self_s("vspectrum.graded_dim"),
        "vspectrum.jumps": counts["vspectrum.jumps"],
        "vspectrum.min_gens": counts["vspectrum.min_gens"],
        "graded.calls": calls("graded"),
        "graded.self_s": self_s("graded"),
        "resolution.build.self_s": self_s("resolution.build"),
        "resolution.lattice_sets": counts["resolution.lattice_sets"],
        "resolution.query.self_s": self_s("resolution.query"),
        "resolution.hypothesis_errors": counts["resolution.hypothesis_errors"],
        "cli.run_ms": total_s("cli.run") / ops_per_pass * 1e3,
        "cli.self_ms": cli_self / ops_per_pass * 1e3,
    }


def traced(args, ctx):
    import tracing
    import workloads

    sessions = {name: setup(args.seed, ctx) for name, setup in workloads.WORKLOADS.items()}
    own = sessions[args.workload]
    own_ops = own.inprocess_ops or own.ops
    reference = Tally()
    while sum(reference.pass_s) < args.seconds:
        reference.run_pass(own_ops)
    values, errors, attempted = {}, list(reference.errors), len(reference.latencies)
    tracers, exact, traced_s = {}, {}, {}
    for name, session in sessions.items():
        ops = session.inprocess_ops or session.ops
        runs = traced_passes(tracing, ops)
        first, second = (exact_counts(tracing, run[0]) for run in runs)
        errors += [f"{name}: exact counter {k} differs between traced passes: "
                   f"{first.get(k)} != {second.get(k)}"
                   for k in sorted(first.keys() | second.keys()) if first.get(k) != second.get(k)]
        for _tracer, tally, _s in runs:
            errors += tally.errors
            attempted += len(tally.latencies)
        tracers[name], exact[name] = runs[0][0], first
        traced_s[name] = [run[2] for run in runs]
        values.update((k, v) for k, v in layer_values(runs[0][0], len(ops)).items()
                      if layer_home(k) == name)
    values["trace.throughput_ratio"] = (statistics.median(reference.pass_s)
                                        / traced_s[args.workload][0])
    bare = statistics.median(children(ctx.root, "pass")[0])
    with_import = statistics.median(children(ctx.root, "import hmideals.cli")[0])
    values["cli.startup_ms"] = with_import * 1e3
    values["cli.import_ms"] = (with_import - bare) * 1e3
    values["cli.exit_unexpected"] = len(run_probes(sessions["cli-session"]))
    metrics = {k: metric(values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    OUT_DIR.mkdir(exist_ok=True)
    spans_files = {}
    for name, tracer in tracers.items():
        path = OUT_DIR / f"spans-{name}-seed{args.seed}.json"
        tracer.write(path)
        spans_files[name] = str(path.relative_to(ROOT))
    prov = provenance(args, {
        "ops_per_pass": len(own_ops),
        "reference_passes": len(reference.pass_s),
        "reference_pass_s": reference.pass_s,
        "traced_pass_s": traced_s,
        "layer_home": LAYER_HOME,
        "spans_files": spans_files,
        "exact_counters": exact,
    })
    return report(args, True, attempted, len(errors), metrics, prov, errors)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["spectra-build", "query-mix", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "hmideals"
    if not (package / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} has no src/hmideals or tests/oracles.py to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    oracles = workloads.load_oracles(ROOT)
    loaded = Path(sys.modules["hmideals"].__file__).resolve().parent
    if loaded != package.resolve():
        print(f"error: imported hmideals from {loaded}, not {package}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    ctx = Context(ROOT, oracles)
    setup = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            return traced(args, ctx)
        return untraced(args, ctx, setup)
    except workloads.SetupCheckError as exc:
        print(f"error: set-up check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
