"""Span tracing of hmideals from outside the package.

`Tracer.install()` swaps a timing wrapper into every hmideals module
namespace (and class) that binds one of the functions in `LAYER_SPANS`, so
the library's internal calls are traced without editing it; `uninstall()`
puts the originals back.  Each span is (name, start, end, parent, op id),
kept in flat arrays in memory and written once at the end.  Self time is a
span's duration minus the time its direct children cover.

Counters that need the call's arguments or result (box sizes, generators
kept, lattice sets, answer sizes) are taken in the same wrappers.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from collections import defaultdict

from workloads import diagonal_box_points, pure_power_sides

# (module, qualified name) -> span name.  Only functions that carry a
# per-layer metric are wrapped; rat and errors do no work of their own.
LAYER_SPANS = {
    ("monomial", "MonIdeal.__post_init__"): "monomial.normalize",
    ("monomial", "MonIdeal.contains"): "monomial.contains",
    ("monomial", "MonIdeal.subset"): "monomial.subset",
    ("monomial", "MonIdeal.__add__"): "monomial.arith",
    ("monomial", "MonIdeal.__mul__"): "monomial.arith",
    ("monomial", "MonIdeal.__pow__"): "monomial.arith",
    ("monomial", "MonIdeal.scale"): "monomial.arith",
    ("monomial", "MonIdeal.strip_divisorial"): "monomial.arith",
    ("monomial", "MonIdeal.colength"): "monomial.colength",
    ("monomial", "MonIdeal.count_outside"): "monomial.count_outside",
    ("constructors", "spectrum_diagonal"): "constructors.diagonal",
    ("constructors", "spectrum_ordinary_fermat"): "constructors.fermat",
    ("constructors", "spectrum_thom_sebastiani"): "constructors.ts",
    ("constructors", "nc_ideal"): "constructors.nc",
    ("constructors", "power_scale_check"): "constructors.nc",
    ("constructors", "qdivisor_ideal"): "constructors.nc",
    ("vspectrum", "VSpectrum.__post_init__"): "vspectrum.validate",
    ("vspectrum", "spectrum_from_step"): "vspectrum.validate",
    ("vspectrum", "VSpectrum.value_at"): "vspectrum.lookup",
    ("vspectrum", "VSpectrum.value_after"): "vspectrum.lookup",
    ("vspectrum", "VSpectrum.hmi"): "vspectrum.lookup",
    ("vspectrum", "VSpectrum.hmi_lt"): "vspectrum.lookup",
    ("vspectrum", "VSpectrum.hmi_twisted"): "vspectrum.lookup",
    ("vspectrum", "VSpectrum.graded_dim"): "vspectrum.graded_dim",
    ("graded", "StrataData.__post_init__"): "graded",
    ("graded", "milnor_hilbert"): "graded",
    ("graded", "gdim_ordinary"): "graded",
    ("graded", "hodge_prim_hypersurface"): "graded",
    ("graded", "hodge_cyclic_eigenspace"): "graded",
    ("graded", "nontriviality_data"): "graded",
    ("graded", "symbolic_power_exponent"): "graded",
    ("graded", "containment_threshold"): "graded",
    ("graded", "independent_conditions_degree"): "graded",
    ("graded", "min_exponent_upper"): "graded",
    ("resolution", "ResolutionData.__post_init__"): "resolution.build",
    ("resolution", "ResolutionData.build"): "resolution.build",
    ("resolution", "ResolutionData.from_json"): "resolution.build",
    ("resolution", "builtin_family"): "resolution.build",
    ("resolution", "lct"): "resolution.query",
    ("resolution", "min_exponent_bounds"): "resolution.query",
    ("resolution", "min_exponent_stratified"): "resolution.query",
    ("resolution", "integral_components"): "resolution.query",
    ("resolution", "max_weight_level"): "resolution.query",
    ("resolution", "minimal_lc_center"): "resolution.query",
    ("resolution", "weighted_nc_local"): "resolution.query",
    ("cli", "run"): "cli.run",
    ("cli", "make_parser"): "cli.parse",
    ("cli", "build_spectrum"): "cli.cmd",
    ("cli", "cmd_spectrum"): "cli.cmd",
    ("cli", "cmd_ideal"): "cli.cmd",
    ("cli", "cmd_gdim"): "cli.cmd",
    ("cli", "cmd_hodge"): "cli.cmd",
    ("cli", "cmd_criteria"): "cli.cmd",
    ("cli", "cmd_resolution"): "cli.cmd",
    ("cli", "cmd_bs_classes"): "cli.cmd",
}

# Counters that must repeat exactly for a fixed seed.
EXACT_COUNTERS = (
    "constructors.diagonal.box_points",
    "constructors.diagonal.gens_out",
    "monomial.normalize.gens_in",
    "monomial.normalize.gens_kept",
    "monomial.count.points",
    "resolution.lattice_sets",
    "resolution.hypothesis_errors",
    "vspectrum.jumps",
    "vspectrum.min_gens",
)


def _colength_box_points(ideal):
    """Box colength() enumerates: the least pure power of each variable."""
    sides = None if ideal.is_unit() else pure_power_sides(ideal)
    return 0 if sides is None else math.prod(sides)


def _count_outside_box_points(inner):
    """Box count_outside() enumerates (at most): max generator degree + 1."""
    if inner.is_zero():
        return 0
    return math.prod(max(g[j] for g in inner.gens) + 1 for j in range(inner.n))


class Tracer:
    """In-memory span recorder.  Wrappers record only while `active`."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = defaultdict(int)
        self.active = False
        self.op_id = -1
        self._stack = []
        self._patched = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span (used for the benchmark's op spans)."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self
        hyp_error = sys.modules["hmideals.errors"].HypothesisError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(tracer.counts, args, kwargs) if before else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except hyp_error:
                if name == "resolution.query" and not tracer._in_query(idx):
                    tracer.counts["resolution.hypothesis_errors"] += 1
                raise
            finally:
                tracer._close(idx)
            if after:
                after(tracer.counts, args, result, state)
            return result

        return wrapper

    def _in_query(self, idx):
        parent = self.parent[idx]
        return parent >= 0 and self.names[self.name_id[parent]] == "resolution.query"

    # -- installation --------------------------------------------------

    def install(self):
        """Swap wrappers into every hmideals namespace that binds a target."""
        wrappers = {}
        for (mod_name, qual), span_name in LAYER_SPANS.items():
            module = sys.modules[f"hmideals.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(span_name, original.__func__))
                else:
                    wrapped = self._wrap(span_name, original)
                setattr(cls, attr, wrapped)
            else:
                original = getattr(module, qual)
                wrappers[id(original)] = (original, self._wrap(span_name, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hmideals" and not mod_name.startswith("hmideals."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def self_times(self):
        """Per-span-name (calls, total duration, self time)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            rec = stats[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
        return stats

    def write(self, path):
        """Write every span as columns (times in ns from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {
            "names": self.names,
            "name": list(self.name_id),
            "start_ns": [round((s - t0) * 1e9) for s in self.start],
            "end_ns": [round((e - t0) * 1e9) for e in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


# -- counter hooks ------------------------------------------------------------


def _normalize_before(counts, args, kwargs):
    return len(args[0].gens)


def _normalize_after(counts, args, result, gens_in):
    counts["monomial.normalize.gens_in"] += gens_in
    counts["monomial.normalize.gens_kept"] += len(args[0].gens)


def _colength_before(counts, args, kwargs):
    counts["monomial.count.points"] += _colength_box_points(args[0])


def _count_outside_before(counts, args, kwargs):
    counts["monomial.count.points"] += _count_outside_box_points(args[1])


def _diagonal_before(counts, args, kwargs):
    counts["constructors.diagonal.box_points"] += diagonal_box_points(args[0], args[1])


def _diagonal_after(counts, args, result, state):
    counts["constructors.diagonal.gens_out"] += sum(len(i.gens) for _, i in result.jumps)


def _validate_after(counts, args, result, state):
    if result is None:  # VSpectrum.__post_init__: every spectrum once
        spect = args[0]
        counts["vspectrum.jumps"] += len(spect.jumps)
        counts["vspectrum.min_gens"] += sum(len(i.gens) for _, i in spect.jumps)


def _resolution_after(counts, args, result, state):
    if result is None:  # ResolutionData.__post_init__
        counts["resolution.lattice_sets"] += len(args[0].lattice)


_BEFORE = {
    "monomial.normalize": _normalize_before,
    "monomial.colength": _colength_before,
    "monomial.count_outside": _count_outside_before,
    "constructors.diagonal": _diagonal_before,
}
_AFTER = {
    "monomial.normalize": _normalize_after,
    "constructors.diagonal": _diagonal_after,
    "vspectrum.validate": _validate_after,
    "resolution.build": _resolution_after,
}
