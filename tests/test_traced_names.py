"""Every function the benchmark's tracer wraps still exists in hmideals.

`bench/run.py --trace 1` wraps the (module, qualified name) pairs listed in
`LAYER_SPANS` of `bench/tracing.py`.  The table is read from the source with
`ast.literal_eval`, so the benchmark is not imported, and each name must
resolve, so a refactor of the library cannot silently break tracing.
"""

import ast
import functools
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_literal(filename, name):
    """The literal assigned to `name` in a bench/ source, read without
    importing the benchmark."""
    path = BENCH / filename
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {path}")


def resolves(module, qualname):
    try:
        obj = functools.reduce(getattr, qualname.split("."),
                               importlib.import_module(f"hmideals.{module}"))
    except (ImportError, AttributeError):
        return False
    return callable(obj)


def test_traced_names_resolve():
    spans = bench_literal("tracing.py", "LAYER_SPANS")
    assert spans
    assert [key for key in spans if not resolves(*key)] == []
