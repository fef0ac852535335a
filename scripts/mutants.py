"""A standing table of hand-made mutants, each run against the tests that should kill it.

    python3 scripts/mutants.py

Each row of MUTANTS names a file, an exact text that occurs once in it, the
text that replaces it, and the test files expected to kill the mutant.  For
every row the committed files of HEAD are extracted by `git archive` into a
temporary directory, which is removed afterwards; the edit is applied there
and `pytest -q -x` runs on the row's test files.  The mutant is killed when
a test fails, or when the run outlives TIMEOUT_S (a hang that the suite
would show as well).  One line is printed per row; the exit status is 1 if
any mutant survives or any row cannot be applied or run.
tests/test_scripts.py checks that each row's text occurs exactly once in
the working tree, so a change that moves the code updates its row too.
Standard library only; no mutation tool is needed.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 240

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = [
    # CLI integers: one grammar, through rat.parse_int
    Mutant("parse-int-ascii", "src/hmideals/rat.py",
           "text.isascii() and digits.isdigit()", "digits.isdigit()",
           ["tests/test_cli.py"]),
    Mutant("parse-int-one-sign", "src/hmideals/rat.py",
           'if digits[:1] in ("+", "-"):\n        digits = digits[1:]',
           'digits = digits.lstrip("+-")',
           ["tests/test_cli.py"]),
    Mutant("int-arg-wiring", "src/hmideals/cli.py",
           "type=_int_arg, required=True", "type=int, required=True",
           ["tests/test_cli.py"]),
    Mutant("fermat-cone-floor", "src/hmideals/cli.py",
           '"fermat-cone": ("n,m", 2, 2, 2)', '"fermat-cone": ("n,m", 2, 2, 1)',
           ["tests/test_cli.py"]),
    # the staircase walk of spectrum_diagonal
    Mutant("walk-keep", "src/hmideals/constructors.py",
           "tables[i][a] - tables[i][a - 1] <= slack", "tables[i][a] - tables[i][a - 1] < slack",
           ["tests/test_constructors.py", "tests/test_properties.py"]),
    Mutant("walk-order", "src/hmideals/constructors.py",
           "out.append(tuple(gens))", "out.append(tuple(reversed(gens)))",
           ["tests/test_constructors.py", "tests/test_properties.py"]),
    Mutant("walk-next-level", "src/hmideals/constructors.py",
           "level = levels[-1] + 1", "level = levels[-1] + 2",
           ["tests/test_constructors.py", "tests/test_properties.py"]),
    # the MonIdeal kernel
    Mutant("sweep-domination", "src/hmideals/monomial.py",
           "while hi < len(cs) and cs[hi] >= c:", "while hi < len(cs) and cs[hi] >= c - 1:",
           ["tests/test_monomial.py", "tests/test_properties.py"]),
    Mutant("sweep-divides", "src/hmideals/monomial.py",
           "if i and cs[i - 1] <= c:", "if i and cs[i - 1] < c:",
           ["tests/test_monomial.py", "tests/test_properties.py"]),
    Mutant("subset-fast-path", "src/hmideals/monomial.py",
           "not all(map(le, theirs[i - 1], g))", "not any(map(le, theirs[i - 1], g))",
           ["tests/test_monomial.py", "tests/test_properties.py"]),
    Mutant("running-minimum", "src/hmideals/monomial.py",
           "if g[-1] < low:", "if g[-1] <= low:",
           ["tests/test_monomial.py", "tests/test_properties.py"]),
    Mutant("count-outside-infinity", "src/hmideals/monomial.py",
           "if any(nu[j] == box[j] for j in range(self.n)):",
           "if all(nu[j] == box[j] for j in range(self.n)):",
           ["tests/test_monomial.py", "tests/test_properties.py"]),
    # the checks of VSpectrum and spectrum_from_step
    Mutant("vspectrum-positive-cutoff", "src/hmideals/vspectrum.py",
           "if self.cutoff <= 0:", "if self.cutoff < 0:",
           ["tests/test_vspectrum.py"]),
    Mutant("vspectrum-order", "src/hmideals/vspectrum.py",
           "if not prev_beta < beta:", "if not prev_beta <= beta:",
           ["tests/test_vspectrum.py"]),
    Mutant("vspectrum-descent-subset", "src/hmideals/vspectrum.py",
           "if not (ideal.subset(prev_ideal) and ideal != prev_ideal):",
           "if not ideal != prev_ideal:",
           ["tests/test_vspectrum.py"]),
    Mutant("vspectrum-descent-strict", "src/hmideals/vspectrum.py",
           "if not (ideal.subset(prev_ideal) and ideal != prev_ideal):",
           "if not ideal.subset(prev_ideal):",
           ["tests/test_vspectrum.py"]),
    Mutant("vspectrum-cutoff", "src/hmideals/vspectrum.py",
           "if prev_beta > self.cutoff:", "if prev_beta > self.cutoff + 1:",
           ["tests/test_vspectrum.py"]),
    Mutant("from-step-cutoff-floor", "src/hmideals/vspectrum.py",
           "top = cutoff.numerator * scale // cutoff.denominator",
           "top = -(-cutoff.numerator * scale // cutoff.denominator)",
           ["tests/test_vspectrum.py", "tests/test_constructors.py"]),
    # Thom-Sebastiani: candidate jumps are the sums of one jump of each factor
    Mutant("ts-candidates", "src/hmideals/constructors.py",
           "points.update(lo1 + lo2 for lo2 in starts2[:k])",
           "points.update(lo1 + lo2 for lo2 in starts2[1:k])",
           ["tests/test_constructors.py", "tests/test_properties.py"]),
    # builtin families: each strata rule ends at the last qualifying m
    Mutant("hyperelliptic-strata-end", "src/hmideals/resolution.py",
           "range(2, (g + 3) // 2)", "range(2, (g + 1) // 2)",
           ["tests/test_resolution.py"]),
    Mutant("bn-strata-end", "src/hmideals/resolution.py",
           "math.isqrt(g) + 1", "math.isqrt(g)",
           ["tests/test_resolution.py"]),
]


def apply(mutant, checkout):
    """Make the row's edit in checkout; ValueError unless its text occurs once."""
    path = Path(checkout) / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.path}: the text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_row(mutant, archive):
    """'killed', 'killed (timeout)', 'survived' or 'error: ...' for one row,
    run on a fresh extraction of archive."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp, filter="data")
        try:
            apply(mutant, tmp)
        except ValueError as exc:
            return f"error: {exc}"
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *mutant.tests], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return f"error: pytest exit {proc.returncode}: {last}"


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_row(mutant, archive)
        failed += not outcome.startswith("killed")
        print(f"{mutant.name:28s} {outcome}  ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
