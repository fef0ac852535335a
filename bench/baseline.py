"""Time the ROADMAP baseline inputs one at a time.

    python3 bench/baseline.py

Each library input is built REPEATS times in this process and each CLI
command is run as that many child processes, one after another; the
median wall time of each is printed.  bench/NOTES.md records the figures
next to the ROADMAP ones.
"""

import statistics
import sys
import time
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hmideals as hm  # noqa: E402
import workloads  # noqa: E402

REPEATS = 3
LIBRARY = (
    ("spectrum_diagonal((2,3), 13/6)", lambda: hm.spectrum_diagonal((2, 3), F(13, 6))),
    ("spectrum_diagonal((2,3,5), 91/30)", lambda: hm.spectrum_diagonal((2, 3, 5), F(91, 30))),
    ("spectrum_diagonal((4,4,4), 11/4)", lambda: hm.spectrum_diagonal((4, 4, 4), F(11, 4))),
    ("spectrum_diagonal((3,3,3,3), 10/3)", lambda: hm.spectrum_diagonal((3, 3, 3, 3), F(10, 3))),
    ("spectrum_diagonal((4,4,4,4), 3)", lambda: hm.spectrum_diagonal((4, 4, 4, 4), F(3))),
    ("spectrum_ordinary_fermat(4, 4, 3)", lambda: hm.spectrum_ordinary_fermat(4, 4, F(3))),
)
CLI = (
    "spectrum --class diagonal --params 3,3,3,3",
    "gdim --n 3 --m 3 --k 1 --alpha 0",
)


def median_s(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    for label, fn in LIBRARY:
        print(f"{label:40s} {median_s(fn) * 1e3:10.1f} ms", flush=True)
    for line in CLI:
        def child():
            code, _out, err = workloads.run_child(ROOT, line.split(), timeout=120)
            if code != 0:
                raise RuntimeError(err)
        print(f"cli {line:36s} {median_s(child) * 1e3:10.1f} ms", flush=True)


if __name__ == "__main__":
    main()
