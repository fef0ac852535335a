"""Command-line front end: tables on stdout, JSON with --json.

Exit codes: 0 success, 2 malformed input, 3 cutoff exceeded.

Each command imports the library modules it uses when it runs, so a call
loads only what its command needs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import CutoffExceededError
from .rat import fmt_rat, parse_int, parse_rat

# Each class is a sum of powers: its --params form, least and most count, least value.
_CLASS_PARAMS = {
    "diagonal": ("m1,m2,...", 1, math.inf, 1),
    "fermat-cone": ("n,m", 2, 2, 2),
    "ts": ("m1,m2,...", 2, math.inf, 1),
    "power": ("m", 1, 1, 1),
}


def _exponents(klass: str, params) -> tuple:
    """The exponents (m_1, ..., m_n) of the sum of powers the class names:
    diagonal and ts list them, power m is (m,), fermat-cone n,m is (m,) * n."""
    if klass not in _CLASS_PARAMS:
        raise ValueError(f"unknown spectrum class {klass!r}")
    form, least, most, floor = _CLASS_PARAMS[klass]
    if not least <= len(params) <= most or any(p < floor for p in params):
        raise ValueError(f"--class {klass} takes --params {form}, each >= {floor}")
    return (params[1],) * params[0] if klass == "fermat-cone" else tuple(params)


def build_spectrum(klass: str, params, cutoff=None):
    """Construct the spectrum named on the command line.

    Default cutoff is the first jump plus 3.
    """
    from .constructors import spectrum_diagonal

    m_vec = _exponents(klass, params)
    if cutoff is None:
        cutoff = sum(Fraction(1, m) for m in m_vec) + 3  # the first jump, sum 1/m_j
    # every class, a Thom-Sebastiani sum of powers too, is a diagonal divisor
    return spectrum_diagonal(m_vec, cutoff)


def _ideal_str(ideal) -> str:
    """The generators as MonIdeal prints them, without the parentheses."""
    return str(ideal)[1:-1]


def _write_json(data, out, indent=2):
    import json

    json.dump(data, out, indent=indent)
    out.write("\n")


def _write_record(rec: dict, as_json: bool, out):
    """A flat record as indented JSON or as `key: value` lines."""
    if as_json:
        _write_json(rec, out)
    else:
        for key, value in rec.items():
            out.write(f"{key}: {value}\n")


def cmd_spectrum(args, out):
    spect = build_spectrum(args.klass, args.params, args.cutoff)
    if args.json:
        _write_json(spect.to_json(), out)
        return 0
    out.write(f"cutoff: {fmt_rat(spect.cutoff)}\n")
    out.write("beta | minimal generators\n")
    for beta, ideal in spect.jumps:
        out.write(f"{fmt_rat(beta)} | {_ideal_str(ideal)}\n")
    return 0


def cmd_ideal(args, out):
    if args.k < 0:
        raise ValueError("k must be >= 0")
    # hmi_twisted reads beta = k - alpha <= k + 1, or in (k, k + 1] once
    # alpha < -1 is twisted into [-1, 0)
    cutoff = args.k + 1 if args.cutoff is None else args.cutoff
    spect = build_spectrum(args.klass, args.params, cutoff)
    f_exps = tuple(args.params) if args.klass == "power" else None
    twisted = spect.hmi_twisted(args.k, args.alpha, f_exps)
    if args.json:
        _write_json(twisted.to_json(), out)
        return 0
    prefix = f"f^{twisted.f_power} * " if twisted.f_power else ""
    out.write(prefix + _ideal_str(twisted.ideal) + "\n")
    return 0


def cmd_gdim(args, out):
    from .graded import gdim_ordinary

    value = gdim_ordinary(args.n, args.m, args.k, args.alpha)
    out.write(f"{value}\n")
    return 0


def cmd_hodge(args, out):
    from .graded import hodge_cyclic_eigenspace, hodge_prim_hypersurface

    n = args.ambient_dim + 1  # variable count of the cone
    if args.eigen is not None:
        match = re.fullmatch(r"(\d+)/(\d+)", args.eigen, re.ASCII)
        if not match or int(match.group(2)) != args.degree:
            raise ValueError("--eigen must be p/m with m the degree")
        value = hodge_cyclic_eigenspace(n, args.degree, args.level, int(match.group(1)))
    else:
        value = hodge_prim_hypersurface(n, args.degree, args.level)
    out.write(f"{value}\n")
    return 0


def cmd_criteria(args, out):
    from .graded import (
        containment_threshold,
        independent_conditions_degree,
        nontriviality_data,
        symbolic_power_exponent,
    )

    if args.which == "nontriviality":
        rec = nontriviality_data(args.n, args.d, args.m)
        rec = {"k": rec["k"], "r": rec["r"], "alpha": fmt_rat(rec["alpha"])}
    elif args.which == "symbolic-power":
        rec = {"p": symbolic_power_exponent(args.codim, args.m, args.level, args.alpha)}
    elif args.which == "threshold":
        rec = {"threshold": fmt_rat(containment_threshold(args.codim, args.m))}
    else:  # indep-conditions
        rec = {"degree": independent_conditions_degree(args.n, args.m, args.d)}
    _write_record(rec, args.json, out)
    return 0


_BUILTIN_RE = re.compile(r"(\w+)(?:\((\d*)\))?$", re.ASCII)
_STRATUM_RE = re.compile(r"\s*\d+\s*:\s*\d+\s*", re.ASCII)


def _load_resolution(args):
    from .graded import StrataData
    from .resolution import ResolutionData, builtin_family

    if args.builtin:
        if args.strata is not None:
            raise ValueError("--strata goes with --file; a builtin has its own strata")
        match = _BUILTIN_RE.fullmatch(args.builtin)
        if not match:
            raise ValueError(f"malformed builtin {args.builtin!r}")
        name = match.group(1)
        params = [int(match.group(2))] if match.group(2) else []
        fam = builtin_family(name, *params)
        return fam["resolution"], fam["strata"], fam["expected_min_exponent"]
    strata = None
    if args.strata:
        pairs = args.strata.split(",")
        if not all(_STRATUM_RE.fullmatch(p) for p in pairs):
            raise ValueError("--strata takes m:codim pairs, e.g. 2:3,3:5")
        strata = StrataData(tuple(tuple(map(int, p.split(":"))) for p in pairs))
    return ResolutionData.load(args.file), strata, None


def cmd_resolution(args, out):
    from .resolution import lct, max_weight_level, min_exponent_bounds, minimal_lc_center

    res, strata, expected = _load_resolution(args)
    if args.action == "lct":
        rec = {"lct": fmt_rat(lct(res))}
    elif args.action == "bounds":
        if strata is None:
            raise ValueError("bounds needs stratum data (--strata or a builtin)")
        b = min_exponent_bounds(res, strata)
        rec = {"lower": fmt_rat(b["lower"]), "upper": fmt_rat(b["upper"])}
        if expected is not None:
            rec["expected"] = fmt_rat(expected)
    elif args.action == "weight-level":
        if args.alpha is None:
            raise ValueError("weight-level needs --alpha")
        rec = {"level": max_weight_level(res, args.alpha)}
    else:  # lc-center
        centers = minimal_lc_center(res)
        rec = {
            "centers": sorted(
                sorted(res.components[i].label for i in j) for j in centers
            )
        }
    _write_record(rec, args.json, out)
    return 0


def cmd_bs_classes(args, out):
    spect = build_spectrum(args.klass, args.params, args.cutoff)
    classes = sorted(spect.bs_root_classes())
    if args.json:
        _write_json([fmt_rat(c) for c in classes], out, indent=None)
    else:
        out.write(", ".join(fmt_rat(c) for c in classes) + "\n")
    return 0


def _int_arg(text):
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rat_arg(text):
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _params_arg(text):
    try:
        return [parse_int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"want comma-separated integers, got {text!r}")


class _UsageError(Exception):
    """An argparse error, raised instead of printing the usage block."""


class _Parser(argparse.ArgumentParser):
    """Argparse with its errors raised, for run() to report on one line;
    the subparsers inherit the class."""

    def error(self, message):
        raise _UsageError(message)


def _usage_message(message: str, argv) -> str:
    """The argparse message, naming the fix when an option's value was
    taken for an option because it starts with '-'."""
    match = re.fullmatch(r"argument (\S+): expected one argument", message)
    if match:
        flags = match.group(1).split("/")
        for flag, value in zip(argv, argv[1:]):
            if flag in flags and value.startswith("-"):
                return (f"{message}; write a value that starts with '-' "
                        f"with '=', as in {flag}={value}")
    return message


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hmideals",
        description="Exact invariants of hypersurface singularities with "
        "closed-form filtration data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    int_help = {"ambient-dim": "projective dimension of the ambient space"}

    def int_flags(p, *names):
        for name in names:
            p.add_argument(f"--{name}", type=_int_arg, required=True, help=int_help.get(name))

    def spectrum_flags(p):
        p.add_argument("--class", dest="klass", required=True,
                       choices=list(_CLASS_PARAMS))
        p.add_argument("--params", type=_params_arg, required=True,
                       help="comma-separated integers, e.g. 2,3")
        p.add_argument("--cutoff", type=_rat_arg, default=None,
                       help='rational "p/q"; default: first jump + 3, for ideal k + 1')
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectrum", help="jump table of a filtration spectrum")
    spectrum_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ideal", help="one two-index ideal, with f-power twist")
    spectrum_flags(p)
    int_flags(p, "k")
    p.add_argument("--alpha", type=_rat_arg, required=True, help='rational "p/q", e.g. -1/2')
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("gdim", help="graded-piece dimension at an ordinary point")
    int_flags(p, "n", "m", "k")
    p.add_argument("--alpha", type=_rat_arg, required=True)
    p.set_defaults(func=cmd_gdim)

    p = sub.add_parser("hodge", help="primitive Hodge numbers via the residue grading")
    int_flags(p, "ambient-dim", "degree", "level")
    p.add_argument("--eigen", default=None, help="p/m for the cyclic-cover eigenspace")
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("criteria", help="numerical criteria arithmetic")
    which = p.add_subparsers(dest="which", required=True)
    for name, flags in (("nontriviality", "n d m"), ("symbolic-power", "codim m level"),
                        ("threshold", "codim m"), ("indep-conditions", "n m d")):
        q = which.add_parser(name)
        int_flags(q, *flags.split())
        if name == "symbolic-power":
            q.add_argument("--alpha", type=_rat_arg, required=True)
        q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("resolution", help="log-resolution combinatorics")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="JSON resolution data")
    src.add_argument("--builtin", help="family name, e.g. hyperelliptic_theta(5)")
    p.add_argument("action", choices=["lct", "bounds", "weight-level", "lc-center"])
    p.add_argument("--alpha", type=_rat_arg, default=None, help="index for weight-level")
    p.add_argument("--strata", default=None, help='m:codim pairs, e.g. "2:3,3:5"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("bs-classes", help="Bernstein-Sato root classes mod Z")
    spectrum_flags(p)
    p.set_defaults(func=cmd_bs_classes)

    return parser


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, --version
        return 2 if exc.code not in (0, None) else 0
    except _UsageError as exc:
        print(f"error: {_usage_message(str(exc), argv)}", file=sys.stderr)
        return 2
    try:
        return args.func(args, out)
    except CutoffExceededError as exc:
        hint = "" if exc.needed is None else f"; rerun with --cutoff >= {fmt_rat(exc.needed)}"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
