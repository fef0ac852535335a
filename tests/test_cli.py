"""Exit codes and output of the command-line front end."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hmideals.cli import _int_arg, build_spectrum, make_parser, run
from test_traced_names import bench_literal

ROOT = Path(__file__).resolve().parents[1]
RECORDED = json.loads((ROOT / "bench" / "cli_expected.json").read_text())
CHAIN = bench_literal("workloads.py", "CLI_FILES")["chain.json"]  # the --file row's input


# Each command that reads integer flags, its other arguments, and a valid
# value of each integer flag.
INTEGER_FLAGS = {
    "ideal": {"k": 1},
    "gdim": {"n": 3, "m": 3, "k": 1},
    "hodge": {"ambient-dim": 4, "degree": 5, "level": 2},
    "criteria nontriviality": {"n": 5, "d": 1, "m": 2},
    "criteria symbolic-power": {"codim": 3, "m": 2, "level": 2},
    "criteria threshold": {"codim": 3, "m": 2},
    "criteria indep-conditions": {"n": 4, "m": 3, "d": 2},
}
INTEGER_FLAG_CASES = [(command, flag) for command, flags in INTEGER_FLAGS.items()
                      for flag in flags]
_OTHER_ARGS = {"ideal": ["--class=diagonal", "--params=2,3", "--alpha=-1/2"],
               "gdim": ["--alpha=0"], "criteria symbolic-power": ["--alpha=-1/2"]}


def integer_argv(command, values):
    """command's argv, each integer flag given its valid value unless values
    names another."""
    flags = INTEGER_FLAGS[command]
    return [*command.split(), *_OTHER_ARGS.get(command, []),
            *(f"--{f}={values.get(f, v)}" for f, v in flags.items())]


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestSpectrum:
    def test_cusp_table(self):
        code, text = invoke(
            "spectrum", "--class", "diagonal", "--params", "2,3", "--cutoff", "13/6"
        )
        assert code == 0
        assert "5/6" in text and "13/6" in text
        assert "x^2, x*y, y^3" in text

    def test_json_round_trip(self):
        code, text = invoke(
            "spectrum", "--class", "diagonal", "--params", "2,3",
            "--cutoff", "13/6", "--json",
        )
        assert code == 0
        data = json.loads(text)
        assert data["n"] == 2
        assert data["cutoff"] == "13/6"
        assert [j["beta"] for j in data["jumps"]] == ["5/6", "7/6", "11/6", "13/6"]

    def test_default_cutoff(self):
        code, text = invoke("spectrum", "--class", "power", "--params", "2")
        assert code == 0
        assert "1/2" in text


class TestRecorded:
    @pytest.mark.parametrize("line", sorted(RECORDED))
    def test_matches_recorded_output(self, tmp_path, monkeypatch, capsys, line):
        """Every command the benchmark's cli-session workload runs exits as
        recorded: on exit 0 its stdout is byte-identical to the recorded
        digest, otherwise stdout is empty and stderr is one error line."""
        recorded = RECORDED[line]
        monkeypatch.chdir(tmp_path)
        (tmp_path / ".bench_build" / "cli").mkdir(parents=True)
        (tmp_path / ".bench_build" / "cli" / "chain.json").write_text(json.dumps(CHAIN))
        code, text = invoke(*line.split())
        err = capsys.readouterr().err
        assert code == recorded["exit"]
        if code == 0:
            assert hashlib.sha256(text.encode()).hexdigest() == recorded["stdout_sha256"]
        else:
            assert text == "" and err.count("\n") == 1 and err.startswith("error: ")


class TestIdeal:
    def test_cusp_level_one(self):
        code, text = invoke(
            "ideal", "--class", "diagonal", "--params", "2,3",
            "--k", "1", "--alpha", "-1",
        )
        assert code == 0
        assert "x^2, x*y, y^3" in text

    def test_twisted_diagonal(self):
        # alpha = -3/2 is read at alpha + 1 with one power of f split off
        code, text = invoke(
            "ideal", "--class", "diagonal", "--params", "2,3", "--k", "1", "--alpha=-3/2"
        )
        assert code == 0 and text == "f^1 * x, y^2\n"

    def test_deep_twist(self):
        """The default cutoff does not grow with the twist: hmi_twisted reads
        beta <= k + 1 whatever alpha is."""
        code, text = invoke(
            "ideal", "--class", "diagonal", "--params", "3,3,3", "--k", "1", "--alpha=-60"
        )
        assert code == 0 and text == "f^59 * x^2, x*y*z, y^2, z^2\n"

    @pytest.mark.parametrize("alpha", ["1/2", "0", "-1", "-3/2", "-5/2"])
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("klass, params", [
        ("diagonal", "2,3,4"), ("power", "3"), ("fermat-cone", "3,3"), ("ts", "2,5"),
    ])
    def test_default_cutoff_answers(self, klass, params, k, alpha):
        """The default cutoff k + 1 reaches every beta that hmi_twisted reads:
        the output, plain and --json, is the one at cutoff k + 2."""
        argv = ["ideal", "--class", klass, "--params", params, "--k", str(k), f"--alpha={alpha}"]
        for extra in ([], ["--json"]):
            default = invoke(*argv, *extra)
            assert default[0] == 0
            assert default == invoke(*argv, *extra, f"--cutoff={k + 2}")

    def test_twisted_power(self):
        code, text = invoke(
            "ideal", "--class", "power", "--params", "1", "--k", "0", "--alpha", "-2"
        )
        assert code == 0
        assert text.strip() == "x"


class TestNumbers:
    def test_gdim(self):
        code, text = invoke("gdim", "--n", "3", "--m", "3", "--k", "1", "--alpha", "0")
        assert code == 0 and text.strip() == "1"

    def test_hodge(self):
        # quintic threefold in P^4
        code, text = invoke("hodge", "--ambient-dim", "4", "--degree", "5", "--level", "2")
        assert code == 0 and text.strip() == "101"

    def test_hodge_large_degree(self):
        # the Jacobian-ring Hilbert function of 90 variables in degree 90
        code, text = invoke("hodge", "--ambient-dim", "89", "--degree", "90", "--level", "1")
        assert code == 0 and text.strip() == "1"

    def test_criteria_indep_conditions(self):
        code, text = invoke(
            "criteria", "indep-conditions", "--n", "3", "--m", "2", "--d", "5"
        )
        assert code == 0 and "6" in text


class TestResolution:
    def test_file_bounds_with_strata(self, tmp_path):
        p = tmp_path / "res.json"
        p.write_text(json.dumps({"components": [{"label": "E", "e": 2, "k": 1}]}))
        code, text = invoke("resolution", "--file", str(p), "bounds", "--strata", "2:3, 3:5")
        assert code == 0 and text == "lower: 1\nupper: 3/2\n"

    def test_builtin_bounds(self):
        code, text = invoke(
            "resolution", "--builtin", "hyperelliptic_theta(5)", "bounds"
        )
        assert code == 0
        assert "3/2" in text

    def test_file_lct(self, tmp_path):
        p = tmp_path / "res.json"
        p.write_text(json.dumps({
            "components": [
                {"label": "E1", "e": 2, "k": 1},
                {"label": "E2", "e": 3, "k": 2},
                {"label": "E3", "e": 6, "k": 4},
            ],
            "maximal_intersections": [[0, 2], [1, 2]],
        }))
        code, text = invoke("resolution", "--file", str(p), "lct")
        assert code == 0 and "5/6" in text


class TestBsClasses:
    def test_cusp(self):
        code, text = invoke(
            "bs-classes", "--class", "diagonal", "--params", "2,3", "--cutoff", "13/6"
        )
        assert code == 0
        for rep in ("-1", "-5/6", "-1/6"):
            assert rep in text


class TestExitCodes:
    def test_malformed_rational(self):
        code, _ = invoke(
            "ideal", "--class", "diagonal", "--params", "2,3",
            "--k", "1", "--alpha", "1/-2",
        )
        assert code == 2

    def test_unknown_class(self):
        code, _ = invoke("spectrum", "--class", "generic", "--params", "2")
        assert code == 2
        # argparse refuses it first; the library call makes its own check
        with pytest.raises(ValueError, match="unknown spectrum class 'generic'"):
            build_spectrum("generic", [2])

    def test_cutoff_exceeded(self, capsys):
        code, text = invoke(
            "ideal", "--class", "diagonal", "--params", "2,3",
            "--k", "5", "--alpha", "0", "--cutoff", "2",
        )
        assert code == 3 and text == ""
        assert capsys.readouterr().err == (
            "error: beta=5 outside (0, 2]; rerun with --cutoff >= 5\n")

    def test_missing_file(self):
        code, _ = invoke("resolution", "--file", "/nonexistent.json", "lct")
        assert code == 2


class TestInputErrors:
    """Inputs that once ended in a traceback: exit 2 and one error line."""

    def assert_one_error_line(self, capsys):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_weight_level_without_alpha(self, capsys):
        code, text = invoke("resolution", "--builtin", "secant(2)", "weight-level")
        assert code == 2 and text == ""
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("data", [
        {"components": [{"label": "E", "e": None, "k": 1}]},
        {"components": [{"label": "E", "e": 2, "k": True}]},
        [{"label": "E", "e": 2, "k": 1}],
        {"components": [1]},
        {"components": 5},
        {"components": [{"label": "E", "e": 2, "k": 1}], "maximal_intersections": [[None]]},
        {"components": [{"label": "E", "e": 2, "k": 1}], "maximal_intersections": [[0, 7]]},
        {"components": [{"label": 1, "e": 2, "k": 1}, {"label": "F", "e": 2, "k": 1}]},
        {"components": [{"label": "E", "e": 2, "k": 1}, {"label": "E", "e": 3, "k": 1}]},
        {"components": [{"label": "E", "e": 2, "k": 1, "exceptional": "false"}]},
    ], ids=["e-null", "k-bool", "top-level-list", "component-not-object",
            "components-not-list", "index-null", "index-out-of-range",
            "label-not-string", "duplicate-label", "exceptional-string"])
    def test_malformed_resolution_file(self, tmp_path, capsys, data):
        p = tmp_path / "res.json"
        p.write_text(json.dumps(data))
        code, text = invoke("resolution", "--file", str(p), "lct")
        assert code == 2 and text == ""
        self.assert_one_error_line(capsys)

    def test_symbolic_power_bad_stratum(self, capsys):
        code, text = invoke("criteria", "symbolic-power", "--codim=-1", "--m", "0",
                            "--level", "0", "--alpha", "0")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: need codim >= 1 and m >= 2\n"

    @pytest.mark.parametrize("argv, message", [
        ("criteria threshold --codim 0 --m 2", "need codim >= 1 and m >= 2"),
        ("criteria threshold --codim=-3 --m 2", "need codim >= 1 and m >= 2"),
        ("criteria indep-conditions --n 4 --m 3 --d 0", "need n >= 3, m >= 2 and d >= 1"),
        ("criteria symbolic-power --codim 3 --m 2 --level=-1 --alpha 0",
         "level must be >= 0"),
    ])
    def test_criteria_out_of_range(self, capsys, argv, message):
        code, text = invoke(*argv.split())
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("strata", ["2", "2:3,3", "2:x", "2:3:4", "-2:3", "٢:3"])
    def test_malformed_strata(self, tmp_path, capsys, strata):
        p = tmp_path / "res.json"
        p.write_text(json.dumps({"components": [{"label": "E", "e": 2, "k": 1}]}))
        code, text = invoke("resolution", "--file", str(p), "bounds", f"--strata={strata}")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: --strata takes m:codim pairs, e.g. 2:3,3:5\n")

    def test_file_bounds_without_strata(self, tmp_path, capsys):
        p = tmp_path / "res.json"
        p.write_text(json.dumps({"components": [{"label": "E", "e": 2, "k": 1}]}))
        code, text = invoke("resolution", "--file", str(p), "bounds")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: bounds needs stratum data (--strata or a builtin)\n")

    def test_strata_with_builtin(self, capsys):
        code, text = invoke("resolution", "--builtin", "secant(3)", "bounds", "--strata", "2:3")
        assert code == 2 and text == ""
        self.assert_one_error_line(capsys)

    def test_negative_level(self, capsys):
        code, text = invoke(
            "ideal", "--class", "diagonal", "--params", "2,3", "--k", "-5", "--alpha", "0"
        )
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: k must be >= 0\n"

    # int() alone reads other scripts' digits ("٣" is an Arabic-Indic 3)
    # and underscores; str.strip() also drops "\x1c" and non-ASCII spaces.
    @pytest.mark.parametrize("alpha", ["x", "1/x", "1/", "1/2/3", "٣", "3_0/7", "1/٢", "1/+-2",
                                       "\x1c0", "\u00a01/2"])
    def test_non_numeric_alpha_names_the_form(self, capsys, alpha):
        code, text = invoke("criteria", "symbolic-power", "--codim", "3", "--m", "2",
                            "--level", "2", "--alpha", alpha)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: argument --alpha: want p/q or an integer, got {alpha!r}\n")

    def test_gdim_negative_level(self, capsys):
        code, text = invoke("gdim", "--n", "3", "--m", "3", "--k", "-1", "--alpha", "0")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: k must be >= 0\n"

    @pytest.mark.parametrize("builtin", ["hyperelliptic_theta", "hyperelliptic_theta()"])
    def test_builtin_without_parameter(self, capsys, builtin):
        code, text = invoke("resolution", "--builtin", builtin, "bounds")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "hyperelliptic_theta(g)" in err

    @pytest.mark.parametrize("argv, hint", [
        ("spectrum --class diagonal --params -1,2", "--params=-1,2"),
        ("ideal --class diagonal --params 2,3 --k 1 --alpha -1/2", "--alpha=-1/2"),
        ("ideal --class diagonal --params 2,3 --k 1 --alpha", None),
        ("spectrum --class diagonal", None),
        ("spectrum --class diagonal --params 2 --bogus", None),
        ("criteria", None),
    ])
    def test_argparse_errors(self, capsys, argv, hint):
        """Argparse's own errors: one line, no usage block; a value taken for
        an option because it starts with '-' is shown written with '='."""
        code, text = invoke(*argv.split())
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "usage" not in err
        assert ("=-" in err) == (hint is not None)
        if hint:
            assert f"as in {hint}\n" in err

    def test_help_exits_zero(self, capsys):
        code, _ = invoke("spectrum", "--help")
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: hmideals spectrum") and captured.err == ""

    def test_version(self):
        """`hmideals --version` exits 0 and prints the version that
        pyproject.toml declares."""
        version = re.search(r'^version = "(.+)"$', (ROOT / "pyproject.toml").read_text(),
                            re.M).group(1)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "hmideals.cli", "--version"],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == f"hmideals {version}\n"

    @pytest.mark.parametrize("argv", [
        "spectrum --class fermat-cone --params 3",
        "ideal --class fermat-cone --params 3 --k 0 --alpha 0",
        "spectrum --class power --params ,",
        "spectrum --class diagonal --params 2,0",
        "spectrum --class fermat-cone --params 3,0",
        "bs-classes --class power --params 0",
    ])
    def test_class_parameters(self, capsys, argv):
        code, text = invoke(*argv.split())
        assert code == 2 and text == ""
        self.assert_one_error_line(capsys)

    # An empty item is an error, not skipped; the digits are ASCII only.
    @pytest.mark.parametrize("params", [",2", "2,,3", "2,3,", "", "٣", "3_0", "2,+-3"])
    def test_params_are_ascii_integers(self, capsys, params):
        code, text = invoke("spectrum", "--class", "diagonal", f"--params={params}")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: argument --params: want comma-separated integers, got {params!r}\n")

    # int() alone also reads "1_0", other scripts' digits and a run of signs;
    # "\x1c" is a separator that str.strip() drops and int() refuses.
    @pytest.mark.parametrize("value", ["1_0", "٣", "", "+-3", "--3", "++3", "\x1c3"])
    @pytest.mark.parametrize("command, flag", INTEGER_FLAG_CASES)
    def test_integer_flags_are_ascii_integers(self, capsys, command, flag, value):
        code, text = invoke(*integer_argv(command, {flag: value}))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: argument --{flag}: want an integer, got {value!r}\n")

    @pytest.mark.parametrize("argv, message", [
        (["hodge", "--ambient-dim", "4", "--degree", "5", "--level", "2", "--eigen", "٢/5"],
         "--eigen must be p/m with m the degree"),
        (["resolution", "--builtin", "secant(٣)", "lct"], "malformed builtin 'secant(٣)'"),
    ])
    def test_pattern_digits_are_ascii(self, capsys, argv, message):
        code, text = invoke(*argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integers_keep_surrounding_spaces(self):
        assert invoke("spectrum", "--class", "diagonal", "--params= 2, 3 ",
                      "--cutoff= 13 / 6 ") == invoke("spectrum", "--class", "diagonal",
                                                     "--params=2,3", "--cutoff=13/6")

    @pytest.mark.parametrize("command", INTEGER_FLAGS)
    def test_integer_flags_keep_surrounding_spaces_and_sign(self, command):
        flags = INTEGER_FLAGS[command]
        padded = invoke(*integer_argv(command, {f: f" +{v} " for f, v in flags.items()}))
        assert padded == invoke(*integer_argv(command, {})) and padded[0] == 0

    def test_fermat_cone_bound(self, capsys):
        code, text = invoke("spectrum", "--class", "fermat-cone", "--params", "1,3")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: --class fermat-cone takes --params n,m, each >= 2\n")


def _parsers(parser):
    """parser and every subparser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_integer_flags_have_one_grammar():
    """No flag reads int() directly, and the integer flags are exactly those
    INTEGER_FLAGS lists, each through parse_int."""
    actions = [(p.prog, a) for p in _parsers(make_parser()) for a in p._actions]
    assert not [a.dest for _, a in actions if a.type is int]
    typed = sorted((prog.removeprefix("hmideals "), a.option_strings[0][2:])
                   for prog, a in actions if a.type is _int_arg)
    assert typed == sorted(INTEGER_FLAG_CASES) and len(typed) == 18


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["spectrum", "ideal", "bs-classes"]),
    klass=st.sampled_from(["diagonal", "fermat-cone", "ts", "power"]),
    params=st.lists(st.integers(-1, 4), max_size=3),
    cutoff=st.none() | st.fractions(min_value=-1, max_value=3, max_denominator=4),
    k=st.integers(-2, 3),
    alpha=st.sampled_from([F(0), F(-1, 2), F(1, 3)]),
)
def test_argv_fuzz(command, klass, params, cutoff, k, alpha):
    """Well-formed argv for the spectrum commands: exit 0, 2 or 3, never an
    exception, and one `error:` line on stderr for a nonzero exit."""
    argv = [command, "--class", klass, "--params=" + ",".join(map(str, params))]
    if cutoff is not None:
        argv.append(f"--cutoff={cutoff}")
    if command == "ideal":
        argv += [f"--k={k}", f"--alpha={alpha}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=io.StringIO())
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


_FAMILIES = ["hyperelliptic_theta", "bn_general_theta", "determinantal", "secant",
             "cubic_threefold"]
_ALPHAS = ["0", "1", "-1", "1/2", "-1/2", "-2/3", "5/3"]


@st.composite
def _other_argv(draw):
    """Well-formed argv for gdim, hodge, criteria and resolution --builtin."""
    small = st.integers(-2, 6)
    alpha = "--alpha=" + draw(st.sampled_from(_ALPHAS))
    command = draw(st.sampled_from(["gdim", "hodge", "criteria", "resolution"]))
    if command == "gdim":
        return ["gdim", *(f"--{f}={draw(small)}" for f in "nmk"), alpha]
    if command == "hodge":
        argv = ["hodge", *(f"--{f}={draw(small)}" for f in ("ambient-dim", "degree", "level"))]
        if draw(st.booleans()):
            argv.append(f"--eigen={draw(small)}/{draw(small)}")
        return argv
    if command == "criteria":
        flags = {
            "nontriviality": ["n", "d", "m"],
            "symbolic-power": ["codim", "m", "level"],
            "threshold": ["codim", "m"],
            "indep-conditions": ["n", "m", "d"],
        }
        which = draw(st.sampled_from(sorted(flags)))
        argv = ["criteria", which, *(f"--{f}={draw(small)}" for f in flags[which])]
        return argv + [alpha] if which == "symbolic-power" else argv
    family = draw(st.sampled_from(_FAMILIES))
    n = draw(st.none() | st.integers(-1, 60))
    action = draw(st.sampled_from(["lct", "bounds", "weight-level", "lc-center"]))
    argv = ["resolution", "--builtin", family if n is None else f"{family}({n})", action]
    return argv + [alpha] if draw(st.booleans()) else argv


def _criteria_out_of_range(argv) -> bool:
    """True for criteria argv with a value outside its command's domain."""
    if argv[0] != "criteria":
        return False
    v = {flag[2:]: int(value) for flag, value in (a.split("=") for a in argv[2:])
         if flag != "--alpha"}
    return {
        "nontriviality": lambda: not v["n"] > v["d"] >= 0 or v["m"] < 2,
        "symbolic-power": lambda: v["codim"] < 1 or v["m"] < 2 or v["level"] < 0,
        "threshold": lambda: v["codim"] < 1 or v["m"] < 2,
        "indep-conditions": lambda: v["n"] < 3 or v["m"] < 2 or v["d"] < 1,
    }[argv[1]]()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_other_argv())
@example(argv=["criteria", "threshold", "--codim=0", "--m=2"])
@example(argv=["criteria", "threshold", "--codim=-3", "--m=2"])
@example(argv=["criteria", "indep-conditions", "--n=4", "--m=3", "--d=0"])
@example(argv=["criteria", "symbolic-power", "--codim=3", "--m=2", "--level=-1", "--alpha=0"])
def test_argv_fuzz_other_commands(argv):
    """Well-formed argv for the remaining subcommands: exit 0, 2 or 3, never
    an exception, and one `error:` line on stderr for a nonzero exit; exit 2
    for criteria values outside their domain."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=io.StringIO())
    assert code in (0, 2, 3)
    if _criteria_out_of_range(argv):
        assert code == 2
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
