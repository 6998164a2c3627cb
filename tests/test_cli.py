"""Command-line interface: parsing, exit codes, formats, round-trips."""

import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from besselsix import certify, cli, quadrature
import hiprec
from besselsix.bessel import CertifiedValue, bessel_series_oracle
from besselsix.certify import THEOREM_MAP
from besselsix.core_integrals import core_bound_breakdown, main_term
from besselsix.exactnum import N_MAX, ExactScalar
from besselsix.expansions import base_expansion, product_expansion
from testkit import breakdown_from_payload, expansion_from_payload, integrate_from_payload, theorem_verdict

README = Path(__file__).resolve().parent.parent / "README.md"
BUDGET_ITEMS = ["quad_low", "quad_high", "tail_main_eval", "tail_error_terms", "rounding"]

# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_integrate():
    config = cli.parse_args(["integrate", "--variant", "1", "--m", "2", "--n", "9"])
    assert config.command == "integrate"
    assert config.variant == "I1"
    assert (config.m, config.n) == (2, 9)
    assert not config.json


def test_parse_table_rows():
    config = cli.parse_args(["table", "--rows", "3..5"])
    assert config.rows == (3, 4, 5)
    assert config.csv == "-"
    single = cli.parse_args(["table", "--rows", "7"])
    assert single.rows == (7,)


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--variant", "1", "--m", "3", "--n", "5"],  # odd m
        ["integrate", "--variant", "0", "--m", "-2", "--n", "5"],
        ["integrate", "--variant", "0", "--m", "0", "--n", "1"],  # n too small
        ["integrate", "--variant", "0", "--m", "6", "--n", "4"],  # m > n
        ["check-theorem", "--variant", "0", "--m", "1", "--n", "5"],
        ["predict", "--variant", "2", "--m", "0", "--n", "25"],  # bad variant
        ["integrate", "--variant", "0", "--m", "0", "--n", "5", "--frobnicate"],
        ["table", "--rows", "1..5"],
        ["table", "--rows", "18..20"],
        ["table", "--rows", "abc"],
        ["table", "--rows", "5..4"],
        ["expansion", "--which", "j2"],
        ["no-such-command"],
        [],
    ],
)
def test_rejected_command_lines(argv):
    with pytest.raises(cli.UsageError):
        cli.parse_args(argv)


def test_usage_error_exit_code(capsys):
    assert cli.main(["integrate", "--variant", "1", "--m", "3", "--n", "5"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "even" in err


def _readme_command_lines() -> list[str]:
    """The ``besselsix ...`` lines of the README's "Command line" section."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line.strip() for line in section.splitlines() if line.strip().startswith("besselsix ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    argvs = [shlex.split(line, comments=True)[1:] for line in lines]
    assert len(argvs) == 12
    assert ["table", "--rows", "7..9", "--paper"] in argvs
    for line, argv in zip(lines, argvs):
        try:
            cli.parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"README line {line!r}: {exc}")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_domain_error_exit_code(capsys):
    # The series oracle is only certified out to r = 200; a refusal prints no value.
    for r in ("250", "500"):
        assert cli.main(["eval-bessel", "--n", "3", "--r", r, "--oracle"]) == 3
        captured = capsys.readouterr()
        assert "domain error" in captured.err
        assert captured.out == ""
    # the phase reduction is exact only below about 5.27e7; 1e20 used to exit 4
    assert cli.main(["eval-bessel", "--n", "2", "--r", "1e20"]) == 3
    assert capsys.readouterr().err.startswith("domain error: r must lie in [0, 5.27072e+07)")


@pytest.mark.parametrize(
    "flags, expected",
    [([], quadrature.DEFAULT_SCHEME), (["--paper"], quadrature.PAPER_SCHEME)],
)
def test_scheme_flags_select_the_rule(flags, expected):
    # the split is fixed; --paper picks the paper's NC7 rule over Gauss panels
    for argv in (
        ["integrate", "--variant", "0", "--m", "0", "--n", "5", *flags],
        ["table", "--rows", "3", *flags],
    ):
        assert cli._scheme_from(cli.parse_args(argv)) == expected


@pytest.mark.parametrize("flags", [["--S", "3600"], ["--R", "63000"], ["--w-low", "0.003"], ["--w-high", "0.05"]])
def test_removed_grid_flags_are_usage_errors(flags, capsys):
    for command in (["integrate", "--variant", "0", "--m", "0", "--n", "5"], ["table", "--rows", "3"]):
        assert cli.main([*command, *flags]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: unrecognized arguments: {flags[0]}")


def test_default_table_matches_the_paper_rule(capsys):
    assert cli.main(["table", "--rows", "2..3"]) == 0
    gauss = capsys.readouterr().out
    assert cli.main(["table", "--rows", "2..3", "--paper"]) == 0
    assert capsys.readouterr().out == gauss


def test_predict_below_cutoff_is_domain_error(capsys):
    assert cli.main(["predict", "--variant", "0", "--m", "0", "--n", "10"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["predict", "core-bounds"])
def test_n_past_the_cap_is_a_domain_error(command, capsys):
    # past the cap, predict printed "+/- 0" and exited 0; at 10^400 both
    # commands exited 4 with an OverflowError
    argv = [command, "--variant", "0", "--m", "4"]
    assert cli.main([*argv, "--n", str(N_MAX)]) == 0
    capsys.readouterr()
    for n in (N_MAX + 1, 10**400):
        assert cli.main([*argv, "--n", str(n)]) == 3
        assert capsys.readouterr().err == "domain error: the certified regime needs n <= 1e+38\n"


def test_predict_certification_failure_exit_four(monkeypatch, capsys):
    # a stored roll-up below its item sum must fail the prediction, not pass
    certify._rolled_ok.cache_clear()
    monkeypatch.setitem(certify._ROLLED, (0, "I0"), 1e-9)
    try:
        assert cli.main(["predict", "--variant", "0", "--m", "0", "--n", "25"]) == 4
    finally:
        certify._rolled_ok.cache_clear()
    assert capsys.readouterr().err.startswith("certification error: ")


def test_check_theorem_pass_exit_zero(capsys):
    code = cli.main(["check-theorem", "--variant", "0", "--m", "2", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_check_theorem_failure_exit_two(monkeypatch, capsys):
    # No real cell fails, so splice in an enclosure that deviates wildly.
    monkeypatch.setattr(quadrature, "_integral_and_budget", lambda *a, **k: (CertifiedValue(1.0, 0.0), None))
    code = cli.main(["check-theorem", "--variant", "0", "--m", "2", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# simple reports
# ---------------------------------------------------------------------------


def test_eval_bessel_output(capsys):
    assert cli.main(["eval-bessel", "--n", "5", "--r", "10", "--oracle"]) == 0
    out = capsys.readouterr().out
    value_line, enclosure_line = out.splitlines()
    assert value_line.startswith("J_5(10) = ")
    assert enclosure_line.startswith("series enclosure: ")
    value = float(value_line.split("= ")[1])
    mid, rad = (float(part) for part in enclosure_line.split(": ")[1].split(" +/- "))
    assert abs(value - mid) <= rad + 1e-15  # J_5(10) = -0.23406152818679364...


def _loaded_after(code: str, module: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after ``code`` ran in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    probe = f"{code}\nimport sys\nprint({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("code", [
    "import besselsix",
    "from besselsix import cli; cli.main(['integrate', '--variant', '0', '--m', '0', '--n', '7', '--json'])",
], ids=["import", "integrate"])
def test_scipy_is_never_imported(code):
    # the package evaluates every Bessel factor with numpy alone
    assert not _loaded_after(code, "scipy")


def _cli_exits(argv: list[str], status: int) -> str:
    return f"from besselsix import cli\nassert cli.main({argv!r}) == {status}"


@pytest.mark.parametrize("code", [
    "import besselsix",
    "import besselsix\np = besselsix.predict(2, 25, 'I0')\n"
    "assert besselsix.check_theorem(2, 25, 'I0', besselsix.CertifiedValue(p.main.to_real(), p.radius)).passed",
    "from besselsix.core_integrals import core_bound_breakdown\ncore_bound_breakdown(2, 25, 'I0')",
    _cli_exits(["predict", "--variant", "0", "--m", "2", "--n", "25", "--budget"], 0),
    _cli_exits(["core-bounds", "--variant", "1", "--m", "2", "--n", "30", "--breakdown"], 0),
    _cli_exits(["closed-form", "--n", "1", "--m", "1", "--k", "2"], 0),
    _cli_exits(["expansion", "--which", "j110", "--json"], 0),
    _cli_exits(["theorem-map"], 0),
    _cli_exits(["table", "--rows", "25"], 1),
], ids=["import", "predict-check", "breakdown", "cli-predict", "cli-core-bounds", "cli-closed-form",
        "cli-expansion", "cli-theorem-map", "cli-refused-table"])
def test_analytic_route_never_imports_numpy(code):
    # numpy, and the bessel and quadrature modules built on it, load only
    # when a Bessel function is evaluated
    assert not _loaded_after(code, "numpy")


def test_numeric_names_load_on_first_use():
    import besselsix
    from besselsix import (
        DEFAULT_SCHEME,
        PAPER_SCHEME,
        CertifiedValue,
        QuadratureScheme,
        bessel_j,
        build_table,
        integral,
    )

    assert (integral, build_table, QuadratureScheme) == (
        quadrature.integral, quadrature.build_table, quadrature.QuadratureScheme
    )
    assert (DEFAULT_SCHEME, PAPER_SCHEME) == (quadrature.DEFAULT_SCHEME, quadrature.PAPER_SCHEME)
    assert bessel_j is besselsix.bessel.bessel_j
    assert CertifiedValue is besselsix.bessel.CertifiedValue is besselsix.exactnum.CertifiedValue
    assert "integral" in vars(besselsix)  # bound on first access
    with pytest.raises(AttributeError):
        besselsix.no_such_name


_REFUSE_LINALG = """
import contextlib, io
import numpy as np
def _refuse(name):
    def refuse(*args, **kwargs):
        raise RuntimeError(f"numpy.linalg.{name} called")
    return refuse
for name in dir(np.linalg):
    public = getattr(np.linalg, name)
    if not name.startswith("_") and callable(public) and not isinstance(public, type):
        setattr(np.linalg, name, _refuse(name))
from besselsix import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (%r, %r)]
print(codes)
"""


def test_no_cli_path_calls_linear_algebra():
    # numpy.linalg starts the BLAS thread pool, which then spins for the rest
    # of a short-lived CLI process; the Gauss rules are built without it
    argvs = (["integrate", "--variant", "0", "--m", "0", "--n", "7", "--json"], ["table", "--rows", "7..9"])
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _REFUSE_LINALG % argvs], env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[0, 0]"], result.stderr


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_THREADS_AFTER = """
import contextlib, io, json, os
before = dict(os.environ)
%s
print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "added": sorted(set(os.environ) - set(before)),
    "changed": sorted(k for k in before if os.environ.get(k) != before[k]),
    "blas": {k: os.environ.get(k) for k in %r},
}))
"""


def _environment_after(code: str, **preset: str) -> dict:
    """Threads and environment changes after ``code`` ran in a fresh
    interpreter started with none of the BLAS thread variables but ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(preset, PYTHONPATH=str(README.parent / "src"))
    probe = _THREADS_AFTER % (code, _BLAS_VARS)
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_INTEGRATE_QUIETLY = (
    "from besselsix import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(['integrate', '--variant', '0', '--m', '0', '--n', '7', '--json']) == 0"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_cli_process_runs_on_one_thread():
    # numpy loads inside the command, after main asked OpenBLAS for one
    # thread, so no idle BLAS worker is ever started
    after = _environment_after(_INTEGRATE_QUIETLY)
    assert after["threads"] == 1
    assert after["added"] == ["OPENBLAS_NUM_THREADS"]
    assert after["blas"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_keeps_a_thread_count_the_user_set(name):
    after = _environment_after(_INTEGRATE_QUIETLY, **{name: "2"})
    assert after["added"] == [] and after["changed"] == []
    assert after["blas"] == {k: "2" if k == name else None for k in _BLAS_VARS}


@pytest.mark.parametrize("code", [
    "import besselsix.quadrature",
    "import besselsix\nbesselsix.integral('I0', 0, 2)",
], ids=["import", "integral"])
def test_library_leaves_the_environment_alone(code):
    # only the command-line program configures its own process
    after = _environment_after(code)
    assert after["added"] == [] and after["changed"] == []


def test_closed_form_output(capsys):
    assert cli.main(["closed-form", "--n", "1", "--m", "1", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "4/3*sqrtpi^-2" in out
    assert "0.42441318157838759" in out  # 4/(3 pi), 17 significant digits


def test_theorem_map_lists_every_band_and_exception(capsys):
    assert cli.main(["theorem-map"]) == 0
    out = capsys.readouterr().out
    for _, _, _, _, _, constant in THEOREM_MAP:
        assert str(constant) in out
    # Seven small-n cells fall outside the 0.002/0.0015 bands.
    for cell in ["(0, 2)", "(0, 3)", "(0, 4)", "(0, 5)", "(0, 6)"]:
        assert cell in out
    i1_line = next(line for line in out.splitlines() if line.strip().startswith("I1: "))
    assert "(0, 2), (0, 3)" in i1_line
    assert "(0, 4)" not in i1_line


def test_predict_budget_lines(capsys):
    assert cli.main(["predict", "--variant", "0", "--m", "2", "--n", "25", "--budget"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "+/-" in out[0]
    assert len(out) > 1  # itemization follows


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_json_dumps_17_digit_reals():
    text = cli._json_dumps({"x": 0.1, "flag": True, "seq": [1.0 / 3.0, 2]})
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    assert "true" in text
    assert json.loads(text) == {"x": 0.1, "flag": True, "seq": [1.0 / 3.0, 2]}
    with pytest.raises(TypeError):
        cli._json_dumps({"bad": object()})


def test_expansion_text_lists_every_term_and_the_remainders(capsys):
    assert cli.main(["expansion", "--which", "j0"]) == 0
    head, *lines = capsys.readouterr().out.splitlines()
    assert head == "J0: six terms in t = 1/(16r), c = cos(r - pi/4), s = sin(r - pi/4)"
    assert len(base_expansion("J0").terms) == 6
    assert lines == [
        "  term[0] = (1) c",
        "  term[1] = (2) s t",
        "  term[2] = (-18) c t^2",
        "  term[3] = (-300) s t^3",
        "  term[4] = (7350) c t^4",
        "  term[5] = (238140) s t^5",
        "  truncation remainders (deviation <= remainder[K] * (16r)^-K):",
        "  9/8, 2, 18, 300, 7350, 238140, 9604980",
    ]


def test_closed_form_kapteyn_text(capsys):
    # k = 1 is Kapteyn's integral, through weber_schafheitlin: J_1 J_2 / r = 2/(3 pi)
    assert cli.main(["closed-form", "--n", "1", "--m", "2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out == f"integral of J_1 J_2 r^-1: 2/3*sqrtpi^-2 = {2 / (3 * math.pi):.17g}\n"


@pytest.mark.parametrize("flag,name", [("j0", "J0"), ("j1", "J1")])
def test_expansion_json_round_trip_base(flag, name, capsys):
    assert cli.main(["expansion", "--which", flag, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert expansion_from_payload(payload) == base_expansion(name)


@pytest.mark.parametrize("flag,name", [("j000", "J000"), ("j110", "J110")])
def test_expansion_json_round_trip_product(flag, name, capsys):
    assert cli.main(["expansion", "--which", flag, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert expansion_from_payload(payload) == product_expansion(name)


def test_core_bounds_json_round_trip(capsys):
    assert cli.main(["core-bounds", "--variant", "1", "--m", "2", "--n", "30", "--breakdown"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert breakdown_from_payload(payload) == core_bound_breakdown(2, 30, "I1")


def test_integrate_json_round_trip(capsys):
    assert cli.main(["integrate", "--variant", "0", "--m", "0", "--n", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    value, budget = integrate_from_payload(payload)
    assert payload["schema"] == 1
    assert list(payload["budget"]) == [*BUDGET_ITEMS, "total"]
    assert value.rad == budget.total
    # The rebuilt budget revalidates its own total; mids agree with a fresh run.
    from besselsix.quadrature import integral

    again = integral("I0", 0, 7)
    assert value.mid == again.mid
    assert value.rad == again.rad


def test_integrate_human_output_itemizes_the_budget(capsys):
    assert cli.main(["integrate", "--variant", "0", "--m", "0", "--n", "7"]) == 0
    head, *items = capsys.readouterr().out.splitlines()
    assert head.startswith("I0(m=0, n=7) = ")
    assert [line.split()[0] for line in items] == BUDGET_ITEMS


def test_integrate_computes_budget_and_tail_once(monkeypatch, capsys):
    calls = {"tail_main": 0, "error": 0, "tail_error_budget": 0}
    # the rule errors are the grid regions' error() methods, under either rule
    owners = [(quadrature, "tail_main"), (quadrature, "tail_error_budget")]
    owners += [(quadrature._GaussRegion, "error"), (quadrature._NC7Region, "error")]
    for owner, name in owners:
        def counted(*args, _name=name, _real=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for flags in ([], ["--paper"]):
        calls.update(dict.fromkeys(calls, 0))
        argv = ["integrate", "--variant", "0", "--m", "0", "--n", "7", "--json", *flags]
        assert cli.main(argv) == 0
        value, budget = integrate_from_payload(json.loads(capsys.readouterr().out))
        assert value.rad == budget.total
        assert calls == {"tail_main": 1, "error": 2, "tail_error_budget": 1}


@pytest.mark.parametrize("argv", [
    ["integrate", "--variant", "0", "--m", "0", "--n", "7"],
    ["integrate", "--variant", "1", "--m", "2", "--n", "9", "--paper", "--json"],
    ["check-theorem", "--variant", "0", "--m", "2", "--n", "2"],
], ids=["integrate", "integrate-paper", "check-theorem"])
def test_one_shot_commands_keep_no_rows(argv, capsys):
    # a one-shot command streams its cell: nothing reads kept rows again
    quadrature._scheme_rows.cache_clear()
    assert cli.main(argv) == 0
    capsys.readouterr()
    for scheme in (quadrature.DEFAULT_SCHEME, quadrature.PAPER_SCHEME):
        store = quadrature._scheme_rows(scheme)
        assert len(store) == 0 and store.weighted == {}


# ---------------------------------------------------------------------------
# CSV products
# ---------------------------------------------------------------------------


def test_table_csv_format(capsys):
    assert cli.main(["table", "--rows", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,top,bottom"
    assert len(lines) == 3  # header + (3,0) + (3,2)
    for line in lines[1:]:
        n, m, top, bottom = line.split(",")
        assert n == "3" and m in ("0", "2")
        # exactly two decimals
        assert len(top.split(".")[1]) == 2
        assert len(bottom.split(".")[1]) == 2


def test_table_csv_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert cli.main(["table", "--rows", "3", "--csv", str(target)]) == 0
    assert capsys.readouterr().out == ""
    content = target.read_text()
    assert content.startswith("n,m,top,bottom\n")
    assert content.endswith("\n")


def test_workers_flag_is_gone(capsys):
    argv = ["table", "--rows", "2", "--workers", "2"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "--workers" in capsys.readouterr().err


def test_ceil2_is_an_upper_bound():
    # the printed two decimals are the least ones at or above the float's
    # exact value; 1e-11 above a cent used to print that cent
    above = math.nextafter(0.13, 1.0)
    for x in (0.117295, 0.0267, 0.8489, 1e-12, 0.12, 0.13, above, 0.13 + 1e-11, 7.0):
        printed = Fraction(f"{cli._ceil2(x):.2f}")
        assert printed - Fraction(1, 100) < Fraction(x) <= printed
    assert cli._ceil2(0.1173) == 0.12
    assert cli._ceil2(0.12) == 0.12  # the float 0.12 lies below 0.12
    assert cli._ceil2(0.13) == 0.14  # the float 0.13 lies above 0.13
    assert cli._ceil2(above) == 0.14


def test_figure1_csv(capsys):
    assert cli.main(["figure1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,value"
    assert len(lines) == 2002
    assert lines[1] == "0,0"
    r, value = lines[1001].split(",")
    assert float(r) == 50.0
    assert float(value) != 0.0


def test_figure1_matches_integrand(capsys):
    from besselsix.quadrature import integrand

    assert cli.main(["figure1"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    f = integrand("I1", 6, 9)
    r = np.array([float(line.split(",")[0]) for line in lines])
    got = np.array([float(line.split(",")[1]) for line in lines])
    assert np.array_equal(got, f(r))


# ---------------------------------------------------------------------------
# printed bounds: every text enclosure and bound holds for the exact decimal
# ---------------------------------------------------------------------------

# sqrt(pi) from the independent 125-digit pi of ``hiprec``
_SQRTPI_ENDS = hiprec.sqrt_encl(hiprec.iv_widen(hiprec.iv(hiprec.PI_F), hiprec.PI_ERR))


def _exact_ends(center) -> tuple[Fraction, Fraction]:
    """Rationals lo <= center <= hi, for a float, a Fraction or an ExactScalar."""
    if isinstance(center, ExactScalar):
        ends = sorted(center.coeff * s**center.sqrtpi_power for s in _SQRTPI_ENDS)
        return ends[0], ends[-1]
    return Fraction(center), Fraction(center)


def _misses(text: str, center, rad) -> bool:
    """Whether the printed ``mid +/- rad`` text fails to contain the whole
    certified enclosure [center - rad, center + rad]."""
    mid, printed = (Fraction(part) for part in text.split(" +/- "))
    lo, hi = _exact_ends(center)
    return not (mid - printed <= lo - Fraction(rad) and hi + Fraction(rad) <= mid + printed)


def _output(command, **fields) -> list[str]:
    """The lines a subcommand prints for the parsed ``fields``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        command(argparse.Namespace(**fields))
    return out.getvalue().splitlines()


def _budget_lines_hold(lines: list[str], budget) -> bool:
    """Whether each printed ``name value`` line reads its item, at or above its float."""
    return [line.split()[0] for line in lines] == [name for name, _ in budget] and all(
        Fraction(line.split()[1]) >= Fraction(value) for line, (_, value) in zip(lines, budget)
    )


PREDICT_CELLS = [(v, m, n) for v in ("I0", "I1") for m in (0, 2, 4, 6, 8) for n in range(20, 400)]
TABLE_CELLS = [(v, m, n) for v in ("I0", "I1") for n in range(2, 20) for m in range(0, n + 1, 2)]
ORACLE_POINTS = [(5, 10.0), (3, 125.0), (0, 1.0), (40, 200.0), (1, 0.5), (2, 0.0)]


def test_printed_enclosures_contain_the_certified_ones():
    # at 17 + 6 digits, rounding to nearest printed 1,848 of these 3,800
    # predict radii below the certified one
    assert len(PREDICT_CELLS) == 3800 and len(TABLE_CELLS) == 216
    misses = []
    for variant, m, n in PREDICT_CELLS:
        p = certify.predict(m, n, variant)
        line = _output(cli._cmd_predict, variant=variant, m=m, n=n, budget=False)[0]
        if _misses(line.split(" = ")[1], p.main, p.radius):
            misses.append(line)
    assert misses == [], f"{len(misses)} predict lines miss, first {misses[0]}"
    for variant, m, n in TABLE_CELLS:
        value = quadrature.integral(variant, m, n)
        line = _output(cli._cmd_integrate, variant=variant, m=m, n=n, paper=False, json=False)[0]
        assert not _misses(line.split(" = ")[1], value.mid, value.rad), line
    quadrature._scheme_rows.cache_clear()  # the table's 38 orders take 45 MB
    for n, r in ORACLE_POINTS:
        enclosure = bessel_series_oracle(n, r, cli._ORACLE_BITS)
        line = _output(cli._cmd_eval_bessel, n=n, r=r, oracle=True)[1]
        assert not _misses(line.split(": ")[1], enclosure.mid, enclosure.rad), line


def test_printed_bounds_are_at_or_above_their_floats():
    for variant, m, n in PREDICT_CELLS[::5]:
        p = certify.predict(m, n, variant)
        assert _budget_lines_hold(_output(cli._cmd_predict, variant=variant, m=m, n=n, budget=True)[1:], p.budget)
        b = core_bound_breakdown(m, n, variant)
        lines = _output(cli._cmd_core_bounds, variant=variant, m=m, n=n, breakdown=False)[3:]
        printed = [Fraction(part.split("<= ")[1].rstrip(",")) for line in lines for part in line.split(", ")]
        assert all(bound >= Fraction(x) for bound, x in zip(printed, (b.e1_cos, b.e1_sin, b.e2_cos, b.e2_sin)))
        assert len(printed) == 4
    for variant, m, n in TABLE_CELLS[::9]:
        _, budget = quadrature._integral_and_budget(variant, m, n)
        lines = _output(cli._cmd_integrate, variant=variant, m=m, n=n, paper=False, json=False)[1:]
        assert _budget_lines_hold(lines, budget)


def test_check_theorem_prints_bounds_of_its_exact_deviation_and_allowance():
    # the printed deviation is at least the exact rational the verdict
    # compares (|mid - main| + rad plus 2 ulp for the float main term), the
    # printed allowance at most c n^-4, and the verdict is the Fraction rule's
    cells = TABLE_CELLS[::9] + [("I0", 0, 37), ("I1", 2, 30)]
    assert len(cells) >= 20
    verdicts = []
    for variant, m, n in cells:
        value = quadrature._integral_and_budget(variant, m, n, quadrature.DEFAULT_SCHEME, quadrature._streamed_sums)[0]
        outcome = certify.check_theorem(m, n, variant, value)
        main = (certify.NORMALIZATION * main_term(m, n, variant)).to_real()
        exact = abs(Fraction(value.mid) - Fraction(main)) + Fraction(value.rad) + Fraction(2 * math.ulp(main))
        assert outcome.exact_deviation == exact
        assert outcome.exact_allowance == Fraction(str(certify.theorem_constants(m, n, variant))) / n**4
        line = _output(cli._cmd_check_theorem, variant=variant, m=m, n=n)[0]
        deviation, allowance = (Fraction(line.split(word)[1].split()[0]) for word in ("deviation ", "allowance "))
        assert deviation >= outcome.exact_deviation and allowance <= outcome.exact_allowance, (variant, m, n)
        verdicts.append(theorem_verdict(m, n, variant, value))
        assert outcome.passed == verdicts[-1] and line.endswith("PASS" if verdicts[-1] else "FAIL")
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("variant, m, n", [("I0", 2, 2), ("I0", 0, 7), ("I1", 4, 9), ("I1", 0, 19)])
def test_check_theorem_prints_an_upper_deviation_and_a_lower_allowance(variant, m, n):
    outcome = certify.check_theorem(m, n, variant, quadrature.integral(variant, m, n))
    line = _output(cli._cmd_check_theorem, variant=variant, m=m, n=n)[0]
    deviation, allowance = (Fraction(line.split(word)[1].split()[0]) for word in ("deviation ", "allowance "))
    assert deviation >= Fraction(outcome.deviation) and allowance <= Fraction(outcome.allowance)
    assert line.endswith("PASS")
