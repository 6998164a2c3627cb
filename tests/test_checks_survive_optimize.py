"""Certification checks raise CertificationError, also under ``python -O``.

Each case patches one printed constant, stored roll-up, lemma or stored
quadrature rule in a fresh ``python -O`` interpreter, where ``assert`` statements are
stripped, and requires the public entry point to refuse.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PRELUDE = """
from fractions import Fraction
from besselsix import CertificationError, certify, cli, core_integrals, expansions
print("debug" if __debug__ else "optimized")
"""


def _run_optimized(body: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-O", "-c", _PRELUDE + body],
        env=env, capture_output=True, text=True, timeout=120,
    )


# The stored Gauss-Legendre rule with its outermost node pair (index 0) or
# weight pair (index 1) moved by delta, symmetry kept.
_MOVED_RULE = """
from besselsix import quadrature
_real = quadrature._legendre_rule
def _moved(points):
    arrays = [a.copy() for a in _real(points)]
    arrays[{index}][-1] += {delta}
    arrays[{index}][0] += {delta} if {index} else -{delta}
    return tuple(arrays)
quadrature._legendre_rule = _moved
"""
_INTEGRAL = 'quadrature.integral("I0", 0, 7)'


@pytest.mark.parametrize(
    "patch, call",
    [
        ('certify._ROLLED[(0, "I0")] = 1e-9', 'certify.predict(0, 25, "I0")'),
        (
            'core_integrals._E2_PRINTED["I0"] = Fraction("1e-9")',
            'core_integrals.e2_bound(0, 25, "I0", "cos")',
        ),
        (
            'core_integrals._E1_PRINTED[(0, "cos")] = (Fraction("1e-12"), Fraction("0.015"), 1, 4)',
            'certify.predict(0, 25, "I0")',
        ),
        pytest.param(
            'core_integrals._E1_PRINTED[(0, "cos")] = (Fraction("1e-12"), Fraction("0.015"), 1, 4)',
            'core_integrals.e1_bound(0, 25, "I0", "cos")',
            id="e1-e1_bound",
        ),
        pytest.param('core_integrals._E2_PRINTED["I0"] = Fraction("1e-9")', 'certify.predict(0, 25, "I0")',
                     id="e2-predict"),
        # A and B just below their recomputed 0.7309 and 0.02167
        pytest.param('expansions._A_PRINTED["I0"] = Fraction("0.73")', 'certify.predict(0, 25, "I0")',
                     id="a-predict"),
        pytest.param('expansions._A_PRINTED["I0"] = Fraction("0.73")', 'expansions.estimate_A(0, 25, "I0")',
                     id="a-estimate_A"),
        pytest.param('core_integrals._B_PRINTED[0] = (Fraction("0.021"), Fraction("0.023"), 4)',
                     'certify.predict(0, 25, "I0")', id="b-predict"),
        pytest.param('core_integrals._B_PRINTED[0] = (Fraction("0.021"), Fraction("0.023"), 4)',
                     'core_integrals.estimate_B(0, 25, "I0")', id="b-estimate_B"),
        # the lemmas that let the budget drop the frequency-2 terms and bound
        # the frequency-4 ones
        pytest.param("core_integrals.vanishes_freq2 = lambda *a: False", 'certify.predict(0, 25, "I0")',
                     id="freq2-predict"),
        pytest.param(
            "import math\n"
            "_chain = core_integrals._chain_dominated\n"
            "core_integrals._chain_dominated = lambda m, n: math.log(100) + _chain(m, n)",
            'certify.predict(0, 25, "I0")',
            id="4r-bound-predict",
        ),
        # at m = n = 1000 the chain and its bound both underflow to 0.0
        pytest.param(
            "import math\n"
            "_chain = core_integrals._log_4r_chain\n"
            "core_integrals._log_4r_chain = lambda m, n: (\n"
            "    _chain(m, n) if m < 1000 else math.log(100 / n) + n * math.log(0.35))",
            'certify.predict(1000, 1000, "I0")',
            id="4r-chain-underflow-predict",
        ),
        # at m = n = 1000 the 4r bound and the e2 item (here forced below it)
        # both underflow to 0.0
        pytest.param(
            "_decay = core_integrals._decay\n"
            "core_integrals._decay = lambda m: (4, 1e-23) if m == 1000 else _decay(m)",
            'certify.predict(1000, 1000, "I0")',
            id="e2-underflow-predict",
        ),
        # the series reads WS(k, k + m, k) as a rational; a 1/pi would rescale it
        pytest.param(
            "from besselsix.exactnum import ExactScalar\n"
            "_ws = core_integrals.weber_schafheitlin\n"
            "core_integrals.weber_schafheitlin = lambda n, m, k: ExactScalar(_ws(n, m, k).coeff, -2)",
            'certify.predict(0, 25, "I0")',
            id="ws-sqrtpi-predict",
        ),
        pytest.param(_MOVED_RULE.format(index=1, delta="1e-6"), _INTEGRAL, id="gauss-weight-1e-6"),
        pytest.param(_MOVED_RULE.format(index=0, delta="1e-9"), _INTEGRAL, id="gauss-node-1e-9"),
        pytest.param(
            'from besselsix import quadrature\nquadrature._TAIL_MAIN_PRINTED[("I0", "even")] = 1.2898e-6',
            "quadrature.build_table([7])",
            id="printed-tail",
        ),
        pytest.param(
            "from besselsix import quadrature\nquadrature._RADIUS_TARGET = 1e-9",
            _INTEGRAL,
            id="radius-target-integral",
        ),
        pytest.param(
            # every table cell's budget meets the target; the printed tail's miss does not
            "from besselsix import quadrature\nquadrature._RADIUS_TARGET = max("
            'quadrature.error_budget(v, 0, n).total for v in ("I0", "I1") for n in (2, 3))',
            "quadrature.build_table([7])",
            id="radius-target-table",
        ),
    ],
)
def test_patched_constant_raises_under_optimize(patch, call):
    body = f"{patch}\ntry:\n    {call}\nexcept CertificationError:\n    print('refused')\n"
    result = _run_optimized(body)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["optimized", "refused"]


def test_cli_exits_four_under_optimize():
    body = (
        'certify._ROLLED[(0, "I0")] = 1e-9\n'
        'raise SystemExit(cli.main(["predict", "--variant", "0", "--m", "0", "--n", "25"]))\n'
    )
    result = _run_optimized(body)
    assert result.returncode == 4
    assert result.stdout.split() == ["optimized"]
    assert result.stderr.startswith("certification error: ")


def test_package_has_no_assert_statements():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "besselsix").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
