import math

import numpy as np
import pytest

from fracnoether import GammaPoleError, gamma, reciprocal_gamma


def test_integer_values():
    for n, expected in ((1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0), (6, 120.0)):
        assert gamma(float(n)) == pytest.approx(expected, rel=1e-12)


def test_half_integer_values():
    sq = math.sqrt(math.pi)
    assert gamma(0.5) == pytest.approx(sq, rel=1e-12)
    assert gamma(1.5) == pytest.approx(0.5 * sq, rel=1e-12)
    assert gamma(2.5) == pytest.approx(0.75 * sq, rel=1e-12)
    assert gamma(3.5) == pytest.approx(1.875 * sq, rel=1e-12)


def test_reflection_branch():
    # x < 0.5 goes through the reflection formula
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)
    assert gamma(-1.5) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-12)
    assert gamma(0.25) * gamma(0.75) == pytest.approx(
        math.pi / math.sin(math.pi * 0.25), rel=1e-12
    )


def test_functional_equation_random_probes():
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.1, 20.0, 50):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)


def test_agrees_with_mpmath_on_both_branches():
    """Relative error against mpmath at 40 digits, at points at least 1e-3
    from a pole, on the negative axis (x < 0.5), the positive axis and near
    the overflow edge, where gamma(171.5) is still finite."""
    mpmath = pytest.importorskip("mpmath")
    xs = np.append(np.linspace(-6.95, 25.0, 1200), 171.5)
    assert np.all(np.abs(xs - np.minimum(np.round(xs), 0.0)) >= 1e-3)
    assert np.sum(xs < 0.5) > 200 and np.sum(xs >= 0.5) > 200
    with mpmath.workdps(40):
        worst = max(
            abs((gamma(x) - mpmath.gamma(mpmath.mpf(x))) / mpmath.gamma(mpmath.mpf(x))) for x in xs
        )
    assert worst <= 4e-15


def test_poles_raise():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(GammaPoleError):
            gamma(x)


def test_reciprocal_gamma_at_poles_is_zero():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-12)
