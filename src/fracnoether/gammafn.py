"""Euler gamma function: ``math.gamma`` (about 1e-15 relative; finite up to
x ≈ 171.6, underflowing to ±0 below x ≈ -177) behind a typed pole check.
The kernel weights, closed forms and the spec grammar's gamma all use it.
"""

import math

__all__ = ["GammaPoleError", "gamma", "reciprocal_gamma"]


class GammaPoleError(ValueError):
    """Raised when gamma() is evaluated at a non-positive integer."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ..."""
    x = float(x)
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"gamma pole at x = {x}")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1 / Gamma(x), extended by continuity to 0 at the poles."""
    x = float(x)
    if _is_nonpositive_integer(x):
        return 0.0
    return 1.0 / gamma(x)
