"""Whole-array evaluation of spec expressions.

Callables from ``ProblemSpec.compile`` evaluate M points in one call.  The
per-point evaluation of the same callable is the oracle: they agree bitwise
except where ``^`` is involved, because numpy's array ``power`` and the
scalar ``pow`` may round differently, by 1 ulp.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracnoether import PointField, VectorField
from fracnoether.cli import _bundled_spec, main
from fracnoether.exprspec import _ARITY, ProblemSpec

EPS = np.finfo(float).eps
M = 2001
EX1 = _bundled_spec("example1.spec")
EX2 = _bundled_spec("example2.spec")


def spec_for(control: bool) -> ProblemSpec:
    """A two-state spec; with ``control`` its y variables are u1, u2."""
    return ProblemSpec(
        alpha=0.5, a=0.0, b=1.0, m=10, dim=2, control_dim=2, lagrangian="0",
        constraints=[], levels=[], q_a=[0.0, 0.0], q_b=None, multipliers=None,
        trajectory=None, tau=None, xi=None, dynamics=["0", "0"] if control else None,
        control=None, costate=None,
    )


def points(rng, count=M):
    """t on the grid nodes of [0, 1]; q positive, so that q^c is real; y signed."""
    t = np.linspace(0.0, 1.0, count)
    return t, rng.uniform(0.5, 2.0, (count, 2)), rng.uniform(-1.0, 1.0, (count, 2))


def per_point(fn, arity, t, q, y):
    """fn at each point, stacked with the points first like the batch result."""
    return np.array([fn(*row) for row in zip(*(t, q, y)[:arity])])


# Per arity: expressions over that arity's variables covering constants,
# gamma of a variable argument, unary minus and the right-associative ^
# (t^2^0.5 is t^(2^0.5)).  None subtracts two terms that can cancel, so
# a 1-ulp change in a power stays within a few ulp of the result.
CASES = {
    3: ["t^4 + y1^2 + q1 * q2", "-q2^2^0.5 * gamma(1.5 + t * y2)", "1", "gamma(3.5)",
        "t / (1 + y1 * y1) - q1"],
    2: ["1", "t * q1 - q2 * 3", "-t^2^0.5 / gamma(1 + q1)", "2^-t * q2"],
    1: ["2*t^(2.5)/gamma(3.5)", "-t^0.5", "3", "gamma(1 + t)", "-(-t)"],
}


@pytest.mark.parametrize("key", sorted(_ARITY))
def test_batch_agrees_with_points_for_every_key(key):
    arity = _ARITY[key]
    spec = spec_for(control=key == "phi")
    stem = "u" if key == "phi" else "v"
    texts = [text.replace("y1", f"{stem}1").replace("y2", f"{stem}2") for text in CASES[arity]]
    t, q, y = points(np.random.default_rng(1))
    args = (t, q, y)[:arity]
    for text in [*texts, texts]:  # each expression alone, then all as one list
        fn = spec.compile(key, text)
        assert fn.whole_array
        batch = fn(*args)
        reference = per_point(fn, arity, t, q, y)
        assert batch.shape == ((M,) if isinstance(text, str) else (M, len(text)))
        assert np.all(np.abs(batch - reference) <= 4 * np.spacing(np.abs(reference))), text


def test_constant_broadcasts_to_every_point():
    fn = spec_for(control=False).compile("xi", ["1", "q1"])
    t, q, _ = points(np.random.default_rng(2), count=5)
    out = fn(t, q)
    assert out.shape == (5, 2)
    assert np.array_equal(out, np.column_stack([np.ones(5), q[:, 0]]))
    assert isinstance(fn(0.5, q[0]), np.ndarray) and fn(0.5, q[0]).shape == (2,)
    assert isinstance(spec_for(control=False).compile("tau", "1")(0.5, q[0]), float)


def opaque(fn):
    """The same callable without the whole-array mark: the per-point path."""
    return lambda *args: fn(*args)


def partials(field, t, X, Y):
    return field.d_x(t, X, Y), field.d_y(t, X, Y)


def test_partials_and_hessians_agree_with_points():
    """Finite differences of values that differ by up to 4 ulp: with step
    s >= 1e-6 and |f| <= fmax near the points, a first partial differs by at
    most 4 eps fmax / s and a second partial by 4 eps fmax / s^2."""
    spec = spec_for(control=False)
    t, X, Y = points(np.random.default_rng(3), count=301)
    L = spec.compile("L", "t^4 + v1^2 * q2 + q1^3 * v2^2 + gamma(1.5 + t * v1)")
    batch, nodewise = PointField(L), PointField(opaque(L))
    assert batch.evaluator is L
    fmax = 2.0 * np.max(np.abs(nodewise(t, X, Y)))
    step = 1e-6
    for a, b in zip(partials(batch, t, X, Y), partials(nodewise, t, X, Y)):
        assert np.max(np.abs(a - b)) <= 4 * EPS * fmax / step
    for a, b in zip(batch.hessian(t, X, Y), nodewise.hessian(t, X, Y)):
        assert np.max(np.abs(a - b)) <= 4 * EPS * fmax / step**2

    phi = spec_for(control=True).compile("phi", ["u1 * q2^2 - t", "q1 * u2^3"])
    batch, nodewise = VectorField(phi), VectorField(opaque(phi))
    fmax = 2.0 * np.max(np.abs(nodewise(t, X, Y)))
    assert np.max(np.abs(batch(t, X, Y) - nodewise(t, X, Y))) <= 4 * EPS * fmax
    for a, b in zip(partials(batch, t, X, Y), partials(nodewise, t, X, Y)):
        assert a.shape == (301, 2, 2)
        assert np.max(np.abs(a - b)) <= 4 * EPS * fmax / step


# -- random grammar expressions ----------------------------------------------

VARIABLES = ("t", "q1", "q2", "v1", "v2")
LITERALS = st.floats(0.5, 2.0).map(lambda x: repr(round(x, 3)))


def _signed_expressions():
    """The whole grammar but ^: every operation is then correctly rounded
    on arrays as on scalars, so batch and per-point values agree bitwise."""
    leaf = st.one_of(st.sampled_from(VARIABLES), LITERALS)

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
            inner.map(lambda a: f"-({a})"),
            inner.map(lambda a: f"gamma({a})"),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@st.composite
def _positive_expressions(draw, depth=3):
    """(text, bound): an expression that is positive at positive points,
    with +, *, /, ^ and gamma of a leaf, and a first-order bound, in units
    of eps, on the relative difference of its batch and per-point values.
    Equal operands give equal results, except that ^ may differ by 1 ulp;
    operands that differ by ea and eb give results that differ by
    max(ea, eb) + 1 for +, ea + eb + 1 for * and /, and |c| ea + 2 for ^c."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(st.sampled_from(VARIABLES), LITERALS)), 0.0
    kind = draw(st.sampled_from(("+", "*", "/", "^", "gamma")))
    a, ea = draw(_positive_expressions(depth - 1))
    if kind == "gamma":
        leaf = draw(st.one_of(st.sampled_from(VARIABLES), LITERALS))
        return f"gamma({leaf})", 0.0
    if kind == "^":
        c = draw(st.floats(-2.0, 2.0).map(lambda x: round(x, 2)))
        return f"({a}) ^ ({c!r})", abs(c) * ea + (2.0 if ea else 1.0)
    b, eb = draw(_positive_expressions(depth - 1))
    if ea == eb == 0.0:
        bound = 0.0
    else:
        bound = max(ea, eb) + 1.0 if kind == "+" else ea + eb + 1.0
    return f"({a}) {kind} ({b})", bound


def _both_ways(text, t, q, v):
    """(batch value, per-point values), or the exception types raised."""
    fn = spec_for(control=False).compile("L", text)
    outcomes = []
    for evaluate in (lambda: fn(t, q, v), lambda: per_point(fn, 3, t, q, v)):
        try:
            outcomes.append(evaluate())
        except (ArithmeticError, ValueError, TypeError) as exc:
            outcomes.append(type(exc))
    return outcomes


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_signed_expressions(), st.integers(0, 2**32 - 1))
def test_random_expressions_without_power_agree_bitwise(text, seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 33)
    q, v = rng.uniform(-2.0, 2.0, (33, 2)), rng.uniform(-2.0, 2.0, (33, 2))
    with np.errstate(all="ignore"):
        batch, reference = _both_ways(text, t, q, v)
    # batch evaluation fails an operation at every point before the next
    # operation, per-point evaluation a point at a time, so where several
    # points fail differently the two may raise different errors
    assert isinstance(batch, type) == isinstance(reference, type), text
    if not isinstance(batch, type):
        np.testing.assert_array_equal(batch, reference, err_msg=text)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_positive_expressions(), st.integers(0, 2**32 - 1))
def test_random_expressions_with_power_agree_within_bound(case, seed):
    text, bound = case
    rng = np.random.default_rng(seed)
    t = np.linspace(0.25, 1.0, 33)
    q, v = rng.uniform(0.5, 2.0, (33, 2)), rng.uniform(0.5, 2.0, (33, 2))
    with np.errstate(over="ignore", under="ignore"):
        batch, reference = _both_ways(text, t, q, v)
    assert isinstance(batch, type) == isinstance(reference, type), text
    if isinstance(batch, type):
        return
    finite = np.isfinite(reference) & (reference != 0.0)
    assert np.array_equal(np.isfinite(batch), np.isfinite(reference)), text
    relative = np.abs(batch - reference)[finite] / np.abs(reference[finite])
    # twice the first-order bound, for second-order terms
    assert np.all(relative <= 2.0 * bound * EPS), (text, bound, np.max(relative, initial=0.0) / EPS)


# -- the CLI path -------------------------------------------------------------


@pytest.fixture
def compiled_calls(monkeypatch):
    """Count calls of every callable that ProblemSpec.compile returns."""
    calls = [0]
    real = ProblemSpec.compile

    def compile_counted(self, key, text):
        fn = real(self, key, text)

        def counted(*args):
            calls[0] += 1
            return fn(*args)

        counted.whole_array = getattr(fn, "whole_array", False)
        return counted

    monkeypatch.setattr(ProblemSpec, "compile", compile_counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        *(["check", "--which", which, EX1] for which in ("el", "noether", "momentum", "invariance")),
        ["check", "--which", "hamiltonian", EX2],
        ["solve", EX1],
    ],
    ids=lambda argv: argv[2] if argv[0] == "check" else "solve",
)
def test_spec_commands_call_compiled_expressions_less_than_once_per_node(
    tmp_path, capsys, compiled_calls, argv
):
    nodes = 2001
    code = main([*argv[:-1], "--grid", str(nodes - 1), "--out", str(tmp_path / "o"), argv[-1]])
    assert code == 0, capsys.readouterr().err
    assert 0 < compiled_calls[0] < nodes


@pytest.mark.parametrize("argv", [["check", "--which", "el"], ["check", "--which", "noether"], ["solve"]])
def test_gamma_pole_at_a_node_still_exits_2(tmp_path, capsys, argv):
    text = Path(EX1).read_text(encoding="utf-8")
    # gamma(t) multiplies v1, so that the exact partial in v1, which the EL
    # check and the solver evaluate, meets the pole at t = 0 as L does
    lines = [
        "L = t^4 + v1^2 + gamma(t) * v1" if line.startswith("L ") else line
        for line in text.splitlines()
    ]
    spec = tmp_path / "pole.spec"
    spec.write_text("\n".join(lines) + "\n")
    assert main([*argv, "--grid", "200", "--out", str(tmp_path / "o"), str(spec)]) == 2
    assert "computation failed: gamma pole at x = 0.0" in capsys.readouterr().err

