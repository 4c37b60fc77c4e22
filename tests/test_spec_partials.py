"""Exact first partials of spec expressions (``ProblemSpec.partials``).

The oracle shares no code with them: mpmath differentiates the expression
text, evaluated by Python's own ``eval`` with ``^`` read as ``**``, at 40
digits.  gamma of an argument that reads a q or y component takes its
derivative by central differences, so it is compared at GAMMA_RTOL, away
from gamma's poles.
"""

import ast
import json
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_whole_array import EX1, EX2, _positive_expressions, _signed_expressions, points, spec_for

from fracnoether import VectorField, exprspec
from fracnoether.cli import build_control, build_variational, main
from fracnoether.exprspec import parse_spec

# exact partials against the oracle, relative to the scale of the values
RTOL = 1e-9
# gamma' by central differences with step 1e-6 (1 + |u|), at arguments at
# least 0.1 from a pole of gamma
GAMMA_RTOL = 1e-8


def evaluate(text, env):
    """``text`` by Python's ``eval``, with mpmath's gamma."""
    return eval(text.replace("^", "**"), {"__builtins__": {}, "gamma": mpmath.gamma}, env)


def point(t, q, y, stem):
    """The variables at one point, by name, as mpmath numbers."""
    names = {"t": t}
    names.update({f"q{i + 1}": x for i, x in enumerate(q)})
    names.update({f"{stem}{i + 1}": x for i, x in enumerate(y)})
    return {k: mpmath.mpf(float(v)) for k, v in names.items()}


def oracle(text, t, q, y, stem="v"):
    """(d/dq_i, d/dy_i) of ``text`` at one point, by mpmath, as floats."""

    def partial(name):
        env = point(t, q, y, stem)
        at = env.pop(name)
        return float(mpmath.diff(lambda s: evaluate(text, {**env, name: s}), at))

    with mpmath.workdps(40):
        return (
            np.array([partial(f"q{i + 1}") for i in range(len(q))]),
            np.array([partial(f"{stem}{i + 1}") for i in range(len(y))]),
        )


def gamma_arguments(text):
    """The text of each gamma argument in ``text``, and whether it reads a
    q, v or u component."""
    calls = [node for node in ast.walk(ast.parse(text.replace("^", "**"), mode="eval"))
             if isinstance(node, ast.Call)]
    return [(ast.unparse(call.args[0]),
             any(isinstance(name, ast.Name) and name.id[0] in "qvu" for name in ast.walk(call.args[0])))
            for call in calls]


def pole_distance(text, t, q, y, stem="v"):
    """How far the gamma argument of ``text`` nearest to a pole of gamma
    (0, -1, -2, ...) lies from it at one point: inf without gamma, 0 where
    an argument cannot be evaluated."""
    out = np.inf
    with mpmath.workdps(40):
        for argument, _ in gamma_arguments(text):
            try:
                u = float(evaluate(argument, point(t, q, y, stem)))
            except (ArithmeticError, ValueError, TypeError):
                return 0.0
            out = min(out, u if u > 0 else abs(u - round(u)))
    return out


def assert_matches_oracle(spec, key, text, t, q, y, stem="v", rtol=RTOL):
    """The partials of ``text`` at M points against the oracle at each."""
    dq, dy = spec.partials(key, text)
    value = spec.compile(key, text)(t, q, y)
    with np.errstate(all="ignore"):
        got_q, got_y = dq(t, q, y), dy(t, q, y)
    assert got_q.shape == q.shape and got_y.shape == y.shape
    for s in range(len(t)):
        want_q, want_y = oracle(text, t[s], q[s], y[s], stem)
        for got, want in ((got_q[s], want_q), (got_y[s], want_y)):
            scale = 1.0 + abs(value[s]) + np.max(np.abs(want))
            assert np.all(np.abs(got - want) <= rtol * scale), (text, s, got, want)


def bundled_fields():
    """(spec, key, text, stem) of every L, g_j and phi_i of the bundled specs."""
    out = []
    for name, path in (("example1", EX1), ("example2", EX2)):
        spec = parse_spec(path)
        stem = "u" if spec.is_control else "v"
        keyed = [("L", "L", spec.lagrangian)]
        keyed += [(f"g{j}", "g", g) for j, g in enumerate(spec.constraints, 1)]
        keyed += [(f"phi{i}", "phi", phi) for i, phi in enumerate(spec.dynamics or (), 1)]
        out += [pytest.param(spec, key, text, stem, id=f"{name}-{label}")
                for label, key, text in keyed]
    return out


@pytest.mark.parametrize("spec, key, text, stem", bundled_fields())
def test_bundled_partials_match_mpmath(spec, key, text, stem):
    rng = np.random.default_rng(7)
    t = rng.uniform(spec.a, spec.b, 6)
    q = rng.uniform(-2.0, 2.0, (6, spec.dim))
    y = rng.uniform(-2.0, 2.0, (6, spec.control_dim if spec.is_control else spec.dim))
    if key == "phi":
        # one phi_i as its own list: a Jacobian row, shapes (M, 1, n)
        dq, dy = spec.partials(key, [text])
        single_q, single_y = spec.partials(key, text)
        assert np.array_equal(dq(t, q, y)[:, 0], single_q(t, q, y))
        assert np.array_equal(dy(t, q, y)[:, 0], single_y(t, q, y))
    assert_matches_oracle(spec, key, text, t, q, y, stem)


def test_bundled_specs_get_exact_partials():
    """Every L, g_j and phi_i of the bundled specs is differentiated from
    its tree, so none of their fields takes finite differences."""
    variational = build_variational(parse_spec(EX1))
    control = build_control(parse_spec(EX2))
    fields = [variational.lagrangian, *variational.constraints,
              control.lagrangian, *control.constraints]
    assert len(fields) == 4
    for f in fields:
        assert f.grad_x is not None and f.grad_y is not None
    assert control.dynamics.jac_x is not None and control.dynamics.jac_y is not None


@pytest.mark.parametrize(
    "text",
    [
        "v1^2 - v1 * q1 + v2",
        "(q1 * v1) * (v1 - q2) - -q2",
        "q1 / (q1 + v1) + 3 / v2",
        "-(v2 - v2^3) / q1^0.5 + (2 * q2)^-1.5",
        "t^2 * v1 / gamma(3.5) + +q1^1",
    ],
)
def test_each_rule_matches_mpmath(text):
    """Each rule with a variable on both sides of its operator, where a
    sign or a dropped term would show."""
    t, q, v = points(np.random.default_rng(13), count=4)
    assert_matches_oracle(spec_for(control=False), "L", text, t, q, v)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.one_of(_signed_expressions(), _positive_expressions().map(lambda case: case[0])),
       st.integers(0, 2**32 - 1))
def test_random_expressions_match_mpmath(text, seed):
    """Random grammar expressions match the oracle where the expression is
    finite: at RTOL, or at GAMMA_RTOL with gamma of a variable."""
    spec = spec_for(control=False)
    dq, dv = spec.partials("L", text)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.25, 1.0, 3)
    q, v = rng.uniform(0.5, 2.0, (3, 2)), rng.uniform(0.5, 2.0, (3, 2))
    try:
        with np.errstate(all="ignore"):
            value, gq, gv = spec.compile("L", text)(t, q, v), dq(t, q, v), dv(t, q, v)
    except (ArithmeticError, ValueError):  # a gamma pole of a constant, say
        return
    # finite and far from a pole, where mpmath's step stays on one side of it
    keep = (np.abs(value) < 1e6) & np.isfinite(gq).all(axis=1) & np.isfinite(gv).all(axis=1)
    rtol = RTOL
    if any(reads for _, reads in gamma_arguments(text)):
        keep &= np.array([pole_distance(text, *p) >= 0.1 for p in zip(t, q, v)])
        rtol = GAMMA_RTOL
    if keep.any():
        assert_matches_oracle(spec, "L", text, t[keep], q[keep], v[keep], rtol=rtol)


def test_one_point_and_many_points_agree():
    """At one point the partials have the shapes of one row of the M-point
    call, and the same values within the power's 1-ulp rounding."""
    t, q, y = points(np.random.default_rng(11), count=41)
    texts = {
        "L": "t^4 + v1^2 * q2 - q1^3 / (1 + v2^2) + gamma(2.5) * v1",
        "g": "-(q1 - v2) * t^0.5",
        "phi": ["u1 * q2^2 - t", "q1 * u2^3", "+u1 / q2"],
    }
    for key, text in texts.items():
        spec = spec_for(control=key == "phi")
        for d in spec.partials(key, text):
            batch = d(t, q, y)
            rows = np.array([d(t[s], q[s], y[s]) for s in range(len(t))])
            assert batch.shape == rows.shape == ((41, 2) if key != "phi" else (41, 3, 2))
            assert np.all(np.abs(batch - rows) <= 4 * np.spacing(np.abs(rows))), key


def test_zero_partial_broadcasts_to_every_point():
    """t^4 + v1^2 reads no q and not v2: those partials are zeros of shape
    (M,) per component, and floats at one point."""
    spec = spec_for(control=False)
    dq, dv = spec.partials("L", "t^4 + v1^2")
    t, q, v = points(np.random.default_rng(12), count=5)
    assert np.array_equal(dq(t, q, v), np.zeros((5, 2)))
    assert np.array_equal(dv(t, q, v), np.column_stack([2.0 * v[:, 0], np.zeros(5)]))
    assert np.array_equal(dq(0.5, q[0], v[0]), np.zeros(2))
    dq, du = spec_for(control=True).partials("phi", ["1", "u2"])
    assert np.array_equal(dq(t, q, v), np.zeros((5, 2, 2)))
    assert np.array_equal(du(t, q, v)[:, 1], np.tile([0.0, 1.0], (5, 1)))


def test_zero_exponent_has_partial_zero_not_nan():
    """d(v1^0)/dv1 is 0 at v1 = 0 too, where 0 * v1^-1 would be NaN; so is
    d(v1^t)/dv1 at t = 0, where the exponent is 0 at that point only, with
    no warning of 0^-1 or 0 * inf.  Where the exponent is not 0 the term is
    t * v1^(t - 1), which warns where it is infinite."""
    spec, zero = spec_for(control=False), np.zeros(2)
    dq, dv = spec.partials("L", "v1^0 + q1^(1 - 1)")
    assert np.array_equal(dv(0.5, zero, zero), zero) and np.array_equal(dq(0.5, zero, zero), zero)
    dq, dv = spec.partials("L", "v1^t + q1^(t * 2)")
    assert np.array_equal(dv(0.0, zero, zero), zero) and np.array_equal(dq(0.0, zero, zero), zero)
    t, x = np.array([0.0, 2.0]), np.array([[0.0, 0.0], [3.0, 0.0]])
    assert np.array_equal(dv(t, x, x), [[0.0, 0.0], [6.0, 0.0]])
    assert np.array_equal(dq(t, x, x), [[0.0, 0.0], [108.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        assert np.array_equal(dv(0.5, zero, zero), [np.inf, 0.0])


@pytest.mark.parametrize("text", ["v1^2 * q1 / gamma(3.5)", "(q1 * v1)^gamma(2.5)"])
def test_constant_gamma_is_evaluated_once_for_value_and_partials(monkeypatch, text):
    """One walk builds the value and the partials, so a constant gamma is
    folded once, and evaluating them calls it no more."""
    calls = []
    real = exprspec._FUNCTIONS["gamma"]
    monkeypatch.setitem(exprspec._FUNCTIONS, "gamma", lambda x: calls.append(x) or real(x))
    spec = spec_for(control=False)
    value, (dq, dv) = spec.compile("L", text), spec.partials("L", text)
    assert len(calls) == 1
    t, q, v = points(np.random.default_rng(14), count=3)
    value(t, q, q), dq(t, q, q), dv(t, q, q)  # q > 0, so the power is real
    assert len(calls) == 1


def test_each_node_is_built_once(monkeypatch):
    """Compiling and differentiating a product of 128 factors, 255 nodes,
    visits each node once: no derivative rule rebuilds an operand."""
    calls = []
    real = exprspec._Expression._build
    monkeypatch.setattr(exprspec._Expression, "_build",
                        lambda self, node: calls.append(node) or real(self, node))
    spec = spec_for(control=False)
    text = " * ".join(["q1"] * 128)
    spec.compile("L", text)
    dq, _ = spec.partials("L", text)
    assert len(calls) == 255 and len(set(map(id, calls))) == 255
    assert dq(0.5, np.array([1.0, 0.0]), np.zeros(2))[0] == 128.0


@pytest.mark.parametrize("text", ["v1" + "^1" * 200, "gamma(gamma(gamma(2)))"])
def test_constants_are_decided_without_a_second_walk(monkeypatch, text):
    """Whether a subtree reads a variable comes from the one walk that
    builds it, so compiling a power chain or nested gamma calls walks no
    subtree again, and takes time linear in the tree."""
    calls = []
    real = exprspec.ast.walk
    monkeypatch.setattr(exprspec.ast, "walk", lambda node: calls.append(node) or real(node))
    spec = spec_for(control=False)
    value = spec.compile("L", text)
    dq, dv = spec.partials("L", text)
    assert calls == []
    t, q, v = points(np.random.default_rng(15), count=3)
    chain = text.startswith("v1")  # v1^1 = v1, and gamma(gamma(gamma(2))) = 1
    assert np.array_equal(value(t, q, v), v[:, 0] if chain else np.ones(3))
    assert np.array_equal(dv(t, q, v)[:, 0], np.ones(3) if chain else np.zeros(3))


@pytest.mark.parametrize(
    "text",
    ["v1^2 * 2^-t", "v1^2 * gamma(1 + t)", "v1^(2 + t)", "2^-t * q2", "t^4 + v1^2 + gamma(t)"],
)
def test_exponent_or_gamma_of_t_alone_matches_mpmath(text):
    """An exponent or a gamma argument that reads t but no q or y component
    has partials zero, so the rules around it stay exact.  t > 0 keeps gamma
    off its pole, and v > 0 keeps v1^(2 + t) real."""
    t = np.array([0.25, 0.5, 0.75, 1.0])
    q, v = np.random.default_rng(17).uniform(0.5, 2.0, (2, 4, 2))
    assert_matches_oracle(spec_for(control=False), "L", text, t, q, v)
    phi = text.replace("v1", "u1")
    assert_matches_oracle(spec_for(control=True), "phi", phi, t, q, v, stem="u")


@pytest.mark.parametrize("text", ["v1^q1", "2^(t * q1) * v1", "gamma(v1)", "gamma(1.5 + t * v1)"])
def test_variable_exponent_or_gamma_matches_mpmath(text):
    """An exponent or a gamma argument that reads a q or y component: the
    power's exponent term b^e log(b) e' is exact, and gamma' is taken by
    central differences, as L and as one entry of a phi list.  v in
    [0.5, 2] keeps v1^q1 real and each gamma argument 0.5 or more from
    gamma's pole at 0."""
    rtol = GAMMA_RTOL if text.startswith("gamma") else RTOL
    t = np.array([0.25, 0.5, 0.75, 1.0])
    q, v = np.random.default_rng(18).uniform(0.5, 2.0, (2, 4, 2))
    assert_matches_oracle(spec_for(control=False), "L", text, t, q, v, rtol=rtol)
    spec, phi = spec_for(control=True), ["u1", text.replace("v1", "u1")]
    dq, du = spec.partials("phi", phi)
    single_q, single_u = spec.partials("phi", phi[1])
    assert np.array_equal(dq(t, q, v)[:, 1], single_q(t, q, v))
    assert np.array_equal(du(t, q, v)[:, 1], single_u(t, q, v))
    assert_matches_oracle(spec, "phi", phi[1], t, q, v, stem="u", rtol=rtol)


def test_vector_field_converts_lists_for_an_exact_jacobian():
    """One point given as lists: the spec Jacobian reads q.T[i], so the
    field converts x and y first, as PointField does."""
    spec = spec_for(control=True)
    texts = ["u1 * q2^2 - t", "q1 * u2^3"]
    phi = VectorField(spec.compile("phi", texts), *spec.partials("phi", texts))
    x, u = [0.5, 2.0], [0.25, -1.0]
    assert np.array_equal(phi.d_x(0.5, x, u), np.array([[0.0, 2.0 * 0.25 * 2.0], [-1.0, 0.0]]))
    assert np.array_equal(phi.d_y(0.5, x, u), np.array([[4.0, 0.0], [0.0, 3.0 * 0.5]]))


# -- spec results ---------------------------------------------------------------


@pytest.mark.parametrize("grid", [100, 500, None])
def test_spec_solve_converges_in_one_newton_iteration(tmp_path, grid):
    """L = t^4 + v1^2 with g = t^2 v1 is quadratic: with exact partials
    Newton lands in one step.  ``None`` keeps the spec's m = 2000."""
    argv = ["solve", "--out", str(tmp_path / "o"), EX1]
    if grid is not None:
        argv[1:1] = ["--grid", str(grid)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["converged"] and report["iterations"] == 1


@pytest.mark.parametrize("term", ["0 * 2^q1", "0 * gamma(2 + q1)"])
def test_zero_term_with_a_variable_exponent_or_gamma_keeps_the_plain_solve(tmp_path, term):
    """A zero multiple of a power with a variable exponent, or of gamma of
    a variable, adds zero partials, so the solve takes the plain L's one
    Newton step and gives its multiplier bitwise."""
    reports = []
    for name, lagrangian in (("plain", "t^4 + v1^2"), ("term", f"t^4 + v1^2 + {term}")):
        spec = tmp_path / f"{name}.spec"
        spec.write_text(Path(EX1).read_text(encoding="utf-8").replace(
            "L  = t^4 + v1^2", f"L = {lagrangian}"))
        assert main(["solve", "--grid", "500", "--out", str(tmp_path / name), str(spec)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    plain, with_term = reports
    assert with_term["iterations"] == plain["iterations"] == 1
    assert with_term["multipliers"] == plain["multipliers"]


def test_hamiltonian_stationarity_of_example2_is_exactly_zero(tmp_path):
    """F_u + phi_u p = 2 (u - 1) + 4 + 0 vanishes at u = -1 in exact
    arithmetic, and so in floating point from exact partials."""
    assert main(["check", "--which", "hamiltonian", "--out", str(tmp_path / "o"), EX2]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    sups = {entry["name"]: entry["sup_norm"] for entry in report["checks"]}
    assert sups["hamiltonian_stationarity"] == 0.0
