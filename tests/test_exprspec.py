import dataclasses
import gc
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracnoether import Grid, exprspec, sample
from fracnoether.exprspec import ProblemSpec, SpecError, parse_expression, parse_spec
from fracnoether.gammafn import GammaPoleError, gamma


# -- expression grammar ------------------------------------------------------


def ev(text, **env):
    return parse_expression(text, tuple(env))(env)


def test_literals_and_arithmetic():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("7 / 2 - 1") == 2.5
    assert ev("1e-3 + .5") == pytest.approx(0.5010)


def test_power_binds_tightest_and_right_associative():
    assert ev("2 * 3 ^ 2") == 18.0
    assert ev("2 ^ 3 ^ 2") == 512.0
    assert ev("-2 ^ 2") == -4.0
    assert ev("2 ^ -1") == 0.5


def test_unary_signs():
    assert ev("-3 + +2") == -1.0
    assert ev("--4") == 4.0


def test_gamma_function():
    assert ev("gamma(0.5) ^ 2") == pytest.approx(math.pi, rel=1e-12)
    assert ev("2 / gamma(3.5)") == pytest.approx(0.6018022225, rel=1e-9)


def test_constant_gamma_argument_is_evaluated_once(monkeypatch):
    """example1's trajectory: gamma(3.5) is folded at compile time, and the
    samples are bitwise those of the same curve with gamma evaluated at
    every node (3.5 + 0 t is exactly 3.5)."""
    calls = []
    real = exprspec._FUNCTIONS["gamma"]
    monkeypatch.setitem(exprspec._FUNCTIONS, "gamma", lambda x: calls.append(x) or real(x))
    grid = Grid(0.0, 1.0, 300)
    folded = parse_expression("2 * t^2.5 / gamma(3.5)", ("t",))
    assert len(calls) == 1
    samples = sample(grid, lambda t: folded({"t": t}))
    assert len(calls) == 1
    runtime = parse_expression("2 * t^2.5 / gamma(3.5 + 0 * t)", ("t",))
    reference = sample(grid, lambda t: runtime({"t": t}))
    assert len(calls) == 1 + grid.m + 1
    assert np.array_equal(samples.values, reference.values)


def test_constant_that_fails_to_fold_raises_at_evaluation():
    fn = parse_expression("t + gamma(0)", ("t",))
    with pytest.raises(GammaPoleError):
        fn({"t": 1.0})


def test_compiling_leaves_no_cyclic_garbage():
    """Reference counting frees everything a compile makes, so compiling
    gives the cyclic garbage collector no work."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        parse_expression("-2 * t^2.5 / gamma(3.5) + gamma(t)", ("t",))
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_variables():
    assert ev("t ^ 2 + v1", t=3.0, v1=1.0) == 10.0
    vals = parse_expression("t ^ 2", ("t",))({"t": np.array([1.0, 2.0])})
    assert np.allclose(vals, [1.0, 4.0])


def test_unknown_variable_rejected():
    with pytest.raises(SpecError, match="unknown variable 'x'"):
        parse_expression("t + x", ("t",))


def test_surrounding_whitespace_accepted():
    for text, value in (("t ", 3.0), ("t\n", 3.0), (" t\t", 3.0), ("\t( t ) * 2 \n", 6.0)):
        assert parse_expression(text, ("t",))({"t": 3.0}) == value
    with pytest.raises(SpecError, match="unexpected character '\\$'"):
        parse_expression("2 $ 3")


def test_syntax_errors():
    for bad in ("2 +", "(1 + 2", "1 2", "gamma 3", "* 4", "2 $ 3"):
        with pytest.raises(SpecError):
            parse_expression(bad)


@pytest.mark.parametrize(
    "text, value",
    [
        ("05", 5.0),
        ("007.5", 7.5),
        ("1.", 1.0),
        (".25", 0.25),
        ("1E+3", 1000.0),
        ("\t( t ) * 2 \n", 6.0),
        ("1 +\n 2", 3.0),
        ("2^-1", 0.5),
        ("-2^2", -4.0),
        ("2^3^2", 512.0),
    ],
)
def test_accepted_language(text, value):
    assert parse_expression(text, ("t",))({"t": 3.0}) == value


@pytest.mark.parametrize(
    "text",
    ["t**2", "1_0", "0x10", "1j", "True", "t.real", "t[0]", "gamma(1, 2)", "gamma(1,)",
     "(gamma)(1)", "sin(t)", "ｔ", "1 2", "2 +", "lambda: 1"],
)
def test_rejected_language(text):
    with pytest.raises(SpecError):
        parse_expression(text, ("t",))


# A tree oracle that shares no code with the parser: random trees over the
# whole grammar, rendered with random spacing and only the parentheses that
# precedence requires, evaluated by the same Python and numpy operations in
# the same order, so compiled values must agree bitwise.

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}
# binding strength of each node, and what each operand position needs: a sum
# or product's right operand binds tighter than it (a - (b - c)), the base of
# a power is an atom and its exponent may carry a sign (2^-t^2 = 2^(-(t^2)))
_STRENGTH = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pos": 3, "^": 4, "leaf": 5, "gamma": 5}
_OPERANDS = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3), "neg": (3,),
             "pos": (3,), "gamma": (0,)}
_GAMMA = np.vectorize(gamma, otypes=[float])
_SPEC = ProblemSpec(
    alpha=0.5, a=0.0, b=1.0, m=10, dim=1, control_dim=1, lagrangian="0", constraints=[],
    levels=[], q_a=[0.0], q_b=None, multipliers=None, trajectory=None, tau=None, xi=None,
    dynamics=None, control=None, costate=None,
)

_LEAVES = st.one_of(
    st.sampled_from(["t", "q1", "v1"]),
    st.builds(str.format, st.sampled_from(["{}", "0{}", "{}.", "{}.5", ".{}", "{}e-2", "{}E+1"]),
              st.integers(0, 40)),
).map(lambda text: ("leaf", text))


def _trees(inner):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_BINARY)), inner, inner),
        st.tuples(st.sampled_from(["neg", "pos", "gamma"]), inner),
    )


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n\t"])


@st.composite
def _rendered(draw, node):
    kind, *children = node
    if kind == "leaf":
        return children[0]
    parts = []
    for child, need in zip(children, _OPERANDS[kind]):
        text = draw(_rendered(child))
        if _STRENGTH[child[0]] < need:
            text = f"({draw(_SPACE)}{text}{draw(_SPACE)})"
        parts.append(text)
    if kind == "gamma":
        return f"gamma{draw(_SPACE)}({draw(_SPACE)}{parts[0]}{draw(_SPACE)})"
    if kind in ("neg", "pos"):
        return f"{'-' if kind == 'neg' else '+'}{draw(_SPACE)}{parts[0]}"
    return f"{parts[0]}{draw(_SPACE)}{kind}{draw(_SPACE)}{parts[1]}"


def _evaluate(node, env):
    kind, *children = node
    if kind == "leaf":
        return env[children[0]] if children[0] in env else float(children[0])
    values = [_evaluate(child, env) for child in children]
    if kind == "neg":
        return -values[0]
    if kind == "pos":
        return values[0]
    if kind == "gamma":
        return _GAMMA(values[0])
    value = _BINARY[kind](*values)
    if isinstance(value, complex):  # a power of two Python floats
        raise SpecError("complex value")
    return value


def _outcome(evaluate):
    """The bits of ``evaluate()`` as float64, or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(evaluate(), dtype=float).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@st.composite
def _cases(draw):
    tree = draw(st.recursive(_LEAVES, _trees, max_leaves=10))
    return tree, draw(_rendered(tree))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_cases(), st.integers(0, 2**32 - 1))
@example((("^", ("-", ("leaf", "t"), ("leaf", "1")), ("leaf", ".5")), "(t - 1)^.5"), 1)
def test_compiled_values_match_a_tree_oracle_bitwise(case, seed):
    tree, text = case
    L = _SPEC.compile("L", text)
    rng = np.random.default_rng(seed)
    t, q, v = rng.uniform(-0.5, 2.0, 5), rng.uniform(-2.0, 2.0, (5, 1)), rng.uniform(-2.0, 2.0, (5, 1))
    # one point: t a Python float, q1 and v1 numpy scalars, as L reads them
    point = {"t": float(t[0]), "q1": q[0, 0], "v1": v[0, 0]}
    assert _outcome(lambda: L(float(t[0]), q[0], v[0])) == _outcome(
        lambda: float(_evaluate(tree, point))
    ), text
    arrays = {"t": t, "q1": q[:, 0], "v1": v[:, 0]}
    assert _outcome(lambda: L(t, q, v)) == _outcome(
        lambda: np.broadcast_to(_evaluate(tree, arrays), t.shape)
    ), text


# -- spec files --------------------------------------------------------------


def write(tmp_path, text):
    path = tmp_path / "case.spec"
    path.write_text(text)
    return str(path)


MINIMAL = """\
alpha = 0.5
L = t + v1^2
q_a1 = 0
q_b1 = 1
"""


def test_minimal_spec(tmp_path):
    spec = parse_spec(write(tmp_path, MINIMAL))
    assert spec.alpha == 0.5
    assert (spec.a, spec.b, spec.m, spec.dim) == (0.0, 1.0, 500, 1)
    assert spec.k == 0 and not spec.is_control
    assert spec.q_a == [0.0] and spec.q_b == [1.0]


def test_bundled_benchmark_spec():
    from fracnoether.cli import _bundled_spec

    spec = parse_spec(_bundled_spec("example1.spec"))
    assert spec.alpha == 0.5
    assert spec.lagrangian.replace(" ", "") == "t^4+v1^2"
    assert spec.constraints[0].replace(" ", "") == "t^2*v1"
    assert spec.levels == [0.2]
    assert spec.multipliers == [2.0]
    assert spec.q_b[0] == pytest.approx(0.6018022225, rel=1e-9)


def test_sum_too_deep_to_evaluate_where_it_is_called_is_a_spec_error(tmp_path):
    """A 300-term sum compiles and evaluates at the top of the stack, but
    called about 200 frames below the recursion limit it overflows it.  That
    RecursionError is a SpecError naming the key, not a traceback."""
    text = " + ".join(["v1^2"] * 300)
    spec = parse_spec(write(tmp_path, MINIMAL.replace("t + v1^2", text)))
    L = spec.compile("L", spec.lagrangian)
    one = np.array([1.0])
    assert L(0.5, one, one) == 300.0

    def depth():
        frame, n = sys._getframe(), 0
        while frame is not None:
            frame, n = frame.f_back, n + 1
        return n

    def below(n):
        return L(0.5, one, one) if n <= 0 else below(n - 1)

    with pytest.raises(SpecError, match=r"^in L: expression nested too deeply to evaluate: 'v1\^2 \+ "):
        below(sys.getrecursionlimit() - 200 - depth())


def test_empty_file_rejected(tmp_path):
    with pytest.raises(SpecError, match="empty"):
        parse_spec(write(tmp_path, ""))


def test_missing_alpha(tmp_path):
    with pytest.raises(SpecError, match="alpha"):
        parse_spec(write(tmp_path, "L = t\nq_a1 = 0\nq_b1 = 0\n"))


def test_constraint_level_count_mismatch(tmp_path):
    text = MINIMAL + "g1 = v1\ng2 = t\nl1 = 1\n"
    with pytest.raises(SpecError, match="2 constraint expressions but 1 levels"):
        parse_spec(write(tmp_path, text))


def test_duplicate_key_line_number(tmp_path):
    text = "alpha = 0.5\nalpha = 0.6\n"
    with pytest.raises(SpecError, match="line 2.*duplicate"):
        parse_spec(write(tmp_path, text))


def test_non_contiguous_indices(tmp_path):
    text = MINIMAL + "g1 = v1\ng3 = t\nl1 = 1\n"
    with pytest.raises(SpecError, match="non-contiguous"):
        parse_spec(write(tmp_path, text))


def test_unknown_key(tmp_path):
    with pytest.raises(SpecError, match="unknown key 'frobnicate'"):
        parse_spec(write(tmp_path, MINIMAL + "frobnicate = 1\n"))


def test_alpha_range_checked(tmp_path):
    with pytest.raises(SpecError, match="alpha"):
        parse_spec(write(tmp_path, MINIMAL.replace("0.5", "1.5", 1)))


def test_bad_expression_carries_context(tmp_path):
    text = MINIMAL.replace("t + v1^2", "t + bogus")
    with pytest.raises(SpecError, match="bogus"):
        parse_spec(write(tmp_path, text))


def test_comments_and_blank_lines(tmp_path):
    text = "# header\n\nalpha = 0.5  # trailing\nL = t\nq_a1 = 0\nq_b1 = 0\n"
    assert parse_spec(write(tmp_path, text)).alpha == 0.5


def test_builtin_trajectory_expansion(tmp_path):
    text = MINIMAL + "trajectory1 = builtin:example1\n"
    spec = parse_spec(write(tmp_path, text))
    expr = parse_expression(spec.trajectory[0], ("t",))
    assert expr({"t": 1.0}) == pytest.approx(0.6018022225, rel=1e-9)


def test_control_spec_switches_variables(tmp_path):
    text = """\
alpha = 0.5
L = (u1 - 1)^2
phi1 = u1
q_a1 = 0
"""
    spec = parse_spec(write(tmp_path, text))
    assert spec.is_control
    assert "u1" in spec.variables("L")
    assert "v1" not in spec.variables("L")


@pytest.mark.parametrize("line", ["m = 100.7", "dim = 1.9", "controls = 1.5", "m = 1e999"])
def test_sizes_must_be_integers(tmp_path, line):
    key = line.split(" = ")[0]
    with pytest.raises(SpecError, match=f"line 5: {key} must be an integer"):
        parse_spec(write(tmp_path, MINIMAL + line + "\n"))


def test_integral_float_sizes_accepted(tmp_path):
    spec = parse_spec(write(tmp_path, MINIMAL + "m = 1e3\ndim = 1.0\n"))
    assert spec.m == 1000 and isinstance(spec.m, int) and spec.dim == 1


@pytest.mark.parametrize(
    "change, message",
    [
        ({"alpha": 0.0}, "alpha must lie in (0, 1], got 0.0"),
        ({"alpha": 1.5}, "alpha must lie in (0, 1], got 1.5"),
        ({"alpha": math.nan}, "alpha must lie in (0, 1], got nan"),
        ({"a": 1.0}, "need a < b, got [1.0, 1.0]"),
        ({"m": 1}, "m must be >= 4, got 1"),
        ({"m": 3}, "m must be >= 4, got 3"),
        ({"dim": 0}, "dim must be >= 1, got 0"),
        ({"control_dim": 0}, "controls must be >= 1, got 0"),
    ],
    ids=["alpha-0", "alpha-1.5", "alpha-nan", "a-equals-b", "m-1", "m-3", "dim-0", "controls-0"],
)
def test_value_rules_hold_for_a_replaced_spec(tmp_path, change, message):
    """The spec's value rules belong to ProblemSpec, so a spec changed by
    ``dataclasses.replace`` meets the same rule, with the same message, as
    one read from a file; its fields cannot be assigned."""
    spec = parse_spec(write(tmp_path, MINIMAL))
    with pytest.raises(SpecError) as info:
        dataclasses.replace(spec, **change)
    assert str(info.value) == message
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.alpha = 0.25
    assert dataclasses.replace(spec, m=4, alpha=1.0).compiled is spec.compiled


@pytest.mark.parametrize(
    "extra, message",
    [
        ("dim = 0\n", "dim must be >= 1, got 0"),
        ("dim = -1\nq_a2 = 0\n", "dim must be >= 1, got -1"),
        ("controls = 0\nphi1 = u1\ncontrol1 = 1\n", "controls must be >= 1, got 0"),
    ],
    ids=["dim-0", "dim-negative", "controls-0"],
)
def test_size_rule_is_reported_before_the_keys_it_counts(tmp_path, extra, message):
    """dim and controls count the indexed keys, so they are checked before
    those keys are read: the message names the size, not a miscount."""
    with pytest.raises(SpecError) as info:
        parse_spec(write(tmp_path, MINIMAL + extra))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "key, value",
    [
        ("l1", "1/0"),
        ("q_b1", "gamma(0)"),
        ("q_b1", "10^400"),
        ("q_a1", "(-1)^0.5"),
        ("b", "1/(1 - 1)"),
    ],
)
def test_unevaluable_constant_is_spec_error_with_line(tmp_path, key, value):
    # the bad constant goes on line 1, ahead of the other keys of a valid spec
    rest = (MINIMAL + "g1 = v1\nl1 = 1\n").splitlines()
    text = "\n".join([f"{key} = {value}"] + [ln for ln in rest if not ln.startswith(key)]) + "\n"
    with pytest.raises(SpecError, match=f"line 1: in {key}: "):
        parse_spec(write(tmp_path, text))


def test_expression_errors_carry_key_and_line(tmp_path):
    text = "alpha = 0.5\ndim = 2\nL = v1^2 + v2^2\nq_a1 = 0\nq_a2 = 0\nxi1 = 1\nxi2 = q3\n"
    with pytest.raises(SpecError, match="line 7: in xi2: unknown variable 'q3'"):
        parse_spec(write(tmp_path, text))


def test_compiled_keys_bind_each_index(tmp_path):
    """Every key's callable reads q2, v2/u2 and xi2 from the right entry; the
    values are asymmetric, so a binder that swaps indices fails."""
    q, y, t = np.array([1.0, 2.0]), np.array([10.0, 20.0]), 0.5
    var = parse_spec(write(tmp_path, "alpha = 0.5\ndim = 2\nL = t\nq_a1 = 0\nq_a2 = 0\n"))
    assert var.compile("L", "q2 + 1000*v2 + 100*t")(t, q, y) == 20052.0
    assert var.compile("g", "q1 + 1000*v1")(t, q, y) == 10001.0
    assert var.compile("tau", "q2 - t")(t, q) == 1.5
    assert list(var.compile("xi", ["q2", "q1 - t"])(t, q)) == [2.0, 0.5]
    assert list(var.compile("trajectory", ["t", "2*t"])(t)) == [0.5, 1.0]
    ctl = parse_spec(write(tmp_path, "alpha = 0.5\ndim = 2\ncontrols = 3\nL = u3\n"
                           "phi1 = u1\nphi2 = u2\nq_a1 = 0\nq_a2 = 0\n"))
    u = np.array([10.0, 20.0, 30.0])
    assert ctl.compile("L", "u2 + 100*u3 + q2")(t, q, u) == 3022.0
    assert list(ctl.compile("phi", ["u2", "q2 * u1"])(t, q, u)) == [20.0, 20.0]
    assert list(ctl.compile("control", ["t", "t^2"])(t)) == [0.5, 0.25]
    assert ctl.compile("costate", "3*t")(t) == 1.5
    with pytest.raises(SpecError, match="unknown variable 'v1'"):
        ctl.compile("L", "v1")
    with pytest.raises(SpecError, match="unknown variable 'q1'"):
        ctl.compile("control", "q1")
