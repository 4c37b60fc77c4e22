import math

import numpy as np
import pytest

from fracnoether.exprspec import SpecError, parse_expression, parse_spec


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
