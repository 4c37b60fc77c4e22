import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fracnoether import Grid, SampledFunction, cli, gammafn, make_report
from fracnoether.cli import _bundled_spec, main

EX1 = _bundled_spec("example1.spec")
EX2 = _bundled_spec("example2.spec")


def run(*argv):
    return main(list(argv))


def read_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_check_el_passes(tmp_path):
    out = tmp_path / "o"
    assert run("check", "--which", "el", "--out", str(out), EX1) == 0
    doc = read_report(out)
    assert doc["passed"] and doc["which"] == "el"
    assert doc["checks"][0]["sup_norm"] <= doc["checks"][0]["tolerance"]
    assert (out / "el_profile.csv").exists()
    header = (out / "el_profile.csv").read_text().splitlines()[0]
    assert header == "t,r1,abs_r"


def test_check_noether_passes(tmp_path):
    out = tmp_path / "o"
    assert run("check", "--which", "noether", "--out", str(out), EX1) == 0


def test_check_momentum_passes(tmp_path):
    out = tmp_path / "o"
    assert run("check", "--which", "momentum", "--out", str(out), EX1) == 0


def test_check_invariance_passes(tmp_path):
    out = tmp_path / "o"
    assert run("check", "--which", "invariance", "--out", str(out), EX1) == 0


def test_check_hamiltonian_passes(tmp_path):
    out = tmp_path / "o"
    assert run("check", "--which", "hamiltonian", "--out", str(out), EX2) == 0
    doc = read_report(out)
    assert len(doc["checks"]) == 3


def test_zero_multiplier_fails_with_exit_1(tmp_path):
    spec = tmp_path / "lam0.spec"
    text = Path(EX1).read_text(encoding="utf-8").replace("lambda1 = 2", "lambda1 = 0")
    spec.write_text(text)
    out = tmp_path / "o"
    assert run("check", "--which", "el", "--out", str(out), str(spec)) == 1
    assert not read_report(out)["passed"]


def test_invalid_spec_exits_3(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("alpha = 0.5\nL = t + bogus\nq_a1 = 0\nq_b1 = 0\n")
    assert run("check", "--out", str(tmp_path / "o"), str(spec)) == 3
    assert run("check", "--out", str(tmp_path / "o"), str(tmp_path / "missing.spec")) == 3


@pytest.mark.parametrize("bad", ["l1 = 1/0", "q_b1 = gamma(0)"])
def test_unevaluable_constant_exits_3_with_line(tmp_path, capsys, bad):
    key, value = bad.split(" = ")
    lines = Path(EX1).read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} "))
    lines[lineno - 1] = bad
    spec = tmp_path / "bad.spec"
    spec.write_text("\n".join(lines) + "\n")
    assert run("check", "--out", str(tmp_path / "o"), str(spec)) == 3
    assert f"line {lineno}: in {key}" in capsys.readouterr().err


def test_missing_trajectory_exits_3(tmp_path):
    spec = tmp_path / "naked.spec"
    spec.write_text("alpha = 0.5\nL = v1^2\nq_a1 = 0\nq_b1 = 0\n")
    assert run("check", "--which", "el", "--out", str(tmp_path / "o"), str(spec)) == 3


def test_solve_benchmark(tmp_path):
    out = tmp_path / "o"
    assert run("solve", "--grid", "500", "--out", str(out), EX1) == 0
    doc = read_report(out)
    assert doc["converged"]
    assert doc["multipliers"][0] == pytest.approx(2.0, abs=0.05)
    assert doc["scaled_max_deviation"] <= 5e-3
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,q1,deviation1"


def test_solve_trivial_spec(tmp_path):
    spec = tmp_path / "trivial.spec"
    spec.write_text("alpha = 0.5\nm = 100\nL = v1^2\nq_a1 = 0\nq_b1 = 0\n")
    out = tmp_path / "o"
    assert run("solve", "--out", str(out), str(spec)) == 0
    doc = read_report(out)
    assert doc["converged"] and doc["multipliers"] == []


def test_solve_infeasible_exits_2(tmp_path):
    spec = tmp_path / "inf.spec"
    text = Path(EX1).read_text(encoding="utf-8").replace("l1 = 1/5", "l1 = 1e9")
    spec.write_text(text)
    assert run("solve", "--grid", "200", "--out", str(tmp_path / "o"), str(spec)) == 2


def test_solve_control_spec_exits_3(tmp_path, capsys):
    assert run("solve", "--out", str(tmp_path / "o"), EX2) == 3
    assert "spec declares dynamics" in capsys.readouterr().err


def test_selftest_passes_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("selftest", "--out", str(out1)) == 0
    assert run("selftest", "--out", str(out2)) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_selftest_catches_corrupted_gamma(tmp_path):
    original = gammafn._LANCZOS_COEFFS[1]
    gammafn._LANCZOS_COEFFS[1] = 700.0
    try:
        assert run("selftest", "--out", str(tmp_path / "o")) == 1
        doc = read_report(tmp_path / "o")
        failed = {c["name"] for c in doc["checks"] if not c["pass"]}
        assert "gamma-values" in failed
    finally:
        gammafn._LANCZOS_COEFFS[1] = original


def test_grid_and_alpha_overrides(tmp_path):
    out = tmp_path / "o"
    assert run("check", "--which", "el", "--grid", "800", "--out", str(out), EX1) == 0
    assert read_report(out)["grid"]["m"] == 800
    # alpha = 1 on the benchmark spec: the candidate is no longer an extremal
    code = run("check", "--which", "el", "--alpha", "1.0", "--out", str(out), EX1)
    assert code == 1


def test_check_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("check", "--which", "el", "--out", str(out1), EX1)
    run("check", "--which", "el", "--out", str(out2), EX1)
    assert (out1 / "el_profile.csv").read_bytes() == (out2 / "el_profile.csv").read_bytes()


def _csv_reference(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def test_csv_writers_match_csv_module(tmp_path):
    """Profiles and trajectories are byte-identical to csv.writer output
    of each value's repr, NaN endpoint markers and signed zeros included."""
    grid = Grid(0.0, 1.0, 8)
    r = np.column_stack([np.sin(7.0 * grid.nodes), -np.cos(3.0 * grid.nodes) / 3.0])
    r[0], r[-1, 1], r[4, 0] = np.nan, np.nan, -0.0
    report = make_report(grid, r)
    cli._write_profile(str(tmp_path / "profile.csv"), report)
    mag = np.sqrt(np.sum(r * r, axis=1))
    rows = [(t, *row, m) for t, row, m in zip(grid.nodes, r, mag)]
    _csv_reference(tmp_path / "reference.csv", ["t", "r1", "r2", "abs_r"], rows)
    assert (tmp_path / "profile.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    q = SampledFunction(grid, np.column_stack([grid.nodes**1.5, 1e-300 * grid.nodes]))
    ref = SampledFunction(grid, q.values * (1.0 + 1e-9))
    cli._write_trajectory(str(tmp_path / "trajectory.csv"), q, ref)
    rows = [(t, *qj, *(qj - rj)) for t, qj, rj in zip(grid.nodes, q.values, ref.values)]
    _csv_reference(tmp_path / "reference.csv", ["t", "q1", "q2", "deviation1", "deviation2"], rows)
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# dim = 2 benchmark: two copies of the order-1/2 extremal q_i = t^2.5 / gamma(3.5)
# (fractional velocity t^2 / 2) with one shared constraint; lambda = 1.
DIM2 = """\
alpha = 0.5
dim = 2
L = 0.5*t^4 + v1^2 + v2^2
g1 = t^2*(v1 + v2)
l1 = 1/5
lambda1 = 1
q_a1 = 0
q_a2 = 0
q_b1 = 1/gamma(3.5)
q_b2 = 1/gamma(3.5)
trajectory1 = t^2.5/gamma(3.5)
trajectory2 = t^2.5/gamma(3.5)
tau = 1
xi1 = 1
xi2 = 1
"""

# two controls: u = (4, 1) is stationary for L - 6 g with zero costate, and
# the state has D^alpha q = u1 - 2 u2 = 2
TWO_CONTROLS = """\
alpha = 0.5
controls = 2
L = (u1 - 1)^2 + 3*(u2 + 1)^2
phi1 = u1 - 2*u2
g1 = u1 + 2*u2
l1 = 6
q_a1 = 0
lambda1 = 6
trajectory1 = 2*t^0.5/gamma(1.5)
control1 = 4
control2 = 1
costate1 = 0
"""


@pytest.mark.parametrize("which", ["el", "noether", "momentum", "invariance"])
def test_two_state_spec_checks_pass(tmp_path, which):
    spec = tmp_path / "dim2.spec"
    spec.write_text(DIM2)
    out = tmp_path / "o"
    assert run("check", "--which", which, "--out", str(out), str(spec)) == 0
    assert read_report(out)["passed"]


def test_two_control_spec_hamiltonian_passes(tmp_path):
    spec = tmp_path / "ctrl2.spec"
    spec.write_text(TWO_CONTROLS)
    out = tmp_path / "o"
    assert run("check", "--which", "hamiltonian", "--out", str(out), str(spec)) == 0
    assert [c["pass"] for c in read_report(out)["checks"]] == [True, True, True]
    # swapping the two controls breaks the state equation and stationarity
    swapped = TWO_CONTROLS.replace("control1 = 4\ncontrol2 = 1", "control1 = 1\ncontrol2 = 4")
    spec.write_text(swapped)
    assert run("check", "--which", "hamiltonian", "--out", str(out), str(spec)) == 1
