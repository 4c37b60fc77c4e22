import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracnoether import (
    Grid,
    SampledFunction,
    cli,
    euler_lagrange_residual,
    exprspec,
    gammafn,
    make_report,
    sample,
)
from fracnoether.cli import _bundled_spec, main
from fracnoether.exprspec import SpecError, parse_spec

EX1 = _bundled_spec("example1.spec")
EX2 = _bundled_spec("example2.spec")


def run(*argv):
    return main(list(argv))


def read_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def example1_with(tmp_path, key, value):
    """example1.spec with ``key``'s value replaced: (path, line of the key)."""
    lines = Path(EX1).read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.split("=")[0].strip() == key)
    lines[lineno - 1] = f"{key} = {value}"
    spec = tmp_path / "edited.spec"
    spec.write_text("\n".join(lines) + "\n")
    return str(spec), lineno


def test_check_el_passes(tmp_path):
    out = tmp_path / "o"
    assert run("check", "--which", "el", "--out", str(out), EX1) == 0
    doc = read_report(out)
    assert doc["passed"] and doc["which"] == "el"
    assert doc["checks"][0]["sup_norm"] <= doc["checks"][0]["tolerance"]
    assert (out / "el_profile.csv").exists()
    header = (out / "el_profile.csv").read_text().splitlines()[0]
    assert header == "t,r1,abs_r"


@pytest.mark.parametrize(
    "argv",
    [["check", "--which", w, EX1] for w in ("el", "noether", "momentum", "invariance")]
    + [["check", "--which", "hamiltonian", EX2], ["solve", "--grid", "100", EX1]],
    ids=["el", "noether", "momentum", "invariance", "hamiltonian", "solve"],
)
def test_a_command_compiles_each_expression_once(tmp_path, monkeypatch, argv):
    """The closures that parse_spec builds to validate each key are the ones
    the command evaluates: no text is compiled twice for the same variables,
    constants included."""
    compiled = []
    real = exprspec._compile

    def counted(text, variables):
        compiled.append((text, tuple(variables.items())))
        return real(text, variables)

    monkeypatch.setattr(exprspec, "_compile", counted)
    assert run(*argv[:-1], "--out", str(tmp_path / "o"), argv[-1]) == 0
    assert compiled and len(set(compiled)) == len(compiled)


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


@pytest.mark.parametrize(
    "bad",
    [
        "l1 = 1/0",
        "q_b1 = gamma(0)",
        "b = 1e999",
        "l1 = 1e999",
        "q_a1 = 1e999",
        "q_b1 = gamma(172.5)",
        "q_b1 = 1/gamma(-200.5)",
    ],
)
def test_unevaluable_constant_exits_3_with_line(tmp_path, capsys, bad):
    key, value = bad.split(" = ")
    spec, lineno = example1_with(tmp_path, key, value)
    assert run("check", "--out", str(tmp_path / "o"), spec) == 3
    assert f"line {lineno}: in {key}" in capsys.readouterr().err


def test_missing_trajectory_exits_3(tmp_path):
    spec = tmp_path / "naked.spec"
    spec.write_text("alpha = 0.5\nL = v1^2\nq_a1 = 0\nq_b1 = 0\n")
    assert run("check", "--which", "el", "--out", str(tmp_path / "o"), str(spec)) == 3


@pytest.mark.parametrize("where", ["under a file", "empty", "over a directory"])
def test_unusable_out_exits_2(tmp_path, capsys, where):
    """An output directory that cannot be created, or a file in it that
    cannot be written, is a one-line output error with exit 2."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    taken = tmp_path / "o"
    (taken / "el_profile.csv").mkdir(parents=True)
    out = {"under a file": str(blocker / "sub"), "empty": "", "over a directory": str(taken)}[where]
    assert run("check", "--which", "el", "--out", out, EX1) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_missing_spec_exits_3_before_output(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run("check", "--out", str(blocker / "sub"), str(tmp_path / "missing.spec")) == 3
    assert capsys.readouterr().err.startswith("spec error: ")


@pytest.mark.parametrize("what", ["directory", "binary"])
@pytest.mark.parametrize("command", ["check", "solve"])
def test_unreadable_spec_exits_3(tmp_path, capsys, command, what):
    """A spec path that exists but cannot be read as UTF-8 text is a spec
    error, not a traceback with exit 1 (a residual failed) or a computation
    failure with exit 2."""
    spec = tmp_path / "spec"
    spec.mkdir() if what == "directory" else spec.write_bytes(b"\xff\xfe alpha = 0.5\n")
    assert run(command, "--out", str(tmp_path / "o"), str(spec)) == 3
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_solve_benchmark(tmp_path):
    out = tmp_path / "o"
    assert run("solve", "--grid", "500", "--out", str(out), EX1) == 0
    doc = read_report(out)
    assert doc["converged"] and doc["stop_reason"] == "tolerance"
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
    assert read_report(tmp_path / "o")["stop_reason"] == "line search stalled"


def edited(tmp_path, path, drop=(), add=()):
    """``path`` without the lines whose key is in ``drop`` and with the lines
    ``add`` appended: (path of the copy, its lines)."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if line.split("=")[0].strip() not in drop] + list(add)
    spec = tmp_path / "edited.spec"
    spec.write_text("\n".join(lines) + "\n")
    return str(spec), lines


@pytest.mark.parametrize(
    "base, which, drop, add, message, line_of",
    [
        (EX1, "noether", ("tau", "xi1"), (),
         "this check needs symmetry generators: add 'tau' and/or 'xi1..'", None),
        (EX1, "el", ("q_b1",), (), "variational specs need final boundary values 'q_b1..'", None),
        (EX1, "hamiltonian", (), (), "hamiltonian checks need dynamics expressions 'phi1..'", None),
        (EX1, "el", ("lambda1",), (), "this check needs multipliers ('lambda1..')", None),
        (EX2, "hamiltonian", ("costate1",), (),
         "hamiltonian checks need 'control1..' and 'costate1..'", None),
        (EX1, "el", (), ("bogus",), "expected 'key = value', got 'bogus'", "bogus"),
        (EX1, "el", (), ("= 1",), "empty key or value in '= 1'", "= 1"),
        (EX1, "el", ("L",), (), "missing required key 'L'", None),
        (EX1, "el", (), ("lambda2 = 1",), "expected 1 'lambda' entries, got 2", "lambda1 = 2"),
        (EX1, "el", ("q_a1",), (), "missing required key(s) 'q_a1..'", None),
        (EX1, "momentum", ("xi1",), (), "the momentum check needs 'xi1..'", None),
    ],
    ids=["no-generator", "no-q_b", "no-phi", "no-lambda", "no-costate", "no-equals",
         "empty-key", "no-L", "entry-count", "no-q_a", "no-xi"],
)
def test_spec_diagnostic_exits_3_with_its_message(
    tmp_path, capsys, base, which, drop, add, message, line_of
):
    """Each missing or malformed key is a spec error with its message, and
    with the line it is on where the message names one, before the output
    directory is made.  Without xi the momentum law is identically zero,
    so its check would pass whatever the candidate."""
    spec, lines = edited(tmp_path, base, drop, add)
    if line_of is not None:
        message = f"line {lines.index(line_of) + 1}: {message}"
    assert run("check", "--which", which, "--out", str(tmp_path / "o"), spec) == 3
    assert capsys.readouterr().err == f"spec error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_solve_and_check_fold_el_over_their_own_bands(tmp_path):
    """solve's el entry is the solver's certificate, which leaves out
    DEFAULT_BAND = 2 nodes at each end; check leaves out 5% of the m
    intervals at each end, 25 at m = 500."""
    assert run("solve", "--grid", "500", "--out", str(tmp_path / "s"), EX1) == 0
    assert run("check", "--which", "el", "--grid", "500", "--out", str(tmp_path / "c"), EX1) == 0
    assert read_report(tmp_path / "s")["el"]["excluded_band"] == 2
    assert [c["excluded_band"] for c in read_report(tmp_path / "c")["checks"]] == [25]


def test_spec_without_constraints_checks_and_solves(tmp_path):
    """k = 0: no g, l or lambda keys.  L = t^4 + (v1 - t^2)^2 has the
    example's trajectory as its unconstrained extremal."""
    spec, _ = edited(tmp_path, EX1, drop=("L", "g1", "l1", "lambda1"), add=("L = t^4 + (v1 - t^2)^2",))
    assert run("check", "--which", "el", "--out", str(tmp_path / "c"), spec) == 0
    assert read_report(tmp_path / "c")["passed"]
    assert run("solve", "--grid", "200", "--out", str(tmp_path / "s"), spec) == 0
    report = read_report(tmp_path / "s")
    assert report["converged"] and report["multipliers"] == [] == report["constraint_residual"]
    assert report["scaled_max_deviation"] < 1e-3


def test_solve_control_spec_exits_3(tmp_path, capsys):
    assert run("solve", "--out", str(tmp_path / "o"), EX2) == 3
    assert "spec declares dynamics" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "value, message",
    [
        ("(" * 400 + "t^4 + v1^2" + ")" * 400, "too many nested parentheses"),
        (" + ".join(["t^4", "v1^2"] + ["0*t"] * 2998), "expression nested too deeply"),
    ],
    ids=["400 parentheses", "3000 terms"],
)
def test_deep_expression_exits_3_with_key_and_line(tmp_path, capsys, value, message):
    spec, lineno = example1_with(tmp_path, "L", value)
    assert run("check", "--which", "el", "--out", str(tmp_path / "o"), spec) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: line {lineno}: in L: ") and message in err


def test_960_term_sum_still_solves(tmp_path):
    """A long sum is a deep tree, but not too deep to parse or to evaluate.
    It runs in a fresh interpreter, as the CLI does: pytest's own frames
    leave too little of the recursion limit for it in this process."""
    spec, _ = example1_with(tmp_path, "L", " + ".join(["t^4", "v1^2"] + ["0*t"] * 958))
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fracnoether.cli", "solve", "--grid", "100",
         "--out", str(tmp_path / "o"), spec],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sum_too_deep_to_evaluate_is_a_spec_error(tmp_path):
    """A 980-term sum near the depth the CLI can evaluate: the solve either
    succeeds or is a spec error (exit 3), never a traceback.  It exits 0
    today, since the exact partials drop the 0*t terms; the evaluate-time
    SpecError itself is pinned in process, in tests/test_exprspec.py.  A
    fresh interpreter, as in the 960-term test."""
    spec, _ = example1_with(tmp_path, "L", " + ".join(["t^4", "v1^2"] + ["0*t"] * 978))
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fracnoether.cli", "solve", "--grid", "100",
         "--out", str(tmp_path / "o"), spec],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 3), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert proc.stderr.startswith("spec error: in L: expression nested too deeply to evaluate: ")


@pytest.mark.parametrize(
    "trajectory", ["(-1)^0.5 * t + 2 * t^2.5 / gamma(3.5)", "gamma((-1)^0.5) * t"]
)
def test_complex_power_exits_3(tmp_path, capsys, trajectory):
    """A power of two constants is evaluated when the spec is read; a complex
    one is a spec error that names its key, line and power, not a dropped
    imaginary part or a TypeError."""
    spec, lineno = example1_with(tmp_path, "trajectory1", trajectory)
    assert run("check", "--which", "el", "--out", str(tmp_path / "o"), spec) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: line {lineno}: in trajectory1: complex value ")
    assert f"of (-1)^0.5 in {trajectory!r}" in err


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """numpy's MemoryError for a matrix too large to allocate (--grid 200000
    asks 298 GiB for the dense D) is a computation failure."""

    def exhausted(problem):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape (200001, 200001)")

    monkeypatch.setattr(cli.solver, "solve", exhausted)
    assert run("solve", "--out", str(tmp_path / "o"), EX1) == 2
    assert capsys.readouterr().err.startswith("computation failed: Unable to allocate 298. GiB")


def test_selftest_passes_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("selftest", "--out", str(out1)) == 0
    assert run("selftest", "--out", str(out2)) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_selftest_catches_corrupted_gamma(tmp_path, monkeypatch):
    exact = gammafn.gamma
    monkeypatch.setattr(gammafn, "gamma", lambda x: exact(x) * (1.0 + 1e-9))
    assert run("selftest", "--out", str(tmp_path / "o")) == 1
    doc = read_report(tmp_path / "o")
    failed = {c["name"] for c in doc["checks"] if not c["pass"]}
    assert "gamma-values" in failed


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
def test_tolerance_that_is_not_finite_and_nonnegative_exits_3(tmp_path, capsys, command, tol):
    out = tmp_path / "o"
    assert run(command, "--tol", tol, "--out", str(out), EX1) == 3
    assert "--tol must be finite and >= 0" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--grid", "1", "m must be >= 4, got 1"),
        ("--grid", "3", "m must be >= 4, got 3"),
        ("--alpha", "0", "alpha must lie in (0, 1], got 0.0"),
        ("--alpha", "1.5", "alpha must lie in (0, 1], got 1.5"),
        ("--alpha", "nan", "alpha must lie in (0, 1], got nan"),
    ],
    ids=["grid-1", "grid-3", "alpha-0", "alpha-1.5", "alpha-nan"],
)
@pytest.mark.parametrize("command", ["check", "solve"])
def test_override_out_of_range_exits_3_by_the_spec_rule(
    tmp_path, capsys, command, option, value, message
):
    """--grid and --alpha replace the spec's m and alpha, so they meet the
    spec's own rules, with its messages, before the output directory exists."""
    field, kind = {"--grid": ("m", int), "--alpha": ("alpha", float)}[option]
    with pytest.raises(SpecError) as rule:
        dataclasses.replace(parse_spec(EX1), **{field: kind(value)})
    out = tmp_path / "o"
    assert run(command, option, value, "--out", str(out), EX1) == 3
    assert capsys.readouterr().err == f"spec error: {rule.value}\n"
    assert str(rule.value).startswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "option", [["--alpha", "0.3"], ["--grid", "7"], ["--tol", "1e9"]], ids=["alpha", "grid", "tol"]
)
def test_selftest_rejects_spec_options(capsys, option):
    """selftest runs a fixed suite: a spec override or --tol is a usage
    error there, not an option it would ignore."""
    with pytest.raises(SystemExit) as info:
        run("selftest", *option)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _documented_synopsis():
    """Command -> (options, whether it takes SPEC, the --which choices) from
    the fenced synopsis under "CLI commands" in docs/formats.md."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    section = text.split("## CLI commands and exit codes", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = {}
    for entry in re.split(r"\n(?=fracnoether )", block.strip()):
        name = entry.split()[1]
        options = dict(re.findall(r"\[(--[\w-]+)(?: ([^\]]*))?\]", entry))
        which = options.get("--which")
        commands[name] = (set(options), entry.split()[-1] == "SPEC", which and which.split("|"))
    return commands


def test_parser_offers_the_documented_options():
    """Each command takes exactly the options its synopsis in docs/formats.md
    lists, SPEC where it says so, and --which exactly the check kinds."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {}
    for name, p in sub.choices.items():
        options = {s for a in p._actions for s in a.option_strings if s.startswith("--")}
        positionals = [a.dest for a in p._actions if not a.option_strings]
        which = next((list(a.choices) for a in p._actions if "--which" in a.option_strings), None)
        offered[name] = (options - {"--help"}, positionals == ["spec"], which)
    assert offered == _documented_synopsis()
    assert offered["check"][2] == list(cli._CHECK_KINDS)


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


def _profile_reference(path, report):
    """csv.writer output of each value's repr for ``report``'s profile,
    abs_r taken as sqrt(sum(r * r)) of the nodewise residual."""
    r = report.pointwise.values
    mag = np.sqrt(np.sum(r * r, axis=1))
    header = ["t"] + [f"r{i + 1}" for i in range(r.shape[1])] + ["abs_r"]
    _csv_reference(path, header, [(t, *row, m) for t, row, m in zip(report.grid.nodes, r, mag)])


def test_csv_writers_match_csv_module(tmp_path):
    """Profiles and trajectories are byte-identical to csv.writer output
    of each value's repr, NaN endpoint markers and signed zeros included,
    and any table to a per-row join of reprs, on NaN, infinities, -0.0, the
    smallest subnormal, 1e16 and 0.1 too.  A one-component profile writes
    abs_r from r1's text where |r1| is its magnitude, and from the
    magnitude where r1 * r1 underflows (1e-200) or overflows (1e200)."""
    grid = Grid(0.0, 1.0, 8)
    r = np.column_stack([np.sin(7.0 * grid.nodes), -np.cos(3.0 * grid.nodes) / 3.0])
    r[0], r[-1, 1], r[4, 0] = np.nan, np.nan, -0.0
    one = r[:, :1].copy()
    one[-1], one[2], one[3] = np.nan, 0.0, -0.0
    tiny, huge = one.copy(), one.copy()
    tiny[5], tiny[6] = 1e-200, -1e-200
    huge[5], huge[6] = -1e200, 1e200
    for i, residual in enumerate([r, one, tiny, huge]):
        with np.errstate(over="ignore"):  # 1e200 squared is inf
            report = make_report(grid, residual)
            cli._write_profile(str(tmp_path / f"profile{i}.csv"), report, cli._reprs(grid.nodes))
            _profile_reference(tmp_path / "reference.csv", report)
        assert (tmp_path / f"profile{i}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    q = SampledFunction(grid, np.column_stack([grid.nodes**1.5, 1e-300 * grid.nodes]))
    ref = SampledFunction(grid, q.values * (1.0 + 1e-9))
    cli._write_trajectory(
        str(tmp_path / "trajectory.csv"), cli._reprs(grid.nodes), q, q.values - ref.values
    )
    rows = [(t, *qj, *(qj - rj)) for t, qj, rj in zip(grid.nodes, q.values, ref.values)]
    _csv_reference(tmp_path / "reference.csv", ["t", "q1", "q2", "deviation1", "deviation2"], rows)
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1])
    columns = [special, np.column_stack([special[::-1], -special]), np.arange(7.0)]
    cli._write_csv(str(tmp_path / "special.csv"), ["a", "b1", "b2", "c"], columns)
    rows = np.column_stack(columns).tolist()
    joined = "a,b1,b2,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert (tmp_path / "special.csv").read_bytes() == joined.encode()


def test_el_check_profile_matches_csv_module(tmp_path):
    """``check --which el`` writes the profile of the residual that
    euler_lagrange_residual gives, byte-identical to csv.writer output of
    each value's repr."""
    assert run("check", "--which", "el", "--grid", "200", "--out", str(tmp_path / "o"), EX1) == 0
    spec = dataclasses.replace(parse_spec(EX1), m=200)
    q = sample(Grid(spec.a, spec.b, spec.m), spec.compile("trajectory", spec.trajectory))
    report = euler_lagrange_residual(cli.build_variational(spec), np.array(spec.multipliers), q)
    _profile_reference(tmp_path / "reference.csv", report)
    assert (tmp_path / "o" / "el_profile.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()



@pytest.mark.parametrize(
    "spec, which", [(EX2, "hamiltonian"), (EX1, "invariance")], ids=["hamiltonian", "invariance"]
)
def test_check_profiles_match_csv_module(tmp_path, monkeypatch, spec, which):
    """Each profile of a check is byte-identical to csv.writer output of
    its report, on that report's own grid: the three hamiltonian profiles
    share the spec's nodes, and the invariance rows read t = 0, 0.5, 1
    whatever the spec's grid."""
    reports, check_reports = [], cli._check_reports

    def recorded(*args):
        reports.extend(check_reports(*args))
        return reports

    monkeypatch.setattr(cli, "_check_reports", recorded)
    out = tmp_path / "o"
    assert run("check", "--which", which, "--out", str(out), spec) == 0
    assert len(reports) == (3 if which == "hamiltonian" else 1)
    for name, report in reports:
        _profile_reference(tmp_path / "reference.csv", report)
        profile = (out / f"{name}_profile.csv").read_bytes()
        assert profile == (tmp_path / "reference.csv").read_bytes()
    if which == "invariance":
        rows = profile.decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "0.5", "1.0"]


def test_solve_files_match_csv_module(tmp_path, monkeypatch):
    """``solve``'s trajectory.csv and el_profile.csv, which share the text of
    their nodes, are byte-identical to csv.writer output of the solution,
    its deviation from the spec's reference and its EL report; the report's
    max_deviation is that deviation's largest magnitude."""
    solutions, solve = [], cli.solver.solve

    def recorded(problem):
        solutions.append(solve(problem))
        return solutions[-1]

    monkeypatch.setattr(cli.solver, "solve", recorded)
    out = tmp_path / "o"
    assert run("solve", "--grid", "200", "--out", str(out), EX1) == 0
    (sol,) = solutions
    spec = dataclasses.replace(parse_spec(EX1), m=200)
    ref = sample(Grid(spec.a, spec.b, spec.m), spec.compile("trajectory", spec.trajectory))
    deviation = sol.q.values - ref.values
    rows = [(t, *qj, *dj) for t, qj, dj in zip(ref.grid.nodes, sol.q.values, deviation)]
    _csv_reference(tmp_path / "reference.csv", ["t", "q1", "deviation1"], rows)
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    _profile_reference(tmp_path / "reference.csv", sol.el_report)
    assert (out / "el_profile.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert read_report(out)["max_deviation"] == float(np.nanmax(np.abs(deviation)))


def test_unsampleable_reference_fails_solve_before_output(tmp_path, capsys, monkeypatch):
    """solve samples its reference trajectory before it makes the output
    directory or runs the solver: a gamma pole in it exits 2 with nothing
    written and no solve, as check does."""
    spec, _ = example1_with(tmp_path, "trajectory1", "gamma(t - 0.5)")
    calls = []
    monkeypatch.setattr(cli.solver, "solve", calls.append)
    assert run("solve", "--grid", "200", "--out", str(tmp_path / "o"), spec) == 2
    assert capsys.readouterr().err.startswith("computation failed: gamma pole")
    assert calls == [] and not (tmp_path / "o").exists()


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
