import ast
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import stacknash.bestresponse
import stacknash.cli
from stacknash import (DEFAULT_PARAMS, NoEquilibrium, NonpositiveInput,
                       analytic_report, insurer_response, params_to_json,
                       reinsurer_side, residual, solve)
from stacknash.cli import FIGURE_SWEEPS, SWEEP_HEADER, main
from stacknash.mcsim import _CHUNK
from stacknash.sensitivity import PARAMETERS

from conftest import LARGE_SCALE, random_params

# sha256 of each `figures --steps 12` file, frozen from a verified run. The
# p, theta and f figures of one parameter render the same sweep, hence the
# same bytes; any change to these digests is a change of the figure data.
FIGURE_DIGESTS_STEPS_12 = {
    "lambda1": "f4c747fb993d359b6492cd8da21eb8af"
               "c62f84a94b082cd8179d06f415f14ccb",
    "lambda2": "4db86261700c217298e0bb0100794703"
               "1ff67aef136a176f1415f0d3c2f7ff5b",
    "delta0": "607a6e27e859154751d4576ab50699a3"
              "5b85c62129b4ca45785bd5a698db5c9f",
    "delta1": "437c4321263a027333fc48604506c1f9"
              "6eaa299fc3460a3d4a4fd8166a1dc5d4",
    "delta2": "b33d34c492dfec35285d23dfd09c4d82"
              "640833a8647cf1443cdf2590ae40428a",
}

# The same for `figures --steps 50`, the step count of the benchmark's
# sweeps, frozen from the csv.writer renderer.
FIGURE_DIGESTS_STEPS_50 = {
    "lambda1": "5eb05ec53f6a16693380c9d26028b4b9"
               "c487f7242daa0f336684b1056836c398",
    "lambda2": "0f2e34184dd2531850fc66b68712c804"
               "cbb89a61ea080bf7d184dca03cf393e2",
    "delta0": "3b94ac50e44a25405148351347a32d97"
              "67814b8c36f1fc01259194fdd268a763",
    "delta1": "5c745431a85c32963b18373283e3e42a"
              "a2cd84a36588585cb53036abbb904425",
    "delta2": "0f6caeb3d02466b0dd95731375a8c99d"
              "44d67782487b712d0f790e3e03a717db",
}


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(params_to_json(DEFAULT_PARAMS))
    return path


def _rows(text):
    reader = csv.reader(text.splitlines())
    header = next(reader)
    assert tuple(header) == SWEEP_HEADER
    return list(reader)


# -- solve --------------------------------------------------------------------

def test_solve_default_params(params_file, capsys):
    assert main(["solve", "--params", str(params_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta1"] == pytest.approx(2.7249757232211067, rel=1e-12)
    assert payload["theta2"] == pytest.approx(3.997672206253495, rel=1e-12)
    assert payload["residual"] <= 1e-10
    assert payload["p1"] + payload["p2"] < 1.0


def test_solve_no_equilibrium(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "delta0": 5.0, "delta1": 4.0, "delta2": 6.0,
        "lambda1": 1.5, "lambda2": 0.8,
    }))
    assert main(["solve", "--params", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "no equilibrium: lambda1*lambda2 >= 1"


def test_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--params", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_invalid_parameters(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({
        "delta0": -5.0, "delta1": 4.0, "delta2": 6.0,
        "lambda1": 0.3, "lambda2": 0.7,
    }))
    assert main(["solve", "--params", str(path)]) == 1


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", "--params", str(tmp_path / "nope.json")]) == 1


# -- sweep --------------------------------------------------------------------

def test_sweep_delta0_orderings(capsys):
    assert main(["sweep", "--param", "delta0",
                 "--from", "1", "--to", "10", "--steps", "20"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 20
    for row in rows:
        p1, p2 = float(row[3]), float(row[4])
        assert p1 > p2  # reinsurer 1 has the lower risk aversion here
        assert 0.0 < p1 + p2 < 1.0


def test_sweep_lambda1_theta_decreasing(capsys):
    assert main(["sweep", "--param", "lambda1",
                 "--from", "0.05", "--to", "0.95", "--steps", "19"]) == 0
    rows = _rows(capsys.readouterr().out)
    theta1 = [float(r[1]) for r in rows]
    theta2 = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(theta1, theta1[1:]))
    assert all(a > b for a, b in zip(theta2, theta2[1:]))
    for row in rows:
        assert float(row[8]) < 0.0 and float(row[9]) < 0.0


def test_sweep_flags_no_equilibrium_rows(capsys):
    # lambda2 past 1/lambda1 makes the tail of the sweep infeasible
    assert main(["sweep", "--param", "lambda2",
                 "--from", "0.5", "--to", "5.0", "--steps", "10"]) == 0
    rows = _rows(capsys.readouterr().out)
    flagged = [r for r in rows if r[1] == "no-equilibrium"]
    solved = [r for r in rows if r[1] != "no-equilibrium"]
    assert flagged and solved
    for row in flagged:
        assert all(cell == "" for cell in row[2:])
    for row in flagged:
        assert float(row[0]) * DEFAULT_PARAMS.lambda1 >= 1.0


def test_sweep_next_to_boundary_prints_every_sensitivity(capsys):
    # at lambda1*lambda2 = 1 - 1e-11, where 1 - phi1'*phi2' is about 1e-11
    # (kappa = 1.0000006574e11), every cell of the row is printed
    assert main(["sweep", "--param", "lambda2", "--from", "3.3333333333",
                 "--to", "3.34", "--steps", "2"]) == 0
    first, second = _rows(capsys.readouterr().out)
    assert "" not in first
    # the printed digits of an 80-digit reference
    assert first[8:10] == ["-0.37241379311", "-1.24137931035"]
    # d_p carries theta's forward error, about kappa ulps (0.07*kappa*2**-53
    # seen): the references are 0.12487247500581421 and -0.010283615588606836
    for cell, ref in zip(first[10:], (0.12487247500581421,
                                      -0.010283615588606836)):
        assert math.isfinite(float(cell))
        assert abs(float(cell) - ref) <= 2.0 * 1.0000006574105828e11 * 2**-53
    assert second[1] == "no-equilibrium"


def test_sweep_all_rows_infeasible_exits_two(capsys):
    assert main(["sweep", "--param", "lambda2",
                 "--from", "4.0", "--to", "5.0", "--steps", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_bad_range(capsys):
    assert main(["sweep", "--param", "delta0",
                 "--from", "5", "--to", "1", "--steps", "5"]) == 1


def test_sweep_to_file_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--param", "delta2", "--from", "1", "--to", "10",
            "--steps", "15"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _reference_sweep(base, parameter, start, stop, steps):
    """The sweep CSV as csv.writer printed it, with dataclasses.replace and
    each welfare index computed through the reinsurer's side."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(SWEEP_HEADER)
    for k in range(steps):
        value = start + (stop - start) * k / (steps - 1)
        params = replace(base, **{parameter: value})
        try:
            eq = solve(params)
        except NoEquilibrium:
            writer.writerow([f"{value:.12g}", "no-equilibrium"]
                            + [""] * (len(SWEEP_HEADER) - 2))
            continue
        indices = []
        for i in (1, 2):
            side = reinsurer_side(params, i)
            rate, _ = side.own_rival(eq.f1_rate, eq.f2_rate)
            indices.append(rate / (params.sigma ** 2 * params.delta0
                                   * side.own_delta))
        report = analytic_report(params, eq, parameter)
        writer.writerow([f"{x:.12g}" for x in (
            value, eq.theta_star.theta1, eq.theta_star.theta2,
            eq.p_star.p1, eq.p_star.p2, eq.f0_rate, *indices,
            report.d_theta1, report.d_theta2, report.d_p1, report.d_p2)])
    return buffer.getvalue()


def test_sweep_bytes_match_the_csv_writer(rng):
    # 60 seeded bases, one in four with lambda1 = 0, lambda2 = 0 or both;
    # the lambda ranges cross lambda1*lambda2 = 1 on many of them
    zeros = ((), ("lambda1",), ("lambda2",), ("lambda1", "lambda2"))
    infeasible = 0
    for k in range(60):
        base = replace(random_params(rng, max_product=4.0),
                       **{name: 0.0 for name in zeros[k % 4]})
        for spec in dict.fromkeys(FIGURE_SWEEPS.values()):
            text = stacknash.cli._render_sweep(base, *spec, 50)
            assert text == _reference_sweep(base, *spec, 50), (base, spec)
            infeasible += text.count("no-equilibrium")
    assert infeasible > 0


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_sweep_row_builds_at_most_six_sides(parameter, monkeypatch):
    # two in solve, two in its rates and two in the sensitivities; the
    # welfare indices read the solved rates without a side
    built = []
    original = stacknash.bestresponse.reinsurer_side

    def counted(params, i):
        built.append(i)
        return original(params, i)

    for name, module in list(sys.modules.items()):
        if name.startswith("stacknash") \
                and getattr(module, "reinsurer_side", None) is original:
            monkeypatch.setattr(module, "reinsurer_side", counted)
    value = getattr(DEFAULT_PARAMS, parameter)
    row = stacknash.cli._sweep_row(DEFAULT_PARAMS, parameter, value)
    assert "no-equilibrium" not in row
    assert 0 < len(built) <= 6


def test_internal_error_is_not_reported_as_bad_input(params_file,
                                                     monkeypatch):
    # exit 1 is for unreadable or invalid input; a defect keeps its traceback
    def broken_solve(params):
        raise NonpositiveInput("premium argument must be positive")

    monkeypatch.setattr(stacknash.cli, "solve", broken_solve)
    with pytest.raises(NonpositiveInput):
        main(["solve", "--params", str(params_file)])


def test_parser_is_built_once_and_keeps_no_state(params_file, tmp_path,
                                                 capsys):
    # one parser serves every call in a process: a sweep, a rejected option,
    # a solve and the same sweep again each exit as in a fresh process
    assert stacknash.cli.build_parser() is stacknash.cli.build_parser()
    sweep = ["sweep", "--param", "lambda1", "--from", "0.1", "--to", "0.9",
             "--steps", "7", "--params", str(params_file), "--out"]
    assert main(sweep + [str(tmp_path / "a.csv")]) == 0
    with pytest.raises(SystemExit) as bad:
        main(["sweep", "--param", "sigma", "--from", "1", "--to", "2"])
    assert bad.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["solve", "--params", str(params_file)]) == 0
    assert json.loads(capsys.readouterr().out)["theta1"] > 0.0
    assert main(sweep + [str(tmp_path / "b.csv")]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert len(_rows(first.decode())) == 7
    assert (tmp_path / "b.csv").read_bytes() == first


def test_command_is_looked_up_per_call(params_file, monkeypatch):
    # the shared parser holds no command function: a cmd_* replaced after it
    # was built (as a tracer wraps it) is the one that runs
    stacknash.cli.build_parser()
    calls = []
    monkeypatch.setattr(stacknash.cli, "cmd_solve",
                        lambda args: calls.append(args.params) or 0)
    assert main(["solve", "--params", str(params_file)]) == 0
    assert calls == [str(params_file)]


# -- figures ------------------------------------------------------------------

def test_figures_outputs(tmp_path):
    out = tmp_path / "figs"
    assert main(["figures", "--out", str(out), "--steps", "12"]) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == sorted(f"{name}.csv" for name in FIGURE_SWEEPS)
    for name, (parameter, _, _) in FIGURE_SWEEPS.items():
        digest = hashlib.sha256((out / f"{name}.csv").read_bytes())
        assert digest.hexdigest() == FIGURE_DIGESTS_STEPS_12[parameter], name

    rows = _rows((out / "fig_f_lambda1.csv").read_text())
    f1 = [float(r[6]) for r in rows]
    f2 = [float(r[7]) for r in rows]
    assert all(a < b for a, b in zip(f1, f1[1:]))
    assert all(a < b for a, b in zip(f2, f2[1:]))

    # rerun is byte-identical
    before = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert main(["figures", "--out", str(out), "--steps", "12"]) == 0
    after = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert before == after


def test_figures_steps_50_digests(tmp_path):
    assert main(["figures", "--out", str(tmp_path), "--steps", "50"]) == 0
    for name, (parameter, _, _) in FIGURE_SWEEPS.items():
        digest = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes())
        assert digest.hexdigest() == FIGURE_DIGESTS_STEPS_50[parameter], name


def test_figures_bad_steps_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "new" / "dir"
    assert main(["figures", "--out", str(out), "--steps", "1"]) == 1
    assert "steps must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_figures_render_each_distinct_sweep_once(tmp_path, monkeypatch):
    # the p, theta and f figures of one parameter share one sweep
    calls = []
    render = stacknash.cli._render_sweep

    def counted(*args):
        calls.append(args)
        return render(*args)

    monkeypatch.setattr(stacknash.cli, "_render_sweep", counted)
    assert main(["figures", "--out", str(tmp_path), "--steps", "3"]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == len(FIGURE_SWEEPS) == 12
    assert len(calls) == len(set(FIGURE_SWEEPS.values())) == 5


# -- verify -------------------------------------------------------------------

def test_verify_passes_and_reruns_identically(params_file, capsys):
    argv = ["verify", "--params", str(params_file),
            "--seed", "3", "--paths", "20000"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_tamper_fails(params_file, capsys, monkeypatch):
    real_solve = stacknash.cli.solve

    def tampered_solve(params):
        # inject a non-equilibrium candidate: shift theta1 off the fixed point
        eq = real_solve(params)
        theta = replace(eq.theta_star, theta1=eq.theta_star.theta1 + 0.1)
        return replace(eq, theta_star=theta,
                       p_star=insurer_response(params.delta0, theta),
                       residual=residual(params, theta))

    monkeypatch.setattr(stacknash.cli, "solve", tampered_solve)
    assert main(["verify", "--params", str(params_file),
                 "--seed", "3", "--paths", "20000"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert "fixed-point-residual" in failed


def test_verify_passes_at_large_scale(tmp_path, capsys):
    # an absolute fixed-point check of 1e-10 would fail this correct root,
    # and a loading grid of step 1e-3 would not fit in memory
    path = tmp_path / "large.json"
    path.write_text(json.dumps(LARGE_SCALE))
    assert main(["verify", "--params", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equilibrium"]["residual"] > 1e-10
    assert all(c["passed"] for c in payload["checks"])


def test_verify_no_equilibrium(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "delta0": 5.0, "delta1": 4.0, "delta2": 6.0,
        "lambda1": 2.0, "lambda2": 0.6,
    }))
    assert main(["verify", "--params", str(path)]) == 2


@pytest.mark.parametrize("option", [["--paths", "0"], ["--seed", "-1"]],
                         ids=["paths-0", "seed-negative"])
def test_verify_bad_simulation_option_is_input_error(params_file, option,
                                                     capsys, monkeypatch):
    # rejected before the equilibrium is solved
    def no_solve(params):
        raise AssertionError("solve called before the options were checked")

    monkeypatch.setattr(stacknash.cli, "solve", no_solve)
    assert main(["verify", "--params", str(params_file)] + option) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows
@pytest.mark.parametrize("horizon, failing", [
    (5.0, {"insurer-value-vs-gaussian", "mc-insurer",
           "no-improving-deviations"}),
    (2.5, {"mc-insurer"}),
], ids=["utility-overflows", "variance-overflows"])
def test_verify_past_the_float_range_gives_a_verdict(tmp_path, capsys,
                                                      horizon, failing):
    # the insurer's utility is -exp(e)/d0 with e near 993 at horizon 5, past
    # the float range, and near 496 at horizon 2.5, where the square of a
    # Monte Carlo deviation overflows. Its terminal utility is lognormal
    # with log-sd 8.9 and 6.3, which no feasible path count estimates, so
    # its Monte Carlo check fails at both; the value and deviation checks at
    # horizon 5 fail only because -inf - (-inf) is NaN. The verdict is
    # printed, and a check fails exactly where one of its numbers is not
    # finite
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "delta0": 200.0, "delta1": 4.0, "delta2": 6.0,
        "lambda1": 0.3, "lambda2": 0.7, "horizon": horizon,
    }))
    status = main(["verify", "--params", str(path), "--paths", "2000"])
    payload = json.loads(capsys.readouterr().out)
    assert (status, payload["passed"]) == (3, False)
    assert {c["name"] for c in payload["checks"] if not c["passed"]} == failing
    for check in payload["checks"]:
        numbers = [float(v) for v in re.findall(r"=(\S+)", check["detail"])]
        assert numbers
        assert check["passed"] is all(map(math.isfinite, numbers)), check


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon, failing", [
    (5.0, {"insurer-value-vs-gaussian", "mc-insurer",
           "no-improving-deviations"}),
    (2.5, {"mc-insurer"}),
], ids=["utility-overflows", "variance-overflows"])
@pytest.mark.parametrize("paths", [2_000, _CHUNK + 1],
                         ids=["one-chunk", "two-chunks"])
def test_verify_past_the_float_range_writes_no_numpy_warning(
        tmp_path, capsys, horizon, failing, paths):
    # the same verdict as above, with no RuntimeWarning (which this test
    # turns into an error) on stderr; past one chunk the non-finite sums
    # and squares go through the pairwise merge as well
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "delta0": 200.0, "delta1": 4.0, "delta2": 6.0,
        "lambda1": 0.3, "lambda2": 0.7, "horizon": horizon,
    }))
    status = main(["verify", "--params", str(path), "--paths", str(paths)])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert status == 3
    assert {c["name"] for c in payload["checks"] if not c["passed"]} == failing
    assert "Warning" not in captured.err
    assert all(line.startswith("[") for line in captured.err.splitlines())


def _assert_cli_import_leaves_unloaded(module):
    src = str(Path(stacknash.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c", "import sys, stacknash.cli; "
         f"assert {module!r} not in sys.modules, '{module} was imported'"],
        env={**os.environ, "PYTHONPATH": path}, check=True)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle; importing it would cost most of a CLI call
    _assert_cli_import_leaves_unloaded("scipy")


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves verify's Monte Carlo alone; solve, sweep and figures
    # would spend about half of a cold call importing it
    _assert_cli_import_leaves_unloaded("numpy")


def test_cli_import_leaves_csv_unloaded():
    # sweep rows are formatted by hand, one format string per line
    _assert_cli_import_leaves_unloaded("csv")


def test_solve_path_modules_do_not_import_numpy():
    # numpy serves the Monte Carlo only; the modules that solve, value and
    # differentiate the equilibrium are plain Python
    package = Path(stacknash.cli.__file__).parent
    for name in ("model", "bestresponse", "equilibrium", "sensitivity",
                 "valuation"):
        imported = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported, f"{name}.py imports numpy"
