import ast
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import stacknash.cli
from stacknash import (DEFAULT_PARAMS, NonpositiveInput, insurer_response,
                       params_to_json, residual)
from stacknash.cli import FIGURE_SWEEPS, SWEEP_HEADER, main
from stacknash.mcsim import _CHUNK

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


def test_sweep_next_to_boundary_leaves_sensitivities_empty(capsys):
    # at lambda1*lambda2 = 1 - 1e-11 the implicit-function denominator
    # 1 - phi1'*phi2' is 1e-11: the row keeps its equilibrium, rate and
    # welfare columns and leaves the four sensitivity cells empty
    assert main(["sweep", "--param", "lambda2", "--from", "3.3333333333",
                 "--to", "3.34", "--steps", "2"]) == 0
    first, second = _rows(capsys.readouterr().out)
    assert "" not in first[:8]
    assert first[8:] == ["", "", "", ""]
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


def test_internal_error_is_not_reported_as_bad_input(params_file,
                                                     monkeypatch):
    # exit 1 is for unreadable or invalid input; a defect keeps its traceback
    def broken_solve(params):
        raise NonpositiveInput("premium argument must be positive")

    monkeypatch.setattr(stacknash.cli, "solve", broken_solve)
    with pytest.raises(NonpositiveInput):
        main(["solve", "--params", str(params_file)])


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle; importing it would cost most of a CLI call
    src = str(Path(stacknash.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c", "import sys, stacknash.cli; "
         "assert 'scipy' not in sys.modules, 'scipy was imported'"],
        env={**os.environ, "PYTHONPATH": path}, check=True)


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
