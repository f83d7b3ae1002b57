"""Command-line front end: solve, sweep, verify, figures.

All structured output is JSON or RFC-4180 CSV and is a deterministic function
of the inputs (and the seed, where applicable). Numbers in CSV output carry
12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import sensitivity, valuation
from .bestresponse import reinsurer_side
from .equilibrium import NoEquilibrium, relative_residual, solve
from .model import (DEFAULT_PARAMS, Equilibrium, InvalidParams, ModelParams,
                    params_from_json, validate)

SWEEP_HEADER = ("param", "theta1", "theta2", "p1", "p2", "f0_rate",
                "f1_idx", "f2_idx", "dtheta1", "dtheta2", "dp1", "dp2")

# One format per CSV line. %.12g never prints a comma, a quote or a line
# break, so these are the bytes an RFC-4180 writer would give, CRLF included.
_HEADER_LINE = ",".join(SWEEP_HEADER) + "\r\n"
_ROW_FORMAT = ",".join(["%.12g"] * len(SWEEP_HEADER)) + "\r\n"
_NO_EQUILIBRIUM_FORMAT = ("%.12g,no-equilibrium"
                          + "," * (len(SWEEP_HEADER) - 2) + "\r\n")

#: Figure name -> (swept parameter, range). Ranges span the default parameters
#: with margin; lambda ranges stay clear of the existence boundary.
FIGURE_SWEEPS = {
    "fig_p_delta0": ("delta0", 1.0, 10.0),
    "fig_p_delta1": ("delta1", 1.0, 10.0),
    "fig_p_delta2": ("delta2", 1.0, 10.0),
    "fig_p_lambda1": ("lambda1", 0.02, 0.98),
    "fig_p_lambda2": ("lambda2", 0.02, 0.98),
    "fig_theta_delta0": ("delta0", 1.0, 10.0),
    "fig_theta_delta1": ("delta1", 1.0, 10.0),
    "fig_theta_delta2": ("delta2", 1.0, 10.0),
    "fig_theta_lambda1": ("lambda1", 0.02, 0.98),
    "fig_theta_lambda2": ("lambda2", 0.02, 0.98),
    "fig_f_lambda1": ("lambda1", 0.02, 0.98),
    "fig_f_lambda2": ("lambda2", 0.02, 0.98),
}


def _load_params(path: str) -> ModelParams:
    try:
        params = params_from_json(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or fields
        raise InvalidParams((str(exc),)) from exc
    result = validate(params)
    if not result.ok:
        raise InvalidParams(result.errors)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return params


def _equilibrium_payload(eq: Equilibrium) -> dict:
    return {
        "theta1": eq.theta_star.theta1,
        "theta2": eq.theta_star.theta2,
        "p1": eq.p_star.p1,
        "p2": eq.p_star.p2,
        "residual": eq.residual,
        "f0_rate": eq.f0_rate,
        "f1_rate": eq.f1_rate,
        "f2_rate": eq.f2_rate,
        "iterations": eq.iterations,
    }


def cmd_solve(args) -> int:
    params = _load_params(args.params)
    try:
        eq = solve(params)
    except NoEquilibrium as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    print(json.dumps(_equilibrium_payload(eq)))
    return 0


def _sweep_row(base: ModelParams, parameter: str, value: float) -> str:
    params = ModelParams(**{**vars(base), parameter: value})
    try:
        eq = solve(params)
    except NoEquilibrium:
        return _NO_EQUILIBRIUM_FORMAT % value
    report = sensitivity.analytic_report(params, eq, parameter)
    return _ROW_FORMAT % (
        value, eq.theta_star.theta1, eq.theta_star.theta2,
        eq.p_star.p1, eq.p_star.p2, eq.f0_rate,
        valuation.welfare_index(params, eq, 1),
        valuation.welfare_index(params, eq, 2),
        report.d_theta1, report.d_theta2, report.d_p1, report.d_p2,
    )


def _render_sweep(base: ModelParams, parameter: str, start: float,
                  stop: float, steps: int) -> str:
    if steps < 2:
        raise InvalidParams(("steps must be at least 2",))
    if not start < stop:
        raise InvalidParams(("sweep range must satisfy from < to",))
    values = [start + (stop - start) * k / (steps - 1) for k in range(steps)]
    return _HEADER_LINE + "".join([_sweep_row(base, parameter, v)
                                   for v in values])


def cmd_sweep(args) -> int:
    base = _load_params(args.params) if args.params else DEFAULT_PARAMS
    text = _render_sweep(base, args.param, args.start, args.stop, args.steps)
    body = text.splitlines()[1:]
    if all(line.split(",")[1] == "no-equilibrium" for line in body):
        print("error: no grid point admits an equilibrium", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_figures(args) -> int:
    # render first: a rejected --steps leaves no directory behind
    texts = {spec: _render_sweep(DEFAULT_PARAMS, *spec, args.steps)
             for spec in dict.fromkeys(FIGURE_SWEEPS.values())}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, spec in FIGURE_SWEEPS.items():
        (out_dir / f"{name}.csv").write_text(texts[spec])
    return 0


def _verify_checks(params: ModelParams, eq: Equilibrium, config) -> list[dict]:
    from . import mcsim  # numpy: only verify loads the Monte Carlo layer
    checks = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    defect = relative_residual(params, eq.theta_star)
    add("fixed-point-residual", defect <= 1e-10,
        f"relative_residual={defect:.3e}")

    gap = valuation.premium_identity_gap(params, eq.theta_star)
    add("value-rate-identity", abs(gap) <= 1e-12, f"gap={gap:.3e}")

    closed = {"insurer": valuation.value_insurer(params, eq, 0.0, params.x0)}
    oracle = mcsim.gaussian_utility_insurer(params, eq.theta_star, eq.p_star)
    rel = abs(closed["insurer"] - oracle) / abs(oracle)
    add("insurer-value-vs-gaussian", rel <= 1e-12, f"rel={rel:.3e}")

    for i in (1, 2):
        y = reinsurer_side(params, i).y0
        value = valuation.value_reinsurer(params, eq, i, 0.0, y)
        closed[f"reinsurer{i}"] = value
        oracle = mcsim.gaussian_utility_reinsurer(params, eq.theta_star, i)
        rel = abs(value - oracle) / abs(oracle)
        add(f"reinsurer{i}-value-vs-gaussian", rel <= 1e-8, f"rel={rel:.3e}")

    reports = mcsim.simulate_utilities(params, eq.theta_star, eq.p_star, config)
    for player, report in reports.items():
        err = abs(report.estimate - closed[player])
        bound = 3.0 * report.std_error
        add(f"mc-{player}", err <= bound < float("inf"),
            f"err={err:.3e} bound={bound:.3e}")

    deviations = mcsim.deviation_test(params, eq, grid_step=1e-3)
    add("no-improving-deviations", deviations.improving_deviations == 0,
        f"worst_margin={deviations.worst_margin:.3e}")

    return checks


def cmd_verify(args) -> int:
    from .mcsim import SimConfig  # numpy, as in _verify_checks
    params = _load_params(args.params)
    config = SimConfig(paths=args.paths, seed=args.seed)
    try:
        eq = solve(params)
    except NoEquilibrium as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = _verify_checks(params, eq, config)
    passed = all(c["passed"] for c in checks)
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps({
        "params": json.loads(Path(args.params).read_text()),
        "seed": args.seed,
        "paths": args.paths,
        "equilibrium": _equilibrium_payload(eq),
        "checks": checks,
        "passed": passed,
    }))
    return 0 if passed else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacknash",
        description="Equilibrium engine for the two-layer reinsurance "
                    "contracting and competition game.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the equilibrium for a parameter file")
    p_solve.add_argument("--params", required=True, help="JSON parameter file")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit CSV")
    p_sweep.add_argument("--param", required=True, choices=sensitivity.PARAMETERS)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=50)
    p_sweep.add_argument("--params", help="JSON parameter file (default: built-in)")
    p_sweep.add_argument("--out", help="output CSV path (default: stdout)")

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--params", required=True)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--paths", type=int, default=100_000)

    p_figures = sub.add_parser("figures", help="emit every figure dataset as CSV")
    p_figures.add_argument("--out", required=True, help="output directory")
    p_figures.add_argument("--steps", type=int, default=50)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; unreadable or invalid input exits with status 1.
    The parser is built once per process; the command is looked up per call."""
    args = build_parser().parse_args(argv)
    command = {"solve": cmd_solve, "sweep": cmd_sweep, "verify": cmd_verify,
               "figures": cmd_figures}[args.command]
    try:
        return command(args)
    except (OSError, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
