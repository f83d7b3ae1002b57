"""The benchmark's workloads: seeded inputs, one op each, and the check of
each op's output against an independent reference.

Inputs are drawn in blocks from ``numpy.random.default_rng([seed, stream,
block])``, so input k depends only on the seed and k, never on how many ops
a run reaches. Files an op reads or writes live in the run's work directory.

Each check returns None for a passing op, or ``(kind, reason)``: kind
"flagged" when the program reported the failure itself (it raised, or exited
with an error code), "wrong" when it claimed success with a wrong answer or
the wrong exit code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import numpy as np

import gauge
import stacknash.cli
import stacknash.equilibrium
import stacknash.mcsim
from stacknash.model import ModelParams

#: Risk-process constants written into every parameter file, so that the
#: inputs are fully specified by the benchmark.
PROCESS_CONSTANTS = {"mu": 4.0, "sigma": 1.0, "c": 5.0, "horizon": 1.0,
                     "x0": 0.0, "x1": 0.0, "x2": 0.0}
SWEEP_HEADER = ("param", "theta1", "theta2", "p1", "p2", "f0_rate",
                "f1_idx", "f2_idx", "dtheta1", "dtheta2", "dp1", "dp2")
SWEEP_STEPS = 50
VERIFY_PATHS = 2_000_000
#: A correct Monte Carlo estimate lies this many standard errors from the
#: exact value with probability below 2e-9; the relative floor covers a
#: player whose terminal law has no variance.
MC_STD_ERRORS = 6.0
MC_RTOL = 1e-12
CHILD_TIMEOUT_S = 120


def _reference():
    """The reference imports mpmath, which is kept out of set-up and the
    timed loop; it is first needed by the checks."""
    import reference
    return reference


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _interior(rng, delta=(0.5, 20.0), lam=(0.02, 0.95)) -> dict:
    """Behavioral parameters well inside the existence region."""
    d0, d1, d2 = _log_uniform(rng, *delta, 3)
    l1, l2 = rng.uniform(*lam, 2)
    return {"delta0": float(d0), "delta1": float(d1), "delta2": float(d2),
            "lambda1": float(l1), "lambda2": float(l2), **PROCESS_CONSTANTS}


def _write_params(path: Path, params: dict) -> str:
    path.write_text(json.dumps(params))
    return str(path)


def _message_class(exc: BaseException) -> str:
    """The exception message up to its first number, e.g. 'no sign change of
    the fixed-point gap on'."""
    return re.split(r"[-+]?\d", str(exc), maxsplit=1)[0].strip(" [(:=")


def _raised(out) -> tuple[str, str] | None:
    if isinstance(out, tuple) and out and out[0] == "raised":
        return "flagged", f"{out[1]}: {out[2]}"
    return None


def _theta_error(name: str, got: float, want: float, rtol: float):
    """A loading outside the conditioning-scaled tolerance is a wrong answer."""
    err = abs(got - want) / abs(want)
    if not err <= rtol:  # also catches NaN
        return "wrong", f"{name} relative error {err:.2e} > {rtol:.2e}"
    return None


class PairStore:
    """Kept (theta1, theta2) pairs in one array allocated up front, so that
    memory does not grow with the op count; a raised op's record aside."""

    def __init__(self, capacity: int):
        self.values = array("d", bytes(16 * capacity))
        self.raised: dict[int, tuple] = {}
        self.n = 0

    def append(self, kept) -> None:
        if kept[0] == "raised":
            self.raised[self.n] = kept
        else:
            self.values[2 * self.n], self.values[2 * self.n + 1] = kept
        self.n += 1

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int):
        if not 0 <= k < self.n:
            raise IndexError(k)
        return self.raised.get(k) or (self.values[2 * k], self.values[2 * k + 1])

    def __iter__(self):
        return (self[k] for k in range(self.n))


class Workload:
    """A closed loop with one client: ``run`` is one op, and the next op
    starts when it returns."""

    name = ""
    block = 1
    min_ops = 0          # a run goes on past --seconds until it has this many
    max_ops = 1 << 30    # and stops here, which bounds the time of the checks
    #: Fixed per workload, so that runs and commits compare the same
    #: percentile; chosen so that a 15-second run at the seed commit keeps
    #: well over ten passing ops beyond it.
    tail_percentile = 50.0
    #: The speed gauge loop that follows this workload's kind of work.
    gauge_loop = gauge.INTERPRETER

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.traced = False
        self._stream = zlib.crc32(self.name.encode())
        self._blocks: dict[int, list] = {}

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self._stream, index])

    def input(self, k: int):
        b, i = divmod(k, self.block)
        if b not in self._blocks:
            self._blocks = {b: self.make_block(b)}
        return self._blocks[b][i]

    def make_block(self, b: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def store(self, capacity: int):
        """Where the kept results of up to ``capacity`` ops go."""
        return []

    def keep(self, out):
        """What is kept of an op's result for the check after the timed loop."""
        if isinstance(out, BaseException):
            return ("raised", type(out).__name__, _message_class(out))
        return out

    def check(self, k: int, inp, out):
        raise NotImplementedError


class SolveScatter(Workload):
    """One in-process solve(params) per op on independent draws across the
    whole valid domain: delta0..2 log-uniform in [1e-6, 1e8];
    eps = 1 - lambda1*lambda2 log-uniform in [1e-15, 1], split as
    lambda1 = sqrt(1-eps)*r, lambda2 = sqrt(1-eps)/r with r log-uniform in
    [1e-2, 1e2]; 10% with both lambdas 0 (closed form) and 15% with exactly
    one lambda 0, the other log-uniform in [1e-3, 1e3]. A draw is kept only
    if the package's float test lambda1*lambda2 < 1 passes."""

    name = "solve-scatter"
    block = 1024
    tail_percentile = 99.0
    max_ops = 200_000
    delta = (1e-6, 1e8)
    eps = (1e-15, 1.0)
    ratio = 1e2
    single = (1e-3, 1e3)

    def make_block(self, b):
        rng = self.rng(b)
        kept: list[ModelParams] = []
        while len(kept) < self.block:
            m = self.block
            d = _log_uniform(rng, *self.delta, (m, 3))
            kind = rng.random(m)
            eps = _log_uniform(rng, *self.eps, m)
            r = _log_uniform(rng, 1 / self.ratio, self.ratio, m)
            single = _log_uniform(rng, *self.single, m)
            first = rng.random(m) < 0.5
            for j in range(m):
                if kind[j] < 0.10:
                    l1 = l2 = 0.0
                elif kind[j] < 0.25:
                    l1, l2 = (float(single[j]), 0.0) if first[j] \
                        else (0.0, float(single[j]))
                else:
                    root = math.sqrt(1.0 - float(eps[j]))
                    l1, l2 = root * float(r[j]), root / float(r[j])
                if l1 * l2 < 1.0 and len(kept) < self.block:
                    kept.append(ModelParams(float(d[j, 0]), float(d[j, 1]),
                                            float(d[j, 2]), l1, l2))
        return kept

    def run(self, params):
        return stacknash.equilibrium.solve(params)

    def store(self, capacity):
        return PairStore(capacity)

    def keep(self, out):
        if isinstance(out, BaseException):
            return super().keep(out)
        return (out.theta_star.theta1, out.theta_star.theta2)

    def check(self, k, params, out):
        failure = _raised(out)
        if failure:
            return failure
        reference = _reference()
        fp = reference.fixed_point(params.delta0, params.delta1, params.delta2,
                                   params.lambda1, params.lambda2, start=out[0])
        rtol = reference.theta_tolerance(fp.kappa)
        return _theta_error("theta1", out[0], fp.theta1, rtol) \
            or _theta_error("theta2", out[1], fp.theta2, rtol)


class SolveInterior(SolveScatter):
    """One in-process solve(params) per op on independent draws from the
    part of the valid domain where the seed commit's solver meets the
    reference tolerance with a margin: delta0..2 log-uniform in [0.3, 100];
    eps = 1 - lambda1*lambda2 log-uniform in [1e-2, 1], split as
    lambda1 = sqrt(1-eps)*r, lambda2 = sqrt(1-eps)/r with r log-uniform in
    [1/3, 3]; 10% with both lambdas 0 (closed form) and 15% with exactly
    one lambda 0, the other log-uniform in [1e-2, 1e2]. Here the smallest
    loading stays above about 1.5e-3; over 30000 draws the seed commit's
    largest relative error was 0.13 of the reference tolerance."""

    name = "solve-interior"
    tail_percentile = 95.0
    delta = (0.3, 100.0)
    eps = (1e-2, 1.0)
    ratio = 3.0
    single = (1e-2, 1e2)


class SweepFigures(Workload):
    """One in-process ``cli.main(["sweep", ...])`` per op, cycling through
    the 12 (param, from, to) specs of cli.FIGURE_SWEEPS (5 distinct) with
    --steps 50 on a seeded interior base-parameter file; a new base every
    12 ops. Bases: delta0..2 log-uniform in [0.5, 20], lambda1, lambda2
    uniform in [0.02, 0.95]."""

    name = "sweep-figures"
    block = 12
    tail_percentile = 95.0
    max_ops = 4_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._specs = list(stacknash.cli.FIGURE_SWEEPS.values())
        self._reference_base = -1
        self._reference: dict[tuple, list] = {}  # distinct sweeps of one base

    def make_block(self, b):
        base = _interior(self.rng(b))
        path = _write_params(self.workdir / f"base{b}.json", base)
        ops = []
        for i, (param, start, stop) in enumerate(self._specs):
            out = str(self.workdir / f"sweep{b * self.block + i}.csv")
            argv = ["sweep", "--param", param, "--from", repr(start),
                    "--to", repr(stop), "--steps", str(SWEEP_STEPS),
                    "--params", path, "--out", out]
            ops.append((b, base, param, start, stop, argv, out))
        return ops

    def run(self, inp):
        return stacknash.cli.main(inp[5])

    def check(self, k, inp, rc):
        failure = _raised(rc)
        if failure:
            return failure
        if rc != 0:
            return "flagged", f"exit {rc}"
        b, base, param, start, stop, _, out = inp
        reference = _reference()
        path = Path(out)
        rows = list(csv.reader(path.read_text().splitlines()))
        path.unlink()
        if tuple(rows[0]) != SWEEP_HEADER or len(rows) != SWEEP_STEPS + 1:
            return "wrong", "CSV header or row count"
        if b != self._reference_base:
            self._reference_base, self._reference = b, {}
        refs = self._reference.setdefault((param, start, stop),
                                          [None] * SWEEP_STEPS)
        for j, row in enumerate(rows[1:]):
            value = start + (stop - start) * j / (SWEEP_STEPS - 1)
            if abs(float(row[0]) - value) > reference.CSV_PRINT_RTOL * abs(value):
                return "wrong", f"row {j}: grid value {row[0]}"
            if row[1] == "no-equilibrium":
                return "wrong", f"row {j}: no-equilibrium inside the existence region"
            if refs[j] is None:
                params = dict(base, **{param: value})
                fp = reference.fixed_point(
                    params["delta0"], params["delta1"], params["delta2"],
                    params["lambda1"], params["lambda2"], start=float(row[1]))
                refs[j] = fp, reference.sweep_row(params, param, fp)
            fp, ref = refs[j]
            got = dict(zip(SWEEP_HEADER, map(float, row)))
            rtol = reference.theta_tolerance(fp.kappa) + reference.CSV_PRINT_RTOL
            failure = _theta_error("theta1", got["theta1"], fp.theta1, rtol) \
                or _theta_error("theta2", got["theta2"], fp.theta2, rtol)
            if failure:
                return failure[0], f"row {j}: {failure[1]}"
            for column, want in ref.values.items():
                allowed = reference.COLUMN_RTOL * abs(want) \
                    + reference.COLUMN_TERM_RTOL * ref.scales[column]
                if not abs(got[column] - want) <= allowed:
                    return "wrong", f"row {j}: {column} {got[column]!r} vs {want!r}"
        return None


class VerifyMC(Workload):
    """One in-process ``cli.main(["verify", ...])`` per op with --paths
    2000000 and a seeded --seed, on a seeded interior parameter file:
    delta0..2 log-uniform in [2, 8], lambda1, lambda2 uniform in
    [0.05, 0.9]."""

    name = "verify-mc"
    block = 8
    tail_percentile = 75.0
    max_ops = 2_000
    gauge_loop = gauge.ARRAY

    def make_block(self, b):
        rng = self.rng(b)
        ops = []
        for i in range(self.block):
            k = b * self.block + i
            path = _write_params(self.workdir / f"verify{k}.json",
                                 _interior(rng, (2.0, 8.0), (0.05, 0.9)))
            seed = int(rng.integers(2 ** 31))
            ops.append(["verify", "--params", path, "--seed", str(seed),
                        "--paths", str(VERIFY_PATHS)])
        return ops

    def run(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = stacknash.cli.main(argv)
        return rc, stdout.getvalue()

    def check(self, k, argv, out):
        failure = _raised(out)
        if failure:
            return failure
        rc, stdout = out
        report = json.loads(stdout) if stdout.strip() else {}
        passed = report.get("passed")
        if rc == 0 and passed is True:
            return None
        if rc == 0 or passed is True:
            return "wrong", f"exit {rc} with passed={passed}"
        failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return "flagged", f"exit {rc}: {', '.join(failing)}"


class McSim(Workload):
    """One in-process solve, ``mcsim.simulate_utilities`` with 2000000
    paths and a seeded Philox key, and ``mcsim.deviation_test`` at grid step
    1e-3 per op, on seeded interior parameters: delta0..2 log-uniform in
    [2, 8], lambda1, lambda2 uniform in [0.05, 0.9]. The layers of
    verify-mc without its 3-standard-error verdict."""

    name = "mc-sim"
    block = 8
    tail_percentile = 75.0
    max_ops = 2_000
    gauge_loop = gauge.ARRAY

    def make_block(self, b):
        rng = self.rng(b)
        ops = []
        for _ in range(self.block):
            params = _interior(rng, (2.0, 8.0), (0.05, 0.9))
            ops.append((params, int(rng.integers(2 ** 31))))
        return ops

    def run(self, inp):
        params, seed = inp
        model = ModelParams(**params)
        eq = stacknash.equilibrium.solve(model)
        reports = stacknash.mcsim.simulate_utilities(
            model, eq.theta_star, eq.p_star,
            stacknash.mcsim.SimConfig(paths=VERIFY_PATHS, seed=seed))
        deviations = stacknash.mcsim.deviation_test(model, eq, grid_step=1e-3)
        return eq, reports, deviations

    def keep(self, out):
        if isinstance(out, BaseException):
            return super().keep(out)
        eq, reports, deviations = out
        return ((eq.theta_star.theta1, eq.theta_star.theta2),
                {k: (r.estimate, r.std_error) for k, r in reports.items()},
                deviations.improving_deviations)

    def check(self, k, inp, out):
        failure = _raised(out)
        if failure:
            return failure
        params, _ = inp
        (t1, t2), estimates, improving = out
        reference = _reference()
        fp = reference.fixed_point(params["delta0"], params["delta1"],
                                   params["delta2"], params["lambda1"],
                                   params["lambda2"], start=t1)
        rtol = reference.theta_tolerance(fp.kappa)
        failure = _theta_error("theta1", t1, fp.theta1, rtol) \
            or _theta_error("theta2", t2, fp.theta2, rtol)
        if failure:
            return failure
        for player, want in reference.expected_utilities(params, fp).items():
            got, std_error = estimates[player]
            allowed = MC_STD_ERRORS * std_error + MC_RTOL * abs(want)
            if not abs(got - want) <= allowed:
                return "wrong", (f"{player} estimate {got!r} vs {want!r}, "
                                 f"beyond {MC_STD_ERRORS} standard errors")
        if improving != 0:
            return "wrong", f"{improving} improving deviations at the equilibrium"
        return None


class CliCold(Workload):
    """One fresh ``python -m stacknash.cli solve --params <file>`` subprocess
    per op, at most one alive at a time. 80% of the files are interior
    (delta0..2 log-uniform in [0.5, 20], lambda1, lambda2 uniform in
    [0.02, 0.95]) and expect exit 0; 20% have lambda1*lambda2 >= 1
    (lambda1 log-uniform in [1, 4], product uniform in [1, 3]) and expect
    exit 2."""

    name = "cli-cold"
    block = 8
    min_ops = 24  # so that op_tail_ms has ten samples beyond p50

    def make_block(self, b):
        rng = self.rng(b)
        ops = []
        for i in range(self.block):
            k = b * self.block + i
            params = _interior(rng)
            solvable = rng.random() >= 0.2
            while not solvable and params["lambda1"] * params["lambda2"] < 1.0:
                params["lambda1"] = float(_log_uniform(rng, 1.0, 4.0))
                params["lambda2"] = float(rng.uniform(1.0, 3.0)) / params["lambda1"]
            path = _write_params(self.workdir / f"cli{k}.json", params)
            ops.append((k, params, solvable, path))
        return ops

    def command(self, k: int, path: str) -> list[str]:
        if self.traced:
            child = Path(__file__).with_name("tracechild.py")
            spans = self.workdir / f"spans{k}.json"
            return [sys.executable, str(child), str(spans),
                    "solve", "--params", path]
        return [sys.executable, "-m", "stacknash.cli", "solve", "--params", path]

    def run(self, inp):
        k, _, _, path = inp
        proc = subprocess.run(self.command(k, path), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def check(self, k, inp, out):
        failure = _raised(out)
        if failure:
            return failure
        _, params, solvable, _ = inp
        rc, stdout = out
        if not solvable:
            if rc == 2 and "error" in json.loads(stdout or "{}"):
                return None
            return ("flagged" if rc not in (0, 2) else "wrong"), f"exit {rc}, expected 2"
        if rc != 0:
            return ("flagged" if rc != 2 else "wrong"), f"exit {rc}, expected 0"
        payload = json.loads(stdout)
        reference = _reference()
        fp = reference.fixed_point(params["delta0"], params["delta1"],
                                   params["delta2"], params["lambda1"],
                                   params["lambda2"], start=payload["theta1"])
        rtol = reference.theta_tolerance(fp.kappa)
        return _theta_error("theta1", payload["theta1"], fp.theta1, rtol) \
            or _theta_error("theta2", payload["theta2"], fp.theta2, rtol)


WORKLOADS = {w.name: w for w in (CliCold, McSim, SolveInterior, SolveScatter,
                                 SweepFigures, VerifyMC)}
