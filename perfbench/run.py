"""The stacknash benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see perfbench/README.md): solve-interior, sweep-figures and
mc-sim, which BENCHMARK.json lists, and solve-scatter, verify-mc and
cli-cold, which it does not. Each run is one worker process with one thread,
driving a closed loop with one client; the program gets only the inputs
drawn from the seed. With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics, timings scaled to the reference
speed of gauge.py; with --trace 1 it holds the per-layer metrics of a traced
run. The line before it holds the run's metadata, the unscaled figures and
the breakdown of failed ops.

This file uses only the standard library, so that its own start-up stays
out of what it measures.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tomllib
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import gauge

WORKLOADS = ("cli-cold", "mc-sim", "solve-interior", "solve-scatter",
             "sweep-figures", "verify-mc")
DEFAULT_SEED = 1

SETUP_PROBES = 5      # set-ups per run; setup_s is their median
GAUGE_SAMPLES = 5     # gauge samples before and after each set-up
IMPORT_PROBES = 3
RUN_LIMIT_S = 170     # a run is stopped past this, well inside 180 s
PERFBENCH = Path(__file__).resolve().parent


def worker_env(root: Path) -> dict:
    """The default serial path: no STACKNASH_THREADS, one BLAS thread. No
    bytecode is written, so every import compiles stacknash from source, as
    in a fresh checkout, and nothing is written outside the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "STACKNASH_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(root / "src")] + ([env["PYTHONPATH"]]
                                          if env.get("PYTHONPATH") else [])))
    return env


def spawn(argv: list[str], env: dict, timeout: float,
          stderr=None) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child to completion; returns its CLOCK_MONOTONIC start time."""
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}\n"
                           f"{proc.stderr or ''}")
    return started, proc


def gauge_ns() -> float:
    """The speed gauge read in this process: the median of GAUGE_SAMPLES."""
    return statistics.median(gauge.sample() for _ in range(GAUGE_SAMPLES))


def parse_importtime(text: str) -> dict[str, float]:
    """Import costs from ``python -X importtime -c 'import stacknash'``:
    the cumulative time of stacknash, of the outermost numpy and scipy
    imports, and the self time of stacknash's own modules, in ms."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
    # Rows come children first; a row's parent is the next row at lower depth.
    parents = [None] * len(rows)
    pending: list[int] = []
    for i, (_, _, depth, _) in enumerate(rows):
        while pending and rows[pending[-1]][2] > depth:
            parents[pending.pop()] = i
        pending.append(i)

    def package(name):
        return name.split(".")[0]

    def outermost_cumulative(pkg):
        total = 0
        for i, (_, cumulative, _, name) in enumerate(rows):
            p = parents[i]
            while p is not None and package(rows[p][3]) != pkg:
                p = parents[p]
            if package(name) == pkg and p is None:
                total += cumulative
        return total

    return {
        "import.total_ms": sum(c for _, c, _, n in rows if n == "stacknash") / 1e3,
        "import.scipy_ms": outermost_cumulative("scipy") / 1e3,
        "import.numpy_ms": outermost_cumulative("numpy") / 1e3,
        "import.stacknash_self_ms":
            sum(s for s, _, _, n in rows if package(n) == "stacknash") / 1e3,
    }


def import_metrics(env: dict) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_PROBES):
        _, proc = spawn([sys.executable, "-X", "importtime", "-c",
                         "import stacknash"], env, 60, stderr=subprocess.PIPE)
        samples.append(parse_importtime(proc.stderr))
    bare = []
    for _ in range(IMPORT_PROBES):
        started, _ = spawn([sys.executable, "-c", "pass"], env, 60)
        bare.append((time.monotonic() - started) * 1e3)
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["proc.bare_start_ms"] = statistics.median(bare)
    return metrics


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def package_version(name: str) -> str | None:
    try:
        return version(name)
    except PackageNotFoundError:
        return None


def metadata(root: Path, args, ops: int) -> dict:
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": ops,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": package_version("numpy"), "scipy": package_version("scipy"),
        "git_sha": git_sha(root),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (root / "src").rglob("*.py")),
        "runtime_dependencies": len(project.get("dependencies", [])),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "stacknash" / "__init__.py").is_file():
        print("error: run from the root of a stacknash checkout "
              "(src/stacknash not found)", file=sys.stderr)
        return 2
    begun = time.monotonic()
    env = worker_env(root)
    worker = [sys.executable, str(PERFBENCH / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    setups, scaled, layer_extra = [], [], {}
    if args.trace:
        layer_extra = import_metrics(env)
    else:
        for _ in range(SETUP_PROBES):
            before = gauge_ns()
            started, proc = spawn(worker + ["--probe"], env, 60)
            setup = json.loads(proc.stdout)["ready"] - started
            setups.append(setup)
            scaled.append(setup * gauge.INTERPRETER.reference_ns
                          / statistics.fmean([before, gauge_ns()]))
    _, proc = spawn(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, RUN_LIMIT_S - (time.monotonic() - begun))
    result = json.loads(proc.stdout.splitlines()[-1])

    values = dict(result["metrics"], **layer_extra)
    detail = dict(result["detail"], **metadata(root, args, result["attempted"]))
    if not args.trace:
        values["setup_s"] = statistics.median(scaled)
        detail["unscaled"]["setup_s"] = statistics.median(setups)
        detail["setup_samples_s"] = setups
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
