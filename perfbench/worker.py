"""One run of one workload, in its own process; started by run.py.

Usage: python perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 [--probe]

Imports stacknash from ./src, draws the first block of inputs, and notes
the CLOCK_MONOTONIC time at which it is ready; with --probe it stops there.
Otherwise it runs the closed loop for S seconds, checks every op's output
after the loop, and prints one JSON line of figures for run.py. With
--trace 1 the first third of the time runs untraced and the rest traced,
and the figures are the per-layer ones.
"""

import argparse
import json
import math
import multiprocessing
import os
import resource
import shutil
import sys
import time
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import gauge

UNTRACED_SHARE = 1 / 3          # of a traced run, measured without wrappers
TAIL_BEYOND = 10                # passing ops a tail must have beyond it
CHECK_PROCESSES = 2             # checks run after the timed loop, so they may share the CPUs


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def goodput(latency_ns, passed: list[bool]) -> float:
    """Passing ops per second of timed op time."""
    return sum(passed) / (sum(latency_ns) * 1e-9)


def end_to_end(latency_ns, passed: list[bool],
               tail_percentile: float) -> tuple[dict, dict]:
    """Goodput and latency figures of a run. A failed op counts as
    infinitely slow in the median; the tail is taken over passing ops and
    left out when fewer than TAIL_BEYOND of them lie beyond it."""
    good = sorted(t for t, ok in zip(latency_ns, passed) if ok)
    p50 = percentile(sorted(t if ok else math.inf
                            for t, ok in zip(latency_ns, passed)), 50)
    if math.isinf(p50):
        raise RuntimeError("more than half of the ops failed; "
                           "op_p50_ms is unbounded")
    metrics = {
        "ops_per_s": goodput(latency_ns, passed),
        "op_p50_ms": p50 * 1e-6,
    }
    beyond = len(good) - math.ceil(tail_percentile / 100 * len(good))
    if beyond >= TAIL_BEYOND:
        metrics["op_tail_ms"] = percentile(good, tail_percentile) * 1e-6
    detail = {"fail_ratio": 1 - len(good) / len(latency_ns),
              "op_tail": {"percentile": tail_percentile,
                          "passing_ops": len(good), "beyond": beyond}}
    return metrics, detail


def measure(workload, first: int, seconds: float, min_ops: int = 0,
            recorder=None):
    """The closed loop: ops from index ``first`` for ``seconds``, and on to
    ``min_ops`` ops, stopping at the workload's max_ops. Between ops, outside
    their timing, the speed gauge takes a sample every gauge.PERIOD_NS.

    Returns the raw latencies in ns, the kept outputs, the latencies scaled
    to the gauge's reference speed, and the gauge. The latency arrays and the output
    store are allocated for max_ops up front, so the worker's memory does not
    grow with the number of ops a run reaches."""
    capacity = workload.max_ops - first
    latency = array("q", bytes(8 * capacity))
    sample_of_op = array("q", bytes(8 * capacity))
    outputs = workload.store(capacity)
    speed = gauge.Gauge(workload.gauge_loop)
    clock = time.perf_counter_ns
    deadline = time.monotonic() + seconds
    speed.take()
    n = 0
    while n < capacity and (time.monotonic() < deadline or n < min_ops):
        inp = workload.input(first + n)
        if recorder is not None:
            recorder.current_op = first + n
        t0 = clock()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a raised op is a failed op; check() says why
            out = exc
        t1 = clock()
        latency[n] = t1 - t0
        outputs.append(workload.keep(out))
        if speed.due(t1):
            speed.take()
        sample_of_op[n] = len(speed.at) - 1
        n += 1
    latency = latency[:n]
    return latency, outputs, speed.scale(latency, sample_of_op[:n]), speed


def _check_range(workload, outputs: list, first: int) -> list:
    return [workload.check(k, workload.input(k), out)
            for k, out in enumerate(outputs, first)]


def check_all(workload, outputs) -> tuple[list[bool], Counter]:
    """Every op's verdict, computed after the timed loop in CHECK_PROCESSES
    worker processes, each over a contiguous range of ops."""
    kept = list(outputs)
    n = len(kept)
    cuts = [n * i // CHECK_PROCESSES for i in range(CHECK_PROCESSES + 1)]
    with ProcessPoolExecutor(CHECK_PROCESSES,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        parts = [pool.submit(_check_range, workload, kept[lo:hi], lo)
                 for lo, hi in zip(cuts, cuts[1:])]
        verdicts = [v for part in parts for v in part.result()]
    passed, reasons = [], Counter()
    for verdict in verdicts:
        passed.append(verdict is None)
        if verdict is not None:
            reasons[verdict] += 1
    return passed, reasons


def peak_rss_mb() -> float:
    """ru_maxrss of this process and of its largest child, in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def traced_run(workload, seconds: float, root: Path):
    """An untraced then a traced phase; returns the scaled latencies and the
    outputs of both, the index where tracing began, and the per-layer
    metrics."""
    import tracing

    _, out1, lat1, _ = measure(workload, 0, seconds * UNTRACED_SHARE)
    recorder = tracing.Recorder()
    restore = tracing.instrument(recorder)
    workload.traced = True
    try:
        raw2, out2, lat2, _ = measure(workload, len(lat1),
                                      seconds * (1 - UNTRACED_SHARE),
                                      recorder=recorder)
    finally:
        restore()
        workload.traced = False
    for k in range(len(lat1), len(lat1) + len(lat2)):
        spans = workload.workdir / f"spans{k}.json"
        if spans.exists():  # written by a traced CLI child
            dump = json.loads(spans.read_text())
            dump["op"] = [k] * len(dump["op"])
            recorder.extend(dump)
    recorder.write(root / "perfbench" / ".out" / f"spans-{workload.name}.csv.gz")
    # Spans are raw times, so their shares are of the raw op time.
    metrics = tracing.layer_metrics(recorder, len(lat2), sum(raw2))
    return lat1 + lat2, list(out1) + list(out2), len(lat1), metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    # stacknash first, so that its import pulls in numpy as a user's would.
    import stacknash
    import stacknash.cli
    if Path(stacknash.__file__).resolve().parent != (root / "src" / "stacknash").resolve():
        raise SystemExit(f"stacknash imported from {stacknash.__file__}, "
                         f"not from {root / 'src'}")
    from workloads import WORKLOADS

    workdir = root / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.input(0)
        ready = time.monotonic()
        if args.probe:
            print(json.dumps({"ready": ready}))
            return 0
        if args.trace:
            latency, outputs, split, metrics = traced_run(
                workload, args.seconds, root)
        else:
            raw, outputs, latency, speed = measure(
                workload, 0, args.seconds, min_ops=workload.min_ops)
            rss = peak_rss_mb()
        passed, reasons = check_all(workload, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"ops": len(latency),
              "failures": {f"{kind}: {why}": n for (kind, why), n
                           in reasons.most_common()}}
    if args.trace:
        metrics["trace.overhead_ratio"] = goodput(latency[:split], passed[:split]) \
            / goodput(latency[split:], passed[split:])
    else:
        metrics, extra = end_to_end(latency, passed, workload.tail_percentile)
        metrics["peak_rss_mb"] = rss
        unscaled, _ = end_to_end(raw, passed, workload.tail_percentile)
        detail.update(extra, timed_s=sum(raw) * 1e-9, unscaled=unscaled,
                      gauge={"speed": speed.speed(), "samples": len(speed.ns)})
    print(json.dumps({
        "ready": ready,
        "attempted": len(latency),
        "failed": len(latency) - sum(passed),
        "wrong": sum(n for (kind, _), n in reasons.items() if kind == "wrong"),
        "metrics": metrics,
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
