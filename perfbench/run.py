#!/usr/bin/env python3
"""Closed-loop benchmark of `d0res analyze`, end to end and per layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  One client in one process and one thread sends each request of the
workload (see workloads.py) through `d0res.cli.main(["analyze", ...])`,
waits for the report, checks it, and sends the next.  A pass visits every
request once, in an order drawn from the seed; passes repeat until
`--seconds` have elapsed and the workload's minimum pass count is reached
(an untraced run then stops even within a pass).
Every time is scaled to a reference host speed sampled while the call runs
(hostspeed.py), so that the shared host's drifting speed cancels and the
program's own speed remains.

`--trace 0` reports the end-to-end metrics; `--trace 1` first runs a
quarter of the time untraced, then installs the span wrappers (tracing.py)
and reports the per-layer metrics, with the traced/untraced pass-time ratio
as `trace.overhead_ratio`.  Metric names and units come from BENCHMARK.json.
The last line of standard output is the JSON result; the full result with
the environment stamp goes to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import hostspeed
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
TAIL_PERCENTILE = 90
SETUP_RUNS = 9


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Import `d0res.cli` and `d0res.kernels` from `root/src` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "d0res" / "__init__.py").is_file():
        raise ProgramMissing(f"no d0res sources under {src}")
    sys.path.insert(0, str(src))
    from d0res import cli, kernels

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"d0res imported from {cli.__file__}, not {src}")
    return cli, kernels


def stamp(kernels, workload: str, seed: int, trace: int) -> dict:
    """What two results must share before they may be compared."""
    return {
        "implementation": kernels.IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# -- the closed loop -------------------------------------------------------------------


def call(cli, req):
    """One in-process `analyze` call: (exit code or None if it raised,
    report bytes)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    saved = sys.stdout, sys.stdin
    sys.stdout = out
    if req.stdin is not None:
        sys.stdin = io.StringIO(req.stdin)
    try:
        code = cli.main(list(req.argv))
    except Exception:
        code = None
        traceback.print_exc()
    finally:
        sys.stdout, sys.stdin = saved
    out.flush()
    return code, out.buffer.getvalue()


@dataclass(frozen=True)
class Sample:
    req: workloads.Request
    wall_s: float           # wall time of the call, less the speed probes
    scaled_s: float         # the same, at the reference host speed
    ok: bool                # passed its correctness gate


def run_passes(cli, requests, rng, seconds, min_passes, tracer=None):
    """Passes until both limits are met; each pass is a list of Samples.
    Every call is timed by a hostspeed.Speedometer.  Past `min_passes`, an
    untraced run stops at `seconds` even within a pass, so that a run of a
    workload with long passes does not overshoot; a traced run finishes its
    pass, because its layer figures are per whole pass."""
    send = call if tracer is None else tracer.span(call, "request")
    speedometer = hostspeed.Speedometer()
    passes = []
    t_end = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < t_end:
        order = list(requests)
        rng.shuffle(order)
        if tracer is not None:
            tracer.begin_pass()
        samples = []
        for req in order:
            if tracer is None and len(passes) >= min_passes and perf_counter() >= t_end:
                break
            if tracer is not None:
                tracer.germ = req.germ
            (code, blob), wall, scaled = speedometer.timed(send, cli, req)
            samples.append(Sample(req, wall, scaled, workloads.passes_gate(req, code, blob)))
        if samples:
            passes.append(samples)
    return passes


def pass_seconds(samples):
    """Reference-host seconds of one pass."""
    return sum(s.scaled_s for s in samples)


def end_to_end(passes, setup_times):
    """End-to-end metrics from reference-host times (see hostspeed.py).

    The latency percentiles are taken over the workload's requests, of each
    request's median over the passes.  A workload has a few requests of very
    different cost, so a percentile of all calls pooled would sit on the gap
    between two requests and jump with every slow call next to it."""
    by_request = {}
    for samples in passes:
        for s in samples:
            if s.ok:
                by_request.setdefault(s.req.label, []).append(s.scaled_s * 1e3)
    if len(by_request) < 2:
        raise RuntimeError("fewer than two requests passed their gates")
    typical = [median(values) for values in by_request.values()]
    rates = [sum(s.ok for s in samples) / pass_seconds(samples)
             for samples in passes if len(samples) == len(passes[0])]
    calls = sum(map(len, by_request.values()))
    metrics = {
        "requests_per_s": median(rates),
        "latency_p50_ms": median(typical),
        "latency_tail_ms": quantiles(typical, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "requests_per_s": f"n={len(rates)} whole passes",
        "latency_p50_ms": f"n={len(typical)} requests, {calls} calls",
        "latency_tail_ms": f"p{TAIL_PERCENTILE}, n={len(typical)} requests, {calls} calls",
        "setup_s": f"n={len(setup_times)} set-ups",
        "peak_rss_mb": "n=1",
    }
    return metrics, counts


def _spawn_until_ready(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        return proc, proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def measure_setup(workload: str, seed: int, runs: int = SETUP_RUNS):
    """Reference-host seconds from spawning a fresh interpreter until it has
    imported d0res and built the workload's requests, `runs` times; one
    spawn before them only warms the file cache."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    speedometer = hostspeed.Speedometer()
    times = []
    for _ in range(runs + 1):
        (proc, line), _, scaled = speedometer.timed(_spawn_until_ready, cmd)
        with proc:
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up run failed with exit code {proc.returncode}")
        times.append(scaled)
    return times[1:]


# -- entry point -----------------------------------------------------------------------


def declared_metrics(root: Path, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "rank_ladder", "rational_germs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import d0res, build the requests, print 'ready'")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, kernels = load_program(ROOT)
        requests = workloads.build(args.workload, args.seed, ROOT)
        units = declared_metrics(ROOT, args.trace)
    except (ProgramMissing, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0

    rng = random.Random(args.seed)
    min_passes = workloads.MIN_PASSES[args.workload]
    info = {"stamp": stamp(kernels, args.workload, args.seed, args.trace)}
    if args.trace:
        untraced = run_passes(cli, requests, rng, args.seconds / 4, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, requests, rng, args.seconds * 3 / 4, 1, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics, info["self_s"] = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (
            median(map(pass_seconds, traced)) / median(map(pass_seconds, untraced)))
        counts = {name: f"median of {len(traced)} traced passes" for name in metrics}
    else:
        setup_times = measure_setup(args.workload, args.seed)
        passes = run_passes(cli, requests, rng, args.seconds, min_passes)
        metrics, counts = end_to_end(passes, setup_times)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    info["pass_seconds"] = [pass_seconds(samples) for samples in passes]
    info["pass_wall_seconds"] = [sum(s.wall_s for s in samples) for samples in passes]
    attempted = sum(map(len, passes))
    failures = [s.req.label for samples in passes for s in samples if not s.ok]
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }

    print("stamp: " + " ".join(f"{k}={v}" for k, v in info["stamp"].items()))
    print(f"requests: attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.6g} passes={len(passes)}")
    if failures:
        print("failed: " + ", ".join(sorted(set(failures))))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit} ({counts[name]})")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps({**info, "fail_frac": failed / attempted, "result": result},
                   indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
