"""Tests of the benchmark itself (not collected by the main suite):

    python3 -m pytest perfbench
"""

import dataclasses
import random
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import compare
import hostspeed
import run
import tracing
import workloads

ROOT = run.ROOT
CLI, _ = run.load_program(ROOT)


def one_pass(requests, tracer=None):
    return run.run_passes(CLI, requests, random.Random(0), 0, 1, tracer)


def failed_labels(passes):
    return [s.req.label for samples in passes for s in samples if not s.ok]


def traced_counts(requests):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        one_pass(requests, tracer)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.layer_metrics()
    return {name: value for name, value in metrics.items()
            if not name.endswith("_s") and not name.startswith("certify.")}


def test_traced_counts_repeat_exactly_and_wrappers_are_removed():
    originals = [getattr(tracing._resolve(path), attr)
                 for path, attr, _ in tracing.SPANS + tracing.COUNTED]
    # cusp, e6 and node at three ranks each feed the rank fit; the Gaussian
    # node exercises the field arithmetic and the generic elimination path.
    wanted = {"cusp.json", "e6.json", "node.json", "gaussian_node.json"}
    requests = [r for r in workloads.corpus(ROOT) if r.label in wanted]
    first = traced_counts(requests)
    second = traced_counts(requests)
    assert first == second
    for name in ("kernels.fmatmul_ops", "kernels.frref_ops", "series.mul_terms",
                 "modules.eval_matrix_entries", "fields.mul_calls",
                 "linalg.generic_rref_calls"):
        assert first[name] > 0, name
    assert [getattr(tracing._resolve(path), attr)
            for path, attr, _ in tracing.SPANS + tracing.COUNTED] == originals


def test_corrupted_golden_fails(tmp_path):
    golden = tmp_path / "corpus" / "golden"
    golden.mkdir(parents=True)
    for name in ("cusp.json", "e6.json"):
        shutil.copy(ROOT / "corpus" / name, tmp_path / "corpus" / name)
        shutil.copy(ROOT / "corpus" / "golden" / name, golden / name)
    blob = (golden / "cusp.json").read_bytes()
    (golden / "cusp.json").write_bytes(blob.replace(b'"r0": 2', b'"r0": 3'))
    passes = one_pass(workloads.corpus(tmp_path))
    assert failed_labels(passes) == ["cusp.json"]


@pytest.mark.parametrize("requests, key, wrong", [
    (lambda: workloads.rank_ladder(ROOT)[:1], "r0", 3),
    (lambda: [r for r in workloads.rational_germs(7) if r.germ == "node"],
     "l_matrix", [[None, 2], [2, None]]),
])
def test_wrong_expected_invariant_fails(requests, key, wrong):
    good = requests()[0]
    assert good.germ in ("cusp", "node")
    expect = tuple((k, wrong if k == key else v) for k, v in good.expect)
    bad = dataclasses.replace(good, label="bad", expect=expect)
    assert failed_labels(one_pass([good, bad])) == ["bad"]


def test_speedometer_samples_during_the_call_and_restores_the_timer():
    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return "done"

    def fail():
        raise KeyError("inside")

    speedometer = hostspeed.Speedometer()
    result, wall, scaled = speedometer.timed(busy, 0.1)
    assert result == "done"
    assert 0.05 < wall < 0.2 and scaled > 0
    # a probe before and after, and one per interval of the call
    assert len(speedometer._samples) >= 2 + 0.1 / hostspeed.INTERVAL_S / 2
    with pytest.raises(KeyError):
        speedometer.timed(fail)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_compare_refuses_mismatched_stamps():
    metrics = {"requests_per_s": {"value": 2.0, "unit": "1/s"}}
    base = {"stamp": {"implementation": "pure", "seed": 1},
            "result": {"metrics": metrics}}
    assert compare.compare(base, base) == ["requests_per_s: 2 -> 2 1/s (+0.0%)"]
    compiled = dict(base, stamp={"implementation": "compiled", "seed": 1})
    with pytest.raises(compare.StampMismatch):
        compare.compare(base, compiled)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / ".perfbench").exists()
