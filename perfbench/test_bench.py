"""Tiny-size self-test of the benchmark.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import Curves, EraserScan, program_api  # noqa: E402

from triphase import triplet  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"curves": {"requests": 6, "probes": 6}, "eraser-scan": {"thetas": 1}, "verify": {}}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    record = run.measure(workload, 1, 0.01, trace, **TINY[workload])
    listed = SPEC["per_layer" if trace else "end_to_end"]
    metrics = record["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], float) for v in metrics.values())
    assert record["result"]["correct"]


def _failed_frac(workload) -> float:
    outputs, _ = workload.run_pass(program_api(NullTracer()), NullTracer())
    tally = workload.check(outputs)
    return tally.failed / tally.attempted


def _sign_flipped(theta, chi, phi):
    return -triplet.total_phase_continuous(theta, chi, phi)


def test_wrong_oracle_raises_failed_frac():
    assert _failed_frac(Curves(3, requests=12, oracle=_sign_flipped)) > _failed_frac(Curves(3, requests=12))
    assert _failed_frac(EraserScan(3, thetas=1)) == 0.0
    assert _failed_frac(EraserScan(3, thetas=1, oracle=_sign_flipped)) == 1.0


def test_inputs_follow_the_seed():
    def thetas(seed):
        return [r[0] for r in Curves(seed, requests=8).requests]

    assert thetas(4) == thetas(4)
    assert thetas(4) != thetas(5)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        tracer.wrap("inner", lambda: sum(range(10000)))()
    (outer, o0, o1, parent, _), (inner, i0, i1, inner_parent, _) = tracer.spans()
    assert (outer, parent, inner, inner_parent) == ("outer", -1, "inner", 0)
    busy = tracer.self_seconds()
    assert busy["outer"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert tracer.counts == {"inner.calls": 1}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "curves", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
