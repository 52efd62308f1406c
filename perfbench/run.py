"""Benchmark of triphase: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0

The package is imported from the ``src/`` directory beside this one, never
from an installed copy; without it the run exits with code 2.

A run lasts ``--seconds`` and is a series of rounds.  With ``--trace 0`` a
round is one cold start of ``import triphase`` and two of the workload's
typical CLI command, each in a fresh interpreter and one at a time, then
untraced passes over the workload's operations in this process for half as
long; the end-to-end metrics come from these.  With ``--trace 1`` a round
is one ``-X importtime`` cold start, then untraced and traced passes in
turn; the per-layer metrics come from these.

Durations other than ``setup_s`` are given in ``ref``: the median time of a
fixed reference computation (``reference_work``), timed in this process
about every 10 ms between operations and just before and after each cold
start.  Each pass and each cold start is divided by the reference samples
nearest to it.  The shared machines this runs on change speed by tens of
percent within seconds and for minutes at a time; the reference slows with
them, so a duration in ``ref`` moves with the program's own work.  The
record keeps the cold starts in seconds too.

Every metric is printed by name and unit, and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, sample counts,
failure reasons, the offset bounds of the eraser scans and, when traced,
every span) is written to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

END_TO_END = {
    "setup_s": "s",
    "cli_cold_ref": "ref",
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "op_p95_ref": "ref",
    "peak_rss_mb": "MB",
}
# Module names as -X importtime prints them, and the metric each one feeds.
IMPORTS = {"numpy": "import.numpy_s", "scipy.signal": "import.scipy_signal_s",
           "scipy.optimize": "import.scipy_optimize_s"}
PER_LAYER = {
    **{metric: "s" for metric in IMPORTS.values()},
    "import.triphase_own_s": "s",
    "triplet.sweep_phi.calls": "count",
    "triplet.sweep_phi.busy_s": "s",
    "triplet.sweep_phi.failed": "count",
    "triplet.sweep_phi.rows_out": "count",
    "figures.figure_curves.busy_s": "s",
    "cli.phase_curve_csv.busy_s": "s",
    "cli.phase_curve_json.busy_s": "s",
    "eraser.solve_waveplates.calls": "count",
    "eraser.solve_waveplates.busy_s": "s",
    "eraser.solve_waveplates.failed": "count",
    "eraser.fringe_trace.busy_s": "s",
    "eraser.fringe_trace.samples": "count",
    "eraser.extract_fringe_phase.busy_s": "s",
    "eraser.extract_fringe_phase.failed": "count",
    "triplet.make_triplet.busy_s": "s",
    "triplet.fit_offset.calls": "count",
    "triplet.fit_offset.busy_s": "s",
    **{f"verify.{name}.busy_s": "s" for name in (
        "oracle-equivalence", "jump-law", "steepening", "area-phase-law", "majorana-roundtrip",
        "eraser-equivalence", "projection-chain", "noise-robustness", "offset-fitting",
        "figure-reproduction")},
    "curves.probe.grid_too_coarse_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# The CLI command a user of each workload would type; OUT is the output path.
CLI_COMMANDS = {
    "curves": ["phase-curve", "--theta", "10", "--chi", "120", "--format", "json", "--out", "OUT"],
    "eraser-scan": ["fringe", "--theta", "10", "--chi", "120", "--phi", "30", "--noise-photons",
                    "1e5", "--seed", "7", "--format", "json", "--out", "OUT"],
    "verify": ["verify"],
}


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def cold_start(cmd: list[str], cwd: str) -> tuple[float, str]:
    """Wall seconds of one command in a fresh interpreter, and its stderr."""
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, done.stderr


def check_cli_output(workload: str, out: Path) -> None:
    if workload == "verify":
        return  # exit code 0 already means every criterion passed
    doc = json.loads(out.read_text(encoding="utf-8"))
    if not doc["samples"] or (workload == "eraser-scan" and "phase_rad" not in doc["fit"]):
        raise RuntimeError(f"cold CLI run for {workload} wrote an incomplete {out.name}")


def import_profile(stderr: str) -> dict[str, float]:
    """From ``-X importtime`` output: cumulative seconds of numpy and the two
    scipy subpackages, and the self seconds of triphase's own modules."""
    row = dict.fromkeys([*IMPORTS.values(), "import.triphase_own_s"], 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        self_us, cumulative_us, module = (f.strip() for f in line[len("import time:"):].split("|"))
        if module in IMPORTS:
            row[IMPORTS[module]] = int(cumulative_us) / 1e6
        elif module == "triphase" or module.startswith("triphase."):
            row["import.triphase_own_s"] += int(self_us) / 1e6
    return row


REF_EVERY_S = 0.01
REF_BURST = 20
_REF_X = np.linspace(0.0, 1.0, 256)


def reference_work() -> float:
    """A fixed mix of interpreted arithmetic and small numpy calls, the two
    kinds of work triphase does; a fraction of a millisecond."""
    s = 0.0
    for i in range(1500):
        s += math.sin(i * 1e-3)
    for _ in range(25):
        s += float(np.cos(_REF_X).sum())
    return s


class Pacer:
    """Times ``reference_work`` between operations and around cold starts.

    Called after every operation, it takes one sample for each
    ``REF_EVERY_S`` passed since the last call (at least one, at most
    ``REF_BURST``), so the samples follow the time the passes take.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._next = 0.0

    def burst(self, n: int) -> list[float]:
        t0 = perf_counter()
        for _ in range(n):
            t = perf_counter()
            reference_work()
            self.samples.append(perf_counter() - t)
        self.spent += perf_counter() - t0
        return self.samples[-n:]

    def __call__(self) -> None:
        now = perf_counter()
        if now >= self._next:
            self.burst(min(REF_BURST, 1 + int((now - self._next) / REF_EVERY_S)) if self._next else 1)
            self._next = perf_counter() + REF_EVERY_S


def timed_pass(workload, api, tracer, pacer):
    """One pass: its wall seconds less the reference samples taken in it,
    the median of those samples, its latency samples and the checked
    outputs' tally; the check runs outside the wall time."""
    spent, first, t0 = pacer.spent, len(pacer.samples), perf_counter()
    outputs, latencies = workload.run_pass(api, tracer, pacer)
    wall = perf_counter() - t0 - (pacer.spent - spent)
    return wall, statistics.median(pacer.samples[first:]), latencies, workload.check(outputs)


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit}


def measure(name: str, seed: int, seconds: float, trace: bool, **workload_args) -> dict:
    """One benchmark run; returns the result line plus the full record.

    The run is a series of rounds until ``seconds`` have passed, each round
    one cold start of every command, then untraced passes and, when tracing,
    traced passes in turn.  Interleaving lets every metric sample the same
    stretch of time on a machine whose speed drifts.
    """
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Tally, program_api

    workload = WORKLOADS[name](seed, **workload_args)  # every input drawn before timing
    untraced, tracer, pacer = NullTracer(), Tracer(), Pacer()
    plain_api, traced_api = program_api(untraced), program_api(tracer)
    # warm-up pass for lazy imports and caches; importing workloads above has
    # already written the bytecode that the cold starts read
    workload.run_pass(plain_api, untraced)
    tally = Tally()
    if trace and name == "curves":
        probe_frac, probe_tally = workload.probe_defect()
        tally.add(probe_tally)

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        out = Path(tmp) / "out.json"
        # one round of cold starts, in order; the CLI command, the longer
        # and more variable of the two, runs twice
        if trace:
            commands = [("importtime", _python("-X", "importtime", "-c", "import triphase"))]
        else:
            cli_args = [str(out) if a == "OUT" else a for a in CLI_COMMANDS[name]]
            cli = _python("-m", "triphase.cli", *cli_args)
            commands = [("setup_s", _python("-c", "import triphase")), ("cli_cold", cli), ("cli_cold", cli)]
        cold = {key: [] for key, _ in commands}
        cold_refs = {key: [] for key, _ in commands}
        imports, walls, traced_walls, latencies = [], [], [], []
        deadline = perf_counter() + seconds

        def done() -> bool:
            return bool(walls) and all(cold.values()) and perf_counter() >= deadline

        while not done():
            t0 = perf_counter()
            for key, cmd in commands:
                before = pacer.burst(REF_BURST)
                elapsed, stderr = cold_start(cmd, tmp)
                cold[key].append(elapsed)
                cold_refs[key].append(elapsed / statistics.median(before + pacer.burst(REF_BURST)))
                if trace:
                    imports.append(import_profile(stderr))
                if done():
                    break
            # passes fill half as long as the cold starts took: a pass holds
            # hundreds of operations and a cold start only one command, so
            # the cold starts get two thirds of a run
            warm_until = perf_counter() + 0.5 * (perf_counter() - t0)
            while not done():
                wall, ref, lat, checked = timed_pass(workload, plain_api, untraced, pacer)
                walls.append(wall / ref)
                latencies.append([x / ref for x in lat])
                tally.add(checked)
                if trace:
                    wall, ref, _, checked = timed_pass(workload, traced_api, tracer, pacer)
                    traced_walls.append(wall / ref)
                    tally.add(checked)
                if perf_counter() >= warm_until:
                    break
        if not trace:
            check_cli_output(name, out)

    # Every duration is taken in units of the reference samples nearest to
    # it (those of its pass, or those just before and after a cold start),
    # and every timing is a median over the run: of the passes, of each
    # operation over the passes and of the cold starts.
    typical = [statistics.median(op) for op in zip(*latencies)]
    metrics = {}
    if trace:
        n = len(traced_walls)
        busy = tracer.self_seconds()
        for metric in PER_LAYER:
            span, field = metric.rsplit(".", 1)
            if metric.startswith("import."):
                metrics[metric] = statistics.median(row[metric] for row in imports)
            elif field == "busy_s":
                metrics[metric] = busy.get(span, 0.0) / n
            else:
                metrics[metric] = tracer.counts.get(metric, 0) / n
        metrics["curves.probe.grid_too_coarse_frac"] = probe_frac if name == "curves" else 0.0
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    else:
        metrics["setup_s"] = statistics.median(cold["setup_s"])
        metrics["cli_cold_ref"] = statistics.median(cold_refs["cli_cold"])
        metrics["wall_ref"] = statistics.median(walls)
        metrics["op_p50_ref"] = percentile(typical, 50)
        metrics["op_p95_ref"] = percentile(typical, 95)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = PER_LAYER if trace else END_TO_END
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m: {"value": float(metrics[m]), "unit": u} for m, u in units.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "result": result,
              "ref_seconds": statistics.median(pacer.samples),
              "failed_frac": tally.failed / tally.attempted, "failure_reasons": dict(tally.reasons),
              "checks": tally.records, "cold_seconds": cold, "cold_ref": cold_refs, "pass_ref": walls,
              "op_samples": len(typical), "op_median_ref": typical,
              "reference_seconds": pacer.samples}
    if trace:
        record.update(traced_pass_ref=traced_walls, span_fields=["name", "start_s", "end_s", "parent", "op"],
                      spans=tracer.dump())
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curves", "eraser-scan", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "triphase" / "__init__.py").is_file():
        print(f"error: no triphase sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    result = record["result"]
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed (failed_frac {record['failed_frac']:.4f}); "
          f"{len(record['pass_ref'])} untraced passes of {record['op_samples']} timed operations; "
          f"op percentiles over operations, each at its median pass; "
          f"1 ref = {record['ref_seconds'] * 1e3:.4f} ms over {len(record['reference_seconds'])} samples")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
