#!/usr/bin/env python3
"""Benchmark of the momentous CLI, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One single-threaded process drives ``momentous.cli.main(argv)`` in-process
with stdout captured, round after round, until ``--seconds`` have passed
(at least one round; two in a traced run, one untraced and one traced).
The workloads (``fig1``, ``dense``, ``sweep``) are described in
``workloads.py``. Every operation is gated on its output; a failed gate
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. Their
times are scaled to a nominal machine speed measured while they run (see
``speed.py``); the plain wall-time medians are in the run record.

``setup_s``
    median time of a fresh interpreter running ``import momentous.cli``
    (one warm-up launch, then ``SETUP_SAMPLES``).
``total_s``
    median time of one round's whole operation sequence.
``simulate_s``, ``simulate_p80_s``
    median and 80th percentile of one command that integrates: ``simulate``
    on fig1/dense, ``compare`` on sweep (it integrates both models).
``check_s``
    median of one command that verifies a result: ``check`` on fig1/dense,
    ``compare`` on sweep (the same command, so it equals ``simulate_s``).
``peak_rss_mb``
    peak resident memory of the benchmark process.
``ok_ratio``
    operations that passed their gates / operations attempted; the failed
    count itself is the result's ``failed`` field.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, medians over traced rounds (see ``spans.py``), in plain
wall time: the speed sampler is off, so it interrupts no span. The spans
are written to ``.perfbench/spans-<workload>-seed<n>.json`` when the run
ends. Before the result line, a ``record`` line carries sample counts,
CSV sha256 digests and the environment; it is also written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9

# one single-threaded process: BLAS pools are sized before numpy loads
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import spans
    import speed
    import workloads
except ImportError as exc:
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round per workload and mode; assert every metric is emitted")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# environment and set-up

def git_sha() -> str | None:
    """HEAD of the checkout's repository, read from ``.git`` if present."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def setup_times(samples: int) -> tuple[list[float], list[float]]:
    """Scaled and wall times of fresh interpreters importing
    ``momentous.cli``; the first launch only warms the bytecode cache."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-c", "import momentous.cli"]
    sampler = speed.SpeedSampler()
    launches = []
    for i in range(samples + 1):
        sampler.sample(5)
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            launches.append((start, time.perf_counter()))
    sampler.sample(5)
    wall = [end - start for start, end in launches]
    return [t * sampler.scale(*span) for t, span in zip(wall, launches)], wall


# ---------------------------------------------------------------------------
# rounds

class Round:
    """One round's ops; ``total`` is the sum of their scaled times, ``raw``
    the sum of their wall times."""

    def __init__(self, ops, traced, round_spans):
        self.ops = ops
        self.traced = traced
        self.spans = round_spans
        self.total = sum(op.scaled for op in ops)
        self.raw = sum(op.seconds for op in ops)


def run_round(workload, sampler: speed.SpeedSampler | None,
              tracer: spans.Tracer | None) -> Round:
    """One round; with a sampler, op times are scaled to nominal speed."""
    ops = workload.round()
    first = len(tracer.spans) if tracer else 0
    with sampler.running() if sampler else nullcontext():
        for op in ops:
            if tracer:
                tracer.op += 1
            workloads.run_op(op)
    for op in ops:
        if sampler:
            end = op.start + op.seconds
            op.stolen = sampler.stolen(op.start, end)
            op.scale = sampler.scale(op.start, end)
        workloads.judge(op)
    return Round(ops, tracer is not None, tracer.spans[first:] if tracer else [])


def run_rounds(workload, seconds: float, sampler: speed.SpeedSampler | None,
               tracer: spans.Tracer | None) -> list[Round]:
    """Closed loop of rounds for ``seconds``; with a tracer, untraced and
    traced rounds alternate and each kind runs at least once."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(rounds) % 2 == 1:
            with tracer.installed():
                rounds.append(run_round(workload, sampler, tracer))
        else:
            rounds.append(run_round(workload, sampler, None))
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() >= deadline:
            return rounds


# ---------------------------------------------------------------------------
# metrics

SIMULATE_KINDS = {"simulate", "compare"}
CHECK_KINDS = {"check", "compare"}


def p80(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def end_to_end(rounds: list[Round], setup: list[float],
               setup_raw: list[float]) -> tuple[dict, dict, dict]:
    """Scaled end-to-end metrics, their sample counts, and the raw
    (unscaled) medians of the timings."""
    ops = [op for r in rounds for op in r.ops]
    sim = [op for op in ops if op.kind in SIMULATE_KINDS]
    chk = [op for op in ops if op.kind in CHECK_KINDS]
    ok = sum(op.error is None for op in ops)

    values = {
        "setup_s": statistics.median(setup),
        "total_s": statistics.median(r.total for r in rounds),
        "simulate_s": statistics.median(op.scaled for op in sim),
        "simulate_p80_s": p80([op.scaled for op in sim]),
        "check_s": statistics.median(op.scaled for op in chk),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": ok / len(ops),
    }
    samples = {"setup_s": len(setup), "total_s": len(rounds), "simulate_s": len(sim),
               "simulate_p80_s": len(sim), "check_s": len(chk), "ok_ratio": len(ops)}
    raw = {
        "setup_s": statistics.median(setup_raw),
        "total_s": statistics.median(r.raw for r in rounds),
        "simulate_s": statistics.median(op.seconds for op in sim),
        "check_s": statistics.median(op.seconds for op in chk),
    }
    return values, samples, raw


def round_layers(r: Round) -> dict:
    t = spans.layer_totals(r.spans)
    integ, xy = t["integrator.integrate"], t["systems.xy_view"]
    steps = integ.get("steps", 0)
    useful = len(r.ops)  # every command of every workload analyses one sbth (BT1) run
    return {
        "integrator.integrate.self_s": integ["self_s"],
        "integrator.integrate.calls": integ["calls"],
        "integrator.steps": steps,
        "integrator.samples": integ.get("samples", 0),
        "integrator.ns_per_step": integ["self_s"] / steps * 1e9 if steps else 0.0,
        "systems.build.self_s": t["systems.build"]["self_s"],
        "systems.build.calls": t["systems.build"]["calls"],
        "systems.xy_view.self_s": xy["self_s"],
        "systems.xy_view.calls": xy["calls"],
        "systems.xy_view.useful_ratio": useful / xy["calls"] if xy["calls"] else 0.0,
        "diagnostics.energy_report.self_s": t["diagnostics.energy_report"]["self_s"],
        "diagnostics.energy_report.calls": t["diagnostics.energy_report"]["calls"],
        "diagnostics.audit.self_s": t["diagnostics.audit"]["self_s"],
        "diagnostics.trajectory_columns.self_s": t["diagnostics.trajectory_columns"]["self_s"],
        "diagnostics.compare.self_s": t["diagnostics.compare"]["self_s"],
        "csvio.write_csv.self_s": t["csvio.write_csv"]["self_s"],
        "csvio.write_csv.bytes": t["csvio.write_csv"].get("bytes", 0),
        "csvio.read_csv.self_s": t["csvio.read_csv"]["self_s"],
        "csvio.read_csv.bytes": t["csvio.read_csv"].get("bytes", 0),
        "csvio.trajectory_from_columns.self_s": t["csvio.trajectory_from_columns"]["self_s"],
        "cli.self_s": t["cli.main"]["self_s"],
        "trace.total_s": r.total,
    }


def per_layer(rounds: list[Round]) -> tuple[dict, dict]:
    traced = [round_layers(r) for r in rounds if r.traced]
    values = {key: statistics.median(layer[key] for layer in traced) for key in traced[0]}
    untraced = [r.total for r in rounds if not r.traced]
    values["trace.overhead_s"] = values["trace.total_s"] - statistics.median(untraced)
    return values, {"traced_rounds": len(traced), "untraced_rounds": len(untraced)}


def listed_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


# ---------------------------------------------------------------------------
# one run

def measure(name: str, seed: int, seconds: float, trace: int,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Run one workload; return (result line, record)."""
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.make(name, WORKDIR, seed)
    tracer = spans.Tracer() if trace else None
    setup, setup_raw = ([], []) if trace else setup_times(setup_samples)
    # traced runs report plain wall times: the sampler would interrupt spans
    sampler = None if trace else speed.SpeedSampler()
    try:
        rounds = run_rounds(workload, seconds, sampler, tracer)
    finally:
        workload.cleanup()
    if trace:
        values, samples = per_layer(rounds)
        raw = {}
        spans_path = WORKDIR / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    else:
        values, samples, raw = end_to_end(rounds, setup, setup_raw)

    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if op.error is not None]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed_metrics(trace)},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "samples": samples,
        "raw_medians": raw,
        "kernel_s": {"median": statistics.median(sampler.seconds), "samples": len(sampler.seconds),
                     "nominal": speed.NOMINAL_S} if sampler else None,
        "sha256": sorted({op.info["sha256"] for op in ops if "sha256" in op.info}),
        "max_gate_error": {key: max((op.info[key] for op in ops if key in op.info), default=None)
                           for key in ("means_err", "energy_rel_err")},
        "failures": [{"argv": op.argv, "error": op.error} for op in failed[:5]],
        "untraced_targets": sorted(tracer.missing) if tracer else [],
        "environment": environment(),
        "emitted": sorted(values),
    }
    return result, record


# ---------------------------------------------------------------------------
# smoke check

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def smoke() -> int:
    """Every listed metric is emitted in each mode on each workload (seed 1
    untraced, seed 2 traced, so sweep passes its gates on two seeds), and a
    corrupted ``G1_2000`` entry makes ``check`` exit 1 as a failed op."""
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, record = measure(name, seed=1 + trace, seconds=0, trace=trace,
                                     setup_samples=1)
            listed = {m["name"] for m in listed_metrics(trace)}
            _require(set(record["emitted"]) == listed,
                     f"{name} trace {trace} emits {record['emitted']}, lists {sorted(listed)}")
            _require(result["correct"] and result["failed"] == 0,
                     f"{name} trace {trace} failed: {record['failures']}")
            _require(not record["untraced_targets"],
                     f"trace targets missing: {record['untraced_targets']}")
            print(f"smoke: {name} seed {1 + trace} trace {trace}: {len(listed)} metrics, "
                  f"{result['attempted']} ops ok")

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.make("fig1", WORKDIR, seed=0)
    try:
        simulate, check = workload.round()
        workloads.run_op(simulate)
        _require(workloads.judge(simulate), f"simulate failed: {simulate.error}")
        lines = workload.path.read_text().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        column = lines[header].split(",").index("G1_2000")
        row = header + 1 + (len(lines) - header - 1) // 2
        fields = lines[row].split(",")
        fields[column] = "0.0000000000000000e+00"
        lines[row] = ",".join(fields)
        workload.path.write_text("".join(lines))
        workloads.run_op(check)
        _require(check.code == 1, f"check of a corrupted CSV exited {check.code}, expected 1")
        _require(not workloads.judge(check), "corrupted CSV did not count as a failed op")
    finally:
        workload.cleanup()
    print("smoke: corrupted G1_2000 entry -> check exit 1, counted failed")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    (WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
