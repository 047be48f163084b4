"""The three workloads, the in-process CLI runner and the output gates.

A round is one workload's operation sequence, run as a closed loop in one
thread: each command starts only after the previous one returns. Gates run
after the round, outside its timed region; an operation that fails a gate
counts as failed.

``fig1``
    ``simulate --model sbth --preset paper-fig1 --out <csv>`` then
    ``check <csv>``: 80 000 RK4 steps, 801 rows. Propagation-bound.
``dense``
    the same two commands with ``--sample-every 1``: 80 001 rows, a 46 MB
    CSV written and read back. Output-bound.
``sweep``
    64 ``compare sbth lindblad`` invocations at seeded random underdamped
    equivalence-mode points, fresh points every round, no ``--out``.
    Fixed cost per invocation; never touches ``csvio``.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from momentous import cli

WORKLOADS = ("fig1", "dense", "sweep")
SWEEP_POINTS = 64

# paper-fig1 as the gates expect it: m = hbar = 1, lambda = 0.04,
# Omega = omega = 1.5, gamma = 0.08, nbar = 0, n = 3, dt = 1e-3, t_end = 80
FIG1 = {"lambda": 0.04, "big_omega": 1.5, "omega": 1.5, "gamma": 0.08, "nbar": 0.0,
        "n": 3, "m": 1.0, "hbar": 1.0, "dt": 1e-3, "t_end": 80.0}
MEANS_TOL = 1e-8  # acceptance criterion c04
ENERGY_REL_TOL = 1e-6  # acceptance criterion c06


@dataclass
class Op:
    """One CLI invocation and what its gate needs."""

    kind: str
    argv: list[str]
    gate: Callable[["Op"], str | None]  # error text, or None when the output is right
    code: int | None = None
    start: float = 0.0
    seconds: float = 0.0  # wall time
    stolen: float = 0.0  # reference-kernel time inside it, see speed.py
    scale: float = 1.0  # machine-speed factor, see speed.py
    stdout: str = ""
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def scaled(self) -> float:
        return (self.seconds - self.stolen) * self.scale


def run_op(op: Op) -> None:
    """Run ``cli.main(argv)`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    op.start = start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            op.code = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            op.code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - start
    op.stdout = out.getvalue()
    if op.error is None and op.code != 0:
        op.error = f"exit code {op.code}: {err.getvalue().strip()}"


def judge(op: Op) -> bool:
    """Apply the op's gate after the exit-code gate; True on success."""
    if op.error is None:
        op.error = op.gate(op)
    return op.error is None


# ---------------------------------------------------------------------------
# gates

def _audit_ok(op: Op) -> str | None:
    if "uncertainty violations: 0 " not in op.stdout:
        return "check did not report a clean audit"
    return None


def _compare_pass(op: Op) -> str | None:
    if "PASS: all columns within tolerance" not in op.stdout:
        return "compare did not pass at its default tolerance"
    return None


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_columns(path: Path, names) -> dict[str, np.ndarray]:
    """Independent CSV reader: skip ``#`` lines, locate the header."""
    with open(path) as fh:
        skip = 0
        for line in fh:
            skip += 1
            if not line.startswith("#"):
                header = line.strip().split(",")
                break
    cols = [header.index(name) for name in names]
    data = np.loadtxt(path, delimiter=",", skiprows=skip, usecols=cols, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(names)}


def _csv_matches_closed_form(sample_every: int):
    """Gate on the simulate CSV: the grid, means against the closed-form
    damped oscillator (c04) and ``E_mean`` against the thermal decay law
    (c06). The CSV's sha256 is recorded, not gated."""
    p = FIG1
    n_rows = round(p["t_end"] / p["dt"]) // sample_every + 1

    def gate(op: Op) -> str | None:
        path = Path(op.argv[op.argv.index("--out") + 1])
        op.info["sha256"] = sha256(path)
        cols = _read_columns(path, ["t", "x", "p_x", "E_mean"])
        t = cols["t"]
        if len(t) != n_rows or not math.isclose(t[-1], p["t_end"]):
            return f"grid has {len(t)} rows ending at {t[-1]!r}, expected {n_rows} to t_end"
        x0 = math.sqrt(2.0 * p["n"] * p["hbar"] / (p["m"] * p["omega"]))
        decay = np.exp(-p["lambda"] * t)
        x_ref = decay * x0 * np.cos(p["big_omega"] * t)
        px_ref = -decay * p["m"] * p["big_omega"] * x0 * np.sin(p["big_omega"] * t)
        err = max(np.abs(cols["x"] - x_ref).max(), np.abs(cols["p_x"] - px_ref).max())
        op.info["means_err"] = float(err)
        if not err <= MEANS_TOL:
            return f"means differ from the closed form by {err:.3g} > {MEANS_TOL:g}"
        e_ref = ((p["n"] - p["nbar"]) * np.exp(-p["gamma"] * t) + p["nbar"] + 0.5) \
            * p["hbar"] * p["omega"]
        rel = float((np.abs(cols["E_mean"] - e_ref) / e_ref).max())
        op.info["energy_rel_err"] = rel
        if not rel <= ENERGY_REL_TOL:
            return f"E_mean differs from the decay law by {rel:.3g} > {ENERGY_REL_TOL:g}"
        return None

    return gate


# ---------------------------------------------------------------------------
# workloads: each yields one round of ops per call

class SimulateCheck:
    """``simulate`` at paper-fig1 then ``check`` of the written CSV."""

    def __init__(self, name: str, sample_every: int | None, workdir: Path, seed: int):
        self.path = workdir / f"{name}-seed{seed}.csv"
        extra = ["--sample-every", str(sample_every)] if sample_every else []
        self.sim_argv = ["simulate", "--model", "sbth", "--preset", "paper-fig1",
                         "--out", str(self.path), *extra]
        self.gate = _csv_matches_closed_form(sample_every or 100)

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)

    def round(self) -> list[Op]:
        return [
            Op("simulate", list(self.sim_argv), self.gate),
            Op("check", ["check", str(self.path)], _audit_ok),
        ]


class Sweep:
    """``compare sbth lindblad`` at seeded random equivalence-mode points:
    lambda in [0.01, 0.2], gamma = 2*lambda, omega = omega' = Omega in
    [0.5, 3], n in {0..5}. The stream continues across rounds, so no
    point repeats."""

    def __init__(self, seed: int, points: int = SWEEP_POINTS):
        self.rng = random.Random(seed)
        self.points = points

    def argv(self) -> list[str]:
        lam = self.rng.uniform(0.01, 0.2)
        w = repr(self.rng.uniform(0.5, 3.0))
        n = self.rng.randint(0, 5)
        return ["compare", "sbth", "lindblad", "--lambda", repr(lam), "--gamma", repr(2.0 * lam),
                "--omega", w, "--omega-prime", w, "--big-omega", w, "--n-level", str(n),
                "--dt", "1e-2", "--t-end", "10", "--sample-every", "10"]

    def cleanup(self) -> None:
        pass

    def round(self) -> list[Op]:
        return [Op("compare", self.argv(), _compare_pass)
                for _ in range(self.points)]


def make(name: str, workdir: Path, seed: int):
    if name == "fig1":
        return SimulateCheck("fig1", None, workdir, seed)
    if name == "dense":
        return SimulateCheck("dense", 1, workdir, seed)
    if name == "sweep":
        return Sweep(seed)
    raise ValueError(f"unknown workload {name!r}")
