"""Deterministic fixed-step fourth-order Runge-Kutta propagation.

The models here are linear and non-stiff at the parameters of interest, so
a fixed-step classical RK4 is used: it is fourth-order accurate, has no
adaptivity state, and therefore reproduces results bit-for-bit on one
platform. The state is ``[means, moments, 1]``: the independent second
moments in ``moment_order``, and a coordinate fixed at 1 that carries the
diffusion source (Van Loan, IEEE TAC 23(3), 1978). The covariance is
unpacked from the moments, so it is symmetric by construction.

The system is linear and time-invariant, so one RK4 step is one fixed
matrix, the degree-4 Taylor polynomial of ``h`` times the rate matrix. It
is built once per run; each step is then one matrix-vector product. A
step that is not stored is checked for finiteness at once, since its
value is lost; stored samples are checked together, one block of rows at
a time, before the block is handed on. A failure still names its exact
step: the earliest non-finite one of either kind.

One loop steps every run, a block of samples at a time. ``integrate``
copies the blocks into arrays of the whole run; asked for blocks, it
hands them out as they are stepped, so a caller holds one block at a time.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .model import CanonicalFrame, CovarianceMatrix, FrameError, MeanVector, ModelParams
from .model import Trajectory
from .model import covariances_from_moments, finite_real
from .systems import ModelSystem, moment_rows

__all__ = [
    "MAX_STEPS", "IntegratorConfig", "IntegrationError", "TrajectoryBlocks", "integrate",
    "convergence_order",
]


# Largest accepted step count t_end/dt: 50 times the largest grid the tests
# and the benchmark run (200 000 steps). At sample_every = 1 a two-oscillator
# trajectory stores 168 bytes a sample (t, 4 means, the 4x4 covariance), and
# integrate() of the whole run peaks near 180 bytes a sample (traced by
# tracemalloc at 80 000 and 160 000 samples: the run plus one block): this
# grid would hold 1.7 GB of samples and need 1.8 GB while it is integrated,
# so larger grids are refused before anything is allocated. Read block by
# block, as simulate reads it, a run holds one block (1.9 MB at 4096
# samples) however long it is.
MAX_STEPS = 10**7

# Stored samples are checked for finiteness this many rows at a time, so a
# run that blows up stops within one block of its failing step.
_CHECK_ROWS = 4096


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, final time, and output decimation.

    ``sample_every = k`` emits every k-th step (plus the initial state), so
    the output interval is ``k*dt`` and the last sample is at
    ``(n_steps // k)*k*dt``. That falls before ``t_end`` when ``k`` does not
    divide the step count: ``dt = 50, t_end = 100`` at the default ``k``
    gives one sample, at t = 0. ``dt`` and ``t_end`` must be finite and
    > 0, ``sample_every`` an integer between 1 and :data:`MAX_STEPS`, and
    ``t_end/dt`` between 1 and :data:`MAX_STEPS`; a violation raises
    ``ValueError`` naming the field.
    """

    dt: float = 1e-3
    t_end: float = 80.0
    sample_every: int = 100

    def __post_init__(self):
        for f in fields(self):
            value = finite_real(f.name, getattr(self, f.name), integral=f.name == "sample_every")
            object.__setattr__(self, f.name, value)
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be > 0, got {self.t_end!r}")
        steps = self.t_end / self.dt
        if steps < 1.0:
            raise ValueError("t_end/dt must be >= 1")
        if steps > MAX_STEPS:
            raise ValueError(f"t_end/dt = {steps:.4g} exceeds the bound of {MAX_STEPS:.0e} steps")
        if not 1 <= self.sample_every <= MAX_STEPS:
            raise ValueError(
                f"sample_every must be between 1 and {MAX_STEPS:.0e}, got {self.sample_every!r}"
            )

    @property
    def n_steps(self) -> int:
        # snap to the nearest integer when t_end/dt is one up to round-off
        raw = self.t_end / self.dt
        nearest = round(raw)
        if abs(raw - nearest) <= 1e-6:
            return int(nearest)
        return int(math.floor(raw))

    @property
    def n_samples(self) -> int:
        return self.n_steps // self.sample_every + 1

    @property
    def sample_times(self) -> np.ndarray:
        """The sample grid ``(k*sample_every)*dt``, k = 0 .. n_steps//sample_every."""
        return self.block_times(0, self.n_samples)

    def block_times(self, start: int, stop: int) -> np.ndarray:
        """``sample_times[start:stop]`` bit for bit, without the rest of the grid."""
        return (np.arange(start, min(stop, self.n_samples)) * self.sample_every) * self.dt


class IntegrationError(RuntimeError):
    """Non-finite state encountered; reports the offending step."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step} (t = {t:g})")
        self.step = step
        self.t = t


def _rate_matrix(system: ModelSystem) -> np.ndarray:
    """Rate matrix of the state [means, moments, 1]."""
    d = system.frame.dim
    rows, cols = np.triu_indices(d)  # moment_order
    mat = np.zeros((d + len(rows) + 1,) * 2)
    mat[:d, :d] = system.a_classical
    mat[d:-1, d:-1] = moment_rows(system.a_moment)
    mat[d:-1, -1] = system.diffusion[rows, cols]
    return mat


def _rk4_step_matrix(hm: np.ndarray) -> np.ndarray:
    """One classical RK4 step of ``y' = M y`` as a matrix, from ``hm = h*M``.

    On a linear autonomous system the four stages compose to the degree-4
    Taylor polynomial ``I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24``, here in
    Horner form.
    """
    eye = np.eye(len(hm))
    return eye + hm @ (eye + hm @ (eye / 2.0 + hm @ (eye / 6.0 + hm / 24.0)))


def _first_nonfinite(states: np.ndarray, start: int, stop: int) -> int | None:
    """Index of the first of the rows ``states[start:stop]`` whose sum is
    not finite (the per-step test, vectorised), or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(states[start:stop].sum(axis=1))
    return start + int(np.argmax(bad)) if bad.any() else None


def _steps(step_matrix: np.ndarray, y: np.ndarray, start: int, stop: int, every: int,
           rows: np.ndarray):
    """Take the steps ``start + 1 .. stop`` from ``y``, the state at step
    ``start``. Each ``every``-th state is written into the next row of
    ``rows``; any other is checked for finiteness at once, and the first
    that is not finite ends the steps. Returns the last state, the number
    of rows written and that failed step (None if there is none)."""
    advance = step_matrix.dot
    out = 0
    # overflow is expected on divergent systems and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(start + 1, stop + 1):
            if step % every:
                y = advance(y)
                if not math.isfinite(float(y.sum())):
                    return y, out, step
            else:  # a sample: the product is written into its row
                y = np.dot(step_matrix, y, out=rows[out])
                out += 1
    return y, out, None


def _sample_blocks(system: ModelSystem, y: np.ndarray, cfg: IntegratorConfig, size: int):
    """The run from the packed state ``y`` as consecutive trajectories of
    up to ``size`` samples. Each block is stepped into one buffer, reused
    for every block, and yielded once its rows are known to be finite; the
    last block also takes the steps after the last sample. Raises
    :class:`IntegrationError` naming the earliest non-finite step of the
    block that holds it."""
    d = system.frame.dim
    every, n = cfg.sample_every, cfg.n_samples
    with np.errstate(over="ignore", invalid="ignore"):
        step_matrix = _rk4_step_matrix(cfg.dt * _rate_matrix(system))
    states = np.empty((min(size, n), y.size))
    states[0] = y
    for first in range(0, n, size):
        stop = min(first + size, n)
        lead = 1 if first == 0 else 0  # row 0 of the first block is the initial state
        last_step = (stop - 1) * every if stop < n else cfg.n_steps
        # a copy: y may view the buffer row this block writes first
        y, out, failed = _steps(step_matrix, y.copy(), (first + lead - 1) * every, last_step,
                                every, states[lead:stop - first])
        row = _first_nonfinite(states, lead, lead + out)
        if row is not None:  # a stored step comes before ``failed``
            failed = (first + row) * every
        if failed is not None:
            raise IntegrationError(failed, failed * cfg.dt)
        block = states[:stop - first]
        ts = cfg.block_times(first, stop)
        means = block[:, :d].copy()
        covs = covariances_from_moments(block[:, d:-1], d)
        for arr in (ts, means, covs):  # fresh arrays: the trajectory adopts them
            arr.setflags(write=False)
        yield Trajectory(system.frame, ts, means, covs, system.params)


@dataclass(frozen=True, eq=False)
class TrajectoryBlocks:
    """A run integrated as it is read. Iterating ``blocks`` takes the steps
    and yields the run's samples as consecutive trajectories, each once its
    samples are known to be finite; a non-finite state raises
    :class:`IntegrationError` from the block that holds it. ``blocks`` can
    be read once. ``ts``, the whole run's sample times, is computed when
    first read."""

    frame: CanonicalFrame
    grid: IntegratorConfig
    params: ModelParams | None
    blocks: Iterator[Trajectory]

    @property
    def n_samples(self) -> int:
        return self.grid.n_samples

    @functools.cached_property
    def ts(self) -> np.ndarray:
        ts = self.grid.sample_times
        ts.setflags(write=False)
        return ts


def integrate(
    system: ModelSystem,
    means0: MeanVector,
    cov0: CovarianceMatrix,
    cfg: IntegratorConfig,
    block: int | None = None,
) -> Trajectory | TrajectoryBlocks:
    """Propagate a (means, covariance) state under a model system.

    Classical fourth-order accuracy; identical inputs produce bit-identical
    trajectories on one platform (fixed evaluation order, no adaptivity).
    Raises :class:`IntegrationError` naming the first step whose state is
    not finite, as soon as it is seen: at once for a step that is not
    stored, within ``_CHECK_ROWS`` samples for a stored one.

    With ``block``, no step is taken yet: the run comes back as
    :class:`TrajectoryBlocks` of ``block`` samples each, and a stored step
    is checked within its block. The steps are the same either way, so a
    block's samples are those rows of the whole run, bit for bit.
    """
    if means0.frame != system.frame or cov0.frame != system.frame:
        raise FrameError(
            f"initial state frame does not match system frame {system.frame.name}"
        )
    if block is not None and block < 1:
        raise ValueError(f"block must be at least 1 sample, got {block!r}")
    d = system.frame.dim
    y = np.concatenate([means0.values, cov0.entries[np.triu_indices(d)], [1.0]])
    blocks = _sample_blocks(system, y, cfg, block or _CHECK_ROWS)
    if block is not None:
        return TrajectoryBlocks(system.frame, cfg, system.params, blocks)
    means, covs = np.empty((cfg.n_samples, d)), np.empty((cfg.n_samples, d, d))
    stop = 0
    for part in blocks:
        rows = slice(stop, stop + part.n_samples)
        means[rows], covs[rows] = part.means, part.covs
        stop = rows.stop
    # after the steps, so a run that fails has filled no more than a block
    ts = cfg.sample_times
    for arr in (ts, means, covs):  # the trajectory adopts them read-only, without a copy
        arr.setflags(write=False)
    return Trajectory(system.frame, ts, means, covs, system.params)


def convergence_order(
    system: ModelSystem,
    means0: MeanVector,
    cov0: CovarianceMatrix,
    cfg: IntegratorConfig,
) -> float:
    """Observed order from a Richardson triple at dt, dt/2, dt/4.

    Integrates to ``cfg.t_end`` three times, storing only the final state,
    and returns ``log2(|y_dt - y_dt/2| / |y_dt/2 - y_dt/4|)`` over it
    (packed, max norm). Choose dt large enough that truncation error stays
    clear of round-off, else the estimate degrades.
    """
    finals = []
    for divisor in (1, 2, 4):
        n_steps = IntegratorConfig(cfg.dt / divisor, cfg.t_end).n_steps
        sub = IntegratorConfig(cfg.dt / divisor, cfg.t_end, sample_every=n_steps)
        traj = integrate(system, means0, cov0, sub)
        finals.append(np.concatenate([traj.means[-1], traj.covs[-1].ravel()]))
    err_coarse = float(np.abs(finals[0] - finals[1]).max())
    err_fine = float(np.abs(finals[1] - finals[2]).max())
    if err_fine == 0.0:
        raise ValueError("refinement errors vanished; dt too small to resolve order")
    return math.log2(err_coarse / err_fine)
