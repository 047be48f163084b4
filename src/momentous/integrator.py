"""Deterministic fixed-step fourth-order Runge-Kutta propagation.

The models here are linear and non-stiff at the parameters of interest, so
a fixed-step classical RK4 is used: it is fourth-order accurate, has no
adaptivity state, and therefore reproduces results bit-for-bit on one
platform. The state is ``[means, moments, 1]``: the independent second
moments in ``moment_order``, and a coordinate fixed at 1 that carries the
diffusion source (Van Loan, IEEE TAC 23(3), 1978). The covariance is
unpacked from the moments, so it is symmetric by construction.

The system is linear and time-invariant, so one RK4 step is one fixed
matrix ``P = I + H``, whose increment ``H`` is the degree-4 Taylor
polynomial of ``h`` times the rate matrix less its constant term. It is
built once per run. When every step is stored (``sample_every = 1``), the
run also builds a table of ``D_j = P^j - I`` for j = 1 .. 256, by doubling
from ``H``, and fills the samples 256 at a time as ``y_a + D_j y_a``: one
product of the whole table with an anchor ``y_a``, a sample whose index is
a multiple of 256. Keeping the identity out of the table keeps its rounding
relative to the change of the state, not to the state. Otherwise each step
is one matrix-vector product. A step that is not stored is checked for
finiteness at once, since its value is lost: its sum, one dot of the state
with a vector of ones, must be finite. A stored sample is checked
once, by the pass that fills it: the step loop scans the rows it wrote in
one vectorised pass, and a dense run scans each product of the table
before any of its rows is handed on. A table row that is not finite sends
its 256 samples back through the step loop from their anchor, so a
failure still names its exact step: the earliest non-finite one of either
kind.

One loop hands out every run, a block of samples at a time. ``integrate``
copies the blocks into arrays of the whole run; asked for blocks, it
hands them out as they are filled, so a caller holds one block at a time.
The anchors do not depend on the block size, so neither does any sample.
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
# and the benchmark run (200 000 steps), which bounds a command's time. No
# command holds a whole run: each reads its runs block by block, one block
# (1.9 MB at 4096 samples) however long the run. Only a library call of
# integrate(..., block=None) holds one. At sample_every = 1 it stores 168
# bytes a sample of a two-oscillator run (t, 4 means, the 4x4 covariance)
# and peaks near 180 (traced by tracemalloc at 80 000 and 160 000 samples:
# the run plus one block), so this grid would need 1.8 GB there; larger
# grids are refused before anything is allocated.
MAX_STEPS = 10**7

# Samples in each block a run integrated whole is assembled from. A run
# that blows up stops sooner: a stored non-finite state makes the next
# step, not stored in a sparse run, fail the per-step test at once, and a
# dense run scans each table product of 256 samples.
_ASSEMBLY_BLOCK = 4096

# Powers of the step matrix in the table a run that stores every step is
# filled from: 0.46 MB for the 15-wide state of two oscillators.
_TABLE_ROWS = 256


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


def _rk4_increment(hm: np.ndarray) -> np.ndarray:
    """The increment ``H = P - I`` of one classical RK4 step ``P`` of
    ``y' = M y``, from ``hm = h*M``.

    On a linear autonomous system the four stages compose to the degree-4
    Taylor polynomial ``I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24``; ``H``
    is that polynomial less ``I``, here in Horner form.
    """
    eye = np.eye(len(hm))
    return hm @ (eye + hm @ (eye / 2.0 + hm @ (eye / 6.0 + hm / 24.0)))


def _power_table(increment: np.ndarray) -> np.ndarray:
    """``D_j = P^j - I`` for j = 1 .. ``_TABLE_ROWS``, with ``P = I +
    increment``, stacked. Built by doubling, ``D_(i+k) = D_i + D_k + D_i
    D_k``, so no power holds the identity and its rounding stays relative
    to ``D_j``."""
    table = np.empty((_TABLE_ROWS, *increment.shape))
    table[0] = increment
    known = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while known < _TABLE_ROWS:
            new = table[known:2 * known]
            last, low = table[known - 1], table[:len(new)]
            np.add(low, last, out=new)
            new += low @ last
            known += len(new)
    return table


def _first_nonfinite(states: np.ndarray) -> int | None:
    """Index of the first row of ``states`` whose sum is not finite (the
    per-step test, vectorised), or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(states.sum(axis=1))
    return int(np.argmax(bad)) if bad.any() else None


def _steps(step_matrix: np.ndarray, y: np.ndarray, start: int, stop: int, every: int,
           rows: np.ndarray):
    """Take the steps ``start + 1 .. stop`` from ``y``, the state at step
    ``start``, a multiple of ``every``. Each ``every``-th state is written
    into the next row of ``rows``; any other is checked for finiteness at
    once (its sum, one dot with a vector of ones, must be finite), and the
    first that is not finite ends the steps. The rows written are then
    checked in one scan. Returns the last state and the first step whose
    state is not finite, stored or not (None if there is none)."""
    advance, total = step_matrix.dot, np.ones(y.size).dot
    out, failed = 0, None
    # overflow is expected on divergent systems and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(start + 1, stop + 1):
            if step % every:
                y = advance(y)
                if not math.isfinite(total(y)):
                    failed = step
                    break
            else:  # a sample: the product is written into its row
                y = np.dot(step_matrix, y, out=rows[out])
                out += 1
    row = _first_nonfinite(rows[:out])
    if row is not None:  # a stored step comes before a failed one not stored
        failed = (start // every + 1 + row) * every
    return y, failed


def _tabulator(increment: np.ndarray, step_matrix: np.ndarray, y: np.ndarray, n: int):
    """Filler of a run of ``n`` samples that stores every step:
    ``fill(start, stop, rows)`` writes the samples ``start .. stop - 1``
    into ``rows``, going on from the sample before ``start`` (``y`` is
    sample 0), and returns the first of them that is not finite, or None.
    The samples ``a + 1 .. a + _TABLE_ROWS``, ``a`` a multiple of
    ``_TABLE_ROWS``, are one product of the whole power table of
    ``increment`` with the anchor ``y_a``, into a buffer reused for the
    run, so no sample depends on how the run is split. Each product is
    scanned once; if one of its samples that lies in the run is not
    finite, they are stepped again from ``y_a`` by ``step_matrix``, and the
    fill stops at the first that still is."""
    flat = _power_table(increment).reshape(-1, y.size)
    held = np.empty((_TABLE_ROWS, y.size))  # the samples held_at + 1 ..
    anchor, held_at, failed = y.copy(), None, None  # failed: the first bad one held

    def fill(start, stop, rows):
        nonlocal anchor, held_at, failed
        row = start
        while row < stop:
            a = (row - 1) // _TABLE_ROWS * _TABLE_ROWS
            if a != held_at:
                if held_at is not None:
                    anchor = held[-1].copy()
                count = min(_TABLE_ROWS, n - 1 - a)
                with np.errstate(over="ignore", invalid="ignore"):
                    np.dot(flat, anchor, out=held.reshape(-1))
                    np.add(held, anchor, out=held)
                failed = None
                if _first_nonfinite(held[:count]) is not None:
                    failed = _steps(step_matrix, anchor.copy(), a, a + count, 1, held)[1]
                held_at = a
            end = min(stop, a + _TABLE_ROWS + 1)
            rows[row - start:end - start] = held[row - 1 - a:end - 1 - a]
            if failed is not None and failed < end:
                return failed
            row = end
        return None

    return fill


def _sample_blocks(system: ModelSystem, y: np.ndarray, cfg: IntegratorConfig, size: int):
    """The run from the packed state ``y`` as consecutive trajectories of
    up to ``size`` samples. Each block is filled into one buffer, reused
    for every block, and yielded once the pass that filled it has found its
    rows finite. Raises :class:`IntegrationError` naming the earliest
    non-finite step of the block that holds it."""
    d = system.frame.dim
    every, n = cfg.sample_every, cfg.n_samples
    with np.errstate(over="ignore", invalid="ignore"):
        increment = _rk4_increment(cfg.dt * _rate_matrix(system))
        step_matrix = np.eye(y.size) + increment
    tabulate = _tabulator(increment, step_matrix, y, n) if every == 1 else None
    states = np.empty((min(size, n), y.size))
    states[0] = y
    for first in range(0, n, size):
        stop = min(first + size, n)
        lead = 1 if first == 0 else 0  # row 0 of the first block is the initial state
        rows = states[lead:stop - first]
        if tabulate:
            failed = tabulate(first + lead, stop, rows)
        else:  # the last block also takes the steps after the last sample
            last_step = (stop - 1) * every if stop < n else cfg.n_steps
            # a copy: y may view the buffer row this block writes first
            y, failed = _steps(step_matrix, y.copy(), (first + lead - 1) * every, last_step,
                               every, rows)
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
    and yields the run's samples as consecutive trajectories, each once the
    pass that filled it has found them finite; a non-finite state raises
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
    stored, at the next step for a stored one of a sparse run, and within
    its table product of 256 samples for one of a dense run.

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
    blocks = _sample_blocks(system, y, cfg, block or _ASSEMBLY_BLOCK)
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

    Integrates to ``cfg.t_end`` three times, every step stored and read a
    block at a time, keeping only the final state, and returns
    ``log2(|y_dt - y_dt/2| / |y_dt/2 - y_dt/4|)`` over it (packed, max
    norm): the estimate of three dense runs. Choose dt large enough that
    truncation error stays clear of round-off, else the estimate degrades.
    """
    finals = []
    for divisor in (1, 2, 4):
        run = integrate(system, means0, cov0, IntegratorConfig(cfg.dt / divisor, cfg.t_end, 1),
                        _ASSEMBLY_BLOCK)
        for last in run.blocks:
            pass
        finals.append(np.concatenate([last.means[-1], last.covs[-1].ravel()]))
    err_coarse = float(np.abs(finals[0] - finals[1]).max())
    err_fine = float(np.abs(finals[1] - finals[2]).max())
    if err_fine == 0.0:
        raise ValueError("refinement errors vanished; dt too small to resolve order")
    return math.log2(err_coarse / err_fine)
