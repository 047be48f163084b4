"""Deterministic fixed-step fourth-order Runge-Kutta propagation.

The models here are linear and non-stiff at the parameters of interest, so
a fixed-step classical RK4 is used: it is fourth-order accurate, has no
adaptivity state, and therefore reproduces results bit-for-bit on one
platform. The state is ``[means, moments, 1]``: the independent second
moments in the order of ``moment_layout``, and a coordinate fixed at 1 that
carries the diffusion source (Van Loan, IEEE TAC 23(3), 1978). The
covariance is unpacked from the moments, so it is symmetric by
construction.

The system is linear and time-invariant, so one RK4 step is one fixed
matrix ``P = I + H``, whose increment ``H`` is the degree-4 Taylor
polynomial of ``h`` times the rate matrix less its constant term. It is
built once per run. When every step is stored (``sample_every = 1``), the
run also builds a table of ``D_j = P^j - I`` for j = 1 .. 256, by doubling
from ``H``, and fills the samples 256 at a time as ``y_a + D_j y_a``: one
product of the whole table with an anchor ``y_a``, a sample whose index is
a multiple of 256. Keeping the identity out of the table keeps its rounding
relative to the change of the state, not to the state. Otherwise each step
is one matrix-vector product, written into the next row of a buffer that
holds one span of steps: a sample interval, or the fewest whole intervals
of at least 8 steps, and never more than 256 steps. Every state must have
a finite sum, and one rule tests it: the step loop scans each span in one
vectorised pass before copying its samples out, so a step that is not
stored is tested within its span, as a stored one is, and a dense run
scans each product of the table before any of its rows is handed on. A
table row that is not finite sends its 256 samples back through the step
loop from their anchor, so a failure still names its exact step: the
earliest non-finite one.

One loop steps every run, in chunks of up to 256 samples after an anchor,
each handed on once its steps are found finite. One rule, shared with the
CSV reader, regroups the chunks into blocks of any size in one reused
buffer; ``integrate`` copies the blocks into arrays of the whole run or
hands them out as they are filled. No sample depends on the block size.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .model import CanonicalFrame, CovarianceMatrix, FrameError, MeanVector, ModelParams
from .model import Trajectory
from .model import covariances_from_moments, finite_real, moment_layout
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

# Rows of the buffer a run integrated whole is regrouped into. A run that
# blows up stops within the chunk that holds the step: a sparse run scans
# each span of at most 256 steps, and a dense run each table product.
_ASSEMBLY_BLOCK = 4096

# Powers of the step matrix in the table a run that stores every step is
# filled from: 0.46 MB for the 15-wide state of two oscillators.
_TABLE_ROWS = 256

# Fewest steps in a span of the step loop. A span's scan and sample copy
# cost about 2.7 us, as much as seven tests of one state each (0.4 us: a dot
# with a vector of ones), so from 8 steps a span costs less a step than such
# tests (0.77 against 0.84 us a step, in-process on a 2-core x86-64 VM).
_SCAN_MIN = 8


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
    layout = moment_layout(d)
    mat = np.zeros((d + len(layout.rows) + 1,) * 2)
    mat[:d, :d] = system.a_classical
    mat[d:-1, d:-1] = moment_rows(system.a_moment)
    mat[d:-1, -1] = system.diffusion[layout.rows, layout.cols]
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
    """Index of the first row of ``states`` whose sum is not finite, or
    None: the one finiteness test of every step. The row sums are totalled
    first, and looked up only when the total is not finite (a non-finite
    sum, or finite sums whose total overflows). Sums that overflow or meet
    +inf and -inf warn, so the caller ignores those (``np.errstate``), as
    it does while stepping."""
    sums = states.sum(axis=1)
    if math.isfinite(sums.sum()):
        return None
    bad = ~np.isfinite(sums)
    return int(np.argmax(bad)) if bad.any() else None


def _steps(step_matrix: np.ndarray, y: np.ndarray, start: int, stop: int, every: int,
           rows: np.ndarray):
    """Take the steps ``start + 1 .. stop`` from ``y``, the state at step
    ``start``, a multiple of ``every``, writing each ``every``-th state into
    the next row of ``rows``. The steps go a span at a time into the rows of
    one buffer, and each span is scanned once by :func:`_first_nonfinite`
    before its samples are copied out; the first step whose state is not
    finite, stored or not, ends the steps. A span is one sample interval,
    or the fewest whole intervals of at least ``_SCAN_MIN`` steps, and
    never more than ``_TABLE_ROWS`` steps. Returns the first step whose
    state is not finite, or None if there is none."""
    span = min(-(-_SCAN_MIN // every) * every, _TABLE_ROWS)
    states = np.empty((span + 1, y.size))
    views = list(states)
    pairs = list(zip(views, views[1:]))
    advance = step_matrix.dot
    states[0] = y
    out = 0
    # overflow is expected on divergent systems and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(start, stop, span):  # the state at step is states[0]
            length = min(span, stop - step)
            for state, following in pairs[:length]:
                advance(state, following)
            bad = _first_nonfinite(states[1:length + 1])
            end = length + 1 if bad is None else bad + 1  # the rows before a failure
            samples = states[every - step % every:end:every]
            rows[out:out + len(samples)] = samples
            out += len(samples)
            if bad is not None:
                return step + end
            states[0] = states[length]
    return None


def _samples(system: ModelSystem, y: np.ndarray, cfg: IntegratorConfig):
    """The run from ``y`` (sample 0, yielded with the first chunk) as chunks
    of the samples ``a + 1 .. a + _TABLE_ROWS`` after each anchor ``a``, a
    multiple of ``_TABLE_ROWS``: views of one buffer, each yielded once its
    steps are found finite. At ``sample_every = 1`` a chunk is one product
    of the power table with the anchor, sent back through :func:`_steps` if
    a row is not finite; otherwise it is :func:`_steps`, the last chunk
    taking the steps after the last sample too. At a failing step the chunk
    yields the samples before it (not the last sample, if after it) and
    raises :class:`IntegrationError`."""
    every, n = cfg.sample_every, cfg.n_samples
    with np.errstate(over="ignore", invalid="ignore"):
        increment = _rk4_increment(cfg.dt * _rate_matrix(system))
        step_matrix = np.eye(y.size) + increment
    flat = _power_table(increment).reshape(-1, y.size) if every == 1 else None
    buf = np.empty((_TABLE_ROWS + 1, y.size))  # the anchor, then its chunk
    buf[0] = y
    for a in range(0, max(n - 1, 1), _TABLE_ROWS):
        count = min(_TABLE_ROWS, n - 1 - a)
        rows, failed = buf[1:], None
        with np.errstate(over="ignore", invalid="ignore"):
            if flat is not None:
                np.dot(flat, buf[0], out=rows.reshape(-1))
                np.add(rows, buf[0], out=rows)
            if flat is None or _first_nonfinite(rows[:count]) is not None:
                last = (a + count) * every if a + count < n - 1 else cfg.n_steps
                failed = _steps(step_matrix, buf[0], a * every, last, every, rows)
        lead = 0 if a == 0 else 1  # sample 0 comes with the first chunk
        if failed is not None:  # the samples before it; after the last, not that one
            yield buf[lead:min(-(-failed // every), n - 1) - a]
            raise IntegrationError(failed, failed * cfg.dt)
        yield buf[lead:count + 1]
        buf[0] = buf[count]


def _reblocked(parts, size: int | None, width: int, rows: int):
    """The rows of ``parts``, a stream of (k, width) arrays, regrouped in
    order into blocks of ``size`` rows (the last may be shorter; one block
    when None). Each block is a view of one buffer that the next block
    overwrites. The buffer starts at ``rows`` rows (at least 1) and doubles,
    up to ``size``, when a block needs more; a full block is yielded at
    once, the last when ``parts`` ends."""
    data = np.empty((rows if size is None else min(size, rows), width))
    filled = 0
    for part in parts:
        while len(part):
            if filled == len(data):
                grow = len(data) if size is None else min(len(data), size - len(data))
                data = np.resize(data, (len(data) + grow, width))
            taken = part[:len(data) - filled]
            data[filled:filled + len(taken)] = taken
            filled += len(taken)
            part = part[len(taken):]
            if filled == size:
                yield data
                filled = 0
    if filled:
        yield data[:filled]


def _sample_blocks(system: ModelSystem, y: np.ndarray, cfg: IntegratorConfig, size: int):
    """The run from the packed state ``y`` as consecutive trajectories of
    up to ``size`` samples: :func:`_samples` regrouped by :func:`_reblocked`."""
    d = system.frame.dim
    first = 0
    for block in _reblocked(_samples(system, y, cfg), size, y.size, cfg.n_samples):
        stop = first + len(block)
        ts = cfg.block_times(first, stop)
        means = block[:, :d].copy()
        covs = covariances_from_moments(block[:, d:-1], d)
        for arr in (ts, means, covs):  # fresh arrays: the trajectory adopts them
            arr.setflags(write=False)
        yield Trajectory(system.frame, ts, means, covs, system.params)
        first = stop


@dataclass(frozen=True, eq=False)
class TrajectoryBlocks:
    """A run integrated as it is read. Iterating ``blocks`` takes the steps
    and yields the run's samples as consecutive trajectories, each once
    its steps are found finite; a non-finite state raises
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


def _packed(system: ModelSystem, means0: MeanVector, cov0: CovarianceMatrix) -> np.ndarray:
    """The state ``[means, moments, 1]`` of (``means0``, ``cov0``)."""
    if means0.frame != system.frame or cov0.frame != system.frame:
        raise FrameError(f"initial state frame does not match system frame {system.frame.name}")
    layout = moment_layout(system.frame.dim)
    return np.concatenate([means0.values, cov0.entries[layout.rows, layout.cols], [1.0]])


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
    not finite, as soon as it is seen: within its span of at most 256
    steps, stored or not, in a sparse run, and within its chunk of 256
    samples in a dense run.

    With ``block``, an integer >= 1 (else ``ValueError`` naming it), no
    step is taken yet: the run comes back as :class:`TrajectoryBlocks` of
    ``block`` samples each, regrouped from the same chunks, so a block's
    samples are those rows of the whole run, bit for bit.
    """
    y = _packed(system, means0, cov0)
    if block is not None:
        block = finite_real("block", block, integral=True)
        if block < 1:
            raise ValueError(f"block must be at least 1 sample, got {block!r}")
    d = system.frame.dim
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

    Integrates to ``cfg.t_end`` three times, every step stored, keeping
    only the final packed state, and returns ``log2(|y_dt - y_dt/2| /
    |y_dt/2 - y_dt/4|)`` over it (max norm; the packed moments are the
    covariance's entries, so it is the estimate of three dense runs).
    Choose dt large enough that truncation error stays clear of round-off,
    else the estimate degrades.
    """
    y = _packed(system, means0, cov0)
    finals = []
    for divisor in (1, 2, 4):
        for chunk in _samples(system, y, IntegratorConfig(cfg.dt / divisor, cfg.t_end, 1)):
            pass
        finals.append(chunk[-1].copy())
    err_coarse = float(np.abs(finals[0] - finals[1]).max())
    err_fine = float(np.abs(finals[1] - finals[2]).max())
    if err_fine == 0.0:
        raise ValueError("refinement errors vanished; dt too small to resolve order")
    return math.log2(err_coarse / err_fine)
