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
a time and once more at the end. A failure still names its exact step:
the earliest non-finite one of either kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import CovarianceMatrix, FrameError, MeanVector, Trajectory
from .model import covariances_from_moments, finite_real
from .systems import ModelSystem, moment_rows

__all__ = ["MAX_STEPS", "IntegratorConfig", "IntegrationError", "integrate", "convergence_order"]


# Largest accepted step count t_end/dt: 50 times the largest grid the tests
# and the benchmark run (200 000 steps). At sample_every = 1 a two-oscillator
# trajectory stores 168 bytes a sample (t, 4 means, the 4x4 covariance), and
# integrating it peaks at 288 bytes a sample (traced by tracemalloc): this
# grid would hold 1.7 GB of samples and need 2.9 GB while it is integrated,
# so larger grids are refused before anything is allocated.
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
    def sample_times(self) -> np.ndarray:
        """The sample grid ``(k*sample_every)*dt``, k = 0 .. n_steps//sample_every."""
        return (np.arange(self.n_steps // self.sample_every + 1) * self.sample_every) * self.dt


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
    bad = ~np.isfinite(states[start:stop].sum(axis=1))
    return start + int(np.argmax(bad)) if bad.any() else None


def integrate(
    system: ModelSystem,
    means0: MeanVector,
    cov0: CovarianceMatrix,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Propagate a (means, covariance) state under a model system.

    Classical fourth-order accuracy; identical inputs produce bit-identical
    trajectories on one platform (fixed evaluation order, no adaptivity).
    Raises :class:`IntegrationError` naming the first step whose state is
    not finite, as soon as it is seen: at once for a step that is not
    stored, within ``_CHECK_ROWS`` samples for a stored one.
    """
    if means0.frame != system.frame or cov0.frame != system.frame:
        raise FrameError(
            f"initial state frame does not match system frame {system.frame.name}"
        )
    d = system.frame.dim
    y = np.concatenate([means0.values, cov0.entries[np.triu_indices(d)], [1.0]])

    n_steps = cfg.n_steps
    every = cfg.sample_every
    states = np.empty((n_steps // every + 1, y.size))
    states[0] = y

    h = cfg.dt
    out = 1
    checked = 1  # rows states[:checked] are known to be finite
    failed = None  # the first step not stored whose state is not finite
    # overflow is expected on divergent systems and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        step_matrix = _rk4_step_matrix(h * _rate_matrix(system))
        advance = step_matrix.dot
        for step in range(1, n_steps + 1):
            if step % every:
                y = advance(y)
                if not math.isfinite(float(y.sum())):
                    failed = step
                    break
            else:  # a sample: the product is written into its row
                y = np.dot(step_matrix, y, out=states[out])
                out += 1
                if out - checked == _CHECK_ROWS:
                    if _first_nonfinite(states, checked, out) is not None:
                        break
                    checked = out
        # the rows not checked yet; a bad one comes before ``failed``
        row = _first_nonfinite(states, checked, out)
    if row is not None:
        failed = row * every
    if failed is not None:
        raise IntegrationError(failed, failed * h)

    # the trajectory adopts these arrays read-only, without copying them;
    # states, which y may still view, goes before it is built. The sample
    # times come last, so a run that fails has filled no more than a block.
    ts = cfg.sample_times
    covs = covariances_from_moments(states[:, d:-1], d)
    means = states[:, :d].copy()
    del states, y
    for arr in (ts, means, covs):
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
