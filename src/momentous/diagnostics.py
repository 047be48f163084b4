"""Initial states, derived observables, invariant audits, run comparison.

Everything here is read-only analysis: functions take runs (a trajectory,
bare or as a :class:`Run`) or parameters and return reports, never
mutating their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    BT1,
    L1,
    XY,
    CanonicalFrame,
    CovarianceMatrix,
    MeanVector,
    ModelParams,
    Trajectory,
    _negative_variance,
    _pair_determinant,
    _uncertainty_bound,
    _uncertainty_test,
    finite_real,
    moment_layout,
    transform_state,
)
from .systems import classical_analytic, lindblad_margin, moment_margin, xy_view

__all__ = [
    "Run",
    "coherent_initial_state",
    "classical_trajectory",
    "lindblad_mean_energy",
    "EnergyReport",
    "energy_report",
    "InvariantAudit",
    "audit",
    "audit_tolerance",
    "AuditJoin",
    "ColumnMetrics",
    "compare",
    "CompareJoin",
    "trajectory_columns",
    "G1_COLUMNS",
    "PAIR_COLUMNS",
    "GridMismatchError",
    "CorruptedStateError",
]


def coherent_initial_state(
    params: ModelParams, frame: CanonicalFrame = BT1
) -> tuple[MeanVector, CovarianceMatrix]:
    """Displaced-ground-state initial data.

    The displacement is fixed so that the oscillator starts on the
    ``n_level``-th energy level: ``x0 = sqrt(2*n*hbar/(m*omega))`` with zero
    initial momentum. Variances take the ground-state values
    ``hbar/(2*m*omega)`` and ``m*hbar*omega/2`` with no cross correlation,
    which saturates the uncertainty relation exactly.

    In the BT1 frame the mirror sector carries the same data, giving means
    ``(2*sqrt(n*hbar/(m*omega)), 0, 0, 0)`` and variances
    ``(hbar/2m*omega, m*hbar*omega/2, m*hbar*omega/2, hbar/2m*omega)``
    down the diagonal. Other two-mode frames get this state through
    :func:`transform_state`, which raises ``FrameError`` for a frame it
    cannot reach.

    Raises ``OverflowError`` when a mean or a variance is beyond the float
    range.
    """
    m, hb, w = params.m, params.hbar, params.omega
    try:
        gq = hb / (2.0 * m * w)
        if frame == L1:
            x0 = math.sqrt(2.0 * params.n_level * hb / (m * w))
        else:
            x0 = 2.0 * math.sqrt(params.n_level * hb / (m * w))  # the BT1 x1
    except ZeroDivisionError:  # m*omega underflowed to 0
        gq = x0 = math.inf
    gp = m * hb * w / 2.0
    if not all(map(math.isfinite, (x0, gq, gp))):
        raise OverflowError("the coherent initial state overflows")
    if frame == L1:
        return (
            MeanVector(L1, [x0, 0.0]),
            CovarianceMatrix(L1, np.diag([gq, gp])),
        )
    means = MeanVector(BT1, [x0, 0.0, 0.0, 0.0])
    cov = CovarianceMatrix(BT1, np.diag([gq, gp, gp, gq]))
    return transform_state(means, cov, frame)


def classical_trajectory(params: ModelParams, ts: np.ndarray) -> Trajectory:
    """The classical closed form at the times ``ts``: an L1 trajectory of
    :func:`classical_analytic` from the coherent initial state's means, with
    zero covariances. Each sample depends only on its time. Raises
    ``OverflowError`` when the initial state or a sample overflows."""
    means0, _ = coherent_initial_state(params, L1)
    means = np.column_stack(classical_analytic(params, *means0.values, ts))
    covs = np.zeros((len(ts), L1.dim, L1.dim))
    for arr in (means, covs):  # fresh arrays: the trajectory adopts them
        arr.setflags(write=False)
    return Trajectory(L1, ts, means, covs, params)


def lindblad_mean_energy(params: ModelParams, t) -> np.ndarray:
    """Closed-form mean energy of the thermal damped oscillator.

    ``E(t) = (n_level*e + nbar*(1 - e) + 1/2) * hbar * omega`` with
    ``e = exp(-gamma*t)``, decaying from the initial level to the
    reservoir-dressed floor. Written with ``1 - e = -expm1(-gamma*t)`` and
    without the difference ``n_level - nbar``, so a large ``nbar`` does not
    cancel ``n_level`` away.
    """
    t = np.asarray(t, dtype=float)
    hw = params.hbar * params.omega
    with np.errstate(over="ignore"):  # beyond the float range the law reads inf
        return (params.n_level * np.exp(-params.gamma * t)
                - params.nbar * np.expm1(-params.gamma * t) + 0.5) * hw


def _default_energy_omega(frame: CanonicalFrame, params: ModelParams) -> float:
    return params.big_omega if frame in (BT1, XY) else params.omega


@dataclass(frozen=True, eq=False)
class Run:
    """A trajectory and what derives from it, each computed at most once and
    only when read: ``physical``, the physical oscillator's run (the XY view
    of a BT1 run, else the run itself), and ``energies``, its energy report.
    The analysis functions take a ``Run`` or a bare trajectory.

    A ``Run`` may hold one block of a longer run, its trajectory built over
    read-only views of that run's samples (a ``Trajectory`` adopts them
    without a copy). Every derived value is per sample, so a block's values
    are those rows of the whole run's, bit for bit, and its XY view and
    energies last only as long as the block's ``Run``."""

    traj: Trajectory

    @functools.cached_property
    def physical(self) -> Trajectory:
        return xy_view(self.traj) if self.traj.frame == BT1 else self.traj

    @functools.cached_property
    def energies(self) -> EnergyReport:
        return energy_report(self)


def _as_run(traj: Run | Trajectory) -> Run:
    return traj if isinstance(traj, Run) else Run(traj)


def _run_params(traj: Trajectory) -> ModelParams:
    if traj.params is None:
        raise ValueError("trajectory carries no parameters")
    return traj.params


class CorruptedStateError(ValueError):
    """A run's moments hold a negative variance, which no physical state has."""


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Per-sample energies of a run (arrays share the trajectory grid).

    ``e_mean`` is the mechanical energy including the moment contribution,
    ``e_plus``/``e_minus`` shift position and momentum by one standard
    deviation before evaluating it, and ``e_analytic`` is the closed-form
    thermal decay law. The belts are definitions, not bounds.
    """

    ts: np.ndarray = field(repr=False)
    e_mean: np.ndarray = field(repr=False)
    e_plus: np.ndarray = field(repr=False)
    e_minus: np.ndarray = field(repr=False)
    e_analytic: np.ndarray = field(repr=False)


def energy_report(traj: Run | Trajectory) -> EnergyReport:
    """Mean energy, dispersion-belt energies, and the analytic decay law.

    For BT1 runs the XY view is taken first so that x and p_x refer to the
    physical oscillator. The energy frequency is the effective frequency
    for four-coordinate runs and the Lindblad frequency for single-pair
    runs; at the equivalence-mode presets the two coincide. Raises
    :class:`CorruptedStateError` naming the first sample with a negative
    variance.
    """
    run = _as_run(traj)
    traj = run.traj
    params = _run_params(traj)
    w = _default_energy_omega(traj.frame, params)
    view = run.physical
    x = view.means[:, 0]
    p = view.means[:, 1]
    g20 = view.covs[:, 0, 0]
    g02 = view.covs[:, 1, 1]
    negative = _negative_variance(view.covs)
    if negative.any():
        t = float(traj.ts[np.argmax(negative)])
        raise CorruptedStateError(
            f"negative diagonal moment at t = {t:g}; upstream state is corrupted"
        )
    m = params.m
    kin = 0.5 / m
    pot = 0.5 * m * w * w
    sig_x = np.sqrt(g20)
    sig_p = np.sqrt(g02)
    with np.errstate(over="ignore"):  # an energy beyond the float range reads inf
        e_mean = kin * (p**2 + g02) + pot * (x**2 + g20)
        e_plus = kin * (p + sig_p) ** 2 + pot * (x + sig_x) ** 2
        e_minus = kin * (p - sig_p) ** 2 + pot * (x - sig_x) ** 2
    return EnergyReport(
        ts=traj.ts,
        e_mean=e_mean,
        e_plus=e_plus,
        e_minus=e_minus,
        e_analytic=lindblad_mean_energy(params, traj.ts),
    )


# ---------------------------------------------------------------------------
# invariant audit

@dataclass(frozen=True, eq=False)
class InvariantAudit:
    """Uncertainty and diffusion audit of one run: the summary it prints.

    A sample is flagged when an uncertainty determinant (of the physical
    pair; for BT1 runs, of the first pair and of the XY view's) is not
    finite or drops below ``hbar**2/4 - tol``, or a variance of its pair is
    negative. ``first_violation`` is the first flagged sample's ``(data
    row, time)``, rows counted from 1; a minimum is NaN when a sample's is.
    Diffusion margins and the late-time energy are reported, never enforced.
    """

    tol: float
    hbar: float
    n_samples: int
    n_violations: int = 0
    first_violation: tuple[int, float] | None = None
    min_uncertainty: float = math.nan
    margin_lindblad: float = math.nan
    margin_moment_min: float | None = None
    final_mean_energy: float = math.nan
    ground_state_bound: float = math.nan
    corrupted: bool = False  # a physical variance is negative: no energies

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def summary(self) -> str:
        lines = [
            f"samples audited: {self.n_samples}",
            f"uncertainty violations: {self.n_violations} "
            f"(bound {_uncertainty_bound(self.hbar):g}, tol {self.tol:g}, "
            f"min determinant {self.min_uncertainty:.6g})",
        ]
        if self.first_violation is not None:
            row, t = self.first_violation
            lines.append(f"first violation: t = {t:g}, data row {row}")
        lines.append(f"diffusion margin (thermal model): {self.margin_lindblad:.6g}")
        if self.margin_moment_min is not None:
            lines.append(f"diffusion margin (moment model, min): {self.margin_moment_min:.6g}")
        lines.append(
            f"final mean energy: {self.final_mean_energy:.9g} "
            f"(ground-state bound {self.ground_state_bound:g})"
        )
        return "\n".join(lines)


def audit_tolerance(tol) -> float:
    """``tol`` as a tolerance :func:`audit` can judge by, a finite float
    >= 0, else ``ValueError`` naming it: a NaN tolerance flags every
    sample, a negative one every sample at the bound, and an infinite one
    none, whatever the moments hold."""
    tol = finite_real("tol", tol)
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    return tol


def audit(traj: Run | Trajectory, tol: float = 1e-9) -> InvariantAudit:
    """Audit a run against the uncertainty bound and diffusion margins.

    Never raises on violations; inspect ``ok``/``n_violations``. A ``tol``
    that :func:`audit_tolerance` refuses raises ``ValueError``. Expects a
    run with quantum moments (BT1, XY, or the single-pair frame). A run with
    a negative physical variance has no energies: it is ``corrupted`` and
    its final mean energy is NaN. The per-sample determinants and flags are
    reduced to the summary fields and not kept.

    A long run may be audited block by block: an :class:`AuditJoin` folds
    the audits of its consecutive blocks into the audit of the whole run.
    """
    tol = audit_tolerance(tol)
    run = _as_run(traj)
    traj = run.traj
    params = _run_params(traj)
    u_pair1, flags = _uncertainty_test(traj.covs, params.hbar, tol)
    min_uncertainty = u_pair1.min()
    margin_moment_min = None
    if traj.frame == BT1:
        u_xy, xy_flags = _uncertainty_test(run.physical.covs, params.hbar, tol)
        flags = flags | xy_flags
        # np.minimum keeps a NaN of either; min() drops its second
        min_uncertainty = np.minimum(min_uncertainty, u_xy.min())
        margin_moment_min = float(moment_margin(params, u_pair1).min())
    first = int(np.argmax(flags))  # 0 when no sample is flagged
    first_violation = (first + 1, float(traj.ts[first])) if flags[first] else None
    try:
        final_energy, corrupted = float(run.energies.e_mean[-1]), False
    except CorruptedStateError:
        final_energy, corrupted = math.nan, True  # corrupted moments; already flagged above
    return InvariantAudit(
        tol=tol,
        hbar=params.hbar,
        n_samples=traj.n_samples,
        n_violations=int(flags.sum()),
        first_violation=first_violation,
        min_uncertainty=float(min_uncertainty),
        margin_lindblad=lindblad_margin(params),
        margin_moment_min=margin_moment_min,
        final_mean_energy=final_energy,
        ground_state_bound=0.5 * params.hbar * _default_energy_omega(traj.frame, params),
        corrupted=corrupted,
    )


class AuditJoin:
    """The audit of a run of ``n`` samples folded from the audits of its
    consecutive blocks, added in order with :meth:`add`; no block's
    samples outlive its audit. Counts add; the minimum determinant and the
    minimum moment margin fold by ``np.minimum``, so a NaN is kept; the
    first violation is the first block's that has one, its data row offset
    by the rows before that block. The final energy is the last block's,
    NaN once any block is ``corrupted``. :meth:`audit` is then the audit of
    the whole run, as :func:`audit` of it would print it."""

    def __init__(self, n: int):
        self.n, self.joined = n, None

    def add(self, part: InvariantAudit) -> None:
        done = self.joined
        if done is not None:
            first, margin = done.first_violation, part.margin_moment_min
            if first is None and part.first_violation is not None:
                row, t = part.first_violation
                first = (row + done.n_samples, t)
            if margin is not None:
                margin = float(np.minimum(done.margin_moment_min, margin))
            part = replace(
                part,
                n_samples=done.n_samples + part.n_samples,
                n_violations=done.n_violations + part.n_violations,
                first_violation=first,
                min_uncertainty=float(np.minimum(done.min_uncertainty, part.min_uncertainty)),
                margin_moment_min=margin,
                final_mean_energy=math.nan if done.corrupted else part.final_mean_energy,
                corrupted=done.corrupted or part.corrupted,
            )
        self.joined = part

    def audit(self) -> InvariantAudit:
        covered = 0 if self.joined is None else self.joined.n_samples
        if covered != self.n:
            raise ValueError(f"the blocks' audits cover {covered} of the run's {self.n} samples")
        return self.joined


# ---------------------------------------------------------------------------
# trajectory columns and comparison

class GridMismatchError(ValueError):
    """Two runs do not share one sampling grid."""


def _moment_columns(prefix: str, dim: int) -> dict[str, tuple[int, int]]:
    layout = moment_layout(dim)
    return {prefix + label: (i, j)
            for label, i, j in zip(layout.labels, layout.rows.tolist(), layout.cols.tolist())}


# moment columns in moment_layout's order, each with the covariance entry it holds:
# the BT1 moments, and those of the physical pair (G20, G11, G02)
G1_COLUMNS = _moment_columns("G1_", 4)
PAIR_COLUMNS = _moment_columns("G", 2)


# columns by name, as f(run); the moments here are the physical run's
_COLUMNS = {
    "t": lambda run: run.traj.ts,
    **{
        name: lambda run, i=i, j=j: run.physical.covs[:, i, j]
        for name, (i, j) in PAIR_COLUMNS.items()
    },
    "E_mean": lambda run: run.energies.e_mean,
    "E_plus": lambda run: run.energies.e_plus,
    "E_minus": lambda run: run.energies.e_minus,
    "E_analytic": lambda run: run.energies.e_analytic,
    "U": lambda run: _pair_determinant(run.traj.covs),
    "U1": lambda run: _pair_determinant(run.traj.covs),
    "Ux": lambda run: _pair_determinant(run.physical.covs),
}


def _column(frame: CanonicalFrame, name: str):
    """Column ``name`` of a run in ``frame``, as f(run): the one rule that
    says which names :func:`trajectory_columns` knows. An unknown name
    raises ``KeyError``."""
    if name in frame.labels:
        k = frame.index(name)
        return lambda run: run.traj.means[:, k]
    if frame == BT1 and name in G1_COLUMNS:
        i, j = G1_COLUMNS[name]
        return lambda run: run.traj.covs[:, i, j]
    view = XY if frame == BT1 else frame  # the frame of Run.physical
    label = name
    if name in ("p", "p_x"):  # the physical momentum, under either name
        label = "p_x" if "p_x" in view.labels else "p"
    if label in view.labels:  # a mean of the physical run
        k = view.index(label)
        return lambda run: run.physical.means[:, k]
    if name in _COLUMNS:
        return _COLUMNS[name]
    raise KeyError(f"unknown column {name!r} for frame {frame.name}")


def trajectory_columns(traj: Run | Trajectory, names) -> dict[str, np.ndarray]:
    """Extract named observable columns from a run.

    Frame-native coordinates are available under their frame labels
    (``x1``..``x2`` for BT1, ``x``/``p`` for single-pair runs); moments as
    ``G1_abcd`` (BT1) or ``G20``/``G02``/``G11``; derived observables as
    ``E_mean``, ``E_plus``, ``E_minus``, ``E_analytic``, ``U1``, ``Ux`` and
    ``t``. For BT1 runs the XY-view names (``x``, ``p_x``/``p``, ``G20``,
    ...) are computed on the fly, so columns of different models are
    directly comparable. An unknown name raises ``KeyError``.
    """
    run = _as_run(traj)
    return {name: _column(run.traj.frame, name)(run) for name in names}


@dataclass(frozen=True)
class ColumnMetrics:
    """Difference metrics of one compared column over ``n_samples``
    samples: ``max_abs``, the first largest difference (the first NaN, if
    any), its time ``at_time``, and the rms, kept as ``squares``, the sum
    of the squared differences over ``max_abs``**2, so that none overflows
    (Blue, ACM TOMS 4(1), 1978)."""

    max_abs: float
    at_time: float
    n_samples: int
    squares: float

    @property
    def rms(self) -> float:
        if not (math.isfinite(self.max_abs) and self.max_abs > 0.0):
            return self.max_abs  # 0, inf or NaN
        return self.max_abs * math.sqrt(self.squares / self.n_samples)


def compare(
    traj_a: Run | Trajectory, traj_b: Run | Trajectory, columns
) -> dict[str, ColumnMetrics]:
    """Per-column difference metrics of two runs on one grid.

    Raises :class:`GridMismatchError` unless the sample grids are
    identical. The comparison is symmetric and exactly zero on identical
    inputs: entries equal on both sides, equal infinities included, differ
    by 0, while a NaN on either side makes the difference, and so
    ``max_abs``, NaN. :class:`CompareJoin` folds the metrics of
    consecutive block pairs into those of the whole runs.
    """
    run_a, run_b = _as_run(traj_a), _as_run(traj_b)
    ts, ts_b = run_a.traj.ts, run_b.traj.ts
    if ts.shape != ts_b.shape or not np.array_equal(ts, ts_b):
        raise GridMismatchError("trajectories do not share one sampling grid")
    cols_a = trajectory_columns(run_a, columns)
    cols_b = trajectory_columns(run_b, columns)
    out = {}
    for name in columns:
        a, b = cols_a[name], cols_b[name]
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf; beyond the float range
            diff = np.where(a == b, 0.0, np.abs(a - b))
        worst = int(np.argmax(diff))  # the first NaN, if any
        max_abs, squares = float(diff[worst]), 0.0
        if math.isfinite(max_abs) and max_abs > 0.0:
            squares = float(np.sum((diff / max_abs) ** 2))
        out[name] = ColumnMetrics(max_abs, float(ts[worst]), len(ts), squares)
    return out


def _fold_metrics(done: ColumnMetrics, part: ColumnMetrics) -> ColumnMetrics:
    """A column's metrics over ``done``'s samples then ``part``'s: the first
    maximum, a NaN before any number, and the lesser side's scaled squares
    rescaled to the greater maximum (as LAPACK's ``dnrm2`` does)."""
    later = not math.isnan(done.max_abs) and (
        math.isnan(part.max_abs) or part.max_abs > done.max_abs)
    top, other = (part, done) if later else (done, part)
    squares = top.squares
    if other.max_abs > 0.0 and math.isfinite(top.max_abs):
        squares += other.squares * (other.max_abs / top.max_abs) ** 2
    return ColumnMetrics(top.max_abs, top.at_time, done.n_samples + part.n_samples, squares)


class CompareJoin:
    """The metrics of two runs of ``n`` samples compared, folded from those
    of their consecutive block pairs, added in order with :meth:`add`, so
    no block outlives its comparison. :meth:`metrics` is then
    :func:`compare` of the whole runs: ``max_abs`` and ``at_time``
    exactly, the rms up to the rounding of its sum, taken block by block."""

    def __init__(self, n: int):
        self.n, self.joined = n, None

    def add(self, part: dict[str, ColumnMetrics]) -> None:
        if self.joined is not None:
            part = {name: _fold_metrics(self.joined[name], m) for name, m in part.items()}
        self.joined = part

    def metrics(self) -> dict[str, ColumnMetrics]:
        if self.joined is None or any(m.n_samples != self.n for m in self.joined.values()):
            raise ValueError(f"the block pairs' metrics do not cover the runs' {self.n} samples")
        return self.joined
