"""Initial states, derived observables, invariant audits, run comparison.

Everything here is read-only analysis: functions take trajectories (or
parameters) and return reports, never mutating their inputs.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BT1,
    L1,
    XY,
    CanonicalFrame,
    CovarianceMatrix,
    FrameError,
    MeanVector,
    ModelParams,
    Trajectory,
    _negative_variance,
    _pair_determinant,
    _uncertainty_bound,
    _uncertainty_test,
    build_transform,
    exponents_to_indices,
    moment_order,
    transform_state,
)
from .systems import lindblad_margin, moment_margin, xy_view

__all__ = [
    "coherent_initial_state",
    "lindblad_mean_energy",
    "EnergyReport",
    "energy_report",
    "InvariantAudit",
    "audit",
    "ColumnMetrics",
    "compare",
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
    down the diagonal.
    """
    m, hb, w = params.m, params.hbar, params.omega
    gq = hb / (2.0 * m * w)
    gp = m * hb * w / 2.0
    if frame == L1:
        x0 = math.sqrt(2.0 * params.n_level * hb / (m * w))
        return (
            MeanVector(L1, [x0, 0.0]),
            CovarianceMatrix(L1, np.diag([gq, gp])),
        )
    x10 = 2.0 * math.sqrt(params.n_level * hb / (m * w))
    means = MeanVector(BT1, [x10, 0.0, 0.0, 0.0])
    cov = CovarianceMatrix(BT1, np.diag([gq, gp, gp, gq]))
    if frame == BT1:
        return means, cov
    if frame == XY:
        return transform_state(means, cov, build_transform(BT1, XY))
    raise FrameError(f"no coherent state defined for frame {frame.name}")


def lindblad_mean_energy(params: ModelParams, t) -> np.ndarray:
    """Closed-form mean energy of the thermal damped oscillator.

    ``E(t) = ((n_level - nbar)*exp(-gamma*t) + nbar + 1/2) * hbar * omega``,
    decaying from the initial level to the reservoir-dressed floor.
    """
    t = np.asarray(t, dtype=float)
    hw = params.hbar * params.omega
    return ((params.n_level - params.nbar) * np.exp(-params.gamma * t)
            + params.nbar + 0.5) * hw


def _default_energy_omega(frame: CanonicalFrame, params: ModelParams) -> float:
    return params.big_omega if frame in (BT1, XY) else params.omega


# What is derived from a trajectory, each taken once: the XY view of a BT1
# run and its energy report. Trajectory hashes by identity (eq=False) and its
# arrays are read-only, so an entry never goes stale; the weak key lets the
# entries go with their trajectory.
_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _derived(traj: Trajectory, key, make):
    memo = _DERIVED.setdefault(traj, {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _xy_or_self(traj: Trajectory) -> Trajectory:
    if traj.frame != BT1:
        return traj
    return _derived(traj, "xy", lambda: xy_view(traj))


def _energies(traj: Trajectory) -> EnergyReport:
    """``energy_report(traj)``, computed once per trajectory."""
    return _derived(traj, "energy", lambda: energy_report(traj))


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


def energy_report(traj: Trajectory) -> EnergyReport:
    """Mean energy, dispersion-belt energies, and the analytic decay law.

    For BT1 runs the XY view is taken first so that x and p_x refer to the
    physical oscillator. The energy frequency is the effective frequency
    for four-coordinate runs and the Lindblad frequency for single-pair
    runs; at the equivalence-mode presets the two coincide. Raises
    :class:`CorruptedStateError` naming the first sample with a negative
    variance.
    """
    params = _run_params(traj)
    w = _default_energy_omega(traj.frame, params)
    view = _xy_or_self(traj)
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
    """Uncertainty and diffusion audit of one run.

    ``u_pair1`` is the uncertainty determinant of the physical pair per
    sample (for BT1 runs, the first pair; the XY-view determinant is
    reported separately as ``u_xy``). A sample is flagged when any reported
    determinant is not finite or drops below ``hbar**2/4 - tol``, or a
    variance of its pair is negative. Diffusion margins and the
    late-time energy are reported, never enforced.
    """

    tol: float
    hbar: float
    ts: np.ndarray = field(repr=False)
    u_pair1: np.ndarray = field(repr=False)
    u_xy: np.ndarray | None = field(repr=False)
    violation_flags: np.ndarray = field(repr=False)
    n_violations: int = 0
    min_uncertainty: float = math.nan
    margin_lindblad: float = math.nan
    margin_moment_min: float | None = None
    final_mean_energy: float = math.nan
    ground_state_bound: float = math.nan

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def summary(self) -> str:
        lines = [
            f"samples audited: {len(self.ts)}",
            f"uncertainty violations: {self.n_violations} "
            f"(bound {_uncertainty_bound(self.hbar):g}, tol {self.tol:g}, "
            f"min determinant {self.min_uncertainty:.6g})",
            f"diffusion margin (thermal model): {self.margin_lindblad:.6g}",
        ]
        if self.margin_moment_min is not None:
            lines.append(f"diffusion margin (moment model, min): {self.margin_moment_min:.6g}")
        lines.append(
            f"final mean energy: {self.final_mean_energy:.9g} "
            f"(ground-state bound {self.ground_state_bound:g})"
        )
        return "\n".join(lines)


def audit(traj: Trajectory, tol: float = 1e-9) -> InvariantAudit:
    """Audit a run against the uncertainty bound and diffusion margins.

    Never raises on violations; inspect ``ok``/``n_violations``. Expects a
    run with quantum moments (BT1, XY, or the single-pair frame).
    """
    params = _run_params(traj)
    hb = params.hbar
    u_pair1, flags = _uncertainty_test(traj.covs, hb, tol)
    min_uncertainty = u_pair1.min()
    u_xy = margin_moment_min = None
    if traj.frame == BT1:
        u_xy, xy_flags = _uncertainty_test(_xy_or_self(traj).covs, hb, tol)
        flags = flags | xy_flags
        min_uncertainty = min(min_uncertainty, u_xy.min())
        margin_moment_min = float(moment_margin(params, u_pair1).min())

    omega_e = _default_energy_omega(traj.frame, params)
    try:
        final_energy = float(_energies(traj).e_mean[-1])
    except CorruptedStateError:
        final_energy = math.nan  # corrupted moments; already flagged above
    return InvariantAudit(
        tol=tol,
        hbar=hb,
        ts=traj.ts,
        u_pair1=u_pair1,
        u_xy=u_xy,
        violation_flags=flags,
        n_violations=int(flags.sum()),
        min_uncertainty=float(min_uncertainty),
        margin_lindblad=lindblad_margin(params),
        margin_moment_min=margin_moment_min,
        final_mean_energy=final_energy,
        ground_state_bound=0.5 * hb * omega_e,
    )


# ---------------------------------------------------------------------------
# trajectory columns and comparison

class GridMismatchError(ValueError):
    """Two runs do not share one sampling grid."""


def _moment_columns(prefix: str, dim: int) -> dict[str, tuple[int, int]]:
    return {prefix + "".join(map(str, e)): exponents_to_indices(e) for e in moment_order(dim)}


# moment columns in moment_order, each with the covariance entry it holds:
# the BT1 moments, and those of the physical pair (G20, G11, G02)
G1_COLUMNS = _moment_columns("G1_", 4)
PAIR_COLUMNS = _moment_columns("G", 2)


def _view_mean(traj: Trajectory, label: str) -> np.ndarray:
    view = _xy_or_self(traj)
    if label in ("p", "p_x"):  # the physical momentum, under either name
        label = "p_x" if "p_x" in view.frame.labels else "p"
    return view.means[:, view.frame.index(label)]


# columns by name, as f(traj); the means and moments here are a BT1 run's
# XY view, else the run's own
_COLUMNS = {
    "t": lambda traj: traj.ts,
    "x": lambda traj: _view_mean(traj, "x"),
    "p": lambda traj: _view_mean(traj, "p"),
    "p_x": lambda traj: _view_mean(traj, "p_x"),
    "y": lambda traj: _view_mean(traj, "y"),
    "p_y": lambda traj: _view_mean(traj, "p_y"),
    **{
        name: lambda traj, i=i, j=j: _xy_or_self(traj).covs[:, i, j]
        for name, (i, j) in PAIR_COLUMNS.items()
    },
    "E_mean": lambda traj: _energies(traj).e_mean,
    "E_plus": lambda traj: _energies(traj).e_plus,
    "E_minus": lambda traj: _energies(traj).e_minus,
    "E_analytic": lambda traj: _energies(traj).e_analytic,
    "U": lambda traj: _pair_determinant(traj.covs),
    "U1": lambda traj: _pair_determinant(traj.covs),
    "Ux": lambda traj: _pair_determinant(_xy_or_self(traj).covs),
}


def trajectory_columns(traj: Trajectory, names) -> dict[str, np.ndarray]:
    """Extract named observable columns from a run.

    Frame-native coordinates are available under their frame labels
    (``x1``..``x2`` for BT1, ``x``/``p`` for single-pair runs); moments as
    ``G1_abcd`` (BT1) or ``G20``/``G02``/``G11``; derived observables as
    ``E_mean``, ``E_plus``, ``E_minus``, ``E_analytic``, ``U1``, ``Ux`` and
    ``t``. For BT1 runs the XY-view names (``x``, ``p_x``/``p``, ``G20``,
    ...) are computed on the fly, so columns of different models are
    directly comparable. An unknown name raises ``KeyError``.
    """
    frame = traj.frame
    out: dict[str, np.ndarray] = {}
    for name in names:
        if name in frame.labels:
            out[name] = traj.means[:, frame.index(name)]
        elif frame == BT1 and name in G1_COLUMNS:
            i, j = G1_COLUMNS[name]
            out[name] = traj.covs[:, i, j]
        elif name in _COLUMNS:
            out[name] = _COLUMNS[name](traj)
        else:
            raise KeyError(f"unknown column {name!r} for frame {frame.name}")
    return out


@dataclass(frozen=True)
class ColumnMetrics:
    """Difference metrics of one compared column."""

    max_abs: float
    rms: float
    at_time: float


def compare(traj_a: Trajectory, traj_b: Trajectory, columns) -> dict[str, ColumnMetrics]:
    """Per-column difference metrics of two runs on one grid.

    Raises :class:`GridMismatchError` unless the sample grids are
    identical. The comparison is symmetric and exactly zero on identical
    inputs.
    """
    if traj_a.ts.shape != traj_b.ts.shape or not np.array_equal(traj_a.ts, traj_b.ts):
        raise GridMismatchError("trajectories do not share one sampling grid")
    cols_a = trajectory_columns(traj_a, columns)
    cols_b = trajectory_columns(traj_b, columns)
    out = {}
    for name in columns:
        diff = np.abs(cols_a[name] - cols_b[name])
        worst = int(np.argmax(diff))
        out[name] = ColumnMetrics(
            max_abs=float(diff[worst]),
            rms=float(np.sqrt(np.mean(diff**2))),
            at_time=float(traj_a.ts[worst]),
        )
    return out
