"""Initial states, derived observables, invariant audits, run comparison.

Everything here is read-only analysis: functions take trajectories (or
parameters) and return reports, never mutating their inputs.
"""

from __future__ import annotations

import math
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
    build_transform,
    exponents_to_indices,
    transform_state,
)
from .systems import lindblad_margin, xy_view

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
    "GridMismatchError",
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


def _xy_or_self(traj: Trajectory) -> Trajectory:
    return xy_view(traj) if traj.frame == BT1 else traj


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
    omega_energy: float = 0.0


def energy_report(
    traj: Trajectory,
    params: ModelParams | None = None,
    omega_energy: float | None = None,
) -> EnergyReport:
    """Mean energy, dispersion-belt energies, and the analytic decay law.

    For BT1 runs the XY view is taken first so that x and p_x refer to the
    physical oscillator. ``omega_energy`` defaults to the effective
    frequency for four-coordinate runs and to the Lindblad frequency for
    single-pair runs; at the equivalence-mode presets the two coincide.
    """
    params = params or traj.params
    if params is None:
        raise ValueError("trajectory carries no parameters")
    w = omega_energy if omega_energy is not None else _default_energy_omega(traj.frame, params)
    view = _xy_or_self(traj)
    x = view.means[:, 0]
    p = view.means[:, 1]
    g20 = view.covs[:, 0, 0]
    g02 = view.covs[:, 1, 1]
    if float(g20.min()) < 0.0 or float(g02.min()) < 0.0:
        raise ValueError("negative diagonal moment; upstream state is corrupted")
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
        omega_energy=w,
    )


# ---------------------------------------------------------------------------
# invariant audit

@dataclass(frozen=True, eq=False)
class InvariantAudit:
    """Uncertainty and diffusion audit of one run.

    ``u_pair1`` is the uncertainty determinant of the physical pair per
    sample (for BT1 runs, the first pair; the XY-view determinant is
    reported separately as ``u_xy``). A sample is flagged when any reported
    determinant drops below ``hbar**2/4 - tol``. Diffusion margins and the
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
            f"(bound {0.25 * self.hbar**2:g}, tol {self.tol:g}, "
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


def audit(
    traj: Trajectory, params: ModelParams | None = None, tol: float = 1e-9
) -> InvariantAudit:
    """Audit a run against the uncertainty bound and diffusion margins.

    Never raises on violations; inspect ``ok``/``n_violations``. Expects a
    run with quantum moments (BT1, XY, or the single-pair frame).
    """
    params = params or traj.params
    if params is None:
        raise ValueError("trajectory carries no parameters")
    hb = params.hbar
    bound = 0.25 * hb * hb

    covs = traj.covs
    u_pair1 = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] ** 2
    u_xy = None
    margin_moment_min = None
    neg_diag = (covs[:, 0, 0] < 0.0) | (covs[:, 1, 1] < 0.0)
    if traj.frame == BT1:
        view = xy_view(traj)
        u_xy = view.covs[:, 0, 0] * view.covs[:, 1, 1] - view.covs[:, 0, 1] ** 2
        neg_diag = neg_diag | (view.covs[:, 0, 0] < 0.0) | (view.covs[:, 1, 1] < 0.0)
        # moment-side diffusion margin equals 4*lam^2*(U1 - hbar^2/4)
        lam2 = (2.0 * params.lambda_damp) ** 2
        g20, g02, g11 = covs[:, 0, 0], covs[:, 1, 1], covs[:, 0, 1]
        margins = lam2 * (g20 * g02 - g11**2) - (params.lambda_damp * hb) ** 2
        margin_moment_min = float(margins.min())

    flags = (u_pair1 < bound - tol) | neg_diag
    if u_xy is not None:
        flags = flags | (u_xy < bound - tol)

    omega_e = _default_energy_omega(traj.frame, params)
    try:
        final_energy = float(energy_report(traj, params).e_mean[-1])
    except ValueError:
        final_energy = math.nan  # corrupted moments; already flagged above
    return InvariantAudit(
        tol=tol,
        hbar=hb,
        ts=traj.ts,
        u_pair1=u_pair1,
        u_xy=u_xy,
        violation_flags=flags,
        n_violations=int(flags.sum()),
        min_uncertainty=float(
            min(u_pair1.min(), u_xy.min()) if u_xy is not None else u_pair1.min()
        ),
        margin_lindblad=lindblad_margin(params),
        margin_moment_min=margin_moment_min,
        final_mean_energy=final_energy,
        ground_state_bound=0.5 * hb * omega_e,
    )


# ---------------------------------------------------------------------------
# trajectory columns and comparison

class GridMismatchError(ValueError):
    """Two runs do not share one sampling grid."""


_XY_DERIVED = {"x", "p", "p_x", "y", "p_y", "G20", "G02", "G11"}


def trajectory_columns(traj: Trajectory, names) -> dict[str, np.ndarray]:
    """Extract named observable columns from a run.

    Frame-native coordinates are available under their frame labels
    (``x1``..``x2`` for BT1, ``x``/``p`` for single-pair runs); moments as
    ``G1_abcd`` (BT1) or ``G20``/``G02``/``G11``; derived observables as
    ``E_mean``, ``E_plus``, ``E_minus``, ``E_analytic``, ``U1``, ``Ux`` and
    ``t``. For BT1 runs the XY-view names (``x``, ``p_x``/``p``, ``G20``,
    ...) are computed on the fly, so columns of different models are
    directly comparable.
    """
    view = None
    energies = None

    def xy() -> Trajectory:
        nonlocal view
        if view is None:
            view = _xy_or_self(traj)
        return view

    def energy() -> EnergyReport:
        nonlocal energies
        if energies is None:
            energies = energy_report(traj)
        return energies

    out: dict[str, np.ndarray] = {}
    for name in names:
        out[name] = _resolve_column(traj, name, xy, energy)
    return out


def _resolve_column(traj, name, xy, energy) -> np.ndarray:
    frame = traj.frame
    if name == "t":
        return traj.ts
    if name in frame.labels:
        return traj.means[:, frame.index(name)]
    if frame == BT1 and name.startswith("G1_") and len(name) == 7:
        i, j = exponents_to_indices(tuple(int(ch) for ch in name[3:]))
        return traj.covs[:, i, j]
    if name in _XY_DERIVED:
        v = xy()
        if name in ("x", "p", "p_x", "y", "p_y"):
            label = name
            if label in ("p", "p_x"):
                label = "p_x" if "p_x" in v.frame.labels else "p"
            return v.means[:, v.frame.index(label)]
        return {
            "G20": v.covs[:, 0, 0],
            "G02": v.covs[:, 1, 1],
            "G11": v.covs[:, 0, 1],
        }[name]
    if name == "E_mean":
        return energy().e_mean
    if name == "E_plus":
        return energy().e_plus
    if name == "E_minus":
        return energy().e_minus
    if name == "E_analytic":
        return energy().e_analytic
    if name in ("U", "U1"):
        c = traj.covs
        return c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] ** 2
    if name == "Ux":
        v = xy()
        return v.covs[:, 0, 0] * v.covs[:, 1, 1] - v.covs[:, 0, 1] ** 2
    raise KeyError(f"unknown column {name!r} for frame {frame.name}")


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
