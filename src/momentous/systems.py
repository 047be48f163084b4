"""Concrete oscillator models as linear (means, covariance) dynamics.

Every model is a :class:`ModelSystem`: the means follow ``zdot = A_c z`` and
the covariance follows the Lyapunov flow ``Sdot = A_m S + S A_m^T + D`` with
a constant diffusion source ``D``. Available builders:

``build_sbth``
    the conservative two-oscillator model (system + time-reversed mirror)
    in the BT1 frame; damping appears as a bilinear coupling, D = 0.
``build_qdho_xy``
    the same dynamics transported to the XY frame, where the (x, p_x) block
    is the familiar damped oscillator.
``build_lindblad``
    single-oscillator damped dynamics with thermal diffusion, frame L1.
``build_classical``
    the bare classical damped oscillator (no moments), frame L1.

The closed-form solution of the damped oscillator is provided as
:func:`classical_analytic` and serves as an independent oracle for the
integrated means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    BT1,
    L1,
    XY,
    CanonicalFrame,
    CovarianceMatrix,
    FrameError,
    ModelParams,
    Trajectory,
    _frozen_array,
    _transport,
    build_transform,
    covariances_from_moments,
    moment_order,
)

__all__ = [
    "ModelSystem",
    "DiffusionReport",
    "build_sbth",
    "build_qdho_xy",
    "build_lindblad",
    "build_classical",
    "sbth_moment_rows",
    "moment_rows",
    "classical_analytic",
    "diffusion_report",
    "lindblad_diffusion",
    "lindblad_margin",
    "moment_margin",
    "xy_view",
    "xy_variance_rate_residual",
]


@dataclass(frozen=True, eq=False)
class ModelSystem:
    """Linear dynamics triple defining one simulatable model.

    ``a_classical`` drives the means, ``a_moment`` drives the covariance
    through its Lyapunov flow, and ``diffusion`` is the constant symmetric
    source added to the covariance rate. All three are d x d in the frame's
    coordinate order.
    """

    label: str
    frame: CanonicalFrame
    a_classical: np.ndarray = field(repr=False)
    a_moment: np.ndarray = field(repr=False)
    diffusion: np.ndarray = field(repr=False)
    params: ModelParams | None = None

    def __post_init__(self):
        shape = (self.frame.dim,) * 2
        for name in ("a_classical", "a_moment"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), shape, name))
        dmat = _frozen_array(self.diffusion, shape, "diffusion matrix", sign=1)
        object.__setattr__(self, "diffusion", dmat)
        if float(dmat.diagonal().min()) < 0.0:
            raise ValueError("diffusion diagonal must be >= 0")

    def __repr__(self):
        return f"ModelSystem({self.label}, frame={self.frame.name})"


def moment_rows(a_moment: np.ndarray) -> np.ndarray:
    """Reduce a Lyapunov generator to rates of the independent moments.

    Returns the matrix R with ``mdot = R m`` where ``m`` stacks the
    d*(d+1)/2 upper-triangle moments in canonical order: column c is the
    flow ``A S + S A^T`` of the c-th unit moment. The integrator steps the
    moments with it.
    """
    a = np.asarray(a_moment, dtype=float)
    rows, cols = np.triu_indices(a.shape[0])
    units = covariances_from_moments(np.eye(len(rows)), a.shape[0])
    return (a @ units + units @ a.T)[:, rows, cols].T


# ---------------------------------------------------------------------------
# two-oscillator model, BT1 frame (x1, p1, p2, x2)

def build_sbth(params: ModelParams) -> ModelSystem:
    """Two-oscillator damped model in the BT1 frame.

    The fourteen rate equations are transcribed directly (see also
    :func:`sbth_moment_rows`); the bracket-generated construction in
    :mod:`momentous.algebra` must reproduce them exactly.
    """
    lam = params.lambda_damp
    k = params.m * params.big_omega**2
    im = 1.0 / params.m
    a_classical = np.array(
        [
            [0.0, im, 0.0, -lam],   # x1dot =  p1/m        - lam*x2
            [-k, 0.0, lam, 0.0],    # p1dot = -m*Om^2*x1   + lam*p2
            [0.0, lam, 0.0, k],     # p2dot =  lam*p1      + m*Om^2*x2
            [-lam, 0.0, -im, 0.0],  # x2dot = -lam*x1      - p2/m
        ]
    )
    a_moment = np.array(
        [
            [0.0, im, 0.0, -lam],
            [-k, 0.0, lam, 0.0],
            [0.0, -lam, 0.0, -k],
            [lam, 0.0, im, 0.0],
        ]
    )
    return ModelSystem("SBTH", BT1, a_classical, a_moment, np.zeros((4, 4)), params)


def sbth_moment_rows(params: ModelParams) -> np.ndarray:
    """Literal row-by-row transcription of the ten moment rate equations.

    Returns the 10x10 matrix over the canonical moment order of the BT1
    frame. Kept independent of both :func:`build_sbth`'s generator form and
    the bracket machinery so that all three constructions can be
    cross-checked against each other.
    """
    lam = params.lambda_damp
    k = params.m * params.big_omega**2
    im = 1.0 / params.m
    rows = {
        (2, 0, 0, 0): {(1, 0, 0, 1): -2 * lam, (1, 1, 0, 0): 2 * im},
        (1, 1, 0, 0): {(1, 0, 1, 0): lam, (0, 1, 0, 1): -lam, (0, 2, 0, 0): im, (2, 0, 0, 0): -k},
        (1, 0, 1, 0): {(1, 1, 0, 0): -lam, (0, 0, 1, 1): -lam, (0, 1, 1, 0): im, (1, 0, 0, 1): -k},
        (1, 0, 0, 1): {(2, 0, 0, 0): lam, (0, 0, 0, 2): -lam, (0, 1, 0, 1): im, (1, 0, 1, 0): im},
        (0, 2, 0, 0): {(0, 1, 1, 0): 2 * lam, (1, 1, 0, 0): -2 * k},
        (0, 1, 1, 0): {(0, 0, 2, 0): lam, (0, 2, 0, 0): -lam, (1, 0, 1, 0): -k, (0, 1, 0, 1): -k},
        (0, 1, 0, 1): {(1, 1, 0, 0): lam, (0, 0, 1, 1): lam, (0, 1, 1, 0): im, (1, 0, 0, 1): -k},
        (0, 0, 2, 0): {(0, 1, 1, 0): -2 * lam, (0, 0, 1, 1): -2 * k},
        (0, 0, 1, 1): {(1, 0, 1, 0): lam, (0, 1, 0, 1): -lam, (0, 0, 2, 0): im, (0, 0, 0, 2): -k},
        (0, 0, 0, 2): {(1, 0, 0, 1): 2 * lam, (0, 0, 1, 1): 2 * im},
    }
    order = moment_order(4)
    col = {exps: c for c, exps in enumerate(order)}
    mat = np.zeros((10, 10))
    for exps, terms in rows.items():
        r = col[exps]
        for other, coeff in terms.items():
            mat[r, col[other]] = coeff
    return mat


def build_qdho_xy(params: ModelParams) -> ModelSystem:
    """Two-oscillator dynamics transported to the XY frame.

    The classical block decouples into the damped oscillator (x, p_x) and
    its growing mirror (y, p_y):

        xdot  = p_x/m - lam*x        ydot  = p_y/m + lam*y
        pxdot = -m*Om^2*x - lam*p_x  pydot = -m*Om^2*y + lam*p_y

    The moment generator is the congruence transport of the BT1 one; the
    reduced (x, p_x) moment equations do not close on themselves, so for
    analysis prefer :func:`xy_view` of an integrated BT1 run.
    """
    lam = params.lambda_damp
    k = params.m * params.big_omega**2
    im = 1.0 / params.m
    a_classical = np.array(
        [
            [-lam, im, 0.0, 0.0],
            [-k, -lam, 0.0, 0.0],
            [0.0, 0.0, lam, im],
            [0.0, 0.0, -k, lam],
        ]
    )
    sbth = build_sbth(params)
    t = build_transform(BT1, XY).matrix
    a_moment = t @ sbth.a_moment @ t.T  # t is orthogonal
    return ModelSystem("QDHO-XY", XY, a_classical, a_moment, np.zeros((4, 4)), params)


# ---------------------------------------------------------------------------
# Lindblad moment model, frame L1 (x, p)

def build_lindblad(params: ModelParams) -> ModelSystem:
    """Damped oscillator with thermal diffusion, frame L1.

    One 2x2 matrix drives both means and moments,

        A = [[-gamma/2, omega_prime/(m*omega)],
             [-m*omega*omega_prime, -gamma/2]],

    and the diffusion source is diagonal with
    D_xx = gamma*hbar*(2*nbar+1)/(2*m*omega) and
    D_pp = gamma*hbar*m*omega*(2*nbar+1)/2.
    """
    g = params.gamma
    a = np.array(
        [
            [-0.5 * g, params.omega_prime / (params.m * params.omega)],
            [-params.m * params.omega * params.omega_prime, -0.5 * g],
        ]
    )
    d_xx, d_pp, _ = lindblad_diffusion(params)
    diffusion = np.array([[d_xx, 0.0], [0.0, d_pp]])
    return ModelSystem("LINDBLAD", L1, a, a, diffusion, params)


def build_classical(params: ModelParams) -> ModelSystem:
    """Bare classical damped oscillator (moments identically zero)."""
    lam = params.lambda_damp
    a = np.array(
        [
            [-lam, 1.0 / params.m],
            [-params.m * params.big_omega**2, -lam],
        ]
    )
    zero = np.zeros((2, 2))
    return ModelSystem("CLASSICAL", L1, a, zero, zero, params)


def classical_analytic(params: ModelParams, x0: float, px0: float, t):
    """Closed-form underdamped solution with canonical momentum.

    Solves ``xddot + 2*lam*xdot + omega0**2 x = 0`` and returns
    ``(x(t), p_x(t))`` with ``p_x = m*(xdot + lam*x)``:

        x(t)   = e^{-lam t} [x0 cos(Om t) + (px0/m)/Om sin(Om t)]
        p_x(t) = e^{-lam t} [px0 cos(Om t) - m Om x0 sin(Om t)]

    ``t`` may be a scalar or an array.
    """
    om = params.big_omega
    lam = params.lambda_damp
    if not om > 0.0:
        raise ValueError("overdamped parameters rejected: big_omega must be > 0")
    t = np.asarray(t, dtype=float)
    decay = np.exp(-lam * t)
    cos, sin = np.cos(om * t), np.sin(om * t)
    x = decay * (x0 * cos + (px0 / params.m) / om * sin)
    px = decay * (px0 * cos - params.m * om * x0 * sin)
    return x, px


# ---------------------------------------------------------------------------
# diffusion bookkeeping

def lindblad_diffusion(params: ModelParams) -> tuple[float, float, float]:
    """Constant diffusion coefficients (d_xx, d_pp, d_px) of the thermal model."""
    g, hb = params.gamma, params.hbar
    occ = 2.0 * params.nbar + 1.0
    d_xx = g * hb * occ / (2.0 * params.m * params.omega)
    d_pp = g * hb * params.m * params.omega * occ / 2.0
    return d_xx, d_pp, 0.0


def lindblad_margin(params: ModelParams) -> float:
    """Determinant margin ``d_xx*d_pp - d_px**2 - (hbar*gamma/2)**2`` of the
    thermal diffusion; non-negative for every ``nbar >= 0``."""
    d_xx, d_pp, d_px = lindblad_diffusion(params)
    try:
        return d_xx * d_pp - d_px**2 - (0.5 * params.hbar * params.gamma) ** 2
    except OverflowError:  # a float's ``**`` overflow names no quantity
        raise OverflowError("the thermal diffusion margin overflows") from None


def moment_margin(params: ModelParams, u_pair1):
    """Moment-side diffusion margin ``(2*lam)**2*u_pair1 - (lam*hbar)**2``
    from first-pair uncertainty determinants (scalar or array)."""
    lam = params.lambda_damp
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return (2.0 * lam) ** 2 * u_pair1 - (lam * params.hbar) ** 2
    except OverflowError:
        raise OverflowError("the moment diffusion margin overflows") from None


@dataclass(frozen=True)
class DiffusionReport:
    """Diffusion coefficients of both models and their determinant margins.

    ``margin_lindblad = d_xx*d_pp - d_px**2 - (hbar*gamma/2)**2`` and
    ``margin_moment = d_gxx*d_gpp - d_gpx**2 - (lambda_damp*hbar)**2``.
    Margins are reported, never enforced.
    """

    d_xx: float
    d_pp: float
    d_px: float
    d_gxx: float
    d_gpp: float
    d_gpx: float
    margin_lindblad: float
    margin_moment: float


def diffusion_report(params: ModelParams, cov_bt1: CovarianceMatrix) -> DiffusionReport:
    """Constant Lindblad coefficients plus the state-dependent moment set.

    The moment-side coefficients read the first-pair moments of a BT1
    covariance: ``d_gxx = 2*lam*G[2000]``, ``d_gpp = 2*lam*G[0200]``,
    ``d_gpx = 2*lam*G[1100]``. Their margin equals
    ``4*lam**2*(U1 - hbar**2/4)``, so it is non-negative exactly when the
    first pair satisfies the uncertainty relation.
    """
    if cov_bt1.frame != BT1:
        raise FrameError("diffusion_report expects a BT1 covariance")
    d_xx, d_pp, d_px = lindblad_diffusion(params)
    two_lam = 2.0 * params.lambda_damp
    d_gxx = two_lam * cov_bt1.moment(2, 0, 0, 0)
    d_gpp = two_lam * cov_bt1.moment(0, 2, 0, 0)
    d_gpx = two_lam * cov_bt1.moment(1, 1, 0, 0)
    return DiffusionReport(
        d_xx=d_xx,
        d_pp=d_pp,
        d_px=d_px,
        d_gxx=d_gxx,
        d_gpp=d_gpp,
        d_gpx=d_gpx,
        margin_lindblad=lindblad_margin(params),
        margin_moment=moment_margin(params, cov_bt1.pair_determinant(0)),
    )


# ---------------------------------------------------------------------------
# XY view of a BT1 run

def xy_view(traj: Trajectory) -> Trajectory:
    """Transport a BT1 trajectory to the XY frame, sample by sample."""
    if traj.frame != BT1:
        raise FrameError("xy_view expects a BT1 trajectory")
    means, covs = _transport(build_transform(BT1, XY).matrix, traj.means, traj.covs)
    return Trajectory(XY, traj.ts, means, covs, traj.step, traj.params)


def xy_variance_rate_residual(traj: Trajectory) -> np.ndarray:
    """Residual of the transported position-variance rate identity.

    The XY position variance of a BT1 run must satisfy

        d/dt G[2000]_xy = -2*lam*G[2000]_xy + (2/m)*G[1100]_xy
                          + (2/m)*(G[0011] + G[1010])
                          + 2*lam*(G[2000] + G[1001])

    with the unlabelled moments taken from the BT1 state. The left side is
    estimated with a fourth-order central difference on the sample grid, so
    the residual is meaningful only for uniformly and finely sampled runs.
    Returns the per-sample residual on the interior of the grid.
    """
    if traj.frame != BT1:
        raise FrameError("xy_variance_rate_residual expects a BT1 trajectory")
    params = traj.params
    if params is None:
        raise ValueError("trajectory carries no parameters")
    if traj.n_samples < 5:
        raise ValueError("need at least 5 samples for the stencil")
    lam, m = params.lambda_damp, params.m
    xy = xy_view(traj)
    g20 = xy.covs[:, 0, 0]
    g11 = xy.covs[:, 0, 1]
    h = traj.step
    lhs = (-g20[4:] + 8.0 * g20[3:-1] - 8.0 * g20[1:-3] + g20[:-4]) / (12.0 * h)
    rhs = (
        -2.0 * lam * g20
        + (2.0 / m) * g11
        + (2.0 / m) * (traj.covs[:, 2, 3] + traj.covs[:, 0, 2])
        + 2.0 * lam * (traj.covs[:, 0, 0] + traj.covs[:, 0, 3])
    )
    return lhs - rhs[2:-2]
