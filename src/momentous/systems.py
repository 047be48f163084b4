"""Concrete oscillator models as linear (means, covariance) dynamics.

Every model is a :class:`ModelSystem`: the means follow ``zdot = A_c z`` and
the covariance follows the Lyapunov flow ``Sdot = A_m S + S A_m^T + D`` with
a constant diffusion source ``D``; :func:`generate_dynamics` makes one from
a quadratic Hamiltonian and two symplectic forms. Available builders:

``build_sbth``
    the conservative two-oscillator model (system + time-reversed mirror)
    in the BT1 frame; damping appears as a bilinear coupling, D = 0.
    Generated from its Hamiltonian, the one source of the oscillator dynamics.
``build_lindblad``
    single-oscillator damped dynamics with thermal diffusion, frame L1.
``build_classical``
    the bare classical damped oscillator (no moments), frame L1: the
    (x, p_x) block of the XY system.
``transform_system``
    a system in another frame: the sbth model in the XY frame, where the
    (x, p_x) block is the familiar damped oscillator.

The closed-form solution of the damped oscillator is provided as
:func:`classical_analytic` and serves as an independent oracle for the
integrated means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import QuadraticHamiltonian, SymplecticForm, sbth_hamiltonian
from .model import (
    BT1,
    L1,
    XY,
    CanonicalFrame,
    CovarianceMatrix,
    FrameError,
    ModelParams,
    Trajectory,
    _BT1_XY_SIGNS,
    _frame_signs,
    _frozen_array,
    _transport,
    moment_layout,
    moment_order,
)

__all__ = [
    "ModelSystem",
    "DiffusionReport",
    "generate_dynamics",
    "build_sbth",
    "build_lindblad",
    "build_classical",
    "transform_system",
    "sbth_moment_rows",
    "moment_rows",
    "classical_analytic",
    "diffusion_report",
    "lindblad_diffusion",
    "lindblad_margin",
    "moment_margin",
    "xy_view",
]


@dataclass(frozen=True, eq=False)
class ModelSystem:
    """Linear dynamics triple defining one simulatable model.

    ``a_classical`` drives the means, ``a_moment`` drives the covariance
    through its Lyapunov flow, and ``diffusion`` is the constant symmetric
    source added to the covariance rate. All three are d x d in the frame's
    coordinate order. A non-finite entry, a coefficient that overflowed at
    the given parameters, raises ``OverflowError``.
    """

    label: str
    frame: CanonicalFrame
    a_classical: np.ndarray = field(repr=False)
    a_moment: np.ndarray = field(repr=False)
    diffusion: np.ndarray = field(repr=False)
    params: ModelParams | None = None

    def __post_init__(self):
        shape = (self.frame.dim,) * 2
        for name, sign in (("a_classical", 0), ("a_moment", 0), ("diffusion", 1)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():  # a coefficient overflowed at these parameters
                raise OverflowError(f"the {self.label} coefficients overflow ({name})")
            object.__setattr__(self, name, _frozen_array(arr, shape, name, sign=sign))
        if float(self.diffusion.diagonal().min()) < 0.0:
            raise ValueError("diffusion diagonal must be >= 0")

    def __repr__(self):
        return f"ModelSystem({self.label}, frame={self.frame.name})"


def moment_rows(a_moment: np.ndarray) -> np.ndarray:
    """Reduce a Lyapunov generator to rates of the independent moments.

    Returns the matrix R with ``mdot = R m`` where ``m`` stacks the
    independent moments in the order of
    :func:`~momentous.model.moment_layout`: column c is the flow ``A S + S
    A^T`` of the layout's c-th unit moment. The integrator steps the
    moments with it.
    """
    a = np.asarray(a_moment, dtype=float)
    layout = moment_layout(a.shape[0])
    units = layout.units
    return (a @ units + units @ a.T)[:, layout.rows, layout.cols].T


def generate_dynamics(
    h: QuadraticHamiltonian,
    classical_form: SymplecticForm,
    moment_form: SymplecticForm,
    params: ModelParams | None = None,
    label: str = "generated",
) -> ModelSystem:
    """Turn a quadratic Hamiltonian into a linear ModelSystem.

    The means follow ``zdot = (W_c H) z`` with the classical form W_c; the
    covariance follows the Lyapunov flow of ``A = W_q H`` with the moment
    form W_q. The two forms are independent inputs because the mean-value
    sector obeys the all-positive classical bracket even on frames whose
    quantum pairs carry a flipped commutator sign.
    """
    if classical_form.frame != h.frame or moment_form.frame != h.frame:
        raise FrameError("hamiltonian and form frames disagree")
    a_classical = classical_form.matrix @ h.hessian
    a_moment = moment_form.matrix @ h.hessian
    zero = np.zeros((h.frame.dim, h.frame.dim))
    return ModelSystem(label, h.frame, a_classical, a_moment, zero, params)


# ---------------------------------------------------------------------------
# two-oscillator model, BT1 frame (x1, p1, p2, x2)

def build_sbth(params: ModelParams) -> ModelSystem:
    """Two-oscillator damped model in the BT1 frame, generated from
    :func:`~momentous.algebra.sbth_hamiltonian` with the classical form for
    the means and the quantum form for the moments. Each entry is exactly
    +-1 times one Hessian entry; :func:`sbth_moment_rows` checks it."""
    forms = SymplecticForm.classical(BT1), SymplecticForm.quantum(BT1)
    return generate_dynamics(sbth_hamiltonian(params), *forms, params, "SBTH")


def sbth_moment_rows(params: ModelParams) -> np.ndarray:
    """Literal row-by-row transcription of the paper's ten moment rate equations.

    Returns the 10x10 matrix over the canonical moment order of the BT1
    frame. Kept independent of the Hamiltonian and the bracket machinery,
    so that it checks the system :func:`build_sbth` generates.
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


def transform_system(system: ModelSystem, target: CanonicalFrame) -> ModelSystem:
    """The same dynamics in the frame ``target``, by the frame rule of
    :func:`~momentous.model.transform_state`, ``FrameError`` included. Each
    matrix maps as ``(P A P^T)/2`` with the exact sign pattern ``P``, the
    diffusion re-symmetrized exactly as a covariance is, so each entry of
    the XY image of :func:`build_sbth` is exactly 0 or one BT1 coefficient.
    Its classical block decouples into the damped oscillator and its
    growing mirror (the moment generator couples the two pairs):

        xdot  = p_x/m - lam*x        ydot  = p_y/m + lam*y
        pxdot = -m*Om^2*x - lam*p_x  pydot = -m*Om^2*y + lam*p_y

    Integrated from ``coherent_initial_state(params, XY)``, the XY system
    keeps the physical pair accurate where a BT1 run loses it to
    cancellation in :func:`xy_view`, its mirror mode grown by ``e^{lam*t}``:
    at ``lambda_damp = 1``, ``gamma = 2``, all frequencies 1.5, ``dt = 1e-3``
    and ``t = 40``, its final ``E_mean`` is 0.75, the exact value.
    """
    signs = _frame_signs(system.frame, target)
    if signs is None:
        return system
    a_classical, a_moment = (0.5 * (signs @ a @ signs.T) for a in (system.a_classical,
                                                                   system.a_moment))
    _, diffusion = _transport(signs, np.zeros(target.dim), system.diffusion)
    return ModelSystem(system.label, target, a_classical, a_moment, diffusion, system.params)


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
    """Bare classical damped oscillator (moments identically zero): the
    (x, p_x) block of the XY classical generator, ``transform_system`` of
    :func:`build_sbth`."""
    zero = np.zeros((2, 2))
    a = transform_system(build_sbth(params), XY).a_classical[:2, :2]
    return ModelSystem("CLASSICAL", L1, a, zero, zero, params)


def classical_analytic(params: ModelParams, x0: float, px0: float, t):
    """Closed-form underdamped solution with canonical momentum.

    Solves ``xddot + 2*lam*xdot + omega0**2 x = 0`` and returns
    ``(x(t), p_x(t))`` with ``p_x = m*(xdot + lam*x)``:

        x(t)   = e^{-lam t} [x0 cos(Om t) + (px0/m)/Om sin(Om t)]
        p_x(t) = e^{-lam t} [px0 cos(Om t) - m Om x0 sin(Om t)]

    ``t`` may be a scalar or an array. A result beyond the float range
    raises ``OverflowError``.
    """
    om = params.big_omega
    lam = params.lambda_damp
    if not om > 0.0:
        raise ValueError("overdamped parameters rejected: big_omega must be > 0")
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-lam * t)
        cos, sin = np.cos(om * t), np.sin(om * t)
        x = decay * (x0 * cos + (px0 / params.m) / om * sin)
        px = decay * (px0 * cos - params.m * om * x0 * sin)
    if not (np.isfinite(x).all() and np.isfinite(px).all()):
        raise OverflowError("the classical closed form overflows")
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
    thermal diffusion.

    The ``m*omega`` factors of ``d_xx*d_pp`` cancel and ``d_px = 0``, so it
    is computed as the equal ``(hbar*gamma)**2 * nbar * (nbar + 1)``, with
    no difference of rounded terms: non-negative for every ``nbar >= 0``
    and exactly 0 at ``nbar = 0``. Raises ``OverflowError`` when the margin
    or any factor of it is beyond the float range.
    """
    try:
        margin = (params.hbar * params.gamma) ** 2 * params.nbar * (params.nbar + 1.0)
    except OverflowError:  # a float's ``**`` overflow names no quantity
        margin = math.inf
    if not math.isfinite(margin):  # an overflowed factor times 0 is NaN
        raise OverflowError("the thermal diffusion margin overflows")
    return margin


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

    ``margin_lindblad = d_xx*d_pp - d_px**2 - (hbar*gamma/2)**2``, computed
    as its equal ``(hbar*gamma)**2*nbar*(nbar + 1)`` (see
    :func:`lindblad_margin`), and ``margin_moment = d_gxx*d_gpp - d_gpx**2 -
    (lambda_damp*hbar)**2``. Margins are reported, never enforced.
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
    means, covs = _transport(_BT1_XY_SIGNS, traj.means, traj.covs)
    for arr in (means, covs):  # fresh arrays: the trajectory adopts them
        arr.setflags(write=False)
    return Trajectory(XY, traj.ts, means, covs, traj.params)
