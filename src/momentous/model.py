"""Canonical frames, physical parameters, and Gaussian moment-state containers.

Every model in this package evolves the same kind of state: a vector of
phase-space expectation values plus a symmetric matrix of centered,
symmetrically (Weyl) ordered second moments. Both carry a canonical frame
that fixes the coordinate order and the commutator sign of each conjugate
pair; all index conventions downstream follow the frame.

Frames provided here:

``BT1``
    four coordinates ordered ``(x1, p1, p2, x2)``; the second pair has a
    flipped commutator, ``[p2, x2] = i*hbar``.
``XY``
    four coordinates ordered ``(x, p_x, y, p_y)``, both pairs standard.
``L1``
    a single standard pair ``(x, p)``.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FrameError",
    "CanonicalFrame",
    "BT1",
    "XY",
    "L1",
    "ModelParams",
    "MeanVector",
    "CovarianceMatrix",
    "Trajectory",
    "transform_state",
    "MomentLayout",
    "moment_layout",
    "moment_order",
    "covariances_from_moments",
    "exponents_to_indices",
    "indices_to_exponents",
    "moment_label",
]


class FrameError(ValueError):
    """Frames disagree, or a frame pair has no registered transformation."""


def _frozen_array(values, shape=None, what="array", finite=False, sign=0, rtol=0.0):
    """``values`` as a read-only float array: how every container stores one.

    A float64 ndarray that is already read-only is adopted as it is, with no
    copy; anything else is copied, so the caller's writable array stays
    apart from the stored one. A writable view taken before an array was
    made read-only can still write to it; no producer in this package keeps
    such a view.

    Checks ``shape``; with ``finite``, that every entry is finite; with
    ``sign`` +1 (-1), that the matrix is symmetric (antisymmetric) up to
    ``rtol`` times its largest entry, at least 1. A nonzero ``rtol`` stores
    the exactly (anti)symmetric part.
    """
    if type(values) is np.ndarray and values.dtype == np.float64 and not values.flags.writeable:
        arr = values
    else:
        arr = np.array(values, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"inconsistent shapes: {what} is {arr.shape}, expected {shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    if sign:
        scale = max(1.0, float(np.abs(arr).max()))
        if not float(np.abs(arr - sign * arr.T).max()) <= rtol * scale:
            raise ValueError(f"{what} must be {'anti' if sign < 0 else ''}symmetric")
        if rtol:
            arr = 0.5 * (arr + sign * arr.T)
    arr.setflags(write=False)
    return arr


def _square(name: str, value: float) -> float:
    """``value**2``; a square beyond the float range raises ``ValueError``
    naming ``name``."""
    try:
        return value**2
    except OverflowError:
        raise ValueError(f"{name} = {value!r} is too large: its square overflows") from None


def finite_real(name: str, value, integral: bool = False) -> float | int:
    """``value`` as a finite float, or as an int when ``integral``.

    Raises ``ValueError`` naming ``name`` for non-numbers, NaN, infinities
    and, when ``integral``, values with a fractional part.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not integral:
        return float(value)
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CanonicalFrame:
    """Ordered canonical coordinates with per-pair commutator signs.

    ``pairs`` holds ``(q_index, p_index, sign)`` triples, where ``sign`` is
    the sign of the commutator ``[q, p]`` in units of ``i*hbar``. The
    coordinate order is part of the contract: covariance row/column indices
    and every moment label follow it.
    """

    name: str
    labels: tuple[str, ...]
    pairs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = sorted(i for q, p, _ in self.pairs for i in (q, p))
        if seen != list(range(len(self.labels))):
            raise ValueError(f"pairs of frame {self.name!r} do not cover its coordinates")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def pair_signatures(self) -> tuple[int, ...]:
        return tuple(sign for _, _, sign in self.pairs)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise FrameError(f"frame {self.name!r} has no coordinate {label!r}") from None


BT1 = CanonicalFrame("BT1", ("x1", "p1", "p2", "x2"), ((0, 1, +1), (3, 2, -1)))
XY = CanonicalFrame("XY", ("x", "p_x", "y", "p_y"), ((0, 1, +1), (2, 3, +1)))
L1 = CanonicalFrame("L1", ("x", "p"), ((0, 1, +1),))


@dataclass(frozen=True)
class ModelParams:
    """Physical constants shared by the oscillator models.

    The three frequencies are tied by ``omega0**2 = big_omega**2 +
    lambda_damp**2``. Give either ``big_omega`` or ``omega0``; the other is
    derived. Only the underdamped regime (``lambda_damp < omega0``, i.e.
    ``big_omega > 0``) is supported.

    Parameters
    ----------
    m, hbar : float
        Mass and action scale, both > 0; ``hbar**2/4`` must be a normal float.
    lambda_damp : float
        Damping rate of the two-oscillator model, >= 0.
    gamma : float
        Lindblad damping rate, >= 0.
    omega : float
        Lindblad oscillator frequency, > 0.
    omega_prime : float
        Shifted Lindblad frequency, > 0; a free parameter, equal to ``omega``
        in all presets.
    nbar : float
        Reservoir mean occupation number, >= 0.
    n_level : int
        Initial excitation level used by the coherent initial state, >= 0.
    big_omega, omega0 : float, optional
        Effective and natural frequency; exactly one may be omitted.

    Every given value must be a finite real number, and ``n_level`` an
    integral one; a violation raises ``ValueError`` naming the field.
    """

    m: float = 1.0
    hbar: float = 1.0
    lambda_damp: float = 0.04
    gamma: float = 0.08
    omega: float = 1.5
    omega_prime: float = 1.5
    nbar: float = 0.0
    n_level: int = 3
    big_omega: float | None = 1.5
    omega0: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in ("big_omega", "omega0"):
                continue
            value = finite_real(f.name, value, integral=f.name == "n_level")
            object.__setattr__(self, f.name, value)
        if self.big_omega is None and self.omega0 is None:
            raise ValueError("one of big_omega or omega0 is required")
        lam = self.lambda_damp
        lam2 = _square("lambda_damp", lam)
        if self.big_omega is None:
            disc = _square("omega0", self.omega0) - lam2
            if disc <= 0.0:
                raise ValueError(
                    f"overdamped parameters rejected: lambda_damp={lam} >= omega0={self.omega0}"
                )
            object.__setattr__(self, "big_omega", math.sqrt(disc))
        elif self.omega0 is None:
            object.__setattr__(self, "omega0", math.hypot(self.big_omega, lam))
        else:
            omega0_2 = _square("omega0", self.omega0)
            gap = omega0_2 - _square("big_omega", self.big_omega) - lam2
            scale = max(1.0, omega0_2)
            if abs(gap) > 1e-9 * scale:
                raise ValueError(
                    "inconsistent frequencies: omega0**2 - big_omega**2 - lambda_damp**2 = "
                    f"{gap!r}"
                )
        for name in ("m", "hbar", "big_omega", "omega", "omega_prime"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("gamma", "lambda_damp", "nbar", "n_level"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        # hbar**2/4 is the uncertainty bound, and reading an echoed config
        # back squares the frequencies above
        for name in ("hbar", "big_omega", "omega0"):
            _square(name, getattr(self, name))
        if _uncertainty_bound(self.hbar) < sys.float_info.min:  # a bound of 0 passes any state
            raise ValueError(f"hbar = {self.hbar!r} is too small: its uncertainty bound underflows")

    @property
    def equivalence_mode(self) -> bool:
        """True when the two models share one dynamics: ``omega_prime =
        omega = big_omega`` and ``gamma = 2*lambda_damp``."""
        return (
            self.omega_prime == self.omega == self.big_omega
            and self.gamma == 2.0 * self.lambda_damp
        )


# ---------------------------------------------------------------------------
# moment indexing helpers

def indices_to_exponents(i: int, j: int, dim: int) -> tuple[int, ...]:
    """Exponent tuple of the second moment Sigma_ij (e.g. (1, 1, 0, 0))."""
    exps = [0] * dim
    exps[i] += 1
    exps[j] += 1
    return tuple(exps)


def exponents_to_indices(exponents) -> tuple[int, int]:
    """Inverse of :func:`indices_to_exponents`; returns (i, j) with i <= j."""
    if sum(exponents) != 2 or any(e < 0 for e in exponents):
        raise ValueError(f"not a second-moment exponent tuple: {exponents}")
    idx = [k for k, e in enumerate(exponents) for _ in range(e)]
    return idx[0], idx[1]


@dataclass(frozen=True, eq=False)
class MomentLayout:
    """The dim*(dim+1)/2 independent second moments of ``dim`` coordinates,
    in their one order: the row-major upper triangle of the covariance,
    which for four coordinates reads 2000, 1100, 1010, 1001, 0200, 0110,
    0101, 0020, 0011, 0002. Moment ``k`` is the entry ``(rows[k],
    cols[k])``, with exponent tuple ``exponents[k]`` and column label
    ``labels[k]`` (``"1100"``). The arrays are read-only: one layout serves
    every caller, see :func:`moment_layout`."""

    dim: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    exponents: tuple[tuple[int, ...], ...] = field(repr=False)
    labels: tuple[str, ...] = field(repr=False)

    def covariances(self, columns) -> np.ndarray:
        """Symmetric (n, dim, dim) covariances from the layout's moment
        columns of n values each, in its order: the one scatter of moments
        into both triangles. A column may view a wider table; nothing is
        stacked."""
        covs = np.empty((len(columns[0]), self.dim, self.dim))
        for column, i, j in zip(columns, self.rows.tolist(), self.cols.tolist(), strict=True):
            covs[:, i, j] = covs[:, j, i] = column
        return covs

    @functools.cached_property
    def units(self) -> np.ndarray:
        """The unit moments as covariances, read-only: moment ``k`` of
        ``units[k]`` is 1 and every other moment 0."""
        units = self.covariances(np.eye(len(self.rows)))
        units.setflags(write=False)
        return units


@functools.cache
def moment_layout(dim: int) -> MomentLayout:
    """The :class:`MomentLayout` of ``dim`` coordinates, built on its first
    use and shared from then on."""
    rows, cols = np.triu_indices(dim)
    rows.setflags(write=False)
    cols.setflags(write=False)
    exponents = tuple(indices_to_exponents(i, j, dim) for i, j in zip(rows.tolist(), cols.tolist()))
    return MomentLayout(dim, rows, cols, exponents, tuple("".join(map(str, e)) for e in exponents))


def moment_order(dim: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the independent second moments, in the order of
    :func:`moment_layout`."""
    return list(moment_layout(dim).exponents)


def covariances_from_moments(moments, dim: int) -> np.ndarray:
    """Symmetric (n, dim, dim) covariances from (n, dim*(dim+1)/2) moment
    rows in the order of :func:`moment_layout`, by its one scatter
    (:meth:`MomentLayout.covariances`)."""
    return moment_layout(dim).covariances(np.asarray(moments).T)


def moment_label(exponents) -> str:
    """Compact display form, e.g. ``G[1100]``."""
    return "G[" + "".join(str(e) for e in exponents) + "]"


# ---------------------------------------------------------------------------
# the uncertainty relation

def _pair_determinant(covs: np.ndarray, pair=(0, 1)) -> np.ndarray:
    """Uncertainty determinant ``S_qq*S_pp - S_qp**2`` of the canonical pair
    ``(q, p, ...)``, for one covariance or per covariance of a stack. An
    overflow gives inf or NaN, without a warning."""
    q, p = pair[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        return covs[..., q, q] * covs[..., p, p] - covs[..., q, p] ** 2


def _uncertainty_bound(hbar: float) -> float:
    """``hbar**2/4``, the least determinant a canonical pair may have."""
    return 0.25 * hbar * hbar


def _negative_variance(covs: np.ndarray, pair=(0, 1)) -> np.ndarray:
    """Does a variance of the canonical pair ``(q, p, ...)`` fall below 0?"""
    q, p = pair[:2]
    return (covs[..., q, q] < 0.0) | (covs[..., p, p] < 0.0)


def _uncertainty_test(covs: np.ndarray, hbar: float, tol: float, pair=(0, 1)):
    """``(determinants, violations)`` of a canonical pair, per covariance.

    A covariance violates the uncertainty relation unless its determinant
    is finite and ``>= hbar**2/4 - tol``, so a NaN determinant violates it;
    a negative variance violates it too.
    """
    det = _pair_determinant(covs, pair)
    holds = np.isfinite(det) & (det >= _uncertainty_bound(hbar) - tol)
    return det, ~holds | _negative_variance(covs, pair)


# ---------------------------------------------------------------------------
# state containers

@dataclass(frozen=True, eq=False)
class MeanVector:
    """Expectation values of the canonical coordinates, in frame order."""

    frame: CanonicalFrame
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _frozen_array(self.values, (self.frame.dim,), "mean vector", finite=True)
        object.__setattr__(self, "values", arr)

    def __repr__(self):
        pairs = ", ".join(f"{l}={v:g}" for l, v in zip(self.frame.labels, self.values))
        return f"MeanVector({self.frame.name}: {pairs})"


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric matrix of centered Weyl-ordered second moments.

    Entry ``(a, b)`` is the moment of coordinates ``a`` and ``b`` in frame
    order; the exponent-tuple accessor :meth:`moment` names the same entries
    the way the dynamical equations do. Construction enforces exact symmetry
    (input asymmetry beyond round-off is rejected, the stored matrix is
    symmetrized) and non-negative diagonal entries.
    """

    frame: CanonicalFrame
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.frame.dim
        arr = _frozen_array(self.entries, (d, d), "covariance", finite=True, sign=1, rtol=1e-9)
        if float(arr.diagonal().min()) < -1e-12 * max(1.0, float(np.abs(arr).max())):
            raise ValueError("covariance has a negative diagonal entry")
        object.__setattr__(self, "entries", arr)

    def moment(self, *exponents: int) -> float:
        """Moment by exponent tuple, e.g. ``cov.moment(1, 1, 0, 0)``."""
        if len(exponents) != self.frame.dim:
            raise ValueError(
                f"expected {self.frame.dim} exponents, got {len(exponents)}"
            )
        i, j = exponents_to_indices(exponents)
        return float(self.entries[i, j])

    def pair_determinant(self, k: int) -> float:
        """Uncertainty determinant S_qq S_pp - S_qp**2 of canonical pair k."""
        return float(_pair_determinant(self.entries, self.frame.pairs[k]))

    def satisfies_uncertainty(self, hbar: float, tol: float = 0.0) -> bool:
        """Check S_qq S_pp - S_qp**2 >= hbar**2/4 - tol for every pair; a
        non-finite determinant or a negative variance fails."""
        return not any(_uncertainty_test(self.entries, hbar, tol, pair)[1]
                       for pair in self.frame.pairs)

    def __repr__(self):
        return f"CovarianceMatrix({self.frame.name}, {self.frame.dim}x{self.frame.dim})"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled (means, covariance) history of one model run.

    ``ts`` has shape (n,), ``means`` (n, d) and ``covs`` (n, d, d) with d the
    frame dimension. Samples are immutable and share one frame; the output
    interval of a uniform grid is ``ts[1] - ts[0]``. Read-only float64
    arrays are stored as given (``traj.covs is covs``); writable ones are
    copied (see :func:`_frozen_array`).
    """

    frame: CanonicalFrame
    ts: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    covs: np.ndarray = field(repr=False)
    params: ModelParams | None = None

    def __post_init__(self):
        d = self.frame.dim
        ts = _frozen_array(self.ts, what="ts")
        n = ts.shape[0]
        if n > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "means", _frozen_array(self.means, (n, d), "means"))
        object.__setattr__(self, "covs", _frozen_array(self.covs, (n, d, d), "covs"))

    @property
    def n_samples(self) -> int:
        return self.ts.shape[0]

    def sample(self, i: int) -> tuple[float, MeanVector, CovarianceMatrix]:
        return (
            float(self.ts[i]),
            MeanVector(self.frame, self.means[i]),
            CovarianceMatrix(self.frame, self.covs[i]),
        )

    def __repr__(self):
        return (
            f"Trajectory({self.frame.name}, {self.n_samples} samples, "
            f"t in [{self.ts[0]:g}, {self.ts[-1]:g}])"
        )


# ---------------------------------------------------------------------------
# frame transformations

# Samples :func:`_transport` maps at a time: its temporaries are one or two
# chunks of 4x4 covariances, 0.5 MB each, however long the run is.
TRANSPORT_CHUNK = 4096

# rows (x, p_x, y, p_y) in terms of columns (x1, p1, p2, x2):
#   x = (x1 + x2)/sqrt(2),  p_x = (p1 - p2)/sqrt(2),
#   y = (x1 - x2)/sqrt(2),  p_y = (p1 + p2)/sqrt(2)
# kept as its exact sign pattern P, the map's one form; P/sqrt(2) is
# orthogonal, so P P^T = P^T P = 2 I and P^T is the way back
_BT1_XY_SIGNS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
    ]
)


def _frame_signs(source: CanonicalFrame, target: CanonicalFrame) -> np.ndarray | None:
    """The sign pattern of the frame map of states and systems: None for the
    identity, ``P`` for BT1 -> XY, ``P^T`` back, else ``FrameError``."""
    maps = {(BT1, XY): _BT1_XY_SIGNS, (XY, BT1): _BT1_XY_SIGNS.T}
    if source != target and (source, target) not in maps:
        raise FrameError(f"no transformation registered for {source.name} -> {target.name}")
    return maps.get((source, target))


def transform_state(
    means: MeanVector, cov: CovarianceMatrix, target: CanonicalFrame
) -> tuple[MeanVector, CovarianceMatrix]:
    """The (means, covariance) state in the frame ``target``.

    Supports BT1 <-> XY (both directions) and the identity on any frame,
    which returns the state as given. BT1 -> XY applies the exact sign
    pattern ``P`` that ``transform_system`` applies to the generators, XY ->
    BT1 its transpose (see :func:`_transport`). The map is canonical, so the
    covariance keeps its commutator structure. Raises ``FrameError`` for any
    other frame pair and when ``means`` and ``cov`` disagree on their frame.
    """
    source = means.frame
    if cov.frame != source:
        raise FrameError(
            f"state frames disagree: means {source.name}, covariance {cov.frame.name}"
        )
    signs = _frame_signs(source, target)
    if signs is None:
        return means, cov
    new_means, new_cov = _transport(signs, means.values, cov.entries)
    return MeanVector(target, new_means), CovarianceMatrix(target, new_cov)


def _transport(signs: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """Means ``(P z)/sqrt(2)`` and covariances ``(P S P^T)/2`` of one state
    or a stack of them, for a sign pattern ``P`` with ``P P^T = 2 I``, as
    new arrays. Each covariance entry is a signed sum of four entries of
    ``S``, halved exactly; the covariances are re-symmetrized exactly, in
    place, so round-off cannot leak asymmetry downstream. A stack goes
    through in chunks of ``TRANSPORT_CHUNK`` samples, written straight into
    the output, so no temporary grows with the stack; each sample's
    arithmetic is the same in any chunk."""
    stack = covs.reshape(-1, *covs.shape[-2:])
    out = np.empty_like(stack)
    for k in range(0, len(stack), TRANSPORT_CHUNK):
        block = out[k:k + TRANSPORT_CHUNK]
        np.matmul(signs @ stack[k:k + TRANSPORT_CHUNK], signs.T, out=block)
        block += np.swapaxes(block, -1, -2)
        block *= 0.25
    new_means = means @ signs.T
    new_means *= 1.0 / math.sqrt(2.0)
    return new_means, out.reshape(covs.shape)
