"""Bracket algebra of means and second moments for quadratic Hamiltonians.

Expectation values inherit a Poisson structure from the commutator,
``{<A>, <B>} = <[A, B]>/(i*hbar)``. On the centered second moments
``S_ab`` this closes into the four-term rule

    {S_ab, S_cd} = W_ac S_bd + W_ad S_bc + W_bc S_ad + W_bd S_ac

where ``W`` is the antisymmetric form built from the frame's commutator
signs. Together with the effective Hamiltonian of a quadratic model,

    H_eff = H_class(z) + (1/2) sum_ab H_ab S_ab,

this produces linear dynamics: ``zdot = (W_c H) z`` for the means and the
Lyapunov flow ``Sdot = A S + S A^T`` with ``A = W_q H`` for the moments.
The classical and moment sectors may use different forms; see
:func:`generate_dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    CanonicalFrame,
    CovarianceMatrix,
    FrameError,
    MeanVector,
    ModelParams,
    BT1,
    _frozen_array,
    exponents_to_indices,
    indices_to_exponents,
    moment_label,
    moment_order,
)
from .systems import ModelSystem

__all__ = [
    "SymplecticForm",
    "QuadraticHamiltonian",
    "sbth_hamiltonian",
    "moment_bracket",
    "bracket_table",
    "format_bracket",
    "expand_effective_hamiltonian",
    "generate_dynamics",
]


@dataclass(frozen=True, eq=False)
class SymplecticForm:
    """Antisymmetric pairing of a frame's coordinates.

    For pair k with commutator sign s_k the (q_k, p_k) block is
    ``[[0, s_k], [-s_k, 0]]``. The quantum form uses the frame's signs; the
    classical form sets every sign to +1, which is the bracket the mean
    values obey regardless of the operator ordering underneath.
    """

    frame: CanonicalFrame
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _frozen_array(self.matrix, (self.frame.dim,) * 2, "form", sign=-1)
        if abs(np.linalg.det(arr)) < 1e-12:
            raise ValueError("form must be nonsingular")
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def quantum(cls, frame: CanonicalFrame) -> "SymplecticForm":
        return cls(frame, _pair_form(frame, use_signs=True))

    @classmethod
    def classical(cls, frame: CanonicalFrame) -> "SymplecticForm":
        return cls(frame, _pair_form(frame, use_signs=False))


def _pair_form(frame: CanonicalFrame, use_signs: bool) -> np.ndarray:
    w = np.zeros((frame.dim, frame.dim))
    for q, p, sign in frame.pairs:
        s = float(sign) if use_signs else 1.0
        w[q, p] = s
        w[p, q] = -s
    return w


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Hamiltonian of the form (1/2) z^T H z + l.z + c on a frame."""

    frame: CanonicalFrame
    hessian: np.ndarray = field(repr=False)
    linear: np.ndarray = field(repr=False)
    constant: float = 0.0

    def __post_init__(self):
        d = self.frame.dim
        object.__setattr__(self, "hessian", _frozen_array(self.hessian, (d, d), "hessian", sign=1))
        object.__setattr__(self, "linear", _frozen_array(self.linear, (d,), "linear term"))

    def classical_value(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.hessian @ z + self.linear @ z + self.constant)


def sbth_hamiltonian(params: ModelParams) -> QuadraticHamiltonian:
    """Quadratic Hamiltonian of the two-oscillator damped model (BT1 frame).

    Oscillator minus mirror oscillator, coupled by the damping rate:

        H = p1^2/2m + m*Om^2*x1^2/2 - p2^2/2m - m*Om^2*x2^2/2
            - lam*(x1*p2 + x2*p1)
    """
    m, lam = params.m, params.lambda_damp
    k = m * params.big_omega**2
    hess = np.zeros((4, 4))
    hess[0, 0] = k
    hess[1, 1] = 1.0 / m
    hess[2, 2] = -1.0 / m
    hess[3, 3] = -k
    hess[0, 2] = hess[2, 0] = -lam
    hess[1, 3] = hess[3, 1] = -lam
    return QuadraticHamiltonian(BT1, hess, np.zeros(4), 0.0)


# ---------------------------------------------------------------------------
# brackets

def _canonical(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


def moment_bracket(pair_a, pair_b, form: SymplecticForm) -> dict[tuple[int, int], float]:
    """Poisson bracket of two second moments under the four-term rule.

    Parameters
    ----------
    pair_a, pair_b : tuple of int
        Coordinate index pairs (a, b) and (c, d) naming the moments S_ab
        and S_cd.
    form : SymplecticForm
        The pairing; use the frame's quantum form for moment dynamics.

    Returns
    -------
    dict
        Coefficients over canonical (i <= j) moment index pairs; zero terms
        are dropped, so an empty dict means the bracket vanishes.
    """
    d = form.frame.dim
    a, b = pair_a
    c, e = pair_b
    for idx in (a, b, c, e):
        if not 0 <= idx < d:
            raise IndexError(f"coordinate index {idx} out of range for frame {form.frame.name}")
    w = form.matrix
    out: dict[tuple[int, int], float] = {}
    for wi, wj, si, sj in ((a, c, b, e), (a, e, b, c), (b, c, a, e), (b, e, a, c)):
        coeff = w[wi, wj]
        if coeff != 0.0:
            key = _canonical(si, sj)
            out[key] = out.get(key, 0.0) + coeff
    return {k: v for k, v in out.items() if v != 0.0}


def bracket_table(form: SymplecticForm):
    """All pairwise brackets among the independent second moments.

    Returns a list of ``(exps_a, exps_b, terms)`` triples covering each
    unordered moment pair once, in canonical order; ``terms`` maps exponent
    tuples to coefficients. For a two-pair frame this is the full table of
    45 brackets.
    """
    order = moment_order(form.frame.dim)
    entries = []
    for i, exps_a in enumerate(order):
        for exps_b in order[i + 1 :]:
            terms = moment_bracket(
                exponents_to_indices(exps_a), exponents_to_indices(exps_b), form
            )
            entries.append(
                (
                    exps_a,
                    exps_b,
                    {
                        indices_to_exponents(i2, j2, form.frame.dim): c
                        for (i2, j2), c in terms.items()
                    },
                )
            )
    return entries


def format_bracket(exps_a, exps_b, terms: dict) -> str:
    """Render one table entry as ``{G[..],G[..]} = c*G[..] + ...``."""
    lhs = f"{{{moment_label(exps_a)},{moment_label(exps_b)}}}"
    if not terms:
        return f"{lhs} = 0"
    parts = [
        f"{c:g}*{moment_label(e)}"
        for e, c in sorted(terms.items(), reverse=True)
    ]
    return f"{lhs} = " + " + ".join(parts)


# ---------------------------------------------------------------------------
# effective Hamiltonian and generated dynamics

def expand_effective_hamiltonian(
    h: QuadraticHamiltonian, means: MeanVector, cov: CovarianceMatrix
) -> float:
    """Second-order effective Hamiltonian value, exact for quadratic models.

    ``H_eff = H_class(means) + (1/2) sum_ab H_ab S_ab``. With zero
    covariance this reduces to the classical value.
    """
    if means.frame != h.frame or cov.frame != h.frame:
        raise FrameError("hamiltonian and state frames disagree")
    return h.classical_value(means.values) + 0.5 * float(
        np.sum(h.hessian * cov.entries)
    )


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
