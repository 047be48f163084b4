import numpy as np
import pytest

import momentous as mm
from momentous.algebra import PAPER_BRACKETS, exponent_bracket, format_bracket
from momentous.model import exponents_to_indices, moment_order
from momentous.systems import moment_rows, sbth_moment_rows

RNG = np.random.default_rng(991)

QF = mm.SymplecticForm.quantum(mm.BT1)
CF = mm.SymplecticForm.classical(mm.BT1)

# ---------------------------------------------------------------------------
# symplectic forms

def test_quantum_form_bt1_entries():
    w = QF.matrix
    assert w[0, 1] == 1.0 and w[1, 0] == -1.0
    # flipped second pair: the (p2, x2) entry is +1
    assert w[2, 3] == 1.0 and w[3, 2] == -1.0


def test_classical_form_bt1_entries():
    w = CF.matrix
    assert w[0, 1] == 1.0
    assert w[2, 3] == -1.0  # {x2, p2} = +1 puts -1 at (p2, x2)


def test_form_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        mm.SymplecticForm(mm.L1, np.eye(2))
    with pytest.raises(ValueError, match="nonsingular"):
        mm.SymplecticForm(mm.L1, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# bracket rule vs the published table

def test_reference_table_reproduced_exactly():
    for exps_a, exps_b, expected in PAPER_BRACKETS:
        assert exponent_bracket(exps_a, exps_b, QF) == expected, (exps_a, exps_b)


def test_bracket_antisymmetry_all_pairs():
    order = moment_order(4)
    for a in order:
        for b in order:
            ab = exponent_bracket(a, b, QF)
            ba = exponent_bracket(b, a, QF)
            assert ab.keys() == ba.keys()
            for key, coeff in ab.items():
                assert ba[key] == -coeff
    for a in order:
        assert exponent_bracket(a, a, QF) == {}


def test_bracket_index_validation():
    with pytest.raises(IndexError):
        mm.moment_bracket((0, 4), (1, 2), QF)


def test_single_pair_bracket_algebra():
    """One-pair closure: {G20,G11}=2G20, {G20,G02}=4G11, {G11,G02}=2G02."""
    form = mm.SymplecticForm.quantum(mm.L1)
    assert exponent_bracket((2, 0), (1, 1), form) == {(2, 0): 2.0}
    assert exponent_bracket((2, 0), (0, 2), form) == {(1, 1): 4.0}
    assert exponent_bracket((1, 1), (0, 2), form) == {(0, 2): 2.0}


def test_bracket_table_covers_all_pairs():
    entries = mm.bracket_table(QF)
    assert len(entries) == 45
    seen = {frozenset((a, b)) for a, b, _ in entries}
    assert len(seen) == 45


def test_format_bracket():
    entries = {(a, b): terms for a, b, terms in mm.bracket_table(QF)}
    line = format_bracket((2, 0, 0, 0), (0, 2, 0, 0), entries[((2, 0, 0, 0), (0, 2, 0, 0))])
    assert line == "{G[2000],G[0200]} = 4*G[1100]"
    line = format_bracket((2, 0, 0, 0), (1, 0, 1, 0), entries[((2, 0, 0, 0), (1, 0, 1, 0))])
    assert line == "{G[2000],G[1010]} = 0"


def test_jacobi_identity_on_random_triples():
    """{A,{B,C}} + {B,{C,A}} + {C,{A,B}} vanishes on the moment algebra."""
    order = moment_order(4)
    values = {exps: RNG.normal() for exps in order}

    def nested(a, b, c):
        inner = exponent_bracket(b, c, QF)
        total = {}
        for mid, coeff in inner.items():
            for key, c2 in exponent_bracket(a, mid, QF).items():
                total[key] = total.get(key, 0.0) + coeff * c2
        return total

    for _ in range(50):
        a, b, c = (tuple(t) for t in RNG.choice(order, size=3))
        acc = 0.0
        for term in (nested(a, b, c), nested(b, c, a), nested(c, a, b)):
            acc += sum(coeff * values[key] for key, coeff in term.items())
        assert abs(acc) <= 1e-12


# ---------------------------------------------------------------------------
# effective Hamiltonian

def test_hamiltonian_coefficients(params):
    """Hessian-weighted moment sum term by term: m*Om^2/2 on the position
    variances (+/-), 1/2m on the momentum variances (+/-), -lam on the two
    cross moments, zero elsewhere."""
    h = mm.sbth_hamiltonian(params)
    k = params.m * params.big_omega**2
    expected = {
        (2, 0, 0, 0): 0.5 * k,
        (0, 2, 0, 0): 0.5 / params.m,
        (0, 0, 2, 0): -0.5 / params.m,
        (0, 0, 0, 2): -0.5 * k,
        (1, 0, 1, 0): -params.lambda_damp,
        (0, 1, 0, 1): -params.lambda_damp,
    }
    zero_means = mm.MeanVector(mm.BT1, np.zeros(4))
    for exps in moment_order(4):
        i, j = exponents_to_indices(exps)
        s = np.zeros((4, 4))
        s[i, j] = s[j, i] = 1.0
        value = mm.expand_effective_hamiltonian(
            h, zero_means, mm.CovarianceMatrix(mm.BT1, s)
        )
        assert value == expected.get(exps, 0.0), exps


def test_zero_covariance_gives_classical_value(params):
    h = mm.sbth_hamiltonian(params)
    z = RNG.normal(size=4)
    means = mm.MeanVector(mm.BT1, z)
    cov = mm.CovarianceMatrix(mm.BT1, np.zeros((4, 4)))
    x1, p1, p2, x2 = z
    k = params.m * params.big_omega**2
    expected = (
        p1**2 / (2 * params.m) + 0.5 * k * x1**2
        - p2**2 / (2 * params.m) - 0.5 * k * x2**2
        - params.lambda_damp * (x1 * p2 + x2 * p1)
    )
    assert mm.expand_effective_hamiltonian(h, means, cov) == pytest.approx(expected, rel=1e-14)


def test_free_particle_moment_term():
    g = 0.37
    h = mm.QuadraticHamiltonian(mm.L1, np.diag([0.0, 1.0 / 2.0]))
    means = mm.MeanVector(mm.L1, [0.0, 3.0])
    cov = mm.CovarianceMatrix(mm.L1, np.diag([0.0, g]))
    # H = p^2/2m with m=2: classical 9/4 plus g/(2m)
    assert mm.expand_effective_hamiltonian(h, means, cov) == pytest.approx(
        9.0 / 4.0 + g / 4.0, rel=1e-15
    )


def test_frame_mismatch_rejected(params):
    h = mm.sbth_hamiltonian(params)
    with pytest.raises(mm.FrameError):
        mm.expand_effective_hamiltonian(
            h, mm.MeanVector(mm.L1, [0.0, 0.0]), mm.CovarianceMatrix(mm.L1, np.eye(2))
        )


# ---------------------------------------------------------------------------
# generated dynamics

def test_generated_equals_transcribed(params, sbth_transcription):
    """build_sbth, the generated system, equals the hand transcription and
    the paper's moment rows exactly: at the preset, at zero damping (where
    the generator's +0.0 meets the transcription's -0.0) and at seeded
    draws of m, lambda, Omega and hbar over 10^+-6."""
    draws = np.random.default_rng(16)
    points = [params, mm.ModelParams(lambda_damp=0.0, gamma=0.0)]
    for m, lam, big_omega, hbar in 10.0 ** draws.uniform(-6, 6, (200, 4)):
        points.append(mm.ModelParams(m=m, lambda_damp=lam, big_omega=big_omega, hbar=hbar))
    for p in points:
        gen = mm.build_sbth(p)
        a_classical, a_moment = sbth_transcription(p)
        assert np.array_equal(gen.a_classical, a_classical), p
        assert np.array_equal(gen.a_moment, a_moment), p
        assert np.array_equal(moment_rows(gen.a_moment), sbth_moment_rows(p)), p


def test_generated_classical_rows(params):
    gen = mm.generate_dynamics(mm.sbth_hamiltonian(params), CF, QF, params)
    im = 1.0 / params.m
    lam = params.lambda_damp
    assert np.array_equal(gen.a_classical[0], [0.0, im, 0.0, -lam])  # x1dot


def test_simple_oscillator_generation():
    m, om = 1.0, 1.5
    h = mm.QuadraticHamiltonian(mm.L1, np.diag([m * om**2, 1.0 / m]))
    form = mm.SymplecticForm.quantum(mm.L1)
    gen = mm.generate_dynamics(h, form, form)
    assert np.array_equal(gen.a_classical, [[0.0, 1.0 / m], [-m * om**2, 0.0]])
    rows = moment_rows(gen.a_moment)
    # dG20 = 2*G11/m; moment order is (20, 11, 02)
    assert np.array_equal(rows[0], [0.0, 2.0 / m, 0.0])


def test_moment_rows_match_lyapunov_action():
    a = RNG.normal(size=(4, 4))
    s = RNG.normal(size=(4, 4))
    s = s + s.T
    rows = moment_rows(a)
    order = moment_order(4)
    vec = np.array([s[exponents_to_indices(e)] for e in order])
    full = a @ s + s @ a.T
    expect = np.array([full[exponents_to_indices(e)] for e in order])
    assert np.abs(rows @ vec - expect).max() <= 1e-12 * max(1.0, np.abs(full).max())


def test_flow_conserves_its_hamiltonian(params, sbth_run):
    """Both bracket-generated flows conserve their own Hamiltonian piece."""
    h = mm.sbth_hamiltonian(params)
    classical = np.array([h.classical_value(z) for z in sbth_run.means])
    moment = 0.5 * np.einsum("ab,nab->n", h.hessian, sbth_run.covs)
    assert np.abs(classical - classical[0]).max() <= 1e-9
    assert np.abs(moment - moment[0]).max() <= 1e-9
