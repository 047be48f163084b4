import dataclasses

import numpy as np
import pytest

import momentous as mm
from momentous.model import TRANSPORT_CHUNK, _BT1_XY_SIGNS, covariances_from_moments, moment_order
from momentous.systems import lindblad_diffusion, lindblad_margin, moment_rows, sbth_moment_rows

RNG = np.random.default_rng(4711)


def moment_row(params, exps):
    order = moment_order(4)
    mat = sbth_moment_rows(params)
    return dict(zip(order, mat[order.index(exps)]))


# ---------------------------------------------------------------------------
# two-oscillator system

def test_classical_rows(params):
    sys = mm.build_sbth(params)
    lam = params.lambda_damp
    k = params.m * params.big_omega**2
    im = 1.0 / params.m
    assert np.array_equal(sys.a_classical[0], [0.0, im, 0.0, -lam])   # x1
    assert np.array_equal(sys.a_classical[1], [-k, 0.0, lam, 0.0])    # p1
    assert np.array_equal(sys.a_classical[2], [0.0, lam, 0.0, k])     # p2 = m Om^2 x2 + lam p1
    assert np.array_equal(sys.a_classical[3], [-lam, 0.0, -im, 0.0])  # x2


def test_moment_row_g1100(params):
    lam = params.lambda_damp
    k = params.m * params.big_omega**2
    row = moment_row(params, (1, 1, 0, 0))
    assert row[(1, 0, 1, 0)] == lam
    assert row[(0, 1, 0, 1)] == -lam
    assert row[(0, 2, 0, 0)] == 1.0 / params.m
    assert row[(2, 0, 0, 0)] == -k


def test_moment_row_g0020(params):
    row = moment_row(params, (0, 0, 2, 0))
    assert row[(0, 1, 1, 0)] == -2.0 * params.lambda_damp
    assert row[(0, 0, 1, 1)] == -2.0 * params.m * params.big_omega**2


def test_transcription_matches_generator_rows(params):
    sys = mm.build_sbth(params)
    assert np.array_equal(moment_rows(sys.a_moment), sbth_moment_rows(params))


def test_zero_damping_decouples_into_mirrored_oscillators():
    p = mm.ModelParams(lambda_damp=0.0, gamma=0.0)
    sys = mm.build_sbth(p)
    a = sys.a_classical
    assert np.all(a[:2, 2:] == 0.0) and np.all(a[2:, :2] == 0.0)
    # pair 2 in (x2, p2) order runs backwards in time relative to pair 1
    pair1 = a[:2, :2]
    pair2 = np.array([[a[3, 3], a[3, 2]], [a[2, 3], a[2, 2]]])
    assert np.array_equal(pair2, -pair1)


def test_overflowing_hamiltonian_is_an_overflow_error():
    """m*Omega**2 = inf: the Hamiltonian refuses it before its symmetry
    test subtracts inf from inf (a warning, then a ValueError). The CLI's
    classical model is the closed form, so build_classical, built through
    transform_system and build_sbth, is reached from the library only."""
    with pytest.raises(OverflowError, match="coefficients overflow"):
        mm.build_classical(mm.ModelParams(m=1e200, big_omega=1e100))


def test_classical_sector_blind_to_covariance(params):
    """Means never see the moment state, by construction of the system."""
    grid = mm.IntegratorConfig(1e-3, 10.0, 100)
    means0, cov0 = mm.coherent_initial_state(params)
    bumped = np.array(cov0.entries)
    bumped[0, 2] = bumped[2, 0] = 0.05
    bumped[1, 3] = bumped[3, 1] = -0.03
    run_a = mm.integrate(mm.build_sbth(params), means0, cov0, grid)
    run_b = mm.integrate(
        mm.build_sbth(params), means0, mm.CovarianceMatrix(mm.BT1, bumped), grid
    )
    assert np.abs(run_a.means - run_b.means).max() <= 1e-12


# ---------------------------------------------------------------------------
# thermal (Lindblad) system

def test_lindblad_matrix(params):
    sys = mm.build_lindblad(params)
    g = params.gamma
    expected = np.array(
        [
            [-0.5 * g, params.omega_prime / (params.m * params.omega)],
            [-params.m * params.omega * params.omega_prime, -0.5 * g],
        ]
    )
    assert np.array_equal(sys.a_classical, expected)
    assert np.array_equal(sys.a_moment, expected)


def test_lindblad_variance_rate(params):
    """dG20 = -gamma*G20 + (2 omega'/m omega)*G11 + gamma*hbar*(2nbar+1)/(2 m omega)."""
    p = dataclasses.replace(params, nbar=2.0)
    sys = mm.build_lindblad(p)
    rows = moment_rows(sys.a_moment)
    factor = 2.0 * p.omega_prime / (p.m * p.omega)
    assert rows[0] == pytest.approx([-p.gamma, factor, 0.0], rel=1e-15)
    assert sys.diffusion[0, 0] == pytest.approx(
        p.gamma * p.hbar * 5.0 / (2.0 * p.m * p.omega), rel=1e-15
    )


@pytest.mark.parametrize("nbar", [0.0, 1.0, 2.0])
def test_lindblad_steady_state_closed_form(params, nbar):
    """Fixed point solved by hand: G20 = hbar(2n+1)/(2 m w), G02 = m w hbar (2n+1)/2, G11 = 0."""
    p = dataclasses.replace(params, nbar=nbar)
    sys = mm.build_lindblad(p)
    occ = 2.0 * nbar + 1.0
    steady = np.array(
        [
            [p.hbar * occ / (2.0 * p.m * p.omega), 0.0],
            [0.0, p.m * p.omega * p.hbar * occ / 2.0],
        ]
    )
    rate = sys.a_moment @ steady + steady @ sys.a_moment.T + sys.diffusion
    assert np.abs(rate).max() <= 1e-15


@pytest.mark.parametrize("point,t_end", [
    (dict(omega_prime=2.1, omega=1.5, gamma=0.3, nbar=1.5), 200.0),
    (dict(m=2.5, hbar=0.3, omega_prime=1.3, omega=0.8, gamma=0.5, nbar=0.7), 80.0),
])
def test_long_lindblad_run_reaches_the_stationary_covariance(params, point, t_end):
    """The stationary covariance solves A S + S A^T + D = 0, one linear
    solve of moment_rows(A) m = -d; off the equivalence point, and after
    gamma*t >= 30, a long run ends on it at round-off."""
    p = dataclasses.replace(params, **point)
    sys = mm.build_lindblad(p)
    rows, cols = np.triu_indices(2)
    m = np.linalg.solve(moment_rows(sys.a_moment), -sys.diffusion[rows, cols])
    steady = covariances_from_moments(m[None], 2)[0]
    scale = np.abs(steady).max()
    rate = sys.a_moment @ steady + steady @ sys.a_moment.T + sys.diffusion
    assert np.abs(rate).max() <= 1e-14 * scale * np.abs(sys.a_moment).max()
    run = mm.integrate(sys, *mm.coherent_initial_state(p, mm.L1),
                       mm.IntegratorConfig(1e-2, t_end, 1000))
    assert np.abs(run.covs[-1] - steady).max() <= 1e-13 * scale


def test_coherent_start_is_stationary_at_nbar_zero(params):
    means0, cov0 = mm.coherent_initial_state(params, mm.L1)
    sys = mm.build_lindblad(params)
    rate = sys.a_moment @ cov0.entries + cov0.entries @ sys.a_moment.T + sys.diffusion
    assert np.abs(rate).max() <= 1e-15


# ---------------------------------------------------------------------------
# classical closed form

def test_classical_analytic_standard_run(params):
    t = np.linspace(0.0, 20.0, 301)
    x, p = mm.classical_analytic(params, 2.0, 0.0, t)
    assert np.abs(x - 2.0 * np.exp(-0.04 * t) * np.cos(1.5 * t)).max() <= 1e-14
    assert np.abs(p + 3.0 * np.exp(-0.04 * t) * np.sin(1.5 * t)).max() <= 1e-14


def test_classical_analytic_undamped():
    p = mm.ModelParams(lambda_damp=0.0, gamma=0.0)
    t = np.linspace(0.0, 10.0, 101)
    x, _ = mm.classical_analytic(p, 1.0, 0.0, t)
    assert np.abs(x - np.cos(1.5 * t)).max() <= 1e-14


def test_classical_analytic_initial_point(params):
    x, p = mm.classical_analytic(params, 1.7, -0.3, 0.0)
    assert float(x) == 1.7 and float(p) == -0.3


def test_classical_matches_integrated_system(params):
    sys = mm.build_classical(params)
    means0 = mm.MeanVector(mm.L1, [2.0, 0.0])
    cov0 = mm.CovarianceMatrix(mm.L1, np.zeros((2, 2)))
    run = mm.integrate(sys, means0, cov0, mm.IntegratorConfig(1e-3, 10.0, 100))
    x, p = mm.classical_analytic(params, 2.0, 0.0, run.ts)
    assert np.abs(run.means[:, 0] - x).max() <= 1e-10
    assert np.abs(run.means[:, 1] - p).max() <= 1e-10


# ---------------------------------------------------------------------------
# diffusion report

def test_diffusion_constants_nbar2(params):
    p = dataclasses.replace(params, nbar=2.0)
    means0, cov0 = mm.coherent_initial_state(p)
    rep = mm.diffusion_report(p, cov0)
    assert rep.d_xx == pytest.approx(0.4 / 3.0, rel=1e-15)
    assert rep.d_pp == pytest.approx(0.3, rel=1e-15)
    assert rep.d_px == 0.0
    assert rep.margin_lindblad == pytest.approx(0.04 - 0.0016, rel=1e-12)
    assert rep.margin_lindblad > 0.0


@pytest.mark.parametrize("hbar", [1e-150, 1e-100, 1e-60, 1e-20, 1.0, 1e100])
def test_thermal_margin_is_exactly_zero_at_zero_occupation(params, hbar):
    """``(hbar*gamma)**2*nbar*(nbar + 1)`` is 0 at nbar = 0; as the
    difference ``d_xx*d_pp - (hbar*gamma/2)**2`` it read +1.99e-59 at
    hbar 1e-20 and -3.2e-319 at hbar 1e-150."""
    assert lindblad_margin(dataclasses.replace(params, hbar=hbar)) == 0.0


def test_thermal_margin_equals_the_determinant_difference():
    """Off nbar = 0 the closed form is the difference of the diffusion
    terms, at points where that difference does not cancel."""
    for _ in range(200):
        m, omega, hbar, gamma = 10.0 ** RNG.uniform(-6.0, 6.0, size=4)
        nbar = 10.0 ** RNG.uniform(-3.0, 3.0)
        p = mm.ModelParams(m=m, hbar=hbar, gamma=gamma, omega=omega, omega_prime=omega,
                           nbar=nbar)
        d_xx, d_pp, d_px = lindblad_diffusion(p)
        difference = d_xx * d_pp - d_px**2 - (0.5 * hbar * gamma) ** 2
        assert lindblad_margin(p) > 0.0
        assert lindblad_margin(p) == pytest.approx(difference, rel=1e-12)
    assert lindblad_margin(mm.ModelParams(nbar=2.0)) == 0.038400000000000004


@pytest.mark.parametrize("hbar, gamma", [(1.0, 1e300), (1e10, 1e300)])
def test_thermal_margin_overflow_is_an_overflow_error(params, hbar, gamma):
    """Whether ``hbar*gamma`` or only its square leaves the float range; an
    overflowed ``hbar*gamma`` gave a NaN margin."""
    p = dataclasses.replace(params, hbar=hbar, gamma=gamma, nbar=2.0)
    with pytest.raises(OverflowError, match="thermal diffusion margin overflows"):
        lindblad_margin(p)


@pytest.mark.parametrize("hbar, gamma, nbar", [(1.0, 0.08, 1e300), (1e10, 1e300, 0.0)])
def test_thermal_margin_product_overflow_is_an_overflow_error(params, hbar, gamma, nbar):
    """A finite ``(hbar*gamma)**2`` times a huge ``nbar*(nbar + 1)`` was
    returned as inf; an overflowed one times ``nbar = 0`` is NaN."""
    p = dataclasses.replace(params, hbar=hbar, gamma=gamma, nbar=nbar)
    with pytest.raises(OverflowError, match="thermal diffusion margin overflows"):
        lindblad_margin(p)


def test_coherent_state_saturates_moment_margin(params):
    means0, cov0 = mm.coherent_initial_state(params)
    rep = mm.diffusion_report(params, cov0)
    assert rep.d_gxx == pytest.approx(0.08 / 3.0, rel=1e-15)
    assert rep.d_gpp == pytest.approx(0.08 * 0.75, rel=1e-15)
    assert rep.d_gpx == 0.0
    assert abs(rep.margin_moment) <= 1e-12


def test_zero_damping_zeroes_moment_coefficients():
    p = mm.ModelParams(lambda_damp=0.0, gamma=0.0)
    _, cov0 = mm.coherent_initial_state(p)
    rep = mm.diffusion_report(p, cov0)
    assert rep.d_gxx == rep.d_gpp == rep.d_gpx == 0.0


def test_moment_margin_identity(params):
    """margin == 4*lam^2 * (U1 - hbar^2/4) for any covariance."""
    lam, hb = params.lambda_damp, params.hbar
    for _ in range(25):
        a = RNG.normal(size=(4, 4))
        cov = mm.CovarianceMatrix(mm.BT1, a @ a.T + 4.0 * np.eye(4))
        rep = mm.diffusion_report(params, cov)
        u1 = cov.pair_determinant(0)
        expected = 4.0 * lam**2 * (u1 - 0.25 * hb * hb)
        assert rep.margin_moment == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_diffusion_report_requires_bt1(params):
    with pytest.raises(mm.FrameError):
        mm.diffusion_report(params, mm.CovarianceMatrix(mm.L1, np.eye(2)))


# ---------------------------------------------------------------------------
# XY view

def test_equivalence_mode_blocks_agree(params):
    """(x, p_x) classical block equals the thermal model matrix exactly."""
    assert params.equivalence_mode
    xy_sys = mm.transform_system(mm.build_sbth(params), mm.XY)
    lind = mm.build_lindblad(params)
    assert np.array_equal(xy_sys.a_classical[:2, :2], lind.a_classical)


def test_qdho_xy_classical_block(params):
    sys = mm.transform_system(mm.build_sbth(params), mm.XY)
    lam, im = params.lambda_damp, 1.0 / params.m
    k = params.m * params.big_omega**2
    assert np.array_equal(sys.a_classical[0], [-lam, im, 0.0, 0.0])
    assert np.array_equal(sys.a_classical[1], [-k, -lam, 0.0, 0.0])


def test_qdho_xy_zero_damping():
    p = mm.ModelParams(lambda_damp=0.0, gamma=0.0)
    sys = mm.transform_system(mm.build_sbth(p), mm.XY)
    assert np.array_equal(
        sys.a_classical[:2, :2], [[0.0, 1.0], [-p.m * p.big_omega**2, 0.0]]
    )


def _underdamped_points(n, seed):
    rng = np.random.default_rng(seed)
    for lam, om, m in 10.0 ** rng.uniform(-4, 4, (n, 3)):
        yield mm.ModelParams(lambda_damp=lam, big_omega=om, m=m)


def test_qdho_xy_generators_are_exact():
    """Both XY generators hold exactly 0 or one BT1 coefficient per entry:
    no round-off from the 1/sqrt(2) of the frame map."""
    for p in _underdamped_points(200, seed=9):
        lam, im, k = p.lambda_damp, 1.0 / p.m, p.m * p.big_omega**2
        sys = mm.transform_system(mm.build_sbth(p), mm.XY)
        assert np.array_equal(sys.a_classical, [
            [-lam, im, 0.0, 0.0], [-k, -lam, 0.0, 0.0], [0.0, 0.0, lam, im], [0.0, 0.0, -k, lam],
        ])
        assert np.array_equal(sys.a_moment, [
            [0.0, 0.0, lam, im], [0.0, 0.0, -k, lam], [-lam, im, 0.0, 0.0], [-k, -lam, 0.0, 0.0],
        ])
        assert np.array_equal(mm.build_classical(p).a_classical, sys.a_classical[:2, :2])


def test_transform_system_follows_the_state_frame_rule(params):
    """Systems change frame by transform_state's rule: the identity in
    their own frame, P to XY and back exactly, a FrameError otherwise. The
    diffusion maps as a covariance does."""
    sbth = mm.build_sbth(params)
    assert mm.transform_system(sbth, mm.BT1) is sbth
    back = mm.transform_system(mm.transform_system(sbth, mm.XY), mm.BT1)
    for name in ("a_classical", "a_moment", "diffusion"):
        assert np.array_equal(getattr(back, name), getattr(sbth, name)), name
    diffusion = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.2, 0.4],
                          [0.1, 0.2, 3.0, 0.5], [0.0, 0.4, 0.5, 1.5]])
    thermal = mm.ModelSystem("D", mm.BT1, sbth.a_classical, sbth.a_moment, diffusion, params)
    means0 = mm.MeanVector(mm.BT1, np.zeros(4))
    _, cov = mm.transform_state(means0, mm.CovarianceMatrix(mm.BT1, diffusion), mm.XY)
    assert np.array_equal(mm.transform_system(thermal, mm.XY).diffusion, cov.entries)
    with pytest.raises(mm.FrameError, match="no transformation registered for L1 -> XY"):
        mm.transform_system(mm.build_lindblad(params), mm.XY)


def test_qdho_xy_long_run_keeps_the_energy():
    """Integrated in its own frame, the XY system holds the physical energy
    where the mirror mode has grown by e^40: the BT1 run's xy_view carries
    round-off of size eps*e^40 times the starting amplitude at this point,
    against an exact 0.75."""
    p = mm.ModelParams(lambda_damp=1.0, gamma=2.0, big_omega=1.5, omega=1.5, omega_prime=1.5)
    run = mm.integrate(mm.transform_system(mm.build_sbth(p), mm.XY),
                       *mm.coherent_initial_state(p, mm.XY), mm.IntegratorConfig(1e-3, 40.0, 1000))
    exact = float(mm.lindblad_mean_energy(p, 40.0))
    assert mm.energy_report(run).e_mean[-1] == pytest.approx(exact, rel=1e-9)


def test_xy_view_matches_per_sample_transform(params, sbth_run):
    view = mm.xy_view(sbth_run)
    for i in (0, 173, 800):
        _, means, cov = sbth_run.sample(i)
        m2, c2 = mm.transform_state(means, cov, mm.XY)
        scale = max(1.0, float(np.abs(means.values).max()))
        assert np.abs(view.means[i] - m2.values).max() <= 1e-15 * scale
        assert np.abs(view.covs[i] - c2.entries).max() <= 1e-15 * scale


def test_xy_view_samples_are_read_only(sbth_run):
    view = mm.xy_view(sbth_run)
    assert view.ts is sbth_run.ts  # read-only already: adopted, not copied
    for arr in (view.means, view.covs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def whole_stack_transport(means, covs):
    """The BT1 -> XY transport of a whole stack at once, the reference for
    the chunked one: ``(P z)/sqrt(2)`` and ``(P S P^T)/2``."""
    signs = _BT1_XY_SIGNS
    covs = signs @ covs @ signs.T
    covs += np.swapaxes(covs, -1, -2)
    covs *= 0.25
    return (means @ signs.T) * (1.0 / np.sqrt(2.0)), covs


def random_bt1_run(n):
    a = RNG.normal(size=(n, 4, 4))
    return mm.Trajectory(mm.BT1, np.arange(n, dtype=float), RNG.normal(size=(n, 4)),
                         a @ np.swapaxes(a, 1, 2))


def bits(arr):
    return arr.view(np.uint64)


def test_chunked_transport_is_bit_identical_to_the_whole_stack():
    n = 20_001  # not a multiple of the chunk
    assert n % TRANSPORT_CHUNK
    run = random_bt1_run(n)
    view = mm.xy_view(run)
    means, covs = whole_stack_transport(run.means, run.covs)
    assert np.array_equal(bits(view.means), bits(means))
    assert np.array_equal(bits(view.covs), bits(covs))
    _, mean, cov = run.sample(173)
    mean_xy, cov_xy = mm.transform_state(mean, cov, mm.XY)
    means, covs = whole_stack_transport(mean.values, cov.entries)
    assert np.array_equal(bits(mean_xy.values), bits(means))
    assert np.array_equal(bits(cov_xy.entries), bits(covs))


def test_xy_view_temporaries_are_bounded_by_a_chunk(traced_peak):
    """Above its own output, xy_view holds at most two chunks of 4x4
    covariances, however long the run; the whole-stack transport held
    0.62 of the output more at 20 001 samples."""
    run = random_bt1_run(20_001)
    mm.xy_view(run)
    output = run.means.nbytes + run.covs.nbytes
    assert traced_peak(lambda: mm.xy_view(run)) - output <= 2 * TRANSPORT_CHUNK * 16 * 8


def test_integrated_xy_system_matches_view(params):
    """Integrating the transported system equals transporting the run."""
    grid = mm.IntegratorConfig(1e-3, 10.0, 100)
    means0, cov0 = mm.coherent_initial_state(params)
    bt1_run = mm.integrate(mm.build_sbth(params), means0, cov0, grid)
    m_xy, c_xy = mm.transform_state(means0, cov0, mm.XY)
    xy_run = mm.integrate(mm.transform_system(mm.build_sbth(params), mm.XY), m_xy, c_xy, grid)
    view = mm.xy_view(bt1_run)
    assert np.abs(view.means - xy_run.means).max() <= 1e-9
    assert np.abs(view.covs - xy_run.covs).max() <= 1e-9


def xy_variance_rate_residual(traj):
    """Residual of the transported position-variance rate identity of a
    BT1 run, on the interior of its grid. The XY position variance obeys

        d/dt G[2000]_xy = -2*lam*G[2000]_xy + (2/m)*G[1100]_xy
                          + (2/m)*(G[0011] + G[1010])
                          + 2*lam*(G[2000] + G[1001])

    with the unlabelled moments taken from the BT1 state. The left side is
    a fourth-order central difference on the grid's spacing ``ts[1] -
    ts[0]``, so the residual means something only on a uniform, fine grid.
    """
    assert traj.frame == mm.BT1 and traj.n_samples >= 5
    lam, m = traj.params.lambda_damp, traj.params.m
    xy = mm.xy_view(traj)
    g20 = xy.covs[:, 0, 0]
    g11 = xy.covs[:, 0, 1]
    h = traj.ts[1] - traj.ts[0]
    lhs = (-g20[4:] + 8.0 * g20[3:-1] - 8.0 * g20[1:-3] + g20[:-4]) / (12.0 * h)
    rhs = (
        -2.0 * lam * g20
        + (2.0 / m) * g11
        + (2.0 / m) * (traj.covs[:, 2, 3] + traj.covs[:, 0, 2])
        + 2.0 * lam * (traj.covs[:, 0, 0] + traj.covs[:, 0, 3])
    )
    return lhs - rhs[2:-2]


def test_xy_variance_rate_identity_nonstationary(params):
    """Finite-difference check of the transported variance flow on a run
    whose moments actually move (coherent width mismatched to Omega)."""
    p = dataclasses.replace(params, omega=2.0, omega_prime=2.0)
    means0, cov0 = mm.coherent_initial_state(p)
    run = mm.integrate(
        mm.build_sbth(p), means0, cov0, mm.IntegratorConfig(1e-3, 2.0, 1)
    )
    resid = xy_variance_rate_residual(run)
    # sanity: the moments are genuinely moving
    assert np.abs(run.covs[-1] - run.covs[0]).max() > 1e-3
    assert np.abs(resid).max() <= 1e-9


def test_xy_variance_rate_identity_stationary(sbth_run):
    resid = xy_variance_rate_residual(sbth_run)
    assert np.abs(resid).max() <= 1e-12


def test_model_system_validation(params):
    with pytest.raises(ValueError, match="symmetric"):
        mm.ModelSystem(
            "bad", mm.L1, np.zeros((2, 2)), np.zeros((2, 2)),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
        )
    with pytest.raises(ValueError, match=">= 0"):
        mm.ModelSystem(
            "bad", mm.L1, np.zeros((2, 2)), np.zeros((2, 2)), -np.eye(2)
        )
