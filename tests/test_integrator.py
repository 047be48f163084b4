import math
import resource

import numpy as np
import pytest

import momentous as mm
from momentous import model
from momentous.csvio import read_csv, write_csv
from momentous.integrator import (MAX_STEPS, IntegrationError, _first_nonfinite, _reblocked,
                                  _steps)

RNG = np.random.default_rng(7)


def scalar_decay_system():
    """Both coordinates decay as exp(-t); no moment dynamics."""
    a = np.diag([-1.0, -1.0])
    zero = np.zeros((2, 2))
    return mm.ModelSystem("decay", mm.L1, a, zero, zero)


def test_config_validation():
    with pytest.raises(ValueError):
        mm.IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        mm.IntegratorConfig(dt=1.0, t_end=0.5)
    with pytest.raises(ValueError):
        mm.IntegratorConfig(dt=1e-3, t_end=1.0, sample_every=0)
    with pytest.raises(ValueError, match="sample_every must be an integer"):
        mm.IntegratorConfig(dt=1e-3, t_end=1.0, sample_every=10.9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            mm.IntegratorConfig(dt=bad, t_end=1.0)
        with pytest.raises(ValueError, match="t_end must be finite"):
            mm.IntegratorConfig(dt=1e-3, t_end=bad)


def test_step_count_bounded_before_allocation():
    limit = MAX_STEPS
    assert limit >= 200_000  # the largest grid the tests and benchmark run
    assert mm.IntegratorConfig(dt=1.0, t_end=float(limit)).n_steps == limit
    for dt, t_end in ((1.0, limit + 1.0), (1e-3, 1e13), (1e-300, 80.0), (1e-300, 1e300)):
        with pytest.raises(ValueError, match="exceeds the bound"):
            mm.IntegratorConfig(dt=dt, t_end=t_end)


def test_step_count_snaps_to_integer():
    assert mm.IntegratorConfig(1e-3, 80.0, 100).n_steps == 80000
    assert mm.IntegratorConfig(0.1, 1.05, 2).n_steps == 10


def test_sample_count_matches_contract():
    # floor(t_end/step) + 1 with step = dt*sample_every
    cfg = mm.IntegratorConfig(0.1, 1.05, 2)
    sys = scalar_decay_system()
    run = mm.integrate(
        sys, mm.MeanVector(mm.L1, [1.0, 1.0]),
        mm.CovarianceMatrix(mm.L1, np.zeros((2, 2))), cfg,
    )
    assert run.n_samples == math.floor(1.05 / 0.2) + 1 == 6
    cfg = mm.IntegratorConfig(1e-3, 80.0, 100)
    assert cfg.n_steps // cfg.sample_every + 1 == math.floor(80.0 / 0.1) + 1


def test_exponential_decay_accuracy():
    sys = scalar_decay_system()
    run = mm.integrate(
        sys, mm.MeanVector(mm.L1, [1.0, 1.0]),
        mm.CovarianceMatrix(mm.L1, np.zeros((2, 2))),
        mm.IntegratorConfig(1e-3, 1.0, 1000),
    )
    assert abs(run.means[-1, 0] - math.exp(-1.0)) <= 1e-12


def test_frame_mismatch_rejected(params):
    sys = mm.build_sbth(params)
    with pytest.raises(mm.FrameError):
        mm.integrate(
            sys, mm.MeanVector(mm.L1, [0.0, 0.0]),
            mm.CovarianceMatrix(mm.L1, np.eye(2)),
            mm.IntegratorConfig(1e-3, 1.0, 10),
        )


def test_bit_identical_reruns(params):
    means0, cov0 = mm.coherent_initial_state(params)
    cfg = mm.IntegratorConfig(1e-3, 5.0, 50)
    a = mm.integrate(mm.build_sbth(params), means0, cov0, cfg)
    b = mm.integrate(mm.build_sbth(params), means0, cov0, cfg)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covs, b.covs)
    assert np.array_equal(a.ts, b.ts)


def test_integrated_samples_are_read_only(sbth_run):
    """The trajectory adopts the arrays the integrator filled, read-only."""
    for arr in (sbth_run.ts, sbth_run.means, sbth_run.covs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_covariance_exactly_symmetric(params, sbth_run):
    asym = np.abs(sbth_run.covs - sbth_run.covs.transpose(0, 2, 1)).max()
    assert asym == 0.0


def test_raw_step_asymmetry_is_roundoff_level(params):
    """One RK4 step of the full Lyapunov flow, never symmetrized, stays
    symmetric to ~eps."""
    sys = mm.build_sbth(params)
    a = sys.a_moment
    s = RNG.normal(size=(4, 4))
    s = s + s.T

    def rate(mat):
        return a @ mat + mat @ a.T

    h = 1e-3
    k1 = rate(s)
    k2 = rate(s + 0.5 * h * k1)
    k3 = rate(s + 0.5 * h * k2)
    k4 = rate(s + h * k3)
    s1 = s + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    assert np.abs(s1 - s1.T).max() <= 1e-13


def test_lindblad_coherent_covariance_constant(params, lindblad_run):
    """nbar=0 coherent start sits exactly on the fixed point."""
    drift = np.abs(lindblad_run.covs - lindblad_run.covs[0]).max()
    assert drift <= 1e-10


def test_nonfinite_state_reported():
    a = np.diag([100.0, 100.0])
    zero = np.zeros((2, 2))
    sys = mm.ModelSystem("explode", mm.L1, a, zero, zero)
    # per-step growth 1 + 100 + 100**2/2 + ... ~ 4.3e6 overflows at step 47;
    # sample_every 10 pins the check to steps, not samples
    with pytest.raises(IntegrationError, match="step 47 ") as err:
        mm.integrate(
            sys, mm.MeanVector(mm.L1, [1.0, 1.0]),
            mm.CovarianceMatrix(mm.L1, np.zeros((2, 2))),
            mm.IntegratorConfig(1.0, 100.0, 10),
        )
    assert err.value.step == 47 and err.value.t == 47.0


def _explode(cfg):
    """Integrate ``test_nonfinite_state_reported``'s system; its state stops
    being finite at step 47 (t = 47)."""
    a = np.diag([100.0, 100.0])
    zero = np.zeros((2, 2))
    sys = mm.ModelSystem("explode", mm.L1, a, zero, zero)
    mm.integrate(sys, mm.MeanVector(mm.L1, [1.0, 1.0]), mm.CovarianceMatrix(mm.L1, zero), cfg)


@pytest.mark.parametrize("every", [1, 46, 47, 48, 100])
def test_failure_names_the_exact_step(every):
    """Step 47 is stored at sample_every 1 and 47 (found by the bulk row
    check) and not stored at 46, 48 and 100 (found by the per-step check);
    both report the earliest non-finite step."""
    with pytest.raises(IntegrationError, match="step 47 ") as err:
        _explode(mm.IntegratorConfig(1.0, 100.0, every))
    assert err.value.step == 47 and err.value.t == 47.0


def test_a_step_of_opposite_infinities_is_not_finite():
    """Between samples a step is tested by its sum: entries +inf and -inf
    sum to NaN, so that step ends the steps. Here the first two entries of
    (1, -1, 1) grow by 1e100 a step: finite up to the stored step 3
    (1e300, -1e300, 1), then (+inf, -inf, 1) at step 4, which is not
    stored."""
    step_matrix = np.diag([1e100, 1e100, 1.0])
    rows = np.empty((2, 3))
    failed = _steps(step_matrix, np.array([1.0, -1.0, 1.0]), 0, 8, 3, rows)
    assert failed == 4
    assert rows[0].tolist() == [1e300, -1e300, 1.0]


@pytest.mark.parametrize(("rows", "want"), [
    ([[1e308, 0.0, 0.0], [0.0, 1e308, 0.0]], None),
    ([[1.0, 2.0, 3.0], [1.0, math.nan, 3.0], [math.inf, 0.0, 0.0]], 1),
    ([[1.0, 2.0, 3.0], [math.inf, -math.inf, 1.0], [1.0, 2.0, 3.0]], 1),
], ids=["finite rows whose total overflows", "a NaN row", "opposite infinities"])
def test_first_nonfinite_names_the_first_row_whose_sum_is_not_finite(rows, want):
    """The test of every step is its row sum: finite rows whose sums total
    an overflow are all finite, and the first row holding a NaN, or +inf
    and -inf together, is named by its index. Its callers ignore overflow
    and invalid results, as here."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert _first_nonfinite(np.array(rows)) == want


def test_a_sparse_run_holds_no_more_than_a_span(params, traced_peak):
    """The steps between two samples go through a buffer of at most 256
    steps, however far apart the samples are: 200 000 steps storing every
    100 000th peak near 0.1 MB, where a buffer of one sample interval
    would take 12 MB."""
    means0, cov0 = mm.coherent_initial_state(params)
    cfg = mm.IntegratorConfig(1e-3, 200.0, 100_000)
    assert traced_peak(lambda: mm.integrate(mm.build_sbth(params), means0, cov0, cfg)) < 256 * 1024


def test_dense_blow_up_stops_within_one_block():
    """At sample_every = 1 every step is stored, and the samples are filled
    256 at a time by one product of a power table, scanned before any of its
    rows is handed on. A run that went on to t_end would write the whole
    480 MB table: at least 229 page faults even in 2 MiB huge pages (about
    1 700 measured). Stopping at the first product, which holds step 47,
    touches the 74 KB table and the product's 12 KB (about 25 faults
    measured)."""
    cfg = mm.IntegratorConfig(1.0, 1e7, 1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with pytest.raises(IntegrationError, match="step 47 "):
        _explode(cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 150


@pytest.mark.parametrize("block", [1, 7, 255, 257, 4096])
@pytest.mark.parametrize("grid", [(0.3, 7.0, 1), (0.3, 7.0, 4), (0.1, 20.0, 7), (0.01, 7.0, 1)])
def test_blocks_are_the_whole_run(params, block, grid):
    """Read block by block, a run is the whole run bit for bit, its sample
    times included; the steps after the last sample are taken too. A run
    that stores every step is filled 256 samples at a time from a table,
    anchored at multiples of 256 whatever the block size: the 701 samples
    of the last grid span three tables, and blocks of 255 and 257 cut them
    on either side of an anchor."""
    cfg = mm.IntegratorConfig(*grid)
    system, (means0, cov0) = mm.build_sbth(params), mm.coherent_initial_state(params)
    whole = mm.integrate(system, means0, cov0, cfg)
    run = mm.integrate(system, means0, cov0, cfg, block)
    parts = list(run.blocks)
    assert {part.n_samples for part in parts[:-1]} <= {block}
    assert run.n_samples == whole.n_samples and np.array_equal(run.ts, whole.ts)
    for name in ("ts", "means", "covs"):
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert np.array_equal(joined.view(np.uint64), getattr(whole, name).view(np.uint64))


@pytest.mark.parametrize("block", [1, 7, 46, 47, 4096])
@pytest.mark.parametrize("every", [1, 47, 48])
def test_blocks_name_the_exact_failing_step(block, every):
    """A run read block by block fails at the step the whole run names,
    from the block that holds it, once the blocks before it are read."""
    a = np.diag([100.0, 100.0])
    zero = np.zeros((2, 2))
    sys = mm.ModelSystem("explode", mm.L1, a, zero, zero)
    cfg = mm.IntegratorConfig(1.0, 100.0, every)
    run = mm.integrate(sys, mm.MeanVector(mm.L1, [1.0, 1.0]), mm.CovarianceMatrix(mm.L1, zero),
                       cfg, block)
    with pytest.raises(ValueError, match="block must be at least 1 sample"):
        mm.integrate(sys, mm.MeanVector(mm.L1, [1.0, 1.0]), mm.CovarianceMatrix(mm.L1, zero),
                     cfg, 0)
    read = 0
    with pytest.raises(IntegrationError, match="step 47 "):
        for part in run.blocks:
            read += part.n_samples
    stepping = -(-47 // every)  # the sample whose steps reach step 47
    assert read == stepping // block * block


@pytest.mark.parametrize("grid, reads", [((1.0, 50.0, 40), {1: 1, 2: 0}),
                                         ((1.0, 50.0, 60), {1: 0, 2: 0})],
                         ids=["two samples", "one sample"])
def test_a_failure_after_the_last_sample_holds_back_the_last_block(grid, reads):
    """Step 47 of the exploding system lies after the last sample (t = 40
    on the first grid, t = 0 on the second), among the steps the last
    block takes too: the whole run raises there, and read block by block
    the last block is never handed on."""
    a = np.diag([100.0, 100.0])
    zero = np.zeros((2, 2))
    sys = mm.ModelSystem("explode", mm.L1, a, zero, zero)
    state = mm.MeanVector(mm.L1, [1.0, 1.0]), mm.CovarianceMatrix(mm.L1, zero)
    cfg = mm.IntegratorConfig(*grid)
    with pytest.raises(IntegrationError, match="step 47 "):
        mm.integrate(sys, *state, cfg)
    for block, want in reads.items():
        read = 0
        with pytest.raises(IntegrationError, match="step 47 "):
            for part in mm.integrate(sys, *state, cfg, block).blocks:
                read += part.n_samples
        assert read == want, block


@pytest.mark.parametrize("bad", [2.5, "3", True, math.nan, 0, -1])
def test_a_block_that_is_not_an_integer_of_at_least_1_is_refused(tmp_path, bad):
    """``integrate`` and ``read_csv`` take a block size by one rule: a
    ValueError naming ``block``, before any step or any read."""
    path = tmp_path / "run.csv"
    write_csv(path, {"model": "test"}, ["t"], [[np.arange(3.0)]])
    system = scalar_decay_system()
    state = mm.MeanVector(mm.L1, [1.0, 1.0]), mm.CovarianceMatrix(mm.L1, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^block must be "):
        mm.integrate(system, *state, mm.IntegratorConfig(0.1, 1.0, 1), bad)
    with pytest.raises(ValueError, match="^block must be "):
        read_csv(path, bad)


@pytest.mark.parametrize("size", [1, 7, None])
def test_reblocked_regroups_rows_in_one_buffer(size):
    """Parts of 0, 1, 700 and 5 000 rows, from a buffer started at 3 rows:
    the rows come back in order, every block but the last holds ``size``
    rows (one block when None), and the full blocks are one buffer."""
    rows = np.arange(5701.0 * 2).reshape(-1, 2)
    parts = np.split(rows, [0, 1, 701])
    assert [len(part) for part in parts] == [0, 1, 700, 5000]
    blocks, buffers = [], set()
    for block in _reblocked(iter(parts), size, 2, 3):
        blocks.append(block.copy())
        if len(block) == size:
            buffers.add(block.__array_interface__["data"][0])
    assert np.array_equal(np.concatenate(blocks), rows)
    assert [len(block) for block in blocks[:-1]] == [size] * (len(blocks) - 1)
    if size is None:
        assert len(blocks) == 1
    else:
        assert len(buffers) == 1


def _means_error(params, run):
    """Max error of a BT1 run's XY means against the closed form."""
    view = mm.xy_view(run)
    x, p_x = mm.classical_analytic(params, *view.means[0, :2], run.ts)
    return max(np.abs(view.means[:, 0] - x).max(), np.abs(view.means[:, 1] - p_x).max())


def test_dense_runs_are_as_accurate_as_the_step_loop(params, sbth_run):
    """A run that stores every step is filled from a table of P^j - I, 256
    powers of the step matrix P, 312 tables on this grid. The coherent
    moments stay on their fixed point to a few eps (4.4e-16 measured; the
    step loop drifts 1.9e-16, a table of P^j 1.4e-13 or more), and the
    means stay within the step loop's own error of the closed form, with a
    quarter of it to spare for another BLAS (1.75e-12 measured; the step
    loop reads 2.13e-12 on this grid, a table of P^j 1.3e-11)."""
    means0, cov0 = mm.coherent_initial_state(params)
    run = mm.integrate(mm.build_sbth(params), means0, cov0, mm.IntegratorConfig(1e-3, 80.0, 1))
    drift = np.abs(run.covs - cov0.entries).max() / np.abs(cov0.entries).max()
    assert drift <= 1e-14
    assert _means_error(params, run) <= 1.25 * _means_error(params, sbth_run)


def test_convergence_order_sbth(params):
    means0, cov0 = mm.coherent_initial_state(params)
    order = mm.convergence_order(
        mm.build_sbth(params), means0, cov0, mm.IntegratorConfig(0.08, 8.0, 1)
    )
    assert 3.7 <= order <= 4.3


@pytest.mark.parametrize("dt", [0.08, 1e-3])
def test_convergence_order_equals_the_dense_runs(params, dt):
    """Storing only the final state changes no bit of the estimate: it is
    the order of the last samples of three dense runs."""
    system = mm.build_sbth(params)
    means0, cov0 = mm.coherent_initial_state(params)
    finals = []
    for divisor in (1, 2, 4):
        run = mm.integrate(system, means0, cov0, mm.IntegratorConfig(dt / divisor, 8.0, 1))
        finals.append(np.concatenate([run.means[-1], run.covs[-1].ravel()]))
    want = math.log2(np.abs(finals[0] - finals[1]).max() / np.abs(finals[1] - finals[2]).max())
    assert mm.convergence_order(system, means0, cov0, mm.IntegratorConfig(dt, 8.0, 1)) == want


def test_convergence_order_linear_scalar():
    sys = scalar_decay_system()
    order = mm.convergence_order(
        sys, mm.MeanVector(mm.L1, [1.0, 1.0]),
        mm.CovarianceMatrix(mm.L1, np.zeros((2, 2))),
        mm.IntegratorConfig(0.2, 4.0, 1),
    )
    assert 3.7 <= order <= 4.3


def test_halving_dt_reduces_error_sixteenfold(params):
    """Against the closed-form damped-oscillator oracle."""
    sys = mm.build_classical(params)
    means0 = mm.MeanVector(mm.L1, [2.0, 0.0])
    cov0 = mm.CovarianceMatrix(mm.L1, np.zeros((2, 2)))

    def endpoint_error(dt):
        run = mm.integrate(sys, means0, cov0, mm.IntegratorConfig(dt, 8.0, int(8.0 / dt)))
        x, p = mm.classical_analytic(params, 2.0, 0.0, run.ts[-1])
        return max(abs(run.means[-1, 0] - x), abs(run.means[-1, 1] - p))

    ratio = endpoint_error(0.08) / endpoint_error(0.04)
    assert 13.0 <= ratio <= 19.0


# ---------------------------------------------------------------------------
# oracle: the packed-operator RK4 on the full covariance

def kronecker_rk4(system, means0, cov0, cfg):
    """RK4 on the state [means, cov.ravel()] under the operator
    kron(A_m, I) + kron(I, A_m) plus the diffusion, averaging each mirrored
    covariance pair after every step. Returns (means, covs) per sample."""
    d = system.frame.dim
    n = d + d * d
    mat = np.zeros((n, n))
    mat[:d, :d] = system.a_classical
    eye = np.eye(d)
    mat[d:, d:] = np.kron(system.a_moment, eye) + np.kron(eye, system.a_moment)
    const = np.zeros(n)
    const[d:] = system.diffusion.ravel()
    iu = np.array([d + i * d + j for i in range(d) for j in range(i + 1, d)], dtype=int)
    il = np.array([d + j * d + i for i in range(d) for j in range(i + 1, d)], dtype=int)

    y = np.concatenate([means0.values, cov0.entries.ravel()])
    samples = [y]
    h = cfg.dt
    for step in range(1, cfg.n_steps + 1):
        k1 = mat @ y + const
        k2 = mat @ (y + 0.5 * h * k1) + const
        k3 = mat @ (y + 0.5 * h * k2) + const
        k4 = mat @ (y + h * k3) + const
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        mirror = 0.5 * (y[iu] + y[il])
        y[iu] = mirror
        y[il] = mirror
        if step % cfg.sample_every == 0:
            samples.append(y)
    states = np.array(samples)
    return states[:, :d], states[:, d:].reshape(-1, d, d)


def _random_params(rng, **fixed):
    values = dict(
        m=rng.uniform(0.5, 2.0), hbar=rng.uniform(0.5, 2.0),
        lambda_damp=rng.uniform(0.0, 0.3), big_omega=rng.uniform(0.5, 2.0),
        gamma=rng.uniform(0.01, 0.5), omega=rng.uniform(0.5, 2.0),
        omega_prime=rng.uniform(0.5, 2.0), nbar=rng.uniform(0.5, 3.0),
        n_level=int(rng.integers(0, 5)),
    )
    values.update(fixed)
    return mm.ModelParams(**values)


def _user_system(rng):
    """A four-coordinate system with random generators and a full (non-zero
    off-diagonal) positive semidefinite diffusion."""
    b = rng.normal(size=(4, 4))
    a_classical = rng.normal(scale=0.5, size=(4, 4))
    a_moment = rng.normal(scale=0.5, size=(4, 4))
    means0 = mm.MeanVector(mm.XY, rng.normal(size=4))
    c = rng.normal(size=(4, 4))
    cov0 = mm.CovarianceMatrix(mm.XY, c @ c.T)
    return mm.ModelSystem("user", mm.XY, a_classical, a_moment, b @ b.T), means0, cov0


def _cases(seed):
    rng = np.random.default_rng(seed)
    p = _random_params(rng)
    yield "sbth", mm.build_sbth(p), *mm.coherent_initial_state(p, mm.BT1)
    assert not p.equivalence_mode
    yield "lindblad", mm.build_lindblad(p), *mm.coherent_initial_state(p, mm.L1)
    yield "user", *_user_system(rng)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_matches_kronecker_oracle(seed):
    cfg = mm.IntegratorConfig(dt=1e-2, t_end=6.0, sample_every=7)
    for label, system, means0, cov0 in _cases(seed):
        if label == "user":
            assert np.abs(system.diffusion - np.diag(system.diffusion.diagonal())).max() > 0.1
        run = mm.integrate(system, means0, cov0, cfg)
        means, covs = kronecker_rk4(system, means0, cov0, cfg)
        assert run.n_samples == len(means) == cfg.n_steps // 7 + 1
        for got, want in ((run.means, means), (run.covs, covs)):
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale, label


# ---------------------------------------------------------------------------
# the step matrix against the four RK4 stages

def four_stage_step(system, means, cov, h):
    """One classical RK4 step of x' = A_c x, S' = A_m S + S A_m^T + D."""
    a_c, a_m, diff = system.a_classical, system.a_moment, system.diffusion

    def rate(x, s):
        return a_c @ x, a_m @ s + s @ a_m.T + diff

    k1 = rate(means, cov)
    k2 = rate(means + 0.5 * h * k1[0], cov + 0.5 * h * k1[1])
    k3 = rate(means + 0.5 * h * k2[0], cov + 0.5 * h * k2[1])
    k4 = rate(means + h * k3[0], cov + h * k3[1])
    return tuple(
        y + (h / 6.0) * (a + 2.0 * (b + c) + e)
        for y, a, b, c, e in zip((means, cov), k1, k2, k3, k4)
    )


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_one_step_equals_four_stages(seed):
    rng = np.random.default_rng(seed)
    for h in (1e-3, 0.05, 0.3):
        cfg = mm.IntegratorConfig(dt=h, t_end=h, sample_every=1)
        for label, system, _, _ in _cases(seed):
            d = system.frame.dim
            c = rng.normal(size=(d, d))
            means0 = mm.MeanVector(system.frame, rng.normal(size=d))
            cov0 = mm.CovarianceMatrix(system.frame, c @ c.T)
            run = mm.integrate(system, means0, cov0, cfg)
            means, cov = four_stage_step(system, means0.values, cov0.entries, h)
            assert run.n_samples == 2
            for got, want in ((run.means[1], means), (run.covs[1], cov)):
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-14 * scale, (label, h)


# ---------------------------------------------------------------------------
# the exact flow: e^(t·M) of the augmented rate matrix

_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def expm(a):
    """e^a by scaling and squaring with the [13/13] Padé approximant
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)."""
    b = _PADE13
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm / 5.371920351148152))) if norm > 0 else 0
    a = a / 2.0**s
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
             + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def exact_flow(system, means0, cov0, ts):
    """Means and covariances at times ``ts`` from e^(t·M) of the rate matrix
    of ``[means, S, 1]`` (Van Loan, IEEE TAC 23(3), 1978), with S whole
    (row-major, d² entries): independent of the moment packing."""
    d = system.frame.dim
    eye = np.eye(d)
    mat = np.zeros((d + d * d + 1,) * 2)
    mat[:d, :d] = system.a_classical
    mat[d:-1, d:-1] = np.kron(system.a_moment, eye) + np.kron(eye, system.a_moment)
    mat[d:-1, -1] = system.diffusion.ravel()
    y0 = np.concatenate([means0.values, cov0.entries.ravel(), [1.0]])
    states = np.array([expm(t * mat) @ y0 for t in ts])
    return states[:, :d], states[:, d:-1].reshape(-1, d, d)


def test_expm_matches_a_damped_rotation():
    g, w = 0.3, 2.0
    for t in (0.0, 0.5, 7.0, 40.0):
        c, s = math.cos(w * t), math.sin(w * t)
        want = math.exp(-g * t) * np.array([[c, s], [-s, c]])
        got = expm(t * np.array([[-g, w], [-w, -g]]))
        assert np.abs(got - want).max() <= 1e-13


def test_integrated_moments_match_the_exact_flow():
    """RK4 means and covariance agree with e^(t·M) within C·h^4 relative,
    for lindblad and for the XY view of sbth, at eight underdamped draws
    and two step sizes. The worst C measured is about 20 (sbth's XY
    covariance), the same at h = 0.1, 0.05 and 0.025: fourth order."""
    to_xy = model._BT1_XY_SIGNS / math.sqrt(2.0)
    for seed in range(8):
        p = _random_params(np.random.default_rng(100 + seed), n_level=1 + seed % 4)
        for h in (0.1, 0.05):
            cfg = mm.IntegratorConfig(dt=h, t_end=10.0, sample_every=round(1.0 / h))
            for system, frame in ((mm.build_lindblad(p), mm.L1), (mm.build_sbth(p), mm.BT1)):
                means0, cov0 = mm.coherent_initial_state(p, frame)
                run = mm.integrate(system, means0, cov0, cfg)
                means, covs = exact_flow(system, means0, cov0, run.ts)
                if frame == mm.BT1:
                    run = mm.xy_view(run)
                    means, covs = means @ to_xy.T, to_xy @ covs @ to_xy.T
                for got, want in ((run.means, means), (run.covs, covs)):
                    err = np.abs(got - want).max() / np.abs(want).max()
                    assert err <= 40.0 * h**4, (seed, h, system.label)
