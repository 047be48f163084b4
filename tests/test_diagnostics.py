import dataclasses
import inspect
import math

import numpy as np
import pytest

import momentous as mm
from momentous import cli, diagnostics
from momentous.csvio import read_csv
from momentous.diagnostics import G1_COLUMNS, PAIR_COLUMNS, CorruptedStateError, GridMismatchError
from momentous.model import _uncertainty_test
from momentous.systems import moment_margin

# ---------------------------------------------------------------------------
# coherent initial state

def test_coherent_state_values(params):
    means, cov = mm.coherent_initial_state(params)
    assert means.values[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert np.all(means.values[1:] == 0.0)
    assert cov.moment(2, 0, 0, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert cov.moment(0, 2, 0, 0) == 0.75
    assert cov.moment(0, 0, 2, 0) == 0.75
    assert cov.moment(0, 0, 0, 2) == pytest.approx(1.0 / 3.0, rel=1e-15)
    off = cov.entries[~np.eye(4, dtype=bool)]
    assert np.all(off == 0.0)


def test_coherent_state_xy_frame(params):
    means, cov = mm.coherent_initial_state(params, mm.XY)
    assert means.values == pytest.approx([2.0, 0.0, 2.0, 0.0], abs=1e-15)
    assert cov.moment(2, 0, 0, 0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert abs(cov.moment(1, 1, 0, 0)) <= 1e-16


def test_coherent_state_single_pair(params):
    means, cov = mm.coherent_initial_state(params, mm.L1)
    assert means.values[0] == pytest.approx(2.0, rel=1e-15)
    assert cov.moment(2, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert cov.moment(0, 2) == 0.75


def test_coherent_state_saturates_uncertainty(params):
    _, cov = mm.coherent_initial_state(params)
    assert cov.pair_determinant(0) == 0.25
    assert cov.pair_determinant(1) == 0.25
    assert cov.satisfies_uncertainty(params.hbar)


# ---------------------------------------------------------------------------
# energies

def test_mean_energy_at_start(params, sbth_run):
    report = mm.energy_report(sbth_run)
    assert report.e_mean[0] == pytest.approx(5.25, rel=1e-14)
    assert report.e_analytic[0] == pytest.approx(5.25, rel=1e-15)


def test_belt_energy_at_start(params, sbth_run):
    report = mm.energy_report(sbth_run)
    # (sqrt(0.75))^2/2 + 1.125*(2 + sqrt(1/3))^2, evaluated independently
    expected = 0.75 / 2.0 + 1.125 * (2.0 + math.sqrt(1.0 / 3.0)) ** 2
    assert expected == pytest.approx(7.848076211353315, rel=1e-15)
    assert report.e_plus[0] == pytest.approx(expected, rel=1e-12)


def test_analytic_energy_limits(params):
    assert float(mm.lindblad_mean_energy(params, 0.0)) == pytest.approx(5.25)
    p2 = dataclasses.replace(params, nbar=2.0)
    assert float(mm.lindblad_mean_energy(p2, 1e6)) == pytest.approx(3.75, rel=1e-15)


def test_analytic_energy_keeps_the_level_at_large_nbar(tmp_path):
    """With gamma = 0 the law stays at (n_level + 1/2)·hbar·omega however
    large nbar is; written as (n_level - nbar)·e + nbar it loses n_level to
    cancellation at nbar = 1e300."""
    params = mm.ModelParams(gamma=0.0, nbar=1e300, hbar=1e10)
    level = (params.n_level + 0.5) * params.hbar * params.omega
    assert level == 5.25e10
    energy = mm.lindblad_mean_energy(params, np.linspace(0.0, 20.0, 21))
    assert np.all(energy == level)
    # and in the file simulate writes
    out = tmp_path / "big.csv"
    assert cli.main(["simulate", "--model", "lindblad", "--gamma", "0", "--nbar", "1e300",
                     "--hbar", "1e10", "--dt", "0.1", "--t-end", "20",
                     "--sample-every", "10", "--out", str(out)]) == 0
    _, columns = read_csv(out)
    assert np.all(columns["E_analytic"] == level)
    assert columns["E_mean"] == pytest.approx(level, rel=1e-4)


def test_analytic_energy_is_the_decay_law(params):
    """The cancellation-free form equals the textbook one where neither
    cancels: (n - nbar)·e^(-gamma t) + nbar + 1/2, in units of hbar·omega."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = dataclasses.replace(params, gamma=float(rng.uniform(0.01, 2.0)),
                                nbar=float(rng.uniform(0.0, 10.0)),
                                n_level=int(rng.integers(0, 10)))
        t = rng.uniform(0.0, 50.0, 16)
        law = ((p.n_level - p.nbar) * np.exp(-p.gamma * t) + p.nbar + 0.5) * p.hbar * p.omega
        assert mm.lindblad_mean_energy(p, t) == pytest.approx(law, rel=1e-14)


def test_negative_variance_rejected(params):
    covs = np.zeros((2, 2, 2))
    covs[:, 0, 0] = -1.0
    traj = mm.Trajectory(mm.L1, [0.0, 1.0], np.zeros((2, 2)), covs, params)
    with pytest.raises(ValueError, match="negative diagonal"):
        mm.energy_report(traj)


def test_sbth_energy_matches_analytic_decay(params, sbth_run):
    """Equivalence-mode mean energy follows the closed-form thermal law."""
    report = mm.energy_report(sbth_run)
    rel = np.abs(report.e_mean - report.e_analytic) / report.e_analytic
    assert rel.max() <= 1e-6


# ---------------------------------------------------------------------------
# audit

def test_audit_standard_run(params, sbth_run):
    result = mm.audit(sbth_run, tol=1e-9)
    assert result.ok and result.n_violations == 0 and result.first_violation is None
    assert result.n_samples == sbth_run.n_samples
    u_pair1, _ = _uncertainty_test(sbth_run.covs, params.hbar, 0.0)
    u_xy, _ = _uncertainty_test(mm.xy_view(sbth_run).covs, params.hbar, 0.0)
    assert np.all(u_pair1 == 0.25)
    assert np.abs(u_xy - 0.25).max() <= 1e-14
    assert result.min_uncertainty == min(u_pair1.min(), u_xy.min())
    assert result.margin_moment_min >= -1e-9
    assert result.ground_state_bound == 0.75


@pytest.mark.parametrize(("tol", "message"), [
    (math.nan, "tol must be finite, got nan"),
    (-1.0, "tol must be >= 0, got -1.0"),
    (math.inf, "tol must be finite, got inf"),
])
def test_audit_refuses_a_tolerance_it_cannot_judge_by(params, tol, message):
    """On this 21-sample run a NaN tolerance would flag every sample, -1
    every sample too (each is at the bound), and an infinite one none, so
    that the audit would be ok whatever the moments held: each is refused
    with the message the CLI prints."""
    means0, cov0 = mm.coherent_initial_state(params, mm.L1)
    run = mm.integrate(mm.build_lindblad(params), means0, cov0, mm.IntegratorConfig(0.1, 2.0, 1))
    assert run.n_samples == 21
    with pytest.raises(ValueError, match=f"^{message}$"):
        mm.audit(run, tol)


def test_audit_late_time_energy(params, sbth_run_long):
    result = mm.audit(sbth_run_long)
    assert 0.75 <= result.final_mean_energy <= 0.7501


def test_audit_flags_corrupted_moments(params, sbth_run):
    covs = np.array(sbth_run.covs)
    covs[5, 0, 0] = 0.0  # kill the x1 variance in one sample
    broken = mm.Trajectory(mm.BT1, sbth_run.ts, sbth_run.means, covs, params)
    result = mm.audit(broken)
    assert not result.ok
    assert result.n_violations >= 1
    assert result.first_violation == (6, float(sbth_run.ts[5]))


def test_audit_flags_negative_variance_without_raising(params, lindblad_run):
    covs = np.array(lindblad_run.covs)
    covs[3, 0, 0] = -0.5
    covs[3, 1, 1] = -0.5  # determinant still positive; flagged via sign check
    broken = mm.Trajectory(mm.L1, lindblad_run.ts, lindblad_run.means, covs, params)
    result = mm.audit(broken)
    assert not result.ok
    assert math.isnan(result.final_mean_energy)


def test_joined_block_audits_are_the_whole_run_audit(params, sbth_run, lindblad_run):
    """The audits of consecutive blocks of a run, joined, are the audit of
    the whole run: the same fields and the same summary, for blocks of one
    sample, of seven, and one block larger than the run. A violation in a
    later block is named by its data row in the run, a NaN determinant
    leaves the joined minimum NaN, and a negative variance in an early
    block leaves the joined final energy NaN, though the last block has
    energies."""
    covs = np.array(sbth_run.covs)
    covs[9, 2:, 2:] = 1e300  # the XY view's determinant is NaN (inf - inf)
    nan_xy = mm.Trajectory(mm.BT1, sbth_run.ts, sbth_run.means, covs, params)
    covs = np.array(lindblad_run.covs)
    covs[3, 0, 0] = covs[3, 1, 1] = -0.5
    broken = mm.Trajectory(mm.L1, lindblad_run.ts, lindblad_run.means, covs, params)
    for size in (1, 7, broken.n_samples + 1):
        joined = {}
        for name, traj in (("sbth", sbth_run), ("nan_xy", nan_xy), ("lindblad", lindblad_run),
                           ("broken", broken)):
            whole = mm.audit(traj)
            parts = [mm.audit(mm.Trajectory(traj.frame, traj.ts[k:k + size],
                                            traj.means[k:k + size], traj.covs[k:k + size],
                                            params))
                     for k in range(0, traj.n_samples, size)]
            join = mm.AuditJoin(traj.n_samples)
            for part in parts:
                join.add(part)
            joined[name] = join.audit()
            assert repr(joined[name]) == repr(whole), (name, size)
            assert joined[name].summary() == whole.summary(), (name, size)
        assert math.isnan(joined["nan_xy"].min_uncertainty)
        assert joined["nan_xy"].first_violation == (10, float(sbth_run.ts[9]))
        assert joined["broken"].first_violation == (4, float(broken.ts[3]))
        assert joined["broken"].corrupted and math.isnan(joined["broken"].final_mean_energy)
        if size < broken.n_samples:
            assert not parts[-1].corrupted and math.isfinite(parts[-1].final_mean_energy)


def test_joined_audit_of_a_partial_run_is_refused(params):
    grid = mm.IntegratorConfig(dt=0.1, t_end=2.0, sample_every=1)
    means0, cov0 = mm.coherent_initial_state(params, mm.L1)
    run = mm.integrate(mm.build_lindblad(params), means0, cov0, grid, 7)
    join = mm.AuditJoin(grid.n_samples)
    join.add(mm.audit(next(run.blocks)))
    with pytest.raises(ValueError, match="the blocks' audits cover 7 of the run's 21 samples"):
        join.audit()


def test_lindblad_steady_uncertainty(params, lindblad_runs_long):
    run = lindblad_runs_long[2.0]
    result = mm.audit(run)
    assert result.ok
    u_pair1, _ = _uncertainty_test(run.covs, params.hbar, 0.0)
    assert float(u_pair1[-1]) == pytest.approx(6.25, abs=1e-5)


def test_lindblad_energy_matches_closed_form(lindblad_runs_long):
    for nbar, run in lindblad_runs_long.items():
        report = mm.energy_report(run)
        rel = np.abs(report.e_mean - report.e_analytic) / report.e_analytic
        assert rel.max() <= 1e-6, nbar


def test_ground_state_floor(params, sbth_run_long):
    report = mm.energy_report(sbth_run_long)
    late = report.e_mean[report.ts >= 150.0]
    assert late.min() >= 0.75 - 1e-6


# ---------------------------------------------------------------------------
# comparison

def test_compare_self_is_zero(sbth_run):
    metrics = mm.compare(sbth_run, sbth_run, ["x", "p", "G20", "E_mean"])
    for m in metrics.values():
        assert m.max_abs == 0.0 and m.rms == 0.0


def test_compare_is_symmetric(sbth_run, lindblad_run):
    cols = ["x", "p", "G20"]
    ab = mm.compare(sbth_run, lindblad_run, cols)
    ba = mm.compare(lindblad_run, sbth_run, cols)
    for name in cols:
        assert ab[name].max_abs == ba[name].max_abs
        assert ab[name].rms == ba[name].rms


def test_compare_grid_mismatch(params, sbth_run):
    short = mm.Trajectory(mm.BT1, sbth_run.ts[:-1], sbth_run.means[:-1],
                          sbth_run.covs[:-1], params)
    with pytest.raises(GridMismatchError):
        mm.compare(sbth_run, short, ["x"])


def _g20_run(params, g20):
    """A thermal run of ``len(g20)`` samples at t = 0, 1, ... whose G20
    column is ``g20``."""
    n = len(g20)
    covs = np.tile(np.eye(2), (n, 1, 1))
    covs[:, 0, 0] = g20
    return mm.Trajectory(mm.L1, np.arange(n, dtype=float), np.zeros((n, 2)), covs, params)


def test_compare_equal_infinities_nans_and_huge_differences(params):
    """Equal entries differ by 0, equal infinities included; a NaN on both
    sides is still a NaN difference; a finite difference near the float
    limit has a finite rms. No warning in any case."""
    def pair(g20):
        return _g20_run(params, g20)

    inf = mm.compare(pair([np.inf, 1.0, 1.0]), pair([np.inf, 1.0, 1.0]), ["G20"])["G20"]
    assert inf.max_abs == 0.0 and inf.rms == 0.0
    nan = mm.compare(pair([1.0, np.nan, 1.0]), pair([1.0, np.nan, 1.0]), ["G20"])["G20"]
    assert math.isnan(nan.max_abs) and math.isnan(nan.rms) and nan.at_time == 1.0
    huge = mm.compare(pair([1e300, 1.0, 1.0]), pair([-1e300, 1.0, 1.0]), ["G20"])["G20"]
    assert huge.max_abs == 2e300 and huge.rms == pytest.approx(2e300 / math.sqrt(3), rel=1e-15)


def test_joined_compare_is_compare_of_the_whole_runs(params, sbth_run, lindblad_run):
    """The metrics of consecutive block pairs, folded by a CompareJoin, are
    compare of the whole runs: max_abs and at_time exactly (the first
    maximum, a NaN kept), and the rms, its scaled squares rescaled as the
    maximum grows, within the rounding of a sum of n terms taken one at a
    time (at blocks of one sample: 1e-14 of it measured on 801). No
    warning either."""
    def g20(a, b):
        return _g20_run(params, a), _g20_run(params, b)

    cases = [
        (sbth_run, lindblad_run, ["x", "p", "G20", "G02", "G11", "E_mean", "U1"]),
        (*g20([np.inf, 1.0, 1.0], [np.inf, 1.0, 1.0]), ["G20"]),
        (*g20([1.0, np.nan, 1.0], [1.0, np.nan, 1.0]), ["G20"]),
        (*g20([1e300, 1.0, 1.0], [-1e300, 1.0, 1.0]), ["G20"]),
        # the maximum grows block by block, then a NaN follows a larger number
        (*g20([1.0, 3.0, 1e300, 5.0, np.nan], [0.0, 0.0, -1e300, 5.0, 1.0]), ["G20"]),
        (*g20([1.0, 2.0, np.inf, 1.0], [1.0, 0.0, 1.0, np.inf]), ["G20"]),
    ]
    for traj_a, traj_b, columns in cases:
        n = traj_a.n_samples
        whole = mm.compare(traj_a, traj_b, columns)
        for size in (1, 7, n + 1):
            join = mm.CompareJoin(n)
            for k in range(0, n, size):
                join.add(mm.compare(*(
                    mm.Trajectory(traj.frame, traj.ts[k:k + size], traj.means[k:k + size],
                                  traj.covs[k:k + size], params)
                    for traj in (traj_a, traj_b)), columns))
            for name, got in join.metrics().items():
                want = whole[name]
                assert (got.at_time, got.n_samples) == (want.at_time, n), (name, size)
                assert got.max_abs == want.max_abs or math.isnan(got.max_abs + want.max_abs)
                assert math.isnan(got.max_abs) == math.isnan(want.max_abs), (name, size)
                if math.isfinite(want.rms):  # n terms summed one at a time: n roundings
                    assert got.rms == pytest.approx(want.rms, rel=n * 2**-52), (name, size)
                else:
                    assert repr(got.rms) == repr(want.rms), (name, size)
    join = mm.CompareJoin(sbth_run.n_samples)
    join.add(mm.compare(_g20_run(params, [1.0]), _g20_run(params, [2.0]), ["G20"]))
    with pytest.raises(ValueError, match="do not cover the runs' 801 samples"):
        join.metrics()


def test_equivalence_mode_runs_coincide(sbth_run, lindblad_run):
    """nbar=0 equivalence point: the XY view of the two-oscillator run and
    the thermal run share means, moments, and energy to near round-off."""
    cols = ["x", "p", "G20", "G02", "G11", "E_mean"]
    metrics = mm.compare(sbth_run, lindblad_run, cols)
    for name in cols:
        assert metrics[name].max_abs <= 1e-8, (name, metrics[name])


def test_trajectory_columns_aliases(sbth_run, lindblad_run):
    cols = mm.trajectory_columns(sbth_run, ["p", "p_x"])
    assert np.array_equal(cols["p"], cols["p_x"])
    cols_l = mm.trajectory_columns(lindblad_run, ["p", "U", "U1"])
    assert np.array_equal(cols_l["U"], cols_l["U1"])


def test_trajectory_columns_unknown_name(sbth_run):
    with pytest.raises(KeyError):
        mm.trajectory_columns(sbth_run, ["nope"])


def test_trajectory_columns_moment_names(sbth_run, lindblad_run):
    cols = mm.trajectory_columns(sbth_run, list(G1_COLUMNS))
    for name, (i, j) in G1_COLUMNS.items():
        assert np.array_equal(cols[name], sbth_run.covs[:, i, j])
    assert list(G1_COLUMNS)[:2] == ["G1_2000", "G1_1100"]
    for name in ("G1_2000", "G1_0000"):
        with pytest.raises(KeyError):
            mm.trajectory_columns(lindblad_run if name == "G1_2000" else sbth_run, [name])


def test_moment_margin_shared_by_audit_and_report(params, sbth_run):
    margins = moment_margin(params, sbth_run.covs[:, 0, 0] * sbth_run.covs[:, 1, 1]
                            - sbth_run.covs[:, 0, 1] ** 2)
    assert mm.audit(sbth_run).margin_moment_min == float(margins.min())
    _, _, cov = sbth_run.sample(-1)
    assert mm.diffusion_report(params, cov).margin_moment == margins[-1]



def test_analysis_takes_only_the_run():
    """audit and energy_report read the parameters of the run they are given."""
    assert list(inspect.signature(mm.audit).parameters) == ["traj", "tol"]
    assert list(inspect.signature(mm.energy_report).parameters) == ["traj"]


def test_run_derives_each_value_once_and_only_when_read(sbth_run, lindblad_run, monkeypatch):
    """A Run shared by the analysis calls takes the XY view and the energy
    report once; a bare trajectory gets the same results from a Run of its
    own, and a non-BT1 run is its own physical run."""
    calls = []
    xy_view = diagnostics.xy_view
    monkeypatch.setattr(diagnostics, "xy_view", lambda traj: calls.append(traj) or xy_view(traj))
    run = mm.Run(sbth_run)
    assert calls == [] and "energies" not in vars(run)
    result = mm.audit(run)
    report = mm.energy_report(run)
    columns = mm.trajectory_columns(run, ["x", "G20", "E_mean", "Ux"])
    assert calls == [sbth_run] and run.energies.e_mean[-1] == result.final_mean_energy
    assert np.array_equal(report.e_mean, columns["E_mean"])
    assert run.physical.frame == mm.XY and mm.Run(lindblad_run).physical is lindblad_run
    bare = mm.trajectory_columns(sbth_run, columns)
    assert all(np.array_equal(bare[name], columns[name]) for name in columns)
    assert len(calls) == 2


def test_negative_variance_names_its_first_sample(params):
    covs = np.tile(np.eye(2), (4, 1, 1))
    covs[2, 1, 1] = -1.0
    covs[3, 0, 0] = -1.0
    traj = mm.Trajectory(mm.L1, [0.0, 0.5, 1.0, 1.5], np.zeros((4, 2)), covs, params)
    with pytest.raises(CorruptedStateError, match=r"negative diagonal moment at t = 1;"):
        mm.energy_report(traj)
    result = mm.audit(traj)
    assert result.n_violations == 2 and result.first_violation == (3, 1.0)


def test_pair_moment_columns_follow_moment_order():
    assert list(PAIR_COLUMNS) == ["G20", "G11", "G02"]
    assert list(G1_COLUMNS)[-1] == "G1_0002"
    for names in (PAIR_COLUMNS, G1_COLUMNS):
        assert list(names.values()) == sorted(names.values())


def test_nan_determinant_fails_the_container_and_the_audit(params):
    """inf - inf = NaN: the pair determinant of this state is NaN, and both
    uncertainty tests must count it as a violation, without a warning."""
    covs = np.full((1, 2, 2), 1e300)
    cov = mm.CovarianceMatrix(mm.L1, covs[0])
    assert math.isnan(cov.pair_determinant(0))
    assert not cov.satisfies_uncertainty(params.hbar)
    traj = mm.Trajectory(mm.L1, [0.0], np.zeros((1, 2)), covs, params)
    result = mm.audit(traj)
    assert not result.ok
    assert result.n_violations == 1 and result.first_violation == (1, 0.0)
    assert math.isnan(result.min_uncertainty)


def test_infinite_determinant_is_a_violation(params):
    covs = np.array([[[1e200, 0.0], [0.0, 1e200]]])
    traj = mm.Trajectory(mm.L1, [0.0], np.zeros((1, 2)), covs, params)
    assert math.isinf(traj.sample(0)[2].pair_determinant(0))
    assert not traj.sample(0)[2].satisfies_uncertainty(params.hbar)
    assert mm.audit(traj).n_violations == 1
