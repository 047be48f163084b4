import dataclasses
import inspect
import math

import numpy as np
import pytest

import momentous as mm
from momentous.diagnostics import G1_COLUMNS, PAIR_COLUMNS, CorruptedStateError, GridMismatchError
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


def test_negative_variance_rejected(params):
    covs = np.zeros((2, 2, 2))
    covs[:, 0, 0] = -1.0
    traj = mm.Trajectory(mm.L1, [0.0, 1.0], np.zeros((2, 2)), covs, 1.0, params)
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
    assert result.ok and result.n_violations == 0
    assert np.all(result.u_pair1 == 0.25)
    assert result.u_xy is not None
    assert np.abs(result.u_xy - 0.25).max() <= 1e-14
    assert result.margin_moment_min >= -1e-9
    assert result.ground_state_bound == 0.75


def test_audit_late_time_energy(params, sbth_run_long):
    result = mm.audit(sbth_run_long)
    assert 0.75 <= result.final_mean_energy <= 0.7501


def test_audit_flags_corrupted_moments(params, sbth_run):
    covs = np.array(sbth_run.covs)
    covs[5, 0, 0] = 0.0  # kill the x1 variance in one sample
    broken = mm.Trajectory(mm.BT1, sbth_run.ts, sbth_run.means, covs,
                           sbth_run.step, params)
    result = mm.audit(broken)
    assert not result.ok
    assert result.n_violations >= 1
    assert bool(result.violation_flags[5])


def test_audit_flags_negative_variance_without_raising(params, lindblad_run):
    covs = np.array(lindblad_run.covs)
    covs[3, 0, 0] = -0.5
    covs[3, 1, 1] = -0.5  # determinant still positive; flagged via sign check
    broken = mm.Trajectory(mm.L1, lindblad_run.ts, lindblad_run.means, covs,
                           lindblad_run.step, params)
    result = mm.audit(broken)
    assert not result.ok
    assert math.isnan(result.final_mean_energy)


def test_lindblad_steady_uncertainty(params, lindblad_runs_long):
    run = lindblad_runs_long[2.0]
    result = mm.audit(run)
    assert result.ok
    u_final = float(result.u_pair1[-1])
    assert u_final == pytest.approx(6.25, abs=1e-5)


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
                          sbth_run.covs[:-1], sbth_run.step, params)
    with pytest.raises(GridMismatchError):
        mm.compare(sbth_run, short, ["x"])


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


def test_negative_variance_names_its_first_sample(params):
    covs = np.tile(np.eye(2), (4, 1, 1))
    covs[2, 1, 1] = -1.0
    covs[3, 0, 0] = -1.0
    traj = mm.Trajectory(mm.L1, [0.0, 0.5, 1.0, 1.5], np.zeros((4, 2)), covs, 0.5, params)
    with pytest.raises(CorruptedStateError, match=r"negative diagonal moment at t = 1;"):
        mm.energy_report(traj)
    assert list(mm.audit(traj).violation_flags) == [False, False, True, True]


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
    traj = mm.Trajectory(mm.L1, [0.0], np.zeros((1, 2)), covs, 0.1, params)
    result = mm.audit(traj)
    assert not result.ok
    assert list(result.violation_flags) == [True]


def test_infinite_determinant_is_a_violation(params):
    covs = np.array([[[1e200, 0.0], [0.0, 1e200]]])
    traj = mm.Trajectory(mm.L1, [0.0], np.zeros((1, 2)), covs, 0.1, params)
    assert math.isinf(traj.sample(0)[2].pair_determinant(0))
    assert not traj.sample(0)[2].satisfies_uncertainty(params.hbar)
    assert mm.audit(traj).n_violations == 1
