"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with its measured value next to the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses

import numpy as np
import pytest

import momentous as mm
from momentous.algebra import PAPER_BRACKETS, exponent_bracket
from momentous.model import exponents_to_indices, moment_order
from momentous.systems import moment_rows, sbth_moment_rows


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_c01_bracket_table_exact():
    form = mm.SymplecticForm.quantum(mm.BT1)
    bad = [(a, b) for a, b, expected in PAPER_BRACKETS if exponent_bracket(a, b, form) != expected]
    report(
        1,
        "reference bracket tabulation, exact coefficients",
        not bad,
        f"{len(PAPER_BRACKETS) - len(bad)}/{len(PAPER_BRACKETS)} listed entries match",
    )


def test_c02_generator_equals_transcription(params, sbth_transcription):
    gen = mm.build_sbth(params)
    a_classical, a_moment = sbth_transcription(params)
    gap = max(
        float(np.abs(gen.a_classical - a_classical).max()),
        float(np.abs(moment_rows(gen.a_moment) - sbth_moment_rows(params)).max()),
        float(np.abs(gen.a_moment - a_moment).max()),
    )
    report(2, "bracket-generated system equals transcription", gap <= 1e-15,
           f"max coefficient gap {gap:.3g} <= 1e-15")


def test_c03_effective_hamiltonian_coefficients(params):
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
    bad = []
    for exps in moment_order(4):
        i, j = exponents_to_indices(exps)
        s = np.zeros((4, 4))
        s[i, j] = s[j, i] = 1.0
        got = mm.expand_effective_hamiltonian(h, zero_means, mm.CovarianceMatrix(mm.BT1, s))
        if got != expected.get(exps, 0.0):
            bad.append(exps)
    report(3, "moment coefficients of the effective Hamiltonian", not bad,
           "all ten coefficients exact" if not bad else f"mismatch at {bad}")


def test_c04_means_match_classical_oracle(params, sbth_run):
    view = mm.xy_view(sbth_run)
    x_ref, p_ref = mm.classical_analytic(params, 2.0, 0.0, sbth_run.ts)
    err = max(
        float(np.abs(view.means[:, 0] - x_ref).max()),
        float(np.abs(view.means[:, 1] - p_ref).max()),
    )
    report(4, "integrated means vs closed-form damped oscillator", err <= 1e-8,
           f"max abs error {err:.3g} <= 1e-8 over t in [0, 80]")


def test_c05_coherent_moments_stationary(params, sbth_run):
    _, cov0 = mm.coherent_initial_state(params)
    order = moment_order(4)
    vec0 = np.array([cov0.entries[exponents_to_indices(e)] for e in order])
    rate0 = float(np.abs(sbth_moment_rows(params) @ vec0).max())
    drift = float(np.abs(sbth_run.covs - cov0.entries).max())
    ok = rate0 <= 1e-14 and drift <= 1e-10
    report(5, "coherent covariance is a fixed point", ok,
           f"|rate(0)| {rate0:.3g} <= 1e-14, drift {drift:.3g} <= 1e-10")


def test_c06_energy_decay_matches_closed_form(params, sbth_run):
    """E(t) = 3*hbar*omega*exp(-gamma t) + hbar*omega/2 = 4.5 e^{-0.08t} + 0.75."""
    rep = mm.energy_report(sbth_run)
    closed = 4.5 * np.exp(-0.08 * sbth_run.ts) + 0.75
    probe = float(np.abs(rep.e_analytic - closed).max())
    assert probe <= 1e-12  # the package's analytic curve is that formula
    rel = float((np.abs(rep.e_mean - closed) / closed).max())
    ok = rel <= 1e-6 and rep.e_mean[0] == pytest.approx(5.25, rel=1e-12)
    report(6, "mean energy follows the nbar=0 closed form", ok,
           f"E(0) = {rep.e_mean[0]:.6g}, max rel error {rel:.3g} <= 1e-6")


def test_c07_lindblad_steady_states(lindblad_runs_long):
    worst = 0.0
    for nbar, run in lindblad_runs_long.items():
        p = run.params
        occ = 2.0 * nbar + 1.0
        g20_ss = p.hbar * occ / (2.0 * p.m * p.omega)
        g02_ss = p.m * p.omega * p.hbar * occ / 2.0
        e_ss = (nbar + 0.5) * p.hbar * p.omega
        rep = mm.energy_report(run)
        worst = max(
            worst,
            abs(float(run.covs[-1, 0, 0]) - g20_ss),
            abs(float(run.covs[-1, 1, 1]) - g02_ss),
            abs(float(run.covs[-1, 0, 1])),
            abs(float(rep.e_mean[-1]) - e_ss),
        )
    report(7, "thermal steady states for nbar in {0, 1, 2}", worst <= 1e-6,
           f"max deviation {worst:.3g} <= 1e-6 at t = 200")


def test_c08_uncertainty_never_violated(sbth_run, sbth_run_long, lindblad_runs_long):
    runs = [sbth_run, sbth_run_long, *lindblad_runs_long.values()]
    total = sum(mm.audit(r, tol=1e-9).n_violations for r in runs)
    floor = min(mm.audit(r, tol=1e-9).min_uncertainty for r in runs)
    report(8, "uncertainty preserved across all preset runs", total == 0,
           f"0 violations in {len(runs)} runs, min determinant {floor:.12g}")


def test_c09_diffusion_constraints(params, sbth_run, sbth_run_long):
    p2 = dataclasses.replace(params, nbar=2.0)
    _, cov0 = mm.coherent_initial_state(p2)
    rep = mm.diffusion_report(p2, cov0)
    lind_ok = rep.margin_lindblad == pytest.approx(0.0384, rel=1e-12) and rep.margin_lindblad > 0
    moment_floor = min(
        mm.audit(r).margin_moment_min for r in (sbth_run, sbth_run_long)
    )
    ok = lind_ok and moment_floor >= -1e-9
    report(9, "diffusion coefficient constraints", ok,
           f"thermal margin {rep.margin_lindblad:.6g} (expected 0.0384), "
           f"moment margin floor {moment_floor:.3g} >= -1e-9")


def test_c10_hamiltonian_pieces_conserved(params, sbth_run):
    h = mm.sbth_hamiltonian(params)
    classical = np.array([h.classical_value(z) for z in sbth_run.means])
    moment = 0.5 * np.einsum("ab,nab->n", h.hessian, sbth_run.covs)
    drift_c = float(np.abs(classical - classical[0]).max())
    drift_m = float(np.abs(moment - moment[0]).max())
    ok = drift_c <= 1e-9 and drift_m <= 1e-9
    report(10, "classical and moment energies conserved", ok,
           f"classical drift {drift_c:.3g}, moment drift {drift_m:.3g} <= 1e-9")


def test_c11_means_decoupled_from_covariance(params, sbth_run):
    means0, cov0 = mm.coherent_initial_state(params)
    bumped = np.array(cov0.entries)
    bumped[0, 2] = bumped[2, 0] = 0.05
    bumped[1, 3] = bumped[3, 1] = -0.02
    other = mm.integrate(
        mm.build_sbth(params),
        means0,
        mm.CovarianceMatrix(mm.BT1, bumped),
        mm.IntegratorConfig(1e-3, 80.0, 100),
    )
    gap = float(np.abs(other.means - sbth_run.means).max())
    report(11, "means blind to the covariance initial condition", gap <= 1e-12,
           f"max mean difference {gap:.3g} <= 1e-12")


def test_c12_integrator_order(params):
    means0, cov0 = mm.coherent_initial_state(params)
    slope = mm.convergence_order(
        mm.build_sbth(params), means0, cov0, mm.IntegratorConfig(0.08, 8.0, 1)
    )
    report(12, "Richardson order of the integrator", 3.7 <= slope <= 4.3,
           f"slope {slope:.3f} in [3.7, 4.3]")


def test_c13_ground_state_reached(params, sbth_run_long, lindblad_runs_long):
    floor = 0.5 * params.hbar * params.omega
    finals = [
        float(mm.energy_report(sbth_run_long).e_mean[-1]),
        float(mm.energy_report(lindblad_runs_long[0.0]).e_mean[-1]),
    ]
    ok = all(floor <= e <= floor + 1e-4 for e in finals)
    report(13, "late-time energy sits on the ground-state floor", ok,
           f"E(200) = {finals[0]:.9g} and {finals[1]:.9g} in [{floor}, {floor + 1e-4}]")
