"""Shared fixtures: the standard-run parameter point, its long runs, the
hand transcription of the two-oscillator generators, and a traced-memory
probe.

The long integrations are session-scoped so the acceptance criteria and
the diagnostics tests share them instead of re-integrating.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import momentous as mm

PRESET_GRID = mm.IntegratorConfig(dt=1e-3, t_end=80.0, sample_every=100)
LONG_GRID = mm.IntegratorConfig(dt=1e-3, t_end=200.0, sample_every=100)


@pytest.fixture(scope="session")
def params():
    """Standard run: gamma=0.08, omega=omega'=Omega=1.5, lambda=0.04,
    m=hbar=1, n=3 (the package defaults)."""
    p = mm.ModelParams()
    assert p.equivalence_mode
    return p


@pytest.fixture(scope="session")
def sbth_run(params):
    means0, cov0 = mm.coherent_initial_state(params)
    return mm.integrate(mm.build_sbth(params), means0, cov0, PRESET_GRID)


@pytest.fixture(scope="session")
def sbth_run_long(params):
    means0, cov0 = mm.coherent_initial_state(params)
    return mm.integrate(mm.build_sbth(params), means0, cov0, LONG_GRID)


@pytest.fixture(scope="session")
def lindblad_runs_long(params):
    """Thermal runs to t=200 keyed by nbar."""
    out = {}
    for nbar in (0.0, 1.0, 2.0):
        p = dataclasses.replace(params, nbar=nbar)
        means0, cov0 = mm.coherent_initial_state(p, mm.L1)
        out[nbar] = mm.integrate(mm.build_lindblad(p), means0, cov0, LONG_GRID)
    return out


@pytest.fixture(scope="session")
def lindblad_run(params):
    """nbar=0 thermal run on the standard grid (matches sbth_run)."""
    means0, cov0 = mm.coherent_initial_state(params, mm.L1)
    return mm.integrate(mm.build_lindblad(params), means0, cov0, PRESET_GRID)


@pytest.fixture(scope="session")
def sbth_transcription():
    """The BT1 generators ``(a_classical, a_moment)`` of the two-oscillator
    model, typed by hand from its rate equations: the independent oracle for
    the system ``build_sbth`` generates from the Hamiltonian. Returns a
    function of the parameters."""

    def transcribe(params):
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
        return a_classical, a_moment

    return transcribe


@pytest.fixture
def traced_peak():
    """``peak(fn)``: the most bytes ``tracemalloc`` traces while ``fn()``
    runs, above those held when it starts. numpy reports its array buffers
    to ``tracemalloc``, so this is the peak of the arrays ``fn`` makes."""
    def peak(fn):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    return peak
