import math

import numpy as np
import pytest

import momentous as mm
from momentous import cli
from momentous.csvio import MODELS, read_csv, trajectory_from_columns
from momentous.integrator import _packed
from momentous.model import (
    covariances_from_moments,
    exponents_to_indices,
    indices_to_exponents,
    moment_layout,
    moment_order,
)

RNG = np.random.default_rng(20260808)


def random_cov(dim=4):
    a = RNG.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


# ---------------------------------------------------------------------------
# parameters

def test_omega0_derived_from_big_omega():
    p = mm.ModelParams(big_omega=1.5, lambda_damp=0.04)
    assert p.omega0 == math.hypot(1.5, 0.04)


def test_big_omega_derived_from_omega0():
    p = mm.ModelParams(big_omega=None, omega0=1.7, lambda_damp=0.8)
    assert p.big_omega**2 + 0.8**2 == pytest.approx(1.7**2, rel=1e-15)


def test_inconsistent_frequencies_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        mm.ModelParams(big_omega=1.5, omega0=1.6, lambda_damp=0.04)


def test_overdamped_rejected():
    with pytest.raises(ValueError, match="overdamped"):
        mm.ModelParams(big_omega=None, omega0=1.0, lambda_damp=1.2)


@pytest.mark.parametrize("field,value", [
    ("m", 0.0), ("hbar", -1.0), ("gamma", -0.1), ("lambda_damp", -0.1),
    ("nbar", -0.5), ("omega", 0.0), ("n_level", -1),
    ("lambda_damp", math.nan), ("nbar", math.nan), ("m", math.inf),
    ("omega_prime", math.nan), ("omega_prime", math.inf), ("omega_prime", 0.0),
    ("n_level", 2.7), ("gamma", "0.1"), ("hbar", True),
])
def test_invalid_parameter_values(field, value):
    with pytest.raises(ValueError):
        mm.ModelParams(**{field: value})


def test_hbar_whose_uncertainty_bound_underflows_rejected():
    """hbar**2/4 below the least normal float passes any state at tol 0."""
    with pytest.raises(ValueError, match=r"hbar = 1e-300 is too small: .* underflows"):
        mm.ModelParams(hbar=1e-300)
    assert mm.ModelParams(hbar=1e-150).hbar == 1e-150


def test_equivalence_mode_flag():
    assert mm.ModelParams().equivalence_mode
    assert not mm.ModelParams(gamma=0.1).equivalence_mode
    assert not mm.ModelParams(omega_prime=1.4).equivalence_mode
    # gamma = 2*lambda must hold exactly
    assert mm.ModelParams(gamma=0.08, lambda_damp=0.04).equivalence_mode


# ---------------------------------------------------------------------------
# frames and moment indexing

def test_frame_signatures():
    assert mm.BT1.pair_signatures == (1, -1)
    assert mm.XY.pair_signatures == (1, 1)
    assert mm.L1.pair_signatures == (1,)
    assert mm.BT1.dim == 4 and mm.L1.dim == 2


def test_moment_order_canonical():
    order = moment_order(4)
    assert len(order) == 10
    assert order[0] == (2, 0, 0, 0)
    assert order[1] == (1, 1, 0, 0)
    assert order[-1] == (0, 0, 0, 2)
    for exps in order:
        i, j = exponents_to_indices(exps)
        assert indices_to_exponents(i, j, 4) == exps


def test_covariances_from_moments_follow_moment_order():
    for dim in (2, 4):
        order = moment_order(dim)
        moments = np.arange(1.0, 1.0 + 3 * len(order)).reshape(3, len(order))
        covs = covariances_from_moments(moments, dim)
        assert covs.shape == (3, dim, dim)
        for r, exps in enumerate(order):
            i, j = exponents_to_indices(exps)
            assert np.array_equal(covs[:, i, j], moments[:, r])
            assert np.array_equal(covs[:, j, i], moments[:, r])


@pytest.mark.parametrize("dim,model,names", [
    (4, "sbth", ("G1_2000", "G1_1100", "G1_1010", "G1_1001", "G1_0200",
                 "G1_0110", "G1_0101", "G1_0020", "G1_0011", "G1_0002")),
    (2, "lindblad", ("G20", "G11", "G02")),
])
def test_the_moment_layout_is_one_fact(tmp_path, dim, model, names):
    """Every reader of the moment order reads it from ``moment_layout``:
    the exponents, the file's moment columns, the packed integrator state
    and the covariances rebuilt from a file. The layout is built once and
    cannot be written, so no caller can change a later run's order."""
    layout = moment_layout(dim)
    assert moment_layout(dim) is layout
    pairs = list(zip(layout.rows.tolist(), layout.cols.tolist()))
    assert pairs == [(i, j) for i in range(dim) for j in range(i, dim)]  # row-major, upper
    assert moment_order(dim) == list(layout.exponents)
    assert [exponents_to_indices(e) for e in layout.exponents] == pairs
    assert layout.labels == tuple("".join(map(str, e)) for e in layout.exponents)
    assert MODELS[model].moments == names
    assert tuple(name.removeprefix("G1_").removeprefix("G") for name in names) == layout.labels

    # the packed state holds the moments in the layout's order, and they read back
    params = mm.ModelParams()
    system = mm.build_sbth(params) if model == "sbth" else mm.build_lindblad(params)
    a = np.random.default_rng(dim).normal(size=(dim, dim))
    cov = mm.CovarianceMatrix(system.frame, a @ a.T + dim * np.eye(dim))
    packed = _packed(system, mm.MeanVector(system.frame, np.arange(1.0, dim + 1.0)), cov)
    moments = packed[dim:-1]
    assert moments.tolist() == [cov.entries[i, j] for i, j in pairs]
    assert np.array_equal(covariances_from_moments(moments[None], dim)[0], cov.entries)

    # a file's moment columns land where the layout puts them, in both triangles
    path = tmp_path / "run.csv"
    assert cli.main(["simulate", "--model", model, "--t-end", "1", "--out", str(path)]) == 0
    config, columns = read_csv(path)
    n = len(columns["t"])
    for k, name in enumerate(names):
        columns[name] = np.full(n, 10.0 + k)
    covs = trajectory_from_columns(config, columns, validate=False).covs
    for k, (i, j) in enumerate(pairs):
        assert (covs[:, i, j] == 10.0 + k).all() and (covs[:, j, i] == 10.0 + k).all()

    for arr in (layout.rows, layout.cols, layout.units):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1


def test_exponent_validation():
    with pytest.raises(ValueError):
        exponents_to_indices((1, 0, 0, 0))


# ---------------------------------------------------------------------------
# containers

def test_mean_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        mm.MeanVector(mm.L1, [1.0, math.nan])


def test_covariance_requires_symmetry():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        mm.CovarianceMatrix(mm.L1, bad)


def test_covariance_rejects_negative_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        mm.CovarianceMatrix(mm.L1, np.diag([-1.0, 1.0]))


def test_covariance_moment_accessor():
    cov = mm.CovarianceMatrix(mm.BT1, random_cov())
    assert cov.moment(1, 1, 0, 0) == cov.entries[0, 1]
    assert cov.moment(0, 0, 1, 1) == cov.entries[2, 3]
    with pytest.raises(ValueError):
        cov.moment(1, 1)


def test_pair_determinant_uses_frame_pairs():
    cov = mm.CovarianceMatrix(mm.BT1, random_cov())
    e = cov.entries
    assert cov.pair_determinant(0) == pytest.approx(e[0, 0] * e[1, 1] - e[0, 1] ** 2)
    # second BT1 pair is (x2, p2) = indices (3, 2)
    assert cov.pair_determinant(1) == pytest.approx(e[3, 3] * e[2, 2] - e[3, 2] ** 2)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="increasing"):
        mm.Trajectory(mm.L1, [0.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="shapes"):
        mm.Trajectory(mm.L1, [0.0, 1.0], np.zeros((2, 3)), np.zeros((2, 2, 2)))


def _trajectory_arrays():
    return np.arange(3.0), RNG.normal(size=(3, 2)), np.tile(np.eye(2), (3, 1, 1))


def test_trajectory_adopts_read_only_float_arrays():
    """A read-only float64 array is stored as it is, not copied again."""
    ts, means, covs = _trajectory_arrays()
    for arr in (ts, means, covs):
        arr.setflags(write=False)
    traj = mm.Trajectory(mm.L1, ts, means, covs)
    assert traj.ts is ts and traj.means is means and traj.covs is covs


def test_trajectory_copies_what_it_cannot_adopt():
    """Writable arrays, other dtypes and lists are copied into read-only
    float64 arrays that share no memory with what was given."""
    ts, means, covs = _trajectory_arrays()
    single = covs.astype(np.float32)
    single.setflags(write=False)
    traj = mm.Trajectory(mm.L1, ts.tolist(), means, single)
    for given, stored in ((means, traj.means), (single, traj.covs)):
        assert not np.shares_memory(given, stored)
    for stored in (traj.ts, traj.means, traj.covs):
        assert stored.dtype == np.float64 and not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.0
    means[0, 0] = 7.0
    assert traj.means[0, 0] != 7.0


# ---------------------------------------------------------------------------
# transforms

def test_transform_means_example():
    means = mm.MeanVector(mm.BT1, [2.0 * math.sqrt(2.0), 0.0, 0.0, 0.0])
    cov = mm.CovarianceMatrix(mm.BT1, np.eye(4))
    out, _ = mm.transform_state(means, cov, mm.XY)
    assert out.values == pytest.approx([2.0, 0.0, 2.0, 0.0], abs=1e-15)


def test_transform_zero_vector():
    zero = mm.MeanVector(mm.BT1, np.zeros(4))
    out, _ = mm.transform_state(zero, mm.CovarianceMatrix(mm.BT1, np.eye(4)), mm.XY)
    assert np.all(out.values == 0.0)


def test_transform_round_trip():
    for _ in range(20):
        v = RNG.normal(size=4)
        c = random_cov()
        m1, c1 = mm.transform_state(
            mm.MeanVector(mm.BT1, v), mm.CovarianceMatrix(mm.BT1, c), mm.XY
        )
        m2, c2 = mm.transform_state(m1, c1, mm.BT1)
        assert np.abs(m2.values - v).max() <= 1e-14 * max(1.0, np.abs(v).max())
        assert np.abs(c2.entries - 0.5 * (c + c.T)).max() <= 1e-14 * np.abs(c).max()


def test_identity_transform_unchanged():
    v = RNG.normal(size=4)
    c = random_cov()
    m1, c1 = mm.transform_state(mm.MeanVector(mm.BT1, v), mm.CovarianceMatrix(mm.BT1, c), mm.BT1)
    assert np.array_equal(m1.values, v)
    assert np.abs(c1.entries - 0.5 * (c + c.T)).max() == 0.0


def test_unsupported_frame_pair():
    means = mm.MeanVector(mm.L1, np.zeros(2))
    cov = mm.CovarianceMatrix(mm.L1, np.eye(2))
    with pytest.raises(mm.FrameError, match="L1 -> XY"):
        mm.transform_state(means, cov, mm.XY)


def test_frame_mismatch_rejected():
    means = mm.MeanVector(mm.XY, np.zeros(4))
    cov = mm.CovarianceMatrix(mm.BT1, np.eye(4))
    with pytest.raises(mm.FrameError, match="disagree"):
        mm.transform_state(means, cov, mm.XY)


def test_explicit_variance_combinations():
    """The three written-out moment relations against the congruence map."""
    zero_means = mm.MeanVector(mm.BT1, np.zeros(4))

    # x-variance: only G1_2000=a, G1_0002=b, G1_1001=c set
    a, b, c = 1.3, 0.7, 0.25
    s = np.zeros((4, 4))
    s[0, 0], s[3, 3] = a, b
    s[0, 3] = s[3, 0] = c
    _, out = mm.transform_state(zero_means, mm.CovarianceMatrix(mm.BT1, s), mm.XY)
    assert out.moment(2, 0, 0, 0) == pytest.approx((a + b + 2 * c) / 2, rel=1e-15)

    # p_x-variance: only G1_0200=a, G1_0020=b, G1_0110=c set
    s = np.zeros((4, 4))
    s[1, 1], s[2, 2] = a, b
    s[1, 2] = s[2, 1] = c
    _, out = mm.transform_state(zero_means, mm.CovarianceMatrix(mm.BT1, s), mm.XY)
    assert out.moment(0, 2, 0, 0) == pytest.approx((a + b - 2 * c) / 2, rel=1e-15)


def test_explicit_formulas_match_congruence_on_random_covariances():
    zero_means = mm.MeanVector(mm.BT1, np.zeros(4))
    for _ in range(100):
        s = random_cov()
        _, out = mm.transform_state(zero_means, mm.CovarianceMatrix(mm.BT1, s), mm.XY)
        scale = np.abs(s).max()
        g20 = 0.5 * (s[0, 0] + s[3, 3] + 2 * s[0, 3])
        g02 = 0.5 * (s[1, 1] + s[2, 2] - 2 * s[1, 2])
        g11 = 0.5 * (s[0, 1] - s[2, 3] - s[0, 2] + s[1, 3])
        assert abs(out.moment(2, 0, 0, 0) - g20) <= 1e-14 * scale
        assert abs(out.moment(0, 2, 0, 0) - g02) <= 1e-14 * scale
        assert abs(out.moment(1, 1, 0, 0) - g11) <= 1e-14 * scale


def test_congruence_preserves_pair_determinants_on_coherent_state(params):
    """Block-diagonal (coherent) input: both frames saturate hbar^2/4
    exactly, since the map halves the exact sign pattern's congruence."""
    means, cov = mm.coherent_initial_state(params)
    assert cov.pair_determinant(0) == 0.25
    _, cov_xy = mm.transform_state(means, cov, mm.XY)
    gq, gp = cov.entries[0, 0], cov.entries[1, 1]
    assert np.array_equal(cov_xy.entries, np.diag([gq, gp, gq, gp]))
    assert cov_xy.pair_determinant(0) == 0.25
    assert cov_xy.pair_determinant(1) == 0.25
