import math

import numpy as np
import pytest

from wickweights import Ensemble, MonomialSpec
from wickweights.algebra import N, Poly, RatFunc
from wickweights.sampling import cross_check, mc_integrate, sample_haar

INV_N = RatFunc(1, N)


def test_orthogonal_sample_is_orthogonal():
    q = sample_haar(Ensemble.ORTHOGONAL, 4, seed=1)
    assert q.shape == (4, 4)
    assert np.max(np.abs(q @ q.T - np.eye(4))) < 1e-12


def test_unitary_sample_is_unitary():
    u = sample_haar(Ensemble.UNITARY, 5, seed=2)
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12


def test_unitary_dimension_one_is_unimodular():
    u = sample_haar(Ensemble.UNITARY, 1, seed=3)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_coe_sample_symmetric_unitary():
    s = sample_haar(Ensemble.COE, 4, seed=4)
    assert np.max(np.abs(s - s.T)) < 1e-12
    assert np.max(np.abs(s @ s.conj() - np.eye(4))) < 1e-12


@pytest.mark.parametrize("n", [2, 8, 32])
def test_residuals_at_larger_dimensions(n):
    q = sample_haar(Ensemble.ORTHOGONAL, n, seed=n)
    assert np.max(np.abs(q @ q.T - np.eye(n))) < 1e-10


def test_mc_reproducible():
    m = MonomialSpec.parse("M[1,1] M[1,1]")
    a = mc_integrate(Ensemble.ORTHOGONAL, m, 8, 50_000, seed=7)
    b = mc_integrate(Ensemble.ORTHOGONAL, m, 8, 50_000, seed=7)
    assert a == b
    c = mc_integrate(Ensemble.ORTHOGONAL, m, 8, 50_000, seed=8)
    assert a.mean != c.mean


@pytest.mark.parametrize("ens", [Ensemble.ORTHOGONAL, Ensemble.UNITARY])
def test_mc_first_moment_vanishes(ens):
    # <M[1,1]> = 0 by invariance.  Without the QR sign (phase) fix the
    # sampler reads about -0.29 (-0.20 unitary), 80+ standard errors away.
    est = mc_integrate(ens, MonomialSpec.parse("M[1,1]"), 8, 20_000, seed=13)
    assert abs(est.mean) <= 5 * est.standard_error


def test_mc_matches_second_moment():
    est = mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1]"), 8, 100_000, seed=5)
    assert abs(est.mean - 0.125) <= 5 * est.standard_error
    assert est.standard_error < 0.01


def test_mc_angle_integral():
    est = mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1] M[1,1] M[1,1]"), 2, 200_000, seed=6)
    assert abs(est.mean - 0.375) <= 5 * est.standard_error


def test_mc_unitary_modulus():
    est = mc_integrate(Ensemble.UNITARY, MonomialSpec.parse("M[1,1] Mc[1,1]"), 8, 100_000, seed=9)
    assert abs(est.mean - 0.125) <= 5 * est.standard_error
    assert abs(est.imag_mean) <= 5 * est.standard_error


def test_haar_invariance_smoke():
    a = mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1]"), 6, 200_000, seed=10)
    b = mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[2,3] M[2,3]"), 6, 200_000, seed=11)
    joint = math.hypot(a.standard_error, b.standard_error)
    assert abs(a.mean - b.mean) <= 5 * joint


def test_cross_check_passes():
    report = cross_check(INV_N, Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1]"), 8, 100_000, seed=12)
    assert report.passed
    assert report.exact == 0.125 or float(report.exact) == 0.125


def test_cross_check_negative_control():
    wrong = INV_N + RatFunc(1)
    report = cross_check(wrong, Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1]"), 8, 100_000, seed=13)
    assert not report.passed
    assert report.z > 5


def test_cross_check_report_json():
    report = cross_check(INV_N, Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1]"), 8, 50_000, seed=14)
    obj = report.to_json()
    assert set(obj) == {"exact", "mc_mean", "stderr", "z", "pass", "seed"}
    assert obj["seed"] == 14 and obj["pass"] is True


def test_mc_rejects_symbolic_indices():
    with pytest.raises(ValueError):
        mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[i,1] M[i,1]"), 8, 10_000, seed=1)


def test_mc_rejects_out_of_range():
    with pytest.raises(ValueError):
        mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[9,1] M[9,1]"), 8, 10_000, seed=1)


def test_pole_surfaces_in_cross_check():
    from wickweights.algebra import PoleError

    f = RatFunc(1, N - 8)
    with pytest.raises(PoleError):
        cross_check(f, Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1]"), 8, 10_000, seed=1)
