import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wickweights import Ensemble, MonomialSpec, sampling
from wickweights.algebra import N, Poly, RatFunc
from wickweights.integrate import integrate_monomial
from wickweights.sampling import _r_factor, _sample_batch, cross_check, mc_integrate, sample_haar
from wickweights.weights import solve_weight

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
    # <M[1,1]> = 0 by invariance.  A QR sampler that leaves the signs (phases)
    # of R's diagonal free reads about -0.29 (-0.20 unitary), 80+ standard
    # errors away.
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


def test_mc_far_column_orthogonal():
    # column 7 is relabeled to column 1 by invariance under U -> UP; the
    # estimate still reads 1/N
    est = mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[2,7] M[2,7]"), 8, 100_000, seed=21)
    assert abs(est.mean - 0.125) <= 5 * est.standard_error


def test_mc_far_column_coe():
    monomial = MonomialSpec.parse("M[3,6] Mc[3,6]")
    exact = integrate_monomial(solve_weight(Ensemble.COE, 2), monomial).as_ratfunc()
    report = cross_check(exact, Ensemble.COE, monomial, 8, 100_000, seed=22)
    assert report.exact == Fraction(1, 9)  # <|S_ij|^2> = 1/(N+1) off the diagonal
    assert report.passed, report.to_json()


@pytest.mark.parametrize("ens, text, r, c, exact", [
    (Ensemble.ORTHOGONAL, "M[2,7] M[2,7]", 1, 1, Fraction(1, 8)),
    (Ensemble.UNITARY, "M[3,8] Mc[3,8] M[5,2] Mc[5,2]", 2, 2, Fraction(1, 63)),  # 1/(N^2-1)
    (Ensemble.COE, "M[7,7] Mc[7,7]", 0, 1, Fraction(2, 9)),  # 2/(N+1)
    (Ensemble.COE, "M[3,6] Mc[3,6]", 0, 2, Fraction(1, 9)),  # rows and columns share the labels
], ids=["orthogonal-M[2,7] M[2,7]-1-exact0", "unitary-M[3,8] Mc[3,8] M[5,2] Mc[5,2]-2-exact1",
        "coe-M[7,7] Mc[7,7]-1-exact2", "coe-M[3,6] Mc[3,6]-2-exact3"])
def test_mc_draws_one_column_per_distinct_label(monkeypatch, ens, text, r, c, exact):
    drawn = []

    def spy(ensemble, rng, count, n, cols, rows):
        drawn.append((rows, cols))
        return _sample_batch(ensemble, rng, count, n, cols, rows)

    monkeypatch.setattr(sampling, "_sample_batch", spy)
    est = mc_integrate(ens, MonomialSpec.parse(text), 8, 20_000, seed=24)
    assert set(drawn) == {(r, c)}
    assert abs(est.mean - float(exact)) <= 5 * est.standard_error


@pytest.mark.parametrize("ens, text", [
    (Ensemble.ORTHOGONAL, "M[1,1] M[2,2] M[1,2] M[2,1]"),
    (Ensemble.UNITARY, "M[1,1] M[2,2] Mc[1,2] Mc[2,1]"),
    (Ensemble.COE, "M[1,1] M[2,2] Mc[1,2] Mc[1,2]"),
], ids=["orthogonal", "unitary", "coe"])
def test_mc_imag_mean_from_one_value_path(ens, text):
    # every ensemble sums the imaginary part of the same product over the slots:
    # exactly 0 for real entries, and a nonzero estimate of 0 for complex ones,
    # whose exact values are real by invariance
    est = mc_integrate(ens, MonomialSpec.parse(text), 8, 20_000, seed=25)
    if ens.complex_entries:
        assert est.imag_mean != 0.0
        assert abs(est.imag_mean) <= 5 * est.standard_error, (est.imag_mean, est.standard_error)
    else:
        assert est.imag_mean == 0.0


def _mc_second_moment_traced(n: int):
    tracemalloc.start()
    try:
        est = mc_integrate(Ensemble.ORTHOGONAL, MonomialSpec.parse("M[1,1] M[1,1]"), n, 10_000, seed=23)
        return est, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_bounded_at_large_dimension():
    # M[1,1] reads one entry: a sample draws it and a 1 x 1 R factor for the
    # other N - 1 rows of its column, so a batch holds 2 entries a sample at any N
    est, peak = _mc_second_moment_traced(2000)
    assert abs(est.mean - 1 / 2000) <= 5 * est.standard_error
    assert peak < 100e6


def test_mc_cost_flat_in_dimension():
    # a full column at N = 10^6 would be 10^10 normals for these 10^4 samples
    est, peak = _mc_second_moment_traced(10**6)
    assert abs(est.mean - 1e-6) <= 5 * est.standard_error
    assert peak < 100e6


class _FixedNormals:
    """Stands in for a Generator: standard_normal returns the given arrays in turn."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def standard_normal(self, shape):
        block = self.blocks.pop(0)
        assert block.shape == shape
        return block.copy()


def _fixed_full_qr(a: np.ndarray) -> np.ndarray:
    """Q of a square matrix, column j multiplied by R_jj / |R_jj|."""
    q, r = np.linalg.qr(a)
    for j in range(a.shape[1]):
        q[:, j] *= r[j, j] / abs(r[j, j])
    return q


@pytest.mark.parametrize("ens", list(Ensemble))
@pytest.mark.parametrize("c", [1, 3, 7])
def test_column_sampler_matches_full_qr(ens, c):
    n, count = 7, 4
    rng = np.random.default_rng(31)
    full_re, full_im = rng.standard_normal((count, n, n)), rng.standard_normal((count, n, n))
    block, full = full_re[:, :, :c], full_re
    if ens.complex_entries:
        # one real block, real parts in the first c columns
        block = np.concatenate((block, full_im[:, :, :c]), axis=2)
        full = full_re + 1j * full_im
    got = _sample_batch(ens, _FixedNormals(block), count, n, c, n)
    for i in range(count):
        u = _fixed_full_qr(full[i])
        want = (u.T @ u)[:c, :c] if ens is Ensemble.COE else u[:, :c]
        assert got[i].shape == want.shape
        assert np.max(np.abs(got[i] - want)) < 1e-12


@pytest.mark.parametrize("ens", list(Ensemble))
def test_column_sampler_reorthogonalizes(ens):
    # column 2 is column 1 plus 1e-9 noise, a condition number near 1e9: one
    # projection pass leaves columns 1 and 2 about 1e-7 from orthogonal
    n = c = 4
    count = 4
    rng = np.random.default_rng(32)
    blocks = []
    for _ in range(2 if ens.complex_entries else 1):
        g = rng.standard_normal((count, n, c))
        g[:, :, 1] = g[:, :, 0] + 1e-9 * rng.standard_normal((count, n))
        blocks.append(g)
    block = np.concatenate(blocks, axis=2)
    full = block[..., :c] + 1j * block[..., c:] if ens.complex_entries else block
    got = _sample_batch(ens, _FixedNormals(block), count, n, c, n)
    for i in range(count):
        # c = n, so the COE block is the whole of S = U^T U, itself unitary
        assert np.max(np.abs(got[i].conj().T @ got[i] - np.eye(c))) < 1e-12
        u = _fixed_full_qr(full[i])
        want = u.T @ u if ens is Ensemble.COE else u
        # both are exact up to the block's condition number times rounding
        assert np.max(np.abs(got[i] - want)) < 1e-5


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("ens, text, exact", [
    (Ensemble.ORTHOGONAL, "M[1,1] M[2,2] M[1,2] M[2,1]", lambda n: Fraction(-1, n * (n - 1) * (n + 2))),
    (Ensemble.UNITARY, "M[1,1] M[2,2] Mc[1,2] Mc[2,1]", lambda n: Fraction(-1, n * (n * n - 1))),
    (Ensemble.UNITARY, "M[1,1] Mc[1,1] M[2,2] Mc[2,2]", lambda n: Fraction(1, n * n - 1)),
], ids=["orthogonal-U11U22U12U21", "unitary-U11U22U12cU21c", "unitary-U11U11cU22U22c"])
def test_mc_two_rows_through_r_factor(ens, text, exact, n):
    # two rows are drawn and n - 2 stood in for by an R factor: at n = 3 a
    # 1 x k trapezoid, at n = 8 a full k x k triangle
    est = mc_integrate(ens, MonomialSpec.parse(text), n, 200_000, seed=40 + n)
    assert abs(est.mean - float(exact(n))) <= 5 * est.standard_error, (est.mean, exact(n))


@pytest.mark.parametrize("m, k", [(0, 4), (1, 4), (3, 4), (4, 4), (9, 2)])
def test_r_factor_is_upper_trapezoidal(m, k):
    t = _r_factor(np.random.default_rng(33), 50, m, k)
    assert t.shape == (50, min(m, k), k)
    assert np.all(np.tril(t, -1) == 0)
    assert np.all(np.diagonal(t, axis1=1, axis2=2) > 0)


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
