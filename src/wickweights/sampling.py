"""Monte Carlo oracle: Haar / Dyson sampling and monomial averages.

This is the only module that touches floating point.  It exists to
cross-check the symbolic results at concrete dimensions:

* orthogonal: Gram-Schmidt on the columns of a real Gaussian matrix.  It
  gives the triangular factor a positive diagonal, the choice that makes
  the distribution Haar (Mezzadri 2007); a QR routine that leaves the
  signs of that diagonal free does NOT -- the classic sampling bug.
* unitary: the same construction from a complex Gaussian matrix.
* coe: S = U^T U with U Haar unitary, the standard construction of
  symmetric unitary matrices with the invariant measure.

A monomial is averaged from only the columns it reads.  Gram-Schmidt on
an n x c Gaussian block gives the first c columns of a Haar matrix
(Stewart 1980), and each column after the first is projected twice, which
keeps it orthogonal to rounding (Giraud et al. 2005).  By invariance under
U -> UP (for the COE, S -> P^T S P) for a permutation P, the monomial's
distinct column labels are first mapped to 1..c, so c is the number of
distinct labels (for the COE, the distinct labels of rows and columns
together, since S_ij = sum_k U_ki U_kj reads columns i and j of U).
Sampling is vectorized over stacked blocks in batches of a fixed number
of entries, so memory stays bounded at any dimension.  On two cores a
million samples at n = 8 take 0.2-1.7 s for c = 1 or 2.  A large c costs
more than LAPACK's QR would: 5 000 unitary samples at c = n = 64 take
8.4 s, against 3.3 s by QR.  Results are reproducible for a fixed (seed,
samples, dimension, monomial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import RatFunc
from .wick import Ensemble, MonomialSpec

# Gaussian entries drawn per batch, 20 000 full samples at n = 8; sizing by
# entries keeps memory flat in n
_BATCH_ENTRIES = 20_000 * 64


def _sample_batch(ensemble: Ensemble, rng: np.random.Generator, count: int, n: int, c: int) -> np.ndarray:
    """count draws at dimension n, cut to what indices <= c read.

    Orthogonal and unitary: the first c columns of Haar matrices, shape
    (count, n, c), from Gram-Schmidt on an n x c Gaussian block.  COE: the
    leading c x c block of S = U^T U, which reads only columns 1..c of U.
    """
    shape = (count, n, c)
    if ensemble.complex_entries:
        # (re + 1j * im) / sqrt(2), filled in place rather than through three temporaries
        q = np.empty(shape, dtype=complex)
        q.real, q.imag = rng.standard_normal(shape), rng.standard_normal(shape)
        q /= math.sqrt(2.0)
    else:
        q = rng.standard_normal(shape)
    # Gram-Schmidt in place, each column projected twice; dividing by the norm
    # leaves the triangular factor a positive diagonal
    for j in range(c):
        v, done = q[:, :, j], q[:, :, :j]
        for _ in range(2 if j else 0):
            r = (v.conj()[:, None, :] @ done).conj()  # <q_i, v> for i < j, as a 1 x j row
            v -= (r @ np.swapaxes(done, 1, 2))[:, 0]
        v /= np.sqrt(np.einsum("bk,bk->b", v.conj(), v).real)[:, None]
    if ensemble is not Ensemble.COE:
        return q
    # one dot per pair of columns: five times faster than stacked c x c products
    # at c = 2, slower from about c = 8 on
    s = np.empty((count, c, c), dtype=q.dtype)
    for i in range(c):
        for j in range(i, c):
            s[:, i, j] = s[:, j, i] = np.einsum("bk,bk->b", q[:, :, i], q[:, :, j])
    return s


def sample_haar(ensemble: Ensemble, n: int, seed: int) -> np.ndarray:
    """One matrix from the ensemble's invariant measure at dimension n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    return _sample_batch(ensemble, rng, 1, n, n)[0]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of a monomial with its statistical error."""

    mean: float
    standard_error: float
    samples: int
    seed: int
    dimension: int
    imag_mean: float = 0.0  # sanity statistic for complex ensembles

    def to_json(self) -> dict:
        return {
            "mc_mean": self.mean,
            "stderr": self.standard_error,
            "samples": self.samples,
            "seed": self.seed,
            "N": self.dimension,
            "imag_mean": self.imag_mean,
        }


def mc_integrate(
    ensemble: Ensemble,
    monomial: MonomialSpec,
    n: int,
    samples: int,
    seed: int,
) -> McEstimate:
    """Unbiased Monte Carlo mean of a concrete-index monomial.

    Each sample draws only c columns, c the number of distinct labels the
    monomial reads (see the module docstring).  For the complex ensembles
    the real part is averaged (the checked exact values are real by
    invariance); the mean imaginary part is kept as a sanity statistic.
    """
    monomial.validate(ensemble)
    if not monomial.is_concrete():
        raise ValueError("Monte Carlo integration needs concrete integer indices")
    if samples < 1:
        raise ValueError("need at least one sample")
    for s in monomial.slots:
        if not (1 <= s.row <= n and 1 <= s.col <= n):
            raise ValueError(f"index out of range for dimension {n}: {s}")
    # 0-based (row, column, conj) after the relabeling by invariance
    if ensemble is Ensemble.COE:
        labels = sorted({i for s in monomial.slots for i in (s.row, s.col)})
        index = {label: k for k, label in enumerate(labels)}
        slots = [(index[s.row], index[s.col], s.conj) for s in monomial.slots]
    else:
        labels = sorted({s.col for s in monomial.slots})
        index = {label: k for k, label in enumerate(labels)}
        slots = [(s.row - 1, index[s.col], s.conj) for s in monomial.slots]
    c = len(labels)
    batch = max(1, _BATCH_ENTRIES // (n * c))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    total_im = 0.0
    done = 0
    while done < samples:
        count = min(batch, samples - done)
        mats = _sample_batch(ensemble, rng, count, n, c)
        vals = np.ones(count, dtype=complex if ensemble.complex_entries else float)
        for row, col, conj in slots:
            entry = mats[:, row, col]
            vals = vals * (np.conj(entry) if conj else entry)
        re = vals.real if ensemble.complex_entries else vals
        total += float(re.sum())
        total_sq += float((re * re).sum())
        if ensemble.complex_entries:
            total_im += float(vals.imag.sum())
        done += count
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return McEstimate(mean, stderr, samples, seed, n, total_im / samples)


@dataclass(frozen=True)
class CheckReport:
    """Symbolic-vs-Monte-Carlo comparison at 5 standard errors."""

    exact: Fraction
    estimate: McEstimate
    passed: bool
    z: float

    def to_json(self) -> dict:
        return {
            "exact": float(self.exact),
            "mc_mean": self.estimate.mean,
            "stderr": self.estimate.standard_error,
            "z": self.z,
            "pass": self.passed,
            "seed": self.estimate.seed,
        }


def cross_check(
    symbolic: RatFunc,
    ensemble: Ensemble,
    monomial: MonomialSpec,
    n: int,
    samples: int,
    seed: int,
) -> CheckReport:
    """Pass iff |mc mean - exact value at N=n| <= 5 standard errors."""
    exact = symbolic.eval(n)
    est = mc_integrate(ensemble, monomial, n, samples, seed)
    diff = abs(est.mean - float(exact))
    if est.standard_error > 0:
        z = diff / est.standard_error
        passed = diff <= 5.0 * est.standard_error
    else:
        z = 0.0 if diff == 0 else math.inf
        passed = diff == 0
    return CheckReport(exact, est, passed, z)
