"""Monte Carlo oracle: Haar / Dyson sampling and monomial averages.

This is the only module that touches floating point.  It exists to
cross-check the symbolic results at concrete dimensions:

* orthogonal: QR of a real Gaussian matrix with the signs of the triangular
  factor's diagonal pushed into Q.  Without that sign fix the distribution
  is NOT Haar -- the classic sampling bug.
* unitary: same construction from a complex Gaussian matrix, with phases
  instead of signs.
* coe: S = U^T U with U Haar unitary, the standard construction of
  symmetric unitary matrices with the invariant measure.

A monomial is averaged from only the columns it reads: the QR of an n x c
Gaussian block, with the same sign or phase fix, gives the first c columns
of a Haar matrix (Stewart 1980; Mezzadri 2007), where c is the largest
column index (for the COE, the largest index of either kind, since
S_ij = sum_k U_ki U_kj reads columns i and j of U).  Sampling is
vectorized over stacked blocks in batches of a fixed number of entries,
so memory stays bounded at any dimension; a million samples at n = 8
take 0.5-3 s for monomials in columns 1 and 2.  Results are
reproducible for a fixed (seed, samples, dimension, monomial).
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
    (count, n, c), from the sign- (phase-) fixed QR of an n x c Gaussian
    block.  COE: the leading c x c block of S = U^T U, which reads only
    columns 1..c of U.
    """
    shape = (count, n, c)
    g = rng.standard_normal(shape)
    if ensemble.complex_entries:
        g = (g + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.einsum("...ii->...i", r)
    q *= (d / np.abs(d))[:, None, :]
    if ensemble is Ensemble.COE:
        return np.swapaxes(q, 1, 2) @ q
    return q


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

    Each sample draws only columns 1..c, c the largest index the monomial
    reads (see the module docstring).  For the complex ensembles the real
    part is averaged (the checked exact values are real by invariance); the
    mean imaginary part is kept as a sanity statistic.
    """
    monomial.validate(ensemble)
    if not monomial.is_concrete():
        raise ValueError("Monte Carlo integration needs concrete integer indices")
    if samples < 1:
        raise ValueError("need at least one sample")
    for s in monomial.slots:
        if not (1 <= s.row <= n and 1 <= s.col <= n):
            raise ValueError(f"index out of range for dimension {n}: {s}")
    if ensemble is Ensemble.COE:
        c = max(max(s.row, s.col) for s in monomial.slots)
    else:
        c = max(s.col for s in monomial.slots)
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
        for s in monomial.slots:
            entry = mats[:, s.row - 1, s.col - 1]
            vals = vals * (np.conj(entry) if s.conj else entry)
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
