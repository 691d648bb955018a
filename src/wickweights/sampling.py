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

A monomial is averaged from only the entries it reads.  Gram-Schmidt on
an n x c Gaussian block Z gives the first c columns of a Haar matrix
(Stewart 1980), Q = Z R^-1 with R the Cholesky factor of Z^H Z, and each
column after the first is projected twice, which keeps it orthogonal to
rounding (Giraud et al. 2005).  By invariance under U -> P U P' for
permutations P and P' (for the COE, S -> P^T S P), the monomial's
distinct row labels are first mapped to 1..r and its distinct column
labels to 1..c.  The r read rows G of Z meet the n - r unread rows H
only in Z^H Z = G^H G + H^H H, and H^H H has the law of T^T T, T the R
factor of an (n - r) x k standard Gaussian block: upper trapezoidal,
min(n - r, k) x k, with chi_{n-r-i} on its diagonal (0-based row i) and
N(0, 1) above it (Bartlett's decomposition; Edelman and Rao 2005).  So
Gram-Schmidt on the short block [G; T] gives the read rows with exactly
the Haar law.  Complex entries are realified: G and H are real blocks of
k = 2c columns, real parts in the first c, whose real Gram matrix gives
both H^H H and H^T H.  The COE reads S_ij = sum_k U_ki U_kj, a function
of Z^H Z and Z^T Z alone, so it takes r = 0 and c the distinct labels of
rows and columns together.  A sample thus draws (r + min(n - r, k)) c
entries, O(c (r + c)) whatever n, and Gram-Schmidt on them costs c times
that.  Sampling is vectorized over stacked blocks in batches of a fixed
number of entries, so memory stays bounded.  On two cores a million
samples at n = 8 take 0.06-0.7 s for c = 1 or 2.  A large c costs more
than LAPACK's QR would: 5 000 unitary samples at c = n = 64 take
5.2-5.6 s, against 3.3 s by QR.  Results are reproducible for a fixed
(seed, samples, dimension, monomial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import RatFunc
from .wick import Ensemble, MonomialSpec

# Entries of the stacked blocks per batch, 20 000 full 8 x 8 blocks.  A sample's
# block is (rows + min(n - rows, k)) x c, k = c real or 2c complex, so a batch
# is sized by what the monomial reads and holds at most (rows + 2c) c entries a
# sample, whatever n
_BATCH_ENTRIES = 20_000 * 64


def _r_factor(rng: np.random.Generator, count: int, m: int, k: int) -> np.ndarray:
    """R factors of count m x k standard Gaussian blocks, shape (count, min(m, k), k).

    Bartlett's decomposition: row i (0-based) has chi_{m-i} on the diagonal,
    N(0, 1) to its right and zeros to its left.  m = 0 gives an empty block
    and draws nothing.
    """
    t = np.zeros((count, min(m, k), k))
    for i in range(t.shape[1]):
        t[:, i, i] = np.sqrt(rng.chisquare(m - i, count))
        t[:, i, i + 1:] = rng.standard_normal((count, k - i - 1))
    return t


def _sample_batch(ensemble: Ensemble, rng: np.random.Generator, count: int, n: int, c: int,
                  rows: int) -> np.ndarray:
    """count draws at dimension n, cut to the first rows rows and c columns a monomial reads.

    Orthogonal and unitary: rows 1..rows of the first c columns of Haar
    matrices, shape (count, rows, c).  COE: the leading c x c block of
    S = U^T U, which reads all of columns 1..c of U (mc_integrate passes
    rows = 0).  The read rows are drawn as one real Gaussian block of k = c
    columns, or k = 2c with real parts in the first c for complex entries;
    the R factor of the other n - rows rows is stacked under them, and
    Gram-Schmidt runs on that short block (see the module docstring).  At
    rows = n the R factor is empty and this is Gram-Schmidt on a full n x c
    Gaussian block.
    """
    k = 2 * c if ensemble.complex_entries else c
    z = np.concatenate((rng.standard_normal((count, rows, k)), _r_factor(rng, count, n - rows, k)), axis=1)
    q = z[..., :c] + 1j * z[..., c:] if ensemble.complex_entries else z
    # Gram-Schmidt in place, each column projected twice; dividing by the norm
    # leaves the triangular factor a positive diagonal
    for j in range(c):
        v, done = q[:, :, j], q[:, :, :j]
        for _ in range(2 if j else 0):
            r = (v.conj()[:, None, :] @ done).conj()  # <q_i, v> for i < j, as a 1 x j row
            v -= (r @ np.swapaxes(done, 1, 2))[:, 0]
        v /= np.sqrt(np.einsum("bk,bk->b", v.conj(), v).real)[:, None]
    if ensemble is not Ensemble.COE:
        return q[:, :rows]
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
    return _sample_batch(ensemble, rng, 1, n, n, n)[0]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of a monomial with its statistical error."""

    mean: float
    standard_error: float
    samples: int
    seed: int
    dimension: int
    imag_mean: float  # sanity statistic, 0.0 for the orthogonal ensemble

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

    Each sample draws the r distinct rows of the c distinct columns the
    monomial reads and an R factor of at most 2c rows for the rest, O(c (r +
    c)) entries whatever n (see the module docstring; the COE has r = 0).
    The real part is averaged (the checked exact values are real by
    invariance); the mean imaginary part is kept as a sanity statistic, and
    is 0.0 for the orthogonal ensemble.
    """
    monomial.validate(ensemble)
    if not monomial.is_concrete():
        raise ValueError("Monte Carlo integration needs concrete integer indices")
    if samples < 1:
        raise ValueError("need at least one sample")
    for s in monomial.slots:
        if not (1 <= s.row <= n and 1 <= s.col <= n):
            raise ValueError(f"index out of range for dimension {n}: {s}")

    def relabel(labels) -> dict[int, int]:
        return {label: i for i, label in enumerate(sorted(set(labels)))}

    # 0-based (row, column, conj) after the relabeling by invariance
    if ensemble is Ensemble.COE:
        row_index = col_index = relabel(i for s in monomial.slots for i in (s.row, s.col))
        rows = 0
    else:
        row_index, col_index = relabel(s.row for s in monomial.slots), relabel(s.col for s in monomial.slots)
        rows = len(row_index)
    slots = [(row_index[s.row], col_index[s.col], s.conj) for s in monomial.slots]
    c = len(col_index)
    k = 2 * c if ensemble.complex_entries else c
    batch = max(1, _BATCH_ENTRIES // ((rows + min(n - rows, k)) * c))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    total_im = 0.0
    done = 0
    while done < samples:
        count = min(batch, samples - done)
        mats = _sample_batch(ensemble, rng, count, n, c, rows)
        vals = np.ones(count)
        for i, j, conj in slots:
            vals = vals * (np.conj(mats[:, i, j]) if conj else mats[:, i, j])
        re = vals.real
        total += float(re.sum())
        total_sq += float((re * re).sum())
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
