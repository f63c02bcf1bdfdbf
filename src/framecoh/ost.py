"""Noisy sparse-signal model and one-step thresholding (OST) recovery.

The measurement model is y = F x + e with x K-sparse in C^N and e
circularly-symmetric complex Gaussian with per-entry variance sigma^2
(real and imaginary parts i.i.d. N(0, sigma^2/2)).  OST correlates the
measurements with the frame columns, keeps the indices whose proxy
magnitude exceeds a threshold, and least-squares fits on the kept columns.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .frame import Frame

# numerical constants of the reconstruction error bounds
OST_C1 = 37.0 * math.e
OST_C2 = 2.0 / (1.0 - math.exp(-0.5))
OST_C3 = 1.0 + math.exp(-0.5) / (1.0 - math.exp(-0.5))

#: Frame entries that `weak_rip_estimate` gathers per block of trials.
_WEAK_RIP_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SparseSignal:
    """K-sparse length-N vector: values on a support set, exact zeros elsewhere."""

    length: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        supp = np.asarray(self.support, dtype=np.int64).ravel()
        vals = np.asarray(self.values, dtype=np.complex128).ravel()
        if supp.size != vals.size:
            raise ValueError("support and values must have the same length")
        if supp.size > self.length:
            raise ValueError("support larger than the signal length")
        if supp.size and (supp.min() < 0 or supp.max() >= self.length):
            raise ValueError("support indices out of range")
        if np.unique(supp).size != supp.size:
            raise ValueError("support indices must be distinct")
        order = np.argsort(supp)
        supp, vals = supp[order].copy(), vals[order].copy()
        supp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "support", supp)
        object.__setattr__(self, "values", vals)

    @property
    def sparsity(self) -> int:
        return self.support.size

    def dense(self) -> np.ndarray:
        x = np.zeros(self.length, dtype=np.complex128)
        x[self.support] = self.values
        return x

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. zero-mean complex Gaussian noise, variance sigma2 per entry."""

    sigma2: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")

    def sample(self, m: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        scale = math.sqrt(self.sigma2 / 2.0)
        return rng.normal(0.0, scale, m) + 1j * rng.normal(0.0, scale, m)


@dataclass(frozen=True)
class FlatAmplitudes:
    """All nonzero magnitudes equal alpha, with uniform random phases."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a positive finite magnitude, got {self.alpha!r}")

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return self.alpha * np.exp(2j * np.pi * rng.random(k))


@dataclass(frozen=True)
class TwoTierAmplitudes:
    """ceil(K/2) entries at alpha, the rest at a (noise-floor scale) low level."""

    alpha: float
    low: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a positive finite magnitude, got {self.alpha!r}")
        if not (self.low >= 0 and math.isfinite(self.low)):
            raise ValueError(f"low must be a nonnegative finite magnitude, got {self.low!r}")

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        hi = (k + 1) // 2
        mags = np.concatenate([np.full(hi, self.alpha), np.full(k - hi, self.low)])
        return mags * np.exp(2j * np.pi * rng.random(k))


def draw_signal(n: int, k: int, amplitude_law, seed: int) -> SparseSignal:
    """K-sparse length-N signal: support uniform over K-subsets, then values
    from ``amplitude_law``, both from one generator seeded with ``seed``."""
    if k < 0:
        raise ValueError(f"K must be >= 0, got {k}")
    if k > n:
        raise ValueError(f"sparsity K = {k} exceeds the signal length N = {n}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    return SparseSignal(length=n, support=support, values=amplitude_law.sample(rng, k))


def generate_problem(
    frame: Frame, k: int, amplitude_law, noise: NoiseModel, seed: int
) -> tuple[SparseSignal, np.ndarray]:
    """(x, y) with x from :func:`draw_signal` and y = F x + e; deterministic
    given ``seed`` and ``noise.seed``."""
    x = draw_signal(frame.cols, k, amplitude_law, seed)
    e = noise.sample(frame.rows)
    y = frame.data @ x.dense() + e
    return x, y


def snr_of(x: SparseSignal, m: int, sigma2: float) -> float:
    """Signal-to-noise ratio ||x||^2 / E||e||^2 = ||x||^2 / (M sigma^2)."""
    return x.norm() ** 2 / (m * sigma2)


def noise_scale(sigma2: float, n: int) -> float:
    """sqrt(2 sigma^2 ln N), the scale of the largest of N noise proxies."""
    return math.sqrt(2.0 * sigma2 * math.log(n))


def ost_threshold(mu: float, m: int, snr: float, sigma2: float, n: int, t: float) -> float:
    """Threshold sqrt(2 sigma^2 ln N) * max((10/t) mu sqrt(M snr), sqrt(2)/(1-t))."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly inside (0, 1)")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if not (snr >= 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be a nonnegative finite number, got {snr!r}")
    coeff = max((10.0 / t) * mu * math.sqrt(m * snr), math.sqrt(2.0) / (1.0 - t))
    return noise_scale(sigma2, n) * coeff


@dataclass(frozen=True)
class RecoveryResult:
    """OST output: the selected support and the fitted signal."""

    support_estimate: np.ndarray
    signal_estimate: np.ndarray
    rank_deficient: bool = False


def ost_recover(frame: Frame, y: np.ndarray, lam: float) -> RecoveryResult:
    """One-step thresholding: proxy z = F^H y, keep |z_n| > lam, least squares.

    A rank-deficient selected submatrix falls back to the minimum-norm
    least-squares solution and flags ``rank_deficient`` (with a warning).
    """
    return _threshold_fit(frame.data, frame.data.conj().T, np.asarray(y).ravel(), lam)


def _threshold_fit(data: np.ndarray, data_h: np.ndarray, y: np.ndarray, lam: float):
    """`ost_recover` on F = ``data``, with F^H given as ``data_h``."""
    if lam <= 0:
        raise ValueError("threshold lam must be positive")
    z = data_h @ y
    khat = np.flatnonzero(np.abs(z) > lam)
    dtype = np.result_type(data.dtype, y.dtype)
    xhat = np.zeros(data.shape[1], dtype=dtype)
    rank_deficient = False
    if khat.size:
        sol, _, rank, _ = np.linalg.lstsq(data[:, khat], y.astype(dtype), rcond=1e-10)
        if rank < khat.size:
            rank_deficient = True
            warnings.warn(
                f"selected {khat.size} columns with rank {rank}; "
                "using the minimum-norm least-squares solution",
                RuntimeWarning,
            )
        xhat[khat] = sol
    return RecoveryResult(
        support_estimate=khat, signal_estimate=xhat, rank_deficient=rank_deficient
    )


def _as_dense(x) -> np.ndarray:
    if isinstance(x, SparseSignal):
        return x.dense()
    return np.asarray(x, dtype=np.complex128).ravel()


def floor_sets(x, sigma2: float, mu: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices above the noise floor and above the self-interference floor.

    noise floor set:            |x_n| > (2 sqrt(2)/(1-t)) sqrt(2 sigma^2 ln N)
    self-interference floor set: |x_n| > (20/t) mu ||x|| sqrt(2 ln N)
    """
    dense = _as_dense(x)
    n = dense.size
    mags = np.abs(dense)
    tau_sigma = noise_floor_threshold(sigma2, n, t)
    tau_mu = self_interference_floor(mu, t, n, float(np.linalg.norm(dense)))
    return np.flatnonzero(mags > tau_sigma), np.flatnonzero(mags > tau_mu)


def self_interference_floor(mu: float, t: float, n: int, norm: float) -> float:
    """(20/t) mu ||x|| sqrt(2 ln N), with ``norm`` = ||x||."""
    return (20.0 / t) * mu * norm * math.sqrt(2.0 * math.log(n))


def noise_floor_threshold(sigma2: float, n: int, t: float) -> float:
    """Magnitude above which an entry clears the noise floor set."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly inside (0, 1)")
    return (2.0 * math.sqrt(2.0) / (1.0 - t)) * noise_scale(sigma2, n)


def sparsity_regime_limit(n: int, spectral_norm: float) -> float:
    """Largest sparsity K of the OST regime K <= N / (c1^2 ||F||_2^2 ln N)."""
    return n / (OST_C1 ** 2 * spectral_norm ** 2 * math.log(n))


@dataclass(frozen=True)
class RspReport:
    """Evaluation of the support error bound for one recovery."""

    l2_error: float
    support_rhs: float        # c2 sqrt(sigma^2 |Khat| ln N) + c3 ||x_{K \ Khat}||
    support_bound_ok: bool


def check_rsp_bounds(result: RecoveryResult, x, sigma2: float) -> RspReport:
    """Evaluate the support error bound, with N = len(x); ``result`` is left
    unchanged."""
    dense = _as_dense(x)
    khat = result.support_estimate
    err = float(np.linalg.norm(dense - result.signal_estimate))
    kept = set(khat.tolist())
    # in index order, as np.setdiff1d gives: it fixes the summation order of the norm
    missed = [i for i in np.flatnonzero(dense).tolist() if i not in kept]
    rhs = OST_C2 * math.sqrt(sigma2 * khat.size * math.log(dense.size)) + OST_C3 * float(
        np.linalg.norm(dense[missed])
    )
    return RspReport(l2_error=err, support_rhs=rhs, support_bound_ok=err <= rhs)


#: Columns of the per-trial CSV rows returned by :func:`ost_trials`.
OST_TRIAL_HEADER = ("trial", "K", "|Khat|", "exact_support", "l2_error", "bound_rhs", "ok")


def ost_trials(
    frame: Frame,
    k: int,
    amplitude_law,
    sigma2: float,
    t: float,
    mu: float,
    seeds,
    *,
    lam: float | None,
    snr: float | None,
) -> list[tuple]:
    """Noisy OST recovery trials, one row of OST_TRIAL_HEADER per trial.

    Trial i draws (x, y) with :func:`generate_problem` from
    ``seeds[i] = (signal_seed, noise_seed)``, thresholds at ``lam`` (when
    None, at :func:`ost_threshold` with ``snr``, itself taken from the drawn
    signal when None), recovers as :func:`ost_recover` does, and evaluates
    :func:`floor_sets` and :func:`check_rsp_bounds`.  ok means the support
    estimate contains T_sigma intersect T_mu, lies inside the true support,
    and meets the support error bound.

    ok also implies the paper's T-term bound c2 sqrt(sigma^2 K ln N) +
    c3 ||x - x_T|| with T = T_sigma intersect T_mu: T within Khat within K
    gives |Khat| <= K, and K \\ Khat misses T, so ||x_{K \\ Khat}|| <= ||x - x_T||.

    F^H is formed once per call, not once per trial: for a real F as the
    C-ordered complex128 copy that numpy would otherwise cast for every
    F^H y, so the proxy keeps the bits of :func:`ost_recover`.
    """
    m, n = frame.rows, frame.cols
    data = frame.data
    if np.iscomplexobj(data):
        data_h = data.conj().T
    else:
        data_h = np.ascontiguousarray(data.T, dtype=np.complex128)
    rows = []
    for index, (signal_seed, noise_seed) in enumerate(seeds):
        x, y = generate_problem(
            frame, k, amplitude_law, NoiseModel(sigma2, seed=noise_seed), seed=signal_seed
        )
        dense = x.dense()
        threshold = lam
        if lam is None:
            trial_snr = snr_of(x, m, sigma2) if snr is None else snr
            threshold = ost_threshold(mu, m, trial_snr, sigma2, n, t)
        res = _threshold_fit(data, data_h, y, threshold)
        rsp = check_rsp_bounds(res, dense, sigma2)
        khat = res.support_estimate.tolist()
        noise_set, mu_set = floor_sets(dense, sigma2, mu, t)
        must_find = set(noise_set.tolist()).intersection(mu_set.tolist())
        support = x.support.tolist()
        contained = must_find.issubset(khat) and set(support).issuperset(khat)
        ok = contained and rsp.support_bound_ok
        rows.append((index, k, len(khat), khat == support, rsp.l2_error, rsp.support_rhs, ok))
    return rows


def weak_rip_estimate(frame: Frame, x: SparseSignal, delta: float, trials: int, seed: int) -> float:
    """Fraction of random entry permutations y of x violating
    (1-delta)||y||^2 <= ||Fy||^2 <= (1+delta)||y||^2.

    Each trial draws a uniform permutation of all N coordinates; because x
    is sparse, ||Fy||^2 only needs the columns at the permuted support.
    The trial loop keeps only those K positions; the energies are then
    evaluated over blocks of trials whose gathered columns hold about
    _WEAK_RIP_ENTRIES entries.  A blocked energy may differ from a
    one-trial-at-a-time evaluation in its last ulp, so the count is exact
    unless an energy lies within rounding of a band edge.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if x.length != frame.cols:
        raise ValueError("signal length must match the number of frame columns")
    rng = np.random.default_rng(seed)
    positions = np.empty((trials, x.sparsity), dtype=np.int64)
    for i in range(trials):
        positions[i] = rng.permutation(x.length)[x.support]  # y[perm[j]] = x[j]
    # columns[n] is f_n; one contiguous copy makes each gather read whole rows
    columns = np.ascontiguousarray(frame.data.T)
    values = x.values
    energy = float(np.vdot(values, values).real)
    lo, hi = (1.0 - delta) * energy, (1.0 + delta) * energy
    block = max(1, _WEAK_RIP_ENTRIES // max(1, frame.rows * x.sparsity))
    violations = 0
    for start in range(0, trials, block):
        picked = columns[positions[start:start + block]]  # (trials, K, M)
        if np.isrealobj(picked):
            re, im = values.real @ picked, values.imag @ picked
            e = np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im)
        else:
            parts = (values @ picked).view(np.float64)
            e = np.einsum("ij,ij->i", parts, parts)
        violations += int(np.count_nonzero((e < lo) | (e > hi)))
    return violations / trials
