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


def generate_problem(
    frame: Frame, k: int, amplitude_law, noise: NoiseModel, seed: int
) -> tuple[SparseSignal, np.ndarray]:
    """Draw a K-sparse signal (support uniform over K-subsets) and measure it.

    Returns (x, y) with y = F x + e; deterministic given ``seed`` and
    ``noise.seed``.
    """
    n = frame.cols
    if k > n:
        raise ValueError(f"sparsity K = {k} exceeds the signal length N = {n}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    values = amplitude_law.sample(rng, k)
    x = SparseSignal(length=n, support=support, values=values)
    e = noise.sample(frame.rows)
    y = frame.data @ x.dense() + e
    return x, y


def snr_of(x: SparseSignal, m: int, sigma2: float) -> float:
    """Signal-to-noise ratio ||x||^2 / E||e||^2 = ||x||^2 / (M sigma^2)."""
    return x.norm() ** 2 / (m * sigma2)


def ost_threshold(mu: float, m: int, snr: float, sigma2: float, n: int, t: float) -> float:
    """Threshold sqrt(2 sigma^2 ln N) * max((10/t) mu sqrt(M snr), sqrt(2)/(1-t))."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly inside (0, 1)")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if not (snr >= 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be a nonnegative finite number, got {snr!r}")
    base = math.sqrt(2.0 * sigma2 * math.log(n))
    return base * max((10.0 / t) * mu * math.sqrt(m * snr), math.sqrt(2.0) / (1.0 - t))


@dataclass(frozen=True)
class RecoveryResult:
    """OST output: the selected support, the fitted signal and the threshold used."""

    support_estimate: np.ndarray
    signal_estimate: np.ndarray
    lam: float
    rank_deficient: bool = False


def ost_recover(frame: Frame, y: np.ndarray, lam: float, rank_tol: float = 1e-10) -> RecoveryResult:
    """One-step thresholding: proxy z = F^H y, keep |z_n| > lam, least squares.

    A rank-deficient selected submatrix falls back to the minimum-norm
    least-squares solution and flags ``rank_deficient`` (with a warning).
    """
    if lam <= 0:
        raise ValueError("threshold lam must be positive")
    y = np.asarray(y).ravel()
    z = frame.data.conj().T @ y
    khat = np.flatnonzero(np.abs(z) > lam)
    dtype = np.result_type(frame.data.dtype, y.dtype)
    xhat = np.zeros(frame.cols, dtype=dtype)
    rank_deficient = False
    if khat.size:
        sub = frame.data[:, khat]
        sol, _, rank, _ = np.linalg.lstsq(sub, y.astype(dtype), rcond=rank_tol)
        if rank < khat.size:
            rank_deficient = True
            warnings.warn(
                f"selected {khat.size} columns with rank {rank}; "
                "using the minimum-norm least-squares solution",
                RuntimeWarning,
            )
        xhat[khat] = sol
    return RecoveryResult(
        support_estimate=khat, signal_estimate=xhat, lam=lam, rank_deficient=rank_deficient
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
    tau_mu = (20.0 / t) * mu * float(np.linalg.norm(dense)) * math.sqrt(2.0 * math.log(n))
    return np.flatnonzero(mags > tau_sigma), np.flatnonzero(mags > tau_mu)


def noise_floor_threshold(sigma2: float, n: int, t: float) -> float:
    """Magnitude above which an entry clears the noise floor set."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly inside (0, 1)")
    return (2.0 * math.sqrt(2.0) / (1.0 - t)) * math.sqrt(2.0 * sigma2 * math.log(n))


def sparsity_regime_limit(n: int, spectral_norm: float) -> float:
    """Largest sparsity K of the OST regime K <= N / (c1^2 ||F||_2^2 ln N)."""
    return n / (OST_C1 ** 2 * spectral_norm ** 2 * math.log(n))


@dataclass(frozen=True)
class RspReport:
    """Evaluation of the reconstruction error bounds for one recovery."""

    l2_error: float
    support_rhs: float        # c2 sqrt(sigma^2 |Khat| ln N) + c3 ||x_{K \ Khat}||
    support_bound_ok: bool
    tterm_rhs: float | None   # c2 sqrt(sigma^2 K ln N) + c3 ||x - x_T||
    tterm_ok: bool | None
    n_floor: int | None       # T = |T_sigma  intersect  T_mu|
    regime_ok: bool | None    # K <= N / (c1^2 ||F||_2^2 ln N)
    regime_limit: float | None


def check_rsp_bounds(
    result: RecoveryResult,
    x,
    k: int,
    sigma2: float,
    n: int,
    spectral_norm: float | None = None,
    floors: tuple[np.ndarray, np.ndarray] | None = None,
) -> RspReport:
    """Evaluate the reconstruction error bounds and (optionally) the
    sparsity-regime condition; ``result`` is left unchanged."""
    dense = _as_dense(x)
    support = np.flatnonzero(dense)
    khat = result.support_estimate
    err = float(np.linalg.norm(dense - result.signal_estimate))
    missed = np.setdiff1d(support, khat)
    rhs2 = OST_C2 * math.sqrt(sigma2 * khat.size * math.log(n)) + OST_C3 * float(
        np.linalg.norm(dense[missed])
    )
    holds2 = err <= rhs2

    tterm_rhs = tterm_ok = n_floor = None
    if floors is not None:
        fs, fm = floors
        n_floor = int(np.intersect1d(fs, fm).size)
        keep = np.argsort(np.abs(dense))[::-1][:n_floor]
        x_t = np.zeros_like(dense)
        x_t[keep] = dense[keep]
        tterm_rhs = OST_C2 * math.sqrt(sigma2 * k * math.log(n)) + OST_C3 * float(
            np.linalg.norm(dense - x_t)
        )
        tterm_ok = err <= tterm_rhs

    regime_ok = regime_limit = None
    if spectral_norm is not None:
        regime_limit = sparsity_regime_limit(n, spectral_norm)
        regime_ok = k <= regime_limit

    return RspReport(
        l2_error=err,
        support_rhs=rhs2,
        support_bound_ok=holds2,
        tterm_rhs=tterm_rhs,
        tterm_ok=tterm_ok,
        n_floor=n_floor,
        regime_ok=regime_ok,
        regime_limit=regime_limit,
    )


#: Columns of the per-trial CSV row returned by :func:`ost_trial`.
OST_TRIAL_HEADER = ("trial", "K", "|Khat|", "exact_support", "l2_error", "bound_rhs", "ok")


def ost_trial(
    frame: Frame,
    k: int,
    amplitude_law,
    sigma2: float,
    t: float,
    mu: float,
    spectral_norm: float,
    *,
    index: int,
    signal_seed: int,
    noise_seed: int,
    lam: float | None,
    snr: float | None,
) -> tuple:
    """One noisy OST recovery trial, returned as a row of OST_TRIAL_HEADER.

    Draws (x, y) from the two seeds, thresholds at ``lam`` (when None, at
    :func:`ost_threshold` with ``snr``, itself taken from the drawn signal
    when None), recovers, and evaluates the floors and the error bounds.
    ok means the support estimate contains T_sigma intersect T_mu, lies
    inside the true support, and meets the support error bound.
    """
    x, y = generate_problem(
        frame, k, amplitude_law, NoiseModel(sigma2, seed=noise_seed), seed=signal_seed
    )
    m, n = frame.rows, frame.cols
    if lam is None:
        if snr is None:
            snr = snr_of(x, m, sigma2)
        lam = ost_threshold(mu, m, snr, sigma2, n, t)
    res = ost_recover(frame, y, lam)
    floors = floor_sets(x, sigma2, mu, t)
    rsp = check_rsp_bounds(res, x, k, sigma2, n, spectral_norm=spectral_norm, floors=floors)
    khat = res.support_estimate
    must_find = np.intersect1d(floors[0], floors[1])
    contained = bool(np.all(np.isin(must_find, khat)) and np.all(np.isin(khat, x.support)))
    exact = bool(khat.size == k and np.array_equal(khat, x.support))
    ok = contained and rsp.support_bound_ok
    return (index, k, khat.size, exact, rsp.l2_error, rsp.support_rhs, ok)


def weak_rip_estimate(frame: Frame, x: SparseSignal, delta: float, trials: int, seed: int) -> float:
    """Fraction of random entry permutations y of x violating
    (1-delta)||y||^2 <= ||Fy||^2 <= (1+delta)||y||^2.

    Each trial draws a uniform permutation of all N coordinates; because x
    is sparse, ||Fy||^2 only needs the columns at the permuted support.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if x.length != frame.cols:
        raise ValueError("signal length must match the number of frame columns")
    rng = np.random.default_rng(seed)
    data = frame.data
    values = x.values
    energy = float(np.vdot(values, values).real)
    lo, hi = (1.0 - delta) * energy, (1.0 + delta) * energy
    violations = 0
    for _ in range(trials):
        perm = rng.permutation(x.length)
        positions = perm[x.support]  # y[perm[j]] = x[j]
        fy = data[:, positions] @ values
        e = float(np.vdot(fy, fy).real)
        if e < lo or e > hi:
            violations += 1
    return violations / trials
