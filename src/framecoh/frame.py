"""Unit-norm frames and their coherence parameters.

A frame is stored as a dense M x N matrix whose columns are the frame
elements.  All quantities derived here (worst-case coherence, average
coherence, spectral norm) are pure functions of the frame; instances are
immutable after construction and safe to share between threads.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: Columns must carry unit Euclidean norm within this tolerance.
UNIT_NORM_TOL = 1e-10

# Fixed seed for the power-iteration start vector, so repeated calls on the
# same frame return identical values.
_POWER_SEED = 0x5EED_F0A3


class Frame:
    """M x N matrix with unit-norm columns.

    Parameters
    ----------
    data : array_like
        Matrix whose columns are the frame elements.  Real input is stored
        as float64, complex input as complex128.
    normalize : bool, optional
        If True (default), every column is rescaled to unit norm; exactly
        zero columns are rejected.  If False, the columns are validated
        against the unit-norm tolerance but left bit-for-bit untouched,
        which is what norm-preserving transforms (flips, wiggles) and the
        file reader use.
    """

    __slots__ = ("data",)

    def __init__(self, data, normalize: bool = True):
        arr = np.array(data, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"frame data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"frame must be at least 1 x 1, got shape {arr.shape}")
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128, copy=False)
        else:
            arr = arr.astype(np.float64, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame entries must be finite")
        norms = np.linalg.norm(arr, axis=0)
        if normalize:
            if np.any(norms == 0.0):
                bad = int(np.flatnonzero(norms == 0.0)[0])
                raise ValueError(f"column {bad} is exactly zero and cannot be normalized")
            arr = arr / norms
        else:
            dev = np.abs(norms - 1.0)
            if np.any(dev > UNIT_NORM_TOL):
                bad = int(np.argmax(dev))
                raise ValueError(
                    f"column {bad} has norm {norms[bad]!r}; "
                    f"not unit within {UNIT_NORM_TOL}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    @property
    def scalar_field(self) -> str:
        return COMPLEX if self.is_complex else REAL

    def column(self, n: int) -> np.ndarray:
        return self.data[:, n]

    def rank(self, tol=None) -> int:
        """Numerical rank of the frame matrix (rank M is not enforced)."""
        return int(np.linalg.matrix_rank(np.asarray(self.data), tol=tol))

    def is_tight(self, tol: float = 1e-9) -> bool:
        """True when the squared spectral norm matches N/M within ``tol``."""
        return abs(spectral_norm(self) ** 2 - self.cols / self.rows) <= tol

    def __repr__(self):
        return f"Frame({self.rows}x{self.cols}, {self.scalar_field})"


@dataclass(frozen=True)
class CoherenceReport:
    """Geometry summary of a frame plus the two strong-coherence verdicts."""

    mu: float
    nu: float
    spectral_norm: float
    scp1: bool
    scp2: bool


def gram(frame: Frame) -> np.ndarray:
    """N x N matrix of inner products between the frame elements.

    Computed as F^H F, so the result is conjugate-symmetric with a unit
    diagonal (up to rounding) for unit-norm frames.
    """
    return frame.data.conj().T @ frame.data


def coherence(frame: Frame) -> tuple[float, float]:
    """Worst-case and average coherence (mu, nu) from one Gram evaluation.

    mu is the largest |<f_i, f_j>| over distinct column pairs; nu is
    max_i |sum_{j != i} <f_i, f_j>| scaled by 1/(N-1).
    """
    if frame.cols < 2:
        raise ValueError("coherence undefined for a single vector")
    g = gram(frame)
    absg = np.abs(g)
    np.fill_diagonal(absg, 0.0)
    off = g.sum(axis=1) - np.diag(g)
    return float(absg.max()), float(np.max(np.abs(off)) / (frame.cols - 1))


def worst_case_coherence(frame: Frame) -> float:
    """Largest |<f_i, f_j>| over distinct column pairs."""
    return coherence(frame)[0]


def average_coherence(frame: Frame) -> float:
    """max_i |sum_{j != i} <f_i, f_j>| scaled by 1/(N-1)."""
    return coherence(frame)[1]


def spectral_norm(frame: Frame, tol: float = 1e-10, max_iter: int = 200_000) -> float:
    """Largest singular value of the frame matrix.

    Runs power iteration on the smaller of F F^H and F^H F with a seeded
    random start, stopping once successive Rayleigh quotients agree to a
    fraction of ``tol``.  For a unit-norm tight frame the square of the
    result equals N/M.

    Parameters
    ----------
    frame : Frame
    tol : float
        Target relative accuracy; must be positive.
    max_iter : int
        Safety cap; a warning is emitted if it is reached.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = frame.data
    m, n = a.shape
    b = a @ a.conj().T if m <= n else a.conj().T @ a
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(b.shape[0])
    if np.iscomplexobj(b):
        v = v + 1j * rng.standard_normal(b.shape[0])
    v /= np.linalg.norm(v)
    lam_prev = -1.0
    lam = 0.0
    for _ in range(max_iter):
        w = b @ v
        lam = float(np.real(np.vdot(v, w)))  # Rayleigh quotient; v is unit
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam - lam_prev) <= 0.25 * tol * abs(lam):
            break
        lam_prev = lam
    else:
        warnings.warn(
            f"power iteration hit the {max_iter}-step cap before reaching tol={tol}",
            RuntimeWarning,
        )
    return math.sqrt(max(lam, 0.0))


def scp_check(frame: Frame, tol: float = 1e-10) -> CoherenceReport:
    """Coherence report with the two strong-coherence verdicts.

    The first verdict compares mu against 1/(164 ln N) -- natural log, see
    README -- and the second compares nu against mu/sqrt(M).
    """
    mu, nu = coherence(frame)
    sn = spectral_norm(frame, tol)
    scp1 = mu <= 1.0 / (164.0 * math.log(frame.cols))
    scp2 = nu <= mu / math.sqrt(frame.rows)
    return CoherenceReport(mu=mu, nu=nu, spectral_norm=sn, scp1=scp1, scp2=scp2)
