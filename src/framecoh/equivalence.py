"""Wiggling/flipping equivalence and average-coherence reduction.

Right-multiplying a frame by a diagonal of unimodular entries ("wiggling",
or "flipping" when the diagonal is +/-1) preserves column norms, worst-case
coherence, and the spectral norm, but not the average coherence -- which is
exactly why searching the flipping class for small average coherence is
worthwhile.  This module has the linear-time greedy search plus an
exhaustive oracle for small N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import Frame, gram

#: Exhaustive search over 2^(N-1) sign patterns is refused above this N.
MAX_ORACLE_COLS = 24

#: Sign patterns the exhaustive oracle scores per block; a power of two.
_ORACLE_CHUNK = 1 << 11


@dataclass(frozen=True)
class FlipPattern:
    """Length-N vector of +/-1 column signs; applying it twice is the identity."""

    signs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.signs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("signs must be a 1-D vector")
        if not np.all(np.isin(arr, (-1.0, 1.0))):
            raise ValueError("signs must be exactly +1 or -1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "signs", arr)

    def __len__(self):
        return self.signs.size

    def to_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @classmethod
    def from_string(cls, text: str) -> "FlipPattern":
        if not text or any(c not in "+-" for c in text):
            raise ValueError(f"pattern must be a nonempty string over '+-': {text!r}")
        return cls(np.array([1.0 if c == "+" else -1.0 for c in text]))


@dataclass(frozen=True)
class WigglePattern:
    """Length-N vector of unimodular complex phases."""

    phases: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phases, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("phases must be a 1-D vector")
        if np.any(np.abs(np.abs(arr) - 1.0) > 1e-12):
            raise ValueError("phases must have modulus 1 within 1e-12")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "phases", arr)

    def __len__(self):
        return self.phases.size


def apply_wiggle(frame: Frame, pattern: WigglePattern) -> Frame:
    """Multiply column n by phases[n]; the result is wiggling equivalent."""
    if len(pattern) != frame.cols:
        raise ValueError(f"pattern length {len(pattern)} != frame columns {frame.cols}")
    return Frame._own(frame.data * pattern.phases[None, :], normalize=False)


def apply_flip(frame: Frame, pattern: FlipPattern) -> Frame:
    """Multiply column n by signs[n].  Exact: +/-1 scaling never rounds."""
    if len(pattern) != frame.cols:
        raise ValueError(f"pattern length {len(pattern)} != frame columns {frame.cols}")
    return Frame._own(frame.data * pattern.signs[None, :], normalize=False)


def linear_time_flip(frame: Frame) -> tuple[Frame, FlipPattern]:
    """Greedy O(MN) sign selection that keeps the running column sum short.

    The first element is kept; element n is kept iff
    ||sum_{i<n} g_i + f_n|| <= ||sum_{i<n} g_i - f_n||, i.e. ties keep.
    Comparing the squared norms reduces to the sign of Re<sum, f_n>, which
    is what is evaluated.  Signs stay +/-1 for complex frames too.
    """
    a = frame.data
    n = frame.cols
    signs = np.ones(n)
    running = a[:, 0].copy()
    for j in range(1, n):
        f = a[:, j]
        if np.real(np.vdot(running, f)) <= 0.0:
            running += f
        else:
            signs[j] = -1.0
            running -= f
    pattern = FlipPattern(signs)
    return apply_flip(frame, pattern), pattern


def exhaustive_flip_oracle(frame: Frame) -> tuple[Frame, FlipPattern, float]:
    """Minimum average coherence over the whole flipping class.

    Enumerates the 2^(N-1) sign patterns with the first sign fixed to +1
    (a global sign change leaves the average coherence untouched) and
    returns the minimizer; exact ties resolve to the lowest pattern index,
    so the result is deterministic.  Patterns are scored in vectorised
    blocks against the Gram matrix: with D = diag(s),
    nu(FD) = max_i |s_i (G s)_i - G_ii| / (N-1).

    Pattern p has s_j = -1 iff bit j-1 of p is set.  A block scores
    ``_ORACLE_CHUNK`` consecutive patterns (capped at 2^(N-1)) from an
    N x chunk sign table whose column c is pattern start + c: rows j with
    2^(j-1) < chunk alternate in runs of 2^(j-1) and are the same in every
    block, and each higher row is one constant per block.

    Guarded at N <= 24; this is the slow reference the linear-time search
    is measured against.
    """
    n = frame.cols
    if n < 2:
        raise ValueError("coherence undefined for a single vector")
    if n > MAX_ORACLE_COLS:
        raise ValueError(
            f"exhaustive flip search is guarded at N <= {MAX_ORACLE_COLS}, got N = {n}"
        )
    g = gram(frame)
    diag = np.real(np.diag(g))[:, None]
    total = 1 << (n - 1)
    chunk = min(_ORACLE_CHUNK, total)
    low = chunk.bit_length()  # rows 1 .. low-1 alternate inside a block
    signs = np.ones((n, chunk), dtype=g.dtype)
    for j in range(1, low):
        signs[j].reshape(-1, 2, 1 << (j - 1))[:, 1, :] = -1.0
    best_nu = np.inf
    best_index = -1
    for start in range(0, total, chunk):
        for j in range(low, n):
            signs[j] = -1.0 if (start >> (j - 1)) & 1 else 1.0
        v = g @ signs  # v[i, p] = sum_j G[i, j] s_j
        v *= signs
        v -= diag
        nus = np.maximum.reduce(np.abs(v, out=v).real, axis=0)
        nus /= n - 1
        k = int(np.argmin(nus))  # first minimum: lowest index within the block
        if nus[k] < best_nu:
            best_nu = float(nus[k])
            best_index = start + k
    signs = [1.0] + [-1.0 if (best_index >> (j - 1)) & 1 else 1.0 for j in range(1, n)]
    pattern = FlipPattern(np.array(signs))
    return apply_flip(frame, pattern), pattern, best_nu
