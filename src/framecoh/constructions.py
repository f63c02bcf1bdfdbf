"""The three frame families: normalized Gaussian, random harmonic, code-based.

Every construction is deterministic given its spec (including seeds), and
the Gaussian and harmonic specs expose the regime lo <= M <= hi assumed by
their probabilistic geometry statement (``regime_bounds``) and a
``regime_ok`` flag for it.  The flag is informational, never a precondition.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .frame import Frame
from .gf2m import GF2m, least_irreducible

#: Hard cap on the number of code-frame columns (2^((t+1)m)).
MAX_CODE_COLUMNS = 1 << 24
#: Additional cap on total entries so a build cannot exhaust memory.
MAX_CODE_ENTRIES = 1 << 27

# Entries per row block of `harmonic_frame_from_rows`: 32 rows at N = 2048.
_HARMONIC_BLOCK_ENTRIES = 1 << 16


class _GroupFrame(Frame):
    """Frame whose Gram is fixed by its first row.

    Only the harmonic and code constructions return it: their Gram entry
    <f_a, f_b> depends only on b - a mod N or on a XOR b.  Transforms and
    the file reader build a plain `Frame`, which never has this type.
    """

    __slots__ = ()

    def _group_coherence(self) -> tuple[float, float]:
        # looked up in the module at call time, so perfbench's tracer sees it
        return xor_stationary_coherence(self)


def _check_seed(seed: int) -> None:
    """Reject a negative seed with a message that names it; numpy's
    generator would refuse it only as "expected non-negative integer"."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class GaussianFrameSpec:
    """Normalized Gaussian frame: i.i.d. N(0,1) entries, columns rescaled."""

    rows: int
    cols: int
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1:
            raise ValueError("rows must be >= 1")
        if self.cols < 2:
            raise ValueError("cols must be >= 2")
        _check_seed(self.seed)

    def regime_bounds(self) -> tuple[float, float]:
        """(60 ln N, (N-1)/(4 ln N)): the geometry regime is lo <= M <= hi."""
        ln = math.log(self.cols)
        return 60.0 * ln, (self.cols - 1) / (4.0 * ln)

    def regime_ok(self) -> bool:
        lo, hi = self.regime_bounds()
        return lo <= self.rows <= hi


def build_gaussian(spec: GaussianFrameSpec) -> Frame:
    """Draw the seeded Gaussian matrix and normalize each column.

    One draw with no condition on the norms, normalized in place: a
    column's direction does not depend on its scale, short of float64
    underflow near 1e-154.  The build peaks at about the frame's own bytes.
    """
    rng = np.random.default_rng(spec.seed)
    return Frame._own(rng.standard_normal((spec.rows, spec.cols)))


@dataclass(frozen=True)
class HarmonicFrameSpec:
    """Random harmonic frame: Bernoulli(M/N) row selection from the N-point DFT."""

    dft_size: int
    target_rows: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.target_rows <= self.dft_size:
            raise ValueError("need 1 <= target_rows <= dft_size")
        _check_seed(self.seed)

    def regime_bounds(self) -> tuple[float, float]:
        """(16 ln N, N/3): the geometry regime is lo <= M <= hi."""
        return 16.0 * math.log(self.dft_size), self.dft_size / 3.0

    def regime_ok(self) -> bool:
        lo, hi = self.regime_bounds()
        return lo <= self.target_rows <= hi


def harmonic_frame_from_rows(dft_size: int, rows) -> Frame:
    """Frame built from an explicit set of DFT rows, columns normalized.

    ``rows`` must hold integers (a bool or float array is refused, not
    read as indices); repeats are dropped.  The row-k, column-l entry of
    the non-normalized DFT is exp(2*pi*i*k*l/N); the product k*l is
    reduced mod N in exact integers, 32-bit while (N-1)^2 fits and 64-bit
    beyond, and picks an entry of a table of the N roots of unity, so
    phases stay accurate for large N and only N exponentials are evaluated.
    The |R| x N result is allocated once and filled in blocks of
    max(1, 2^16 // N) rows, each block's products formed, reduced and
    gathered while they are cache-sized, so peak memory is about the
    frame's own bytes.  The result is a group frame (see
    `xor_stationary_coherence`).
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        raise ValueError("row selection must be nonempty")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"row indices must be integers, got dtype {rows.dtype}")
    rows = np.unique(rows)
    if rows[0] < 0 or rows[-1] >= dft_size:
        raise ValueError(f"row indices must lie in [0, {dft_size})")
    # every product k*l is at most (N-1)^2, so the narrowest exact type is known up front
    itype = np.int32 if (dft_size - 1) ** 2 <= np.iinfo(np.int32).max else np.int64
    rows = rows.astype(itype)
    cols = np.arange(dft_size, dtype=itype)
    # every entry has modulus 1, so normalization just divides by sqrt(#rows)
    roots = np.exp(2j * np.pi * cols / dft_size) / math.sqrt(rows.size)
    data = np.empty((rows.size, dft_size), dtype=np.complex128)
    step = max(1, _HARMONIC_BLOCK_ENTRIES // dft_size)
    for start in range(0, rows.size, step):
        idx = np.multiply.outer(rows[start:start + step], cols)
        idx -= idx // dft_size * dft_size  # k*l mod N; floor-divide beats %
        # every index is already in [0, N), so "clip" changes nothing; the
        # default "raise" would make numpy buffer ``out`` and copy it back
        np.take(roots, idx, out=data[start:start + step], mode="clip")
    return _GroupFrame._own(data, normalize=False)


def build_harmonic(spec: HarmonicFrameSpec) -> tuple[Frame, np.ndarray]:
    """Sample the row set, build the frame, and return both.

    An empty Bernoulli selection is resampled with the seed incremented,
    with a warning, until one is nonempty; ``target_rows >= 1`` makes
    p >= 1/N, so even 100 empty draws have probability below e^-100.
    """
    p = spec.target_rows / spec.dft_size
    seed = spec.seed
    while True:
        rng = np.random.default_rng(seed)
        keep = np.flatnonzero(rng.random(spec.dft_size) < p)
        if keep.size:
            return harmonic_frame_from_rows(spec.dft_size, keep), keep
        warnings.warn(
            f"empty harmonic row selection for seed {seed}; retrying with seed {seed + 1}",
            RuntimeWarning,
        )
        seed += 1


@dataclass(frozen=True)
class CodeFrameSpec:
    """2^m x 2^((t+1)m) frame with entries +/- 2^(-m/2) from GF(2^m) traces."""

    m: int
    t: int
    poly: int | None = None  # irreducible modulus; None selects the frozen default

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.t < 1:
            raise ValueError("t must be >= 1")

    @property
    def rows(self) -> int:
        return 1 << self.m

    @property
    def cols(self) -> int:
        return 1 << ((self.t + 1) * self.m)

    def modulus(self) -> int:
        return self.poly if self.poly is not None else least_irreducible(self.m)


def _check_code_columns(spec: CodeFrameSpec) -> None:
    """Refuse a code frame with more than `MAX_CODE_COLUMNS` columns."""
    if spec.cols > MAX_CODE_COLUMNS:
        raise ValueError(
            f"code frame needs {spec.cols} columns; guard allows at most {MAX_CODE_COLUMNS}"
        )


def _code_factors(spec: CodeFrameSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two +/-1 factors (H, S) of a code frame, as float64 arrays.

    H[x, a] = (-1)^Tr(a*x) is 2^m x 2^m, and S[beta, x] =
    (-1)^Tr(sum_{i>=1} alpha_i * x^(2^i + 1)) is 2^(tm) x 2^m with
    beta = sum_{i>=1} alpha_i * 2^((i-1)m).  The frame entry at row x and
    column alpha_0 + 2^m * beta is 2^(-m/2) * H[x, alpha_0] * S[beta, x].
    Both take O(N) memory, with N = 2^((t+1)m) the frame's column count.
    """
    field = GF2m(spec.m, spec.modulus())
    size = field.size
    bil = field.bilinear_trace_table  # bil[a, b] = Tr(a*b) = bil[b, a]

    # bits over axes (alpha_t, ..., alpha_1, x): XOR of the tables
    # Tr(alpha_i * x^(2^i + 1))
    x = np.arange(size, dtype=np.int64)
    bits = np.uint8(0)
    for i in range(1, spec.t + 1):
        shape = [1] * (spec.t + 1)
        shape[spec.t - i] = shape[spec.t] = size
        bits = bits ^ bil[:, field.pow_2k_plus_1(x, i)].reshape(shape)
    s = np.where(bits, -1.0, 1.0).reshape(-1, size)
    return np.where(bil, -1.0, 1.0), s


def build_code_frame(spec: CodeFrameSpec) -> Frame:
    """Expand the two +/-1 factors of a code frame into its dense matrix.

    Rows are indexed by the field elements x = 0 .. 2^m - 1; columns by
    (t+1)-tuples alpha encoded as c = sum_i alpha_i * 2^(i*m), so alpha_0
    varies fastest.  The sign of entry (x, c) is
    (-1)^Tr(alpha_0*x + sum_{i>=1} alpha_i * x^(2^i + 1)), written as the
    product H[x, alpha_0] * S[beta, x] of the factors of `_code_factors`;
    each entry is exactly +/- 2^(-m/2).  The result is a group frame (see
    `xor_stationary_coherence`).  `code_frame_geometry` reads the same
    geometry from the factors without building this matrix.
    """
    _check_code_columns(spec)
    n_entries = spec.rows * spec.cols
    if n_entries > MAX_CODE_ENTRIES:
        raise ValueError(
            f"code frame needs {n_entries} entries; guard allows at most {MAX_CODE_ENTRIES}"
        )
    h, s = _code_factors(spec)
    size = spec.rows
    data = np.empty((size, s.shape[0], size))
    np.multiply(s.T[:, :, None], (2.0 ** (-spec.m / 2.0) * h)[:, None, :], out=data)
    del h, s  # the frame takes over data; drop the factors before its checks
    # column norms: 2^m equal squares summing to 1 up to one rounding of scale^2
    return _GroupFrame._own(data.reshape(size, spec.cols), normalize=False)


def code_frame_geometry(spec: CodeFrameSpec) -> tuple[float, float, float]:
    """(||F||_2^2, mu, nu) of a code frame from its two factors, exactly.

    With F[x, alpha_0 + 2^m beta] = 2^(-m/2) H[x, alpha_0] S[beta, x] (see
    `_code_factors`), the first Gram row is w = 2^(-m) vec(S H), with
    alpha_0 fastest, and the frame operator is F F^T =
    2^(-m) (S^T S) o (H H^T), an M x M matrix whose top eigenvalue is
    ||F||_2^2.  Both products are of +/-1 matrices, so every entry is an
    integer that float64 holds exactly whatever the summation order or
    thread count; scaling by 2^(-m) is exact too.  mu and nu come from w as
    in `xor_stationary_coherence`.  The M x N frame is never formed, so
    time and memory are O(N M) and O(N).  Guarded by `MAX_CODE_COLUMNS`.
    """
    _check_code_columns(spec)
    h, s = _code_factors(spec)
    scale = 2.0 ** -spec.m
    op = (s.T @ s) * (h @ h.T)
    op *= scale
    w = s @ h
    del s  # so at most two N-entry arrays, w and then |w|, are live at once
    w *= scale
    return (float(np.linalg.eigvalsh(op)[-1]), *_row_coherence(w.ravel()))


def _row_coherence(w: np.ndarray) -> tuple[float, float]:
    """(mu, nu) of a group frame from its first Gram row ``w``.

    Every Gram row is a permutation of w, so mu is the largest |w(c)| over
    c != 0, and every row sums to sum_{c != 0} w(c); nu is its modulus over
    N - 1.
    """
    mu = float(np.max(np.abs(w[1:])))
    nu = float(abs(w.sum() - w[0]) / (w.size - 1))
    return mu, nu


def xor_stationary_coherence(frame: Frame) -> tuple[float, float]:
    """(mu, nu) of a group frame from the first row of its Gram.

    The frame must be one whose Gram entry <f_a, f_b> is w(b - a mod N), as
    for a harmonic frame (the cyclic group Z_N), or w(a XOR b), as for a
    code frame (the group (Z_2)^((t+1)m)).  Then w = F^H f_0 is the first
    Gram row, computed with one float64 matrix-vector product, and mu and
    nu follow as in `code_frame_geometry`, which gets the same row of a
    code frame exactly from its factors.  The N x N Gram is never formed.
    On any other frame the values are those of row 0 only.
    """
    return _row_coherence(frame.data.T @ frame.data[:, 0].conj())
