"""Unit-norm frames and their coherence parameters.

A frame is stored as a dense M x N matrix whose columns are the frame
elements.  All quantities derived here (worst-case coherence, average
coherence, spectral norm) are pure functions of the frame; instances are
immutable after construction and safe to share between threads.
``Frame(data)`` stores a copy of ``data``; the package's own builders,
transforms and file reader hand over the array they built instead, so each
frame is built once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: Columns must carry unit Euclidean norm within this tolerance.
UNIT_NORM_TOL = 1e-10

# Fixed seed for the Lanczos start vector, so repeated calls on the same
# frame return identical values.
_START_SEED = 0x5EED_F0A3

# Gram entries per block of the generic mu kernel: B = max(1, this // N)
# rows, so a block holds at most this many entries (256 rows at N = 2048).
_BLOCK_ENTRIES = 1 << 19


class Frame:
    """M x N matrix with unit-norm columns.

    ``Frame(data)`` copies ``data``, so the caller may keep writing to its
    own array.  The package's builders, transforms and file reader instead
    hand over the array they have just built through `Frame._own`, which
    runs the same checks without the copy.  Either way the stored array is
    read-only.

    Parameters
    ----------
    data : array_like
        Matrix whose columns are the frame elements.  Real input is stored
        as float64, complex input as complex128.
    normalize : bool, optional
        If True (default), every column is divided by its norm as
        ``np.linalg.norm(data, axis=0)`` gives it, bit for bit; exactly
        zero columns are rejected.  If False, the columns are validated
        against the unit-norm tolerance but left bit-for-bit untouched,
        which is what norm-preserving transforms (flips, wiggles) and the
        file reader use.  Neither mode forms a temporary the size of the
        frame for real input in C order; see `_column_norms`.
    """

    __slots__ = ("data",)

    def __init__(self, data, normalize: bool = True):
        self._take(np.array(data, copy=True), normalize)

    @classmethod
    def _own(cls, arr: np.ndarray, normalize: bool = True):
        """Frame of type ``cls`` that takes over ``arr`` without copying it.

        For arrays the package has just built and no one else holds: the
        checks of ``Frame(arr, normalize)`` run on ``arr`` itself, which is
        normalized in place when ``normalize`` is True and then made
        read-only.
        """
        frame = cls.__new__(cls)
        frame._take(arr, normalize)
        return frame

    def _take(self, arr: np.ndarray, normalize: bool) -> None:
        """Check ``arr``, normalize it in place if asked, and store it read-only.

        Finiteness is read off the column norms, since a NaN or inf entry
        makes its column's norm non-finite; only then are the entries
        scanned.  The normalize step divides by `_column_norms`, which has
        the bits of ``np.linalg.norm`` and forms no frame-sized temporary
        for real input whose rows are contiguous (what the builders make);
        other layouts pay np.linalg.norm's squared copy to keep its bits.
        In validate-only mode the squared norms are summed from the real
        and imaginary views, with no frame-sized temporary on any layout;
        their bits only meet the tolerance test.
        """
        if arr.ndim != 2:
            raise ValueError(f"frame data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"frame must be at least 1 x 1, got shape {arr.shape}")
        cplx = np.iscomplexobj(arr)
        arr = arr.astype(np.complex128 if cplx else np.float64, copy=False)
        if normalize:
            norms = _column_norms(arr)
        else:
            norms = np.sqrt(_squared_norms(arr))
        finite = np.isfinite(norms)
        if not finite.all() and not np.isfinite(arr).all():
            raise ValueError("frame entries must be finite")
        if normalize:
            if not finite.all():  # finite entries whose squares overflow
                bad = int(np.flatnonzero(~finite)[0])
                raise ValueError(f"column {bad} has a norm that overflows float64")
            if np.any(norms == 0.0):
                bad = int(np.flatnonzero(norms == 0.0)[0])
                raise ValueError(f"column {bad} is exactly zero and cannot be normalized")
            np.divide(arr, norms, out=arr)
        elif np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):  # an overflowed norm lands here
            # the message reports the norms as np.linalg.norm gives them
            norms = np.linalg.norm(arr, axis=0)
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(
                f"column {bad} has norm {float(norms[bad])!r}; "
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

    def __repr__(self):
        return f"Frame({self.rows}x{self.cols}, {self.scalar_field})"


def _squared_norms(arr: np.ndarray) -> np.ndarray:
    """Squared column norms with no frame-sized temporary.

    For complex input, the per-column sums of re^2 and of im^2 each run
    down the rows in order and are then added, so the bits do not depend
    on the layout.  When each row is contiguous (C order, as the builders
    make) one einsum reads both parts in one pass, through an (M, N, 2)
    float64 view of the interleaved entries.  Otherwise (the reader's
    Fortran order, column slices) that pass would step two floats at a
    time, and one einsum per part view is faster.
    """
    if not np.iscomplexobj(arr):
        return np.einsum("ij,ij->j", arr, arr)
    if arr.strides[1] != arr.itemsize:
        re, im = arr.real, arr.imag
        return np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
    v = arr[..., None].view(np.float64)
    s = np.einsum("ijk,ijk->jk", v, v)
    return s[:, 0] + s[:, 1]


def _column_norms(arr: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(arr, axis=0)``, bit for bit, with no frame-sized
    temporary where the bits allow it.

    np.linalg.norm squares every entry into a new array, then sums that
    array down its columns.  For real input whose rows are contiguous and
    which has two or more columns (C order, as the builders make) the sum
    adds each column's squares in row order, as the einsum of
    `_squared_norms` does, so its square root is returned.  Every other
    layout keeps np.linalg.norm, whose order the einsum does not match: a
    contiguous column (Fortran order, or a single column) is summed
    pairwise, and complex input is summed as re^2 + im^2 per entry, where
    `_squared_norms` adds the column sums of the two parts.
    """
    if np.iscomplexobj(arr) or arr.strides[1] != arr.itemsize or arr.shape[1] < 2:
        return np.linalg.norm(arr, axis=0)
    return np.sqrt(_squared_norms(arr))


class _GroupFrame(Frame):
    """Frame whose Gram is fixed by its first row.

    Only the harmonic and code constructions return it: their Gram entry
    <f_a, f_b> depends only on b - a mod N or on a XOR b.  Transforms and
    the file reader build a plain `Frame`, which never has this type.
    """

    __slots__ = ()


@dataclass(frozen=True)
class CoherenceReport:
    """Geometry summary of a frame plus the two strong-coherence verdicts."""

    mu: float
    nu: float
    spectral_norm: float
    scp1: bool
    scp2: bool


def gram(frame: Frame, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Inner products of the columns ``start:stop`` with the columns ``start:``.

    Returns F[:, start:stop]^H F[:, start:], a block of rows of the Gram
    F^H F whose entry (i, j) is <f_{start+i}, f_{start+j}>.  With the default
    range it is the whole N x N Gram, conjugate-symmetric with a unit
    diagonal (up to rounding) for unit-norm frames.
    """
    a = frame.data
    return a[:, start:stop].conj().T @ a[:, start:]


def coherence(frame: Frame) -> tuple[float, float]:
    """Worst-case and average coherence (mu, nu).

    mu is the largest |<f_i, f_j>| over distinct column pairs; nu is
    max_i |sum_{j != i} <f_i, f_j>| scaled by 1/(N-1).  Harmonic and code
    frames as constructed are group frames and take the O(MN) path of
    `constructions.xor_stationary_coherence`, which reads both values off
    the first Gram row.  Every other frame, including one read from a file
    or produced by a flip or wiggle, gets mu as a running max over the
    upper block triangle of the Gram, one `gram` block of B rows at a time
    with B = max(1, 2^19 // N), so no N x N array is formed.  Only one
    block is live at a time: each is freed before the next is formed, and
    a real block's moduli are taken in place.  Its nu is read off
    F^H (F 1), whose entry i is the whole Gram row sum sum_j <f_i, f_j>,
    minus the squared norm of f_i: O(MN) time and memory.
    `worst_case_coherence` and `average_coherence` each run only the
    kernel of the value they return.
    """
    group = _group_coherence(frame)
    if group is not None:
        return group
    # nu first: its small arrays are then freed before the Gram blocks come,
    # rather than placed in the heap the blocks leave free (measured, in the
    # other order, as an 8 MiB higher peak RSS over a 512 x 2048 op stream)
    nu = _nu_from_row_sums(frame)
    return _mu_by_blocks(frame), nu


def _group_coherence(frame: Frame) -> tuple[float, float] | None:
    """(mu, nu) of a group frame, or None for any other frame."""
    if frame.cols < 2:
        raise ValueError("coherence undefined for a single vector")
    if not isinstance(frame, _GroupFrame):
        return None
    # imported here because constructions imports this module; called
    # through the module so that perfbench's tracer sees the call
    from . import constructions

    return constructions.xor_stationary_coherence(frame)


def _mu_by_blocks(frame: Frame) -> float:
    """mu as a running max over upper-triangle Gram blocks of B rows."""
    n = frame.cols
    step = max(1, _BLOCK_ENTRIES // n)
    in_place = not frame.is_complex  # a complex block's moduli need a real array
    mu = 0.0
    for start in range(0, n, step):
        block = gram(frame, start, start + step)
        np.fill_diagonal(block, 0.0)  # entry (i, i) of a block is <f, f>
        mu = max(mu, float(np.abs(block, out=block if in_place else None).max()))
        del block  # freed before the next block is formed
    return mu


def _nu_from_row_sums(frame: Frame) -> float:
    """nu from the Gram row sums F^H (F 1), less each squared norm: O(MN)."""
    a = frame.data
    row_sums = (a.sum(axis=1).conj() @ a).conj()
    return float(np.max(np.abs(row_sums - _squared_norms(a))) / (frame.cols - 1))


def worst_case_coherence(frame: Frame) -> float:
    """Largest |<f_i, f_j>| over distinct column pairs; nu is not computed."""
    group = _group_coherence(frame)
    return _mu_by_blocks(frame) if group is None else group[0]


def average_coherence(frame: Frame) -> float:
    """max_i |sum_{j != i} <f_i, f_j>| scaled by 1/(N-1), in O(MN) with no
    Gram block."""
    group = _group_coherence(frame)
    return _nu_from_row_sums(frame) if group is None else group[1]


def spectral_norm(frame: Frame, tol: float = 1e-10) -> float:
    """Largest singular value of the frame matrix.

    Runs Lanczos with full reorthogonalisation on the smaller of F F^H and
    F^H F, applied matrix-free as v -> F (F^H v) (or F^H (F v) when M > N),
    so neither product is formed.  F^H u is evaluated as conj(F^T conj(u)),
    so F^H is never copied either.  The start vector is drawn from a fixed
    seed, so repeated calls on the same frame return identical values.
    After step j, let y be the computed top unit eigenvector of the Lanczos
    tridiagonal T_j, theta = y^T T_j y and y_j its last component: the Ritz
    pair has residual norm at most ||T_j y - theta y|| + beta_j |y_j| (the
    first term is rounding-level), so an eigenvalue of F F^H lies within
    that distance of theta.  The iteration stops once that residual is at
    most ``tol * theta``, or when the Krylov space reaches its full
    dimension min(M, N); there is no other step cap.  With probability 1
    over the random start the eigenvalue so pinned is the largest one (a
    start orthogonal to the top eigenvector is a measure-zero event), which
    theta never exceeds.  For a unit-norm tight frame the square of the
    result equals N/M.

    Parameters
    ----------
    frame : Frame
    tol : float
        Relative bound on the residual of the squared norm; must be positive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = frame.data
    m, n = a.shape

    def adjoint(u):
        return (a.T @ u.conj()).conj()

    dim = min(m, n)
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(dim)
    if frame.is_complex:
        v = v + 1j * rng.standard_normal(dim)
    basis = [v / np.linalg.norm(v)]
    alphas: list[float] = []
    betas: list[float] = []
    while True:
        q = np.array(basis)
        w = adjoint(a @ basis[-1]) if m > n else a @ adjoint(basis[-1])
        alphas.append(float(np.real(np.vdot(basis[-1], w))))
        for _ in range(2):  # classical Gram-Schmidt twice keeps the basis orthonormal
            w -= q.T @ (q.conj() @ w)
        beta = float(np.linalg.norm(w))
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        # top eigenvector y of T by inverse iteration just above its largest
        # eigenvalue (eigh's threaded back-transform stalls on shared cores)
        shifted = t - float(np.linalg.eigvalsh(t)[-1]) * (1.0 + 2.0 ** -40) * np.eye(t.shape[0])
        y = np.ones(t.shape[0])
        for _ in range(2):
            y = np.linalg.solve(shifted, y)
            y /= np.linalg.norm(y)
        ty = t @ y
        theta = float(y @ ty)
        # residual norm of the Ritz pair (theta, Q y) of the operator
        if np.linalg.norm(ty - theta * y) + beta * abs(y[-1]) <= tol * theta or len(basis) == dim:
            return math.sqrt(max(theta, 0.0))
        betas.append(beta)
        basis.append(w / beta)


def scp1_bound(n: int) -> float:
    """1/(164 ln N), natural log (see README): SCP-1 is mu <= this."""
    return 1.0 / (164.0 * math.log(n))


def scp2_bound(mu: float, m: int) -> float:
    """mu/sqrt(M): SCP-2 is nu <= this."""
    return mu / math.sqrt(m)


def scp_check(frame: Frame) -> CoherenceReport:
    """Coherence report with the two strong-coherence verdicts (SCP-1, SCP-2).

    mu and nu come from `coherence`, so no frame forms the N x N Gram.
    """
    mu, nu = coherence(frame)
    sn = spectral_norm(frame)
    scp1 = mu <= scp1_bound(frame.cols)
    scp2 = nu <= scp2_bound(mu, frame.rows)
    return CoherenceReport(mu=mu, nu=nu, spectral_norm=sn, scp1=scp1, scp2=scp2)
