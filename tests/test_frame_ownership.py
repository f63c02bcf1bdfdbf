"""Who owns a frame's array: copies, read-only storage, single-pass checks.

`Frame(data)` copies the caller's array; the package's builders, transforms
and reader hand over the array they built (`Frame._own`).  The memory guards
use tracemalloc, to which numpy reports its allocations: each bounds the
peak of one call by a multiple of the built frame's bytes.
"""
import tracemalloc

import numpy as np
import pytest

from framecoh import (
    CodeFrameSpec,
    FlipPattern,
    Frame,
    GaussianFrameSpec,
    HarmonicFrameSpec,
    WigglePattern,
    apply_flip,
    apply_wiggle,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    harmonic_frame_from_rows,
    read_frame,
    spectral_norm,
    write_frame,
)
from framecoh.experiments import run_gaussian_geometry
from framecoh.frame import (
    _BLOCK_ENTRIES,
    _column_norms,
    _GroupFrame,
    _mu_by_blocks,
    _squared_norms,
)

ALL_BUT_ONE_ROW = [r for r in range(2048) if r != 862]


def _peak_bytes(fn):
    """(result, peak bytes traced while ``fn`` ran, above what was live before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemory:
    def test_code_frame_built_once(self):
        frame, peak = _peak_bytes(lambda: build_code_frame(CodeFrameSpec(6, 2)))
        assert peak <= 1.25 * frame.data.nbytes

    def test_harmonic_frame_built_once(self):
        frame, peak = _peak_bytes(lambda: harmonic_frame_from_rows(2048, ALL_BUT_ONE_ROW))
        assert peak <= 1.05 * frame.data.nbytes

    def test_gaussian_frame_built_once(self):
        frame, peak = _peak_bytes(lambda: build_gaussian(GaussianFrameSpec(512, 2048, 1)))
        assert peak <= 1.15 * frame.data.nbytes

    def test_mu_holds_one_gram_block(self):
        frame = build_gaussian(GaussianFrameSpec(512, 2048, 1))
        _, peak = _peak_bytes(lambda: _mu_by_blocks(frame))
        assert peak <= 1.1 * _BLOCK_ENTRIES * frame.data.itemsize

    def test_gaussian_trials_hold_one_frame(self):
        # the first trial's frame must be gone before the second is drawn
        _, peak = _peak_bytes(lambda: run_gaussian_geometry(512, 2048, trials=2))
        assert peak <= 512 * 2048 * 8 + 1.1 * _BLOCK_ENTRIES * 8

    def test_spectral_norm_copies_no_adjoint(self):
        frame = harmonic_frame_from_rows(2048, ALL_BUT_ONE_ROW)
        _, peak = _peak_bytes(lambda: spectral_norm(frame))
        assert peak <= 0.1 * frame.data.nbytes


class TestOwnership:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_constructor_copies_user_array(self, normalize):
        arr = np.eye(4)
        frame = Frame(arr, normalize=normalize)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, frame.data)
        arr[0, 0] = 5.0
        assert frame.data[0, 0] == 1.0

    def test_builders_transforms_and_reader_are_read_only(self, tmp_path):
        gauss = build_gaussian(GaussianFrameSpec(8, 16, 0))
        frames = [
            gauss,
            build_harmonic(HarmonicFrameSpec(64, 8, 0))[0],
            harmonic_frame_from_rows(16, [1, 2, 5]),
            build_code_frame(CodeFrameSpec(3, 1)),
            apply_flip(gauss, FlipPattern(np.resize([1.0, -1.0], 16))),
            apply_wiggle(gauss, WigglePattern(np.exp(1j * np.arange(16.0)))),
        ]
        for binary in (False, True):
            path = tmp_path / f"g{int(binary)}.frame"
            write_frame(path, gauss, binary=binary)
            frames.append(read_frame(path))
        for frame in frames:
            assert not frame.data.flags.writeable
            with pytest.raises(ValueError):
                frame.data[0, 0] = 0.0

    def test_transforms_share_no_memory_with_input(self):
        frame = build_gaussian(GaussianFrameSpec(8, 16, 1))
        flipped = apply_flip(frame, FlipPattern(np.ones(16)))
        wiggled = apply_wiggle(frame, WigglePattern(np.ones(16, dtype=complex)))
        assert np.array_equal(flipped.data, frame.data)
        assert not np.shares_memory(flipped.data, frame.data)
        assert not np.shares_memory(wiggled.data, frame.data)

    def test_own_keeps_subclass(self):
        assert type(_GroupFrame._own(np.eye(2), normalize=False)) is _GroupFrame

    def test_own_normalizes_in_place_like_constructor(self):
        arr = np.random.default_rng(5).standard_normal((6, 9))
        expected = Frame(arr).data
        owned = Frame._own(arr)
        assert owned.data is arr
        assert np.array_equal(owned.data, expected)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's own overflow/NaN notes
class TestChecks:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize(
        "bad", [complex(0.0, np.nan), np.inf, -np.inf, complex(np.inf, 0.0), np.nan]
    )
    def test_nonfinite_entry_message(self, normalize, bad):
        arr = np.eye(3, dtype=complex if isinstance(bad, complex) else float)
        arr[1, 2] = bad
        with pytest.raises(ValueError, match=r"^frame entries must be finite$"):
            Frame(arr, normalize=normalize)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_overflowing_norm_rejected_when_normalizing(self, dtype):
        arr = np.array([[1.0, 1e200], [0.0, 1.0]], dtype=dtype)
        with pytest.raises(ValueError, match=r"^column 1 has a norm that overflows float64$"):
            Frame(arr)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_overflowing_norm_rejected_when_validating(self, dtype):
        arr = np.array([[1.0, 1e200], [0.0, 1.0]], dtype=dtype)
        with pytest.raises(ValueError, match=r"^column 1 has norm inf; not unit within 1e-10$"):
            Frame(arr, normalize=False)

    def test_off_unit_message_reports_linalg_norm(self):
        arr = np.eye(3)
        arr[:, 1] *= 1.5
        with pytest.raises(ValueError, match=r"^column 1 has norm 1\.5; not unit within 1e-10$"):
            Frame(arr, normalize=False)

    def test_fortran_ordered_input_validated(self):
        arr = np.asfortranarray(np.eye(4, dtype=complex) * 1j)
        assert np.array_equal(Frame._own(arr, normalize=False).data, arr)


def _spelled_out_squared_norms(arr):
    """Per-column sums of re^2, then of im^2, each by einsum, then added."""
    if not np.iscomplexobj(arr):
        return np.einsum("ij,ij->j", arr, arr)
    re, im = arr.real, arr.imag
    return np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)


_RNG_ARR = np.random.default_rng(11).standard_normal((2, 37, 53))
SQUARED_NORM_INPUTS = {
    "real": _RNG_ARR[0],
    "complex-c-order": _RNG_ARR[0] + 1j * _RNG_ARR[1],
    "complex-fortran": np.asfortranarray(_RNG_ARR[0] + 1j * _RNG_ARR[1]),
    "complex-column-slice": (_RNG_ARR[0] + 1j * _RNG_ARR[1])[:, 1::3],
    "harmonic-frame": harmonic_frame_from_rows(512, range(0, 512, 5)).data,
}


@pytest.mark.parametrize("name", sorted(SQUARED_NORM_INPUTS))
def test_squared_norms_bit_equal_to_spelled_out_sums(name):
    arr = SQUARED_NORM_INPUTS[name]
    got = _squared_norms(arr)
    want = _spelled_out_squared_norms(arr)
    assert got.dtype == np.float64 and got.shape == (arr.shape[1],)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _draws(shape, count=20):
    rng = np.random.default_rng(29)
    return [rng.standard_normal(shape) for _ in range(count)]


# each layout over several draws: where np.linalg.norm sums pairwise, the
# bits of a row-order sum differ in some but not all of them
COLUMN_NORM_INPUTS = {
    "real-c-order": _draws((37, 53)),
    "real-one-row": _draws((1, 9)),
    "real-two-columns": _draws((100, 2)),
    "real-one-column": _draws((100, 1)),
    "real-row-slice": [a[::2] for a in _draws((100, 3))],
    "real-fortran": [np.asfortranarray(a) for a in _draws((37, 53))],
    "real-column-slice": [a[:, ::2] for a in _draws((37, 53))],
    "complex-c-order": [a + 1j * b for a, b in zip(_draws((37, 53)), _draws((37, 53))[::-1])],
    "complex-fortran": [np.asfortranarray(a + 1j * a[::-1]) for a in _draws((37, 53))],
}


@pytest.mark.parametrize("name", sorted(COLUMN_NORM_INPUTS))
def test_column_norms_bit_equal_to_linalg_norm(name):
    for arr in COLUMN_NORM_INPUTS[name]:
        got = _column_norms(arr)
        assert np.array_equal(got.view(np.int64), np.linalg.norm(arr, axis=0).view(np.int64))


def _complex_gaussian(m, n, seed):
    rng = np.random.default_rng(seed)
    return Frame(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


# spectral_norm values, bit for bit, as computed when F^H was still a copy
FROZEN_SPECTRAL_NORMS = {
    **{
        f"harmonic-1024-64-seed{s}": (lambda s=s: build_harmonic(HarmonicFrameSpec(1024, 64, s))[0], h)
        for s, h in enumerate([
            "0x1.1ec70124e98f8p+2",
            "0x1.0aa07bd7b748ap+2",
            "0x1.1c01aa03be896p+2",
            "0x1.fffffffffffffp+1",
            "0x1.1c01aa03be896p+2",
            "0x1.c1982b2ece47bp+1",
        ])
    },
    "harmonic-256-40": (lambda: build_harmonic(HarmonicFrameSpec(256, 40, 0))[0],
                        "0x1.47f144fe17f9fp+1"),
    "harmonic-97-3": (lambda: build_harmonic(HarmonicFrameSpec(97, 3, 0))[0],
                      "0x1.3b29d7d635662p+2"),
    "harmonic-2048-2047-rows": (lambda: harmonic_frame_from_rows(2048, ALL_BUT_ONE_ROW),
                                "0x1.0010018028047p+0"),
    "complex-gaussian-64x256": (lambda: _complex_gaussian(64, 256, 0), "0x1.7a39c6a6e70b6p+1"),
    "complex-gaussian-300x100": (lambda: _complex_gaussian(300, 100, 0), "0x1.89bdecc745dccp+0"),
    "code-4-1": (lambda: build_code_frame(CodeFrameSpec(4, 1)), "0x1.fffffffffffffp+1"),
    "code-5-1": (lambda: build_code_frame(CodeFrameSpec(5, 1)), "0x1.6a09e667f3bccp+2"),
    "code-5-2": (lambda: build_code_frame(CodeFrameSpec(5, 2)), "0x1.fffffffffffffp+4"),
    "gaussian-128x512": (lambda: build_gaussian(GaussianFrameSpec(128, 512, 0)),
                         "0x1.7ab034ce621b4p+1"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_SPECTRAL_NORMS))
def test_spectral_norm_bits_frozen(name):
    make, expected = FROZEN_SPECTRAL_NORMS[name]
    assert spectral_norm(make()).hex() == expected
