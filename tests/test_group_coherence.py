"""Coherence kernels against the dense N x N Gram: constructed harmonic and
code frames get mu and nu from the first Gram row, every other frame from
Gram blocks over the upper block triangle (mu) and F^H (F 1) (nu)."""
import math
from fractions import Fraction

import numpy as np
import pytest

import framecoh.constructions
import framecoh.frame
from framecoh import (
    CodeFrameSpec,
    Frame,
    HarmonicFrameSpec,
    WigglePattern,
    apply_wiggle,
    average_coherence,
    build_code_frame,
    build_harmonic,
    coherence,
    gram,
    harmonic_frame_from_rows,
    linear_time_flip,
    read_frame,
    scp_check,
    worst_case_coherence,
    write_frame,
)

HARMONIC_ROWS = {
    "with-0": (64, [0, 3, 7, 20]),
    "without-0": (64, [1, 3, 7, 20]),
    "single-0": (64, [0]),
    "single-5": (64, [5]),
    "full-dft": (32, list(range(32))),
    "drop-one": (128, [r for r in range(128) if r != 9]),
    "97-3": (97, [0, 5, 40]),
}

CODE_SPECS = {
    "3-1": CodeFrameSpec(3, 1),
    "4-1": CodeFrameSpec(4, 1),
    "4-2": CodeFrameSpec(4, 2),
    "5-1": CodeFrameSpec(5, 1),
    "4-1-poly": CodeFrameSpec(4, 1, poly=0b11001),
}


def _constructed(name):
    if name in HARMONIC_ROWS:
        return harmonic_frame_from_rows(*HARMONIC_ROWS[name])
    return build_code_frame(CODE_SPECS[name])


def _dense(frame):
    """(mu, nu) from the full Gram of an untagged copy of the frame."""
    g = gram(Frame(frame.data, normalize=False))
    absg = np.abs(g)
    np.fill_diagonal(absg, 0.0)
    off = g.sum(axis=1) - np.diag(g)
    return float(absg.max()), float(np.max(np.abs(off)) / (frame.cols - 1))


ALL = sorted(HARMONIC_ROWS) + sorted(CODE_SPECS)


@pytest.mark.parametrize("name", ALL)
def test_group_path_matches_dense(name):
    frame = _constructed(name)
    mu, nu = coherence(frame)
    mu_d, nu_d = _dense(frame)
    assert abs(mu - mu_d) <= 1e-12
    assert abs(nu - nu_d) <= 1e-12


@pytest.mark.parametrize("name", sorted(HARMONIC_ROWS))
def test_harmonic_nu_closed_form(name):
    # every Gram row sums to sum_{c != 0} w_c = N [0 in R] / |R| - 1
    n, rows = HARMONIC_ROWS[name]
    want = abs(n * (0 in rows) / len(rows) - 1) / (n - 1)
    got = average_coherence(harmonic_frame_from_rows(n, rows))
    assert abs(got - want) <= 1e-9 * want + 1e-15  # the full DFT has want = 0


def test_group_path_forms_no_gram(monkeypatch):
    frames = [_constructed(name) for name in ALL]
    frames.append(build_harmonic(HarmonicFrameSpec(256, 24, seed=2))[0])
    expected = [_dense(f) for f in frames]

    def refuse(frame, start=0, stop=None):
        raise AssertionError("Gram formed for a group frame")

    monkeypatch.setattr(framecoh.frame, "gram", refuse)
    for frame, (mu_d, nu_d) in zip(frames, expected):
        mu, nu = coherence(frame)
        assert abs(mu - mu_d) <= 1e-12 and abs(nu - nu_d) <= 1e-12
        assert worst_case_coherence(frame) == mu
        assert average_coherence(frame) == nu
        report = scp_check(frame)
        assert (report.mu, report.nu) == (mu, nu)
    with pytest.raises(AssertionError, match="Gram formed"):
        coherence(Frame(frames[0].data, normalize=False))


def _flipped(frame, tmp_path):
    return linear_time_flip(frame)[0]


def _wiggled(frame, tmp_path):
    phases = np.exp(2j * np.pi * np.random.default_rng(3).random(frame.cols))
    return apply_wiggle(frame, WigglePattern(phases))


def _from_file(frame, tmp_path):
    path = tmp_path / "h.frame"
    write_frame(path, frame)
    return read_frame(path)


@pytest.mark.parametrize("transform", [_flipped, _wiggled, _from_file],
                         ids=["flip", "wiggle", "file"])
def test_transforms_give_plain_frame(transform, tmp_path):
    frame = harmonic_frame_from_rows(64, [0, 3, 7, 20])
    out = transform(frame, tmp_path)
    assert type(out) is Frame
    mu, nu = coherence(out)
    mu_d, nu_d = _dense(out)
    assert mu == mu_d
    assert abs(nu - nu_d) <= 1e-12  # nu sums in another order than the dense Gram


def _gaussian(m, n, complex_):
    rng = np.random.default_rng(11)
    data = rng.standard_normal((m, n))
    if complex_:
        data = data + 1j * rng.standard_normal((m, n))
    return Frame(data)


# (M, N) for the generic kernel; its block height is B = 2^19 // N rows
GENERIC_SHAPES = {
    "3000-cols": (64, 3000),  # B = 174, 18 blocks, the last one partial
    "2048-cols": (32, 2048),  # B = 256, 8 full blocks
    "one-block": (16, 100),  # N < B
    "two-cols": (3, 2),
    "tall": (300, 100),  # M > N
}


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", sorted(GENERIC_SHAPES))
def test_generic_kernel_matches_dense(shape, complex_):
    frame = _gaussian(*GENERIC_SHAPES[shape], complex_)
    mu, nu = coherence(frame)
    mu_d, nu_d = _dense(frame)
    assert mu == mu_d
    assert abs(nu - nu_d) <= 1e-12


@pytest.mark.parametrize("entries, blocks", [(60, 7), (20, 20), (1, 20)],
                         ids=["B3", "B1", "B1-floor"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_generic_kernel_small_blocks(monkeypatch, entries, blocks, complex_):
    # N = 20 split into blocks of 3 rows (the last of 2) or of 1 row each, as
    # B = 2^19 // N gives beyond N = 131072.  BLAS takes other kernels for
    # such thin products (gemv for one row), so mu may round 1-2 ulp apart
    # from the dense Gram here; at the block heights of smaller N it is exact.
    frame = _gaussian(5, 20, complex_)
    expected = _dense(frame)
    calls = []
    real_gram = framecoh.frame.gram

    def counted(frame, start=0, stop=None):
        calls.append((start, stop))
        return real_gram(frame, start, stop)

    monkeypatch.setattr(framecoh.frame, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(framecoh.frame, "gram", counted)
    mu, nu = coherence(frame)
    assert len(calls) == blocks
    assert abs(mu - expected[0]) <= 2 * np.spacing(expected[0])
    assert abs(nu - expected[1]) <= 1e-12


@pytest.mark.parametrize("transform", [_flipped, _wiggled, _from_file],
                         ids=["flip", "wiggle", "file"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_generic_kernel_transformed_gaussian(transform, complex_, tmp_path):
    out = transform(_gaussian(24, 1500, complex_), tmp_path)
    mu, nu = coherence(out)
    mu_d, nu_d = _dense(out)
    assert mu == mu_d
    assert abs(nu - nu_d) <= 1e-12


def test_gram_block_is_a_slice_of_the_full_gram():
    frame = _gaussian(6, 10, True)
    full = gram(frame)
    assert full.shape == (10, 10)
    assert np.array_equal(gram(frame, 4, 7), full[4:7, 4:])
    assert np.array_equal(gram(frame, 8), full[8:, 8:])


def test_group_nu_matches_exact_row_sums():
    # N = 256 with row 1 dropped: nu = |f_0^H (F 1 - f_0)| / (N - 1), the
    # row sums correctly rounded and the inner product exact in rationals
    n = 256
    frame = harmonic_frame_from_rows(n, [r for r in range(n) if r != 1])
    f = frame.data
    f0 = f[:, 0]
    rest = [(math.fsum(row.real[1:]), math.fsum(row.imag[1:])) for row in f]
    re = im = Fraction(0)
    for a, (br, bi) in zip(f0, rest):
        ar, ai = Fraction(a.real), Fraction(a.imag)
        re += ar * Fraction(br) + ai * Fraction(bi)
        im += ar * Fraction(bi) - ai * Fraction(br)
    exact = math.hypot(float(re), float(im)) / (n - 1)
    assert abs(average_coherence(frame) - exact) <= 1e-12 * exact


def _within(a, b, rel=1e-9):
    return abs(a - b) <= rel * abs(b)


def _near_full(n, dropped):
    """All DFT rows but one nonzero row: every Gram row sums to 1/(N-1), so
    mu = 1/(N-1) and nu = 1/(N-1)^2."""
    group = harmonic_frame_from_rows(n, [r for r in range(n) if r != dropped])
    return group, Frame(group.data, normalize=False), 1.0 / (n - 1), 1.0 / (n - 1) ** 2


def test_near_full_harmonic_nu_paths_agree_at_2048():
    # the group path reads row 0, the generic path the max over the rounded
    # rows; they differ near 2.5e-10 relative, and this pins that both stay
    # within 1e-9 of each other and of 1/(N-1)^2, not which 11th digit is right
    group, plain, _, nu_exact = _near_full(2048, 862)
    nu_group, nu_plain = average_coherence(group), average_coherence(plain)
    assert _within(nu_group, nu_plain)
    assert _within(nu_group, nu_exact) and _within(nu_plain, nu_exact)


def test_near_full_harmonic_mu_nu_paths_agree_at_256():
    group, plain, mu_exact, nu_exact = _near_full(256, 77)
    for got_group, got_plain, exact in zip(coherence(group), coherence(plain),
                                           (mu_exact, nu_exact)):
        assert _within(got_group, got_plain)
        assert _within(got_group, exact) and _within(got_plain, exact)


def test_each_query_runs_only_its_kernel(monkeypatch):
    frame = _gaussian(64, 300, False)
    mu, nu = coherence(frame)
    calls = []
    real_gram = framecoh.frame.gram

    def counted(frame, start=0, stop=None):
        calls.append(start)
        return real_gram(frame, start, stop)

    monkeypatch.setattr(framecoh.frame, "gram", counted)
    assert worst_case_coherence(frame) == mu
    assert calls  # mu keeps its Gram blocks, which perfbench times

    def refuse(frame, start=0, stop=None):
        raise AssertionError("Gram block formed for nu")

    monkeypatch.setattr(framecoh.frame, "gram", refuse)
    assert average_coherence(frame) == nu


def test_group_path_looks_its_kernel_up_at_call_time(monkeypatch):
    # perfbench's tracer rebinds module attributes, so a group frame must
    # reach xor_stationary_coherence through its module, not a bound copy
    frames = [_constructed("with-0"), _constructed(sorted(CODE_SPECS)[0])]
    real = framecoh.constructions.xor_stationary_coherence
    calls = []

    def counted(frame):
        calls.append(frame)
        return real(frame)

    monkeypatch.setattr(framecoh.constructions, "xor_stationary_coherence", counted)
    for frame in frames:
        assert coherence(frame) == real(frame)
    assert calls == frames
