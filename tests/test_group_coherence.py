"""Group-frame coherence: constructed harmonic and code frames get mu and nu
from the first Gram row, every other frame from the dense Gram."""
import math
from fractions import Fraction

import numpy as np
import pytest

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

    def refuse(frame):
        raise AssertionError("dense Gram formed for a group frame")

    monkeypatch.setattr(framecoh.frame, "gram", refuse)
    for frame, (mu_d, nu_d) in zip(frames, expected):
        mu, nu = coherence(frame)
        assert abs(mu - mu_d) <= 1e-12 and abs(nu - nu_d) <= 1e-12
        assert worst_case_coherence(frame) == mu
        assert average_coherence(frame) == nu
        report = scp_check(frame)
        assert (report.mu, report.nu) == (mu, nu)
    with pytest.raises(AssertionError, match="dense Gram"):
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
    assert coherence(out) == _dense(out)


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
