"""Code frames as two +/-1 factors: the dense builder expands them, and
`code_frame_geometry` reads ||F||_2^2, mu and nu off them without the
frame.  The dense matrix stays the reference for both."""
import hashlib
import tracemalloc

import pytest

from framecoh import (
    CodeFrameSpec,
    build_code_frame,
    code_frame_geometry,
    coherence,
    spectral_norm,
)
from framecoh.experiments import run_code_geometry

# SHA-256 of build_code_frame(spec).data.tobytes(), recorded on the builder
# that evaluated the trace signs as one XOR of bit tables per entry
FRAME_BYTES_SHA256 = {
    (1, 1, None): "32b98b9d549df5c2eaac7d0016435dbe742d9d0e6c8d18ec01bc0b211749ff10",
    (2, 2, None): "5f951c9eb33591fb0e57edc13bb61b750974ffa12f362fbe4b0567ac48c12c47",
    (3, 1, None): "5bd673675e29e5631c910fcc0bbc70aec4886632eab205bd0c73c7cb0121cd20",
    (4, 1, None): "81259eae0467d87a48b0d474ae2d8b40ff0fc8333b10d067267f1d5382e4c5d2",
    (5, 1, None): "65463de3c6e73ab243a5cbcb0684008a7574c81955bf2b626916f60df7370973",
    (6, 1, None): "c347dbf252c68217184fec2084067a1dc6f91848170e7034e7d705cf6af0dc5c",
    (4, 2, None): "bde0aff8cb74eac3a1ae1e439b8ecbadbb37965e1975e8e64d6f6cb539569cb7",
    (5, 2, None): "c561f3be063ae7691584f26f355408eac516f1e1391667695794133fe3848bda",
    (6, 2, None): "d81fa72ac72aa71391e62342b1870a3ba6bb789f026a02d7534bda47aea3be1b",
    (4, 3, None): "3ecc804c9e5f57aad4bd5969b3c57676719688aaad466523240189c5726a5d08",
    (4, 1, 0b11001): "5c6e7bc9e9d86317c4e5c890c41b16f8875ffa3463c8c83033bfdbfc4fa76a0f",
}


@pytest.mark.parametrize("key", sorted(FRAME_BYTES_SHA256, key=str), ids=str)
def test_dense_frame_bits_frozen(key):
    data = build_code_frame(CodeFrameSpec(*key)).data
    assert hashlib.sha256(data.tobytes()).hexdigest() == FRAME_BYTES_SHA256[key]


GEOMETRY_SPECS = [(3, 1, None), (4, 1, None), (5, 1, None), (6, 1, None), (4, 2, None),
                  (5, 2, None), (6, 2, None), (4, 1, 0b11001)]


@pytest.mark.parametrize("key", GEOMETRY_SPECS, ids=str)
def test_geometry_matches_dense_frame(key):
    spec = CodeFrameSpec(*key)
    norm2, mu, nu = code_frame_geometry(spec)
    frame = build_code_frame(spec)
    dense = (spectral_norm(frame) ** 2, *coherence(frame))
    for got, want in zip((norm2, mu, nu), dense):
        assert abs(got - want) <= 1e-12 * abs(want)
    # F F^T = 2^(tm) I exactly: the factor products are exact integers
    assert norm2 == 2.0 ** (spec.t * spec.m)


def test_run_code_geometry_builds_no_frame():
    tracemalloc.start()
    try:
        report = run_code_geometry(cases=((6, 2),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.rows[0][4] == 0.0  # norm2_err
    assert peak <= 16 << 20  # the dense (6, 2) frame alone is 128 MiB


def test_geometry_beyond_dense_guard():
    # (7, 2): 2^28 entries, which the dense builder refuses
    spec = CodeFrameSpec(7, 2)
    with pytest.raises(ValueError, match="guard allows at most 134217728"):
        build_code_frame(spec)
    norm2, mu, nu = code_frame_geometry(spec)
    assert norm2 == 2.0**14
    assert mu <= 2.0**-1 and nu <= mu / 2.0**3.5

