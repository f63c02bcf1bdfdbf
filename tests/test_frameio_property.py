"""Property tests: text frame files are the per-entry writer's bytes and round-trip bit-exactly.

Entries are drawn from small pools so that values repeat and the writer's
and reader's once-per-distinct-value paths run.  Needs the optional
``hypothesis`` test extra.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import per_entry_frame_text  # noqa: E402
from framecoh import Frame, read_frame, write_frame  # noqa: E402
from framecoh.frameio import _parse_tokens, _reprs  # noqa: E402

# small enough that a column of them keeps unit norm within 1e-10
SMALL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
         1e-300, -1e-200, 3e-7, -3e-7]
# pairs whose squares sum to 1 (up to rounding), each the bulk of a column
REAL_CARRIERS = [(1.0, 0.0), (-1.0, -0.0), (0.6, 0.8), (-0.8, 0.6), (0.6, -0.8),
                 (0.7071067811865476, -0.7071067811865476)]
COMPLEX_CARRIERS = [(complex(0.6, 0.8), complex(0.0, -0.0)),
                    (complex(-0.0, 1.0), complex(-0.0, 0.0)),
                    (complex(0.6, -0.0), complex(-0.0, -0.8)),
                    (complex(-0.5, 0.5), complex(0.5, -0.5))]
# any finite double, for the formatter and parser alone: no unit-norm constraint
POOL = SMALL + [1.0, -0.6, 1e300, -1.7976931348623157e308, 4.9406564584124654e-300,
                123456.789, -2.5e-17, 0.1]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def frames(draw, complex_):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    small = st.sampled_from(SMALL)
    if complex_:
        small = st.builds(complex, small, small)
    carriers = COMPLEX_CARRIERS if complex_ else REAL_CARRIERS
    columns = []
    for _ in range(n):
        column = [draw(small) for _ in range(m - 2)] + list(draw(st.sampled_from(carriers)))
        columns.append(draw(st.permutations(column)))
    return Frame(np.array(columns).T, normalize=False)


@pytest.fixture(scope="module")
def frame_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "p.frame"


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_text_round_trip_property(frame_path, complex_):
    @settings(max_examples=80, deadline=None)
    @given(frames(complex_))
    def check(f):
        write_frame(frame_path, f)
        assert frame_path.read_bytes() == per_entry_frame_text(f)
        assert np.array_equal(_bits(f.data), _bits(read_frame(frame_path).data))

    check()


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(POOL), min_size=1, max_size=60))
def test_reprs_and_parse_tokens_match_per_entry(values):
    x = np.array(values, dtype=np.float64)
    strings = list(_reprs(x))
    assert strings == [repr(v) for v in values]
    parsed = np.array(_parse_tokens(strings, float), dtype=np.float64)
    assert np.array_equal(_bits(parsed), _bits(x))
