"""Frame file format: text and binary round trips, parse errors."""
import numpy as np
import pytest

from conftest import per_entry_frame_text, random_frame
from framecoh import (
    CodeFrameSpec,
    Frame,
    FrameParseError,
    build_code_frame,
    load_flip_demo,
    read_frame,
    write_frame,
)
from framecoh.fixtures import flip_demo_path
from framecoh.frameio import _PROBE_TOKENS, _parse_tokens


def test_text_round_trip_real_exact(tmp_path):
    f = random_frame(5, 9, seed=4)
    path = tmp_path / "a.frame"
    write_frame(path, f)
    g = read_frame(path)
    assert np.array_equal(f.data, g.data)
    assert g.scalar_field == "real"


def _bits(a):
    # np.array_equal on floats treats 0.0 and -0.0 as equal; the bits do not
    return np.ascontiguousarray(a).view(np.int64)


TINY = 5e-324  # smallest subnormal


@pytest.mark.parametrize(
    "entries, first_tokens",
    [
        (
            [
                [complex(0.6, -0.0), complex(1e-300, 0.0)],
                [complex(-0.0, 0.8), complex(-0.0, -0.0)],
                [complex(TINY, 0.0), complex(0.0, -TINY)],
                [complex(-0.0, -1e-300), complex(-1.0, -0.0)],
            ],
            ["0.6-0.0i", "-0.0+0.8i", "5e-324+0.0i", "-0.0-1e-300i"],
        ),
        (
            [[-0.0, 1.0], [1.0, TINY], [-1e-300, -0.0]],
            ["-0.0", "1.0", "-1e-300", "1.0"],
        ),
    ],
    ids=["complex", "real"],
)
def test_text_round_trip_signed_zero_bit_exact(tmp_path, entries, first_tokens):
    f = Frame(np.array(entries), normalize=False)
    path = tmp_path / "z.frame"
    write_frame(path, f)
    assert path.read_text().split()[5:9] == first_tokens
    assert np.array_equal(_bits(f.data), _bits(read_frame(path).data))


def _repeated_real():
    # 4 x 6, every column a signed unit vector padded with 0.0 and -0.0
    cols = [[1.0, 0.0, -0.0, 0.0], [-0.0, -1.0, 0.0, -0.0], [0.6, -0.0, 0.8, 0.0],
            [0.0, 0.6, -0.0, -0.8], [-0.0, 0.0, 1.0, -0.0], [0.6, -0.0, 0.8, 0.0]]
    return Frame(np.array(cols).T, normalize=False)


def _repeated_complex():
    # 3 x 5: +/-0.0 in both parts, the smallest subnormal and 1e-300
    cols = [
        [complex(0.6, 0.8), complex(-0.0, 0.0), complex(0.0, -0.0)],
        [complex(-0.0, -0.0), complex(TINY, -1e-300), complex(0.0, 1.0)],
        [complex(0.6, 0.8), complex(-0.0, 0.0), complex(0.0, -0.0)],
        [complex(1e-300, -TINY), complex(-0.6, -0.0), complex(-0.0, -0.8)],
        [complex(-0.0, 0.0), complex(0.0, -0.0), complex(1.0, -0.0)],
    ]
    return Frame(np.array(cols).T, normalize=False)


def _distinct_probe_then_repeats():
    # the first 32 columns hold _PROBE_TOKENS distinct entries; the rest repeat them
    head = random_frame(32, _PROBE_TOKENS // 32, seed=11).data
    return Frame(np.hstack([head, head[:, :16]]), normalize=False)


@pytest.mark.parametrize(
    "make",
    [_repeated_real, _repeated_complex, lambda: build_code_frame(CodeFrameSpec(4, 1)),
     _distinct_probe_then_repeats],
    ids=["real-signed-zeros", "complex-signed-zeros", "code-4-1", "distinct-probe"],
)
def test_text_dedupe_bytes_and_bits(tmp_path, make):
    f = make()
    path = tmp_path / "d.frame"
    write_frame(path, f)
    assert path.read_bytes() == per_entry_frame_text(f)
    assert np.array_equal(_bits(f.data), _bits(read_frame(path).data))


def test_distinct_probe_file_repeats_after_the_probe(tmp_path):
    # the reader's probe sees no repeat here, so it parses entry by entry
    path = tmp_path / "p.frame"
    write_frame(path, _distinct_probe_then_repeats())
    tokens = path.read_text().split()[5:]
    assert len(set(tokens[:_PROBE_TOKENS])) == _PROBE_TOKENS
    assert len(set(tokens)) == _PROBE_TOKENS < len(tokens)


def test_parse_tokens_calls_parse_once_per_distinct_token_after_a_probe_repeat():
    calls = []

    def parse(tok):
        calls.append(tok)
        return float(tok)

    distinct = [repr(k + 0.5) for k in range(_PROBE_TOKENS)]
    assert _parse_tokens(distinct + distinct, parse) == [k + 0.5 for k in range(_PROBE_TOKENS)] * 2
    assert len(calls) == 2 * _PROBE_TOKENS  # no repeat in the probe: entry by entry
    calls.clear()
    tokens = ["1.0", "1.0"] + distinct + distinct
    assert _parse_tokens(tokens, parse) == list(map(float, tokens))
    assert sorted(calls) == sorted(set(tokens))  # "1.0" repeats inside the probe


@pytest.mark.parametrize(
    "body, line",
    [
        ("1.0\f0.0\f0.0 oops\n", 2),
        ("1.0\v0.0\v0.0 oops\n", 2),
        ("1.0\x1c0.0\x1c0.0 oops\n", 2),
        ("1.0\f0.0\x1c0.0 oops\n", 2),
        ("1.0\r0.0\r0.0 oops\n", 2),
        ("1.0 0.0\r\n0.0 oops\r\n", 3),
        ("1.0\r\n0.0\r\n0.0\r\noops\r\n", 5),
    ],
    ids=["form-feed", "vertical-tab", "file-separator", "mixed", "lone-cr", "crlf",
         "crlf-one-per-line"],
)
def test_bad_token_line_counts_newlines_only(tmp_path, body, line):
    # str.split takes \f, \v, \x1c-\x1e and a lone \r as spaces, so they end no line
    path = tmp_path / "ws.frame"
    path.write_bytes(("FRAME v1 2 2 real\n" + body).encode("ascii"))
    with pytest.raises(FrameParseError, match=f"line {line}: cannot parse real entry 'oops'$"):
        read_frame(path)


@pytest.mark.parametrize("cplx", [False, True])
def test_text_layout_is_free_whitespace(tmp_path, cplx):
    f = random_frame(4, 6, seed=9, complex_=cplx)
    path = tmp_path / "w.frame"
    write_frame(path, f)
    header, *columns = path.read_text().splitlines()
    tokens = " ".join(columns).split()
    layouts = {
        "one line": header + "\n" + " ".join(tokens) + "\n",
        "one entry per line": header + "\n" + "\n".join(tokens) + "\n",
        "crlf": header + "\r\n" + "\r\n".join(columns) + "\r\n",
        "tabs": header + "\n" + "\t".join(tokens) + "\t\n",
    }
    for name, text in layouts.items():
        path.write_bytes(text.encode("ascii"))
        assert np.array_equal(_bits(f.data), _bits(read_frame(path).data)), name


def test_text_round_trip_complex_exact(tmp_path):
    f = random_frame(4, 6, seed=5, complex_=True)
    path = tmp_path / "c.frame"
    write_frame(path, f)
    g = read_frame(path)
    assert np.array_equal(f.data, g.data)
    assert g.scalar_field == "complex"


@pytest.mark.parametrize("cplx", [False, True])
def test_binary_round_trip_exact(tmp_path, cplx):
    f = random_frame(7, 13, seed=6, complex_=cplx)
    path = tmp_path / "b.frame"
    write_frame(path, f, binary=True)
    g = read_frame(path)
    assert np.array_equal(f.data, g.data)


def test_header_format(tmp_path):
    f = random_frame(3, 4, seed=7)
    path = tmp_path / "h.frame"
    write_frame(path, f)
    header = path.read_text().splitlines()[0]
    assert header == "FRAME v1 3 4 real"


def test_column_major_order(tmp_path):
    # first M tokens after the header are column 0
    f = Frame(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), normalize=False)
    path = tmp_path / "cm.frame"
    write_frame(path, f)
    tokens = path.read_text().split()[5:]
    assert [float(t) for t in tokens[:3]] == [1.0, 0.0, 0.0]
    assert [float(t) for t in tokens[3:]] == [0.0, 1.0, 0.0]


def test_bad_header_reports_line_1(tmp_path):
    path = tmp_path / "bad.frame"
    path.write_text("FRAME v2 3 3 real\n1 0 0 0 1 0 0 0 1\n")
    with pytest.raises(FrameParseError, match="line 1"):
        read_frame(path)


def test_bad_token_reports_line(tmp_path):
    path = tmp_path / "tok.frame"
    path.write_text("FRAME v1 2 2 real\n1.0 0.0\nx0.2 1.0\n")
    with pytest.raises(FrameParseError, match="line 3"):
        read_frame(path)


def test_wrong_entry_count(tmp_path):
    path = tmp_path / "cnt.frame"
    path.write_text("FRAME v1 2 2 real\n1.0 0.0 0.0\n")
    with pytest.raises(FrameParseError, match="expected 4 entries, found 3"):
        read_frame(path)


def test_non_unit_column_rejected(tmp_path):
    path = tmp_path / "norm.frame"
    path.write_text("FRAME v1 2 2 real\n2.0 0.0\n0.0 1.0\n")
    with pytest.raises(FrameParseError, match="norm 2.0;"):
        read_frame(path)


def test_binary_payload_size_checked(tmp_path):
    path = tmp_path / "trunc.frame"
    write_frame(path, random_frame(3, 3, seed=8), binary=True)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FrameParseError, match="payload"):
        read_frame(path)


def test_complex_entry_format(tmp_path):
    f = Frame(np.array([[0.6 + 0.8j]]), normalize=False)
    path = tmp_path / "fmt.frame"
    write_frame(path, f)
    body = path.read_text().splitlines()[1]
    assert body.endswith("i") and "+" in body
    g = read_frame(path)
    assert g.data[0, 0] == 0.6 + 0.8j


def test_bundled_demo_frame(tmp_path):
    f = load_flip_demo()
    assert f.rows == 5 and f.cols == 10
    # every entry is +/- 1/sqrt(5)
    assert np.allclose(np.abs(f.data), 1 / np.sqrt(5), atol=1e-15)
    assert flip_demo_path().exists()
