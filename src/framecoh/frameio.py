"""Reading and writing the shared frame file format.

Layout: a text header line ``FRAME v1 <M> <N> <real|complex>`` followed by
M*N whitespace-separated entries in column-major order, complex entries as
``a+bi``.  A binary variant appends the token ``binary`` to the header and
stores the entries as little-endian 64-bit floats (real/imaginary pairs for
complex frames), still column-major.

Entries may be separated by any whitespace (spaces, tabs, newlines, CRLF);
the writer puts one column per line, and error messages number lines by
``\n`` alone.  Text entries are written with ``repr`` (shortest round-trip
form) and the imaginary sign comes from its sign bit, so both formats
round-trip bit-exactly for both scalar fields, the sign of zero included.

Structured frames are built from few numbers (a harmonic frame from N roots
of unity, a code frame from two values): once one of the first 1024 entries
repeats, the writer formats each distinct bit pattern once and the reader
parses each distinct token once, with the bytes and bits of the per-entry loop.
"""
from __future__ import annotations

import os

import numpy as np

from .frame import COMPLEX, REAL, Frame

MAGIC = "FRAME"
VERSION = "v1"
# the writer and the reader build their lookup tables only if an item repeats
# among this many leading ones; all-distinct data goes entry by entry
_PROBE_TOKENS = 1024


class FrameParseError(ValueError):
    """Malformed frame file; messages carry 1-based line numbers."""


def _parse_complex(tok: str) -> complex:
    if not tok.endswith("i"):
        raise ValueError(tok)
    return complex(tok[:-1] + "j")


def _repeats_early(items) -> bool:
    """Whether one of the first `_PROBE_TOKENS` of ``items`` (list or 1-D array) repeats."""
    probe = items[:_PROBE_TOKENS]
    return len(set(probe)) < len(probe)


def _reprs(x: np.ndarray):
    """``repr`` of each entry of float64 ``x``, one call per bit pattern after a probe repeat."""
    # bit patterns, not values: np.unique on floats would merge -0.0 into 0.0
    bits = x.view(np.int64)
    if not _repeats_early(bits):
        return map(repr, x.tolist())
    keys, inverse = np.unique(bits, return_inverse=True)
    strings = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return strings[inverse].tolist()


def write_frame(path, frame: Frame, binary: bool = False) -> None:
    """Write ``frame`` to ``path`` in the text (default) or binary format."""
    m, n = frame.rows, frame.cols
    header = f"{MAGIC} {VERSION} {m} {n} {frame.scalar_field}"
    flat = frame.data.flatten(order="F")
    if binary:
        with open(path, "wb") as fh:
            fh.write((header + " binary\n").encode("ascii"))
            if frame.is_complex:
                fh.write(flat.astype("<c16").tobytes())
            else:
                fh.write(flat.astype("<f8").tobytes())
        return
    if frame.is_complex:
        # re, the sign bit of im (so -0.0 keeps its sign), |im|
        signs = np.where(np.signbit(flat.imag), "-", "+").tolist()
        parts, unit = [_reprs(flat.real), signs, _reprs(np.abs(flat.imag))], "i"
    else:
        parts, unit = [_reprs(flat)], ""
    # one column per line: an entry is its parts, then unit + " " (unit + "\n" ending a column)
    stride = len(parts) + 1
    pieces = [""] * (stride * flat.size)
    for k, part in enumerate(parts):
        pieces[k::stride] = part
    pieces[stride - 1 :: stride] = ([unit + " "] * (m - 1) + [unit + "\n"]) * n
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.write("".join(pieces))


def _parse_header(line: str, path) -> tuple[int, int, str, bool]:
    parts = line.split()
    if len(parts) < 5 or parts[0] != MAGIC or parts[1] != VERSION:
        raise FrameParseError(
            f"{path}: line 1: expected header '{MAGIC} {VERSION} <M> <N> <real|complex>'"
        )
    try:
        m, n = int(parts[2]), int(parts[3])
    except ValueError:
        raise FrameParseError(f"{path}: line 1: M and N must be integers") from None
    if m < 1 or n < 1:
        raise FrameParseError(f"{path}: line 1: M and N must be positive")
    field = parts[4]
    if field not in (REAL, COMPLEX):
        raise FrameParseError(f"{path}: line 1: scalar field must be 'real' or 'complex'")
    binary = False
    if len(parts) == 6 and parts[5] == "binary":
        binary = True
    elif len(parts) > 5:
        raise FrameParseError(f"{path}: line 1: unexpected trailing tokens {parts[5:]}")
    return m, n, field, binary


def _parse_tokens(tokens: list, parse) -> list:
    """``parse`` of each token, one call per distinct token once the probe sees a repeat."""
    if not _repeats_early(tokens):
        return list(map(parse, tokens))
    values = dict.fromkeys(tokens)
    for tok in values:
        values[tok] = parse(tok)
    return list(map(values.__getitem__, tokens))


def _first_bad_entry(text: str, parse) -> tuple[int, str]:
    """File line number and token of the first entry ``parse`` rejects or
    that holds an underscore."""
    # lines end at "\n" only, as for the header; str.splitlines would also
    # break at \v, \f, \x1c-\x1e and a lone \r, which str.split takes as spaces
    for lineno, line in enumerate(text.split("\n"), start=2):
        for tok in line.split():
            if "_" in tok:
                return lineno, tok
            try:
                parse(tok)
            except ValueError:
                return lineno, tok


def read_frame(path) -> Frame:
    """Read a frame file written by :func:`write_frame`.

    Column norms are validated but never rescaled, so the data round-trips
    bit-for-bit through either format.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FrameParseError(f"{path}: line 1: missing header line")
    try:
        header = raw[:newline].decode("ascii")
    except UnicodeDecodeError:
        raise FrameParseError(f"{path}: line 1: header is not ASCII") from None
    m, n, field, binary = _parse_header(header, path)
    count = m * n

    if binary:
        body = raw[newline + 1 :]
        dtype = "<c16" if field == COMPLEX else "<f8"
        itemsize = np.dtype(dtype).itemsize
        if len(body) != count * itemsize:
            raise FrameParseError(
                f"{path}: expected {count * itemsize} payload bytes, found {len(body)}"
            )
        flat = np.frombuffer(body, dtype=dtype)
    else:
        try:
            text = raw[newline + 1 :].decode("ascii")
        except UnicodeDecodeError:
            raise FrameParseError(f"{path}: body is not ASCII text") from None
        tokens = text.split()
        if len(tokens) != count:
            raise FrameParseError(f"{path}: expected {count} entries, found {len(tokens)}")
        parse, dtype = (_parse_complex, np.complex128) if field == COMPLEX else (float, np.float64)
        try:
            if "_" in text:  # float() and complex() accept '1_0.0'; repr never writes it
                raise ValueError
            flat = np.array(_parse_tokens(tokens, parse), dtype=dtype)
        except ValueError:
            lineno, tok = _first_bad_entry(text, parse)
            raise FrameParseError(
                f"{path}: line {lineno}: cannot parse {field} entry {tok!r}"
            ) from None
    data = flat.reshape((m, n), order="F")
    try:
        return Frame._own(data, normalize=False)
    except ValueError as exc:
        raise FrameParseError(f"{path}: {exc}") from None


def default_frame_name(stem: str, directory=".") -> str:
    """Collision-free ``<stem>.frame`` path inside ``directory``."""
    base = os.path.join(directory, f"{stem}.frame")
    if not os.path.exists(base):
        return base
    k = 1
    while os.path.exists(os.path.join(directory, f"{stem}.{k}.frame")):
        k += 1
    return os.path.join(directory, f"{stem}.{k}.frame")
