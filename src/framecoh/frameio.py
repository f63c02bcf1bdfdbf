"""Reading and writing the shared frame file format.

Layout: a text header line ``FRAME v1 <M> <N> <real|complex>`` followed by
M*N whitespace-separated entries in column-major order, complex entries as
``a+bi``.  A binary variant appends the token ``binary`` to the header and
stores the entries as little-endian 64-bit floats (real/imaginary pairs for
complex frames), still column-major.

Entries may be separated by any whitespace (spaces, tabs, newlines, CRLF);
the writer puts one column per line.  Text entries are written with ``repr``
(shortest round-trip form) and the imaginary sign comes from its sign bit, so
both formats round-trip bit-exactly for both scalar fields, the sign of zero
included.
"""
from __future__ import annotations

import os

import numpy as np

from .frame import COMPLEX, REAL, Frame

MAGIC = "FRAME"
VERSION = "v1"


class FrameParseError(ValueError):
    """Malformed frame file; messages carry 1-based line numbers."""


def _parse_complex(tok: str) -> complex:
    if not tok.endswith("i"):
        raise ValueError(tok)
    return complex(tok[:-1] + "j")


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
        entries = map(
            "".join,
            zip(map(repr, flat.real.tolist()), signs, map(repr, np.abs(flat.imag).tolist())),
        )
        unit = "i"
    else:
        entries, unit = map(repr, flat.tolist()), ""
    # one column per line: an entry ends in unit + " ", the last of a column in unit + "\n"
    pieces = [""] * (2 * flat.size)
    pieces[0::2] = entries
    pieces[1::2] = ([unit + " "] * (m - 1) + [unit + "\n"]) * n
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


def _first_bad_entry(text: str, parse) -> tuple[int, str]:
    """File line number and token of the first entry ``parse`` rejects."""
    for lineno, line in enumerate(text.splitlines(), start=2):
        for tok in line.split():
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
        data = flat.reshape((m, n), order="F")
        try:
            return Frame._own(data, normalize=False)
        except ValueError as exc:
            raise FrameParseError(f"{path}: {exc}") from None

    try:
        text = raw[newline + 1 :].decode("ascii")
    except UnicodeDecodeError:
        raise FrameParseError(f"{path}: body is not ASCII text") from None
    tokens = text.split()
    if len(tokens) != count:
        raise FrameParseError(f"{path}: expected {count} entries, found {len(tokens)}")
    parse, dtype = (_parse_complex, np.complex128) if field == COMPLEX else (float, np.float64)
    try:
        flat = np.array(list(map(parse, tokens)), dtype=dtype)
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
