"""Arithmetic in GF(2^m) with elements encoded as integer bitmasks.

Bit i of an element is the coefficient of x^i of a polynomial over GF(2);
multiplication is carry-less and reduced modulo an irreducible degree-m
polynomial.  The absolute trace Tr(z) = z + z^2 + ... + z^(2^(m-1)) lands in
GF(2) and supplies the signs of the code-based frame construction.
"""
from __future__ import annotations

import functools

import numpy as np

#: Largest m for which dense multiplication/trace tables are built.
MAX_TABLE_EXPONENT = 10


def poly_degree(p: int) -> int:
    """Degree of the GF(2) polynomial with bitmask ``p`` (-1 for p = 0)."""
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of ``a`` by ``b`` over GF(2)."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def poly_to_str(p: int) -> str:
    """Human-readable form, e.g. 0b1011 -> 'x^3+x+1'."""
    if p == 0:
        return "0"
    terms = []
    for i in range(poly_degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


def smallest_factor(p: int):
    """Smallest nontrivial factor of ``p`` by trial division, or None.

    Scans every polynomial of degree 1 .. deg(p)//2, which is exhaustive:
    a reducible polynomial always has a factor in that range.
    """
    d = poly_degree(p)
    if d < 2:
        return None
    for q in range(2, 1 << (d // 2 + 1)):
        if poly_degree(q) >= 1 and poly_mod(p, q) == 0:
            return q
    return None


def validate_irreducible(poly: int, m: int) -> int:
    """Check that ``poly`` is an irreducible degree-m modulus; return it."""
    if poly_degree(poly) != m:
        raise ValueError(
            f"modulus {bin(poly)} has degree {poly_degree(poly)}, expected {m}"
        )
    factor = smallest_factor(poly)
    if factor is not None:
        raise ValueError(
            f"modulus {bin(poly)} ({poly_to_str(poly)}) is reducible: "
            f"divisible by {bin(factor)} ({poly_to_str(factor)})"
        )
    return poly


@functools.lru_cache(maxsize=None)
def least_irreducible(m: int) -> int:
    """Lexicographically least irreducible degree-m polynomial over GF(2).

    This is the default, frozen modulus choice; the frame geometry does not
    depend on it, but golden files do.
    """
    if m < 1:
        raise ValueError("field exponent m must be >= 1")
    p = 1 << m
    while smallest_factor(p) is not None:
        p += 1
    return p


def gf2m_mul(a: int, b: int, poly: int) -> int:
    """Product of field elements ``a`` and ``b`` modulo ``poly``."""
    m = poly_degree(poly)
    if m < 1:
        raise ValueError("modulus must have degree >= 1")
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= poly
    return r


def gf2m_trace(a: int, poly: int) -> int:
    """Absolute trace of ``a``: the GF(2) sum of its m Frobenius images."""
    m = poly_degree(poly)
    t = 0
    z = a
    for _ in range(m):
        t ^= z
        z = gf2m_mul(z, z, poly)
    if t not in (0, 1):
        raise ValueError(f"trace of {a} landed outside GF(2); modulus {bin(poly)} is invalid")
    return t


class GF2m:
    """GF(2^m) with cached dense tables for vectorised use.

    The tables are immutable after initialization; elements are plain ints
    (or integer ndarrays) below 2^m.
    """

    def __init__(self, m: int, poly: int | None = None):
        if poly is None:
            poly = least_irreducible(m)
        self.m = m
        self.poly = validate_irreducible(poly, m)
        self.size = 1 << m

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        """size x size table of products, built by vectorised shift-and-reduce."""
        if self.m > MAX_TABLE_EXPONENT:
            raise ValueError(f"dense tables limited to m <= {MAX_TABLE_EXPONENT}, got m={self.m}")
        a = np.arange(self.size, dtype=np.int64)[:, None]
        b = np.arange(self.size, dtype=np.int64)[None, :]
        prod = np.zeros((self.size, self.size), dtype=np.int64)
        for i in range(self.m):
            prod ^= np.where((b >> i) & 1 == 1, a << i, 0)
        for d in range(2 * self.m - 2, self.m - 1, -1):
            mask = (prod >> d) & 1
            prod ^= mask * (self.poly << (d - self.m))
        prod.setflags(write=False)
        return prod

    @functools.cached_property
    def trace_table(self) -> np.ndarray:
        """Vector of traces for every field element, uint8 in {0, 1}."""
        tr = np.zeros(self.size, dtype=np.int64)
        z = np.arange(self.size, dtype=np.int64)
        mul = self.mul_table
        for _ in range(self.m):
            tr ^= z
            z = mul[z, z]
        if not np.all((tr == 0) | (tr == 1)):
            raise ValueError(f"trace left GF(2); modulus {bin(self.poly)} is invalid")
        out = tr.astype(np.uint8)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def bilinear_trace_table(self) -> np.ndarray:
        """Table T[a, b] = Tr(a*b), uint8; the sign kernel of code frames."""
        out = self.trace_table[self.mul_table]
        out.setflags(write=False)
        return out

    def pow_2k_plus_1(self, a: np.ndarray | int, k: int):
        """a^(2^k + 1): k Frobenius maps a -> a^2 followed by one multiplication."""
        a = np.asarray(a, dtype=np.int64)
        mul = self.mul_table
        z = a
        for _ in range(k):
            z = mul[z, z]
        return mul[z, a]
