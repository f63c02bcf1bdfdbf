"""GF(2^m) arithmetic: modulus selection, field axioms, trace properties."""
import pytest

from framecoh import GF2m, gf2m_mul, gf2m_trace, least_irreducible, validate_irreducible
from framecoh.gf2m import poly_degree, poly_mod, smallest_factor

# hand-derived by scanning bitmasks upward and trial-dividing
KNOWN_LEAST = {1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B}


def _poly_mulmod(a, b, p):
    # schoolbook carry-less multiply then reduce; independent of gf2m_mul
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return poly_mod(r, p)


def _rabin_irreducible(p):
    """Independent irreducibility oracle (Rabin's test).

    p of degree m is irreducible over GF(2) iff x^(2^m) == x (mod p) and
    gcd(x^(2^(m/q)) - x, p) = 1 for every prime q dividing m.
    """
    m = poly_degree(p)
    if m < 1:
        return False

    def sqmod(a):
        return _poly_mulmod(a, a, p)

    def x_pow_2k(k):
        z = poly_mod(0b10, p)
        for _ in range(k):
            z = sqmod(z)
        return z

    def gcd(a, b):
        while b:
            a, b = b, poly_mod(a, b)
        return a

    x_red = poly_mod(0b10, p)
    if x_pow_2k(m) != x_red:
        return False
    primes = [q for q in range(2, m + 1) if m % q == 0 and all(q % d for d in range(2, q))]
    for q in primes:
        if gcd(x_pow_2k(m // q) ^ x_red, p) != 1:
            return False
    return True


def test_least_irreducible_known_values():
    for m, poly in KNOWN_LEAST.items():
        assert least_irreducible(m) == poly


def test_least_irreducible_is_irreducible_and_minimal():
    for m in range(1, 17):
        p = least_irreducible(m)
        assert poly_degree(p) == m
        assert _rabin_irreducible(p), f"m={m}: {bin(p)} failed the independent test"
        for q in range(1 << m, p):
            if poly_degree(q) == m:
                assert not _rabin_irreducible(q), f"m={m}: {bin(q)} < {bin(p)} is irreducible"


def test_reducible_modulus_rejected_naming_factor():
    # x^4 + 1 = (x + 1)^4
    with pytest.raises(ValueError, match="0b11"):
        validate_irreducible(0b10001, 4)
    with pytest.raises(ValueError, match="degree"):
        validate_irreducible(0b1011, 4)


def test_trace_of_zero_and_one():
    for m in (1, 2, 3, 4, 5, 6, 7, 8):
        poly = least_irreducible(m)
        assert gf2m_trace(0, poly) == 0
        # Tr(1) = m mod 2: the m Frobenius images of 1 are all 1
        assert gf2m_trace(1, poly) == m % 2
    assert gf2m_trace(1, 0xB) == 1  # m = 3, x^3 + x + 1


def test_trace_additive_exhaustive():
    for m in range(1, 9):
        field = GF2m(m)
        tr = field.trace_table
        for a in range(field.size):
            ta = tr[a]
            for b in range(field.size):
                assert tr[a ^ b] == ta ^ tr[b]


def test_frobenius_is_additive():
    for m in (2, 4, 6):
        field = GF2m(m)
        mul = field.mul_table
        for a in range(field.size):
            for b in range(field.size):
                assert mul[a ^ b, a ^ b] == mul[a, a] ^ mul[b, b]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_field_axioms_exhaustive(m):
    import numpy as np

    field = GF2m(m)
    t = field.mul_table
    size = field.size
    # commutativity
    assert np.array_equal(t, t.T)
    # identity and absorbing zero
    assert np.array_equal(t[1], np.arange(size))
    assert np.all(t[0] == 0)
    # every nonzero element has an inverse (row is a permutation hitting 1)
    for a in range(1, size):
        assert sorted(t[a]) == list(range(size))
        assert 1 in t[a]
    a = np.arange(size)[:, None, None]
    b = np.arange(size)[None, :, None]
    c = np.arange(size)[None, None, :]
    # associativity: (a b) c == a (b c), all triples at once
    assert np.array_equal(t[t[a, b], c], t[a, t[b, c]])
    # distributivity over field addition (XOR)
    assert np.array_equal(t[a ^ b, c], t[a, c] ^ t[b, c])


def test_scalar_and_table_paths_agree():
    import numpy as np

    for m in (3, 5, 8):
        field = GF2m(m)
        rng = np.random.default_rng(m)
        for _ in range(200):
            a, b = (int(v) for v in rng.integers(0, field.size, 2))
            assert field.mul_table[a, b] == gf2m_mul(a, b, field.poly)
        for a in range(field.size):
            assert field.trace_table[a] == gf2m_trace(a, field.poly)


def test_mul_scalar_examples():
    # GF(8) with x^3 + x + 1: x * x^2 = x^3 = x + 1
    assert gf2m_mul(0b010, 0b100, 0xB) == 0b011
    # x^2 * x^2 = x^4 = x^2 + x
    assert gf2m_mul(0b100, 0b100, 0xB) == 0b110


def test_pow_2k_plus_1():
    field = GF2m(4)
    for a in range(field.size):
        expected = a
        for _ in range(2):  # a^2 twice -> a^4
            expected = gf2m_mul(expected, expected, field.poly)
        expected = gf2m_mul(expected, a, field.poly)  # a^5 = a^(2^2 + 1)
        assert field.pow_2k_plus_1(a, 2) == expected


def test_smallest_factor_none_for_irreducible():
    assert smallest_factor(0x13) is None
    assert smallest_factor(0b10001) == 0b11
