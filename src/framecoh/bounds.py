"""Lower bounds on the worst-case coherence of unit-norm frames.

Four bounds are provided: the Welch bound, the complex-frame bound
1 - 2 N^(-1/(M-1)), the real-frame bound built from half-integer Gamma
ratios, and the dedicated M = 3 bound.  A bound that evaluates to a
non-positive number is vacuous but returned as-is; the CLI marks such
values when pretty-printing, while CSV output stays purely numeric.
"""
from __future__ import annotations

import math

__all__ = [
    "welch_bound",
    "complex_bound",
    "real_bound",
    "bound_3d",
    "bound_table",
    "BOUND_HEADER",
    "gamma_half_integer",
]


def welch_bound(m: int, n: int) -> float:
    """sqrt((N-M)/(M(N-1))).  Signed continuation below N = M, so the
    returned value is <= 0 (vacuous) instead of erroring."""
    if m < 1:
        raise ValueError("M must be >= 1")
    if n < 2:
        raise ValueError("N must be >= 2")
    r = (n - m) / (m * (n - 1))
    return math.copysign(math.sqrt(abs(r)), r)


def complex_bound(m: int, n: int) -> float:
    """1 - 2 N^(-1/(M-1)), valid for every unit-norm frame with M >= 2."""
    if m < 2:
        raise ValueError("bound undefined for M < 2")
    if n < 1:
        raise ValueError("N must be >= 1")
    return 1.0 - 2.0 * n ** (-1.0 / (m - 1))


def gamma_half_integer(two_z: int) -> float:
    """Gamma(two_z/2) for positive integer two_z, by exact recurrence.

    Even arguments reduce to a factorial; odd ones walk up from
    Gamma(1/2) = sqrt(pi).  No general-purpose Gamma approximation is
    involved, so the values are reproducible to the last ulp.
    """
    if two_z < 1:
        raise ValueError("argument must be a positive half-integer")
    if two_z % 2 == 0:
        return float(math.factorial(two_z // 2 - 1))
    val = math.sqrt(math.pi)
    for j in range((two_z - 1) // 2):
        val *= j + 0.5
    return val


def _gamma_ratio(m: int) -> float:
    """Gamma((M-1)/2) / Gamma(M/2) without overflow.

    Uses r(2) = sqrt(pi) and r(M+1) = 2/((M-1) r(M)); the ratio stays
    O(1/sqrt(M)) for all M, unlike the individual Gamma values.
    """
    r = math.sqrt(math.pi)
    for mm in range(2, m):
        r = 2.0 / ((mm - 1) * r)
    return r


def real_bound(m: int, n: int) -> float:
    """cos(pi ((M-1)/(N sqrt(pi)) * Gamma((M-1)/2)/Gamma(M/2))^(1/(M-1))).

    Applies to real unit-norm frames; for M = 2 it reduces exactly to
    cos(pi/N), which is known to be achieved for every N >= 2.
    """
    if m < 2:
        raise ValueError("bound undefined for M < 2")
    if n < 1:
        raise ValueError("N must be >= 1")
    inner = (m - 1) / (n * math.sqrt(math.pi)) * _gamma_ratio(m)
    return math.cos(math.pi * inner ** (1.0 / (m - 1)))


def bound_3d(n: int) -> float:
    """1 - 4/N + 2/N^2, for real 3 x N frames.  Vacuous (<= 0) for tiny N."""
    if n < 2:
        raise ValueError("N must be >= 2")
    return 1.0 - 4.0 / n + 2.0 / (n * n)


#: Column names of a `bound_table` row.
BOUND_HEADER = ("N", "welch", "complex", "real", "three_d")


def bound_table(m: int, n_values) -> list:
    """Rows (N, welch, complex, real, three_d) of every applicable bound over
    a range of N for fixed M >= 2; three_d is None unless M == 3."""
    ns = [int(n) for n in n_values]
    if not ns:
        raise ValueError("range of N values must be nonempty")
    if m < 2:
        raise ValueError("bound table needs M >= 2")
    return [
        (n, welch_bound(m, n), complex_bound(m, n), real_bound(m, n),
         bound_3d(n) if m == 3 else None)
        for n in ns
    ]
