"""Coherence lower bounds: formulas, Gamma arithmetic, universality, table."""
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import mercedes_frame, random_frame, tetrahedron_frame
from framecoh import (
    ExperimentReport,
    Frame,
    bound_3d,
    bound_table,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    complex_bound,
    gamma_half_integer,
    load_flip_demo,
    real_bound,
    welch_bound,
    worst_case_coherence,
)
from framecoh.bounds import BOUND_HEADER, _gamma_ratio
from framecoh.constructions import CodeFrameSpec, GaussianFrameSpec, HarmonicFrameSpec


class TestWelch:
    def test_orthonormal_point(self):
        assert welch_bound(4, 4) == 0.0

    def test_direct_formula(self):
        assert welch_bound(3, 7) == pytest.approx(math.sqrt(4.0 / 18.0), rel=1e-15)

    def test_vacuous_below_m(self):
        assert welch_bound(5, 3) < 0.0

    def test_monotone_in_n(self):
        vals = [welch_bound(4, n) for n in range(4, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            welch_bound(0, 5)
        with pytest.raises(ValueError):
            welch_bound(3, 1)


class TestComplexBound:
    def test_direct_values(self):
        assert complex_bound(3, 9) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert complex_bound(2, 2) == pytest.approx(0.0, abs=1e-15)

    def test_m1_errors(self):
        with pytest.raises(ValueError, match="undefined"):
            complex_bound(1, 5)

    def test_exponential_n_trend(self):
        # N = 4^M: 1 - 0.5 * 4^(-1/(M-1)) decreases monotonically to 1 - 2/4
        vals = [complex_bound(m, 4**m) for m in (8, 12, 16)]
        assert vals[0] > vals[1] > vals[2] > 0.5
        assert vals[2] - 0.5 < 0.05


class TestGamma:
    def test_half_integers_against_exact_rational_oracle(self):
        # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!), evaluated in exact
        # integer arithmetic
        for k in range(0, 65):
            ratio = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
            expected = float(ratio) * math.sqrt(math.pi)
            got = gamma_half_integer(2 * k + 1)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_integers_are_factorials(self):
        for k in range(1, 20):
            assert gamma_half_integer(2 * k) == float(math.factorial(k - 1))

    def test_ratio_matches_direct_quotient(self):
        for m in range(2, 65):
            direct = gamma_half_integer(m - 1) / gamma_half_integer(m)
            assert _gamma_ratio(m) == pytest.approx(direct, rel=1e-12)

    def test_ratio_stable_for_large_m(self):
        # the individual Gamma values overflow well before M = 400
        r = _gamma_ratio(400)
        assert 0.0 < r < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_half_integer(0)


class TestRealBound:
    def test_m2_reduces_to_cos_pi_over_n(self):
        for n in range(2, 101):
            assert real_bound(2, n) == pytest.approx(math.cos(math.pi / n), abs=1e-12)

    def test_pentagon_value(self):
        assert real_bound(2, 5) == pytest.approx(math.cos(math.pi / 5), abs=1e-12)
        assert real_bound(2, 5) == pytest.approx(0.8090, abs=5e-5)

    def test_m2_monotone_in_n(self):
        vals = [real_bound(2, n) for n in range(2, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_exponential_n_trend(self):
        # N = 4^M: approaches cos(pi/4) from above as M grows
        target = math.cos(math.pi / 4)
        vals = [real_bound(m, 4**m) for m in (4, 8, 12, 16)]
        gaps = [v - target for v in vals]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05

    def test_dominates_complex_bound_asymptotically(self):
        # cos(pi/a) >= 1 - 2/a for all a >= 2
        for a in np.linspace(2.0, 100.0, 197):
            assert math.cos(math.pi / a) >= 1.0 - 2.0 / a - 1e-12

    def test_m1_errors(self):
        with pytest.raises(ValueError, match="undefined"):
            real_bound(1, 5)


class TestBound3d:
    def test_values(self):
        assert bound_3d(4) == pytest.approx(0.125, abs=1e-15)
        assert bound_3d(2) == pytest.approx(-0.5, abs=1e-15)

    def test_tetrahedron_respects_bound(self):
        mu = worst_case_coherence(tetrahedron_frame())
        assert mu == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert mu >= bound_3d(4) - 1e-12


class TestBoundTable:
    def test_figure_ordering_m3(self):
        for n, w, c, r, d in bound_table(3, range(3, 56)):
            assert max(w, r, d) > c, f"ordering fails at N={n}"

    def test_m2_real_column(self):
        for n, _, _, r, d in bound_table(2, range(3, 11)):
            assert r == pytest.approx(math.cos(math.pi / n), abs=1e-12)
            assert d is None

    def test_spot_check_m3_n9(self):
        (_, w, c, r, d), = bound_table(3, [9])
        assert w == pytest.approx(0.5, rel=1e-12)  # sqrt(6/24)
        assert c == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_csv_format(self):
        text = ExperimentReport("bounds", list(BOUND_HEADER), bound_table(3, [3, 4])).csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "N,welch,complex,real,three_d"
        assert len(lines) == 3
        assert lines[1].startswith("3,")
        # all four numeric cells parse back
        cells = lines[2].split(",")
        assert len(cells) == 5
        float(cells[1]), float(cells[2]), float(cells[3]), float(cells[4])

    def test_csv_blank_three_d_for_other_m(self):
        rows = bound_table(4, [5, 6])
        assert [row[4] for row in rows] == [None, None]
        text = ExperimentReport("bounds", list(BOUND_HEADER), rows).csv_text()
        for line in text.strip().split("\n")[1:]:
            assert line.endswith(",")

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_table(3, [])
        with pytest.raises(ValueError):
            bound_table(1, [4])


class TestUniversality:
    """Measured coherence never falls below any applicable bound."""

    def _check(self, frame):
        m, n = frame.rows, frame.cols
        mu = worst_case_coherence(frame)
        assert mu >= welch_bound(m, n) - 1e-12
        if m >= 2:
            assert mu >= complex_bound(m, n) - 1e-12
            if not frame.is_complex:
                assert mu >= real_bound(m, n) - 1e-12
        if m == 3 and not frame.is_complex:
            assert mu >= bound_3d(n) - 1e-12

    def test_zoo(self):
        zoo = [
            mercedes_frame(),
            tetrahedron_frame(),
            load_flip_demo(),
            Frame(np.eye(6)),
            build_gaussian(GaussianFrameSpec(8, 40, seed=0)),
            build_gaussian(GaussianFrameSpec(3, 30, seed=1)),
            build_harmonic(HarmonicFrameSpec(64, 12, seed=2))[0],
            build_code_frame(CodeFrameSpec(4, 1)),
            random_frame(5, 25, seed=3, complex_=True),
            random_frame(2, 9, seed=4),
        ]
        for frame in zoo:
            self._check(frame)
