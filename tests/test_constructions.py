"""Gaussian, harmonic, and code-based frame constructions."""
import math
import warnings

import numpy as np
import pytest

from framecoh import (
    CodeFrameSpec,
    Frame,
    GaussianFrameSpec,
    HarmonicFrameSpec,
    average_coherence,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    gram,
    harmonic_frame_from_rows,
    spectral_norm,
    worst_case_coherence,
    xor_stationary_coherence,
)
from framecoh.constructions import MAX_CODE_COLUMNS


class TestGaussian:
    def test_deterministic(self):
        spec = GaussianFrameSpec(4, 8, seed=123)
        f1 = build_gaussian(spec)
        f2 = build_gaussian(spec)
        assert np.array_equal(f1.data, f2.data)

    def test_seeds_differ(self):
        f1 = build_gaussian(GaussianFrameSpec(4, 8, seed=1))
        f2 = build_gaussian(GaussianFrameSpec(4, 8, seed=2))
        assert not np.array_equal(f1.data, f2.data)

    def test_unit_columns(self):
        f = build_gaussian(GaussianFrameSpec(16, 64, seed=5))
        assert np.allclose(np.linalg.norm(f.data, axis=0), 1.0, atol=1e-10)

    def test_tiny_column_normalizes_without_redraw(self, monkeypatch):
        # one draw, whatever its norms: a column of norm ~1e-13 keeps its
        # direction and comes out unit-norm, with no warning and no redraw
        default_rng = np.random.default_rng
        drawn = []

        class TinyThirdColumn:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, shape):
                g = self.rng.standard_normal(shape)
                g[:, 2] *= 1e-13
                drawn.append(g.copy())
                return g

        monkeypatch.setattr(np.random, "default_rng", TinyThirdColumn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = build_gaussian(GaussianFrameSpec(4, 8, seed=3))
        (g,) = drawn
        assert 0 < np.linalg.norm(g[:, 2]) < 1e-12
        assert np.array_equal(frame.data, g / np.linalg.norm(g, axis=0))
        assert abs(np.linalg.norm(frame.data[:, 2]) - 1.0) <= 1e-15
        direction = default_rng(3).standard_normal((4, 8))[:, 2]
        assert np.allclose(frame.data[:, 2], direction / np.linalg.norm(direction),
                           rtol=0, atol=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianFrameSpec(0, 8)
        with pytest.raises(ValueError):
            GaussianFrameSpec(4, 1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            GaussianFrameSpec(4, 8, seed=-1)

    def test_regime_flag(self):
        # 60 ln 2048 = 457.5 <= 512, but 512 > (2048-1)/(4 ln 2048) = 67.1
        assert not GaussianFrameSpec(512, 2048).regime_ok()
        assert not GaussianFrameSpec(64, 2048).regime_ok()
        # a genuinely in-regime point needs N ~ 26000
        assert GaussianFrameSpec(611, 26000).regime_ok()


class TestHarmonic:
    def test_tightness_every_sample(self):
        for seed in range(6):
            frame, kept = build_harmonic(HarmonicFrameSpec(128, 16, seed=seed))
            sn2 = spectral_norm(frame) ** 2
            assert abs(sn2 - 128 / kept.size) <= 1e-9

    def test_entry_modulus(self):
        frame, kept = build_harmonic(HarmonicFrameSpec(64, 8, seed=3))
        assert np.allclose(np.abs(frame.data), 1.0 / math.sqrt(kept.size), atol=1e-12)

    def test_full_row_set_is_orthonormal(self):
        frame = harmonic_frame_from_rows(32, range(32))
        assert worst_case_coherence(frame) <= 1e-12
        assert spectral_norm(frame) == pytest.approx(1.0, rel=1e-10)

    def test_deterministic(self):
        spec = HarmonicFrameSpec(256, 32, seed=11)
        f1, k1 = build_harmonic(spec)
        f2, k2 = build_harmonic(spec)
        assert np.array_equal(k1, k2)
        assert np.array_equal(f1.data, f2.data)

    def test_empty_selection_reseeds_with_warning(self):
        # target_rows=1 leaves each draw empty with probability ~1/e; find a
        # seed whose first draw is empty, then check the reseed path
        seed = next(
            s for s in range(200)
            if not np.any(np.random.default_rng(s).random(40) < 1 / 40)
        )
        with pytest.warns(RuntimeWarning, match="empty harmonic row selection"):
            frame, kept = build_harmonic(HarmonicFrameSpec(40, 1, seed=seed))
        assert kept.size >= 1
        assert np.allclose(np.linalg.norm(frame.data, axis=0), 1.0, atol=1e-10)

    def test_row_validation(self):
        with pytest.raises(ValueError):
            harmonic_frame_from_rows(16, [])
        with pytest.raises(ValueError):
            harmonic_frame_from_rows(16, [16])
        with pytest.raises(ValueError):
            HarmonicFrameSpec(16, 17)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            HarmonicFrameSpec(16, 4, seed=-1)

    def test_regime_flag(self):
        assert not HarmonicFrameSpec(1024, 64).regime_ok()  # 16 ln 1024 = 110.9 > 64
        assert HarmonicFrameSpec(1024, 128).regime_ok()


class TestCodeFrame:
    def test_shape_and_entry_values(self):
        frame = build_code_frame(CodeFrameSpec(4, 1))
        assert frame.rows == 16 and frame.cols == 256
        assert np.all(np.isin(frame.data, [0.25, -0.25]))

    def test_shape_5_1(self):
        frame = build_code_frame(CodeFrameSpec(5, 1))
        assert frame.rows == 32 and frame.cols == 1024
        assert np.allclose(np.abs(frame.data), 2.0 ** -2.5, atol=1e-15)

    @pytest.mark.parametrize("m,t", [(4, 1), (5, 1)])
    def test_geometry_claims_small_cases(self, m, t):
        # tightness, mu, and nu bounds by direct exhaustive computation
        frame = build_code_frame(CodeFrameSpec(m, t))
        sn2 = spectral_norm(frame) ** 2
        assert abs(sn2 - 2 ** (t * m)) <= 1e-9
        mu = worst_case_coherence(frame)
        nu = average_coherence(frame)
        assert mu <= 1.0 / math.sqrt(2 ** (m - 2 * t - 1)) + 1e-12
        assert nu <= mu / math.sqrt(2**m) + 1e-12

    @pytest.mark.parametrize("m,t", [(4, 1), (5, 1)])
    def test_xor_stationary_shortcut_matches_generic(self, m, t):
        frame = build_code_frame(CodeFrameSpec(m, t))
        mu_fast, nu_fast = xor_stationary_coherence(frame)
        # an untagged copy takes the dense Gram, the generic reference
        plain = Frame(frame.data, normalize=False)
        assert mu_fast == pytest.approx(worst_case_coherence(plain), abs=1e-12)
        assert nu_fast == pytest.approx(average_coherence(plain), abs=1e-12)

    def test_gram_is_xor_stationary(self):
        frame = build_code_frame(CodeFrameSpec(4, 1))
        g = gram(frame)
        w = g[0]
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = (int(v) for v in rng.integers(0, 256, 2))
            assert g[a, b] == pytest.approx(w[a ^ b], abs=1e-12)

    def test_deterministic(self):
        f1 = build_code_frame(CodeFrameSpec(4, 1))
        f2 = build_code_frame(CodeFrameSpec(4, 1))
        assert np.array_equal(f1.data, f2.data)

    def test_alternative_modulus_keeps_geometry(self):
        # x^4 + x^3 + 1 is the other degree-4 irreducible trinomial
        frame = build_code_frame(CodeFrameSpec(4, 1, poly=0b11001))
        default = build_code_frame(CodeFrameSpec(4, 1))
        assert not np.array_equal(frame.data, default.data)
        mu = worst_case_coherence(frame)
        assert abs(spectral_norm(frame) ** 2 - 16) <= 1e-9
        assert mu <= 1.0 / math.sqrt(2) + 1e-12
        assert average_coherence(frame) <= mu / 4.0 + 1e-12

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            build_code_frame(CodeFrameSpec(4, 1, poly=0b10001))

    def test_column_guard(self):
        spec = CodeFrameSpec(5, 5)  # 2^30 columns
        with pytest.raises(ValueError, match="guard"):
            build_code_frame(spec)
        assert spec.cols > MAX_CODE_COLUMNS

    def test_column_encoding_alpha0_fastest(self):
        # columns c and c + 1 differ only in alpha_0 when (c mod 2^m) < 2^m - 1;
        # alpha_0 enters through Tr(alpha_0 x), linear in x, so the entry ratio
        # between such columns is a fixed +/-1 pattern over rows independent
        # of the alpha_1 part: spot-check against scalar evaluation
        from framecoh.gf2m import GF2m, gf2m_mul, gf2m_trace

        m, t = 3, 1
        frame = build_code_frame(CodeFrameSpec(m, t))
        poly = GF2m(m).poly
        scale = 2.0 ** (-m / 2)
        rng = np.random.default_rng(1)
        for _ in range(64):
            c = int(rng.integers(0, frame.cols))
            a0 = c & 7
            a1 = (c >> 3) & 7
            x = int(rng.integers(0, 8))
            x3 = gf2m_mul(gf2m_mul(x, x, poly), x, poly)
            bit = (gf2m_trace(gf2m_mul(a0, x, poly), poly)
                   ^ gf2m_trace(gf2m_mul(a1, x3, poly), poly))
            expected = -scale if bit else scale
            assert frame.data[x, c] == pytest.approx(expected, abs=1e-15)
