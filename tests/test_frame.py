"""Frame construction, coherence parameters, spectral norm, SCP verdicts."""
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import mercedes_frame, random_frame
from framecoh import (
    COMPLEX,
    REAL,
    CodeFrameSpec,
    FlipPattern,
    Frame,
    GaussianFrameSpec,
    apply_flip,
    average_coherence,
    build_code_frame,
    build_gaussian,
    gram,
    harmonic_frame_from_rows,
    load_flip_demo,
    scp_check,
    spectral_norm,
    worst_case_coherence,
)


class TestConstruction:
    def test_normalizes_columns(self):
        rng = np.random.default_rng(3)
        arr = 7.5 * rng.standard_normal((6, 11))
        f = Frame(arr)
        assert np.allclose(np.linalg.norm(f.data, axis=0), 1.0, atol=1e-10)
        assert f.rows == 6 and f.cols == 11 and f.scalar_field == REAL

    def test_complex_field_detected(self):
        f = random_frame(4, 9, seed=1, complex_=True)
        assert f.scalar_field == COMPLEX
        assert np.allclose(np.linalg.norm(f.data, axis=0), 1.0, atol=1e-10)

    def test_zero_column_rejected(self):
        arr = np.eye(3)
        arr[:, 1] = 0.0
        with pytest.raises(ValueError, match="exactly zero"):
            Frame(arr)

    def test_nonfinite_rejected(self):
        arr = np.eye(3)
        arr[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Frame(arr)

    def test_validate_only_mode_rejects_off_norm(self):
        with pytest.raises(ValueError, match="not unit"):
            Frame(2.0 * np.eye(3), normalize=False)

    def test_validate_only_mode_keeps_bits(self):
        arr = np.eye(4)
        f = Frame(arr, normalize=False)
        assert np.array_equal(f.data, arr)

    def test_immutable(self):
        f = random_frame(3, 5, seed=0)
        with pytest.raises(ValueError):
            f.data[0, 0] = 2.0
        with pytest.raises(AttributeError):
            f.data = np.eye(3)

    def test_rank_query(self):
        f = Frame(np.eye(4))
        assert f.rank() == 4
        # rank-deficient frames are allowed
        arr = np.ones((3, 5))
        assert Frame(arr).rank() == 1

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            Frame(np.ones(4))


class TestGram:
    def test_orthonormal_basis(self):
        f = Frame(np.eye(3))
        assert np.allclose(gram(f), np.eye(3), atol=1e-15)

    def test_mercedes_offdiagonal(self):
        g = gram(mercedes_frame())
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5, atol=1e-12)
        assert np.allclose(np.diag(g), 1.0, atol=1e-10)

    def test_demo_frame_entries_are_odd_fifths(self):
        g = gram(load_flip_demo())
        assert np.allclose(np.diag(g), 1.0, atol=1e-10)
        off = g[~np.eye(10, dtype=bool)]
        # inner products of +/-1 sign patterns over 5 coordinates: odd/5
        assert np.all(np.isin(np.rint(off * 5.0), [-5, -3, -1, 1, 3, 5]))
        assert np.allclose(off * 5.0, np.rint(off * 5.0), atol=1e-9)

    def test_conjugate_symmetry(self):
        f = random_frame(5, 12, seed=9, complex_=True)
        g = gram(f)
        assert np.allclose(g, g.conj().T, atol=1e-14)

    def test_matches_pairwise_inner_products(self):
        # independent path: explicit per-pair vdot
        f = random_frame(4, 7, seed=11, complex_=True)
        g = gram(f)
        for i in range(7):
            for j in range(7):
                direct = np.vdot(f.column(i), f.column(j))
                assert abs(g[i, j] - direct) <= 1e-12


class TestWorstCaseCoherence:
    def test_orthonormal_is_zero(self):
        assert worst_case_coherence(Frame(np.eye(5))) == pytest.approx(0.0, abs=1e-15)

    def test_mercedes(self):
        assert worst_case_coherence(mercedes_frame()) == pytest.approx(0.5, abs=1e-12)

    def test_single_vector_errors(self):
        with pytest.raises(ValueError, match="single vector"):
            worst_case_coherence(Frame(np.ones((3, 1))))

    def test_demo_frame(self):
        f = load_flip_demo()
        mu = worst_case_coherence(f)
        assert mu == pytest.approx(0.6, abs=1e-12)
        assert mu / math.sqrt(5) == pytest.approx(0.2683, abs=5e-4)

    def test_equals_max_offdiagonal_gram(self):
        f = random_frame(6, 15, seed=2)
        g = np.abs(gram(f))
        np.fill_diagonal(g, 0)
        assert worst_case_coherence(f) == pytest.approx(g.max(), abs=1e-12)


class TestAverageCoherence:
    def test_orthonormal_is_zero(self):
        assert average_coherence(Frame(np.eye(4))) == pytest.approx(0.0, abs=1e-15)

    def test_mercedes(self):
        # each off-diagonal row sum is -1; (1/2) * 1 = 0.5
        assert average_coherence(mercedes_frame()) == pytest.approx(0.5, abs=1e-12)

    def test_demo_frame_exact_fraction_oracle(self):
        # independent oracle: exact rational arithmetic on the sign matrix
        f = load_flip_demo()
        signs = np.rint(f.data * math.sqrt(5)).astype(int)
        assert np.all(np.abs(signs) == 1)
        n = signs.shape[1]
        sums = []
        for i in range(n):
            total = Fraction(0)
            for j in range(n):
                if j != i:
                    total += Fraction(int(signs[:, i] @ signs[:, j]), 5)
            sums.append(abs(total))
        nu_exact = Fraction(max(sums), n - 1)
        assert nu_exact == Fraction(17, 45)
        assert average_coherence(f) == pytest.approx(float(nu_exact), abs=1e-12)
        assert average_coherence(f) == pytest.approx(0.3778, abs=5e-4)

    def test_single_vector_errors(self):
        with pytest.raises(ValueError, match="single vector"):
            average_coherence(Frame(np.ones((3, 1))))

    def test_permutation_invariance_of_mu_and_nu(self):
        for seed in range(4):
            f = random_frame(5, 11, seed=seed, complex_=bool(seed % 2))
            rng = np.random.default_rng(100 + seed)
            perm = rng.permutation(11)
            fp = Frame(f.data[:, perm], normalize=False)
            assert worst_case_coherence(fp) == pytest.approx(worst_case_coherence(f), abs=1e-12)
            assert average_coherence(fp) == pytest.approx(average_coherence(f), abs=1e-12)

    def test_flips_preserve_mu_but_not_nu(self):
        f = load_flip_demo()
        pattern = FlipPattern.from_string("+-+--++-++")
        flipped = apply_flip(f, pattern)
        assert worst_case_coherence(flipped) == pytest.approx(
            worst_case_coherence(f), abs=1e-12
        )
        # nu moves: 17/45 -> 7/45
        assert abs(average_coherence(flipped) - average_coherence(f)) > 0.2


class TestSpectralNorm:
    def test_orthonormal_basis(self):
        assert spectral_norm(Frame(np.eye(6))) == pytest.approx(1.0, rel=1e-10)

    def test_mercedes_is_tight(self):
        sn = spectral_norm(mercedes_frame())
        assert sn == pytest.approx(math.sqrt(1.5), rel=1e-10)
        assert mercedes_frame().is_tight()

    def test_full_dft_tight(self):
        n = 16
        k = np.arange(n)
        u = np.exp(2j * np.pi * np.outer(k, k) / n)
        f = Frame(u)
        assert spectral_norm(f) ** 2 == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize(
        "m,n,cplx,seed",
        [(8, 24, False, 0), (16, 64, False, 1), (24, 11, False, 2),
         (12, 40, True, 3), (64, 64, True, 4), (1, 8, False, 5)],
    )
    def test_matches_dense_eigensolve(self, m, n, cplx, seed):
        f = random_frame(m, n, seed=seed, complex_=cplx)
        w = np.linalg.eigvalsh(f.data.conj().T @ f.data)
        dense = math.sqrt(max(float(w.max()), 0.0))
        assert spectral_norm(f) == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_meets_documented_tol_on_gaussian(self, seed):
        f = build_gaussian(GaussianFrameSpec(128, 512, seed))
        dense = math.sqrt(float(np.linalg.eigvalsh(f.data @ f.data.T).max()))
        assert abs(spectral_norm(f) - dense) <= 1e-10 * dense

    def test_analytic_harmonic_drop_one_row(self):
        n = 256
        f = harmonic_frame_from_rows(n, np.arange(1, n))
        assert spectral_norm(f) == pytest.approx(math.sqrt(n / (n - 1)), rel=1e-12)

    def test_analytic_code_frame(self):
        m, t = 5, 2
        f = build_code_frame(CodeFrameSpec(m, t))
        assert spectral_norm(f) == pytest.approx(math.sqrt(2.0 ** (t * m)), rel=1e-12)

    def test_tightness_lower_bound(self):
        for seed in range(5):
            f = random_frame(6, 20, seed=seed)
            assert spectral_norm(f) ** 2 >= 20 / 6 - 1e-9

    def test_tol_validation(self):
        with pytest.raises(ValueError, match="tol"):
            spectral_norm(Frame(np.eye(3)), tol=0.0)


class TestScpCheck:
    def test_orthonormal_passes_both(self):
        report = scp_check(Frame(np.eye(8)))
        assert report.scp1 and report.scp2
        assert report.mu == pytest.approx(0.0, abs=1e-12)
        assert report.nu == pytest.approx(0.0, abs=1e-12)

    def test_demo_frame_fails_scp2(self):
        report = scp_check(load_flip_demo())
        assert not report.scp2
        assert report.nu == pytest.approx(0.3778, abs=5e-4)
        assert report.mu / math.sqrt(5) == pytest.approx(0.2683, abs=5e-4)

    def test_flipped_demo_passes_scp2(self):
        flipped = apply_flip(load_flip_demo(), FlipPattern.from_string("+-+--++-++"))
        report = scp_check(flipped)
        assert report.scp2
        assert report.nu == pytest.approx(0.1556, abs=5e-4)

    def test_single_vector_propagates(self):
        with pytest.raises(ValueError, match="single vector"):
            scp_check(Frame(np.ones((2, 1))))
