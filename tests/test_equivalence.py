"""Wiggling/flipping equivalence, greedy flipping, exhaustive oracle."""
import math

import numpy as np
import pytest

from conftest import random_frame
from framecoh import (
    FlipPattern,
    Frame,
    WigglePattern,
    apply_flip,
    apply_wiggle,
    average_coherence,
    equivalence,
    exhaustive_flip_oracle,
    linear_time_flip,
    load_flip_demo,
    spectral_norm,
    worst_case_coherence,
)


def _nu_by_hand(data):
    """Independent average-coherence evaluation: explicit double loop."""
    n = data.shape[1]
    worst = 0.0
    for i in range(n):
        total = 0.0 + 0.0j
        for j in range(n):
            if j != i:
                total += np.vdot(data[:, i], data[:, j])
        worst = max(worst, abs(total))
    return worst / (n - 1)


class TestPatterns:
    def test_flip_pattern_validation(self):
        with pytest.raises(ValueError, match="exactly"):
            FlipPattern(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            FlipPattern(np.ones((2, 2)))

    def test_flip_pattern_string_round_trip(self):
        p = FlipPattern.from_string("+-+--++-++")
        assert p.to_string() == "+-+--++-++"
        assert len(p) == 10
        with pytest.raises(ValueError):
            FlipPattern.from_string("+-x")
        with pytest.raises(ValueError):
            FlipPattern.from_string("")

    def test_wiggle_pattern_validation(self):
        WigglePattern(np.exp(1j * np.linspace(0, 3, 7)))
        with pytest.raises(ValueError, match="modulus"):
            WigglePattern(np.array([1.0, 0.9]))


class TestApply:
    def test_identity_wiggle(self):
        f = random_frame(4, 9, seed=0, complex_=True)
        g = apply_wiggle(f, WigglePattern(np.ones(9)))
        assert np.array_equal(f.data, g.data)

    def test_length_mismatch(self):
        f = random_frame(3, 5, seed=1)
        with pytest.raises(ValueError, match="length"):
            apply_wiggle(f, WigglePattern(np.ones(4)))
        with pytest.raises(ValueError, match="length"):
            apply_flip(f, FlipPattern(np.ones(6)))

    def test_wiggle_preserves_norms_mu_spectral(self):
        # the shared geometry of wiggling-equivalent frames
        for seed in range(5):
            f = random_frame(5, 12, seed=seed, complex_=bool(seed % 2))
            rng = np.random.default_rng(50 + seed)
            pattern = WigglePattern(np.exp(2j * np.pi * rng.random(12)))
            g = apply_wiggle(f, pattern)
            assert np.allclose(
                np.linalg.norm(g.data, axis=0), np.linalg.norm(f.data, axis=0), atol=1e-12
            )
            assert worst_case_coherence(g) == pytest.approx(
                worst_case_coherence(f), abs=1e-12
            )
            # tight power-iteration tolerance so the measurement itself
            # does not spend the 1e-12 budget
            assert spectral_norm(g, tol=1e-14) == pytest.approx(
                spectral_norm(f, tol=1e-14), abs=1e-12
            )

    def test_global_sign_change_preserves_nu_too(self):
        for seed in range(3):
            f = random_frame(5, 12, seed=seed)
            g = apply_flip(f, FlipPattern(-np.ones(12)))
            assert average_coherence(g) == pytest.approx(average_coherence(f), abs=1e-12)
            assert worst_case_coherence(g) == pytest.approx(
                worst_case_coherence(f), abs=1e-12
            )
            assert spectral_norm(g, tol=1e-14) == pytest.approx(
                spectral_norm(f, tol=1e-14), abs=1e-12
            )

    def test_wiggling_does_not_preserve_nu(self):
        # counterexample required: the bundled demo frame under its greedy
        # flip pattern (a wiggle with +/-1 phases) changes nu
        f = load_flip_demo()
        pattern = WigglePattern(FlipPattern.from_string("+-+--++-++").signs.astype(complex))
        g = apply_wiggle(f, pattern)
        assert abs(average_coherence(g) - average_coherence(f)) > 0.2

    def test_flip_involution_is_exact(self):
        for seed in range(4):
            f = random_frame(6, 10, seed=seed, complex_=bool(seed % 2))
            rng = np.random.default_rng(200 + seed)
            pattern = FlipPattern(np.where(rng.random(10) < 0.5, 1.0, -1.0))
            g = apply_flip(apply_flip(f, pattern), pattern)
            assert np.array_equal(g.data, f.data)
            assert g.data.dtype == f.data.dtype


class TestLinearTimeFlip:
    def test_demo_frame_pattern_and_nu(self):
        f = load_flip_demo()
        flipped, pattern = linear_time_flip(f)
        assert pattern.to_string() == "+-+--++-++"
        nu = average_coherence(flipped)
        assert nu == pytest.approx(7.0 / 45.0, abs=1e-12)
        assert nu == pytest.approx(0.1556, abs=5e-4)
        # against the independent double-loop evaluation
        assert nu == pytest.approx(_nu_by_hand(flipped.data), abs=1e-12)
        # flipping preserves mu and the spectral norm
        assert worst_case_coherence(flipped) == pytest.approx(
            worst_case_coherence(f), abs=1e-12
        )
        assert spectral_norm(flipped, tol=1e-14) == pytest.approx(
            spectral_norm(f, tol=1e-14), abs=1e-12
        )

    def test_orthonormal_ties_keep_everything(self):
        f = Frame(np.eye(7))
        flipped, pattern = linear_time_flip(f)
        assert pattern.to_string() == "+" * 7
        assert np.array_equal(flipped.data, f.data)

    def test_guarantee_in_regime(self):
        # N >= M^2 + 3M + 3 ensures nu <= mu/sqrt(M) after flipping
        m, n = 5, 50
        assert n >= m * m + 3 * m + 3
        for seed in range(10):
            f = random_frame(m, n, seed=300 + seed)
            flipped, _ = linear_time_flip(f)
            assert average_coherence(flipped) <= worst_case_coherence(flipped) / math.sqrt(m) + 1e-12

    def test_single_column(self):
        f = Frame(np.ones((3, 1)))
        flipped, pattern = linear_time_flip(f)
        assert pattern.to_string() == "+"
        assert np.array_equal(flipped.data, f.data)

    def test_complex_frame_signs_stay_real(self):
        f = random_frame(4, 30, seed=9, complex_=True)
        flipped, pattern = linear_time_flip(f)
        assert set(np.unique(pattern.signs)) <= {-1.0, 1.0}
        assert worst_case_coherence(flipped) == pytest.approx(
            worst_case_coherence(f), abs=1e-12
        )


# exhaustive_flip_oracle(random_frame(m, n, seed, complex_)): min_nu.hex() and
# the pattern, bit for bit, as computed when each block built its sign table
# row by row and scored it against G^T
FROZEN_ORACLE = [
    (1, 2, 0, False, "0x1.0000000000000p+0", "++"),
    (2, 3, 1, False, "0x1.2afb14d1723bcp-1", "+++"),
    (2, 3, 2, True, "0x1.ca8aaaa593aa2p-1", "+++"),
    (3, 8, 3, False, "0x1.779896debbe9ep-3", "++---+++"),
    (2, 8, 4, True, "0x1.716cfd517d9ebp-3", "++-+----"),
    (4, 12, 5, False, "0x1.d2edd9825bdaap-4", "+-+-+--+++-+"),
    (3, 12, 6, True, "0x1.fa976f0fe6fe9p-4", "+----+----+-"),
    (5, 12, 7, False, "0x1.59de58b417374p-4", "+---+-++-+++"),
    (4, 16, 8, False, "0x1.46d37abc55d06p-4", "++++-++-+++-++--"),
    (3, 16, 9, True, "0x1.5aa4ad0580712p-4", "+-+++-++++--+-++"),
    (6, 16, 10, False, "0x1.4275e153be16ep-4", "++------+--++--+"),
    (2, 16, 11, True, "0x1.3c6d38c1d8704p-4", "++++-+-++--+----"),
]


class TestExhaustiveOracle:
    def test_demo_frame_minimum(self):
        f = load_flip_demo()
        _, pattern, min_nu = exhaustive_flip_oracle(f)
        assert min_nu <= 0.1556 + 1e-9
        # frozen from an independent brute force over all 2^10 sign vectors
        assert min_nu == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert pattern.signs[0] == 1.0

    def test_matches_full_brute_force_without_fixed_first_sign(self):
        f = load_flip_demo()
        _, _, min_nu = exhaustive_flip_oracle(f)
        data = f.data
        best = np.inf
        for bits in range(1 << 10):
            signs = np.array([1.0 if (bits >> j) & 1 == 0 else -1.0 for j in range(10)])
            best = min(best, _nu_by_hand(data * signs))
        assert min_nu == pytest.approx(best, abs=1e-12)

    def test_never_above_greedy(self):
        for seed in range(5):
            f = random_frame(4, 12, seed=400 + seed)
            flipped, _ = linear_time_flip(f)
            _, _, min_nu = exhaustive_flip_oracle(f)
            assert min_nu <= average_coherence(flipped) + 1e-9

    def test_returned_frame_matches_reported_nu(self):
        f = random_frame(3, 10, seed=7, complex_=True)
        best, pattern, min_nu = exhaustive_flip_oracle(f)
        assert average_coherence(best) == pytest.approx(min_nu, abs=1e-12)
        assert np.array_equal(best.data, apply_flip(f, pattern).data)

    def test_deterministic_tie_breaking(self):
        f = Frame(np.eye(5))  # every pattern ties at nu = 0 -> lowest index wins
        _, pattern, min_nu = exhaustive_flip_oracle(f)
        assert min_nu == pytest.approx(0.0, abs=1e-15)
        assert pattern.to_string() == "+" * 5

    def test_guard(self):
        f = random_frame(2, 25, seed=1)
        with pytest.raises(ValueError, match="guarded at N <= 24"):
            exhaustive_flip_oracle(f)

    def test_chunking_consistent(self, monkeypatch):
        f = random_frame(3, 11, seed=12)
        full = exhaustive_flip_oracle(f)
        monkeypatch.setattr(equivalence, "_ORACLE_CHUNK", 16)
        small = exhaustive_flip_oracle(f)
        assert full[2] == small[2]
        assert full[1].to_string() == small[1].to_string()

    @pytest.mark.parametrize("m, n, seed, complex_, nu_hex, pattern", FROZEN_ORACLE)
    def test_oracle_bits_frozen(self, m, n, seed, complex_, nu_hex, pattern, monkeypatch):
        f = random_frame(m, n, seed=seed, complex_=complex_)
        _, found, min_nu = exhaustive_flip_oracle(f)
        assert min_nu.hex() == nu_hex
        assert found.to_string() == pattern
        # any block size scores the same patterns with the same arithmetic
        monkeypatch.setattr(equivalence, "_ORACLE_CHUNK", 64)
        _, found, min_nu = exhaustive_flip_oracle(f)
        assert (min_nu.hex(), found.to_string()) == (nu_hex, pattern)


class TestOutOfRegimeInformational:
    def test_existence_regime_is_desk_infeasible(self):
        # the existential flipping guarantee regime M < (N-1)/(4 ln 4N) needs
        # N >~ 110 even for M = 4, far beyond the 2^(N-1) oracle guard; record
        # the regime arithmetic and the (unasserted) out-of-regime behaviour
        m, n = 4, 16
        assert m >= (n - 1) / (4 * math.log(4 * n))  # out of regime at oracle scale
        f = random_frame(m, n, seed=77)
        _, _, min_nu = exhaustive_flip_oracle(f)
        mu = worst_case_coherence(f)
        # informational only: no assertion tying min_nu to mu/sqrt(M) here
        assert min_nu >= 0.0 and mu <= 1.0

    def test_trivial_in_regime_instance(self):
        # M = 1, N = 20 does satisfy M < (N-1)/(4 ln 4N) = 1.084; every 1 x N
        # unit-norm frame has mu = 1 and nu <= 1, so the guarantee is checkable
        m, n = 1, 20
        assert m < (n - 1) / (4 * math.log(4 * n))
        f = random_frame(m, n, seed=5)
        _, _, min_nu = exhaustive_flip_oracle(f)
        assert min_nu <= worst_case_coherence(f) / math.sqrt(m) + 1e-12
