"""Sparse model, OST threshold/recovery, floors, error bounds, Weak RIP."""
import math

import numpy as np
import pytest

from conftest import random_frame
from framecoh import (
    OST_C1,
    OST_C2,
    OST_C3,
    FlatAmplitudes,
    Frame,
    GaussianFrameSpec,
    NoiseModel,
    SparseSignal,
    TwoTierAmplitudes,
    build_gaussian,
    check_rsp_bounds,
    floor_sets,
    generate_problem,
    harmonic_frame_from_rows,
    noise_floor_threshold,
    ost_recover,
    ost_threshold,
    ost_trial,
    scp_check,
    snr_of,
    trial_seed,
    weak_rip_estimate,
    worst_case_coherence,
)
from framecoh import average_coherence


class TestSparseSignal:
    def test_dense_round_trip(self):
        x = SparseSignal(8, [5, 1], [1.0 + 0j, 2.0 - 1j])
        d = x.dense()
        assert d[1] == 2.0 - 1j and d[5] == 1.0 + 0j
        assert np.count_nonzero(d) == 2
        assert x.sparsity == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSignal(4, [0, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            SparseSignal(4, [4], [1.0])
        with pytest.raises(ValueError):
            SparseSignal(2, [0, 1, 1], [1.0, 2.0, 3.0])

    def test_noise_model(self):
        e = NoiseModel(4.0, seed=3).sample(20000)
        # complex variance sigma^2: halves in each part
        assert np.var(e.real) == pytest.approx(2.0, rel=0.05)
        assert np.var(e.imag) == pytest.approx(2.0, rel=0.05)
        with pytest.raises(ValueError):
            NoiseModel(-1.0)


class TestGenerateProblem:
    def test_noiseless_is_exact(self):
        f = random_frame(6, 12, seed=0)
        x, y = generate_problem(f, 3, FlatAmplitudes(2.0), NoiseModel(0.0, seed=1), seed=2)
        assert np.array_equal(y, f.data @ x.dense())

    def test_deterministic(self):
        f = random_frame(6, 12, seed=0)
        a = generate_problem(f, 3, FlatAmplitudes(1.0), NoiseModel(0.5, seed=1), seed=2)
        b = generate_problem(f, 3, FlatAmplitudes(1.0), NoiseModel(0.5, seed=1), seed=2)
        assert np.array_equal(a[0].dense(), b[0].dense())
        assert np.array_equal(a[1], b[1])

    def test_snr_definition(self):
        f = random_frame(4, 10, seed=3)
        x, _ = generate_problem(f, 2, FlatAmplitudes(3.0), NoiseModel(0.25, seed=4), seed=5)
        assert snr_of(x, 4, 0.25) == pytest.approx(
            np.linalg.norm(x.dense()) ** 2 / (4 * 0.25), rel=1e-12
        )

    def test_sparsity_guard(self):
        f = random_frame(4, 6, seed=1)
        with pytest.raises(ValueError, match="exceeds"):
            generate_problem(f, 7, FlatAmplitudes(1.0), NoiseModel(1.0), seed=0)

    def test_two_tier_magnitudes(self):
        law = TwoTierAmplitudes(alpha=8.0, low=0.5)
        vals = law.sample(np.random.default_rng(0), 5)
        mags = np.sort(np.abs(vals))[::-1]
        assert np.allclose(mags[:3], 8.0) and np.allclose(mags[3:], 0.5)

    @pytest.mark.parametrize("bad", [-3.0, 0.0, math.nan, math.inf])
    def test_amplitudes_reject_bad_magnitudes(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            FlatAmplitudes(bad)
        with pytest.raises(ValueError, match="alpha"):
            TwoTierAmplitudes(alpha=bad, low=0.5)
        if bad != 0.0:
            with pytest.raises(ValueError, match="low"):
                TwoTierAmplitudes(alpha=8.0, low=bad)
        else:
            assert TwoTierAmplitudes(alpha=8.0, low=bad).low == 0.0


class TestThreshold:
    def test_orthonormal_limit(self):
        lam = ost_threshold(mu=0.0, m=16, snr=4.0, sigma2=2.0, n=64, t=0.25)
        expected = math.sqrt(2 * 2.0 * math.log(64)) * math.sqrt(2.0) / 0.75
        assert lam == pytest.approx(expected, rel=1e-14)

    def test_closed_form_arithmetic(self):
        # independent evaluation of the printed formula at a worked point
        lam = ost_threshold(mu=0.1, m=100, snr=10.0, sigma2=1.0, n=1000, t=0.5)
        first = (10.0 / 0.5) * 0.1 * math.sqrt(100 * 10.0)
        second = math.sqrt(2.0) / 0.5
        expected = math.sqrt(2.0 * math.log(1000.0)) * max(first, second)
        assert lam == pytest.approx(expected, rel=1e-14)
        # the first max argument dominates here: 2 sqrt(1000) vs 2 sqrt(2)
        assert first == pytest.approx(2.0 * math.sqrt(1000.0), rel=1e-14)

    def test_sigma_scaling_when_noise_term_dominates(self):
        lam1 = ost_threshold(mu=0.0, m=8, snr=1.0, sigma2=1.0, n=32, t=0.5)
        lam4 = ost_threshold(mu=0.0, m=8, snr=1.0, sigma2=4.0, n=32, t=0.5)
        assert lam4 == pytest.approx(2.0 * lam1, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="t must"):
            ost_threshold(0.1, 4, 1.0, 1.0, 16, t=1.0)
        with pytest.raises(ValueError, match="sigma2"):
            ost_threshold(0.1, 4, 1.0, 0.0, 16, t=0.5)
        for snr in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="snr"):
                ost_threshold(0.1, 4, snr, 1.0, 16, t=0.5)
        assert ost_threshold(0.1, 4, 0.0, 1.0, 16, t=0.5) > 0


class TestRecovery:
    @pytest.mark.parametrize("lam", [1e-9, 0.3, 0.5, 0.999])
    def test_orthonormal_noiseless_exact(self, lam):
        # any threshold strictly between 0 and the smallest magnitude works
        f = Frame(np.eye(32), normalize=False)
        x, y = generate_problem(f, 5, FlatAmplitudes(1.0), NoiseModel(0.0, seed=1), seed=7)
        res = ost_recover(f, y, lam=lam)
        assert np.array_equal(res.support_estimate, x.support)
        assert np.linalg.norm(res.signal_estimate - x.dense()) <= 1e-12

    def test_threshold_above_proxy_gives_empty(self):
        f = random_frame(8, 20, seed=2)
        x, y = generate_problem(f, 3, FlatAmplitudes(1.0), NoiseModel(0.1, seed=3), seed=4)
        z = f.data.conj().T @ y
        res = ost_recover(f, y, lam=float(np.abs(z).max()) + 1.0)
        assert res.support_estimate.size == 0
        assert np.all(res.signal_estimate == 0)
        rsp = check_rsp_bounds(res, x, 0.1)
        assert rsp.l2_error == pytest.approx(np.linalg.norm(x.dense()), rel=1e-12)

    def test_proxy_scaling_invariance(self):
        f = random_frame(8, 20, seed=5)
        x, y = generate_problem(f, 3, FlatAmplitudes(1.0), NoiseModel(0.2, seed=6), seed=7)
        res1 = ost_recover(f, y, lam=0.7)
        res2 = ost_recover(f, 3.0 * y, lam=3.0 * 0.7)
        assert np.array_equal(res1.support_estimate, res2.support_estimate)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rank-deficient fallback
    def test_least_squares_residual_orthogonality(self):
        f = random_frame(16, 40, seed=8)
        x, y = generate_problem(f, 4, FlatAmplitudes(5.0), NoiseModel(0.5, seed=9), seed=10)
        res = ost_recover(f, y, lam=1.0)
        khat = res.support_estimate
        assert khat.size > 0
        resid = y - f.data[:, khat] @ res.signal_estimate[khat]
        assert np.max(np.abs(f.data[:, khat].conj().T @ resid)) <= 1e-8

    def test_rank_deficient_flagged(self):
        base = np.eye(4)[:, :3]
        dup = np.concatenate([base, base[:, :1]], axis=1)  # column 3 == column 0
        f = Frame(dup, normalize=False)
        y = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.warns(RuntimeWarning, match="rank"):
            res = ost_recover(f, y, lam=0.5)
        assert res.rank_deficient
        assert np.all(np.isfinite(res.signal_estimate))
        # minimum-norm solution splits energy across the duplicates
        assert res.signal_estimate[0] == pytest.approx(0.5, abs=1e-10)
        assert res.signal_estimate[3] == pytest.approx(0.5, abs=1e-10)

    def test_lam_validation(self):
        f = random_frame(3, 6, seed=0)
        with pytest.raises(ValueError, match="positive"):
            ost_recover(f, np.zeros(3), lam=0.0)


class TestFloors:
    def test_zero_signal_empty(self):
        fs, fm = floor_sets(np.zeros(16, dtype=complex), sigma2=1.0, mu=0.3, t=0.5)
        assert fs.size == 0 and fm.size == 0

    def test_noiseless_floor_is_support(self):
        x = SparseSignal(10, [2, 7], [1.0, -2.0])
        fs, _ = floor_sets(x, sigma2=0.0, mu=0.3, t=0.5)
        assert np.array_equal(fs, [2, 7])

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        x = np.zeros(30, dtype=complex)
        idx = rng.choice(30, 9, replace=False)
        x[idx] = rng.normal(0, 5, 9) + 1j * rng.normal(0, 5, 9)
        sigma2, mu, t = 0.8, 0.05, 0.4
        fs, fm = floor_sets(x, sigma2, mu, t)
        n = x.size
        tau_s = (2 * math.sqrt(2) / (1 - t)) * math.sqrt(2 * sigma2 * math.log(n))
        tau_m = (20 / t) * mu * np.linalg.norm(x) * math.sqrt(2 * math.log(n))
        assert list(fs) == [i for i in range(n) if abs(x[i]) > tau_s]
        assert list(fm) == [i for i in range(n) if abs(x[i]) > tau_m]
        assert noise_floor_threshold(sigma2, n, t) == pytest.approx(tau_s, rel=1e-14)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            floor_sets(np.ones(4), 1.0, 0.1, t=0.0)


class TestErrorBounds:
    def test_constants_match_closed_forms(self):
        e_half = math.exp(-0.5)
        assert OST_C1 == pytest.approx(37.0 * math.e, rel=1e-15)
        assert OST_C2 == pytest.approx(2.0 / (1.0 - e_half), rel=1e-14)
        assert OST_C3 == pytest.approx(1.0 + e_half / (1.0 - e_half), rel=1e-14)
        # algebraic cross-checks: c3 = 1/(1 - e^{-1/2}) and c2 = 2 c3
        assert OST_C3 == pytest.approx(1.0 / (1.0 - e_half), rel=1e-14)
        assert OST_C2 == pytest.approx(2.0 * OST_C3, rel=1e-14)
        # quoted to four decimals (truncated): 5.0829|88...
        assert OST_C2 == pytest.approx(5.0829, abs=1e-4)

    def test_exact_recovery_trivially_satisfies_bound(self):
        f = Frame(np.eye(16), normalize=False)
        x, y = generate_problem(f, 4, FlatAmplitudes(2.0), NoiseModel(0.0, seed=0), seed=1)
        res = ost_recover(f, y, lam=1.0)
        rsp = check_rsp_bounds(res, x, sigma2=0.1)
        assert rsp.l2_error <= 1e-12
        assert rsp.support_bound_ok

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rank-deficient fallback
    def test_check_leaves_result_unchanged(self):
        f = random_frame(12, 24, seed=12)
        x, y = generate_problem(f, 4, FlatAmplitudes(60.0), NoiseModel(1.0, seed=13), seed=14)
        res = ost_recover(f, y, lam=5.0)
        before = {key: np.copy(val) for key, val in vars(res).items()}
        check_rsp_bounds(res, x, 1.0)
        assert vars(res).keys() == before.keys()
        assert all(np.array_equal(val, before[key]) for key, val in vars(res).items())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rank-deficient fallback
    @pytest.mark.parametrize("law_name", ["flat", "two-tier"])
    @pytest.mark.parametrize("frame_name", ["gaussian-64x256", "gaussian-128x512", "identity-64"])
    def test_ok_implies_tterm_bound(self, frame_name, law_name):
        # ok (T within Khat within K, plus the support bound) implies the T-term
        # bound c2 sqrt(sigma^2 K ln N) + c3 ||x - x_T||, T = T_sigma & T_mu,
        # evaluated here from floor_sets alone
        frame, k = {
            "gaussian-64x256": (build_gaussian(GaussianFrameSpec(64, 256, 3)), 4),
            "gaussian-128x512": (build_gaussian(GaussianFrameSpec(128, 512, 5)), 8),
            # on the Gaussian frames T_mu, hence T, is empty at these sizes;
            # mu = 0 makes T = T_sigma, so here T is nonempty
            "identity-64": (Frame(np.eye(64), normalize=False), 6),
        }[frame_name]
        sigma2, t = 1.0, 0.5
        n = frame.cols
        mu = worst_case_coherence(frame)
        alpha = 10.0 * noise_floor_threshold(sigma2, n, t)
        law = {
            "flat": FlatAmplitudes(alpha),
            "two-tier": TwoTierAmplitudes(alpha, math.sqrt(2.0 * sigma2 * math.log(n))),
        }[law_name]
        oks = with_t = 0
        for i in range(60):
            signal_seed, noise_seed = trial_seed(7, 2 * i), trial_seed(7, 2 * i + 1)
            *_, l2_error, _, ok = ost_trial(
                frame, k, law, sigma2, t, mu, index=i, signal_seed=signal_seed,
                noise_seed=noise_seed, lam=None, snr=None,
            )
            if not ok:
                continue
            x, _ = generate_problem(
                frame, k, law, NoiseModel(sigma2, seed=noise_seed), seed=signal_seed
            )
            big = np.intersect1d(*floor_sets(x, sigma2, mu, t))
            tail = x.dense()
            tail[big] = 0.0
            tterm_rhs = OST_C2 * math.sqrt(sigma2 * k * math.log(n)) + OST_C3 * float(
                np.linalg.norm(tail)
            )
            assert l2_error <= tterm_rhs
            oks += 1
            with_t += big.size > 0
        assert oks >= 30
        if frame_name.startswith("identity"):
            assert with_t == oks

    def test_tight_frame_regime_reduces_to_m_over_log(self):
        # with ||F||_2^2 = N/M the sparsity limit becomes M/(c1^2 ln N)
        m, n = 32, 256
        sn2 = n / m
        direct = n / (OST_C1**2 * sn2 * math.log(n))
        reduced = m / (OST_C1**2 * math.log(n))
        assert direct == pytest.approx(reduced, rel=1e-14)


class TestWeakRip:
    def test_orthonormal_never_violates(self):
        f = Frame(np.eye(64), normalize=False)
        x = SparseSignal(64, [3, 17, 40], [1.0, 1j, -2.0])
        rate = weak_rip_estimate(f, x, delta=1e-12, trials=2000, seed=5)
        assert rate == 0.0

    def test_identity_permutation_energy_matches_dense_path(self):
        # sanity for the sparse evaluation shortcut
        f = random_frame(8, 24, seed=15, complex_=True)
        x = SparseSignal(24, [1, 5, 6], [0.3, -1.2, 2.0 + 1j])
        dense_energy = np.linalg.norm(f.data @ x.dense()) ** 2
        sparse_energy = np.linalg.norm(f.data[:, x.support] @ x.values) ** 2
        assert sparse_energy == pytest.approx(dense_energy, rel=1e-12)

    def test_rate_increases_as_delta_shrinks(self):
        f = random_frame(6, 40, seed=16)
        x = SparseSignal(40, [0, 9, 22, 31], [1.0, 1.0, -1.0, 1.0])
        loose = weak_rip_estimate(f, x, delta=0.9, trials=400, seed=6)
        tight = weak_rip_estimate(f, x, delta=0.01, trials=400, seed=6)
        assert tight >= loose

    def test_validation(self):
        f = random_frame(3, 8, seed=0)
        with pytest.raises(ValueError):
            weak_rip_estimate(f, SparseSignal(8, [0], [1.0]), 0.1, trials=0, seed=0)
        with pytest.raises(ValueError, match="length"):
            weak_rip_estimate(f, SparseSignal(9, [0], [1.0]), 0.1, trials=1, seed=0)


class TestStrongCoherenceWeakRip:
    """A frame that genuinely satisfies both strong-coherence inequalities.

    Dropping one row of the normalized N-point DFT gives an equiangular
    frame with mu = 1/(N-1) and nu = 1/(N-1)^2; for N = 2048 this meets
    mu <= 1/(164 ln N), so the permutation energy-preservation claim can be
    exercised inside its stated regime.
    """

    def test_analytic_coherence_validated_at_small_n(self):
        n = 512
        f = harmonic_frame_from_rows(n, [r for r in range(n) if r != 1])
        assert worst_case_coherence(f) == pytest.approx(1.0 / (n - 1), abs=1e-12)
        assert average_coherence(f) == pytest.approx(1.0 / (n - 1) ** 2, abs=1e-12)

    def test_in_regime_violation_rate(self):
        n = 2048
        k, delta = 6, 0.05
        mu = 1.0 / (n - 1)          # validated analytically above
        nu = 1.0 / (n - 1) ** 2
        ln = math.log(n)
        # strong-coherence inequalities hold at this size
        assert mu <= 1.0 / (164.0 * ln)
        assert nu <= mu / math.sqrt(n - 1)
        # stated regime: N >= 128 and 2 K ln N <= min(delta^2/(100 mu^2), M)
        assert n >= 128
        assert 2 * k * ln <= min(delta**2 / (100.0 * mu**2), n - 1)
        f = harmonic_frame_from_rows(n, [r for r in range(n) if r != 1])
        rng = np.random.default_rng(21)
        support = np.sort(rng.choice(n, k, replace=False))
        x = SparseSignal(n, support, np.exp(2j * np.pi * rng.random(k)))
        trials = 10000
        rate = weak_rip_estimate(f, x, delta=delta, trials=trials, seed=22)
        bound = 4.0 * k / n**2
        # Wilson slack at zero observed violations is ~3.7e-4
        assert rate <= bound + 4e-4

    def test_scp_check_flags_the_small_case(self):
        # at N = 512 the mu inequality just misses: 1/511 > 1/(164 ln 512)
        n = 512
        f = harmonic_frame_from_rows(n, [r for r in range(n) if r != 1])
        report = scp_check(f)
        assert not report.scp1
        assert report.scp2
