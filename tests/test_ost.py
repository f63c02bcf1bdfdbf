"""Sparse model, OST threshold/recovery, floors, error bounds, Weak RIP."""
import math

import numpy as np
import pytest

from conftest import random_frame, rebuilt_ost_rows
from framecoh import (
    OST_C1,
    OST_C2,
    OST_C3,
    FlatAmplitudes,
    CodeFrameSpec,
    Frame,
    GaussianFrameSpec,
    HarmonicFrameSpec,
    NoiseModel,
    RecoveryResult,
    SparseSignal,
    TwoTierAmplitudes,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    check_rsp_bounds,
    draw_signal,
    floor_sets,
    generate_problem,
    harmonic_frame_from_rows,
    noise_floor_threshold,
    noise_scale,
    ost_recover,
    ost_threshold,
    ost_trials,
    scp_check,
    snr_of,
    run_experiment,
    trial_seed,
    weak_rip_estimate,
    worst_case_coherence,
)
from framecoh import average_coherence
from framecoh import ost


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
        for m, n, k in [(6, 12, 3), (128, 512, 8)]:
            f = random_frame(m, n, seed=0)
            x, y = generate_problem(f, k, FlatAmplitudes(2.0), NoiseModel(0.0, seed=1), seed=2)
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

    @pytest.mark.parametrize("n, k, seed", [(32, 2, 1), (256, 4, 7), (4096, 2, 99), (5, 0, 3)])
    def test_draw_signal_rng_order(self, n, k, seed):
        # support first, then phases, from one generator; a unit flat law multiplies by 1.0
        rng = np.random.default_rng(seed)
        support = np.sort(rng.choice(n, k, replace=False))
        values = np.exp(2j * np.pi * rng.random(k))
        x = draw_signal(n, k, FlatAmplitudes(1.0), seed)
        assert np.array_equal(x.support, support)
        assert x.values.tobytes() == values.tobytes()

    def test_generate_problem_draws_with_draw_signal(self):
        f = random_frame(6, 40, seed=2)
        law = TwoTierAmplitudes(3.0, 0.5)
        x, _ = generate_problem(f, 5, law, NoiseModel(0.5, seed=1), seed=8)
        y = draw_signal(40, 5, law, 8)
        assert np.array_equal(x.support, y.support)
        assert x.values.tobytes() == y.values.tobytes()

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
        assert noise_scale(sigma2, n) == math.sqrt(2.0 * sigma2 * math.log(n))

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

    def test_support_rhs_sums_missed_in_index_order(self):
        # ||x_{K \\ Khat}|| over the missed indices in increasing order, as
        # np.setdiff1d gives them, bit for bit
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = 64
            x = np.zeros(n, dtype=complex)
            support = rng.choice(n, 30, replace=False)
            scale = 10.0 ** rng.integers(-8, 8, 30)
            x[support] = scale * rng.normal(size=30) + 1j * rng.normal(size=30)
            khat = np.sort(rng.choice(n, 12, replace=False))
            res = RecoveryResult(support_estimate=khat, signal_estimate=np.zeros(n, dtype=complex))
            missed = np.setdiff1d(np.flatnonzero(x), khat)
            rhs = OST_C2 * math.sqrt(0.5 * khat.size * math.log(n)) + OST_C3 * float(
                np.linalg.norm(x[missed])
            )
            assert check_rsp_bounds(res, x, 0.5).support_rhs == rhs

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
        seeds = [(trial_seed(7, 2 * i), trial_seed(7, 2 * i + 1)) for i in range(60)]
        rows = ost_trials(frame, k, law, sigma2, t, mu, seeds, lam=None, snr=None)
        for (signal_seed, noise_seed), (*_, l2_error, _, ok) in zip(seeds, rows):
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


def _gaussian_128_512():
    return build_gaussian(GaussianFrameSpec(128, 512, 5))


def _gaussian_64_256():
    return build_gaussian(GaussianFrameSpec(64, 256, 3))


def _harmonic_256_64():
    return build_harmonic(HarmonicFrameSpec(256, 64, 1))[0]


def _identity_64():
    return Frame(np.eye(64), normalize=False)


def _fortran_32_100():
    return Frame(np.asfortranarray(np.random.default_rng(4).standard_normal((32, 100))))


def _complex_16_40():
    return random_frame(16, 40, seed=6, complex_=True)


# name: (frame builder, K, amplitude law, lam as a multiple of alpha or None, snr)
OST_TRIAL_CASES = {
    "gaussian-128x512": (_gaussian_128_512, 8, "flat", None, None),
    "gaussian-64x256-lam": (_gaussian_64_256, 4, "flat", 0.5, None),
    "harmonic-256-64": (_harmonic_256_64, 4, "two-tier", None, None),
    "harmonic-256-64-lam": (_harmonic_256_64, 4, "flat", 0.5, None),
    "harmonic-256-64-snr": (_harmonic_256_64, 4, "flat", None, 3.0),
    "identity-64": (_identity_64, 6, "flat", None, None),
    # above every proxy: Khat is empty and misses the whole T = T_sigma = K
    "identity-64-lam-above": (_identity_64, 6, "flat", 100.0, None),
    "fortran-32x100-lam": (_fortran_32_100, 3, "flat", 0.5, None),
    "complex-16x40-lam": (_complex_16_40, 3, "two-tier", 0.3, None),
}


class TestOstTrials:
    """The trial loop gives the rows of the public per-trial functions, bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rank-deficient fallback
    @pytest.mark.parametrize("name", sorted(OST_TRIAL_CASES))
    def test_rows_match_per_trial_functions(self, name):
        make, k, law_name, lam_factor, snr = OST_TRIAL_CASES[name]
        frame = make()
        sigma2, t = 1.0, 0.5
        n = frame.cols
        mu = worst_case_coherence(frame)
        alpha = 10.0 * noise_floor_threshold(sigma2, n, t)
        law = {
            "flat": FlatAmplitudes(alpha),
            "two-tier": TwoTierAmplitudes(alpha, math.sqrt(2.0 * sigma2 * math.log(n))),
        }[law_name]
        lam = None if lam_factor is None else lam_factor * alpha
        seeds = [(trial_seed(3, 2 * i), trial_seed(3, 2 * i + 1)) for i in range(20)]
        rows = ost_trials(frame, k, law, sigma2, t, mu, seeds, lam=lam, snr=snr)
        assert rows == rebuilt_ost_rows(frame, k, law, sigma2, t, mu, seeds, lam=lam, snr=snr)
        if lam_factor is not None and lam_factor < 1:  # the least-squares fit ran
            assert any(row[2] > 0 for row in rows)

    def test_run_ost_recovery_rows_match_per_trial_functions(self):
        seed, sigma2, t = 4, 1.0, 0.5
        report = run_experiment("ost-recovery", rows=128, cols=512, k=8, trials=20, seed=seed,
                                sanity_trials=1)
        frame = build_gaussian(GaussianFrameSpec(128, 512, trial_seed(seed, 0)))
        law = FlatAmplitudes(10.0 * noise_floor_threshold(sigma2, 512, t))
        seeds = [(trial_seed(seed, 2 * i + 1), trial_seed(seed, 2 * i + 2)) for i in range(20)]
        mu = worst_case_coherence(frame)
        assert report.rows == rebuilt_ost_rows(frame, 8, law, sigma2, t, mu, seeds)

    @pytest.mark.parametrize("name", ["gaussian-128x512", "harmonic-256-64", "fortran-32x100-lam"])
    def test_proxy_bits_match_ost_recover(self, monkeypatch, name):
        # the F^H formed once per call gives the proxy F^H y of ost_recover bit for bit
        frame = OST_TRIAL_CASES[name][0]()
        fit = ost._threshold_fit
        proxies = []

        def spy(data, data_h, y, lam):
            proxies.append((data_h @ y, frame.data.conj().T @ y))
            return fit(data, data_h, y, lam)

        monkeypatch.setattr(ost, "_threshold_fit", spy)
        seeds = [(trial_seed(8, 2 * i), trial_seed(8, 2 * i + 1)) for i in range(10)]
        ost_trials(frame, 3, FlatAmplitudes(20.0), 1.0, 0.5, 0.1, seeds, lam=None, snr=None)
        assert len(proxies) == 10
        assert all(np.array_equal(got, want) for got, want in proxies)

    def test_bad_lam_rejected(self):
        f = random_frame(4, 10, seed=1)
        with pytest.raises(ValueError, match="lam must be positive"):
            ost_trials(f, 2, FlatAmplitudes(1.0), 1.0, 0.5, 0.3, [(1, 2)], lam=-1.0, snr=None)


WEAK_RIP_FRAMES = {
    "code-4-1": lambda: build_code_frame(CodeFrameSpec(4, 1)),
    "gaussian-16x64": lambda: random_frame(16, 64, seed=31),
    "complex-8x24": lambda: random_frame(8, 24, seed=32, complex_=True),
}
# violations in 1000 trials at delta = 0.05 and 0.3, by frame and K, as
# counted when every trial evaluated its own ||F y||^2
WEAK_RIP_COUNTS = {
    "code-4-1": {0: (0, 0), 1: (0, 0), 3: (707, 46)},
    "gaussian-16x64": {0: (0, 0), 1: (0, 0), 3: (791, 71)},
    "complex-8x24": {0: (0, 0), 1: (0, 0), 3: (891, 335)},
}


def _violations_one_trial_at_a_time(frame, x, delta, trials, seed):
    rng = np.random.default_rng(seed)
    energy = float(np.vdot(x.values, x.values).real)
    count = 0
    for _ in range(trials):
        positions = rng.permutation(x.length)[x.support]
        fy = frame.data[:, positions] @ x.values
        e = float(np.vdot(fy, fy).real)
        count += e < (1.0 - delta) * energy or e > (1.0 + delta) * energy
    return count


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

    @pytest.mark.parametrize("entries", [None, 64])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("name", sorted(WEAK_RIP_FRAMES))
    def test_counts_pinned_where_nonzero(self, monkeypatch, name, k, entries):
        # deltas at which the violation counts are not 0 by construction;
        # entries=64 forces blocks of one or two trials
        if entries is not None:
            monkeypatch.setattr(ost, "_WEAK_RIP_ENTRIES", entries)
        f = WEAK_RIP_FRAMES[name]()
        n = f.cols
        rng = np.random.default_rng(40 + k)
        support = np.sort(rng.choice(n, k, replace=False))
        x = SparseSignal(n, support, np.exp(2j * np.pi * rng.random(k)))
        trials = 1000
        for delta, pinned in zip((0.05, 0.3), WEAK_RIP_COUNTS[name][k]):
            rate = weak_rip_estimate(f, x, delta=delta, trials=trials, seed=50 + k)
            assert rate * trials == pinned
            assert pinned == _violations_one_trial_at_a_time(f, x, delta, trials, 50 + k)

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
