"""Experiment runners: seed derivation, Wilson intervals, reports, CSV."""
import pytest

from framecoh import bound_table, run_experiment, trial_seed, wilson_interval
from framecoh.experiments import (
    run_bounds_figure,
    run_code_geometry,
    run_flip_guarantee,
    run_gaussian_geometry,
    run_harmonic_geometry,
    run_ost_recovery,
    run_weak_rip,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert trial_seed(1, 2) == trial_seed(1, 2)

    def test_spread(self):
        seeds = {trial_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_base_and_index_both_matter(self):
        assert trial_seed(1, 2) != trial_seed(1, 3)
        assert trial_seed(1, 2) != trial_seed(2, 2)


class TestWilson:
    def test_zero_successes_upper(self):
        z = 1.959963984540054
        n = 10000
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0
        assert hi == pytest.approx(z * z / (n + z * z), rel=1e-12)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(5, 10)
        assert lo < 0.5 < hi

    def test_all_successes(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert lo < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestGaussianGeometry:
    def test_smoke_passes(self):
        report = run_gaussian_geometry(rows=256, cols=512, trials=5, seed=3)
        assert report.passed
        assert len(report.rows) == 5
        assert report.stats["frequency"] == 1.0
        assert any("regime" in line for line in report.summary)

    def test_vacuous_bounds_rejected(self):
        with pytest.raises(ValueError, match="vacuous"):
            run_gaussian_geometry(rows=16, cols=64, trials=1)

    def test_csv_deterministic(self):
        a = run_gaussian_geometry(rows=64, cols=128, trials=3, seed=9)
        b = run_gaussian_geometry(rows=64, cols=128, trials=3, seed=9)
        assert a.csv_text() == b.csv_text()
        assert a.csv_text().splitlines()[0] == "trial,seed,mu,nu,spectral_norm,ok"


class TestHarmonicGeometry:
    def test_smoke_passes(self):
        report = run_harmonic_geometry(dft_size=256, target_rows=32, trials=5, seed=1)
        assert report.passed
        assert report.stats["all_tight"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty-selection reseeds
    def test_gate_can_fail(self):
        # tiny target_rows sits far outside the regime; the cardinality
        # window breaks often enough that this pinned seed fails the gate
        report = run_harmonic_geometry(
            dft_size=2048, target_rows=2, trials=2, seed=FAILING_HARMONIC_SEED
        )
        assert not report.passed
        assert "RESULT: FAIL" in report.summary_text()


class TestCodeGeometry:
    def test_single_case(self):
        report = run_code_geometry(cases=((4, 1),))
        assert report.passed
        (m, t, rows, cols, norm2_err, mu, mu_bound, nu, nu_bound, ok), = report.rows
        assert (m, t, rows, cols) == (4, 1, 16, 256)
        assert norm2_err <= 1e-9 and ok


class TestFlipGuarantee:
    def test_smoke(self):
        report = run_flip_guarantee(trials=5, oracle_trials=2, seed=2)
        assert report.passed
        phases = {row[0] for row in report.rows}
        assert phases == {"greedy", "oracle"}

    def test_oracle_trials_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^oracle_trials must be >= 1, got 0$"):
            run_flip_guarantee(trials=1, oracle_trials=0)


class TestWeakRip:
    def test_smoke(self):
        report = run_weak_rip(trials=300, seed=4, orth_dim=64, orth_k=3,
                              code_m=5, code_t=1, code_k=2)
        assert report.passed
        assert report.stats["orthonormal_rate"] == 0.0

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="ln N"):
            run_weak_rip(trials=10, code_m=4, code_t=1, code_k=2)


class TestOstRecovery:
    def test_smoke(self):
        report = run_ost_recovery(rows=64, cols=256, k=4, trials=10, seed=5,
                                  sanity_dim=32, sanity_trials=5)
        assert report.passed
        assert report.stats["sanity_ok"] == 5
        header = report.csv_text().splitlines()[0]
        assert header == "trial,K,|Khat|,exact_support,l2_error,bound_rhs,ok"

    def test_sanity_trials_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^sanity_trials must be >= 1, got 0$"):
            run_ost_recovery(sanity_trials=0)


class TestBoundsFigure:
    def test_m3_ordering(self):
        report = run_bounds_figure(spatial_dim=3, n_max=55)
        assert report.passed
        assert report.csv_text() == bound_table(3, range(3, 56)).to_csv()

    def test_m2_identity(self):
        report = run_bounds_figure(spatial_dim=2, n_min=2, n_max=40)
        assert report.passed

    def test_other_m_informational(self):
        report = run_bounds_figure(spatial_dim=5, n_min=5, n_max=12)
        assert report.passed


class TestDispatch:
    def test_run_experiment(self):
        report = run_experiment("bounds-figure", spatial_dim=3, n_max=10)
        assert report.experiment == "bounds-figure"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("nope")


# seed 0 breaks the cardinality window at target_rows=2 (found by scanning)
FAILING_HARMONIC_SEED = 0
