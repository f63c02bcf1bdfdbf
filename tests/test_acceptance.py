"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion
lines as they complete.  Tolerances and trial counts are pinned here, not
configurable, so a green run certifies the claims as stated.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import mercedes_frame, random_frame, tetrahedron_frame
from framecoh import (
    FlipPattern,
    Frame,
    GF2m,
    apply_flip,
    apply_wiggle,
    average_coherence,
    bound_3d,
    bound_table,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    complex_bound,
    linear_time_flip,
    load_flip_demo,
    real_bound,
    spectral_norm,
    welch_bound,
    worst_case_coherence,
    WigglePattern,
)
from framecoh.constructions import CodeFrameSpec, GaussianFrameSpec, HarmonicFrameSpec
from framecoh.experiments import (
    run_code_geometry,
    run_flip_guarantee,
    run_gaussian_geometry,
    run_harmonic_geometry,
    run_ost_recovery,
    run_weak_rip,
)


@contextmanager
def _budget(seconds):
    start = time.perf_counter()
    box = {}
    yield box
    box["elapsed"] = time.perf_counter() - start
    assert box["elapsed"] < seconds, f"runtime {box['elapsed']:.1f}s exceeded {seconds}s budget"


def _ok(criterion, text, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE CRITERION {criterion}: PASS - {text}{suffix}")


def _frequency(report):
    """Fraction of a runner's trial rows whose last cell, ok, is true."""
    return sum(row[-1] for row in report.rows) / len(report.rows)


def test_criterion_1_worked_flipping_example():
    with _budget(1.0) as box:
        frame = load_flip_demo()
        nu = average_coherence(frame)
        mu = worst_case_coherence(frame)
        assert nu == pytest.approx(0.3778, abs=5e-4)
        assert mu / math.sqrt(5) == pytest.approx(0.2683, abs=5e-4)
        flipped, pattern = linear_time_flip(frame)
        assert pattern.to_string() == "+-+--++-++"
        assert average_coherence(flipped) == pytest.approx(0.1556, abs=5e-4)
    _ok(1, "5x10 example: nu 0.3778, mu/sqrt(5) 0.2683, pattern +-+--++-++, "
           "flipped nu 0.1556", box["elapsed"])


def test_criterion_2_code_frame_geometry():
    with _budget(30.0) as box:
        report = run_code_geometry(cases=((4, 1), (5, 1), (6, 1), (6, 2)))
        assert report.passed
        for (m, t, rows, cols, norm2_err, mu, mu_bound, nu, nu_bound, ok) in report.rows:
            assert norm2_err <= 1e-9, f"(m={m}, t={t}): ||F||^2 off by {norm2_err}"
            assert mu <= mu_bound + 1e-12, f"(m={m}, t={t}): mu {mu} > {mu_bound}"
            assert nu <= nu_bound + 1e-12, f"(m={m}, t={t}): nu {nu} > {nu_bound}"
            assert ok
    _ok(2, "code frames (4,1),(5,1),(6,1),(6,2): tight to 1e-9, mu and nu "
           "inside the stated bounds", box["elapsed"])


def test_criterion_3_harmonic_geometry():
    report = run_harmonic_geometry(dft_size=1024, target_rows=64, trials=200, seed=1)
    assert "held in every trial: yes" in report.summary[0], report.summary[0]
    level = 1.0 - 4.0 / 1024 - 1.0 / 1024**2
    freq = _frequency(report)
    assert freq >= level - 0.05, f"joint frequency {freq} below {level} - 0.05"
    assert report.passed
    _ok(3, f"harmonic frames: tight in 200/200; joint event frequency "
           f"{freq:.3f} >= {level - 0.05:.3f}")


def test_criterion_4_gaussian_geometry():
    report = run_gaussian_geometry(rows=512, cols=2048, trials=200, seed=1)
    level = 1.0 - 11.0 / 2048
    freq = _frequency(report)
    assert freq >= level - 0.05, f"joint frequency {freq} below {level} - 0.05"
    assert any("regime arithmetic" in line for line in report.summary)
    assert report.passed
    _ok(4, f"normalized Gaussian bounds held jointly with frequency "
           f"{freq:.3f} >= {level - 0.05:.3f}; regime arithmetic documented")


def test_criterion_5_flipping_guarantee():
    with _budget(120.0) as box:
        assert 50 >= 5 * 5 + 3 * 5 + 3
        report = run_flip_guarantee(
            rows=5, cols=50, trials=100, seed=1,
            oracle_rows=4, oracle_cols=16, oracle_trials=20,
        )
        greedy_ok = sum(row[-1] for row in report.rows if row[0] == "greedy")
        oracle_ok = sum(row[-1] for row in report.rows if row[0] == "oracle")
        assert greedy_ok == 100, "a trial broke nu <= mu/sqrt(M)"
        assert oracle_ok == 20, "oracle beat by the greedy pass?!"
        assert report.passed
    _ok(5, "greedy flip guarantee 100/100 at (M=5, N=50); exhaustive minimum "
           "<= greedy in 20/20 at (M=4, N=16)", box["elapsed"])


def test_criterion_6_bound_table_and_universality():
    with _budget(5.0) as box:
        for n in range(2, 101):
            assert real_bound(2, n) == pytest.approx(math.cos(math.pi / n), abs=1e-12)
        for n, w, c, r, d in bound_table(3, range(3, 56)):
            assert max(w, r, d) > c, f"ordering fails at N={n}"
        zoo = [
            mercedes_frame(),
            tetrahedron_frame(),
            load_flip_demo(),
            Frame(np.eye(8)),
            build_gaussian(GaussianFrameSpec(8, 40, seed=0)),
            build_gaussian(GaussianFrameSpec(3, 30, seed=1)),
            build_harmonic(HarmonicFrameSpec(256, 24, seed=2))[0],
            build_code_frame(CodeFrameSpec(4, 1)),
            build_code_frame(CodeFrameSpec(5, 1)),
            random_frame(5, 25, seed=3, complex_=True),
            random_frame(2, 9, seed=4),
        ]
        for frame in zoo:
            m, n = frame.rows, frame.cols
            mu = worst_case_coherence(frame)
            assert mu >= welch_bound(m, n) - 1e-12
            if m >= 2:
                assert mu >= complex_bound(m, n) - 1e-12
                if not frame.is_complex:
                    assert mu >= real_bound(m, n) - 1e-12
            if m == 3 and not frame.is_complex:
                assert mu >= bound_3d(n) - 1e-12
    _ok(6, "M=2 bound equals cos(pi/N) to 1e-12; M=3 table ordering holds on "
           "[3,55]; measured mu dominates every applicable bound on an "
           "11-frame zoo", box["elapsed"])


def test_criterion_7_ost_recovery():
    with _budget(120.0) as box:
        report = run_ost_recovery(
            rows=128, cols=512, k=8, sigma2=1.0, t_param=0.5,
            amp_factor=10.0, trials=200, seed=1,
            sanity_dim=128, sanity_trials=100,
        )
        level = 1.0 - 10.0 / 512
        freq = _frequency(report)
        assert freq >= level - 0.05, f"joint frequency {freq} below {level} - 0.05"
        assert report.summary[-1] == "noiseless orthonormal sanity: exact recovery in 100/100"
        assert report.passed
    _ok(7, f"OST joint event frequency {freq:.3f} >= "
           f"{1 - 10 / 512 - 0.05:.3f}; exact noiseless recovery 100/100",
        box["elapsed"])


def test_criterion_8_weak_rip():
    with _budget(60.0) as box:
        report = run_weak_rip(trials=10000, seed=1, orth_dim=256, orth_k=4,
                              code_m=6, code_t=1, code_k=2)
        rates = {row[0]: row[3] for row in report.rows}  # phase -> violation rate
        assert rates["orthonormal"] == 0.0
        n = 1 << 12
        bound = 4.0 * 2 / n**2
        assert rates["code"] <= bound + 4e-4  # Wilson slack at ~0 hits
        assert report.passed
    _ok(8, "orthonormal basis: 0 violations in 10000 permutations; code frame "
           "violation rate within 4K/N^2 + Wilson slack", box["elapsed"])


class TestCriterion9PropertySuites:
    def test_flip_involution(self):
        for seed in range(6):
            f = random_frame(5, 14, seed=seed, complex_=bool(seed % 2))
            rng = np.random.default_rng(900 + seed)
            pattern = FlipPattern(np.where(rng.random(14) < 0.5, 1.0, -1.0))
            assert np.array_equal(apply_flip(apply_flip(f, pattern), pattern).data, f.data)

    def test_wiggle_invariance(self):
        for seed in range(6):
            f = random_frame(6, 13, seed=seed, complex_=bool(seed % 2))
            rng = np.random.default_rng(950 + seed)
            pattern = WigglePattern(np.exp(2j * np.pi * rng.random(13)))
            g = apply_wiggle(f, pattern)
            assert np.allclose(np.linalg.norm(g.data, axis=0),
                               np.linalg.norm(f.data, axis=0), atol=1e-12)
            assert worst_case_coherence(g) == pytest.approx(
                worst_case_coherence(f), abs=1e-12)
            assert spectral_norm(g, tol=1e-14) == pytest.approx(
                spectral_norm(f, tol=1e-14), abs=1e-12)

    def test_spectral_norm_against_dense_eigensolve(self):
        shapes = [(8, 24), (16, 64), (32, 9), (64, 64), (48, 20), (5, 61)]
        for i, (m, n) in enumerate(shapes):
            f = random_frame(m, n, seed=700 + i, complex_=bool(i % 2))
            w = np.linalg.eigvalsh(f.data.conj().T @ f.data)
            dense = math.sqrt(max(float(w.max()), 0.0))
            assert spectral_norm(f) == pytest.approx(dense, rel=1e-10)

    def test_gf2m_field_axioms_exhaustive(self):
        for m in range(1, 7):
            field = GF2m(m)
            t = field.mul_table
            size = field.size
            assert np.array_equal(t, t.T)
            assert np.array_equal(t[1], np.arange(size))
            assert np.all(t[0] == 0)
            for a in range(1, size):
                assert sorted(t[a]) == list(range(size))
            a = np.arange(size)[:, None, None]
            b = np.arange(size)[None, :, None]
            c = np.arange(size)[None, None, :]
            assert np.array_equal(t[t[a, b], c], t[a, t[b, c]])
            assert np.array_equal(t[a ^ b, c], t[a, c] ^ t[b, c])

    def test_report(self):
        _ok(9, "flip involution, wiggle invariance, dense-eigensolve agreement "
               "(<= 64x64, rel 1e-10), GF(2^m) axioms exhaustive for m <= 6")
