"""Seeded Monte Carlo experiments reproducing the library's headline claims.

Every experiment derives its per-trial seeds from a single base seed through
:func:`trial_seed` (two splitmix64 rounds, frozen), so runs are reproducible
byte-for-byte, rows are emitted sorted by trial index, and trials could be
evaluated in any order without changing the output.  Probabilistic claims
are judged as ``empirical frequency >= stated level - slack``; the fixed
slack used by each gate is reported next to a 95% Wilson interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BOUND_HEADER, bound_table
from .constructions import (
    CodeFrameSpec,
    GaussianFrameSpec,
    HarmonicFrameSpec,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    code_frame_geometry,
)
from .equivalence import exhaustive_flip_oracle, linear_time_flip
from .frame import Frame, coherence, scp1_bound, scp2_bound, spectral_norm, worst_case_coherence
from .ost import (
    OST_TRIAL_HEADER,
    FlatAmplitudes,
    draw_signal,
    noise_floor_threshold,
    ost_trials,
    sparsity_regime_limit,
    weak_rip_estimate,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Frozen per-trial seed derivation: splitmix64(base XOR splitmix64(index))."""
    return _splitmix64((base_seed & _MASK64) ^ _splitmix64(trial_index & _MASK64))


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% (default z) Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _gate(hits: int, trials: int, level: float, level_text: str) -> tuple[bool, str]:
    """Verdict frequency >= level - slack and summary line of a
    probabilistic claim; ``level_text`` formats the level ("1 - 10/N = {:.4f}")."""
    freq = hits / trials
    slack = 0.05
    lo, hi = wilson_interval(hits, trials)
    line = (
        f"joint frequency {freq:.4f} over {trials} trials; level {level_text.format(level)}, "
        f"fixed slack {slack}; Wilson 95% [{lo:.4f}, {hi:.4f}]"
    )
    return freq >= level - slack, line


def _require_trials(**counts: int) -> None:
    """Reject trial counts below 1, which would leave a gate with no evidence."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


@dataclass
class ExperimentReport:
    """CSV rows plus a human-readable summary and a single pass verdict."""

    experiment: str
    header: list
    rows: list
    summary: list = field(default_factory=list)
    passed: bool = False

    def csv_text(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(_cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        lines.extend(self.summary)
        lines.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_gaussian_geometry(rows=512, cols=2048, trials=200, seed=1) -> ExperimentReport:
    """One-sided checks of the three normalized-Gaussian geometry bounds."""
    _require_trials(trials=trials)
    regime_lo, regime_hi = GaussianFrameSpec(rows, cols).regime_bounds()  # rejects bad sizes
    ln = math.log(cols)
    d_mu = math.sqrt(rows) - math.sqrt(12.0 * ln)
    d_nu = rows - math.sqrt(12.0 * rows * ln)
    d_sn = rows - math.sqrt(8.0 * rows * ln)
    if min(d_mu, d_nu, d_sn) <= 0:
        raise ValueError(f"geometry bounds are vacuous at M={rows}, N={cols}")
    bound_mu = math.sqrt(15.0 * ln) / d_mu
    bound_nu = math.sqrt(15.0 * ln) / d_nu
    bound_sn = (math.sqrt(rows) + math.sqrt(cols) + math.sqrt(2.0 * ln)) / math.sqrt(d_sn)

    out_rows = []
    hits = 0
    for i in range(trials):
        s = trial_seed(seed, i)
        frame = build_gaussian(GaussianFrameSpec(rows, cols, s))
        mu, nu = coherence(frame)
        sn = spectral_norm(frame)
        del frame  # freed before the next trial's frame is drawn
        ok = mu <= bound_mu and nu <= bound_nu and sn <= bound_sn
        hits += ok
        out_rows.append((i, s, mu, nu, sn, ok))

    passed, gate_line = _gate(hits, trials, 1.0 - 11.0 / cols, "1 - 11/N = {:.4f}")
    return ExperimentReport(
        experiment="gaussian-geometry",
        header=["trial", "seed", "mu", "nu", "spectral_norm", "ok"],
        rows=out_rows,
        summary=[
            f"bounds: mu <= {bound_mu:.6g}, nu <= {bound_nu:.6g}, ||F||_2 <= {bound_sn:.6g}",
            f"regime arithmetic: 60 ln N = {regime_lo:.2f} <= M = {rows}: "
            f"{'yes' if regime_lo <= rows else 'NO'}; "
            f"M <= (N-1)/(4 ln N) = {regime_hi:.2f}: {'yes' if rows <= regime_hi else 'NO'} "
            "(both sides are not jointly satisfiable at desk scale)",
            gate_line,
        ],
        passed=passed,
    )


def run_harmonic_geometry(dft_size=1024, target_rows=64, trials=200, seed=1) -> ExperimentReport:
    """Unconditional tightness plus the three probabilistic harmonic checks."""
    _require_trials(trials=trials)
    n, m = dft_size, target_rows
    spec = HarmonicFrameSpec(n, m)  # rejects bad sizes before the bound arithmetic
    bound_iii = math.sqrt(118.0 * (n - m) * math.log(n) / (m * n))
    out_rows = []
    hits = 0
    all_tight = True
    worst_tight = 0.0
    for i in range(trials):
        s = trial_seed(seed, i)
        frame, kept = build_harmonic(HarmonicFrameSpec(n, m, s))
        card = int(kept.size)
        sn2 = spectral_norm(frame) ** 2
        tight_err = abs(sn2 - n / card)
        worst_tight = max(worst_tight, tight_err)
        if tight_err > 1e-9:
            all_tight = False
        mu, nu = coherence(frame)
        del frame  # freed before the next trial's frame is built
        ok_i = 0.5 * m <= card <= 1.5 * m
        ok_ii = nu <= scp2_bound(mu, card)
        ok_iii = mu <= bound_iii
        ok = ok_i and ok_ii and ok_iii
        hits += ok
        out_rows.append((i, s, card, tight_err, mu, nu, ok_i, ok_ii, ok_iii, ok))

    level = 1.0 - 4.0 / n - 1.0 / n**2
    passed, gate_line = _gate(hits, trials, level, "1 - 4/N - 1/N^2 = {:.6f}")
    return ExperimentReport(
        experiment="harmonic-geometry",
        header=["trial", "seed", "n_rows", "tight_err", "mu", "nu", "i_ok", "ii_ok", "iii_ok", "ok"],
        rows=out_rows,
        summary=[
            f"tightness ||F||_2^2 = N/|rows| held in every trial: "
            f"{'yes' if all_tight else 'NO'} (worst deviation {worst_tight:.3g})",
            f"regime 16 ln N <= M <= N/3: {'yes' if spec.regime_ok() else 'NO'} "
            f"(16 ln N = {spec.regime_bounds()[0]:.2f}, M = {m})",
            gate_line,
        ],
        passed=all_tight and passed,
    )


def run_code_geometry(cases=((4, 1), (5, 1), (6, 1), (6, 2))) -> ExperimentReport:
    """Deterministic tightness and coherence checks for code-based frames.

    ||F||_2^2, mu and nu come from `code_frame_geometry`, which reads them
    off the frame's two +/-1 factors exactly, so no case builds its
    2^m x 2^((t+1)m) matrix and ``norm2_err`` is 0 for every tight frame.
    Cases up to `MAX_CODE_COLUMNS` columns run; (8, 2) is the largest
    with t = 2.
    """
    out_rows = []
    all_ok = True
    for m, t in cases:
        spec = CodeFrameSpec(m, t)
        sn2, mu, nu = code_frame_geometry(spec)
        norm2_err = abs(sn2 - 2 ** (t * m))
        mu_bound = 1.0 / math.sqrt(2 ** (m - 2 * t - 1))
        nu_bound = scp2_bound(mu, spec.rows)
        # 1e-12 headroom covers float rounding only; the inequalities are exact
        ok = norm2_err <= 1e-9 and mu <= mu_bound + 1e-12 and nu <= nu_bound + 1e-12
        all_ok = all_ok and ok
        out_rows.append((m, t, spec.rows, spec.cols, norm2_err, mu, mu_bound, nu, nu_bound, ok))
    return ExperimentReport(
        experiment="code-geometry",
        header=["m", "t", "rows", "cols", "norm2_err", "mu", "mu_bound", "nu", "nu_bound", "ok"],
        rows=out_rows,
        summary=[f"checked {len(out_rows)} (m, t) cases; every claim is deterministic"],
        passed=all_ok,
    )


def run_flip_guarantee(
    rows=5,
    cols=50,
    trials=100,
    seed=1,
    oracle_rows=4,
    oracle_cols=16,
    oracle_trials=20,
) -> ExperimentReport:
    """Greedy-flip average-coherence guarantee plus an exhaustive-oracle check."""
    _require_trials(trials=trials, oracle_trials=oracle_trials)
    threshold = rows * rows + 3 * rows + 3
    out_rows = []
    greedy_ok = 0
    for i in range(trials):
        s = trial_seed(seed, i)
        frame = build_gaussian(GaussianFrameSpec(rows, cols, s))
        flipped, _ = linear_time_flip(frame)
        mu, nu = coherence(flipped)
        bound = scp2_bound(mu, rows)
        ok = nu <= bound + 1e-12
        greedy_ok += ok
        out_rows.append(("greedy", i, s, mu, nu, bound, None, ok))

    oracle_ok = 0
    for i in range(oracle_trials):
        s = trial_seed(seed, trials + i)
        frame = build_gaussian(GaussianFrameSpec(oracle_rows, oracle_cols, s))
        flipped, _ = linear_time_flip(frame)
        mu, alg_nu = coherence(flipped)
        _, _, min_nu = exhaustive_flip_oracle(frame)
        ok = min_nu <= alg_nu + 1e-9
        oracle_ok += ok
        out_rows.append(("oracle", i, s, mu, alg_nu, scp2_bound(mu, oracle_rows), min_nu, ok))

    return ExperimentReport(
        experiment="flip-guarantee",
        header=["phase", "trial", "seed", "mu", "nu_flipped", "bound", "oracle_min_nu", "ok"],
        rows=out_rows,
        summary=[
            f"greedy guarantee nu <= mu/sqrt(M): {greedy_ok}/{trials} at M={rows}, N={cols} "
            f"(N >= M^2+3M+3 = {threshold}: {'yes' if cols >= threshold else 'NO'})",
            f"exhaustive minimum <= greedy value: {oracle_ok}/{oracle_trials} "
            f"at M={oracle_rows}, N={oracle_cols}",
        ],
        passed=greedy_ok == trials and oracle_ok == oracle_trials,
    )


def run_weak_rip(
    trials=10000,
    seed=1,
    orth_dim=256,
    orth_k=4,
    code_m=6,
    code_t=1,
    code_k=2,
) -> ExperimentReport:
    """Permutation-based energy preservation: orthonormal and code-based frames."""
    _require_trials(trials=trials)
    # code-based frame with (K, delta) chosen to meet the stated regime; its
    # signal is drawn first, so a bad K is rejected before any trial runs
    spec = CodeFrameSpec(code_m, code_t)
    frame = build_code_frame(spec)
    n = frame.cols
    ln = math.log(n)
    if 2 * code_k * ln > frame.rows:
        raise ValueError("2 K ln N exceeds M; pick a smaller K")
    x1 = draw_signal(n, code_k, FlatAmplitudes(1.0), trial_seed(seed, 2))
    out_rows = []
    summary = []

    # orthonormal basis: energy is preserved exactly; delta stands in for 0
    # with just enough room for float rounding
    basis = Frame._own(np.eye(orth_dim), normalize=False)
    x0 = draw_signal(orth_dim, orth_k, FlatAmplitudes(1.0), trial_seed(seed, 0))
    rate0 = weak_rip_estimate(basis, x0, delta=1e-12, trials=trials, seed=trial_seed(seed, 1))
    ok0 = rate0 == 0.0
    out_rows.append(("orthonormal", trials, int(round(rate0 * trials)), rate0, 0.0, 0.0, ok0))
    summary.append(f"orthonormal basis: {int(round(rate0 * trials))} violations in {trials} trials")

    mu = worst_case_coherence(frame)
    delta = 10.0 * mu * math.sqrt(2.0 * code_k * ln)  # equality in 2K ln N <= delta^2/(100 mu^2)
    rate1 = weak_rip_estimate(frame, x1, delta=delta, trials=trials, seed=trial_seed(seed, 3))
    bound = 4.0 * code_k / n**2
    k_viol = int(round(rate1 * trials))
    _, hi = wilson_interval(k_viol, trials)
    slack = hi - rate1
    ok1 = rate1 <= bound + slack
    out_rows.append(("code", trials, k_viol, rate1, bound, hi, ok1))
    scp1 = scp1_bound(n)
    summary.append(
        f"code frame (m={code_m}, t={code_t}): mu = {mu:.4f}, delta = {delta:.3f} "
        f"(regime-coupled), K = {code_k}; violation rate {rate1:.2e} vs "
        f"bound 4K/N^2 = {bound:.2e} + Wilson slack {slack:.2e}"
    )
    summary.append(
        f"note: mu <= 1/(164 ln N) = {scp1:.2e} is "
        f"{'met' if mu <= scp1 else 'NOT met (unattainable at desk scale; see README)'}"
    )
    return ExperimentReport(
        experiment="weak-rip",
        header=["phase", "trials", "violations", "rate", "bound", "wilson_hi", "ok"],
        rows=out_rows,
        summary=summary,
        passed=ok0 and ok1,
    )


def run_ost_recovery(
    rows=128,
    cols=512,
    k=8,
    sigma2=1.0,
    t_param=0.5,
    amp_factor=10.0,
    trials=200,
    seed=1,
    sanity_dim=128,
    sanity_trials=100,
) -> ExperimentReport:
    """Monte Carlo check of the OST support-containment + error-bound event."""
    _require_trials(trials=trials, sanity_trials=sanity_trials)
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be a positive finite number, got {sigma2!r}")
    frame = build_gaussian(GaussianFrameSpec(rows, cols, trial_seed(seed, 0)))
    mu = worst_case_coherence(frame)
    sn = spectral_norm(frame)
    tau_sigma = noise_floor_threshold(sigma2, cols, t_param)
    alpha = amp_factor * tau_sigma
    law = FlatAmplitudes(alpha)

    seeds = [(trial_seed(seed, 2 * i + 1), trial_seed(seed, 2 * i + 2)) for i in range(trials)]
    out_rows = ost_trials(frame, k, law, sigma2, t_param, mu, seeds, lam=None, snr=None)
    # the self-interference floor is attainable for flat K-sparse signals only
    # when (20/t) mu sqrt(2 K ln N) < 1; report the arithmetic either way
    mu_floor_coeff = (20.0 / t_param) * mu * math.sqrt(2.0 * k * math.log(cols))
    _, _, khat_sizes, exact, _, _, ok = zip(*out_rows)
    passed, gate_line = _gate(sum(ok), trials, 1.0 - 10.0 / cols, "1 - 10/N = {:.4f}")

    # noiseless orthonormal sanity: any threshold below the smallest magnitude
    # (1) recovers the signal exactly; row[3] is exact_support, row[4] l2_error
    basis = Frame._own(np.eye(sanity_dim), normalize=False)
    k0 = min(k, sanity_dim)
    sanity_seeds = [(trial_seed(seed ^ 0xABCD, i), 0) for i in range(sanity_trials)]
    sanity_rows = ost_trials(
        basis, k0, FlatAmplitudes(1.0), 0.0, t_param, 0.0, sanity_seeds, lam=0.5, snr=None
    )
    sanity_ok = sum(row[3] and row[4] <= 1e-12 * math.sqrt(k0) for row in sanity_rows)

    regime_limit = sparsity_regime_limit(cols, sn)
    return ExperimentReport(
        experiment="ost-recovery",
        header=list(OST_TRIAL_HEADER),
        rows=out_rows,
        summary=[
            f"frame mu = {mu:.4f}, ||F||_2 = {sn:.4f}; noise floor threshold {tau_sigma:.3f}, "
            f"flat amplitude alpha = {alpha:.3f} ({amp_factor:g} x noise floor)",
            f"self-interference floor attainable for flat K-sparse signals iff "
            f"(20/t) mu sqrt(2 K ln N) < 1; here {mu_floor_coeff:.2f} "
            f"{'< 1: attainable' if mu_floor_coeff < 1 else '>= 1: NOT attainable at desk scale'} "
            "(the prescribed threshold formula is conservative; see README)",
            f"mean |Khat| = {np.mean(khat_sizes):.2f}; exact support recovered in "
            f"{sum(exact)}/{trials} trials (informational)",
            f"sparsity regime K <= N/(c1^2 ||F||_2^2 ln N) = {regime_limit:.4f}: "
            f"{'yes' if k <= regime_limit else 'NO (desk-scale constants; documented)'}",
            gate_line,
            f"noiseless orthonormal sanity: exact recovery in {sanity_ok}/{sanity_trials}",
        ],
        passed=passed and sanity_ok == sanity_trials,
    )


def run_bounds_figure(spatial_dim=3, n_min=None, n_max=55) -> ExperimentReport:
    """Emit the coherence-bound comparison table and check its ordering."""
    if n_min is None:
        n_min = max(spatial_dim, 2)
    rows = bound_table(spatial_dim, range(n_min, n_max + 1))
    summary = []
    passed = True
    if spatial_dim == 3:
        margins = [max(w, r, d) - c for (_, w, c, r, d) in rows]
        passed = all(mg > 0 for mg in margins)
        summary.append(
            "M=3 ordering max(welch, real, three_d) > complex holds at every N: "
            f"{'yes' if passed else 'NO'} (min margin {min(margins):.4g})"
        )
    elif spatial_dim == 2:
        worst = max(abs(r - math.cos(math.pi / n)) for (n, _, _, r, _) in rows)
        passed = worst <= 1e-12
        summary.append(f"M=2 reduction to cos(pi/N): worst deviation {worst:.3g}")
    else:
        summary.append("no ordering claim checked for this M; table emitted")
    return ExperimentReport(
        experiment="bounds-figure",
        header=list(BOUND_HEADER),
        rows=rows,
        summary=summary,
        passed=passed,
    )


RUNNERS = {
    "gaussian-geometry": run_gaussian_geometry,
    "harmonic-geometry": run_harmonic_geometry,
    "code-geometry": run_code_geometry,
    "flip-guarantee": run_flip_guarantee,
    "weak-rip": run_weak_rip,
    "ost-recovery": run_ost_recovery,
    "bounds-figure": run_bounds_figure,
}


def run_experiment(name: str, **params) -> ExperimentReport:
    if name not in RUNNERS:
        known = ", ".join(sorted(RUNNERS))
        raise ValueError(f"unknown experiment {name!r}; expected one of: {known}")
    return RUNNERS[name](**params)
