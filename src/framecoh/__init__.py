"""framecoh: low-coherence unit-norm frames and sparse recovery.

Constructs normalized Gaussian, random harmonic, and GF(2^m) code-based
frames; measures worst-case/average coherence and the spectral norm;
evaluates coherence lower bounds; reduces average coherence by sign
flipping; and recovers noisy sparse signals by one-step thresholding.
"""
from .bounds import (
    bound_3d,
    bound_table,
    complex_bound,
    gamma_half_integer,
    real_bound,
    welch_bound,
)
from .constructions import (
    CodeFrameSpec,
    GaussianFrameSpec,
    HarmonicFrameSpec,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    code_frame_geometry,
    harmonic_frame_from_rows,
    xor_stationary_coherence,
)
from .equivalence import (
    FlipPattern,
    WigglePattern,
    apply_flip,
    apply_wiggle,
    exhaustive_flip_oracle,
    linear_time_flip,
)
from .experiments import (
    ExperimentReport,
    run_experiment,
    trial_seed,
    wilson_interval,
)
from .fixtures import FLIP_DEMO_PATTERN, flip_demo_path, load_flip_demo
from .frame import (
    COMPLEX,
    REAL,
    CoherenceReport,
    Frame,
    average_coherence,
    coherence,
    gram,
    scp1_bound,
    scp2_bound,
    scp_check,
    spectral_norm,
    worst_case_coherence,
)
from .frameio import FrameParseError, read_frame, write_frame
from .gf2m import GF2m, gf2m_mul, gf2m_trace, least_irreducible, validate_irreducible
from .ost import (
    OST_C1,
    OST_C2,
    OST_C3,
    FlatAmplitudes,
    NoiseModel,
    RecoveryResult,
    RspReport,
    SparseSignal,
    TwoTierAmplitudes,
    check_rsp_bounds,
    draw_signal,
    floor_sets,
    generate_problem,
    noise_floor_threshold,
    noise_scale,
    ost_recover,
    ost_threshold,
    ost_trials,
    snr_of,
    sparsity_regime_limit,
    weak_rip_estimate,
)

__version__ = "0.1.0"
