"""Command-line interface: construct, analyze, flip, recover, bounds, experiment.

Exit codes: 0 on success/pass, 1 when an experiment's gate fails, 2 for
usage, configuration, or input-file errors, and for a frame too large for
the memory a command needs (for example a frame file whose entries do not
fit in memory once read).  Apart from argparse's usage errors, an exit 2
prints one ``error: ...`` line to stderr and no traceback.

The environment variable FRAMECOH_THREADS caps BLAS parallelism; it is
applied before numpy is imported, so it only takes effect when the CLI
starts in a fresh process.
"""
from __future__ import annotations

import argparse
import math
import os
import sys


def _apply_thread_cap():
    cap = os.environ.get("FRAMECOH_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def _print_report(frame, report):
    from .frame import scp1_bound, scp2_bound

    m, n = frame.rows, frame.cols
    scp1_rhs = scp1_bound(n)
    scp2_rhs = scp2_bound(report.mu, m)
    print(f"frame: {m} x {n} ({frame.scalar_field})")
    print(f"worst-case coherence mu   = {report.mu:.12g}")
    print(f"average coherence nu      = {report.nu:.12g}")
    print(f"spectral norm ||F||_2     = {report.spectral_norm:.12g}  "
          f"(||F||_2^2 = {report.spectral_norm ** 2:.12g}, N/M = {n / m:.12g})")
    print(f"SCP-1 (mu <= 1/(164 ln N) = {scp1_rhs:.6g}): {'pass' if report.scp1 else 'FAIL'}")
    print(f"SCP-2 (nu <= mu/sqrt(M)   = {scp2_rhs:.6g}): {'pass' if report.scp2 else 'FAIL'}")


def _report_csv(frame, report) -> str:
    header = "M,N,field,mu,nu,spectral_norm,scp1,scp2"
    row = (
        f"{frame.rows},{frame.cols},{frame.scalar_field},"
        f"{report.mu:.12g},{report.nu:.12g},{report.spectral_norm:.12g},"
        f"{int(report.scp1)},{int(report.scp2)}"
    )
    return header + "\n" + row + "\n"


def _cmd_construct(args) -> int:
    from . import constructions
    from .frame import scp_check
    from .frameio import default_frame_name, write_frame

    if args.family == "gaussian":
        spec = constructions.GaussianFrameSpec(args.M, args.N, args.seed)
        frame = constructions.build_gaussian(spec)
        kept = None
        stem = f"gaussian_{args.M}x{args.N}_seed{args.seed}"
    elif args.family == "harmonic":
        spec = constructions.HarmonicFrameSpec(args.N, args.M, args.seed)
        frame, kept = constructions.build_harmonic(spec)
        stem = f"harmonic_{args.N}_rows{args.M}_seed{args.seed}"
    else:  # code
        spec = constructions.CodeFrameSpec(args.m, args.t, args.poly)
        frame = constructions.build_code_frame(spec)
        kept = None
        stem = f"code_m{args.m}_t{args.t}"

    out = args.output or default_frame_name(stem)
    write_frame(out, frame, binary=args.binary)
    print(f"wrote {frame.rows} x {frame.cols} frame to {out}")
    if kept is not None:
        print("selected rows:", " ".join(str(int(r)) for r in kept))
    _print_report(frame, scp_check(frame))
    return 0


def _cmd_analyze(args) -> int:
    from .frame import scp_check
    from .frameio import read_frame

    frame = read_frame(args.frame)
    report = scp_check(frame)
    _print_report(frame, report)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(_report_csv(frame, report))
        print(f"wrote CSV report to {args.csv}")
    return 0


def _cmd_flip(args) -> int:
    from .equivalence import linear_time_flip
    from .frame import average_coherence
    from .frameio import read_frame, write_frame

    frame = read_frame(args.frame)
    flipped, pattern = linear_time_flip(frame)
    out = args.output or (str(args.frame) + ".flipped")
    write_frame(out, flipped, binary=args.binary)
    print(pattern.to_string())
    print(f"average coherence: {average_coherence(frame):.12g} -> "
          f"{average_coherence(flipped):.12g}")
    print(f"wrote flipped frame to {out}")
    if args.pattern_out:
        with open(args.pattern_out, "w", encoding="ascii") as fh:
            fh.write(pattern.to_string() + "\n")
    return 0


def _cmd_recover(args) -> int:
    from .experiments import ExperimentReport, trial_seed, wilson_interval
    from .frame import worst_case_coherence
    from .frameio import read_frame
    from .ost import (
        OST_TRIAL_HEADER,
        FlatAmplitudes,
        TwoTierAmplitudes,
        noise_floor_threshold,
        noise_scale,
        ost_trials,
    )

    if not (args.sigma2 > 0 and math.isfinite(args.sigma2)):
        raise ValueError(f"--sigma2 must be a positive number, got {args.sigma2!r}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    frame = read_frame(args.frame)
    n = frame.cols
    mu = worst_case_coherence(frame)
    tau_sigma = noise_floor_threshold(args.sigma2, n, args.t)
    alpha = args.alpha if args.alpha is not None else args.alpha_factor * tau_sigma
    if args.amplitude == "flat":
        law = FlatAmplitudes(alpha)
    else:
        law = TwoTierAmplitudes(alpha, noise_scale(args.sigma2, n))

    seeds = [(trial_seed(args.seed, 2 * i), trial_seed(args.seed, 2 * i + 1))
             for i in range(args.trials)]
    rows = ost_trials(frame, args.K, law, args.sigma2, args.t, mu, seeds,
                      lam=args.lam, snr=args.snr)
    hits = sum(row[-1] for row in rows)
    text = ExperimentReport("recover", list(OST_TRIAL_HEADER), rows).csv_text()
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote per-trial CSV to {args.output}")
    else:
        sys.stdout.write(text)
    lo, hi = wilson_interval(hits, args.trials)
    print(f"ok in {hits}/{args.trials} trials; Wilson 95% [{lo:.4f}, {hi:.4f}]")
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import bound_table

    table = bound_table(args.M, range(args.nmin, args.nmax + 1))
    text = table.to_csv()
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote bound table to {args.output}")
    else:
        sys.stdout.write(text)
    vacuous = [
        n
        for (n, w, c, r, d) in table.rows()
        if w <= 0 or c <= 0 or r <= 0 or (d is not None and d <= 0)
    ]
    if vacuous:
        print(f"# vacuous (non-positive) bound values occur at N in {vacuous}", file=sys.stderr)
    return 0


_EXPERIMENT_PARAMS = {
    "gaussian-geometry": {"M": ("rows", int), "N": ("cols", int),
                          "trials": ("trials", int), "seed": ("seed", int)},
    "harmonic-geometry": {"N": ("dft_size", int), "M": ("target_rows", int),
                          "trials": ("trials", int), "seed": ("seed", int)},
    "code-geometry": {"m": ("m", int), "t": ("t", int)},
    "flip-guarantee": {"M": ("rows", int), "N": ("cols", int),
                       "trials": ("trials", int), "seed": ("seed", int)},
    "weak-rip": {"trials": ("trials", int), "seed": ("seed", int),
                 "m": ("code_m", int), "t": ("code_t", int), "K": ("code_k", int)},
    "ost-recovery": {"M": ("rows", int), "N": ("cols", int), "K": ("k", int),
                     "sigma2": ("sigma2", float), "t_param": ("t_param", float),
                     "alpha_factor": ("amp_factor", float),
                     "trials": ("trials", int), "seed": ("seed", int)},
    "bounds-figure": {"M": ("spatial_dim", int), "nmin": ("n_min", int),
                      "nmax": ("n_max", int)},
}


def read_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; later keys win."""
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {stripped!r}")
            key, _, val = stripped.partition("=")
            values[key.strip()] = val.strip()
    return values


def _cmd_experiment(args) -> int:
    from .experiments import RUNNERS, run_experiment

    name = args.id
    file_values = read_config_file(args.config) if args.config else {}
    if "experiment" in file_values:
        name = name or file_values["experiment"]
    if name not in RUNNERS:
        known = ", ".join(sorted(RUNNERS))
        raise ValueError(f"unknown experiment {name!r}; expected one of: {known}")

    mapping = _EXPERIMENT_PARAMS[name]
    unknown = sorted(set(file_values) - set(mapping) - {"experiment"})
    if unknown:
        valid = ", ".join(sorted([*mapping, "experiment"]))
        raise ValueError(
            f"{args.config}: unknown key(s) {', '.join(unknown)} for {name}; valid keys: {valid}"
        )
    params = {}
    for key, (kw, cast) in mapping.items():
        if key in file_values:
            params[kw] = cast(file_values[key])
        flag = getattr(args, key, None)
        if flag is not None:
            params[kw] = cast(flag)
    if name == "code-geometry" and ("m" in params or "t" in params):
        m = params.pop("m", 4)
        t = params.pop("t", 1)
        params["cases"] = ((m, t),)

    report = run_experiment(name, **params)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(report.csv_text())
    sys.stdout.write(report.summary_text())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecoh",
        description="Low-coherence frames: construction, analysis, flipping, "
        "sparse recovery, coherence bounds, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a frame and write a FRAME v1 file")
    p.add_argument("family", choices=["gaussian", "harmonic", "code"])
    p.add_argument("-M", type=int, default=64, help="rows (gaussian) / target rows (harmonic)")
    p.add_argument("-N", type=int, default=256, help="columns (gaussian) / DFT size (harmonic)")
    p.add_argument("-m", type=int, default=4, help="field exponent (code)")
    p.add_argument("-t", type=int, default=1, help="tuple length minus one (code)")
    p.add_argument("--poly", type=lambda s: int(s, 0), default=None,
                   help="irreducible modulus bitmask (code); default is the frozen table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--binary", action="store_true", help="write the binary variant")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="print the coherence report of a frame file")
    p.add_argument("frame")
    p.add_argument("--csv", default=None, help="also write a one-row CSV report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("flip", help="greedy sign flipping to reduce average coherence")
    p.add_argument("frame")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--pattern-out", default=None, help="write the +/- pattern to a file")
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("recover", help="one-step thresholding recovery trials")
    p.add_argument("frame")
    p.add_argument("--sigma2", type=float, required=True, help="noise variance per entry")
    p.add_argument("--snr", type=float, default=None,
                   help="signal-to-noise ratio for the threshold (default: from the signal)")
    p.add_argument("--lam", type=float, default=None, help="explicit threshold (overrides snr)")
    p.add_argument("--t", type=float, default=0.5, help="floor/threshold split in (0,1)")
    p.add_argument("-K", type=int, default=8, help="sparsity")
    p.add_argument("--amplitude", choices=["flat", "two-tier"], default="flat")
    p.add_argument("--alpha", type=float, default=None, help="explicit nonzero magnitude")
    p.add_argument("--alpha-factor", type=float, default=10.0,
                   help="magnitude as a multiple of the noise floor (default 10)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("-o", "--output", default=None, help="per-trial CSV path")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("bounds", help="emit the coherence lower-bound table")
    p.add_argument("-M", type=int, default=3)
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, default=55)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a named Monte Carlo experiment")
    p.add_argument("id", nargs="?", default=None,
                   help="experiment name (may come from the config file instead)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("-M", type=int, default=None)
    p.add_argument("-N", type=int, default=None)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-t", type=int, default=None)
    p.add_argument("-K", type=int, default=None)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--t-param", dest="t_param", type=float, default=None)
    p.add_argument("--alpha-factor", dest="alpha_factor", type=float, default=None)
    p.add_argument("--nmin", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None, help="per-trial CSV path")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
