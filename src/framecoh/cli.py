"""Command-line interface: construct, analyze, flip, recover, bounds, experiment.

Exit codes: 0 on success/pass, 1 when an experiment's gate fails, 2 for
usage, configuration, or input-file errors, and for a frame too large for
the memory a command needs (for example a frame file whose entries do not
fit in memory once read).  An exit 2 prints one ``error: ...`` line to
stderr, no traceback and nothing on stdout, argparse's own usage errors
included.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import constructions
from .bounds import BOUND_HEADER, bound_table
from .equivalence import linear_time_flip
from .experiments import ExperimentReport, run_experiment, trial_seed, wilson_interval
from .frame import average_coherence, scp1_bound, scp2_bound, scp_check, worst_case_coherence
from .frameio import default_frame_name, read_frame, write_frame
from .ost import (
    OST_TRIAL_HEADER,
    FlatAmplitudes,
    TwoTierAmplitudes,
    noise_floor_threshold,
    noise_scale,
    ost_trials,
)


def _write_text(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _emit_csv(text, path, what):
    """CSV ``text`` to ``path`` with a ``wrote ...`` line, or to stdout if no path."""
    if path:
        _write_text(path, text)
        print(f"wrote {what} to {path}")
    else:
        sys.stdout.write(text)


def _parse(key, text, cast):
    """``cast(text)``; a value it rejects raises a ValueError that names ``key``."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"{key}: expected {cast.__name__}, got {text!r}") from None


def bitmask(text):
    """An integer literal in any base Python reads: 0x13, 0b10011 or 19."""
    return int(text, 0)


def _print_report(frame, report):
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


def _cmd_construct(args) -> int:
    poly = None if args.poly is None else _parse("--poly", args.poly, bitmask)
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
        spec = constructions.CodeFrameSpec(args.m, args.t, poly)
        frame = constructions.build_code_frame(spec)
        kept = None
        stem = f"code_m{args.m}_t{args.t}"

    report = scp_check(frame)  # a frame it refuses is neither written nor printed
    out = args.output or default_frame_name(stem)
    write_frame(out, frame, binary=args.binary)
    print(f"wrote {frame.rows} x {frame.cols} frame to {out}")
    if kept is not None:
        print("selected rows:", " ".join(str(int(r)) for r in kept))
    _print_report(frame, report)
    return 0


_REPORT_HEADER = ["M", "N", "field", "mu", "nu", "spectral_norm", "scp1", "scp2"]


def _cmd_analyze(args) -> int:
    frame = read_frame(args.frame)
    report = scp_check(frame)
    if args.csv:
        row = (frame.rows, frame.cols, frame.scalar_field, report.mu, report.nu,
               report.spectral_norm, report.scp1, report.scp2)
        _write_text(args.csv, ExperimentReport("analyze", _REPORT_HEADER, [row]).csv_text())
    _print_report(frame, report)
    if args.csv:
        print(f"wrote CSV report to {args.csv}")
    return 0


def _cmd_flip(args) -> int:
    frame = read_frame(args.frame)
    nu = average_coherence(frame)  # a frame it refuses is neither written nor printed
    flipped, pattern = linear_time_flip(frame)
    nu_flipped = average_coherence(flipped)
    out = args.output or (str(args.frame) + ".flipped")
    write_frame(out, flipped, binary=args.binary)
    if args.pattern_out:
        _write_text(args.pattern_out, pattern.to_string() + "\n")
    print(pattern.to_string())
    print(f"average coherence: {nu:.12g} -> {nu_flipped:.12g}")
    print(f"wrote flipped frame to {out}")
    return 0


def _cmd_recover(args) -> int:
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
    _emit_csv(ExperimentReport("recover", list(OST_TRIAL_HEADER), rows).csv_text(),
              args.output, "per-trial CSV")
    lo, hi = wilson_interval(hits, args.trials)
    print(f"ok in {hits}/{args.trials} trials; Wilson 95% [{lo:.4f}, {hi:.4f}]")
    return 0


def _cmd_bounds(args) -> int:
    rows = bound_table(args.M, range(args.nmin, args.nmax + 1))
    _emit_csv(ExperimentReport("bounds", list(BOUND_HEADER), rows).csv_text(),
              args.output, "bound table")
    vacuous = [
        n
        for (n, w, c, r, d) in rows
        if w <= 0 or c <= 0 or r <= 0 or (d is not None and d <= 0)
    ]
    if vacuous:
        print(f"# vacuous (non-positive) bound values occur at N in {vacuous}", file=sys.stderr)
    return 0


#: Each experiment key's cast, the same in every experiment that takes it.
#: The ``experiment`` subcommand has one flag per key: -K for a one-letter
#: key, --t-param for t_param.
_KEY_CASTS = {
    "M": int, "N": int, "m": int, "t": int, "K": int,
    "sigma2": float, "t_param": float, "alpha_factor": float,
    "nmin": int, "nmax": int, "trials": int, "seed": int,
}

#: Each experiment's keys and the runner keyword each one sets.
_EXPERIMENT_KEYS = {
    "gaussian-geometry": {"M": "rows", "N": "cols", "trials": "trials", "seed": "seed"},
    "harmonic-geometry": {"N": "dft_size", "M": "target_rows", "trials": "trials",
                          "seed": "seed"},
    "code-geometry": {"m": "m", "t": "t"},
    "flip-guarantee": {"M": "rows", "N": "cols", "trials": "trials", "seed": "seed"},
    "weak-rip": {"trials": "trials", "seed": "seed", "m": "code_m", "t": "code_t",
                 "K": "code_k"},
    "ost-recovery": {"M": "rows", "N": "cols", "K": "k", "sigma2": "sigma2",
                     "t_param": "t_param", "alpha_factor": "amp_factor",
                     "trials": "trials", "seed": "seed"},
    "bounds-figure": {"M": "spatial_dim", "nmin": "n_min", "nmax": "n_max"},
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
    # every flag given is cast, also one that the experiment ignores
    flags = {key: _parse(key, getattr(args, key), cast)
             for key, cast in _KEY_CASTS.items() if getattr(args, key) is not None}
    file_values = read_config_file(args.config) if args.config else {}
    name = args.id or file_values.get("experiment")
    if name not in _EXPERIMENT_KEYS:
        run_experiment(name)  # raises the no-experiment or unknown-experiment error

    keys = _EXPERIMENT_KEYS[name]
    unknown = sorted(set(file_values) - set(keys) - {"experiment"})
    if unknown:
        valid = ", ".join(sorted([*keys, "experiment"]))
        raise ValueError(
            f"{args.config}: unknown key(s) {', '.join(unknown)} for {name}; valid keys: {valid}"
        )
    values = {key: _parse(key, file_values[key], _KEY_CASTS[key])
              for key in keys if key in file_values}
    values.update(flags)
    params = {kw: values[key] for key, kw in keys.items() if key in values}
    if name == "code-geometry" and ("m" in params or "t" in params):
        m = params.pop("m", 4)
        t = params.pop("t", 1)
        params["cases"] = ((m, t),)

    report = run_experiment(name, **params)
    if args.output:
        _write_text(args.output, report.csv_text())
    sys.stdout.write(report.summary_text())
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--poly", default=None,
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
    for key in _KEY_CASTS:
        p.add_argument("-" + key if len(key) == 1 else "--" + key.replace("_", "-"), dest=key)
    p.add_argument("-o", "--output", default=None, help="per-trial CSV path")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
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
