"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  setup   import framecoh, build the workload, run one checked warm-up op,
          report the set-up time and exit;
  timed   the same set-up, then ops back to back (closed loop, one client)
          for --seconds, each timed and checked; tracing is off;
  traced  the same set-up, then ops untraced for half of --seconds, then the
          same ops again with every layer traced, numerics probed and
          RuntimeWarnings counted;
  speed   the same set-up, then SPEED_OPS traced ops without probes, for
          the BLAS thread comparison;
  reference  run ops 0..REFERENCE_OPS-1 of the reference seed and write their
          output cells to --reference.

The warm-up op always replays op 0 of the reference seed, so every run
checks output cells against the stored reference.  The last line of stdout
is one JSON object.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
import warnings

NAMES = ("gaussian-dense", "structured", "recovery", "cli-io")
#: seed whose outputs are stored in reference.json
REFERENCE_SEED = 1
REFERENCE_OPS = 3
RTOL = 1e-8
ATOL = 1e-10
#: a timed run always completes at least this many ops
MIN_OPS = 3
#: ops per thread setting in the BLAS speed-up pass of a traced run
SPEED_OPS = 3


def op_seed(base: int, index: int) -> int:
    """Seed of op ``index`` in a run with base seed ``base``."""
    return random.Random(f"{base}:{index}").getrandbits(32)


def _blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_name"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError):  # show_config's layout differs across numpy releases
        info["blas_name"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def expected(self, seed, index):
        """Reference parts for this op: all of them on the reference seed,
        else only the seed-independent ones."""
        if self.reference is None:
            return {}
        ops = self.reference["workloads"][self.workload.name]
        if seed == REFERENCE_SEED and index < len(ops):
            return ops[index]
        return {k: v for k, v in ops[0].items() if k in self.workload.fixed}

    def op(self, seed, index):
        """Run and check one op; return (wall s, cpu s, output cells or None)."""
        from workloads import compare  # imports framecoh: only workers can

        s = op_seed(seed, index)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raw = self.workload.run(s)
            crashed = None
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            traceback.print_exc()
            crashed = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if crashed is None:
            errors, cells = self.workload.verify(raw)
            for part, want in self.expected(seed, index).items():
                if part not in cells:
                    errors.append(f"{part}: missing from the output")
                else:
                    errors.extend(compare(cells[part], want, RTOL, ATOL, part))
        else:
            errors, cells = [crashed], None
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"seed {seed} op {index}: {e}" for e in errors[:5])
        return t1 - t0, c1 - c0, cells


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "timed", "traced", "speed", "reference"],
                   required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    import framecoh
    import workloads

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(framecoh.__file__).startswith(src + os.sep):
        print(f"framecoh imported from {framecoh.__file__}, not from ./src", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.tiny, args.workdir)

    if args.mode == "reference":
        runner = Runner(wl, None)
        ops = [runner.op(REFERENCE_SEED, i)[2] for i in range(REFERENCE_OPS)]
        print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                          "errors": runner.errors, "ops": ops}))
        return 0

    with open(args.reference, encoding="ascii") as fh:
        reference = json.load(fh)
    runner = Runner(wl, reference)
    runner.op(REFERENCE_SEED, 0)  # warm-up: fills caches, checks the reference
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned_at, "manifest": _blas_info()}
    result["manifest"]["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    result["manifest"]["FRAMECOH_THREADS"] = os.environ.get("FRAMECOH_THREADS")

    if args.mode == "timed":
        result.update(timed(runner, args.seed, args.seconds))
    elif args.mode == "traced":
        result.update(traced(runner, args.seed, args.seconds))
    elif args.mode == "speed":
        result.update(speed(runner, args.seed))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors[:20])
    print(json.dumps(result))
    return 0


def timed(runner: Runner, seed: int, seconds: float) -> dict:
    walls, cpus = [], []
    start = time.monotonic()
    while len(walls) < MIN_OPS or time.monotonic() - start < seconds:
        wall, cpu, _ = runner.op(seed, len(walls))
        walls.append(wall)
        cpus.append(cpu)
    return {
        "ops": len(walls),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
    }


def _layer_of(filename: str) -> str:
    stem = os.path.splitext(os.path.basename(filename))[0]
    return stem if "framecoh" in filename else "other"


def traced(runner: Runner, seed: int, seconds: float) -> dict:
    import tracer as tracing

    untraced = []
    start = time.monotonic()
    while not untraced or time.monotonic() - start < seconds / 2:
        untraced.append(runner.op(seed, len(untraced))[0])
    tr = tracing.Tracer(probes=True)
    tr.install()
    warned = collections.Counter()
    traced_wall = 0.0
    for i in range(len(untraced)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tr.span("op"):
                traced_wall += runner.op(seed, i)[0]
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                warned[_layer_of(w.filename)] += 1
    n = len(untraced)
    probe_s = tr.summary().get("probe", {"total_s": 0.0})["total_s"]
    metrics = tracing.layer_metrics(tr, n, warned)
    metrics["trace.overhead_s"] = (traced_wall - probe_s - sum(untraced)) / n
    metrics["trace.wall_s"] = (traced_wall - probe_s) / n
    return {"ops": n, "layers": metrics, "spans": tr.spans}


def speed(runner: Runner, seed: int) -> dict:
    import tracer as tracing

    tr = tracing.Tracer(probes=False)
    tr.install()
    for i in range(SPEED_OPS):
        runner.op(seed, i)
    summary = tr.summary()
    return {
        "per_call_s": {
            name: summary[name]["self_s"] / max(summary[name]["calls"], 1)
            for name in ("frame.gram", "frame.spectral_norm")
        }
    }


if __name__ == "__main__":
    sys.exit(main())
