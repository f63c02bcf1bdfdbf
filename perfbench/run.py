"""framecoh benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a framecoh checkout:

    python3 perfbench/run.py --workload gaussian-dense --seed 3 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json: set-up time (the
median of SETUPS fresh processes, each importing framecoh from ./src and
running one checked warm-up op), then ops back to back for --seconds in the
last of them.  --trace 1 prints the per-layer metrics from a traced run plus
a gaussian-dense pass at one BLAS thread and at nproc.  Workers run with BLAS
threads = nproc, what users get.  Every op's
output is checked; the last line of stdout is the JSON result.  Spans, the
run manifest and the full result are written under .perfbench_out/.

`python3 perfbench/run.py --write-reference` regenerates reference.json
from the checkout's code; a change that claims a speed-up must not do that.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from worker import NAMES, REFERENCE_SEED  # noqa: E402

#: set-up is measured in this many fresh processes per run; the median is reported
SETUPS = 3
#: a run must end within this many seconds
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


#: BLAS threads of every worker except the 1-thread baseline pass
BLAS_THREADS = nproc()


def git_sha(root: str) -> str:
    """HEAD of the checkout if it is itself a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == root:
        return lines[1]
    return "unknown"


class Spawner:
    """Starts worker processes one at a time, each bounded by the run deadline."""

    def __init__(self, root: str, args, deadline: float, workload: str):
        self.root = root
        self.args = args
        self.deadline = deadline
        self.workload = workload

    def __call__(self, mode: str, threads: int, workload: str | None = None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env[var] = str(threads)
        workload = workload or self.workload
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--mode", mode,
            "--reference", self.args.reference,
            "--workdir", os.path.join(self.root, OUT_DIR, f"work-{os.getpid()}"),
        ]
        if self.args.tiny:
            cmd.append("--tiny")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} worker ran past the deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
        return json.loads(lines[-1])


def end_to_end(spawn: Spawner):
    runs = [spawn("setup", BLAS_THREADS) for _ in range(SETUPS - 1)]
    main = spawn("timed", BLAS_THREADS)
    runs.append(main)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "ops_per_s": main["ops_per_s"],
        "op_p50_ms": main["op_p50_ms"],
        "cpu_ms_per_op": main["cpu_ms_per_op"],
        "peak_rss_mib": main["peak_rss_mib"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    return runs, values, attempted, failed


def per_layer(spawn: Spawner):
    main = spawn("traced", BLAS_THREADS)
    one = spawn("speed", 1, workload="gaussian-dense")
    many = spawn("speed", BLAS_THREADS, workload="gaussian-dense")
    values = dict(main["layers"])
    for name in ("frame.gram", "frame.spectral_norm"):
        values[f"{name}.blas_speedup"] = one["per_call_s"][name] / many["per_call_s"][name]
    runs = [main, one, many]
    return runs, values, sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)


def layer_table(values: dict) -> list[str]:
    """Self time per layer as a share of the traced wall time per op."""
    wall = values["trace.wall_s"]
    lines = [f"traced wall {wall:.4f} s/op; self time per layer:"]
    for layer in sorted(LAYERS, key=lambda l: -values[f"{l}.self_s"]):
        s = values[f"{layer}.self_s"]
        lines.append(f"  {layer:<14}{s:10.4f} s/op {100 * s / wall:6.1f}%")
    hot = values["frame.gram.self_s"] + values["frame.spectral_norm.self_s"]
    lines.append(f"  frame.gram + frame.spectral_norm: {100 * hot / wall:.1f}% of traced wall")
    lines.append("  frame.gram.gflop/gflops are computed from the shapes, not counted")
    return lines


def write_reference(args, root: str) -> int:
    ref = {"seed": REFERENCE_SEED, "workloads": {}}
    for name in NAMES:
        spawn = Spawner(root, args, time.monotonic() + DEADLINE_S, name)
        out = spawn("reference", BLAS_THREADS)
        if out["failed"]:
            print("\n".join(out["errors"]), file=sys.stderr)
            raise BenchError(f"{name}: reference ops failed their gates")
        ref["workloads"][name] = out["ops"]
    with open(args.reference, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.reference}")
    return 0


def run_workload(args, workload: str, root: str, bench: dict) -> dict:
    """Measure one workload, print its table, save its files; return the result."""
    spawn = Spawner(root, args, time.monotonic() + DEADLINE_S, workload)
    if args.trace:
        runs, values, attempted, failed = per_layer(spawn)
    else:
        runs, values, attempted, failed = end_to_end(spawn)

    manifest = dict(runs[-1]["manifest"], git_sha=git_sha(root),
                    python=sys.version.split()[0], nproc=nproc(),
                    blas_threads_setting=BLAS_THREADS, base_seed=args.seed,
                    workload=workload, seconds=args.seconds,
                    trace=args.trace, ops=runs[0 if args.trace else -1]["ops"])
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    errors = [e for r in runs for e in r["errors"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    size = "-tiny" if args.tiny else ""
    stem = os.path.join(root, OUT_DIR, f"{workload}{size}-seed{args.seed}-trace{args.trace}")
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({"manifest": manifest, "result": result, "errors": errors,
                   "all_values": values}, fh, indent=1)
    if args.trace:
        with open(f"{stem}-spans.json", "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": runs[0]["spans"]}, fh)

    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"== {workload}")
    print("manifest: " + json.dumps(manifest))
    for name, m in metrics.items():
        print(f"{name:<44}{m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_ratio':<44}{failed / attempted:>16.6g} ({failed} of {attempted} ops)")
    if args.trace:
        print("\n".join(layer_table(values)))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",),
                   help="'all' runs every workload in turn and prints one JSON line per name")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    root = os.path.realpath(os.getcwd())
    if not os.path.isfile(os.path.join(root, "src", "framecoh", "__init__.py")):
        print("perfbench: run from a framecoh checkout (no src/framecoh here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(args, root)
        if args.workload is None:
            p.error("--workload is required")
        names = NAMES if args.workload == "all" else (args.workload,)
        results = {name: run_workload(args, name, root, bench) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
