"""Self-test of the benchmark harness at tiny sizes (about a minute).

Run from the root of a framecoh checkout:

    python3 perfbench/selftest.py

It writes a tiny-size reference under .perfbench_out/selftest/, then checks:
  * every end-to-end and per-layer metric of BENCHMARK.json is emitted, with
    its unit, and the reference seed runs clean, for every workload;
  * a deliberately perturbed reference value makes an op fail;
  * a second base seed runs clean;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import NAMES, REFERENCE_SEED  # noqa: E402

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_out", "selftest")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--tiny", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perturb_first_float(cells) -> bool:
    """Scale the first float of magnitude >= 1e-3 in a cell tree by 1 + 1e-6,
    in place: far outside the comparison tolerance."""
    for i, v in enumerate(cells):
        if isinstance(v, float) and abs(v) >= 1e-3:
            cells[i] = v * (1 + 1e-6)
            return True
        if isinstance(v, list) and perturb_first_float(v):
            return True
    return False


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ref = os.path.join(WORK, "reference.json")
    failures = []

    def check(label, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(label)

    proc = bench("--write-reference", "--reference", ref)
    check("tiny reference written", proc.returncode == 0, proc.stderr[-1500:])
    if failures:
        return 1

    for workload in NAMES:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for seed in (REFERENCE_SEED, REFERENCE_SEED + 1):
                label = f"{workload} trace {trace} seed {seed}"
                try:
                    res = result_of(bench("--reference", ref, "--workload", workload,
                                          "--seed", str(seed), "--trace", trace))
                except AssertionError as exc:
                    check(label, False, str(exc))
                    continue
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(f"{label}: metrics and units", got == want,
                      f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
                check(f"{label}: runs clean", res["correct"] and res["failed"] == 0,
                      json.dumps({k: res[k] for k in ("correct", "attempted", "failed")}))

    with open(ref, encoding="ascii") as fh:
        data = json.load(fh)
    for workload in NAMES:
        bad = json.loads(json.dumps(data))
        part = next(iter(bad["workloads"][workload][0].values()))
        perturb_first_float(part)
        path = os.path.join(WORK, f"perturbed-{workload}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(bad, fh)
        res = result_of(bench("--reference", path, "--workload", workload,
                              "--seed", str(REFERENCE_SEED)))
        check(f"{workload}: perturbed reference value counts as a failed op",
              res["failed"] >= 1 and not res["correct"], json.dumps(res))

    bare = os.path.join(WORK, "bare")
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    check("without framecoh sources: non-zero exit, no result",
          proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout[-500:])

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
