"""The benchmark's workloads: what one op runs, and how its output is checked.

Each workload's `run(seed)` is the timed op: one top-level call (or, for
cli-io, one fixed cycle of `cli.main` commands) whose inputs derive from
`seed`.  `verify(raw)` runs outside the timing and returns the gate errors
plus the op's numeric output cells, grouped into named parts.  Parts listed
in `fixed` do not depend on the seed, so they are compared with the stored
reference on every seed; the others only on the reference seed.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import re
import shutil

import numpy as np

from framecoh import cli, constructions, experiments, frame as frame_mod


def plain(value):
    """JSON-safe copy of one output cell."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return [plain(v) for v in value]


class GaussianDense:
    """gaussian-geometry at 512 x 2048 (real), a fixed trial count per op."""

    name = "gaussian-dense"
    fixed = ()

    def __init__(self, tiny: bool):
        self.params = dict(rows=96, cols=256, trials=2) if tiny else dict(
            rows=512, cols=2048, trials=2
        )

    def run(self, seed):
        return experiments.run_experiment("gaussian-geometry", seed=seed, **self.params)

    def verify(self, report):
        errors = [] if report.passed else ["gaussian-geometry: gate failed"]
        return errors, {"gaussian-geometry": plain(report.rows)}


class Structured:
    """harmonic-geometry, code-geometry, and the in-regime (N-1)-row harmonic frame."""

    name = "structured"
    fixed = ("code-geometry",)

    def __init__(self, tiny: bool):
        if tiny:
            self.harmonic = dict(dft_size=128, target_rows=32, trials=2)
            self.code_cases = ((3, 1), (4, 1))
            self.n = 128
        else:
            self.harmonic = dict(dft_size=1024, target_rows=64, trials=4)
            self.code_cases = ((4, 1), (5, 1), (6, 1), (6, 2))
            self.n = 2048

    def dropped_row(self, seed):
        # dropping any one nonzero row of the DFT leaves an equiangular frame
        return 1 + seed % (self.n - 1)

    def run(self, seed):
        harmonic = experiments.run_experiment("harmonic-geometry", seed=seed, **self.harmonic)
        code = experiments.run_experiment("code-geometry", cases=self.code_cases)
        drop = self.dropped_row(seed)
        rows = [r for r in range(self.n) if r != drop]
        big = constructions.harmonic_frame_from_rows(self.n, rows)
        return harmonic, code, drop, frame_mod.scp_check(big)

    def verify(self, raw):
        harmonic, code, drop, rep = raw
        errors = []
        if not harmonic.passed:
            errors.append("harmonic-geometry: gate failed")
        if not code.passed:
            errors.append("code-geometry: gate failed")
        # analytic values: mu = 1/(N-1), nu = 1/(N-1)^2, ||F||_2^2 = N/(N-1)
        n = self.n
        expect = {
            "mu": 1.0 / (n - 1),
            "nu": 1.0 / (n - 1) ** 2,
            "spectral_norm": math.sqrt(n / (n - 1)),
        }
        for key, want in expect.items():
            got = getattr(rep, key)
            if abs(got - want) > 1e-9 * want + 1e-15:
                errors.append(f"harmonic N-1: {key} = {got!r}, expected {want!r}")
        if rep.scp1 != (expect["mu"] <= 1.0 / (164.0 * math.log(n))):
            errors.append("harmonic N-1: SCP-1 verdict disagrees with mu = 1/(N-1)")
        if not rep.scp2:
            errors.append("harmonic N-1: SCP-2 verdict should hold")
        return errors, {
            "harmonic-geometry": plain(harmonic.rows),
            "code-geometry": plain(code.rows),
            "harmonic-n-1": plain([drop, rep.mu, rep.nu, rep.spectral_norm, rep.scp1, rep.scp2]),
        }


class Recovery:
    """ost-recovery, weak-rip and flip-guarantee at their acceptance sizes."""

    name = "recovery"
    fixed = ()

    def __init__(self, tiny: bool):
        if tiny:
            self.ost = dict(rows=64, cols=128, k=2, trials=20, sanity_dim=16, sanity_trials=5)
            self.weak = dict(trials=200, orth_dim=32, orth_k=2, code_m=4, code_t=1, code_k=1)
            self.flip = dict(rows=3, cols=20, trials=5, oracle_rows=3, oracle_cols=8,
                             oracle_trials=2)
        else:
            self.ost = dict(rows=128, cols=512, k=8, trials=200)
            self.weak = dict(trials=10000, orth_dim=256, orth_k=4, code_m=6, code_t=1, code_k=2)
            self.flip = dict(rows=5, cols=50, trials=100, oracle_rows=4, oracle_cols=16,
                             oracle_trials=20)

    def run(self, seed):
        return (
            experiments.run_experiment("ost-recovery", seed=seed, **self.ost),
            experiments.run_experiment("weak-rip", seed=seed, **self.weak),
            experiments.run_experiment("flip-guarantee", seed=seed, **self.flip),
        )

    def verify(self, reports):
        errors = [f"{r.experiment}: gate failed" for r in reports if not r.passed]
        return errors, {r.experiment: plain(r.rows) for r in reports}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numbers(text: str) -> list:
    """Every number in ``text``, ints kept exact."""
    out = []
    for tok in _NUMBER.findall(text):
        out.append(float(tok) if any(c in tok for c in ".eE") else int(tok))
    return out


def frame_file_cells(path) -> list:
    """Header fields and checksums of a FRAME v1 file, parsed independently.

    Returns [M, N, field, binary, sum of entries (re, im), sum of squared
    moduli, largest deviation of a column norm from 1].
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, body = raw.partition(b"\n")
    parts = head.decode("ascii").split()
    m, n, field = int(parts[2]), int(parts[3]), parts[4]
    binary = parts[-1] == "binary"
    if binary:
        flat = np.frombuffer(body, dtype="<c16" if field == "complex" else "<f8")
    elif field == "complex":
        flat = np.array([complex(t[:-1] + "j") for t in body.decode("ascii").split()])
    else:
        flat = np.array(body.decode("ascii").split(), dtype=np.float64)
    data = flat.reshape((m, n), order="F")
    total = complex(data.sum())
    norm_dev = float(np.max(np.abs(np.linalg.norm(data, axis=0) - 1.0)))
    return [m, n, field, binary, total.real, total.imag, float(np.sum(np.abs(data) ** 2)),
            norm_dev]


class CliIo:
    """A fixed cycle of in-process `cli.main` commands in a scratch directory."""

    name = "cli-io"
    fixed = ("construct-code", "analyze-code", "bounds", "file-c.frame")

    def __init__(self, tiny: bool, workdir: str):
        self.workdir = workdir
        if tiny:
            g, h, c, trials, nmax = ("16", "64"), ("128", "16"), ("3", "1"), "5", "10"
        else:
            g, h, c, trials, nmax = ("128", "512"), ("1024", "64"), ("5", "1"), "50", "55"
        self.commands = [
            ("construct-gaussian", ["construct", "gaussian", "-M", g[0], "-N", g[1],
                                    "--seed", "{seed}", "-o", "g.frame"]),
            ("construct-harmonic", ["construct", "harmonic", "-N", h[0], "-M", h[1],
                                    "--seed", "{seed}", "-o", "h.frame"]),
            ("construct-code", ["construct", "code", "-m", c[0], "-t", c[1], "--binary",
                                "-o", "c.frame"]),
            ("analyze-gaussian", ["analyze", "g.frame"]),
            ("analyze-harmonic", ["analyze", "h.frame"]),
            ("analyze-code", ["analyze", "c.frame"]),
            ("flip", ["flip", "g.frame", "-o", "gf.frame"]),
            ("recover", ["recover", "g.frame", "--sigma2", "1.0", "-K", "8", "--trials",
                         trials, "--seed", "{seed}"]),
            ("bounds", ["bounds", "-M", "3", "--nmin", "3", "--nmax", nmax]),
        ]
        self.files = ("g.frame", "h.frame", "c.frame", "gf.frame")

    def run(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        here = os.getcwd()
        os.chdir(self.workdir)
        results = []
        try:
            for label, argv in self.commands:
                argv = [a.format(seed=seed) for a in argv]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                results.append((label, code, out.getvalue(), err.getvalue()))
        finally:
            os.chdir(here)
        return results

    def verify(self, results):
        errors = []
        cells = {}
        for label, code, out, err in results:
            if code != 0:
                errors.append(f"{label}: exit code {code}: {err.strip()[:200]}")
            cells[label] = numbers(out)
        pattern = results[[r[0] for r in results].index("flip")][2].split("\n", 1)[0]
        cells["flip-pattern"] = [pattern]
        if not pattern or set(pattern) - set("+-"):
            errors.append(f"flip: first line is not a sign pattern: {pattern[:40]!r}")
        for name in self.files:
            path = os.path.join(self.workdir, name)
            try:
                cells[f"file-{name}"] = plain(frame_file_cells(path))
            except (OSError, ValueError, IndexError) as exc:
                errors.append(f"{name}: unreadable frame file: {exc}")
                continue
            if cells[f"file-{name}"][-1] > 1e-10:
                errors.append(f"{name}: a column is not unit norm")
        shutil.rmtree(self.workdir, ignore_errors=True)
        return errors, cells


def make(name: str, tiny: bool, workdir: str):
    if name == "cli-io":
        return CliIo(tiny, workdir)
    return {"gaussian-dense": GaussianDense, "structured": Structured, "recovery": Recovery}[
        name
    ](tiny)


def compare(got, want, rtol: float, atol: float, where: str = "") -> list:
    """Mismatches between two cell trees; floats within rtol * |x| + atol."""
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} cells, reference has {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(compare(g, w, rtol, atol, f"{where}[{i}]"))
        return out
    num = (int, float)
    if (
        isinstance(got, num) and isinstance(want, num)
        and not isinstance(got, bool) and not isinstance(want, bool)
        and (isinstance(got, float) or isinstance(want, float))
    ):
        if abs(got - want) <= rtol * max(abs(got), abs(want)) + atol:
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{where}: got {got!r}, reference {want!r}"]
