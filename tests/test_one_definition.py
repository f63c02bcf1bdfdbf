"""Each paper formula is written once in the package source.

A formula that lives in two places can drift apart in one of them, so the
spellings below may occur at most once across ``src/framecoh/*.py``:

- ``164.0``: the SCP-1 right-hand side 1/(164 ln N), `frame.scp1_bound`;
- ``sigma2 * math.log(``: the noise scale sqrt(2 sigma^2 ln N), `ost.noise_scale`;
- ``20.0 / t``: the self-interference floor (20/t) mu ||x|| sqrt(2 ln N),
  `ost.self_interference_floor`;
- ``joint frequency``: the frequency-gate summary line, `experiments._gate`;
- ``rng.choice(``: the K-sparse support draw, `ost.draw_signal`;
- ``unknown experiment``: the unknown-name error, `experiments.run_experiment`;
- ``K must be >= 0``: the sparsity check, `ost.draw_signal`.
"""
from pathlib import Path

import pytest

import framecoh

SOURCES = sorted(Path(framecoh.__file__).parent.glob("*.py"))


@pytest.mark.parametrize(
    "spelling",
    ["164.0", "sigma2 * math.log(", "joint frequency", "rng.choice(", "unknown experiment",
     "K must be >= 0", "20.0 / t"],
)
def test_formula_written_once(spelling):
    where = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        for _ in range(line.count(spelling))
    ]
    assert len(where) <= 1, f"{spelling!r} occurs at {', '.join(where)}"


def test_scan_sees_the_package():
    assert {"experiments.py", "frame.py", "ost.py", "cli.py"} <= {p.name for p in SOURCES}
