"""Frozen SHA-256 digests of every experiment CSV and of the CLI's CSV files.

A digest moves when any printed digit of its CSV moves, so refactors must
leave every value here unchanged.  A change that alters a CSV on purpose
records the new digest and says why in CHANGES.md.  The digests were taken
with numpy's OpenBLAS build on x86-64; another BLAS may round differently.
"""
import hashlib

import numpy as np
import pytest

from framecoh import (
    Frame,
    build_code_frame,
    build_gaussian,
    build_harmonic,
    run_experiment,
    write_frame,
)
from framecoh.cli import main
from framecoh.constructions import CodeFrameSpec, GaussianFrameSpec, HarmonicFrameSpec
from framecoh.fixtures import flip_demo_path


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


RUNNER_CASES = {
    "gaussian-geometry": dict(rows=96, cols=256, trials=2, seed=1),
    "harmonic-geometry": dict(dft_size=128, target_rows=32, trials=2, seed=1),
    # (5, 2) has 2^15 columns and exercises the XOR-stationary path
    "code-geometry": dict(cases=((3, 1), (4, 1), (5, 1), (5, 2))),
    "flip-guarantee": dict(rows=3, cols=20, trials=5, oracle_rows=3, oracle_cols=8,
                           oracle_trials=2, seed=1),
    "weak-rip": dict(trials=200, orth_dim=32, orth_k=2, code_m=4, code_t=1, code_k=1, seed=1),
    "ost-recovery": dict(rows=64, cols=128, k=2, trials=20, sanity_dim=16, sanity_trials=5,
                         seed=1),
    "bounds-figure": dict(spatial_dim=3, n_max=30),
}

RUNNER_DIGESTS = {
    "bounds-figure": "f6da2ab26cad406931fba3d178016f064f60c101b16ba0711a4bd52583ee456f",
    "code-geometry": "61f3571f367dff446b0b2e159dda6eca6f755989d1289f17b103140584618410",
    "flip-guarantee": "fe0c404c076361feb9eef2c9bd230d2d83dfae97c2d634b271742d445a5184bf",
    "gaussian-geometry": "8fa72dab211d930cb0f5b316d522263bb1869ea112f8aa0847095e279462fb77",
    "harmonic-geometry": "7e73101a8d085022e613de05767979f8b743e6d5c491d64741363619e179f4f9",
    "ost-recovery": "dbcd1f84cc4f883f4d6b28a5f1cb31aa1d3f301fdce103c111ad07b64fb54649",
    "weak-rip": "df00ab3be4c4d7833312377a98343e30801f0ef03c4a5d410e5d0a8bf45f70b0",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty-selection reseeds
@pytest.mark.parametrize("name", sorted(RUNNER_CASES))
def test_runner_csv_digest(name):
    report = run_experiment(name, **RUNNER_CASES[name])
    assert report.passed
    assert _digest(report.csv_text()) == RUNNER_DIGESTS[name]


def _frames():
    harmonic, _ = build_harmonic(HarmonicFrameSpec(64, 16, 2))
    return {
        "gaussian": build_gaussian(GaussianFrameSpec(32, 64, 4)),
        "harmonic": harmonic,
        "code": build_code_frame(CodeFrameSpec(4, 1)),
        "identity": Frame(np.eye(16), normalize=False),
    }


@pytest.fixture(scope="module")
def frame_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, frame in _frames().items():
        paths[name] = root / f"{name}.frame"
        write_frame(paths[name], frame)
    paths["demo"] = flip_demo_path()
    return paths


ANALYZE_DIGESTS = {
    "code": "c00c005238ef91b6dbef3dda2e93a0c25945ae52d8f2207fc21401b6ebfb3954",
    "demo": "60e3eeec3b7c81a21070f83f7f52944ba0862cfa0787a9dde06418132bb000d3",
    "gaussian": "f1f59c2735d217dbdec0016e2de917e256bc1ba7f4e1dda817f9fdb8bd90f5da",
    "harmonic": "216a13b9ba579135abf6e061bce72cae7d55af83c5ef83abe3130e080f305d5c",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_DIGESTS))
def test_analyze_csv_digest(name, frame_files, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", str(frame_files[name]), "--csv", str(out)]) == 0
    assert _digest(out.read_text()) == ANALYZE_DIGESTS[name]


RECOVER_CASES = {
    "gaussian-default": ("gaussian", ["--sigma2", "1.0", "-K", "3", "--trials", "6",
                                      "--seed", "2"]),
    "gaussian-explicit-lam": ("gaussian", ["--sigma2", "0.5", "--lam", "2.5", "--alpha", "5.0",
                                           "-K", "3", "--trials", "6", "--seed", "5"]),
    "gaussian-snr": ("gaussian", ["--sigma2", "0.25", "--snr", "3.0", "--t", "0.3", "-K", "2",
                                  "--trials", "4", "--seed", "7"]),
    "harmonic-two-tier": ("harmonic", ["--sigma2", "0.1", "--amplitude", "two-tier", "-K", "4",
                                       "--lam", "20", "--trials", "5", "--seed", "3"]),
    "identity-two-tier": ("identity", ["--sigma2", "0.04", "--amplitude", "two-tier", "-K", "4",
                                       "--trials", "5", "--seed", "3"]),
}

RECOVER_DIGESTS = {
    "gaussian-default": "97e206a8ff8ad6f7814e95e5f775e35656ddd73f29f8cbcb8d9bad46fd935045",
    "gaussian-explicit-lam": "9a684ed3b2b90821159558652792730d13d61cb72491575bbca342513eeeb024",
    "gaussian-snr": "abcb25481239d7c564c18733cb3445cf98c2ab8f704e04e6c9eca353948d3f28",
    "harmonic-two-tier": "b0da33f837401aeb6616d9b45715d92f50e46dde176b9b059a278805109464c9",
    "identity-two-tier": "3df576828afd0031d4d44924fad70a219e7d070b35251adeb2cb3b374a080c87",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rank-deficient fits
@pytest.mark.parametrize("case", sorted(RECOVER_CASES))
def test_recover_csv_digest(case, frame_files, tmp_path, capsys):
    frame_name, argv = RECOVER_CASES[case]
    out = tmp_path / "recover.csv"
    assert main(["recover", str(frame_files[frame_name]), *argv, "-o", str(out)]) == 0
    assert _digest(out.read_text()) == RECOVER_DIGESTS[case]
