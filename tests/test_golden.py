"""Frozen SHA-256 digests of every experiment CSV and summary, the CLI's CSV
files and the frame files `write_frame` and `framecoh flip` produce.

A digest moves when any byte of its file moves, so refactors must leave
every value here unchanged.  A change that alters a CSV or a frame file on
purpose records the new digest and says why in CHANGES.md.  The digests were taken
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
    "code-geometry": "a38e8136fa3963adf43803cbf54430d7ca4311ffc64033af3ace41665404ae9f",
    "flip-guarantee": "fe0c404c076361feb9eef2c9bd230d2d83dfae97c2d634b271742d445a5184bf",
    "gaussian-geometry": "8cfec83cb7cffd80dd146e85241e818e16169ac0cb041c3f3a2fef4ef7cb3705",
    "harmonic-geometry": "5219b8be271d745875f05d6f9060473482370cfba8400ffb10aa3c76cc9ff07d",
    "ost-recovery": "dbcd1f84cc4f883f4d6b28a5f1cb31aa1d3f301fdce103c111ad07b64fb54649",
    "weak-rip": "df00ab3be4c4d7833312377a98343e30801f0ef03c4a5d410e5d0a8bf45f70b0",
}


# digests of `summary_text()`, the lines `framecoh experiment` prints
SUMMARY_DIGESTS = {
    "bounds-figure": "afa215287d0ad954ee7735dfe75423fdc49117ef76cd475aaa0b8e856b065838",
    "code-geometry": "6430a32bfde40b40a92e161d3cff44752b519b9bec02abcec9efc0ea48936550",
    "flip-guarantee": "9b38936718a12e22df02915d1b5d74ecaab762cfb95f95842a615ae043f41b59",
    "gaussian-geometry": "2f7c2475347b09f91a8f5c91f9a16ee2aa59142880c2ae701031b817fe5b3ff4",
    "harmonic-geometry": "ecac0e4af67caf2f2a417782d81c603068bcbdf61bf167f8762a5bf97f9b3c5a",
    "ost-recovery": "7efdfced3843d809ae4d2e3f0e28cbcc3cda912dd68da38846dc6e9837f4dc12",
    "weak-rip": "5e4156abc6afb68facb8a0b8ca6390e61e67e55b16cb2a03e6afe2b772427ada",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty-selection reseeds
@pytest.mark.parametrize("name", sorted(RUNNER_CASES))
def test_runner_csv_digest(name):
    report = run_experiment(name, **RUNNER_CASES[name])
    assert report.passed
    assert _digest(report.csv_text()) == RUNNER_DIGESTS[name]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty-selection reseeds
@pytest.mark.parametrize("name", sorted(RUNNER_CASES))
def test_runner_summary_digest(name):
    report = run_experiment(name, **RUNNER_CASES[name])
    assert _digest(report.summary_text()) == SUMMARY_DIGESTS[name]


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
    "demo": "02f9871bcd1c6b71365b28bb9bf6ac569b757b09c9ccc1c3f666e0a4a17e57cb",
    "gaussian": "10b415a01d71b79e6f0cb2f8d1dc78bcbc0a9f5ebc84c17e36749e8c3c6ce759",
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


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


FRAME_FILE_DIGESTS = {
    "code": "9d33e37565cb15ea9fd73522dc74525894c18ead5757f45d5722e7406cbdfcb5",
    "gaussian": "7292faa6cfbf0e882c8ff6df1f3bbf83741431780691951d84dad21947968e72",
    "harmonic": "928c2e2a472a89483347287f25202b8fdf529bf70b6fe9963dc1b89c396f5b98",
    "identity": "757f39151c2b44bf94289e996210b1a1da85cff87f6e43b138f6e8d1bdd3068b",
}


@pytest.mark.parametrize("name", sorted(FRAME_FILE_DIGESTS))
def test_text_frame_file_digest(name, frame_files):
    assert _file_digest(frame_files[name]) == FRAME_FILE_DIGESTS[name]


def test_binary_frame_file_digest(tmp_path):
    path = tmp_path / "code.frame"
    write_frame(path, _frames()["code"], binary=True)
    assert _file_digest(path) == (
        "0967181d0af46881cb425076193653b0ecd7ff85324be61ce9d642d85bc0150d"
    )


FLIP_FILE_DIGESTS = {
    "gaussian": "a616ed7e0168312a582a9ba676e00384572f4d3a62a1224a0b0a3866109e9ece",
    "harmonic": "8610b6ee60c7135c8c5d36c79fa11cb281b9188b63997c50f79d03355e73a1d8",
}


@pytest.mark.parametrize("name", sorted(FLIP_FILE_DIGESTS))
def test_flip_frame_file_digest(name, frame_files, tmp_path, capsys):
    out = tmp_path / "flipped.frame"
    assert main(["flip", str(frame_files[name]), "-o", str(out)]) == 0
    assert _file_digest(out) == FLIP_FILE_DIGESTS[name]
