"""Frozen SHA-256 digests of every experiment CSV and summary, the CLI's CSV
files and bound tables, the frame files `write_frame` and `framecoh flip`
produce, and the bytes of constructed harmonic frames and of normalized frames.

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
    harmonic_frame_from_rows,
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


# spatial_dim 2 checks the cos(pi/N) reduction; 4 has a blank three_d column
BOUNDS_FIGURE_DIGESTS = {
    2: ("081c471b6ad702c7ecb740791867cd8e574d206bed5af1e77097c62f43e2039f",
        "1468f5d7dbec4b722f18d00b32727f382be3e2cd1920fa50f040de58ae22f7e7"),
    4: ("de19488df6ce6857da6ac8184ed4eb3db373a5f1fc9fdce514903d8459aed0ba",
        "d167d24969cf5f331c8d819301e557e27d1874f7f38b2e02822a4d61730368f0"),
}


@pytest.mark.parametrize("spatial_dim", sorted(BOUNDS_FIGURE_DIGESTS))
def test_bounds_figure_digest(spatial_dim):
    report = run_experiment("bounds-figure", spatial_dim=spatial_dim)
    assert report.passed
    digests = (_digest(report.csv_text()), _digest(report.summary_text()))
    assert digests == BOUNDS_FIGURE_DIGESTS[spatial_dim]


# stdout of `framecoh bounds -M <M>` at the default range N = 3..55
BOUNDS_CLI_DIGESTS = {
    2: "f15df3ba1f700760176a82f989c2615e9f1748814e31182919dd0d1de8cca137",
    3: "4f5396fbf384c412bf01a0d72d115d0f1964ee0d2234b06ef41c0eade340efc0",
    4: "e2fdf191a4b0d5afb9323bbfed6c187bc0a117f7b2ddb9a6e9dd240c6540631e",
}


@pytest.mark.parametrize("m", sorted(BOUNDS_CLI_DIGESTS))
def test_bounds_stdout_digest(m, capsys):
    assert main(["bounds", "-M", str(m)]) == 0
    assert _digest(capsys.readouterr().out) == BOUNDS_CLI_DIGESTS[m]


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


HARMONIC_FRAME_CASES = {
    "2048-all-but-862": lambda: harmonic_frame_from_rows(
        2048, [r for r in range(2048) if r != 862]),
    "1000-rows-1-7-500-999": lambda: harmonic_frame_from_rows(1000, [1, 7, 500, 999]),
    "4099-odd-rows": lambda: harmonic_frame_from_rows(4099, range(1, 4099, 2)),  # prime N
    "spec-1024-64-seed0": lambda: build_harmonic(HarmonicFrameSpec(1024, 64, 0))[0],
    "spec-1024-64-seed1": lambda: build_harmonic(HarmonicFrameSpec(1024, 64, 1))[0],
    # the largest N whose products k*l <= (N-1)^2 fit in int32, and the next
    "46341-rows-1-2-last": lambda: harmonic_frame_from_rows(46341, [1, 2, 46340]),
    "46342-rows-1-2-last": lambda: harmonic_frame_from_rows(46342, [1, 2, 46341]),
}

# SHA-256 of the frame's C-order bytes, i.e. of ``frame.data.tobytes()``
HARMONIC_FRAME_DIGESTS = {
    "2048-all-but-862": "076fd86bef35b31cda7c0ee26a452c8f646f8bedb58809c79d77365aeb82abe1",
    "1000-rows-1-7-500-999": "a09ae05c0aee006d6aadd4ef44a9370858035cd395a9bd1c8f4f03ea501eacd9",
    "4099-odd-rows": "2b724d3cd4015de41d98b77e3cef5241987dd92e9e91c35ab9c7259ecbf3d98b",
    "spec-1024-64-seed0": "aef9ee6604a61eaf5ee277b0ee891f70ae371bb49196624bfd6e053d0388b4a1",
    "spec-1024-64-seed1": "2a0712c79bb8a8630bd6b2876ce1bd35448c6d15c87a4756ff6d9f28df9b4f68",
    "46341-rows-1-2-last": "58ef7adf4807aaa66c0b3a892179b978173e719bb9caf9ebfa2441a96ed06ef3",
    "46342-rows-1-2-last": "d2dc7f74381f7153e43c3af12cad8b9750222f7f396658be2be1ee3afda13dcc",
}


def _bytes_digest(data: np.ndarray) -> str:
    # hashing the contiguous buffer reads the bytes tobytes() would copy
    return hashlib.sha256(np.ascontiguousarray(data)).hexdigest()


@pytest.mark.parametrize("name", sorted(HARMONIC_FRAME_DIGESTS))
def test_harmonic_frame_bytes_digest(name):
    data = HARMONIC_FRAME_CASES[name]().data
    assert data.dtype == np.complex128
    assert _bytes_digest(data) == HARMONIC_FRAME_DIGESTS[name]


@pytest.mark.parametrize("n", [46341, 46342])
def test_harmonic_largest_products_pick_python_int_residues(n):
    # the last row's products reach (N-1)^2, the most an index type has to hold
    rows = [1, 2, n - 1]
    data = harmonic_frame_from_rows(n, rows).data
    roots = np.exp(2j * np.pi * np.arange(n) / n) / np.sqrt(len(rows))
    cols = range(n - 64, n)
    for i, k in enumerate(rows):
        want = roots[[(k * l) % n for l in cols]]
        assert np.array_equal(data[i, n - 64:], want)


_RAW = np.random.default_rng(19).standard_normal((2, 96, 160))

# frames whose columns are rescaled to unit norm, so their bytes carry the
# bits of the column norms; the layouts differ in how a column's squares
# are summed (in row order, pairwise down a contiguous column, re^2 + im^2
# per entry)
NORMALIZED_FRAME_CASES = {
    "gaussian-512x2048-seed1": lambda: build_gaussian(GaussianFrameSpec(512, 2048, 1)),
    "gaussian-512x2048-seed2": lambda: build_gaussian(GaussianFrameSpec(512, 2048, 2)),
    "gaussian-128x512-seed0": lambda: build_gaussian(GaussianFrameSpec(128, 512, 0)),
    "real-c-order": lambda: Frame(_RAW[0]),
    "real-fortran": lambda: Frame(np.asfortranarray(_RAW[0])),
    "real-column-slice": lambda: Frame(_RAW[0][:, ::2]),
    "complex-c-order": lambda: Frame(_RAW[0] + 1j * _RAW[1]),
    "complex-fortran": lambda: Frame(np.asfortranarray(_RAW[0] + 1j * _RAW[1])),
}

# SHA-256 of ``frame.data.tobytes()``
NORMALIZED_FRAME_DIGESTS = {
    "complex-c-order": "88ba6c711ff67c0a6023869dfc6773019d173cd098169931be571fb62e9ff705",
    "complex-fortran": "8770b11921d7007e3d1785b6bfc1a9ef5b908d3fc829bb635d428abd0049db2f",
    "gaussian-128x512-seed0": "b3f05a245679a889c139aeed79c8ad853cd90a0b68b7a9556de6b0d5b771ca28",
    "gaussian-512x2048-seed1": "9edab731ad98c2d28765751dd1bf388a2b7268426fa75138528881e7a7941ff8",
    "gaussian-512x2048-seed2": "74265fdc7acc4113165e3b25b352f9c128d81bb4a85784007ea843fac3fd4ad3",
    "real-c-order": "14a36bf9f06d5ea61d6b1b7262ba774a9f064b676becf117f72e15a7fd2da409",
    "real-column-slice": "aab067be0899c2a6319c074daf22f58350098a615490b6f1ead501a9c2cba835",
    "real-fortran": "72edb315b98b21964c93fde6d96fd730c407e8b8b15ace7aca443035478c3d19",
}


@pytest.mark.parametrize("name", sorted(NORMALIZED_FRAME_CASES))
def test_normalized_frame_bytes_digest(name):
    assert _bytes_digest(NORMALIZED_FRAME_CASES[name]().data) == NORMALIZED_FRAME_DIGESTS[name]
