"""CLI surface: subcommands, exit codes, file round trips, config files."""
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import framecoh.frame
from conftest import rebuilt_ost_rows
from framecoh import (
    ExperimentReport,
    FlatAmplitudes,
    Frame,
    TwoTierAmplitudes,
    bound_table,
    build_gaussian,
    build_harmonic,
    coherence,
    noise_floor_threshold,
    run_experiment,
    read_frame,
    scp_check,
    trial_seed,
    worst_case_coherence,
    write_frame,
)
from framecoh.bounds import BOUND_HEADER
from framecoh.cli import _EXPERIMENT_KEYS, _KEY_CASTS, main, read_config_file
from framecoh.constructions import GaussianFrameSpec, HarmonicFrameSpec
from framecoh.experiments import RUNNERS
from framecoh.ost import OST_TRIAL_HEADER
from framecoh.fixtures import flip_demo_path


def test_construct_then_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "g.frame"
    rc = main(["construct", "gaussian", "-M", "8", "-N", "24", "--seed", "3", "-o", str(out)])
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "worst-case coherence" in captured

    # the on-disk frame reproduces the in-memory coherence report
    mem = scp_check(build_gaussian(GaussianFrameSpec(8, 24, 3)))
    disk = scp_check(read_frame(out))
    assert disk.mu == pytest.approx(mem.mu, abs=1e-12)
    assert disk.nu == pytest.approx(mem.nu, abs=1e-12)
    assert disk.spectral_norm == pytest.approx(mem.spectral_norm, abs=1e-12)
    assert (disk.scp1, disk.scp2) == (mem.scp1, mem.scp2)

    rc = main(["analyze", str(out)])
    assert rc == 0


def test_construct_binary_round_trip(tmp_path):
    out = tmp_path / "b.frame"
    rc = main(["construct", "gaussian", "-M", "5", "-N", "9", "--seed", "1",
               "-o", str(out), "--binary"])
    assert rc == 0
    mem = build_gaussian(GaussianFrameSpec(5, 9, 1))
    assert np.array_equal(read_frame(out).data, mem.data)


def test_construct_code_prints_tightness(tmp_path, capsys):
    out = tmp_path / "c.frame"
    rc = main(["construct", "code", "-m", "4", "-t", "1", "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "||F||_2^2 = 16" in text
    assert read_frame(out).cols == 256


def test_construct_harmonic_lists_rows(tmp_path, capsys):
    out = tmp_path / "h.frame"
    rc = main(["construct", "harmonic", "-N", "64", "-M", "8", "--seed", "3", "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "selected rows:" in text
    frame = read_frame(out)
    assert frame.scalar_field == "complex"


def test_analyze_demo_fixture(tmp_path, capsys):
    rc = main(["analyze", str(flip_demo_path()), "--csv", str(tmp_path / "r.csv")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "0.377777777778" in text
    assert "SCP-2" in text and "FAIL" in text
    csv = (tmp_path / "r.csv").read_text().splitlines()
    assert csv[0] == "M,N,field,mu,nu,spectral_norm,scp1,scp2"
    assert csv[1].startswith("5,10,real,0.6,")


def test_analyze_missing_file_exit_2(capsys):
    rc = main(["analyze", "/nonexistent/path.frame"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.frame"
    bad.write_text("FRAME v1 2 2 real\n1.0 oops 0.0 1.0\n")
    rc = main(["analyze", str(bad)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def _identity_body(tok, bad_lines, bad_tok):
    # 8x8 identity, one column per line (file lines 2..9), a bad token on each bad line
    lines = []
    for c in range(8):
        toks = [tok(1.0 if r == c else 0.0) for r in range(8)]
        if c + 2 in bad_lines:
            toks[2] = bad_tok
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def _bad_file(kind, path):
    if kind == "nan":
        path.write_text("FRAME v1 2 2 real\n1.0 0.0\n0.0 nan\n")
    elif kind == "inf":
        path.write_text("FRAME v1 2 2 complex\n1.0+0.0i 0.0+0.0i\n0.0+0.0i inf+0.0i\n")
    elif kind == "bad-real":
        path.write_text("FRAME v1 8 8 real\n" + _identity_body(repr, (7,), "0.0.1"))
    elif kind == "bad-complex":
        path.write_text("FRAME v1 8 8 complex\n"
                        + _identity_body(lambda x: f"{x!r}+0.0i", (8,), "0.0+0.0"))
    elif kind == "bad-repeated":
        # many repeats, so each distinct token is parsed once; the first line is reported
        path.write_text("FRAME v1 8 8 real\n" + _identity_body(repr, (5, 7), "0.0.1"))
    elif kind == "bad-after-probe":
        # 32 x 40, all entries distinct: parsed entry by entry; entry 1100 is in column 34
        toks = [repr(1.0 + k / 4096) for k in range(32 * 40)]
        toks[1100] = "1.0e"
        columns = [" ".join(toks[32 * c : 32 * c + 32]) for c in range(40)]
        path.write_text("FRAME v1 32 40 real\n" + "\n".join(columns) + "\n")
    elif kind == "underscore":
        # float() reads '1_0.0e-1' as 1.0, so the frame would stay unit-norm
        path.write_text("FRAME v1 8 8 real\n" + _identity_body(repr, (4,), "1_0.0e-1"))
    elif kind == "underscore-complex":
        path.write_text("FRAME v1 8 8 complex\n"
                        + _identity_body(lambda x: f"{x!r}+0.0i", (4,), "1_0.0e-1+0.0i"))
    elif kind == "too-few":
        path.write_text("FRAME v1 2 2 real\n1.0 0.0 0.0\n")
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "non-ascii":
        path.write_bytes("FRAME v1 1 1 real\n1.0\u00a0\n".encode("utf-8"))
    elif kind == "short-binary":
        write_frame(path, Frame(np.eye(3), normalize=False), binary=True)
        path.write_bytes(path.read_bytes()[:-8])
    elif kind == "missing":
        pass
    elif kind == "directory":
        path.mkdir()


BAD_FILE_MESSAGES = {
    "nan": "{path}: frame entries must be finite",
    "inf": "{path}: frame entries must be finite",
    "bad-real": "{path}: line 7: cannot parse real entry '0.0.1'",
    "bad-complex": "{path}: line 8: cannot parse complex entry '0.0+0.0'",
    "bad-repeated": "{path}: line 5: cannot parse real entry '0.0.1'",
    "bad-after-probe": "{path}: line 36: cannot parse real entry '1.0e'",
    "underscore": "{path}: line 4: cannot parse real entry '1_0.0e-1'",
    "underscore-complex": "{path}: line 4: cannot parse complex entry '1_0.0e-1+0.0i'",
    "too-few": "{path}: expected 4 entries, found 3",
    "empty": "{path}: line 1: missing header line",
    "non-ascii": "{path}: body is not ASCII text",
    "short-binary": "{path}: expected 72 payload bytes, found 64",
    "missing": "[Errno 2] No such file or directory: '{path}'",
    "directory": "[Errno 21] Is a directory: '{path}'",
}


def _assert_bad_file_exit_2(tmp_path, capsys, kind, command, *options):
    path = tmp_path / "bad.frame"
    _bad_file(kind, path)
    rc = main([command, str(path), *options])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + BAD_FILE_MESSAGES[kind].format(path=path) + "\n"


@pytest.mark.parametrize("kind", sorted(BAD_FILE_MESSAGES))
def test_analyze_bad_frame_file_one_line_exit_2(tmp_path, capsys, kind):
    _assert_bad_file_exit_2(tmp_path, capsys, kind, "analyze")


@pytest.mark.parametrize("kind", sorted(BAD_FILE_MESSAGES))
def test_flip_bad_frame_file_one_line_exit_2(tmp_path, capsys, kind):
    out = tmp_path / "flipped.frame"
    _assert_bad_file_exit_2(tmp_path, capsys, kind, "flip", "-o", str(out))
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(BAD_FILE_MESSAGES))
def test_recover_bad_frame_file_one_line_exit_2(tmp_path, capsys, kind):
    out = tmp_path / "recover.csv"
    _assert_bad_file_exit_2(tmp_path, capsys, kind, "recover", "--sigma2", "1", "-o", str(out))
    assert not out.exists()


_NO_FILE = "[Errno 2] No such file or directory: '{last}'"
_RECOVER = "--sigma2", "1", "--trials", "2"

#: (argv, message): each exits 2 with stdout empty and one error line on stderr.
#: {demo} is the 5 x 10 flip demo, {tmp}/missing/ a directory that does not
#: exist, {tmp}/trials.cfg holds trials=abc, {tmp}/header.frame a bad header,
#: {tmp}/one.frame a valid 2 x 1 frame; {last} in a message is the row's last
#: argument.
CONTRACT_ROWS = {
    "construct-output": (["construct", "gaussian", "-M", "4", "-N", "8",
                          "-o", "{tmp}/missing/o"], _NO_FILE),
    "bounds-output": (["bounds", "-o", "{tmp}/missing/o"], _NO_FILE),
    "recover-output": (["recover", "{demo}", *_RECOVER, "-o", "{tmp}/missing/o"], _NO_FILE),
    "flip-output": (["flip", "{demo}", "-o", "{tmp}/missing/o"], _NO_FILE),
    "experiment-output": (["experiment", "bounds-figure", "--nmax", "5",
                           "-o", "{tmp}/missing/o"], _NO_FILE),
    "analyze-csv": (["analyze", "{demo}", "--csv", "{tmp}/missing/o"], _NO_FILE),
    "flip-pattern-out": (["flip", "{demo}", "-o", "{tmp}/ok.frame",
                          "--pattern-out", "{tmp}/missing/o"], _NO_FILE),
    "flip-output-pattern-ok": (["flip", "{demo}", "--pattern-out", "{tmp}/ok.pattern",
                                "-o", "{tmp}/missing/o"], _NO_FILE),
    "recover-K-above-N": (["recover", "{demo}", *_RECOVER, "-K", "11"],
                          "sparsity K = 11 exceeds the signal length N = 10"),
    "recover-negative-lam": (["recover", "{demo}", *_RECOVER, "--lam", "-1"],
                             "threshold lam must be positive"),
    "construct-gaussian-seed-1": (["construct", "gaussian", "-M", "4", "-N", "8", "--seed", "-1",
                                   "-o", "{tmp}/g.frame"], "seed must be >= 0, got -1"),
    "construct-harmonic-seed-1": (["construct", "harmonic", "-M", "4", "-N", "16", "--seed", "-1",
                                   "-o", "{tmp}/h.frame"], "seed must be >= 0, got -1"),
    "construct-code-t0": (["construct", "code", "-t", "0", "-o", "{tmp}/c.frame"],
                          "t must be >= 1"),
    "construct-poly-zz": (["construct", "code", "--poly", "zz", "-o", "{tmp}/c.frame"],
                          "--poly: expected bitmask, got 'zz'"),
    "bounds-M0": (["bounds", "-M", "0"], "bound table needs M >= 2"),
    "bounds-empty-range": (["bounds", "--nmin", "10", "--nmax", "5"],
                           "range of N values must be nonempty"),
    "missing-config": (["experiment", "--config", "{tmp}/missing/e.cfg"], _NO_FILE),
    "experiment-no-id": (["experiment"],
                         "no experiment named; expected one of: bounds-figure, code-geometry, "
                         "flip-guarantee, gaussian-geometry, harmonic-geometry, ost-recovery, "
                         "weak-rip"),
    "code-geometry-m11": (["experiment", "code-geometry", "-m", "11", "-t", "1"],
                          "dense tables limited to m <= 10, got m=11"),
    "config-trials-abc": (["experiment", "flip-guarantee", "--config", "{tmp}/trials.cfg"],
                          "trials: expected int, got 'abc'"),
    "flag-trials-abc": (["experiment", "flip-guarantee", "--trials", "abc"],
                        "trials: expected int, got 'abc'"),
    "ignored-flag-malformed": (["experiment", "bounds-figure", "--sigma2", "x"],
                               "sigma2: expected float, got 'x'"),
    "recover-trials-abc": (["recover", "{demo}", "--sigma2", "1", "--trials", "abc"],
                           "argument --trials: invalid int value: 'abc'"),
    "construct-M-x": (["construct", "gaussian", "-M", "x"],
                      "argument -M: invalid int value: 'x'"),
    "bounds-nmax-5.5": (["bounds", "--nmax", "5.5"], "argument --nmax: invalid int value: '5.5'"),
    "recover-amplitude-choice": (["recover", "{demo}", *_RECOVER, "--amplitude", "loud"],
                                 "argument --amplitude: invalid choice: 'loud' "
                                 "(choose from 'flat', 'two-tier')"),
    "unknown-flag": (["bounds", "--bogus"], "unrecognized arguments: --bogus"),
    "analyze-missing-frame": (["analyze"], "the following arguments are required: frame"),
    "flip-bad-header": (["flip", "{tmp}/header.frame", "-o", "{tmp}/f.frame"],
                        "{tmp}/header.frame: line 1: "
                        "expected header 'FRAME v1 <M> <N> <real|complex>'"),
    "recover-bad-header": (["recover", "{tmp}/header.frame", "--sigma2", "1"],
                           "{tmp}/header.frame: line 1: "
                           "expected header 'FRAME v1 <M> <N> <real|complex>'"),
    "construct-harmonic-one-column": (["construct", "harmonic", "-N", "1", "-M", "1",
                                       "-o", "{tmp}/h1.frame"],
                                      "coherence undefined for a single vector"),
    "flip-one-column": (["flip", "{tmp}/one.frame", "-o", "{tmp}/f.frame"],
                        "coherence undefined for a single vector"),
}

_CONTRACT_FIXTURES = {
    "trials.cfg": "trials=abc\n",
    "header.frame": "FRAME v2 2 2 real\n1.0 0.0 0.0 1.0\n",
    "one.frame": "FRAME v1 2 1 real\n1.0 0.0\n",
}


def _run_contract_row(tmp_path, capsys, row):
    """(exit code, captured output, names) of ``CONTRACT_ROWS[row]`` run in ``tmp_path``."""
    for name, text in _CONTRACT_FIXTURES.items():
        (tmp_path / name).write_text(text)
    names = {"tmp": tmp_path, "demo": flip_demo_path()}
    argv = [arg.format(**names) for arg in CONTRACT_ROWS[row][0]]
    try:
        rc = main(argv)
    except SystemExit as exc:  # an argparse usage error, reported by _Parser.error
        rc = exc.code
    return rc, capsys.readouterr(), dict(names, last=argv[-1])


@pytest.mark.parametrize("row", sorted(CONTRACT_ROWS))
def test_bad_input_one_error_line_exit_2(tmp_path, capsys, row):
    rc, captured, names = _run_contract_row(tmp_path, capsys, row)
    assert (rc, captured.out) == (2, "")
    assert captured.err == "error: " + CONTRACT_ROWS[row][1].format(**names) + "\n"


@pytest.mark.parametrize("row", ["construct-harmonic-one-column", "flip-one-column"])
def test_single_vector_writes_no_output_file(tmp_path, capsys, row):
    rc, _, _ = _run_contract_row(tmp_path, capsys, row)
    assert rc == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_CONTRACT_FIXTURES)


@pytest.mark.parametrize("row", ["flip-pattern-out", "flip-output-pattern-ok"])
def test_flip_with_one_bad_output_writes_neither(tmp_path, capsys, row):
    rc, _, _ = _run_contract_row(tmp_path, capsys, row)
    assert rc == 2
    assert not (tmp_path / "ok.frame").exists()
    assert not (tmp_path / "ok.pattern").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_CONTRACT_FIXTURES)


def test_flip_demo_prints_pattern(tmp_path, capsys):
    out = tmp_path / "flipped.frame"
    pat = tmp_path / "pattern.txt"
    rc = main(["flip", str(flip_demo_path()), "-o", str(out), "--pattern-out", str(pat)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "+-+--++-++"
    assert pat.read_text().strip() == "+-+--++-++"
    flipped = read_frame(out)
    from framecoh import average_coherence

    assert average_coherence(flipped) == pytest.approx(7 / 45, abs=1e-12)


def _bound_table_csv(m, n_values):
    return ExperimentReport("bounds", list(BOUND_HEADER), bound_table(m, n_values)).csv_text()


def test_bounds_csv_matches_bound_table(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "-M", "3", "--nmin", "3", "--nmax", "55", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == _bound_table_csv(3, range(3, 56))


def test_experiment_bounds_figure_matches_bound_table(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    rc = main(["experiment", "bounds-figure", "-M", "3", "--nmax", "55", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == _bound_table_csv(3, range(3, 56))
    assert "RESULT: PASS" in capsys.readouterr().out


def test_experiment_exit_codes(tmp_path, capsys):
    rc = main(["experiment", "flip-guarantee", "--trials", "3", "--seed", "2"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["experiment", "no-such-experiment"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_table_matches_runners():
    # a runner missing from the table would run with its defaults, its flags ignored
    assert set(_EXPERIMENT_KEYS) == set(RUNNERS)
    for name, keys in _EXPERIMENT_KEYS.items():
        params = inspect.signature(RUNNERS[name]).parameters
        for key, kw in keys.items():
            if name == "code-geometry":  # -m and -t are folded into one (m, t) case
                kw = "cases"
            assert kw in params, (name, key, kw)
    assert {key for keys in _EXPERIMENT_KEYS.values() for key in keys} == set(_KEY_CASTS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty-selection reseeds
def test_experiment_gate_failure_exits_1(capsys):
    # same failing configuration as the runner unit test
    from test_experiments import FAILING_HARMONIC_SEED

    rc = main(["experiment", "harmonic-geometry", "-N", "2048", "-M", "2",
               "--trials", "2", "--seed", str(FAILING_HARMONIC_SEED)])
    assert rc == 1
    assert "RESULT: FAIL" in capsys.readouterr().out


def test_experiment_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["experiment", "gaussian-geometry", "-M", "64", "-N", "128",
            "--trials", "3", "--seed", "5"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=bounds-figure\nM=3\nnmin=3\nnmax=10\n# comment\n")
    out = tmp_path / "o.csv"
    rc = main(["experiment", "--config", str(cfg), "-M", "2", "--nmin", "2", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,welch,complex,real,three_d"
    assert lines[1].startswith("2,")
    # M=2: real column equals cos(pi/N) and three_d is blank
    n, _, _, r, d = lines[2].split(",")
    assert d == ""
    assert float(r) == pytest.approx(math.cos(math.pi / int(n)), abs=1e-12)


def test_experiment_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=flip-guarantee\ntrails=3\n")
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trails" in captured.err
    assert "valid keys: M, N, experiment, seed, trials" in captured.err


def test_code_geometry_config_seed_is_unknown_exit_2(tmp_path, capsys):
    # code-geometry is deterministic and takes no seed
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=code-geometry\nm=4\nseed=3\n")
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {cfg}: unknown key(s) seed for code-geometry; valid keys: experiment, m, t\n"
    )


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize(
    "name", ["gaussian-geometry", "harmonic-geometry", "ost-recovery", "flip-guarantee", "weak-rip"]
)
def test_experiment_trials_below_one_exit_2(tmp_path, capsys, name, trials):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"trials={trials}\n")
    rc = main(["experiment", name, "--config", str(cfg)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["harmonic-geometry", "-N", "16", "-M", "0", "--trials", "1"],
         "need 1 <= target_rows <= dft_size"),
        (["harmonic-geometry", "-N", "0", "-M", "0", "--trials", "1"],
         "need 1 <= target_rows <= dft_size"),
        (["ost-recovery", "-K", "-1", "--trials", "2"], "K must be >= 0, got -1"),
        (["weak-rip", "-K", "-1", "--trials", "2"], "K must be >= 0, got -1"),
        (["gaussian-geometry", "-N", "0", "--trials", "1"], "cols must be >= 2"),
    ],
    ids=["harmonic-M0", "harmonic-N0-M0", "ost-recovery-K-1", "weak-rip-K-1", "gaussian-N0"],
)
def test_experiment_bad_size_names_parameter_exit_2(capsys, argv, message):
    # checked before any bound arithmetic, which would raise a bare math error
    rc = main(["experiment", *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name, size", [("gaussian-geometry", ["-M", "96", "-N", "256"]),
                                        ("harmonic-geometry", ["-N", "128", "-M", "32"])])
def test_experiment_accepts_negative_seed(capsys, name, size):
    # trial_seed turns any base seed into a valid generator seed
    rc = main(["experiment", name, *size, "--trials", "1", "--seed", "-1"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out.endswith("RESULT: PASS\n")


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_ost_recovery_bad_sigma2_exit_2(capsys, value):
    # checked before the noise-floor arithmetic, which would raise a bare
    # math error (or fail later on the amplitude it derives)
    rc = main(["experiment", "ost-recovery", "--sigma2", value, "--trials", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: sigma2 must be a positive finite number, got {float(value)!r}\n"
    )


def test_read_config_file_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(cfg)


def test_recover_csv_schema(tmp_path):
    frame_path = tmp_path / "id.frame"
    write_frame(frame_path, Frame(np.eye(16), normalize=False))
    out = tmp_path / "rec.csv"
    rc = main(["recover", str(frame_path), "--sigma2", "0.01", "-K", "3",
               "--trials", "4", "--seed", "9", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,K,|Khat|,exact_support,l2_error,bound_rhs,ok"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--sigma2", "0"], "--sigma2"),
        (["--sigma2", "-1"], "--sigma2"),
        (["--sigma2", "nan"], "--sigma2"),
        (["--sigma2", "1.0", "--trials", "0"], "--trials"),
        (["--sigma2", "1.0", "--snr", "-1"], "snr"),
        (["--sigma2", "1.0", "--snr", "inf"], "snr"),
        (["--sigma2", "1.0", "--alpha", "-3"], "alpha"),
        (["--sigma2", "1.0", "--alpha", "0"], "alpha"),
        (["--sigma2", "1.0", "--amplitude", "two-tier", "--alpha", "nan"], "alpha"),
        (["--sigma2", "1.0", "-K", "-1"], "K must be >= 0"),
    ],
)
def test_recover_bad_input_exit_2_before_output(tmp_path, capsys, argv, flag):
    frame_path = tmp_path / "id.frame"
    write_frame(frame_path, Frame(np.eye(8), normalize=False))
    rc = main(["recover", str(frame_path), *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + flag)
    assert captured.err.count("\n") == 1


def test_recover_needs_no_spectral_norm(tmp_path, capsys, monkeypatch):
    from test_golden import RECOVER_CASES, RECOVER_DIGESTS, _digest

    def refuse(*args, **kwargs):
        raise AssertionError("recover must not compute the spectral norm")

    monkeypatch.setattr("framecoh.frame.spectral_norm", refuse)
    frame_path = tmp_path / "identity.frame"
    write_frame(frame_path, Frame(np.eye(16), normalize=False))
    out = tmp_path / "recover.csv"
    _, argv = RECOVER_CASES["identity-two-tier"]
    assert main(["recover", str(frame_path), *argv, "-o", str(out)]) == 0
    assert _digest(out.read_text()) == RECOVER_DIGESTS["identity-two-tier"]


def test_recover_explicit_lambda_exact_on_identity(tmp_path, capsys):
    frame_path = tmp_path / "id.frame"
    write_frame(frame_path, Frame(np.eye(32), normalize=False))
    rc = main(["recover", str(frame_path), "--sigma2", "1e-12", "--lam", "0.5",
               "--alpha", "1.0", "-K", "4", "--trials", "3", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    # all trials exact: |Khat| = 4 and exact_support = 1
    for line in out.splitlines()[1:4]:
        cells = line.split(",")
        assert cells[2] == "4" and cells[3] == "1"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rank-deficient fallback
@pytest.mark.parametrize(
    "make, argv",
    [
        (lambda: build_gaussian(GaussianFrameSpec(64, 256, 2)), ["-K", "4"]),
        (lambda: build_gaussian(GaussianFrameSpec(64, 256, 2)), ["-K", "4", "--lam", "90"]),
        (lambda: build_harmonic(HarmonicFrameSpec(256, 64, 1))[0], ["-K", "4"]),
        (lambda: build_harmonic(HarmonicFrameSpec(256, 64, 1))[0],
         ["-K", "4", "--lam", "90", "--amplitude", "two-tier"]),
    ],
    ids=["gaussian", "gaussian-lam", "harmonic", "harmonic-lam-two-tier"],
)
def test_recover_rows_match_per_trial_functions(tmp_path, capsys, make, argv):
    frame_path = tmp_path / "f.frame"
    write_frame(frame_path, make(), binary=True)
    out = tmp_path / "rec.csv"
    assert main(["recover", str(frame_path), "--sigma2", "1.0", "--trials", "12",
                 "--seed", "5", *argv, "-o", str(out)]) == 0
    frame = read_frame(frame_path)
    sigma2, t, k = 1.0, 0.5, 4
    n = frame.cols
    alpha = 10.0 * noise_floor_threshold(sigma2, n, t)
    law = (TwoTierAmplitudes(alpha, math.sqrt(2.0 * sigma2 * math.log(n)))
           if "two-tier" in argv else FlatAmplitudes(alpha))
    lam = 90.0 if "--lam" in argv else None
    seeds = [(trial_seed(5, 2 * i), trial_seed(5, 2 * i + 1)) for i in range(12)]
    rows = rebuilt_ost_rows(frame, k, law, sigma2, t, worst_case_coherence(frame), seeds,
                            lam=lam)
    assert out.read_text() == ExperimentReport("recover", list(OST_TRIAL_HEADER), rows).csv_text()
    if lam is not None:  # the least-squares fit ran
        assert any(row[2] > 0 for row in rows)


def test_construct_guard_error_exit_2(capsys):
    rc = main(["construct", "code", "-m", "5", "-t", "5"])
    assert rc == 2
    assert "guard" in capsys.readouterr().err


def test_code_geometry_beyond_dense_guard(capsys):
    # (7, 2) has 2^28 entries, which the dense builder refuses; the factors do not
    assert main(["experiment", "code-geometry", "-m", "7", "-t", "2"]) == 0
    assert capsys.readouterr().out.endswith("RESULT: PASS\n")


def test_code_geometry_column_guard_exit_2(capsys):
    assert main(["experiment", "code-geometry", "-m", "9", "-t", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: code frame needs 134217728 columns; guard allows at most 16777216\n"
    )


def test_construct_code_modulus_override(tmp_path):
    default = tmp_path / "d.frame"
    other = tmp_path / "o.frame"
    assert main(["construct", "code", "-m", "4", "-t", "1", "-o", str(default)]) == 0
    assert main(["construct", "code", "-m", "4", "-t", "1", "--poly", "0x19",
                 "-o", str(other)]) == 0
    assert not np.array_equal(read_frame(default).data, read_frame(other).data)


def test_construct_code_reducible_modulus_exit_2(capsys):
    rc = main(["construct", "code", "-m", "4", "-t", "1", "--poly", "0x11"])
    assert rc == 2
    assert "reducible" in capsys.readouterr().err


def test_recover_two_tier_amplitudes(tmp_path):
    frame_path = tmp_path / "id.frame"
    write_frame(frame_path, Frame(np.eye(16), normalize=False))
    out = tmp_path / "rec.csv"
    rc = main(["recover", str(frame_path), "--sigma2", "0.04", "-K", "4",
               "--amplitude", "two-tier", "--trials", "2", "--seed", "3",
               "-o", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_construct_code_6_2_binary(tmp_path, capsys):
    # 64 x 262144: the dense Gram would need 512 GiB; the group path needs none
    out = tmp_path / "c62.frame"
    assert main(["construct", "code", "-m", "6", "-t", "2", "--binary", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    row = run_experiment("code-geometry", cases=((6, 2),)).rows[0]
    mu, nu = row[5], row[7]
    assert f"worst-case coherence mu   = {mu:.12g}\n" in text
    assert f"average coherence nu      = {nu:.12g}\n" in text


@pytest.mark.parametrize("argv", [["analyze"], ["recover", "--sigma2", "1"]],
                         ids=["analyze", "recover"])
def test_memory_error_exit_2(capsys, monkeypatch, argv):
    # both subcommands reach the Gram blocks of mu: analyze through
    # coherence, recover through worst_case_coherence
    def exhausted(frame, start=0, stop=None):
        raise MemoryError("Unable to allocate 512. GiB")

    monkeypatch.setattr(framecoh.frame, "gram", exhausted)
    rc = main([argv[0], str(flip_demo_path()), *argv[1:]])
    assert rc == 2
    assert capsys.readouterr().err == "error: Unable to allocate 512. GiB\n"


def _wide_binary_frame(path):
    # 4 x 8192 entries +-1/2: its dense Gram would take 512 MiB, and every
    # Gram entry and row sum is exact in float64, in any summation order
    signs = np.where(np.random.default_rng(0).random((4, 8192)) < 0.5, -0.5, 0.5)
    write_frame(path, Frame(signs, normalize=False), binary=True)
    return read_frame(path)


def test_analyze_wide_frame_matches_dense(tmp_path, capsys):
    path = tmp_path / "wide.frame"
    f = _wide_binary_frame(path).data
    n = f.shape[1]
    mu = nu = 0.0
    for start in range(0, n, 512):  # the full Gram, 512 of its rows at a time
        g = f[:, start:start + 512].T @ f
        rows = np.arange(g.shape[0])
        off = g.sum(axis=1) - g[rows, start + rows]
        g[rows, start + rows] = 0.0
        mu = max(mu, float(np.abs(g).max()))
        nu = max(nu, float(np.abs(off).max()) / (n - 1))
    assert main(["analyze", str(path)]) == 0
    text = capsys.readouterr().out
    assert f"worst-case coherence mu   = {mu:.12g}\n" in text
    assert f"average coherence nu      = {nu:.12g}\n" in text
    assert coherence(read_frame(path)) == (mu, nu)


def test_generic_coherence_memory_is_bounded(tmp_path):
    frame = _wide_binary_frame(tmp_path / "wide.frame")
    tracemalloc.start()
    try:
        coherence(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20
