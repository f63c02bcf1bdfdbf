"""Shared helpers for the test suite."""
import numpy as np

from framecoh import Frame


def random_frame(m, n, seed, complex_=False):
    """Random unit-norm frame with a fixed seed."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if complex_:
        a = a + 1j * rng.standard_normal((m, n))
    return Frame(a)


def per_entry_frame_text(frame):
    """Text file bytes from the per-entry writer: one ``repr`` per entry.

    The oracle for ``write_frame``, which formats each distinct bit
    pattern once and must write these exact bytes.
    """
    m, n = frame.rows, frame.cols
    flat = frame.data.flatten(order="F")
    if frame.is_complex:
        signs = np.where(np.signbit(flat.imag), "-", "+").tolist()
        entries = map(
            "".join,
            zip(map(repr, flat.real.tolist()), signs, map(repr, np.abs(flat.imag).tolist())),
        )
        unit = "i"
    else:
        entries, unit = map(repr, flat.tolist()), ""
    pieces = [""] * (2 * flat.size)
    pieces[0::2] = entries
    pieces[1::2] = ([unit + " "] * (m - 1) + [unit + "\n"]) * n
    header = f"FRAME v1 {m} {n} {frame.scalar_field}\n"
    return (header + "".join(pieces)).encode("ascii")


def mercedes_frame():
    """Three unit vectors in the plane at 90, 210, and 330 degrees."""
    ang = np.deg2rad([90.0, 210.0, 330.0])
    return Frame(np.vstack([np.cos(ang), np.sin(ang)]))


def tetrahedron_frame():
    """Four unit vectors in R^3 with pairwise inner products -1/3."""
    v = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ).T / np.sqrt(3.0)
    return Frame(v, normalize=False)


def rebuilt_ost_rows(frame, k, law, sigma2, t, mu, seeds, lam=None, snr=None):
    """OST_TRIAL_HEADER rows rebuilt one trial at a time from the public
    per-trial functions, with numpy's own set operations."""
    from framecoh import (
        NoiseModel,
        check_rsp_bounds,
        floor_sets,
        generate_problem,
        ost_recover,
        ost_threshold,
        snr_of,
    )

    m, n = frame.rows, frame.cols
    rows = []
    for i, (signal_seed, noise_seed) in enumerate(seeds):
        noise = NoiseModel(sigma2, seed=noise_seed)
        x, y = generate_problem(frame, k, law, noise, seed=signal_seed)
        threshold = lam
        if lam is None:
            trial_snr = snr_of(x, m, sigma2) if snr is None else snr
            threshold = ost_threshold(mu, m, trial_snr, sigma2, n, t)
        res = ost_recover(frame, y, threshold)
        rsp = check_rsp_bounds(res, x, sigma2)
        khat = res.support_estimate
        must_find = np.intersect1d(*floor_sets(x, sigma2, mu, t))
        contained = bool(np.isin(must_find, khat).all() and np.isin(khat, x.support).all())
        exact = bool(khat.size == k and np.array_equal(khat, x.support))
        ok = contained and rsp.support_bound_ok
        rows.append((i, k, khat.size, exact, rsp.l2_error, rsp.support_rhs, ok))
    return rows
