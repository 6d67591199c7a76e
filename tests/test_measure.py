"""Empirical measures, pairing, Wasserstein estimators (with the brute-force
oracle), histograms, and CSV round trips."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanfield_sgd import (EmpiricalMeasure, Histogram1D, RejectedInputError,
                           constant_one, gaussian_bump, histogram,
                           histogram_w1, pair, resample,
                           sliced_wasserstein, smoothed_coordinate,
                           wasserstein, wasserstein_bruteforce)
from meanfield_sgd import measure
from meanfield_sgd.measure import (EXACT_LIMIT, csv_row, fmt_float,
                                   sliced_debias_factor, write_csv,
                                   write_histogram_csv)
from tests.conftest import read_histogram_csv


def cloud(rng, n, d, shift=0.0):
    return EmpiricalMeasure(rng.standard_normal(n) + shift,
                            rng.standard_normal((n, d)))


def test_measure_validation():
    with pytest.raises(RejectedInputError):
        EmpiricalMeasure(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(RejectedInputError):
        EmpiricalMeasure(np.zeros(3), np.zeros((2, 2)))
    with pytest.raises(RejectedInputError):
        EmpiricalMeasure(np.array([np.nan]), np.zeros((1, 1)))
    with pytest.raises(RejectedInputError):
        EmpiricalMeasure(np.empty(0), np.empty((0, 1)))
    with pytest.raises(RejectedInputError):
        EmpiricalMeasure(np.zeros(2), np.zeros((2, 0)))


@pytest.mark.parametrize("where", ["c", "w"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_any_non_finite_atom(where, bad):
    """One NaN or infinity anywhere in c or w, beside finite values."""
    c, w = np.array([0.5, -1.0, 2.0]), np.array([[1.0, 2.0]] * 3)
    if where == "c":
        c[1] = bad
    else:
        w[1, 1] = bad
    with pytest.raises(RejectedInputError, match="finite"):
        EmpiricalMeasure(c, w)


def test_pairing_constant_is_exactly_one():
    rng = np.random.default_rng(2)
    for n in (1, 7, 300):
        mu = cloud(rng, n, 3)
        assert pair(constant_one(), mu) == 1.0


def test_pairing_mean_of_clamped_coordinate():
    mu = EmpiricalMeasure(np.array([1.0, 2.0, -0.5]), np.zeros((3, 2)))
    # all |c| <= 4: the clamp is inactive and the pairing is the plain mean
    assert pair(smoothed_coordinate(), mu) == np.mean(mu.c)


def test_pairing_dimension_guard():
    f = gaussian_bump(0.0, np.zeros(3))
    mu = cloud(np.random.default_rng(0), 5, 2)
    with pytest.raises(RejectedInputError):
        pair(f, mu)


def test_resample_draws_existing_atoms():
    rng = np.random.default_rng(3)
    mu = cloud(rng, 20, 2)
    sub = resample(mu, 500, rng)
    assert sub.n == 500
    assert set(np.round(sub.c, 12)) <= set(np.round(mu.c, 12))


# ---------------------------------------------------------------------------
# Wasserstein


def test_distance_identical_and_permuted_clouds_is_zero():
    rng = np.random.default_rng(7)
    mu = cloud(rng, 40, 3)
    assert wasserstein(mu, mu, p=2) == 0.0
    perm = rng.permutation(40)
    shuffled = EmpiricalMeasure(mu.c[perm], mu.w[perm])
    assert wasserstein(mu, shuffled, p=2) <= 1e-12


def test_exact_matches_bruteforce_on_random_instances():
    """100 tiny random instances, every admissible p: equality to 1e-12."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        scale = 10.0 ** rng.integers(-2, 2)
        a = EmpiricalMeasure(scale * rng.standard_normal(n),
                             scale * rng.standard_normal((n, d)))
        b = EmpiricalMeasure(scale * rng.standard_normal(n),
                             scale * rng.standard_normal((n, d)))
        p = [1, 2, 4][trial % 3]
        assert abs(wasserstein(a, b, p=p) - wasserstein_bruteforce(a, b, p=p)) <= 1e-12


def test_point_mass_translation_oracle():
    for p in (1, 2, 4):
        for delta in (0.25, 0.9):
            a = EmpiricalMeasure(np.array([0.0]), np.zeros((1, 2)))
            b = EmpiricalMeasure(np.array([delta]), np.zeros((1, 2)))
            assert wasserstein(a, b, p=p) == pytest.approx(delta, abs=1e-12)


def test_cost_truncation_saturates_at_one():
    a = EmpiricalMeasure(np.array([0.0]), np.zeros((1, 1)))
    b = EmpiricalMeasure(np.array([1e6]), np.zeros((1, 1)))
    for p in (1, 2, 4):
        assert wasserstein(a, b, p=p) == 1.0
    far_big = EmpiricalMeasure(np.full(300, 1e6), np.zeros((300, 1)))
    near_big = EmpiricalMeasure(np.zeros(300), np.zeros((300, 1)))
    assert wasserstein(near_big, far_big, p=2) == 1.0


def test_method_selection_by_atom_count():
    """Up to ``EXACT_LIMIT`` atoms the distance is the optimal assignment of
    the capped cost matrix, built here; beyond it, the sliced estimate, at
    d = 2 and at the image width.  The clouds are narrow enough that no
    distance saturates at the cap."""
    from scipy.optimize import linear_sum_assignment

    def narrow(rng, n, d, s):
        return EmpiricalMeasure(s * rng.standard_normal(n),
                                s * rng.standard_normal((n, d)))

    rng = np.random.default_rng(11)
    for p in (1, 2, 4):
        a, b = (narrow(rng, EXACT_LIMIT, 2, 0.2) for _ in range(2))
        za, zb = a.joint(), b.joint()
        cost = np.minimum((np.abs(za[:, None] - zb[None]) ** p).sum(axis=2),
                          1.0)
        rows, cols = linear_sum_assignment(cost)
        exact = float(np.mean(cost[rows, cols])) ** (1.0 / p)
        value = wasserstein(a, b, p)
        assert value == pytest.approx(exact, rel=1e-12) and value < 1.0
        assert value != sliced_wasserstein(a, b, p)
    for d, s in ((2, 0.2), (784, 0.005)):
        big = narrow(rng, EXACT_LIMIT + 1, d, s)
        other = narrow(rng, EXACT_LIMIT + 1, d, s)
        value = wasserstein(big, other)
        assert value == sliced_wasserstein(big, other, 2) and 0 < value < 1.0


def test_mismatched_sizes_and_bad_p_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(RejectedInputError):
        wasserstein(cloud(rng, 3, 2), cloud(rng, 4, 2))
    with pytest.raises(RejectedInputError):
        wasserstein(cloud(rng, 3, 2), cloud(rng, 3, 3))
    with pytest.raises(RejectedInputError):
        wasserstein(cloud(rng, 3, 2), cloud(rng, 3, 2), p=3)
    with pytest.raises(RejectedInputError):
        wasserstein_bruteforce(cloud(rng, 9, 2), cloud(rng, 9, 2))
    with pytest.raises(RejectedInputError):
        sliced_wasserstein(cloud(rng, 3, 2), cloud(rng, 4, 2), 1)
    with pytest.raises(RejectedInputError):
        sliced_wasserstein(cloud(rng, 3, 2), cloud(rng, 3, 2), p=3)


def test_sliced_debias_factor_closed_forms():
    # E|theta_1|^p over the unit sphere in R^D
    assert sliced_debias_factor(2, 3) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert sliced_debias_factor(2, 10) == pytest.approx(0.1, rel=1e-12)
    assert sliced_debias_factor(4, 3) == pytest.approx(3.0 / (3.0 * 5.0), rel=1e-12)
    assert sliced_debias_factor(1, 3) == pytest.approx(0.5, rel=1e-12)


def test_sliced_debias_factor_matches_gamma_ratio_and_stays_finite():
    for p in (1, 2, 4):
        for dim in range(1, 51):
            direct = (math.gamma((p + 1) / 2) * math.gamma(dim / 2)
                      / (math.sqrt(math.pi) * math.gamma((dim + p) / 2)))
            assert sliced_debias_factor(p, dim) == pytest.approx(direct,
                                                                 rel=1e-12)
        big = sliced_debias_factor(p, 785)     # gamma(785 / 2) overflows
        assert math.isfinite(big) and big > 0
    assert sliced_debias_factor(2, 785) == pytest.approx(1 / 785, rel=1e-12)


def test_sliced_wasserstein_at_image_dimension():
    rng = np.random.default_rng(31)
    a, b = cloud(rng, 300, 784), cloud(rng, 300, 784, shift=0.1)
    value = wasserstein(a, b, p=1)
    assert value == sliced_wasserstein(a, b, 1)
    assert np.isfinite(value) and 0 < value <= 1.0


def test_cost_truncation_allows_chain_transport():
    """With the capped cost, shifting mass atom-to-atom along the line and
    paying the cap once on the return leg can beat the identity matching, so
    the distance between a cloud and its translate may drop below the shift."""
    rng = np.random.default_rng(21)
    base = cloud(rng, 128, 2)
    moved = EmpiricalMeasure(base.c + 0.5, base.w)
    d = wasserstein(base, moved, p=1)
    assert d <= 0.5 + 1e-12
    assert d >= 0.25


def test_sliced_calibrated_against_exact_on_shifted_clouds():
    """On clouds compact enough that the cap never binds, a pure translation
    is exactly solvable (identity matching) and the debiased sliced estimate
    must land on the same value up to finite-slice error."""
    rng = np.random.default_rng(21)
    delta = 0.05
    for p in (1, 2, 4):
        base_small = EmpiricalMeasure(rng.uniform(-0.15, 0.15, EXACT_LIMIT),
                                      rng.uniform(-0.15, 0.15, (EXACT_LIMIT, 2)))
        moved_small = EmpiricalMeasure(base_small.c + delta, base_small.w)
        exact = wasserstein(base_small, moved_small, p=p)
        assert exact == pytest.approx(delta, abs=1e-9)
        base_big = EmpiricalMeasure(rng.uniform(-0.15, 0.15, 1000),
                                    rng.uniform(-0.15, 0.15, (1000, 2)))
        moved_big = EmpiricalMeasure(base_big.c + delta, base_big.w)
        sliced = wasserstein(base_big, moved_big, p=p)
        assert abs(sliced - exact) <= 0.15 * exact


def test_sliced_directions_are_fixed():
    rng = np.random.default_rng(4)
    a, b = cloud(rng, 400, 2), cloud(rng, 400, 2)
    assert wasserstein(a, b) == wasserstein(a, b)


@pytest.mark.parametrize("dim", [3, 785])
def test_slice_directions_are_drawn_once_per_width(dim):
    """One read-only direction matrix per width, the same floats as an
    uncached draw (d = 2 and d = 784 clouds have joint widths 3 and 785)."""
    th = measure._slice_directions(dim)
    assert measure._slice_directions(dim) is th
    assert not th.flags.writeable
    fresh = measure._slice_directions.__wrapped__(dim)
    assert fresh is not th and np.array_equal(fresh, th)
    assert th.shape == (measure.SLICES, dim)


# ---------------------------------------------------------------------------
# histograms


def test_histogram_counts_and_edges():
    mu = EmpiricalMeasure(np.array([0.0, 0.1, 0.9, 1.0]), np.zeros((4, 1)))
    h = histogram(mu, "c", bins=2)
    assert h.n == 4
    assert np.array_equal(h.counts, [2, 2])
    assert h.edges[0] == 0.0 and h.edges[-1] == 1.0
    with pytest.raises(RejectedInputError):
        histogram(mu, "c", bins=1)


def test_histogram_degenerate_single_atom():
    mu = EmpiricalMeasure(np.array([2.5]), np.zeros((1, 1)))
    h = histogram(mu, "c", bins=30)
    assert h.counts.tolist() == [1]
    assert h.edges.tolist() == [2.0, 3.0]


def test_histogram_w_selector_and_callable():
    """Only "c" names a readout: a w coordinate and a callable are refused."""
    rng = np.random.default_rng(6)
    mu = cloud(rng, 50, 3)
    h = histogram(mu, "c", bins=5)
    assert h.n == 50 and h.selector == "c"
    assert np.array_equal(h.edges, np.linspace(mu.c.min(), mu.c.max(), 6))
    for selector in ("w2", lambda m: m.c + 1.0):
        with pytest.raises(RejectedInputError, match="unknown selector"):
            histogram(mu, selector, bins=5)


def test_histogram_w1_hand_values():
    h1 = Histogram1D(np.array([0.0, 1.0]), np.array([2]), "c")
    h2 = Histogram1D(np.array([1.0, 2.0]), np.array([2]), "c")
    assert histogram_w1(h1, h2) == pytest.approx(1.0)
    assert histogram_w1(h1, h1) == 0.0
    # half the mass moves one unit: W1 = 0.5
    h3 = Histogram1D(np.array([0.0, 1.0, 2.0]), np.array([1, 1]), "c")
    assert histogram_w1(h1, h3) == pytest.approx(0.5)


def test_histogram_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    h = histogram(cloud(rng, 200, 2), "c", bins=12)
    path = tmp_path / "h.csv"
    write_histogram_csv(h, path, config_hash="abc123")
    text = path.read_text()
    assert text.splitlines()[0] == "# config_hash=abc123"
    assert text.splitlines()[1] == "edge_lo,edge_hi,count"
    back = read_histogram_csv(path)
    assert np.array_equal(back.counts, h.counts)
    assert np.allclose(back.edges, h.edges, atol=0)
    write_histogram_csv(h, path, config_hash="abc123")
    assert path.read_text() == text


def test_fmt_float_round_trips():
    for v in (0.1, 1.0 / 3.0, -2.5e-17, 1e300):
        assert float(fmt_float(v)) == v


def test_histogram_csv_text_is_pinned(tmp_path):
    h = Histogram1D(np.array([-1.0, -0.0, 2.0]), np.array([100, 0]), "c")
    path = tmp_path / "h.csv"
    write_histogram_csv(h, path, "abc123")
    assert path.read_text() == ("# config_hash=abc123\n"
                                "edge_lo,edge_hi,count\n"
                                "-1.0,-0.0,100\n"
                                "-0.0,2.0,0\n")


def test_csv_row_writes_floats_through_fmt_float_and_the_rest_through_str():
    assert csv_row(100, np.int64(7), 2.0, np.float64(-0.0), np.float32(0.5),
                   1.0 / 3.0, 1e-20, "psi(c)", "") == (
        "100,7,2.0,-0.0,0.5,0.3333333333333333,1e-20,psi(c),")


def test_write_csv_frames_a_stream_of_rows(tmp_path):
    """The comment line and the header come first, then each row the
    iterator yields, one per line."""
    path = tmp_path / "t.csv"
    write_csv(path, "step,value", (csv_row(k, v) for k, v in
                                   enumerate([2.0, -0.0])), "feedc0de")
    assert path.read_text() == ("# config_hash=feedc0de\nstep,value\n"
                                "0,2.0\n1,-0.0\n")


def test_cli_import_leaves_scipy_optimize_out():
    """No command needs scipy to start: a fresh ``import meanfield_sgd.cli``
    imports no scipy module (scipy.special alone took about 0.26 s) and
    not ``concurrent.futures.process`` (20 ms, for run_study's pool only).
    The exact Wasserstein path still brings in scipy.optimize."""
    import meanfield_sgd
    src = str(Path(meanfield_sgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, numpy as np, meanfield_sgd.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')\n"
            "             or m == 'concurrent.futures.process'))\n"
            "from meanfield_sgd import EmpiricalMeasure, wasserstein\n"
            "a = EmpiricalMeasure(np.zeros(3), np.zeros((3, 2)))\n"
            "wasserstein(a, a)\n"
            "print('scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["[]", "True"]


def test_limit_distance_leaves_scipy_optimize_out():
    """``limit_distance`` takes the sliced distance at every N, those at or
    below ``EXACT_LIMIT`` included, so a fresh process that trains a study
    and measures it against a solved limit never imports scipy.optimize."""
    import meanfield_sgd
    src = str(Path(meanfield_sgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys\n"
            "from meanfield_sgd import *\n"
            "model, init, act = default_model(), default_init(2), "
            "activation('tanh')\n"
            "streams = RandomStreams(3)\n"
            "study = run_study(model, init, act, 1.0, 0.25, [16, 32], 2, "
            "streams)\n"
            "sol = solve_selfconsistent(init, model, 64, 0.05, 0.25, "
            "quad=QuadratureSpec('monte-carlo', 64), "
            "rng=streams.stream(purpose='meanfield'))\n"
            "table = limit_distance(study, sol, default_test_functions(2))\n"
            "print(len(table.rows), 'scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["2", "False"]
