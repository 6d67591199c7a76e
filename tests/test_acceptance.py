"""Acceptance gate: ten end-to-end checks of the package's headline claims,
one test per criterion, each printing a single PASS/FAIL line.

Scales are pinned (N-grid {100,400,1600}, R=30 replicas, mean-field paths
M=1e4 with dt=1e-3*T and a frozen 4096-node quadrature) so the suite doubles
as the reference configuration for the statistical windows it asserts.
"""

import numpy as np
import pytest

from meanfield_sgd import (Ensemble, QuadratureSpec, RandomStreams,
                           TrainSchedule, activation, chaos_test,
                           constant_one, default_init, default_model,
                           default_test_functions, freeze_quadrature,
                           from_network, frozen_start, limit_distance,
                           lln_decay, martingale_decay, moment_bound,
                           picard_iterate, reconcile_decomposition, resample,
                           run_default, run_study, sample_init,
                           seed_resampled_floor, solve_selfconsistent, train,
                           wasserstein, wasserstein_bruteforce, weak_residual,
                           weak_residuals)
from meanfield_sgd.cli import main
from meanfield_sgd.measure import EmpiricalMeasure

from conftest import make_idx_pair

TANH = activation("tanh")
FS = default_test_functions(2)
T = 0.5
N_GRID = [100, 400, 1600]


def _report(name: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def study30():
    """R=30 replica study on the default teacher model, shared by the
    variance-decay, limit-distance and moment-bound criteria."""
    return run_study(default_model(), default_init(2), TANH, 1.0, T,
                     N_GRID, 30, RandomStreams(314159))


@pytest.fixture(scope="module")
def sol10k():
    """Reference limit solution: M=1e4 paths, dt=1e-3*T, frozen 4096-node
    quadrature, 51 uniform snapshots."""
    streams = RandomStreams(271828)
    model = default_model()
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 4096),
                             model, streams.stream(purpose="quadrature"))
    return solve_selfconsistent(default_init(2), model, 10_000, 1e-3 * T, T,
                                quad=quad, rng=streams.stream(purpose="paths"),
                                snapshot_times=np.linspace(0.0, T, 51))


def test_criterion_01_variance_decay_slope(study30):
    slopes = {}
    for f in FS:
        table = lln_decay(study30, f)
        slopes[f.label] = table.slope
    ok = all(s is not None and -0.65 <= s <= -0.35 for s in slopes.values())
    _report("criterion-01 variance-decay", ok,
            "slope " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
            + " (window [-0.65,-0.35])")


def test_criterion_06_moment_bound(study30):
    table = moment_bound(study30)
    ok = table.spread <= 1.5 and not table.increasing
    _report("criterion-06 moment-bound", ok,
            f"max guard per N {np.round(table.max_guard, 4)}, "
            f"spread={table.spread:.3f} (<=1.5), increasing={table.increasing}")


def test_criterion_02_fluctuation_decay():
    # f depends on both c and w so neither fluctuation term is
    # structurally zero (a pure-c observable degenerates at this init)
    table = martingale_decay(default_model(), default_init(2), FS[1],
                             [200, 800], T, 20, RandomStreams(141421))
    r1 = table.ratio(200, 800, which=1)
    r2 = table.ratio(200, 800, which=2)
    ok = 2.5 <= r1 <= 6.0 and 2.5 <= r2 <= 6.0
    _report("criterion-02 fluctuation-decay", ok,
            f"E[M(T)^2] ratio N=200/N=800: first-order {r1:.2f}, "
            f"second-order {r2:.2f} (window [2.5,6], theory 4)")


def test_criterion_03_weak_form_residual(sol10k):
    rels = {}
    for f, (resid, norm) in zip(FS, weak_residuals(sol10k, FS)):
        rels[f.label] = resid / norm
    ok = all(r <= 0.05 for r in rels.values())
    _report("criterion-03 weak-residual", ok,
            "relative " + ", ".join(f"{k}={v:.4f}" for k, v in rels.items())
            + " (<=0.05)")


def test_criterion_04_limit_distance(study30, sol10k):
    table = limit_distance(study30, sol10k, FS)
    ok = True
    details = []
    for f in FS:
        series = table.gap_series(f.label, T)
        mono = bool(np.all(np.diff(series) <= 1e-12))
        row = [r for r in table.rows if r.n == N_GRID[-1]][0]
        gap, floor, se = row.gaps[f.label]
        at_floor = gap <= floor + 3.0 * se
        ok = ok and mono and at_floor
        details.append(f"{f.label}: gaps={np.round(series, 5)} "
                       f"floor+3se={floor + 3 * se:.5f}")
    _report("criterion-04 limit-distance", ok, "; ".join(details))


def test_criterion_05_chaos_decay():
    table = chaos_test(default_model(), default_init(2), FS[0], FS[1],
                       N_GRID, T, 50, RandomStreams(173205))
    decreasing = bool(np.all(np.diff(np.abs(table.cov)) < 0))
    covers = table.ci_lo[-1] <= 0.0 <= table.ci_hi[-1]
    _report("criterion-05 chaos", decreasing and covers,
            f"|cov|={[f'{v:.2e}' for v in np.abs(table.cov)]} decreasing="
            f"{decreasing}, N=1600 CI [{table.ci_lo[-1]:.2e},"
            f"{table.ci_hi[-1]:.2e}] covers 0: {covers}")


def test_criterion_07_transport_oracle():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-2, 2)
        p = (1, 2, 4)[trial % 3]
        a = EmpiricalMeasure(scale * rng.standard_normal(n),
                             scale * rng.standard_normal((n, d)))
        b = EmpiricalMeasure(scale * rng.standard_normal(n),
                             scale * rng.standard_normal((n, d)))
        worst = max(worst, abs(wasserstein(a, b, p=p)
                               - wasserstein_bruteforce(a, b, p=p)))
    _report("criterion-07 transport-oracle", worst <= 1e-12,
            f"max |assignment - permutation optimum| = {worst:.2e} over "
            f"100 instances (<=1e-12)")


def test_criterion_08_solver_cross_validation():
    streams = RandomStreams(161803)
    model, init = default_model(), default_init(2)
    m, dt = 2000, 0.002
    snaps = np.linspace(0.0, T, 11)
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 1024), model,
                             streams.stream(purpose="quadrature"))
    floor = seed_resampled_floor(init, model, m, dt, T, quad, streams,
                                 n_runs=3, snapshot_times=snaps)
    sc = solve_selfconsistent(init, model, m, dt, T, quad=quad,
                              rng=streams.stream(purpose="paths-a"),
                              snapshot_times=snaps)
    cloud0 = sample_init(init, streams.stream(purpose="paths-b"), m)
    m0 = frozen_start(cloud0, T, dt, quad, TANH, 1.0, snapshot_times=snaps)
    res = picard_iterate(m0, tol=1e-10, max_iters=14)

    gaps = np.array([wasserstein(res.solution.slice(i), sc.slice(i), p=4)
                     for i in range(snaps.shape[0])])
    agree = bool(np.all(gaps <= 3.0 * floor))
    # past the first step the distances contract all the way down to the
    # exact fixed point of the discretized map
    tail = np.asarray(res.distances[1:], dtype=float)
    ratios = tail[1:] / tail[:-1]
    geometric = res.converged and ratios.shape[0] >= 3 and bool(
        np.all(ratios <= 0.85))
    _report("criterion-08 solver-cross-validation", agree and geometric,
            f"max snapshot gap {gaps.max():.5f} vs 3*floor {3 * floor:.5f}; "
            f"{len(res.distances)} contraction steps, tail ratios "
            f"{np.round(ratios, 3)} (<=0.85)")


def test_criterion_09_image_histogram_limit(tmp_path):
    images, labels = make_idx_pair(tmp_path, n_per_class=300)
    cfg = tmp_path / "mnist.cfg"
    cfg.write_text(f"images={images}\nlabels={labels}\ndigit_pair=3,5\n"
                   "mnist_n_grid=100,1000,10000\nt_horizon=0.2\nbins=30\n")
    out = tmp_path / "hist"
    rc = main(["mnist-hist", "--config", str(cfg), "--out", str(out),
               "--quiet"])
    rows = [ln.split(",") for ln in
            (out / "hist_w1.csv").read_text().splitlines()[2:]]
    w1 = {(int(a), int(b)): float(v) for a, b, v in rows}
    ok = rc == 0 and w1[(1000, 10000)] < w1[(100, 1000)]
    _report("criterion-09 image-histogram-limit", ok,
            f"output-weight histogram W1: (1e2 vs 1e3)={w1[(100, 1000)]:.4f} "
            f"> (1e3 vs 1e4)={w1[(1000, 10000)]:.4f}")


def test_criterion_10_exactness_suite():
    model, init = default_model(), default_init(2)
    notes = []

    # no learning signal leaves every parameter bit untouched
    streams = RandomStreams(42)
    ens = Ensemble.from_init(init, TANH, 0.0, streams.stream(0, purpose="init"),
                             100)
    c0, w0 = ens.c.copy(), ens.w.copy()
    train(ens, model, TrainSchedule(T), streams.stream(0, purpose="data"))
    frozen = np.array_equal(ens.c, c0) and np.array_equal(ens.w, w0)
    sol0 = solve_selfconsistent(init, model, 500, 0.01, T,
                                quad=QuadratureSpec("monte-carlo", 256),
                                rng=RandomStreams(43).stream(purpose="p"),
                                alpha=0.0)
    first, last = sol0.slice(0), sol0.slice(-1)
    frozen = frozen and np.array_equal(first.c, last.c) \
        and np.array_equal(first.w, last.w)
    notes.append(f"alpha=0 invariance {frozen}")

    # a network that already interpolates its own teacher never moves
    base = sample_init(init, RandomStreams(44).stream(purpose="i"), 50)
    self_model = from_network(base, TANH)
    ens2 = Ensemble(base.c.copy(), base.w.copy(), TANH, alpha=1.0)
    train(ens2, self_model, TrainSchedule(T),
          RandomStreams(44).stream(purpose="d"))
    fixed = np.array_equal(ens2.c, base.c) and np.array_equal(ens2.w, base.w)
    notes.append(f"interpolation fixed point {fixed}")

    # f = 1 pairs to exactly 1, has zero residual and zero fluctuation
    one = constant_one()
    cloud = resample(base, 50, RandomStreams(45).stream(purpose="r"))
    unit = float(np.mean(one.value(cloud.c, cloud.w))) == 1.0
    resid, norm = weak_residual(sol0, one)
    table = martingale_decay(model, init, one, [16, 32], 0.25, 2,
                             RandomStreams(46))
    normalized = unit and resid == 0.0 and norm == 0.0 \
        and np.all(table.m1_sq == 0.0) and np.all(table.m2_sq == 0.0)
    notes.append(f"f=1 normalization {normalized}")

    # realized increments equal drift + fluctuation to round-off
    rep = reconcile_decomposition(model, init, FS[1], 100, T,
                                  RandomStreams(47))
    reconciled = rep.identity_defect <= 1e-10
    notes.append(f"reconciliation defect {rep.identity_defect:.1e}")

    # everything above is bit-deterministic under a fixed seed
    sched = TrainSchedule(0.25)
    r1 = run_default(model, init, TANH, 1.0, 200, sched, RandomStreams(48))
    r2 = run_default(model, init, TANH, 1.0, 200, sched, RandomStreams(48))
    (t1, m1), (t2, m2) = r1.snapshots[-1], r2.snapshots[-1]
    deterministic = t1 == t2 and np.array_equal(m1.c, m2.c) \
        and np.array_equal(m1.w, m2.w)
    notes.append(f"bit-deterministic {deterministic}")

    ok = frozen and fixed and normalized and reconciled and deterministic
    _report("criterion-10 exactness-suite", ok, "; ".join(notes))
