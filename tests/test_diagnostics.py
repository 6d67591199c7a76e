"""Statistical verification layer: replica studies, variance/fluctuation
decay, the decomposition reconciliation, limit distance, and chaos."""

import concurrent.futures
import threading

import numpy as np
import pytest

from meanfield_sgd import (EmpiricalMeasure, Ensemble, InitLaw,
                           QuadratureSpec, RandomStreams, RejectedInputError,
                           TrainSchedule, activation, chaos_table, chaos_test,
                           default_init, default_model, default_test_functions,
                           freeze_quadrature, limit_distance, lln_decay,
                           martingale_decay, moment_bound,
                           reconcile_decomposition, run_default, run_study,
                           sample_data, sample_init, solve_selfconsistent)
from meanfield_sgd import core, diagnostics, meanfield, sgd
from meanfield_sgd.diagnostics import (N_BOOT, ChaosTable, LimitRow,
                                      LimitTable, LlnTable, MartingaleTable,
                                      MomentTable, _ci95, _DecompositionObserver)
from meanfield_sgd.meanfield import NODE_COLUMNS, Quadrature, drift, node_arrays
from meanfield_sgd.sgd import step_increments
from tests.conftest import counting

TANH = activation("tanh")
FS = default_test_functions(2)


# N*T is an integer for every grid size, so every run covers exactly the
# same scaled horizon (floor(N*T)/N == T) and sizes stay comparable.
@pytest.fixture(scope="module")
def study():
    return run_study(default_model(), default_init(2), TANH, 1.0, 0.25,
                     [32, 64, 128], 20, RandomStreams(99))


def test_run_study_is_deterministic_and_parallel_invariant(model, init):
    kw = dict(model=model, init=init, act=TANH, alpha=1.0, T=0.25,
              n_grid=[16, 32], R=4, streams=RandomStreams(5))
    serial = run_study(**kw, workers=1)
    pooled = run_study(**kw, workers=2)
    for key in serial.clouds:
        ca, cb = serial.clouds[key], pooled.clouds[key]
        assert np.array_equal(ca.c, cb.c) and np.array_equal(ca.w, cb.w)
    assert serial.max_moments == pooled.max_moments


def test_run_study_forks_after_a_threaded_solve(model, init, monkeypatch):
    """A solve whose ``drift`` walked half its nodes on a worker thread
    leaves no thread behind, so a ``workers=2`` study forked after it in
    the same process trains bitwise the clouds of ``workers=1``."""
    monkeypatch.setattr(meanfield, "THREADED_ROWS", 0)
    monkeypatch.setattr(meanfield, "usable_cores", lambda: 2)
    off_main, real = set(), meanfield._partials

    def recorded(*args):
        off_main.add(threading.current_thread() is not threading.main_thread())
        return real(*args)

    monkeypatch.setattr(meanfield, "_partials", recorded)
    start = threading.active_count()
    solve_selfconsistent(init, model, 64, 0.05, 0.1,
                         quad=QuadratureSpec("monte-carlo", 4 * NODE_COLUMNS),
                         rng=RandomStreams(6).stream(purpose="limit"))
    assert off_main == {False, True}
    assert threading.active_count() == start
    kw = dict(model=model, init=init, act=TANH, alpha=1.0, T=0.25,
              n_grid=[16, 32], R=4, streams=RandomStreams(5))
    pooled = run_study(**kw, workers=2)
    serial = run_study(**kw, workers=1)
    for key in serial.clouds:
        ca, cb = serial.clouds[key], pooled.clouds[key]
        assert np.array_equal(ca.c, cb.c) and np.array_equal(ca.w, cb.w)


@pytest.mark.parametrize("cores,want", [(64, 3), (2, 2), (1, None)])
def test_run_study_pool_is_capped_by_replicas_and_cores(
        model, init, monkeypatch, cores, want):
    """A pool forks all its processes at the first task, so workers=5000
    must not ask for more processes than replicas or usable cores; one
    usable core trains in-process.  The pool here is a stand-in that
    records its size and runs the tasks in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(core.os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    kw = dict(model=model, init=init, act=TANH, alpha=1.0, T=0.25,
              n_grid=[16], R=3, streams=RandomStreams(5))
    capped = run_study(**kw, workers=5000)
    assert sizes == ([] if want is None else [want])
    serial = run_study(**kw)
    for key in serial.clouds:
        assert np.array_equal(capped.clouds[key].w, serial.clouds[key].w)
    assert capped.max_moments == serial.max_moments


def test_study_clouds_are_run_default_replicas(model, init):
    """Replica r of a study at every N is run_default's replica r, bit for
    bit: the study keys its streams through the one runner."""
    streams = RandomStreams(8)
    study = run_study(model, init, TANH, 1.0, 0.25, [16, 48], 2, streams)
    for n in (16, 48):
        for r in (0, 1):
            ref = run_default(model, init, TANH, 1.0, n, TrainSchedule(0.25),
                              streams, replica=r).snapshots[-1][1]
            cloud = study.clouds[(n, r)]
            assert np.array_equal(cloud.c, ref.c)
            assert np.array_equal(cloud.w, ref.w)


def test_run_study_guards(model, init):
    with pytest.raises(RejectedInputError):
        run_study(model, init, TANH, 1.0, 0.25, [16], 1, RandomStreams(0))


def test_lln_decay_slope_near_half(study):
    """std <f, mu^N_T> across replicas should fall like N^(-1/2)."""
    for f in (FS[0], FS[1]):
        table = lln_decay(study, f)
        assert table.slope is not None
        assert -0.85 <= table.slope <= -0.2
        assert np.all(table.stds[:-1] > table.stds[1:])
        header, rows = table.to_csv_rows()
        assert header.startswith("n,") and len(rows) == 3


def test_lln_decay_preconditions(study, model, init):
    small = run_study(model, init, TANH, 1.0, 0.2, [16, 32, 64], 5,
                      RandomStreams(1))
    with pytest.raises(RejectedInputError):
        lln_decay(small, FS[0])
    two_sizes = run_study(model, init, TANH, 1.0, 0.2, [16, 32], 20,
                          RandomStreams(2))
    with pytest.raises(RejectedInputError):
        lln_decay(two_sizes, FS[0])


def test_moment_bound_spread(study):
    table = moment_bound(study)
    assert table.spread >= 1.0
    assert table.spread < 1.5
    assert not table.increasing
    assert np.all(table.se > 0)
    header, rows = table.to_csv_rows()
    assert len(rows) == 3 and header == "n,max_moment_guard,se"


def test_moment_table_flags_real_growth():
    from meanfield_sgd.diagnostics import MomentTable
    grown = MomentTable(np.array([32, 64, 128]),
                        np.array([1.0, 1.5, 2.4]), np.array([0.01] * 3))
    assert grown.increasing and grown.spread > 1.5
    noise = MomentTable(np.array([32, 64, 128]),
                        np.array([1.0, 1.01, 1.02]), np.array([0.05] * 3))
    assert not noise.increasing


# ---------------------------------------------------------------------------
# drift/fluctuation decomposition


def test_reconciliation_identity_and_remainder(model, init):
    rep = reconcile_decomposition(model, init, FS[1], 64, 0.5,
                                  RandomStreams(11))
    assert rep.steps == 32
    assert rep.identity_defect <= 1e-10
    assert 0 < rep.taylor_remainder < 1e-3


@pytest.mark.parametrize("i", range(len(FS)))
def test_reconcile_evaluates_each_state_once(model, init, i):
    """The value and gradients the observer takes at a pre-step state also
    close that step: f.value runs once per state (steps + 1 of them) and
    f.grad once per step, with the floats of the plain test function."""
    f, calls = counting(FS[i])
    rep = reconcile_decomposition(model, init, f, 64, 0.5, RandomStreams(11))
    assert len(calls["value"]) == rep.steps + 1
    assert len(calls["grad"]) == rep.steps
    assert rep == reconcile_decomposition(model, init, FS[i], 64, 0.5,
                                          RandomStreams(11))


def test_taylor_remainder_shrinks_like_inverse_n_squared(model, init):
    """Per-step remainder ~ 1/N^2: N = 100 -> 1000 should shrink it ~100x
    (within a factor of 3, it is a max over random steps)."""
    reps = {n: reconcile_decomposition(model, init, FS[1], n, 0.3,
                                       RandomStreams(13))
            for n in (100, 1000)}
    ratio = reps[100].taylor_remainder / reps[1000].taylor_remainder
    assert 100 / 3 <= ratio <= 100 * 3


def _reference_increments(f, alpha, act, c, w, x, y):
    """The two realized first-order terms of one step at sample (x, y),
    written out with plain temporaries."""
    n = c.shape[0]
    fc, fw = f.grad(c, w)
    z = w @ x
    s = act.value(z)
    coef = alpha / n * (y - float(s @ c) / n)
    return (coef * float(np.mean(fc * s)),
            coef * float(np.mean(c * act.deriv(z) * (fw @ x))))


def _reference_node_terms(f, quad, alpha, act, ens):
    """The two first-order terms at every node (x_k, y_k) of ``quad``, with
    plain (N x K) temporaries, and the factors h1, h2 that multiply
    alpha/N (y - g) in them."""
    n, c, w = ens.n, ens.c, ens.w
    fc, fw = f.grad(c, w)
    sq = w @ quad.x.T
    vq = act.value(sq)
    h1 = (fc @ vq) / n
    h2 = np.einsum("i,ik,ik->k", c, act.deriv(sq), fw @ quad.x.T) / n
    rq = alpha / n * (quad.y - (c @ vq) / n)
    return rq * h1, rq * h2, h1, h2


def _reference_components(f, quad, alpha, act, ens, x, y):
    """The realized terms at (x, y), their conditional means over the nodes
    of ``quad``, and the magnitude of the summands behind those means."""
    t1, t2, _, _ = _reference_node_terms(f, quad, alpha, act, ens)
    return (*_reference_increments(f, alpha, act, ens.c, ens.w, x, y),
            float(np.mean(t1)), float(np.mean(t2)),
            float(np.mean(np.abs(t1))), float(np.mean(np.abs(t2))))


def _reference_field(quad, alpha, act, ens, q=None, deriv=None):
    """``drift``'s per-particle field (g1, g2) with plain (N x K)
    temporaries, at the cloud's own Q or a frozen ``q``, with sigma' from
    ``deriv`` (default ``act.deriv``), plus the magnitude of the summands
    behind each entry."""
    c, k = ens.c, quad.n
    sq = ens.w @ quad.x.T
    vq, dq = act.value(sq), (deriv or act.deriv)(sq)
    rq = alpha * (quad.y - ((c @ vq) / ens.n if q is None else q))
    return (vq @ rq / k, c[:, None] * ((dq * rq) @ quad.x) / k,
            np.abs(vq) @ np.abs(rq) / k,
            np.abs(c)[:, None] * (np.abs(dq * rq) @ np.abs(quad.x)) / k)


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
def test_observer_matches_reference_formula(kind, model, init):
    """Per replica of an observed lockstep batch, the observer's sums of D_k
    and of D_k^2 equal the twin difference written out with plain
    temporaries: the realized terms at the training sample minus those at
    the k-th sample of the stream (replica, "twin"), both from the pre-step
    state, to 1e-12 of the summed magnitudes."""
    act = activation(kind)
    n, steps, reps = 96, 24, 3
    streams = RandomStreams(17)
    twins = [sample_data(model, streams.stream(r, purpose="twin"),
                         sgd._STREAM_CHUNK) for r in range(reps)]
    for f in FS:
        obs = _DecompositionObserver(f, model, streams, range(reps))
        diffs, sizes = np.zeros((2, reps)), np.zeros((2, reps))
        squares = np.zeros((2, reps))

        def both(k, state, x, y, dc, u):
            for r, twin in enumerate(twins):
                c, w = state.c[r].copy(), state.w[r].copy()
                i = _reference_increments(f, 1.0, act, c, w, x[r], y[r])
                j = _reference_increments(f, 1.0, act, c, w, twin.x[k],
                                          twin.y[k])
                for t in range(2):
                    diffs[t, r] += i[t] - j[t]
                    squares[t, r] += (i[t] - j[t]) ** 2
                    sizes[t, r] += abs(i[t]) + abs(j[t])
            obs(k, state, x, y, dc, u)

        run_default(model, init, act, 1.0, n, TrainSchedule(steps / n),
                    streams, replica=list(range(reps)), observer=both)
        assert np.all(np.abs(obs.sums - diffs) <= 1e-12 * sizes)
        assert np.all(np.abs(obs.squares - squares) <= 1e-12 * squares)
        qv1, qv2, end1, end2 = obs.totals()
        assert np.array_equal(qv1, obs.squares[0] / 2)
        assert np.array_equal(end2, obs.sums[1] ** 2 / 2)


def test_twin_estimator_is_unbiased(model, init):
    """On one frozen state, D = i - i' over many twin pairs has mean 0 and
    E[D^2 / 2] = E[(i - e)^2], each within 4 SE, where e = E[i | state].
    The oracle takes e and E[(i - e)^2] from the plain reference formula on
    a fine fixed grid (exact in y), with the variance of the uniform label
    noise added to the second moment.  A twin that repeated the training
    sample would give D = 0 and fail the second check."""
    n, reps, steps, alpha = 32, 40, 250, 1.0
    ens = Ensemble.from_init(init, TANH, alpha,
                             RandomStreams(21).stream(0, purpose="init"), n)
    state = sgd._Lockstep(np.repeat(ens.c[None], reps, axis=0),
                          np.repeat(ens.w[None], reps, axis=0), TANH, alpha,
                          0)
    streams = RandomStreams(23)
    obs = _DecompositionObserver(FS[1], model, streams, range(reps))
    sample = sgd._draw_chunk(model, [streams.stream(r, purpose="data")
                                     for r in range(reps)])
    for k in range(steps):
        x, y = sample(k)
        obs(k, state, x, y,
            *step_increments(state, y, state.preactivations(x)))
    assert np.all(state.c == ens.c) and np.all(state.w == ens.w)
    quad = freeze_quadrature(QuadratureSpec("fixed-grid", 128 ** 2), model)
    noise_var = model.noise_scale ** 2 / 3.0
    terms = _reference_node_terms(FS[1], quad, alpha, TANH, ens)
    for j, (t, h) in enumerate(zip(terms[:2], terms[2:])):
        e = float(np.mean(t))
        want = (float(np.mean((t - e) ** 2))
                + (alpha / n) ** 2 * noise_var * float(np.mean(h * h)))
        mean_d = obs.sums[j] / steps
        half_sq = obs.squares[j] / (2 * steps)
        assert want > 0 and np.all(half_sq > 0)
        se = np.std(mean_d, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(mean_d)) <= 4 * se
        se = np.std(half_sq, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(half_sq) - want) <= 4 * se


def test_martingale_decay_trains_the_bits_of_run_default(model, init,
                                                         monkeypatch):
    """The twin observer draws from streams of its own and writes nothing
    to the state, so each replica that martingale_decay trains, in one
    observed batch per N, ends on the bits that run_default gives it alone
    and without an observer."""
    finals = {}
    real = diagnostics.run_default

    def spy(*args, **kw):
        results = real(*args, **kw)
        assert kw["observer"] is not None
        finals[args[4]] = [res.snapshots[-1][1] for res in results]
        return results

    monkeypatch.setattr(diagnostics, "run_default", spy)
    streams = RandomStreams(31)
    martingale_decay(model, init, FS[1], [32, 80], 0.5, 3, streams)
    assert sorted(finals) == [32, 80]
    for n, clouds in finals.items():
        assert len(clouds) == 3
        for r, cloud in enumerate(clouds):
            alone = real(model, init, TANH, 1.0, n, TrainSchedule(0.5),
                         streams, replica=r).snapshots[-1][1]
            assert np.array_equal(cloud.c, alone.c)
            assert np.array_equal(cloud.w, alone.w)


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
@pytest.mark.parametrize("n", [96, 256, 300])
def test_drift_pairing_matches_reference_formula(kind, n, model, init):
    """``drift``'s field paired with test-function gradients, as the weak
    residual pairs it, against plain temporaries, for three cloud sizes on
    the 1024-node grid; alpha = 0 pairs to 0.  Pairings match to
    1e-12 relative or, where the mean over nodes cancels, to 1e-12 of its
    summands' magnitude (the blocked sums reassociate, and a cancelling
    mean magnifies the last-bit change).  The field itself, at the cloud's
    own Q and at a frozen one, matches its reference to 1e-12 of the
    magnitude of its summands."""
    act = activation(kind)
    quad = freeze_quadrature(QuadratureSpec("fixed-grid", 1024), model)
    nodes = node_arrays(quad, np.float64)
    ens = Ensemble.from_init(init, act, 1.0,
                             RandomStreams(19).stream(0, purpose="init"), n)
    x, y = np.array([0.3, -0.4]), 0.2
    grads = [f.grad(ens.c, ens.w) for f in FS]
    assert len(grads) == 3
    for alpha in (1.0, 0.7):
        g1, g2 = drift(ens.c, ens.w, nodes, act, alpha)
        for f, (fc, fw) in zip(FS, grads):
            *_, e1, e2, s1, s2 = _reference_components(f, quad, alpha, act,
                                                       ens, x, y)
            p1, p2 = fc @ g1, np.vdot(fw, g2)
            assert p1 / n / n == pytest.approx(e1, rel=1e-12, abs=1e-12 * s1)
            assert p2 / n / n == pytest.approx(e2, rel=1e-12, abs=1e-12 * s2)
        for frozen in (None, 0.5 * quad.y):
            g1, g2 = drift(ens.c, ens.w, nodes, act, alpha, frozen)
            r1, r2, s1, s2 = _reference_field(quad, alpha, act, ens, frozen)
            assert g1.shape == (n,) and g2.shape == (n, 2)
            assert np.all(np.abs(g1 - r1) <= 1e-12 * s1)
            assert np.all(np.abs(g2 - r2) <= 1e-12 * s2)
    g1, g2 = drift(ens.c, ens.w, nodes, act, 0.0)
    assert [(fc @ g1, np.vdot(fw, g2)) for fc, fw in grads] == \
        [(0.0, 0.0)] * len(grads)


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
@pytest.mark.parametrize("m,k", [(50, 100), (50, 20), (1, 70), (1, 1)])
def test_drift_column_walk_matches_reference_field(kind, m, k):
    """``drift``'s node-column walk against the float64 reference field,
    at the cloud's own Q and at a frozen one: a ragged last block (K = 100
    is three blocks of ``NODE_COLUMNS`` and four nodes), K below one block,
    and M = 1, each to 1e-12 of the magnitude of the summands."""
    assert NODE_COLUMNS == 32
    act = activation(kind)
    rng = np.random.default_rng(m * 1000 + k)
    c, w = rng.uniform(-1, 1, m), rng.standard_normal((m, 2))
    quad = Quadrature(rng.uniform(-1, 1, (k, 2)), rng.standard_normal(k),
                      QuadratureSpec("monte-carlo", k))
    nodes = node_arrays(quad, np.float64)
    for q in (None, rng.standard_normal(k)):
        g1, g2 = drift(c, w, nodes, act, 0.7, q)
        r1, r2, s1, s2 = _reference_field(quad, 0.7, act,
                                          EmpiricalMeasure(c, w), q)
        assert g1.shape == (m,) and g2.shape == (m, 2)
        assert np.all(np.abs(g1 - r1) <= 1e-12 * s1)
        assert np.all(np.abs(g2 - r2) <= 1e-12 * s2)


def test_tanh_polynomial_form_holds_where_tanh_saturates():
    """At init_w_scale = 8 a third of the (particle, node) pairs have
    |w . x| > 5, where sigma^2 -> 1 and the polynomial form's
    a0 sum_k r_k x_k - sigma^2 (r x) cancels.  Against the field with the
    exact sigma' = 1 / cosh^2, it stays within the tolerance that the form
    it replaced, sigma' = 1 - tanh^2 per entry, meets: 1e-12 of the
    magnitude of the summands."""
    m, k = 300, 200
    rng = np.random.default_rng(5)
    cloud = sample_init(InitLaw(d=2, w_scale=8.0), rng, m)
    quad = Quadrature(rng.uniform(-1, 1, (k, 2)), rng.standard_normal(k),
                      QuadratureSpec("monte-carlo", k))
    assert np.mean(np.abs(cloud.w @ quad.x.T) > 5) > 0.3
    nodes = node_arrays(quad, np.float64)
    g1, g2 = drift(cloud.c, cloud.w, nodes, TANH, 1.0)
    _, exact, _, scale = _reference_field(
        quad, 1.0, TANH, cloud, deriv=lambda z: 1.0 / np.cosh(z) ** 2)
    _, per_entry, _, _ = _reference_field(quad, 1.0, TANH, cloud)
    assert np.all(np.abs(per_entry - exact) <= 1e-12 * scale)
    assert np.all(np.abs(g2 - exact) <= 1e-12 * scale)


def test_observer_rejects_ensemble_of_other_size(model, init):
    """An observer built for two replicas refuses a batch of three, whose
    last replica it has no twin stream for."""
    obs = _DecompositionObserver(FS[1], model, RandomStreams(5), range(2))
    state = sgd._Lockstep(np.zeros((3, 16)), np.zeros((3, 16, 2)), TANH,
                          1.0, 0)
    x, y = np.full((3, 2), 0.1), np.zeros(3)
    with pytest.raises(RejectedInputError):
        obs(0, state, x, y,
            *step_increments(state, y, state.preactivations(x)))


def test_martingale_needs_a_replica(model, init):
    """With no replica the moments would be means over nothing, NaN in
    every row; martingale_decay refuses R < 1 instead."""
    for R in (0, -1):
        with pytest.raises(RejectedInputError, match="R >= 1"):
            martingale_decay(model, init, FS[1], [16, 64], 0.25, R,
                             RandomStreams(3))


def test_martingale_zero_when_alpha_zero(model, init):
    table = martingale_decay(model, init, FS[1], [32, 64], 0.4, 4,
                             RandomStreams(3), alpha=0.0)
    assert np.all(table.m1_sq == 0.0)
    assert np.all(table.m2_sq == 0.0)
    assert np.all(table.m1_sq_direct == 0.0)
    assert np.all(table.m2_sq_direct == 0.0)


def test_martingale_second_moment_scales_inversely_with_n(model, init):
    table = martingale_decay(model, init, FS[1], [64, 256], 0.4, 8,
                             RandomStreams(29))
    for which in (1, 2):
        r = table.ratio(64, 256, which=which)
        assert 2.0 <= r <= 8.0          # theory 4 at a 4x size step
    header, rows = table.to_csv_rows()
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# distance to the limit


@pytest.fixture(scope="module")
def limit_solution():
    return solve_selfconsistent(
        default_init(2), default_model(), 2000, 0.002, 0.25,
        quad=QuadratureSpec("monte-carlo", 1024),
        rng=RandomStreams(99).stream(purpose="meanfield"))


def test_limit_distance_gaps_shrink_to_floor(study, limit_solution):
    table = limit_distance(study, limit_solution, FS)
    assert len(table.rows) == 3
    for f in FS:
        series = table.gap_series(f.label, 0.25)
        assert series.shape == (3,)
        # the largest size should sit at or near its noise floor
        last = [r for r in table.rows if r.n == 128][0]
        gap, floor, se = last.gaps[f.label]
        assert gap <= floor + 4 * se
    assert all(r.w1 > 0 for r in table.rows)
    header, rows = table.to_csv_rows()
    assert len(rows) == 9


def test_limit_distance_evaluates_the_limit_cloud_once_per_f(
        study, limit_solution):
    """Each f meets the limit cloud (M = 2000 paths) once, not once per N,
    besides once per study cloud; the table is the plain functions' one."""
    counted = [counting(f) for f in FS]
    table = limit_distance(study, limit_solution, [f for f, _ in counted])
    per_study = [n for n in study.n_grid for _ in range(study.R)]
    for _, calls in counted:
        assert (sorted(calls["value"])
                == sorted(per_study + [limit_solution.n_paths]))
        assert not calls["grad"]
    assert (table.to_csv_rows()
            == limit_distance(study, limit_solution, FS).to_csv_rows())


def test_each_study_cloud_is_paired_once_across_tables(study,
                                                       limit_solution):
    """``lln_decay`` and ``limit_distance`` read one pairing per study
    cloud and f: across both tables each counted f meets every study cloud
    once and the limit cloud once, and both tables' rows are the plain
    functions' ones."""
    counted = [counting(f) for f in FS]
    fs = [f for f, _ in counted]
    lln = [lln_decay(study, f).to_csv_rows() for f in fs]
    table = limit_distance(study, limit_solution, fs).to_csv_rows()
    per_study = [n for n in study.n_grid for _ in range(study.R)]
    for _, calls in counted:
        assert (sorted(calls["value"])
                == sorted(per_study + [limit_solution.n_paths]))
    assert lln == [lln_decay(study, f).to_csv_rows() for f in FS]
    assert table == limit_distance(study, limit_solution, FS).to_csv_rows()


def test_limit_distance_alpha_zero_is_pure_sampling_noise(model, init):
    """Without training both sides are i.i.d. samples of the same law, so
    every pairing gap must sit within its sampling floor."""
    study0 = run_study(model, init, TANH, 0.0, 0.4, [64, 128, 256], 25,
                       RandomStreams(7))
    sol0 = solve_selfconsistent(init, model, 3000, 0.01, 0.4,
                                quad=QuadratureSpec("monte-carlo", 64),
                                rng=RandomStreams(7).stream(purpose="mf"),
                                alpha=0.0)
    table = limit_distance(study0, sol0, FS)
    for row in table.rows:
        for label, (gap, floor, se) in row.gaps.items():
            assert gap <= floor + 4 * se, (row.n, label)


# ---------------------------------------------------------------------------
# propagation of chaos


def test_chaos_guards(model, init):
    with pytest.raises(RejectedInputError):
        chaos_test(model, init, FS[0], FS[1], [16], 0.2, 10, RandomStreams(0))
    with pytest.raises(RejectedInputError):
        chaos_test(model, init, FS[0], FS[1], [1, 16], 0.2, 50,
                   RandomStreams(0))


def test_chaos_alpha_zero_ci_contains_zero(model, init):
    """Independent particles by construction: the covariance estimate must
    be statistically indistinguishable from 0."""
    table = chaos_test(model, init, FS[0], FS[1], [32, 64], 0.3, 50,
                       RandomStreams(17), alpha=0.0)
    for i in range(2):
        assert table.ci_lo[i] <= 0.0 <= table.ci_hi[i]
    header, rows = table.to_csv_rows()
    assert len(rows) == 2


def test_ci95_is_numpys_linear_percentile_bit_for_bit():
    """The chaos CI reads the floats ``np.percentile(v, [2.5, 97.5])``
    gives, on 10^4 draws of ``N_BOOT`` values over many scales; every
    other draw is rounded to one decimal, which makes ties frequent and
    brings in signed zeros."""
    rng = np.random.default_rng(37)
    for k in range(10 ** 4):
        v = rng.standard_normal(N_BOOT) * 10.0 ** int(rng.integers(-9, 3))
        if k % 2:
            v = np.round(v * 10.0 ** -int(rng.integers(-9, 3)), 1)
        want = [float(q).hex() for q in np.percentile(v, [2.5, 97.5])]
        assert [q.hex() for q in _ci95(v)] == want, k


def _single_pair(clouds, f1, f2, i, j, rng):
    """Cov(f1 of particle i, f2 of particle j) across the replicas' clouds
    and the width of its 95% bootstrap CI."""
    a = np.array([f1.value(cloud.c, cloud.w)[i] for cloud in clouds])
    b = np.array([f2.value(cloud.c, cloud.w)[j] for cloud in clouds])
    idx = rng.integers(0, len(clouds), size=(1000, len(clouds)))
    boots = (np.mean((a * b)[idx], axis=1)
             - np.mean(a[idx], axis=1) * np.mean(b[idx], axis=1))
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return float(np.mean(a * b) - np.mean(a) * np.mean(b)), float(hi - lo)


def _trained_clouds(model, init, n, T, R, streams):
    return [res.snapshots[-1][1] for res in run_default(
        model, init, TANH, 1.0, n, TrainSchedule(T), streams,
        replica=list(range(R)))]


def test_chaos_single_pair_mode_and_exchangeability(model, init):
    """Estimates from different particle pairs agree within their joint
    noise: the law of the particle system is exchangeable."""
    streams = RandomStreams(23)
    clouds = _trained_clouds(model, init, 48, 0.3, 60, streams)
    cov_a, width_a = _single_pair(clouds, FS[0], FS[1], 0, 1,
                                  streams.stream(purpose="chaos-boot"))
    cov_b, width_b = _single_pair(clouds, FS[0], FS[1], 17, 31,
                                  streams.stream(purpose="chaos-boot"))
    assert abs(cov_a - cov_b) <= width_a + width_b


def test_chaos_pair_averaged_tracks_single_pair(model, init):
    streams = RandomStreams(31)
    avg = chaos_test(model, init, FS[0], FS[0], [32], 0.3, 60, streams)
    clouds = _trained_clouds(model, init, 32, 0.3, 60, streams)
    cov, width = _single_pair(clouds, FS[0], FS[0], 0, 1,
                              streams.stream(purpose="chaos-boot"))
    assert abs(avg.cov[0] - cov) <= 1.5 * width


def test_chaos_reads_study_replicas(model, init, monkeypatch):
    """Replicas the study holds are read, not retrained, and the table is
    bit for bit the one that trains them all.  The retrains go to
    run_default as one batch per N, whose replicas are counted here one at
    a time."""
    streams = RandomStreams(37)
    held = run_study(model, init, TANH, 1.0, 0.25, [16, 32], 3, streams)
    calls = []

    def counting(*args, **kwargs):
        calls.extend(kwargs["replica"])
        return run_default(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "run_default", counting)
    plain = chaos_test(model, init, FS[0], FS[1], [16, 32], 0.25, 50, streams)
    assert len(calls) == 50 * 2
    calls.clear()
    reused = chaos_table(held, FS[0], FS[1], 50)
    assert len(calls) == (50 - 3) * 2 and min(calls) == 3
    for name in ("n_values", "cov", "ci_lo", "ci_hi"):
        assert np.array_equal(getattr(reused, name), getattr(plain, name))
    assert reused.to_csv_rows() == plain.to_csv_rows()


@pytest.mark.parametrize("setup", ["alpha", "activation", "init"])
def test_chaos_table_trains_with_its_study_setup(model, init, setup):
    """A study trained at another alpha, activation or initial law gives
    the table of chaos_test at that setup, byte for byte: the replicas the
    study lacks are trained with the study's own setup."""
    streams = RandomStreams(3)
    other = dict(act=TANH, alpha=1.0, init=init)
    other.update({"alpha": {"alpha": 0.0},
                  "activation": {"act": activation("logistic")},
                  "init": {"init": InitLaw(d=2, w_scale=0.5)}}[setup])
    study = run_study(model, other["init"], other["act"], other["alpha"],
                      0.25, [16, 32], 3, streams)
    ref = chaos_test(model, other["init"], FS[0], FS[1], [16, 32], 0.25, 50,
                     streams, alpha=other["alpha"], act=other["act"])
    table = chaos_table(study, FS[0], FS[1], 50)
    assert table.to_csv_rows() == ref.to_csv_rows()
    assert np.array_equal(table.cov, ref.cov)


# ---------------------------------------------------------------------------
# the CSV text of every table


def test_table_csv_text_is_pinned():
    """Each table's header and rows, written out as literals: a width column
    is an int (``100``, never ``100.0``) even from float ``n_values``, an
    integral float keeps its ``.0``, ``-0.0`` keeps its sign, and other
    floats take their shortest round-trip form."""
    n = np.array([100.0, 400.0])
    lln = LlnTable("psi(c)", n, np.array([2.0, -0.0]), np.array([0.1, 1e-20]),
                   None)
    assert lln.to_csv_rows() == ("n,mean,std,slope",
                                 ["100,2.0,0.1,", "400,-0.0,1e-20,"])
    lln.slope = -0.5
    assert lln.to_csv_rows()[1] == ["100,2.0,0.1,-0.5", "400,-0.0,1e-20,-0.5"]

    mart = MartingaleTable("psi(c)", np.array([200, 800]),
                           np.array([2.0, 0.25]), np.array([-0.0, 1.0 / 3.0]),
                           np.array([4.0, 0.5]), np.array([1e-20, 3.0]))
    assert mart.to_csv_rows() == (
        "n,m1_sq,m2_sq,m1_sq_direct,m2_sq_direct",
        ["200,2.0,-0.0,4.0,1e-20", "800,0.25,0.3333333333333333,0.5,3.0"])

    lim = LimitTable([LimitRow(100, 0.25, 2.0, {"psi(c)": (-0.0, 0.5, 0.125),
                                               "bump(s=1.5)": (1.0, 2.0, 3.0)})])
    assert lim.to_csv_rows() == (
        "n,t,w1,f,gap,noise_floor,gap_se",
        ["100,0.25,2.0,psi(c),-0.0,0.5,0.125",
         "100,0.25,2.0,bump(s=1.5),1.0,2.0,3.0"])

    chaos = ChaosTable(n, np.array([2.0, -0.0]), np.array([-1.5, -0.25]),
                       np.array([5.5, 0.25]))
    assert chaos.to_csv_rows() == ("n,cov,ci_lo,ci_hi",
                                   ["100,2.0,-1.5,5.5", "400,-0.0,-0.25,0.25"])

    mb = MomentTable(np.array([100, 400]), np.array([2.0, 2.5]),
                     np.array([-0.0, 0.1]))
    assert mb.to_csv_rows() == ("n,max_moment_guard,se",
                                ["100,2.0,-0.0", "400,2.5,0.1"])
