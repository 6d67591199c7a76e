"""The finite-N particle system: update formula oracles, 1/N scaling,
simultaneity, divergence guard, scheduling, and bit-determinism."""

import tracemalloc

import numpy as np
import pytest

from meanfield_sgd import (DivergedError, Ensemble, InitLaw, RandomStreams,
                           RejectedInputError, TrainSchedule, activation,
                           default_model, from_network, load_mnist_idx,
                           moment_guard, run_default, sample_data, sgd_step,
                           teacher_network, train)
from meanfield_sgd import sgd
from meanfield_sgd.core import (_DEFER_BLOCK, _DEFER_MIN_D, DIVERGENCE_LIMIT,
                                max_abs, mean_output, tile_preactivations)

TANH = activation("tanh")


def one_unit(c, w, alpha=1.0):
    return Ensemble(np.array([float(c)]), np.array([[float(w)]]), TANH, alpha)


def test_single_unit_step_oracle():
    """z = 0 makes every piece exact: g = 0, coef = y, sigma' = 1."""
    ens = one_unit(1.0, 0.0)
    sgd_step(ens, np.array([1.0]), 2.0)
    assert ens.c[0] == 1.0          # c + y * tanh(0) = c
    assert ens.w[0, 0] == 2.0       # w + y * c * sigma'(0) * x = 2
    assert ens.step == 1


def test_step_is_simultaneous_not_sequential():
    """The w update must read pre-step c; feeding it the updated c gives a
    different (wrong) number."""
    ens = one_unit(1.0, 1.0)
    x, y = np.array([1.0]), 2.0
    s = np.tanh(1.0)
    coef = (y - s)                      # N = 1, alpha = 1, g = s
    c_new = 1.0 + coef * s
    w_simultaneous = 1.0 + coef * 1.0 * (1.0 - s * s)
    w_sequential = 1.0 + coef * c_new * (1.0 - s * s)
    sgd_step(ens, x, y)
    assert ens.c[0] == pytest.approx(c_new, abs=1e-15)
    assert ens.w[0, 0] == pytest.approx(w_simultaneous, abs=1e-15)
    assert abs(ens.w[0, 0] - w_sequential) > 1e-3


def test_update_scales_like_one_over_n():
    """Duplicating every particle doubles N and halves each particle's move."""
    rng = np.random.default_rng(0)
    c = rng.standard_normal(8)
    w = rng.standard_normal((8, 2))
    x, y = rng.standard_normal(2), 0.7
    small = Ensemble(c, w, TANH, 1.0)
    big = Ensemble(np.tile(c, 2), np.tile(w, (2, 1)), TANH, 1.0)
    sgd_step(small, x, y)
    sgd_step(big, x, y)
    d_small = small.c - c
    d_big = big.c[:8] - c
    assert np.allclose(d_big, d_small / 2, rtol=1e-12, atol=0)
    assert np.allclose(big.w[:8] - w, (small.w - w) / 2, rtol=1e-12, atol=0)


def test_pre_update_output_is_used():
    # two different-sign units; if g were recomputed mid-update the residual
    # would change; verify against the explicit formula instead
    ens = Ensemble(np.array([0.5, -0.25]), np.array([[1.0], [2.0]]), TANH, 1.0)
    x, y = np.array([0.5]), 1.0
    z = ens.w @ x
    s = np.tanh(z)
    g = float(s @ ens.c) / 2
    coef = 0.5 * (y - g)
    want_c = ens.c + coef * s
    want_w = ens.w + (coef * ens.c * (1 - s * s))[:, None] * x
    sgd_step(ens, x, y)
    assert np.array_equal(ens.c, want_c)
    assert np.array_equal(ens.w, want_w)


def test_alpha_zero_is_exact_invariance():
    rng = np.random.default_rng(1)
    ens = Ensemble(rng.standard_normal(10), rng.standard_normal((10, 2)),
                   TANH, alpha=0.0)
    c0, w0 = ens.c.copy(), ens.w.copy()
    for _ in range(50):
        sgd_step(ens, rng.standard_normal(2), float(rng.standard_normal()))
    assert np.array_equal(ens.c, c0)
    assert np.array_equal(ens.w, w0)


def test_interpolation_fixed_point_is_exact():
    """A network trained on its own outputs never moves: the residual is
    computed through the identical code path, so y - g is exactly 0.0."""
    rng = np.random.default_rng(2)
    ens = Ensemble(rng.standard_normal(30), rng.standard_normal((30, 2)),
                   TANH, alpha=1.0)
    model = from_network(ens, TANH, noise_scale=0.0)
    c0, w0 = ens.c.copy(), ens.w.copy()
    train(ens, model, TrainSchedule(3.0), np.random.default_rng(3))
    assert np.array_equal(ens.c, c0)
    assert np.array_equal(ens.w, w0)


def test_divergence_guard_raises_with_step():
    ens = Ensemble(np.array([1.0]), np.array([[1.0, 1.0]]), TANH, alpha=1e14)
    model = default_model()
    with pytest.raises(DivergedError) as err:
        train(ens, model, TrainSchedule(60.0), np.random.default_rng(4))
    assert err.value.step is not None
    assert err.value.step >= 1
    assert err.value.replica == 0 and ens.step == err.value.step
    # a batch stops at the first step any replica passes the limit and
    # names the lowest such replica; here replicas 1 and 3 pass it at step
    # 1, and replicas 0 and 2 stand at step 1 with the bits of a lone step
    big = 0.9 * DIVERGENCE_LIMIT
    starts = [(0.5, 0.3), (big, 1.0), (-0.4, -0.2), (big, 1.0)]
    c = np.array([[c0] for c0, _ in starts])
    w = np.array([[[w0, w0]] for _, w0 in starts])
    batch = sgd._Lockstep(c, w, TANH, 1.0, 0)
    rngs = [np.random.default_rng(60 + r) for r in range(4)]
    with pytest.raises(DivergedError) as err:
        sgd._train(batch, model, TrainSchedule(60.0), rngs, None, False, True)
    assert (err.value.step, err.value.replica) == (1, 1)
    assert batch.step == 1
    for r in (1, 3):
        assert not max_abs(w[r]) <= DIVERGENCE_LIMIT
    for r in (0, 2):
        alone = Ensemble(np.array([starts[r][0]]),
                         np.array([[starts[r][1]] * 2]), TANH, 1.0)
        x = sample_data(model, np.random.default_rng(60 + r), sgd._STREAM_CHUNK)
        sgd_step(alone, x.x[0], float(x.y[0]))
        assert np.array_equal(c[r], alone.c)
        assert np.array_equal(w[r], alone.w)


def test_narrow_guard_scans_w_only_past_the_bound(monkeypatch):
    """At d=2 the guard checks c every step and w only once the running
    bound, max|w| at the last scan plus max|u| max|x| per step, passes the
    limit.  A bound past it over a w still inside it scans once and goes
    on; a step that carries replica 2's w past the limit while every c
    stays finite raises at that step and names replica 2."""
    scans = []
    real = sgd._Lockstep._scan

    def counting(self, fold):
        scans.append(self.step)
        return real(self, fold)

    monkeypatch.setattr(sgd._Lockstep, "_scan", counting)
    r, n, big = 3, 4, 0.6 * DIVERGENCE_LIMIT
    c, w = np.ones((r, n)), np.full((r, n, 2), 0.5)
    state = sgd._Lockstep(c, w, TANH, 1.0, 0)
    x, dc = np.ones((r, 2)), np.zeros((r, n))
    moves = {2: (1, big), 3: (1, -big), 4: (2, big), 5: (2, big)}
    for k in range(1, 6):
        u = np.full((r, n), 1.0 if k == 1 else 0.0)
        if k in moves:
            u[moves[k][0]] = moves[k][1]
        if k < 5:
            state.push(x, dc, u)
            assert scans == ([3] if k >= 3 else []), k
            continue
        with pytest.raises(DivergedError) as err:
            state.push(x, dc, u)
    assert scans == [3, 5]
    assert (err.value.step, err.value.replica) == (5, 2) and state.step == 5
    assert max_abs(c) == 1.0 and max_abs(w[:2]) == 1.5
    assert not max_abs(w[2]) <= DIVERGENCE_LIMIT


def test_batch_divergence_names_the_replica_id(init):
    """A batch through run_default names the replica id, not its place in
    the batch: the earliest diverging step of the lone runs, and the lowest
    replica diverging there."""
    model, streams, sched = default_model(), RandomStreams(9), TrainSchedule(5.0)
    alone = {}
    for r in (4, 7, 8):
        with pytest.raises(DivergedError) as err:
            run_default(model, init, TANH, 1e7, 20, sched, streams, replica=r)
        alone[r] = err.value.step
        assert err.value.replica == r
    with pytest.raises(DivergedError) as err:
        run_default(model, init, TANH, 1e7, 20, sched, streams,
                    replica=[4, 7, 8])
    first = min(alone.values())
    assert err.value.step == first
    assert err.value.replica == min(r for r, k in alone.items() if k == first)
    assert f"replica {err.value.replica}" in str(err.value)


def test_observed_batch_trains_as_each_replica_alone(model, init):
    """An observer sees a lockstep batch whole: the state, samples and
    increments carry the leading replica axis, and the observed batch
    trains to the bits of each replica trained alone without an observer.
    A batch still needs one generator per replica."""
    streams, sched = RandomStreams(8), TrainSchedule(1.0)
    seen = []

    def observer(k, state, x, y, dc, u):
        seen.append((k, state.c.shape, state.w.shape, x.shape, y.shape,
                     dc.shape, u.shape))

    batch = run_default(model, init, TANH, 1.0, 8, sched, streams,
                        replica=[0, 1, 2], observer=observer)
    assert seen == [(k, (3, 8), (3, 8, 2), (3, 2), (3,), (3, 8), (3, 8))
                    for k in range(8)]
    _assert_same_runs(batch, [run_default(model, init, TANH, 1.0, 8, sched,
                                          streams, replica=r)
                              for r in range(3)])
    state = sgd._Lockstep(np.zeros((2, 8)), np.zeros((2, 8, 2)), TANH, 1.0, 0)
    with pytest.raises(RejectedInputError):
        sgd._train(state, model, TrainSchedule(1.0),
                   [np.random.default_rng(0)], None, False, True)


def _assert_same_runs(a, b):
    for ra, rb in zip(a, b, strict=True):
        assert [t for t, _ in ra.snapshots] == [t for t, _ in rb.snapshots]
        for (_, ca), (_, cb) in zip(ra.snapshots, rb.snapshots):
            assert np.array_equal(ca.c, cb.c) and np.array_equal(ca.w, cb.w)
        if ra.moment_trace is None:
            assert rb.moment_trace is None
        else:
            assert np.array_equal(ra.moment_trace, rb.moment_trace)
            assert ra.max_moment == rb.max_moment


@pytest.mark.parametrize("wide", [False, True], ids=["d2", "d100"])
@pytest.mark.parametrize("record_moments", [False, True])
def test_replica_bits_do_not_depend_on_batch(wide, record_moments):
    """Replica r's snapshots and moment trace are the same bits in one
    batch, in a split batch and alone, at N = 37 (not a multiple of 8).  At
    d=100 without moments the 185 steps go through three tiles of the
    deferred update, with a snapshot inside the first."""
    if wide:
        model, init = wide_model(), InitLaw(d=WIDE_D, w_scale=0.3)
    else:
        model, init = default_model(), InitLaw(d=2)
    streams, n = RandomStreams(61), 37
    sched = TrainSchedule(5.0, (1.0, 5.0))
    kw = dict(record_moments=record_moments)
    whole = run_default(model, init, TANH, 1.0, n, sched, streams,
                        replica=range(6), **kw)
    split = (run_default(model, init, TANH, 1.0, n, sched, streams,
                         replica=[0, 1], **kw)
             + run_default(model, init, TANH, 1.0, n, sched, streams,
                           replica=range(2, 6), **kw))
    alone = [run_default(model, init, TANH, 1.0, n, sched, streams,
                         replica=r, **kw) for r in range(6)]
    _assert_same_runs(whole, split)
    _assert_same_runs(whole, alone)
    assert not np.array_equal(whole[0].snapshots[-1][1].c,
                              whole[1].snapshots[-1][1].c)
    if wide and not record_moments:
        plain = plain_run(Ensemble.from_init(init, TANH, 1.0,
                                             streams.stream(2, purpose="init"),
                                             n),
                          model, streams.stream(2, purpose="data"), 185)
        final = whole[2].snapshots[-1][1]
        assert close(final.c, plain.c) and close(final.w, plain.w)


def test_replica_batches_are_capped_by_memory(monkeypatch, model, init):
    """Capped at two replicas per batch, run_default trains three batches
    and gives the bits of one batch."""
    streams, sched = RandomStreams(62), TrainSchedule(1.0)
    whole = run_default(model, init, TANH, 1.0, 24, sched, streams,
                        replica=range(5), record_moments=True)
    sizes = []
    real_train = sgd._train

    def counting(state, *args):
        sizes.append(state.c.shape[0])
        return real_train(state, *args)

    monkeypatch.setattr(sgd, "_train", counting)
    monkeypatch.setattr(sgd, "_LOCKSTEP_FLOATS",
                        2 * (24 + 2 * sgd._STREAM_CHUNK) * 3)
    capped = run_default(model, init, TANH, 1.0, 24, sched, streams,
                         replica=range(5), record_moments=True)
    assert sizes == [2, 2, 1]
    _assert_same_runs(whole, capped)


def test_moment_guard_formula():
    ens = Ensemble(np.array([1.0, -2.0]), np.array([[3.0, 4.0], [0.0, 0.0]]),
                   TANH, 1.0)
    assert moment_guard(ens) == pytest.approx((1 + 5 + 2 + 0) / 2)


def test_moment_guard_row_norms_match_linalg_norm():
    """The guard's einsum row norms equal np.linalg.norm's bit for bit at
    d=2, the width of every run that records the guard, so moment traces
    keep their bits; at d=784 the two sum in different orders and agree to
    a few ulps."""
    for d, n, ulps in ((2, 1600, 0), (784, 2000, 8)):
        ens = Ensemble.from_init(InitLaw(d=d), TANH, 1.0,
                                 np.random.default_rng(d), n)
        c, w = ens.c, ens.w
        norms = np.sqrt(np.einsum("ij,ij->i", w, w))
        ref = np.linalg.norm(w, axis=1)
        assert np.all(np.abs(norms - ref) <= ulps * np.spacing(ref))
        want = float(np.mean(np.abs(c) + ref))
        assert moment_guard(ens) == pytest.approx(want, rel=ulps * 2.3e-16,
                                                  abs=0)


@pytest.mark.parametrize("alpha", [-1.0, float("nan")])
def test_ensemble_rejects_alpha_below_zero_or_nan(alpha):
    with pytest.raises(RejectedInputError):
        Ensemble(np.ones(2), np.ones((2, 1)), TANH, alpha)


def test_schedule_steps_and_snapshots():
    sched = TrainSchedule(0.5, (0.0, 0.25, 0.5))
    assert sched.n_steps(100) == 50
    assert sched.snapshot_steps(100) == [0, 25, 50]
    assert TrainSchedule(0.3).snapshot_times == (0.3,)
    for bad in (-1.0, float("nan")):
        with pytest.raises(RejectedInputError):
            TrainSchedule(bad)
    with pytest.raises(RejectedInputError):
        TrainSchedule(1.0, (0.5, 0.25))
    with pytest.raises(RejectedInputError):
        TrainSchedule(1.0, (2.0,))


def test_schedule_steps_survive_product_rounding():
    """floor(N*T) for decimal T = i/100 matches integer arithmetic; the float
    product 100 * 0.29 is 28.999999999999996 and must still give 29."""
    assert TrainSchedule(0.29).n_steps(100) == 29
    ns = range(1, 10_001)
    for i in range(1, 100):
        sched = TrainSchedule(i / 100)
        want = [n * i // 100 for n in ns]
        assert [sched.n_steps(n) for n in ns] == want, f"T={i / 100}"
        assert [sched.snapshot_steps(n)[0] for n in ns] == want


def test_horizon_too_long_to_count_is_refused(model, init):
    """From N*T = 2**53 steps on, floor and round of the float no longer
    name one step: the schedule refuses it, and train does before any work."""
    for T in (float("inf"), 1e300, 2.0 ** 52):
        with pytest.raises(RejectedInputError, match="too many"):
            TrainSchedule(T).n_steps(10)
    assert TrainSchedule(2.0 ** 52).n_steps(1) == 2 ** 52
    ens = Ensemble.from_init(init, TANH, 1.0, np.random.default_rng(0), 10)
    with pytest.raises(RejectedInputError, match="too many"):
        train(ens, model, TrainSchedule(1e300), np.random.default_rng(1),
              record_moments=True)
    assert ens.step == 0


def test_train_records_requested_snapshots(streams, model, init):
    ens = Ensemble.from_init(init, TANH, 1.0, streams.stream(0, purpose="init"),
                             40)
    result = train(ens, model, TrainSchedule(1.0, (0.0, 0.5, 1.0)),
                   streams.stream(0, purpose="data"), record_moments=True)
    assert [t for t, _ in result.snapshots] == [0.0, 0.5, 1.0]
    assert result.snapshots[0][1].n == 40
    assert result.moment_trace.shape == (41,)
    assert result.max_moment >= result.moment_trace[0]
    # the t=0 snapshot is the untouched init
    again = Ensemble.from_init(init, TANH, 1.0,
                               streams.stream(0, purpose="init"), 40)
    assert np.array_equal(result.snapshots[0][1].c, again.c)


def test_train_bit_determinism(streams, model, init):
    runs = [run_default(model, init, TANH, 1.0, 64, TrainSchedule(0.5),
                        RandomStreams(1234), replica=3) for _ in range(2)]
    a, b = runs[0].snapshots[-1][1], runs[1].snapshots[-1][1]
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.w, b.w)


def test_observer_sees_pre_step_state(streams, model, init):
    ens = Ensemble.from_init(init, TANH, 1.0, streams.stream(0, purpose="init"),
                             16)
    c0 = ens.c.copy()
    seen = []

    def observer(k, state, x, y, dc, u):
        if k == 0:
            seen.append(state.c.copy())
        seen.append(k)

    train(ens, model, TrainSchedule(1.0), streams.stream(0, purpose="data"),
          observer=observer)
    assert np.array_equal(seen[0], c0[None])
    assert seen[1:] == list(range(16))


def test_observer_increments_are_the_applied_step(streams, model, init):
    """The (dc, u) handed to the observer are exactly what the step adds:
    c += dc and w += u x^T, bit for bit."""
    ens = Ensemble.from_init(init, TANH, 1.0, streams.stream(0, purpose="init"),
                             24)
    pending = []

    def check(c, w):
        c0, w0, x0, dc0, u0 = pending.pop()
        assert np.array_equal(c, c0 + dc0)
        assert np.array_equal(w, w0 + u0[..., None] * x0[:, None, :])

    def observer(k, state, x, y, dc, u):
        if pending:
            check(state.c, state.w)
        pending.append((state.c.copy(), state.w.copy(), x.copy(), dc.copy(),
                        u.copy()))

    train(ens, model, TrainSchedule(1.0), streams.stream(0, purpose="data"),
          observer=observer)
    check(ens.c[None], ens.w[None])


def test_train_dimension_mismatch(model):
    ens = Ensemble(np.ones(3), np.ones((3, 5)), TANH, 1.0)
    with pytest.raises(RejectedInputError):
        train(ens, model, TrainSchedule(1.0), np.random.default_rng(0))


def test_data_stream_prefix_shared_across_sizes(model, init):
    """Runs at different N keyed by the same (replica, purpose) consume the
    same sample sequence: step k sees the same (x, y) at every size."""
    seen = {}
    for n in (32, 128):
        ens = Ensemble.from_init(init, TANH, 1.0,
                                 RandomStreams(7).stream(0, purpose="init"), n)
        xs = []
        train(ens, model, TrainSchedule(0.5),
              RandomStreams(7).stream(0, purpose="data"),
              observer=lambda k, state, x, y, dc, u: xs.append(
                  (x.copy(), y.copy())))
        seen[n] = xs
    for (xa, ya), (xb, yb) in zip(seen[32], seen[128]):
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


# ---------------------------------------------------------------------------
# deferred rank-B updates at a wide input

WIDE_D = 100


def wide_model(d=WIDE_D):
    rng = np.random.default_rng(50)
    units = (np.array([1.0, -0.6, 0.4]),
             rng.standard_normal((3, d)) / np.sqrt(d))
    return teacher_network(d=d, act=TANH, units=units, noise_scale=0.1)


def wide_ensemble(n, alpha=1.0, d=WIDE_D, seed=51):
    return Ensemble.from_init(InitLaw(d=d, w_scale=0.3), TANH, alpha,
                              np.random.default_rng(seed), n)


def plain_run(ens, model, rng, n_steps):
    """sgd_step over the first n_steps samples of train's first chunk."""
    batch = sample_data(model, rng, sgd._STREAM_CHUNK)
    for x, y in zip(batch.x[:n_steps], batch.y[:n_steps]):
        sgd_step(ens, x, float(y))
    return ens


def close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_deferred_train_matches_plain_steps():
    """200 steps in blocks of B (three full folds and a final partial one)
    agree with 200 sgd_step calls to 1e-12 relative."""
    assert WIDE_D >= sgd._DEFER_MIN_D and 200 % sgd._DEFER_BLOCK
    model = wide_model()
    ens = wide_ensemble(200)
    train(ens, model, TrainSchedule(1.0), np.random.default_rng(52))
    plain = plain_run(wide_ensemble(200), model, np.random.default_rng(52), 200)
    assert ens.step == plain.step == 200
    assert close(ens.c, plain.c) and close(ens.w, plain.w)
    assert not np.array_equal(ens.w, wide_ensemble(200).w)


def test_deferred_snapshot_inside_a_block_is_folded():
    """A snapshot at step 70, inside the second block, sees w with all 70
    steps applied: it matches the plain state after 70 steps."""
    assert 70 % sgd._DEFER_BLOCK
    model = wide_model()
    result = train(wide_ensemble(200), model, TrainSchedule(1.0, (0.35, 1.0)),
                   np.random.default_rng(52))
    at70 = plain_run(wide_ensemble(200), model, np.random.default_rng(52), 70)
    snap = result.snapshots[0][1]
    assert close(snap.c, at70.c) and close(snap.w, at70.w)


def test_deferred_interpolation_fixed_point_is_exact():
    """At d=784 a network trained on its own outputs still never moves
    across folds: y - g is exactly 0.0 with w held as W0 + U^T X."""
    rng = np.random.default_rng(53)
    ens = Ensemble(rng.standard_normal(30), rng.standard_normal((30, 784)),
                   TANH, alpha=1.0)
    model = from_network(ens, TANH, noise_scale=0.0)
    c0, w0 = ens.c.copy(), ens.w.copy()
    train(ens, model, TrainSchedule(5.0), np.random.default_rng(54))
    assert ens.step == 150
    assert np.array_equal(ens.c, c0)
    assert np.array_equal(ens.w, w0)


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
@pytest.mark.parametrize("d", [1, 2, 8, 15, 16, 100])
def test_fixed_point_and_teacher_labels_at_every_width(d, kind):
    """On both sides of ``_DEFER_MIN_D`` and for every activation, a network
    trained on its own outputs for 150 steps (two full tiles and a ragged
    third at d >= 16) never moves, and the labels of 4100 samples are
    ``mean_output`` of each row's z, formed as the SGD step forms it: one
    matrix-vector product per sample below ``_DEFER_MIN_D``, one GEMM per
    64-row tile of the sample block from it on."""
    act = activation(kind)
    rng = np.random.default_rng(80 + d)
    ens = Ensemble(rng.standard_normal(30), rng.standard_normal((30, d)),
                   act, alpha=1.0)
    model = from_network(ens, act, noise_scale=0.0)
    c0, w0 = ens.c.copy(), ens.w.copy()
    train(ens, model, TrainSchedule(5.0), np.random.default_rng(81))
    assert ens.step == 150
    assert np.array_equal(ens.c, c0) and np.array_equal(ens.w, w0)
    batch = sample_data(model, np.random.default_rng(82), 4100)
    for lo in range(0, 4100, _DEFER_BLOCK):
        tile = batch.x[lo:lo + _DEFER_BLOCK]
        z = (tile_preactivations(w0, tile) if d >= _DEFER_MIN_D
             else np.array([w0 @ x for x in tile]))
        assert np.array_equal(batch.y[lo:lo + _DEFER_BLOCK],
                              mean_output(c0, act.value(z)))


def test_deferred_divergence_step_matches_plain():
    """A blow-up in the middle of a block folds it at that step, so train
    reports the step a plain sgd_step loop stops at.  At alpha=25 it is w
    that passes the limit, at step 115 (the second block's 51st step)."""
    model = wide_model()
    deferred = wide_ensemble(8, alpha=25.0)
    with pytest.raises(DivergedError) as err_deferred:
        train(deferred, model, TrainSchedule(50.0), np.random.default_rng(55))
    plain = wide_ensemble(8, alpha=25.0)
    with pytest.raises(DivergedError) as err_plain:
        plain_run(plain, model, np.random.default_rng(55), 400)
    step = err_deferred.value.step
    assert step == err_plain.value.step == 115
    assert step > sgd._DEFER_BLOCK and step % sgd._DEFER_BLOCK
    for ens in (deferred, plain):
        assert max_abs(ens.c) <= DIVERGENCE_LIMIT < max_abs(ens.w)


def test_deferred_c_divergence_leaves_w_folded():
    """When c passes the limit inside a block, the pending steps are folded
    before DivergedError is raised, so w stands at the step it names."""
    rng = np.random.default_rng(56)
    ens = wide_ensemble(8)
    w = ens.w.copy()
    pending = sgd._Lockstep(ens.c[None], ens.w[None], TANH, 1.0, 0)
    for k in range(5):
        x, u = rng.standard_normal(WIDE_D), rng.standard_normal(8)
        w += np.outer(u, x)
        dc = np.full(8, 2 * DIVERGENCE_LIMIT if k == 4 else 0.0)
        if k < 4:
            pending.push(x[None], dc[None], u[None])
            assert pending.pending == k + 1
            continue
        with pytest.raises(DivergedError) as err:
            pending.push(x[None], dc[None], u[None])
    assert err.value.step == pending.step == 5 and pending.pending == 0
    assert err.value.replica == 0
    assert close(ens.w, w)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_default_holds_its_weights_once():
    """run_default samples the cloud into the batch it steps and hands that
    batch back, and folds over particle row blocks: at N=3000, d=784 (four
    full folds and a partial one) its traced peak stays below w, one chunk
    of samples and half a w more."""
    n, d = 3000, 784
    model, init = wide_model(d), InitLaw(d=d, w_scale=0.3)
    sched = TrainSchedule(0.1)
    out = []
    peak = traced_peak(lambda: out.append(run_default(
        model, init, TANH, 1.0, n, sched, RandomStreams(63))))
    w = out[0].snapshots[-1][1].w
    chunk = sgd._STREAM_CHUNK * d * 8
    assert w.shape == (n, d) and sched.n_steps(n) == 300
    assert peak < w.nbytes + chunk + w.nbytes / 2, \
        f"peak {peak / w.nbytes:.2f} w, chunk {chunk / w.nbytes:.2f} w"


def test_image_model_holds_no_chunk_of_rows(idx_files):
    """An image model's stream holds the drawn indices and scales each
    step's images from their stored bytes: at N=3000, d=784 run_default's
    traced peak stays below 1.5 w, where 4096 float64 sample rows alone
    would be 1.37 w."""
    model = load_mnist_idx(*idx_files, (3, 5))
    n, init = 3000, InitLaw(d=model.d, w_scale=0.3)
    sched = TrainSchedule(0.1)
    out = []
    peak = traced_peak(lambda: out.append(run_default(
        model, init, TANH, 1.0, n, sched, RandomStreams(66))))
    w = out[0].snapshots[-1][1].w
    assert w.shape == (n, model.d) and sched.n_steps(n) == 300
    assert peak < 1.5 * w.nbytes, f"peak {peak / w.nbytes:.2f} w"


def test_image_steps_are_the_rows_sample_data_draws(idx_files):
    """Each step of a lockstep batch on an image model, and each sample of a
    chunk the twin observer draws, holds the float64 bytes of the row
    sample_data draws from the same generator, and those are the bytes of
    the float corpus gathered at the drawn indices.  The generators are
    left where whole chunks of sample_data leave them."""
    model = load_mnist_idx(*idx_files, (3, 5))
    seeds, n, steps = (80, 81), 4, sgd._STREAM_CHUNK + 60
    seen = []

    def observer(k, state, x, y, dc, u):
        seen.append((x.copy(), y.copy()))

    c, w = sgd._sample_clouds(InitLaw(d=model.d), [np.random.default_rng(70)
                                                   for _ in seeds], n)
    state = sgd._Lockstep(c, w, TANH, 0.0, 0)
    rngs = [np.random.default_rng(s) for s in seeds]
    sgd._train(state, model, TrainSchedule(steps / n), rngs, observer,
               False, True)
    twin_rngs = [np.random.default_rng(s) for s in seeds]
    twin = sgd._draw_chunk(model, twin_rngs)
    rows = model.images.astype(np.float64) / 255.0
    assert len(seen) == steps
    for r, seed in enumerate(seeds):
        ref = np.random.default_rng(seed)
        draws = np.random.default_rng(seed)
        idx = np.concatenate([draws.integers(0, len(rows),
                                             size=sgd._STREAM_CHUNK)
                              for _ in range(2)])
        want = [sample_data(model, ref, sgd._STREAM_CHUNK) for _ in range(2)]
        x = np.concatenate([b.x for b in want])
        y = np.concatenate([b.y for b in want])
        assert x.tobytes() == rows[idx].tobytes()
        got = np.stack([s[0][r] for s in seen])
        assert got.tobytes() == x[:steps].tobytes()
        assert np.array_equal(np.array([s[1][r] for s in seen]), y[:steps])
        chunk = [twin(i) for i in range(sgd._STREAM_CHUNK)]
        assert (np.stack([xt[r] for xt, _ in chunk]).tobytes()
                == want[0].x.tobytes())
        assert np.array_equal([yt[r] for _, yt in chunk], want[0].y)
        assert rngs[r].bit_generator.state == ref.bit_generator.state
        one = np.random.default_rng(seed)
        sample_data(model, one, sgd._STREAM_CHUNK)
        assert twin_rngs[r].bit_generator.state == one.bit_generator.state


def test_wide_sgd_step_makes_no_temporary_of_w():
    """A step at d >= _DEFER_MIN_D adds u x^T through the row-blocked fold,
    so it allocates well under half of w."""
    ens = wide_ensemble(2000, d=784)
    x = np.random.default_rng(64).uniform(-1.0, 1.0, 784)
    peak = traced_peak(lambda: sgd_step(ens, x, 0.5))
    assert ens.step == 1
    assert peak < ens.w.nbytes / 2, f"peak {peak / ens.w.nbytes:.2f} w"


@pytest.mark.parametrize("shape", [(1, 10_000, 784), (3, 37, 100),
                                   (2, 500, 16)])
def test_fold_of_one_step_is_the_outer_product(shape):
    """A fold of one pending step is a GEMM with one inner term over row
    blocks: the floats of w + u x^T formed by broadcasting."""
    r, n, d = shape
    rng = np.random.default_rng(65)
    c, w = rng.standard_normal((r, n)), rng.standard_normal((r, n, d))
    u, x = rng.standard_normal((r, n)), rng.standard_normal((r, d))
    want = w + u[:, :, None] * x[:, None, :]
    state = sgd._Lockstep(c, w, TANH, 1.0, 0)
    state.push(x, np.zeros((r, n)), u)
    assert state.pending == 1
    state.fold()
    assert state.pending == 0 and np.array_equal(w, want)


# ---------------------------------------------------------------------------
# tiles: one GEMM of w x per 64 steps at a wide input


@pytest.mark.parametrize("record_moments", [False, True],
                         ids=["deferred", "every-step"])
def test_tile_z_matches_matmul_on_the_plain_weights(monkeypatch,
                                                    record_moments):
    """At d=784 each step's z, the tile's GEMM column plus U^T (X x) over
    the tile's earlier steps, agrees with np.matmul(w, x) on the weights
    stepped plainly to 1e-12 of its magnitude: over two full tiles and a
    partial third, with a snapshot fold at step 100 inside the second, both
    with the steps deferred and folded each step."""
    n, d, steps = 50, 784, 170
    model = wide_model(d)
    c, w = sgd._sample_clouds(InitLaw(d=d, w_scale=0.3),
                              [np.random.default_rng(67)], n)
    plain = w[0].copy()
    seen = []
    real = sgd.step_increments

    def spy(state, y, z):  # the step's sample is the tile's next row of X
        dc, u = real(state, y, z)
        seen.append((state.x[0, state.taken].copy(), z[0].copy(),
                     u[0].copy()))
        return dc, u

    monkeypatch.setattr(sgd, "step_increments", spy)
    state = sgd._Lockstep(c, w, TANH, 1.0, 0)
    sched = TrainSchedule(steps / n, (100 / n, steps / n))
    assert sched.snapshot_steps(n) == [100, steps]
    result = sgd._train(state, model, sched, [np.random.default_rng(68)],
                        None, record_moments, True)[0]
    assert len(seen) == steps
    for k, (x, z, u) in enumerate(seen):
        want = np.matmul(plain, x)
        assert np.max(np.abs(z - want)) <= 1e-12 * np.max(np.abs(want)), k
        plain += u[:, None] * x
        if k + 1 == 100:
            assert close(result.snapshots[0][1].w, plain)
    assert close(w[0], plain)


@pytest.mark.parametrize("mode", ["record_moments", "observer"])
def test_fixed_point_holds_when_every_step_folds(mode):
    """At d=784 a network trained on its own outputs never moves when w is
    folded after every step, under record_moments or an observer: each
    step's z comes from the same tile GEMM as the teacher's labels, so y - g
    is exactly 0.0 and every increment is zero."""
    rng = np.random.default_rng(53)
    ens = Ensemble(rng.standard_normal(30), rng.standard_normal((30, 784)),
                   TANH, alpha=1.0)
    model = from_network(ens, TANH, noise_scale=0.0)
    c0, w0 = ens.c.copy(), ens.w.copy()
    moved = []
    kw = (dict(observer=lambda k, state, x, y, dc, u: moved.append(
        bool(dc.any() or u.any()))) if mode == "observer"
          else dict(record_moments=True))
    result = train(ens, model, TrainSchedule(5.0, (2.0, 5.0)),
                   np.random.default_rng(54), **kw)
    assert ens.step == 150
    assert np.array_equal(ens.c, c0) and np.array_equal(ens.w, w0)
    if mode == "observer":
        assert moved == [False] * 150
    else:
        assert np.all(result.moment_trace == result.moment_trace[0])


def test_wide_replica_bits_past_a_chunk_do_not_depend_on_batch():
    """At d=100 and N=37, 4144 steps run past the first 4096-sample chunk,
    and the snapshot at step 4107 falls inside the second chunk's first
    tile: each replica's snapshots are the same bits in one batch, in a
    split batch and alone."""
    model, init = wide_model(), InitLaw(d=WIDE_D, w_scale=0.3)
    streams, n = RandomStreams(69), 37
    sched = TrainSchedule(112.0, (1.0, 111.0, 112.0))
    assert sched.snapshot_steps(n) == [37, 4107, 4144]
    whole = run_default(model, init, TANH, 1.0, n, sched, streams,
                        replica=range(3))
    split = (run_default(model, init, TANH, 1.0, n, sched, streams,
                         replica=[0])
             + run_default(model, init, TANH, 1.0, n, sched, streams,
                           replica=[1, 2]))
    alone = [run_default(model, init, TANH, 1.0, n, sched, streams,
                         replica=r) for r in range(3)]
    _assert_same_runs(whole, split)
    _assert_same_runs(whole, alone)
    assert not np.array_equal(whole[0].snapshots[-1][1].w,
                              whole[1].snapshots[-1][1].w)


def test_image_tiles_allocate_no_second_block_of_z(idx_files):
    """A tile's GEMM writes W0 x straight into U's rows, and its images are
    scaled straight into X: training an image model at N=3000, d=784
    allocates no N x 64 float array besides U: the traced peak stays below
    w, U, X, the fold's work block and one more such array."""
    model = load_mnist_idx(*idx_files, (3, 5))
    n, init = 3000, InitLaw(d=model.d, w_scale=0.3)
    out = []
    peak = traced_peak(lambda: out.append(run_default(
        model, init, TANH, 1.0, n, TrainSchedule(0.1), RandomStreams(66))))
    w = out[0].snapshots[-1][1].w
    tile = sgd._DEFER_BLOCK * n * 8
    held = w.nbytes + tile + sgd._DEFER_BLOCK * 784 * 8 + sgd._FOLD_FLOATS * 8
    assert w.shape == (n, 784)
    assert peak - held < tile, f"peak {(peak - held) / tile:.2f} tiles over"
