"""The finite-N particle system: update formula oracles, 1/N scaling,
simultaneity, divergence guard, scheduling, and bit-determinism."""

import numpy as np
import pytest

from meanfield_sgd import (DivergedError, Ensemble, RandomStreams,
                           RejectedInputError, TrainSchedule, activation,
                           default_init, default_model, from_network,
                           moment_guard, run_default, sgd_step, train)

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
    model = from_network(ens.measure(), TANH, noise_scale=0.0)
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


def test_moment_guard_formula():
    ens = Ensemble(np.array([1.0, -2.0]), np.array([[3.0, 4.0], [0.0, 0.0]]),
                   TANH, 1.0)
    assert moment_guard(ens) == pytest.approx((1 + 5 + 2 + 0) / 2)


def test_schedule_steps_and_snapshots():
    sched = TrainSchedule(0.5, (0.0, 0.25, 0.5))
    assert sched.n_steps(100) == 50
    assert sched.snapshot_steps(100) == [0, 25, 50]
    assert TrainSchedule(0.3).snapshot_times == (0.3,)
    with pytest.raises(RejectedInputError):
        TrainSchedule(-1.0)
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

    def observer(k, e, x, y, dc, u):
        if k == 0:
            seen.append(e.c.copy())
        seen.append(k)

    train(ens, model, TrainSchedule(1.0), streams.stream(0, purpose="data"),
          observer=observer)
    assert np.array_equal(seen[0], c0)
    assert seen[1:] == list(range(16))


def test_observer_increments_are_the_applied_step(streams, model, init):
    """The (dc, u) handed to the observer are exactly what the step adds:
    c += dc and w += u x^T, bit for bit."""
    ens = Ensemble.from_init(init, TANH, 1.0, streams.stream(0, purpose="init"),
                             24)
    pending = []

    def check(post):
        c0, w0, x0, dc0, u0 = pending.pop()
        assert np.array_equal(post.c, c0 + dc0)
        assert np.array_equal(post.w, w0 + u0[:, None] * x0[None, :])

    def observer(k, e, x, y, dc, u):
        if pending:
            check(e)
        pending.append((e.c.copy(), e.w.copy(), x.copy(), dc.copy(), u.copy()))

    train(ens, model, TrainSchedule(1.0), streams.stream(0, purpose="data"),
          observer=observer)
    check(ens)


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
              observer=lambda k, e, x, y, dc, u: xs.append((x.copy(), y)))
        seen[n] = xs
    for (xa, ya), (xb, yb) in zip(seen[32], seen[128]):
        assert np.array_equal(xa, xb) and ya == yb
