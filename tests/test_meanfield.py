"""The limit dynamics solver: quadrature construction, Euler kernel oracles,
invariances, Picard iteration, and the weak-form residual."""

import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from meanfield_sgd import (ConfigError, DataModel, DivergedError,
                           EmpiricalMeasure, MeanFieldSolution, QuadratureSpec,
                           RandomStreams, RejectedInputError, activation,
                           constant_one, default_init, default_model,
                           default_test_functions, drift, freeze_quadrature,
                           from_network, frozen_start, node_arrays,
                           noisy_polynomial, pair, picard_iterate, q_on_nodes,
                           sample_init, seed_resampled_floor,
                           solve_selfconsistent, wasserstein, weak_residual,
                           weak_residuals)
from meanfield_sgd import core, meanfield
from meanfield_sgd.cli import load_solution, save_solution
from meanfield_sgd.core import activation_deriv
from meanfield_sgd.data import conditional_mean
from meanfield_sgd.meanfield import (NODE_COLUMNS, THREADED_ROWS, Quadrature,
                                     _evolve, _snapshot_plan, _trapz)
from tests.conftest import counting

TANH = activation("tanh")


def small_solution(streams, model, init, alpha=1.0, m=128, dt=0.01, T=0.3,
                   nodes=128, **kw):
    kw.setdefault("quad", QuadratureSpec("monte-carlo", nodes))
    return solve_selfconsistent(init, model, m, dt, T,
                                rng=streams.stream(purpose="mf"),
                                alpha=alpha, **kw)


# ---------------------------------------------------------------------------
# quadrature


def test_fixed_grid_nodes_and_conditional_mean(model):
    quad = freeze_quadrature(QuadratureSpec("fixed-grid", 1024), model)
    assert quad.n == 32 * 32          # floor(1024^(1/2)) per axis, d = 2
    assert np.max(np.abs(quad.x)) < 1.0
    assert np.array_equal(quad.y, conditional_mean(model, quad.x))


def test_fixed_grid_uses_exact_integer_root():
    """p per axis is the largest p with p^d <= n: the float root of a perfect
    cube (1000 ** (1/3) == 9.999999999999998) must not lose an axis point."""
    for d, n, want in ((3, 27, 27), (3, 64, 64), (3, 1000, 1000),
                       (3, 4096, 4096), (3, 999, 729), (2, 49, 49),
                       (2, 1024, 1024)):
        quad = freeze_quadrature(QuadratureSpec("fixed-grid", n),
                                 noisy_polynomial(d))
        assert quad.n == want, (d, n)


def test_monte_carlo_quadrature_frozen_and_seeded(model, streams):
    spec = QuadratureSpec("monte-carlo", 64)
    a = freeze_quadrature(spec, model, streams.stream(purpose="quadrature"))
    b = freeze_quadrature(spec, model, streams.stream(purpose="quadrature"))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    with pytest.raises(ConfigError):
        freeze_quadrature(spec, model)          # no generator


def test_quadrature_spec_validation(model):
    with pytest.raises(ConfigError):
        QuadratureSpec("simpson")
    with pytest.raises(ConfigError):
        QuadratureSpec(n_nodes=0)
    images = DataModel("mnist-binary", 4, images=np.zeros((2, 4), np.uint8),
                       labels=np.array([-1.0, 1.0]))
    with pytest.raises(ConfigError):
        freeze_quadrature(QuadratureSpec("fixed-grid", 64), images)


# ---------------------------------------------------------------------------
# solver basics


def test_alpha_zero_solution_is_constant_in_time(streams, model, init):
    sol = small_solution(streams, model, init, alpha=0.0)
    assert sol.times[0] == 0.0 and sol.times[-1] == pytest.approx(0.3)
    for i in range(1, sol.times.shape[0]):
        assert np.array_equal(sol.c[i], sol.c[0])
        assert np.array_equal(sol.w[i], sol.w[0])
    assert sol.max_rate == 0.0


def test_solver_bit_determinism(streams, model, init):
    a = small_solution(RandomStreams(1234), model, init)
    b = small_solution(RandomStreams(1234), model, init)
    assert np.array_equal(a.c, b.c) and np.array_equal(a.w, b.w)


def test_single_path_single_node_euler_step_oracle(model):
    """M = K = 1 makes the kernel a scalar Euler step; replicating the same
    single-precision operations must give bit-identical output."""
    cloud = EmpiricalMeasure(np.array([0.75]), np.array([[0.5, -0.25]]))
    quad = Quadrature(np.array([[0.4, 0.2]]), np.array([1.5]),
                      QuadratureSpec("monte-carlo", 1))
    dt = 0.125
    sol = solve_selfconsistent(cloud, model, None, dt, dt, quad=quad,
                               alpha=1.0, act=TANH)
    c = np.float32(0.75)
    w = np.array([0.5, -0.25], dtype=np.float32)
    x = np.array([0.4, 0.2], dtype=np.float32)
    z = w @ x
    v = np.tanh(z)
    q = (c * v) / np.float32(1)
    r = np.float32(1.0) * (np.float32(1.5) - q)
    g1 = (v * r) / np.float32(1)
    g2 = (1.0 - v * v) * r * x * c
    want_c = np.float64(c + np.float32(dt) * g1)
    want_w = (w + np.float32(dt) * g2).astype(np.float64)
    assert sol.c[-1][0] == want_c
    assert np.array_equal(sol.w[-1][0], want_w)


def test_interpolating_cloud_is_nearly_stationary(streams, init):
    """With labels produced by the cloud itself (conditional-mean grid), the
    drift vanishes up to single-precision roundoff."""
    rng = streams.stream(purpose="cloud")
    cloud = EmpiricalMeasure(rng.standard_normal(50),
                             rng.standard_normal((50, 2)))
    model = from_network(cloud, TANH, noise_scale=0.0)
    quad = freeze_quadrature(QuadratureSpec("fixed-grid", 256), model)
    sol = solve_selfconsistent(cloud, model, None, 0.01, 0.5, quad=quad,
                               act=TANH)
    assert np.max(np.abs(sol.c[-1] - sol.c[0])) < 1e-4
    assert np.max(np.abs(sol.w[-1] - sol.w[0])) < 1e-4
    assert sol.max_rate < 1e-4


def test_single_path_euler_order(model, streams):
    """M = 1 reduces to one deterministic ODE; halving dt should roughly
    halve the endpoint error (first-order scheme)."""
    cloud = EmpiricalMeasure(np.array([0.4]), np.array([[0.8, -0.6]]))
    quad = freeze_quadrature(QuadratureSpec("fixed-grid", 1024), model)

    def endpoint(dt):
        sol = solve_selfconsistent(cloud, model, None, dt, 0.4, quad=quad,
                                   act=TANH)
        return np.concatenate([sol.c[-1], sol.w[-1][0]])

    ref = endpoint(0.4 / 512)
    err_coarse = np.linalg.norm(endpoint(0.1) - ref)
    err_fine = np.linalg.norm(endpoint(0.05) - ref)
    assert err_coarse > 0
    assert 1.4 <= err_coarse / err_fine <= 3.0


def test_snapshot_plan_and_time_lookup(streams, model, init):
    sol = solve_selfconsistent(init, model, 64, 0.01, 0.3,
                               quad=QuadratureSpec("monte-carlo", 32),
                               rng=streams.stream(purpose="mf"),
                               snapshot_times=(0.0, 0.15, 0.3))
    assert sol.times.shape == (3,)
    assert sol.index_of(0.15) == 1
    assert sol.measure_at(0.3).n == 64
    with pytest.raises(RejectedInputError):
        sol.index_of(0.2)
    dense = small_solution(streams, model, init, m=16, dt=0.001, T=0.3)
    assert dense.times.shape[0] == 51           # default snapshot cap
    coerced = small_solution(streams, model, init, m=16, dt=0.07, T=0.3)
    assert coerced.dt == pytest.approx(0.3 / 4)


def test_snapshot_plan_refuses_steps_too_many_to_count():
    """From 2**53 Euler steps on, T/dt rounds to a float that names no one
    step, and the snapshot steps would wrap around as integers."""
    assert _snapshot_plan(1.0, 2.0 ** 52, None)[0] == 2 ** 52
    for dt, T in ((1.0, 2.0 ** 53), (1.0, 1e300), (1e-300, 1.0)):
        with pytest.raises(RejectedInputError, match="too many"):
            _snapshot_plan(dt, T, None)


def test_frozen_start_refuses_dt_or_t_not_positive(streams, model, init):
    """The Picard start plans its steps as the solver does: dt = 0 divided
    by zero, and a negative dt quietly took one step over the horizon."""
    cloud = sample_init(init, streams.stream(purpose="p"), 8)
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 8), model,
                             streams.stream(purpose="q"))
    for dt, T in ((0.0, 0.3), (-0.01, 0.3), (0.01, -0.3)):
        with pytest.raises(RejectedInputError, match="dt > 0"):
            frozen_start(cloud, T, dt, quad, activation("tanh"), 1.0)


@pytest.mark.parametrize("alpha", [-1.0, float("nan")])
def test_solvers_refuse_alpha_below_zero_or_nan(streams, model, init, alpha):
    """The self-consistent solve and the Picard start refuse a negative or
    NaN learning rate, as the SGD run does, and draw nothing first."""
    rng = streams.stream(purpose="x")
    with pytest.raises(RejectedInputError, match="alpha"):
        solve_selfconsistent(init, model, 16, 0.01, 0.1, alpha=alpha,
                             quad=QuadratureSpec("monte-carlo", 8), rng=rng)
    assert rng.random() == streams.stream(purpose="x").random()
    cloud = sample_init(init, streams.stream(purpose="p"), 8)
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 8), model,
                             streams.stream(purpose="q"))
    with pytest.raises(RejectedInputError, match="alpha"):
        frozen_start(cloud, 0.1, 0.01, quad, TANH, alpha)


def test_solver_input_validation(streams, model, init):
    nan = float("nan")
    for dt, T in ((-0.01, 0.3), (nan, 0.3), (0.01, nan)):
        with pytest.raises(RejectedInputError):
            solve_selfconsistent(init, model, 16, dt, T,
                                 quad=QuadratureSpec("monte-carlo", 8),
                                 rng=streams.stream(purpose="x"))
    cloud = EmpiricalMeasure(np.zeros(4), np.zeros((4, 2)))
    with pytest.raises(RejectedInputError):
        solve_selfconsistent(cloud, model, 8, 0.01, 0.1,
                             quad=QuadratureSpec("monte-carlo", 8),
                             rng=streams.stream(purpose="x"))
    with pytest.raises(ConfigError):
        solve_selfconsistent(init, model, 8, 0.01, 0.1,
                             quad=QuadratureSpec("monte-carlo", 8))


def test_solver_divergence_guard(streams, model, init):
    with pytest.raises(DivergedError):
        small_solution(streams, model, init, alpha=1e30, m=8, nodes=8)


@pytest.mark.parametrize("alpha,step", [(1e30, 1), (3e38, 1), (1e8, 3)])
def test_solver_divergence_step_is_pinned(alpha, step, streams, model, init):
    """The guard fires at the first Euler step whose state is out of bounds:
    alpha=1e30 overshoots at once, 3e38 overflows the float32 field to a
    non-finite one, and 1e8 takes three steps to pass the limit."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError) as err:
            small_solution(streams, model, init, alpha=alpha, m=8, nodes=8)
    assert err.value.step == step


def test_snapshot_grid_must_end_at_horizon(streams, model, init):
    """picard_iterate reads its horizon off the last snapshot, so a grid that
    stops before T is rejected rather than silently shortening the solve."""
    rng = streams.stream(purpose="cloud")
    cloud = EmpiricalMeasure(rng.standard_normal(8),
                             rng.standard_normal((8, 2)))
    quad = freeze_quadrature(QuadratureSpec("fixed-grid", 16), model)
    with pytest.raises(RejectedInputError):
        frozen_start(cloud, 0.3, 0.01, quad, TANH, alpha=1.0,
                     snapshot_times=(0.0, 0.15))
    with pytest.raises(RejectedInputError):
        small_solution(streams, model, init, m=8, nodes=8,
                       snapshot_times=(0.0, 0.15))
    full = frozen_start(cloud, 0.3, 0.01, quad, TANH, alpha=1.0,
                        snapshot_times=(0.0, 0.15, 0.3))
    assert full.times[-1] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# the velocity-field kernel


def test_drift_hand_values():
    """M = K = 1, c = 1, w = (0.5, 0), x = (1, 0), y = 2: with Q frozen at 0,
    g1 = 2 tanh(0.5) and g2 = (2 (1 - tanh(0.5)^2), 0); the cloud's own Q,
    which ``q_on_nodes`` reads, is tanh(0.5), and the weak residual pairs
    the field with fc = 1, fw = (1, 0) to g1 plus the first entry of g2; a
    frozen Q equal to y leaves no field at all."""
    c, w = np.array([1.0]), np.array([[0.5, 0.0]])
    quad = Quadrature(np.array([[1.0, 0.0]]), np.array([2.0]),
                      QuadratureSpec("monte-carlo", 1))
    nodes = node_arrays(quad, np.float64)
    s = np.tanh(0.5)
    g1, g2 = drift(c, w, nodes, TANH, 1.0, q=np.zeros(1))
    assert g1[0] == pytest.approx(2 * s, abs=1e-15)
    assert g2[0, 0] == pytest.approx(2 * (1 - s * s), abs=1e-15)
    assert g2[0, 1] == 0.0
    g1, g2 = drift(c, w, nodes, TANH, 0.5)
    assert g1[0] == pytest.approx(0.5 * (2 - s) * s, abs=1e-15)
    assert g2[0, 0] == pytest.approx(0.5 * (2 - s) * (1 - s * s), abs=1e-15)
    # two equal slices a unit of time apart: <f, mu> does not move, so the
    # residual is the pairing a itself, the same at both ends
    sol = MeanFieldSolution(np.array([0.0, 1.0]), np.stack([c, c]),
                            np.stack([w, w]), quad, TANH, 0.5, 1.0, 0.0)
    assert np.allclose(q_on_nodes(sol), s, rtol=1e-7, atol=0)
    f = core.TestFunction("c + w1", lambda c, w: c + w[:, 0],
                          lambda c, w: (np.ones_like(c), np.eye(
                              1, w.shape[1]).repeat(len(c), 0)))
    resid, norm = weak_residual(sol, f)
    assert resid == norm == pytest.approx(g1[0] + g2[0, 0], rel=1e-6)
    g1, g2 = drift(c, w, nodes, TANH, 1.0, q=np.full(1, 2.0))
    assert g1[0] == 0.0 and not g2.any()



@pytest.mark.parametrize("kind", ["tanh", "smooth-bump"])
def test_concurrent_drift_calls_match_sequential_ones(kind):
    """Two threads call ``drift`` at once on one float32 cloud and one
    ``node_arrays``, one at the cloud's own Q and one at a frozen Q.  Each
    walk allocates its own work block, so the two (g1, g2) are those of two
    sequential calls bit for bit; smooth-bump adds its separate z block."""
    m, k = 4000, 2048
    act = activation(kind)
    rng = np.random.default_rng(9)
    c = rng.uniform(-1, 1, m).astype(np.float32)
    w = rng.standard_normal((m, 2)).astype(np.float32)
    quad = Quadrature(rng.uniform(-1, 1, (k, 2)), rng.standard_normal(k),
                      QuadratureSpec("monte-carlo", k))
    nodes = node_arrays(quad, np.float32)
    qs = (None, 0.5 * quad.y)
    want = [drift(c, w, nodes, act, 1.0, q) for q in qs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            for _ in range(4):
                futures = [pool.submit(drift, c, w, nodes, act, 1.0, q)
                           for q in qs]
                got = [f.result(timeout=60) for f in futures]
                for (g1, g2), (r1, r2) in zip(got, want):
                    assert g1.tobytes() == r1.tobytes()
                    assert g2.tobytes() == r2.tobytes()
    finally:
        sys.setswitchinterval(interval)


def force_threads(monkeypatch, on: bool):
    """``drift`` walks its second node half on a worker thread at any cloud
    size (``on``) or at none; two usable CPUs either way."""
    monkeypatch.setattr(meanfield, "THREADED_ROWS", 0 if on else sys.maxsize)
    monkeypatch.setattr(meanfield, "usable_cores", lambda: 2)


def recorded_halves(monkeypatch) -> list:
    """Wrap ``_partials`` to record, per node half walked, whether it ran
    off the main thread and how many threads were alive."""
    seen = []
    real = meanfield._partials

    def recorded(*args):
        seen.append((threading.current_thread() is not threading.main_thread(),
                     threading.active_count()))
        return real(*args)

    monkeypatch.setattr(meanfield, "_partials", recorded)
    return seen


def _cloud_and_nodes(m, k, seed=11):
    rng = np.random.default_rng(seed)
    cloud = EmpiricalMeasure(rng.uniform(-1, 1, m), rng.standard_normal((m, 2)))
    quad = Quadrature(rng.uniform(-1, 1, (k, 2)), rng.standard_normal(k),
                      QuadratureSpec("monte-carlo", k))
    return cloud, quad


@pytest.mark.parametrize("kind", ["tanh", "smooth-bump"])
@pytest.mark.parametrize("m,k", [(THREADED_ROWS, 256),
                                 (300, 5 * NODE_COLUMNS - 7),
                                 (300, NODE_COLUMNS)],
                         ids=["above-threshold", "ragged", "one-block"])
def test_field_bits_do_not_depend_on_the_worker_thread(monkeypatch, kind, m,
                                                       k):
    """``drift`` at the cloud's own and at a frozen Q, a two-step solve with
    its kept fields, and the weak residual of that solve with its fields
    dropped (one ``drift`` per slice) give the same bytes with the worker
    thread forced off and on: at the threshold's own cloud size, on five
    blocks the last of them ragged (halves of three and two), and on one
    block, where half B is empty and no thread starts."""
    cloud, quad = _cloud_and_nodes(m, k)
    act, fs = activation(kind), default_test_functions(2)
    seen = recorded_halves(monkeypatch)
    got = {}
    for on in (False, True):
        force_threads(monkeypatch, on)
        seen.clear()
        c, w = cloud.c.astype(np.float32), cloud.w.astype(np.float32)
        nodes = node_arrays(quad, np.float32)
        fields = [drift(c, w, nodes, act, 1.0, q) for q in (None, 0.5 * quad.y)]
        sol = solve_selfconsistent(cloud, default_model(), None, 0.05, 0.1,
                                   quad=quad, act=act)
        resid = weak_residuals(dataclasses.replace(sol, fields=None), fs)
        got[on] = ([a.tobytes() for pair_ in fields for a in pair_]
                   + [a.tobytes() for a in (sol.c, sol.w, *sol.fields)],
                   resid)
        # 2 fields, 2 Euler steps and 3 slices: 7 calls of two halves each
        assert len(seen) == 14
        assert sum(off for off, _ in seen) == (7 if on and k > NODE_COLUMNS
                                               else 0)
    assert got[False] == got[True]


def test_worker_thread_lives_only_for_the_call(monkeypatch):
    """From ``THREADED_ROWS`` particles on, with two usable CPUs, half B
    runs on one worker thread beside the caller; one row fewer or one CPU
    keeps it on the calling thread.  No more than two threads run, and the
    count is back where it started when ``drift`` returns."""
    monkeypatch.setattr(meanfield, "usable_cores", lambda: 2)
    seen = recorded_halves(monkeypatch)
    start = threading.active_count()
    cloud, quad = _cloud_and_nodes(THREADED_ROWS, 2 * NODE_COLUMNS)
    c, w = cloud.c.astype(np.float32), cloud.w.astype(np.float32)
    nodes = node_arrays(quad, np.float32)
    drift(c, w, nodes, TANH, 1.0)
    assert sorted(off for off, _ in seen) == [False, True]
    assert max(n for _, n in seen) <= start + 1
    assert threading.active_count() == start
    seen.clear()
    drift(c[1:], w[1:], nodes, TANH, 1.0)
    monkeypatch.setattr(meanfield, "usable_cores", lambda: 1)
    drift(c, w, nodes, TANH, 1.0)
    assert [off for off, _ in seen] == [False] * 4


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_in_either_half_reaches_the_caller(monkeypatch, where):
    """An activation that runs out of memory on the worker thread (half B)
    or on the calling one (half A) raises that MemoryError from ``drift``,
    and the worker has been joined: no thread outlives the call."""
    def value(z, out=None):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (where == "worker"):
            raise MemoryError(f"sigma on the {where}")
        return np.tanh(z, out=out)

    act = core.Activation("tanh", value, deriv_poly=TANH.deriv_poly)
    force_threads(monkeypatch, True)
    start = threading.active_count()
    cloud, quad = _cloud_and_nodes(200, 4 * NODE_COLUMNS)
    with pytest.raises(MemoryError, match=f"on the {where}"):
        drift(cloud.c.astype(np.float32), cloud.w.astype(np.float32),
              node_arrays(quad, np.float32), act, 1.0)
    assert threading.active_count() == start


# ---------------------------------------------------------------------------
# weak residual


def test_weak_residual_constant_function_is_exact(streams, model, init):
    """<1, mu_t> = 1 for every t and the drift pairing vanishes, so both the
    residual and its normalizer are exactly 0."""
    sol = small_solution(streams, model, init, m=64)
    resid, norm = weak_residual(sol, constant_one())
    assert resid == 0.0 and norm == 0.0


def test_weak_residual_small_on_solved_dynamics(streams, model, init):
    sol = small_solution(streams, model, init, m=512, dt=0.002, T=0.3,
                         nodes=512)
    for f in default_test_functions(2):
        resid, norm = weak_residual(sol, f)
        assert norm > 0
        assert resid <= 0.05 * norm
    one_slice = frozen_start(sol.slice(0), 0.3, 0.3, sol.quad, sol.act,
                             sol.alpha, snapshot_times=(0.3,))
    with pytest.raises(RejectedInputError):
        weak_residual(one_slice, constant_one())


def test_weak_residual_grows_with_alien_dynamics(streams, model, init):
    """Frozen (never-evolving) paths do not satisfy the dynamics: residual
    comparable to the normalizer, not small."""
    rng = streams.stream(purpose="cloud")
    cloud = EmpiricalMeasure(rng.standard_normal(256),
                             rng.standard_normal((256, 2)))
    quad = freeze_quadrature(QuadratureSpec("fixed-grid", 256), model)
    still = frozen_start(cloud, 0.3, 0.01, quad, TANH, alpha=1.0)
    f = default_test_functions(2)[1]
    resid, norm = weak_residual(still, f)
    assert resid > 0.5 * norm


def _reference_weak_residual(sol, f):
    """The per-test-function residual with its own (M x K) blocks: z, sigma,
    sigma' and grad_w f . x, contracted over particles first."""
    quad = sol.quad
    xt = np.ascontiguousarray(quad.x.T, dtype=np.float32)
    yn = quad.y.astype(np.float64)
    m = sol.n_paths
    a_vals = np.empty(sol.times.shape[0])
    for i in range(sol.times.shape[0]):
        c64, w64 = sol.c[i], sol.w[i]
        c32, w32 = c64.astype(np.float32), w64.astype(np.float32)
        z = w32 @ xt
        v = sol.act.value(z)
        q = (c32 @ v).astype(np.float64) / m
        r = sol.alpha * (yn - q)
        fc, fw = (g.astype(np.float32) for g in f.grad(c64, w64))
        h1 = (fc @ v).astype(np.float64) / m
        dv = activation_deriv(sol.act, z, v)
        h2 = np.einsum("i,ik,ik->k", c32, dv, fw @ xt).astype(np.float64) / m
        a_vals[i] = float(np.mean(r * (h1 + h2)))
    lhs = pair(f, sol.slice(-1)) - pair(f, sol.slice(0))
    return (abs(lhs - float(_trapz(a_vals, sol.times))),
            float(_trapz(np.abs(a_vals), sol.times)))


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
def test_weak_residual_matches_reference(kind, streams, model, init):
    """Contracting the field per particle reorders the float32 sums of the
    per-node reference; residual and normalizer agree to 1e-6 of the
    normalizer."""
    sol = small_solution(streams, model, init, m=256, dt=0.01, T=0.2,
                         nodes=256, act=activation(kind))
    fs = default_test_functions(2)
    for f, (resid, norm) in zip(fs, weak_residuals(sol, fs)):
        ref_resid, ref_norm = _reference_weak_residual(sol, f)
        assert ref_norm > 0
        assert abs(resid - ref_resid) <= 1e-6 * ref_norm
        assert abs(norm - ref_norm) <= 1e-6 * ref_norm


def test_weak_residuals_equal_single_function_form_bitwise(streams, model, init):
    sol = small_solution(streams, model, init, m=64, nodes=64)
    fs = default_test_functions(2) + [constant_one()]
    together = weak_residuals(sol, fs)
    for f, pair_ in zip(fs, together):
        assert weak_residual(sol, f) == pair_


def test_weak_residuals_take_one_grad_per_slice_and_function(streams, model,
                                                            init):
    """Both partials come from one ``grad`` call per (slice, f), and
    ``value`` runs on the first and last slices only."""
    sol = small_solution(streams, model, init, m=64, nodes=64)
    fs = default_test_functions(2) + [constant_one()]
    counted = [counting(f) for f in fs]
    got = weak_residuals(sol, [f for f, _ in counted])
    for _, calls in counted:
        assert calls["grad"] == [64] * sol.times.shape[0]
        assert calls["value"] == [64, 64]
    assert got == weak_residuals(sol, fs)


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
def test_kept_fields_give_the_residual_bitwise(kind, streams, model, init,
                                               tmp_path):
    """The fields a self-consistent solve keeps are ``drift``'s on each
    stored slice, bit for bit, so the residual is the same with them, with
    them dropped, and after a save and load, which keeps none.  smooth-bump
    has no ``deriv_poly`` and takes the separate z block."""
    sol = small_solution(streams, model, init, m=96, nodes=80,
                         act=activation(kind))
    n_snaps = sol.times.shape[0]
    g1s, g2s = sol.fields
    assert g1s.shape == (n_snaps - 1, 96) and g2s.shape == (n_snaps - 1, 96, 2)
    assert g1s.dtype == g2s.dtype == np.float32
    nodes = node_arrays(sol.quad, np.float32)
    for c, w, g1, g2 in zip(sol.c, sol.w, g1s, g2s):
        fresh = drift(c.astype(np.float32), w.astype(np.float32), nodes,
                      sol.act, sol.alpha)
        assert np.array_equal(fresh[0], g1) and np.array_equal(fresh[1], g2)
    fs = default_test_functions(2) + [constant_one()]
    got = weak_residuals(sol, fs)
    assert weak_residuals(dataclasses.replace(sol, fields=None), fs) == got
    save_solution(sol, tmp_path, "0" * 16)
    loaded = load_solution(tmp_path)
    assert loaded.fields is None
    assert weak_residuals(loaded, fs) == got


def test_residual_calls_drift_only_where_the_solve_did_not(monkeypatch,
                                                           streams, model,
                                                           init):
    """A self-consistent solve of n steps plus its residual make n + 1
    ``drift`` calls: one per Euler state and one for the last slice.  A
    Picard iterate keeps no fields, so its residual makes one per slice,
    and each Picard iteration still makes one per step."""
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    real = meanfield.drift
    monkeypatch.setattr(meanfield, "drift", counted)
    sol = small_solution(streams, model, init, m=32, nodes=40, dt=0.01,
                         T=0.1, snapshot_times=(0.0, 0.05, 0.1))
    fs = default_test_functions(2)
    weak_residuals(sol, fs)
    assert len(calls) == 10 + 1
    calls.clear()
    m0 = frozen_start(sol.slice(0), 0.1, 0.01, sol.quad, sol.act, sol.alpha,
                      snapshot_times=(0.0, 0.05, 0.1))
    res = picard_iterate(m0, tol=1e-12, max_iters=2)
    assert len(calls) == 2 * 10 and res.solution.fields is None
    calls.clear()
    weak_residuals(res.solution, fs)
    assert len(calls) == 3


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_solution():
    """M = 2000 paths on K = 1024 nodes: one float32 (M x K) block is 8 MB."""
    model = default_model()
    streams = RandomStreams(7)
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 1024), model,
                             streams.stream(purpose="quadrature"))
    return quad, solve_selfconsistent(default_init(2), model, 2000, 0.01,
                                      0.02, quad=quad,
                                      rng=streams.stream(purpose="paths"),
                                      act=TANH)


#: the unit of the memory bounds (the tests' "row block"): half a MB, about
#: 1/16 of a float32 (M x K) array at M = 2000, K = 1024; ``drift``'s
#: (2000 x 32) float32 column block is half of it
HALF_MB = 2 ** 19


def _peak_in_half_mb(fn, wide_solution) -> float:
    """Traced peak of ``fn(sol)`` in units of ``HALF_MB`` (an (M x K) block
    would be 16 units)."""
    sol = wide_solution[1]
    assert sol.n_paths * NODE_COLUMNS * 4 < HALF_MB
    return _traced_peak(lambda: fn(sol)) / HALF_MB


@pytest.mark.parametrize("kind", ["tanh", "smooth-bump"])
def test_solve_memory_stays_below_three_row_blocks(kind, wide_solution,
                                                   monkeypatch):
    """Two Euler steps from the wide cloud; smooth-bump keeps a second (z)
    row block.  With the worker thread forced on each node half holds its
    own blocks at once: one unit for tanh, two for smooth-bump."""
    assert wide_solution[1].times.shape[0] == 3
    for on in (False, True):
        force_threads(monkeypatch, on)
        assert _peak_in_half_mb(lambda sol: solve_selfconsistent(
            sol.slice(0), default_model(), None, 0.01, 0.02, quad=sol.quad,
            act=activation(kind)), wide_solution) < 3


@pytest.mark.parametrize("kind", ["tanh", "smooth-bump"])
def test_kept_fields_are_all_the_solve_adds_to_its_peak(kind, wide_solution):
    """A Picard ``_evolve`` of the same shapes keeps no fields and holds a
    frozen Q on top of the self-consistent solve's work, so the solve's
    traced peak may pass it by no more than the kept fields' (S-1) M (1+d)
    float32 entries."""
    sol = wide_solution[1]
    steps = np.round(sol.times / sol.dt).astype(int)
    act, q_rows = activation(kind), q_on_nodes(sol)
    peaks = [_traced_peak(lambda: _evolve(sol.slice(0), act, 1.0, sol.dt,
                                          steps[-1], steps, sol.quad, q))
             for q in (None, q_rows)]
    kept = (steps.shape[0] - 1) * sol.n_paths * (1 + sol.w.shape[2]) * 4
    assert sum(f.nbytes for f in sol.fields) == kept
    assert peaks[0] <= peaks[1] + kept


def test_weak_residuals_memory_stays_below_three_row_blocks(wide_solution,
                                                            monkeypatch):
    """With the worker thread off and forced on."""
    fs = default_test_functions(2)
    for on in (False, True):
        force_threads(monkeypatch, on)
        assert _peak_in_half_mb(lambda sol: weak_residuals(sol, fs),
                                wide_solution) < 3


def test_q_on_nodes_memory_stays_below_three_row_blocks(wide_solution):
    assert _peak_in_half_mb(q_on_nodes, wide_solution) < 3


# ---------------------------------------------------------------------------
# picard iteration


def test_picard_converges_and_matches_selfconsistent(streams, model, init):
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 256),
                             model, streams.stream(purpose="quadrature"))
    rng = streams.stream(purpose="cloud")
    cloud = EmpiricalMeasure(rng.standard_normal(200) * 0.5,
                             rng.standard_normal((200, 2)))
    m0 = frozen_start(cloud, 0.3, 0.003, quad, TANH, alpha=1.0)
    res = picard_iterate(m0, tol=2e-4, max_iters=20)
    assert res.converged
    assert res.distances[-1] < 2e-4
    assert res.distances[0] > res.distances[-1]
    sc = solve_selfconsistent(cloud, model, None, 0.003, 0.3, quad=quad,
                              act=TANH)
    gap = max(wasserstein(res.solution.slice(i), sc.slice(i), p=4)
              for i in range(sc.times.shape[0]))
    assert gap <= 5e-3


def test_picard_requires_tolerance_and_flags_non_convergence(streams, model):
    rng = streams.stream(purpose="cloud")
    cloud = EmpiricalMeasure(rng.standard_normal(32),
                             rng.standard_normal((32, 2)))
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 32),
                             model, streams.stream(purpose="quadrature"))
    m0 = frozen_start(cloud, 0.2, 0.01, quad, TANH, alpha=1.0)
    for bad in ({"tol": None}, {"tol": 0.0}, {"floor": 0.0},
                {"tol": 1e-3, "floor": 1e-3}):
        with pytest.raises(ConfigError):
            picard_iterate(m0, **bad)
    res = picard_iterate(m0, tol=1e-12, max_iters=2)
    assert not res.converged
    assert len(res.distances) == 2


def test_seed_resampled_floor(streams, model, init):
    quad = freeze_quadrature(QuadratureSpec("monte-carlo", 64),
                             model, streams.stream(purpose="quadrature"))
    floor = seed_resampled_floor(init, model, 64, 0.01, 0.2, quad, streams,
                                 n_runs=2)
    assert 0 < floor < 1
    with pytest.raises(RejectedInputError):
        seed_resampled_floor(init, model, 64, 0.01, 0.2, quad, streams,
                             n_runs=1)


def test_q_on_nodes_matches_network_output(streams, model, init):
    sol = small_solution(streams, model, init, m=32, nodes=16)
    rows = q_on_nodes(sol)
    assert rows.shape == (sol.times.shape[0], 16)
    i = sol.times.shape[0] - 1
    cloud = sol.slice(i)
    c32, w32 = cloud.c.astype(np.float32), cloud.w.astype(np.float32)
    byhand = (c32 @ np.tanh(w32 @ sol.quad.x.T.astype(np.float32))) / np.float32(32)
    assert np.allclose(rows[i], byhand, atol=1e-6)
