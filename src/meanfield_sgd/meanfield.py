"""Particle solvers for the large-N limit dynamics.

The limiting law is represented by M sample paths of the random ODE

    dc_t/dt = alpha * E_pi[(y - Q_t(x)) sigma(w_t . x)]
    dw_t/dt = alpha * E_pi[(y - Q_t(x)) c_t sigma'(w_t . x) x]

where Q_t(x) = E[c_t sigma(w_t . x)] is the law's own predicted output -- the
drift of each path depends on the law of all paths.  Two solvers close this
loop differently:

* ``solve_selfconsistent`` replaces the expectation defining Q by the running
  M-sample mean and advances everything together (explicit Euler);
* ``picard_iterate`` repeatedly re-solves the paths while Q is held frozen at
  the previous solution's snapshot slices (piecewise constant in time), which
  turns the fixed-point structure into a measurable contraction.

pi-integrals are approximated by a quadrature that is frozen up front by
default, so the whole evolution is a deterministic function of the initial
cloud and the node set.  The inner kernel runs in float32 (a factor ~3 on the
(M x nodes) sweeps that dominate); snapshots are stored in float64.  Float32
round-off (~1e-6 relative) is far below the O(dt) + O(1/sqrt(M)) +
O(1/sqrt(nodes)) error budget of everything computed from these solutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (Activation, ConfigError, DivergedError, ParticleState,
                   RandomStreams, RejectedInputError, activation,
                   activation_deriv)
from .data import DataModel, InitLaw, conditional_mean, sample_data, sample_init
from .measure import EmpiricalMeasure, pair, wasserstein

_trapz = getattr(np, "trapezoid", None) or np.trapz
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class QuadratureSpec:
    """How to approximate integrals against pi(dx, dy)."""

    mode: str = "monte-carlo"      # or "fixed-grid"
    n_nodes: int = 4096
    refresh: str = "frozen"        # or "per-step"

    def __post_init__(self):
        if self.mode not in ("monte-carlo", "fixed-grid"):
            raise ConfigError(f"unknown quadrature mode {self.mode!r}")
        if self.refresh not in ("frozen", "per-step"):
            raise ConfigError(f"unknown refresh policy {self.refresh!r}")
        if self.n_nodes < 1:
            raise ConfigError("need at least one quadrature node")
        if self.mode == "fixed-grid" and self.refresh != "frozen":
            raise ConfigError("a fixed grid cannot be refreshed per step")


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Realized equal-weight nodes (x_k, y_k) approximating pi."""

    x: np.ndarray
    y: np.ndarray
    spec: QuadratureSpec

    @property
    def n(self) -> int:
        return self.y.shape[0]


def freeze_quadrature(spec: QuadratureSpec, model: DataModel,
                      rng: np.random.Generator | None = None) -> Quadrature:
    """Draw (monte-carlo) or build (fixed-grid) the node set once.

    The fixed grid places midpoints of a uniform cell partition of the input
    cube and pairs each with E[y | x].  Every integrand used by this package
    is affine in y, so the conditional mean makes the grid exact in the y
    direction; only the O(h^2) x-discretization remains.
    """
    if spec.mode == "monte-carlo":
        if rng is None:
            raise ConfigError("monte-carlo quadrature needs a generator")
        batch = sample_data(model, rng, spec.n_nodes)
        return Quadrature(batch.x.copy(), batch.y.copy(), spec)
    if model.kind == "mnist-binary" or model.x_law != "uniform-cube":
        raise ConfigError("fixed-grid quadrature requires a synthetic model "
                          "with inputs uniform on the cube")
    per_axis = max(1, int(np.floor(spec.n_nodes ** (1.0 / model.d))))
    centers = -1.0 + (2.0 * np.arange(per_axis) + 1.0) / per_axis
    grids = np.meshgrid(*([centers] * model.d), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    return Quadrature(x, conditional_mean(model, x), spec)


@dataclass(frozen=True, eq=False)
class MeanFieldSolution:
    """M sample paths stored at snapshot times; each slice is a cloud."""

    times: np.ndarray            # (S,)
    c: np.ndarray                # (S, M)
    w: np.ndarray                # (S, M, d)
    quad: Quadrature
    act: Activation
    alpha: float
    dt: float
    max_rate: float              # max over steps/paths of the drift magnitude

    @property
    def n_paths(self) -> int:
        return self.c.shape[1]

    @property
    def d(self) -> int:
        return self.w.shape[2]

    def slice(self, i: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.c[i], self.w[i])

    def index_of(self, t: float, atol: float = 1e-9) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= atol)[0]
        if hits.size == 0:
            raise RejectedInputError(f"no snapshot at t={t}")
        return int(hits[0])

    def measure_at(self, t: float) -> EmpiricalMeasure:
        return self.slice(self.index_of(t))


def _as_cloud(init, rng, m: int) -> EmpiricalMeasure:
    if isinstance(init, EmpiricalMeasure):
        if m is not None and m != init.n:
            raise RejectedInputError("M disagrees with the given cloud")
        return init
    if rng is None:
        raise ConfigError("sampling an initial cloud needs a generator")
    return sample_init(init, rng, m)


def _as_quadrature(quad, model, rng) -> Quadrature:
    if isinstance(quad, Quadrature):
        return quad
    return freeze_quadrature(quad or QuadratureSpec(), model, rng)


def _evolve(cloud0: EmpiricalMeasure, act: Activation, alpha: float,
            dt: float, n_steps: int, snap_steps: Sequence[int],
            quad: Quadrature,
            q_rows: np.ndarray | None = None,
            row_of_step: np.ndarray | None = None,
            resampler: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None):
    """Euler-advance M paths; Q per step is either self-consistent (None) or
    looked up in ``q_rows[row_of_step[k]]``.  Returns snapshot arrays and the
    max observed drift magnitude."""
    c = cloud0.c.astype(np.float32)
    w = cloud0.w.astype(np.float32)
    m = c.shape[0]
    xt = np.ascontiguousarray(quad.x.T, dtype=np.float32)
    xn = np.ascontiguousarray(quad.x, dtype=np.float32)
    yn = quad.y.astype(np.float32)
    want = {int(s) for s in snap_steps}
    snaps_c, snaps_w = {}, {}
    if 0 in want:
        snaps_c[0], snaps_w[0] = c.astype(np.float64), w.astype(np.float64)
    dtf = np.float32(dt)
    alphaf = np.float32(alpha)
    max_rate = 0.0
    for k in range(n_steps):
        if resampler is not None:
            xt, xn, yn = resampler(k)
        z = w @ xt                      # (M, K)
        v = act.value(z)
        if q_rows is None:
            q = (c @ v) / np.float32(m)
        else:
            q = q_rows[row_of_step[k]]
        r = alphaf * (yn - q)           # (K,)
        g1 = (v @ r) / np.float32(quad.n)
        dv = activation_deriv(act, z, v)
        dv *= r[None, :]
        g2 = (dv @ xn) / np.float32(quad.n)
        g2 *= c[:, None]
        w += dtf * g2
        c += dtf * g1
        step_rate = max(float(np.max(np.abs(g1))), float(np.max(np.abs(g2))))
        if not np.isfinite(step_rate) or max(float(np.max(np.abs(c))),
                                             float(np.max(np.abs(w)))) > DIVERGENCE_LIMIT:
            raise DivergedError(f"mean-field paths diverged at step {k + 1}",
                                step=k + 1)
        max_rate = max(max_rate, step_rate)
        if (k + 1) in want:
            snaps_c[k + 1], snaps_w[k + 1] = c.astype(np.float64), w.astype(np.float64)
    return snaps_c, snaps_w, max_rate


def _snapshot_plan(dt: float, T: float, snapshot_times):
    n_steps = max(1, int(round(T / dt)))
    dt_eff = T / n_steps
    if snapshot_times is None:
        count = min(51, n_steps + 1)
        snap_steps = np.unique(np.round(np.linspace(0, n_steps, count)).astype(int))
    else:
        snap_steps = np.unique([int(round(t / dt_eff)) for t in snapshot_times])
        if np.any(snap_steps < 0) or np.any(snap_steps > n_steps):
            raise RejectedInputError("snapshot times must lie in [0, T]")
    return n_steps, dt_eff, snap_steps


def solve_selfconsistent(init, model: DataModel, M: int | None, dt: float,
                         T: float, quad=None,
                         rng: np.random.Generator | None = None,
                         alpha: float = 1.0,
                         act: Activation | None = None,
                         snapshot_times=None) -> MeanFieldSolution:
    """Advance M coupled paths with Q recomputed from the cloud every step.

    ``init`` is an InitLaw (sampled with ``rng``) or an explicit cloud;
    ``quad`` is a QuadratureSpec (frozen here, consuming ``rng`` after the
    initial cloud) or a ready Quadrature.  dt is coerced so the horizon is an
    exact number of steps.
    """
    if dt <= 0 or T <= 0:
        raise RejectedInputError("need dt > 0 and T > 0")
    act = act or (model.activation if model.activation is not None
                  else activation("tanh"))
    cloud0 = _as_cloud(init, rng, M)
    quad = _as_quadrature(quad, model, rng)
    n_steps, dt_eff, snap_steps = _snapshot_plan(dt, T, snapshot_times)

    resampler = None
    if quad.spec.refresh == "per-step":
        if rng is None:
            raise ConfigError("per-step refresh needs a generator")
        spec = quad.spec

        def resampler(_k):
            batch = sample_data(model, rng, spec.n_nodes)
            return (np.ascontiguousarray(batch.x.T, dtype=np.float32),
                    batch.x.astype(np.float32), batch.y.astype(np.float32))

    snaps_c, snaps_w, max_rate = _evolve(
        cloud0, act, alpha, dt_eff, n_steps, snap_steps, quad,
        resampler=resampler)
    times = snap_steps * dt_eff
    return MeanFieldSolution(times,
                             np.stack([snaps_c[s] for s in snap_steps]),
                             np.stack([snaps_w[s] for s in snap_steps]),
                             quad, act, alpha, dt_eff, max_rate)


def q_on_nodes(sol: MeanFieldSolution, quad: Quadrature | None = None) -> np.ndarray:
    """(S, K) network outputs of each snapshot slice at the quadrature nodes."""
    quad = quad or sol.quad
    xt = np.ascontiguousarray(quad.x.T, dtype=np.float32)
    rows = np.empty((sol.times.shape[0], quad.n), dtype=np.float32)
    m = np.float32(sol.n_paths)
    for i in range(sol.times.shape[0]):
        v = sol.act.value(sol.w[i].astype(np.float32) @ xt)
        rows[i] = (sol.c[i].astype(np.float32) @ v) / m
    return rows


def frozen_start(cloud: EmpiricalMeasure, T: float, dt: float,
                 quad: Quadrature, act: Activation, alpha: float,
                 snapshot_times=None) -> MeanFieldSolution:
    """The law frozen at its initial state: the usual first Picard iterate."""
    n_steps, dt_eff, snap_steps = _snapshot_plan(dt, T, snapshot_times)
    s = snap_steps.shape[0]
    return MeanFieldSolution(snap_steps * dt_eff,
                             np.repeat(cloud.c[None, :], s, axis=0),
                             np.repeat(cloud.w[None, :, :], s, axis=0),
                             quad, act, alpha, dt_eff, 0.0)


@dataclass
class PicardResult:
    solution: MeanFieldSolution
    distances: list
    converged: bool
    tol: float

    @property
    def n_iterations(self) -> int:
        return len(self.distances)


def picard_iterate(m0: MeanFieldSolution, model: DataModel, quad=None,
                   tol: float = None, max_iters: int = 25,
                   p: int = 4) -> PicardResult:
    """Iterate the solution map: evolve fresh paths from m0's initial cloud
    while Q is held at the previous iterate's slices (piecewise constant in
    time between snapshots).

    With a frozen node set each iterate is a deterministic function of the
    previous one, so successive max-over-snapshots distances measure the
    map's contraction directly.  Stops when that distance drops below
    ``tol``; a natural tol is twice the Monte Carlo noise floor of the
    solver (see ``seed_resampled_floor``), since iterating below the noise
    of the representation itself has no meaning.
    """
    if tol is None or tol <= 0:
        raise ConfigError("picard_iterate needs an explicit tol > 0")
    quad = quad if isinstance(quad, Quadrature) else m0.quad
    times = m0.times
    n_steps = int(round(times[-1] / m0.dt))
    snap_steps = np.round(times / m0.dt).astype(int)
    # map each Euler step to the snapshot row whose time floor-covers it
    step_times = np.arange(n_steps) * m0.dt
    row_of_step = np.searchsorted(times, step_times, side="right") - 1
    cloud0 = m0.slice(0)

    prev = m0
    distances: list[float] = []
    for _ in range(max_iters):
        rows = q_on_nodes(prev, quad)
        snaps_c, snaps_w, max_rate = _evolve(
            cloud0, m0.act, m0.alpha, m0.dt, n_steps, snap_steps, quad,
            q_rows=rows, row_of_step=row_of_step)
        cur = MeanFieldSolution(times,
                                np.stack([snaps_c[s] for s in snap_steps]),
                                np.stack([snaps_w[s] for s in snap_steps]),
                                quad, m0.act, m0.alpha, m0.dt, max_rate)
        dist = max(wasserstein(cur.slice(i), prev.slice(i), p)
                   for i in range(times.shape[0]))
        distances.append(float(dist))
        prev = cur
        if dist < tol:
            return PicardResult(cur, distances, True, tol)
    return PicardResult(prev, distances, False, tol)


def seed_resampled_floor(init: InitLaw, model: DataModel, M: int, dt: float,
                         T: float, quad, streams: RandomStreams,
                         n_runs: int = 3, p: int = 4, alpha: float = 1.0,
                         act: Activation | None = None,
                         snapshot_times=None) -> float:
    """Monte Carlo noise floor of the particle representation: mean pairwise
    max-over-snapshots distance between solver runs that differ only in the
    seed of the initial cloud (same frozen nodes)."""
    if n_runs < 2:
        raise RejectedInputError("the floor needs at least 2 runs to compare")
    sols = []
    for i in range(n_runs):
        rng = streams.stream(i, purpose="floor-init")
        sols.append(solve_selfconsistent(init, model, M, dt, T, quad=quad,
                                         rng=rng, alpha=alpha, act=act,
                                         snapshot_times=snapshot_times))
    dists = []
    for a, b in itertools.combinations(sols, 2):
        dists.append(max(wasserstein(a.slice(i), b.slice(i), p)
                         for i in range(a.times.shape[0])))
    return float(np.mean(dists))


# ---------------------------------------------------------------------------
# pointwise drift and the weak-form residual


def drift(z, Q: Callable, quad: Quadrature, alpha: float = 1.0,
          act: Activation | None = None) -> tuple[float, np.ndarray]:
    """The field ((dc/dt), (dw/dt)) at one particle given a predictor Q.

    ``z`` is a ParticleState or a (c, w) pair; ``Q`` maps a (K, d) node block
    to (K,) predicted outputs.
    """
    act = act or activation("tanh")
    if isinstance(z, ParticleState):
        c, w = z.c, z.w
    else:
        c, w = float(z[0]), np.asarray(z[1], dtype=np.float64)
    r = alpha * (quad.y - np.asarray(Q(quad.x), dtype=np.float64))
    zz = quad.x @ w
    s = act.value(zz)
    dc = float(np.mean(r * s))
    dw = (r * c * act.deriv(zz)) @ quad.x / quad.n
    return dc, dw


def weak_residual(sol: MeanFieldSolution, f, quad: Quadrature | None = None,
                  time_nodes: int | None = None) -> tuple[float, float]:
    """Defect of the solution in the weak form of the limit dynamics.

    Computes |<f, mu_T> - <f, mu_0> - integral_0^T a(s) ds| where

        a(s) = E_pi[(y - Q_s(x)) * < alpha (sigma(w.x) df/dc
                                   + c sigma'(w.x) x . grad_w f), mu_s >]

    with the time integral taken by the trapezoid rule over the stored
    slices (optionally thinned to ``time_nodes`` of them).  Returns the
    residual and the normalizer integral_0^T |a(s)| ds used for relative
    error.
    """
    if sol.times.shape[0] < 2:
        raise RejectedInputError("need at least two slices")
    quad = quad or sol.quad
    idx = np.arange(sol.times.shape[0])
    if time_nodes is not None:
        if time_nodes < 2:
            raise RejectedInputError("need at least two time nodes")
        idx = np.unique(np.round(
            np.linspace(0, idx[-1], time_nodes)).astype(int))
    xt = np.ascontiguousarray(quad.x.T, dtype=np.float32)
    yn = quad.y.astype(np.float64)
    m = sol.n_paths
    a_vals = np.empty(idx.shape[0])
    for out_i, i in enumerate(idx):
        c64, w64 = sol.c[i], sol.w[i]
        c32, w32 = c64.astype(np.float32), w64.astype(np.float32)
        z = w32 @ xt
        v = sol.act.value(z)
        q = (c32 @ v).astype(np.float64) / m
        r = sol.alpha * (yn - q)                      # (K,)
        fc = f.grad_c(c64, w64).astype(np.float32)    # (M,)
        fw = f.grad_w(c64, w64).astype(np.float32)    # (M, d)
        h1 = (fc @ v).astype(np.float64) / m          # (K,)
        dv = activation_deriv(sol.act, z, v)
        b = fw @ xt                                   # (M, K)
        h2 = np.einsum("i,ik,ik->k", c32, dv, b).astype(np.float64) / m
        a_vals[out_i] = float(np.mean(r * (h1 + h2)))
    times = sol.times[idx]
    lhs = pair(f, sol.slice(int(idx[-1]))) - pair(f, sol.slice(int(idx[0])))
    integral = float(_trapz(a_vals, times))
    normalizer = float(_trapz(np.abs(a_vals), times))
    return abs(lhs - integral), normalizer


def fourth_moment_trace(sol: MeanFieldSolution) -> np.ndarray:
    """mean(c^4) + mean(||w||^4) per slice; boundedness check material."""
    c4 = np.mean(sol.c ** 4, axis=1)
    wn = np.linalg.norm(sol.w, axis=2)
    return c4 + np.mean(wn ** 4, axis=1)
