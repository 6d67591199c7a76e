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
  the previous solution's snapshot slices (linear in time between them),
  which turns the fixed-point structure into a measurable contraction.

pi-integrals are approximated by a quadrature that is frozen up front, so the
whole evolution is a deterministic function of the initial cloud and the node
set.  One kernel, ``drift``, evaluates the velocity field: the Euler step
integrates it, and the weak residual pairs test-function gradients with it,
taking the fields a self-consistent solve kept at its slices.
It walks blocks of ``NODE_COLUMNS`` (32) node columns by all M particles,
in a work block each walk allocates for itself, so no (M x nodes) array is
formed and two walks share no scratch.  Q at a node sums over particles
only, so one block of sigma yields Q and the residual weight at its nodes
and then their share of the field, and each (path, node) pair takes one
sigma per step.  So the nodes split into two halves that need nothing of
each other: ``drift`` sums each half's float64 partials apart and adds
them in one order, and from ``THREADED_ROWS`` particles on it walks the
second half on a worker thread that lives only for the call.  The field's
bits do not depend on whether it did.  ``q_on_nodes``, the frozen Q of a
Picard step, walks the same blocks.  The solvers run in float32 (a factor
~3 on the (M x nodes) sweeps that dominate); snapshots are stored in
float64.  Float32 round-off (~1e-6 relative) is far below the O(dt) +
O(1/sqrt(M)) + O(1/sqrt(nodes)) error budget of everything computed from
these solutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (Activation, ConfigError, RandomStreams, RejectedInputError,
                   activation, check_alpha, guard_divergence, max_abs,
                   usable_cores)
from .data import DataModel, InitLaw, conditional_mean, sample_data, sample_init
from .measure import EmpiricalMeasure, pair, wasserstein

_trapz = getattr(np, "trapezoid", None) or np.trapz
#: order of the Wasserstein distance that measures Picard steps and the floor
PICARD_P = 4
#: how far a requested time may sit from a stored snapshot time
TIME_ATOL = 1e-9


@dataclass(frozen=True)
class QuadratureSpec:
    """How to approximate integrals against pi(dx, dy)."""

    mode: str = "monte-carlo"      # or "fixed-grid"
    n_nodes: int = 4096

    def __post_init__(self):
        if self.mode not in ("monte-carlo", "fixed-grid"):
            raise ConfigError(f"unknown quadrature mode {self.mode!r}")
        if self.n_nodes < 1:
            raise ConfigError("need at least one quadrature node")


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
    direction; only the O(h^2) x-discretization remains.  It has the largest
    p^d <= n_nodes nodes, p per axis, and refuses a grid with fewer than 2
    points per axis: one node at the origin is no quadrature.
    """
    if spec.mode == "monte-carlo":
        if rng is None:
            raise ConfigError("monte-carlo quadrature needs a generator")
        batch = sample_data(model, rng, spec.n_nodes)
        return Quadrature(batch.x.copy(), batch.y.copy(), spec)
    if model.kind == "mnist-binary":
        raise ConfigError("fixed-grid quadrature requires a synthetic model "
                          "with inputs uniform on the cube")
    if model.d >= int(spec.n_nodes).bit_length():  # 2**d > n_nodes
        raise ConfigError(f"quad_nodes={spec.n_nodes}: a fixed grid in "
                          f"d={model.d} needs 2**d nodes, 2 per axis")
    # the float root of a perfect power can land just below it (1000 ** (1/3)
    # is 9.999999999999998), so round and step down to the exact integer root
    per_axis = round(spec.n_nodes ** (1.0 / model.d))
    while per_axis ** model.d > spec.n_nodes:
        per_axis -= 1
    centers = -1.0 + (2.0 * np.arange(per_axis) + 1.0) / per_axis
    grids = np.meshgrid(*([centers] * model.d), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    return Quadrature(x, conditional_mean(model, x), spec)


@dataclass(frozen=True, eq=False)
class MeanFieldSolution:
    """M sample paths stored at snapshot times; each slice is a cloud.

    ``fields`` holds the float32 velocity field (g1 (S-1, M), g2 (S-1, M,
    d)) that the self-consistent solve's ``drift`` returned at every slice
    but the last, for ``weak_residuals`` to pair; it is None on a Picard
    iterate (whose fields use a frozen Q) and on a loaded solution.  It is
    never compared and never written to disk.
    """

    times: np.ndarray            # (S,)
    c: np.ndarray                # (S, M)
    w: np.ndarray                # (S, M, d)
    quad: Quadrature
    act: Activation
    alpha: float
    dt: float
    max_rate: float              # max over steps/paths of the drift magnitude
    fields: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False)

    @property
    def n_paths(self) -> int:
        return self.c.shape[1]

    def slice(self, i: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.c[i], self.w[i])

    def index_of(self, t: float) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= TIME_ATOL)[0]
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


# ---------------------------------------------------------------------------
# the velocity field of a cloud


def node_arrays(quad: Quadrature,
                dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quadrature as ``drift`` reads it: x (K, d), its contiguous
    transpose (d, K), and y (K,), all in ``dtype``."""
    return (np.ascontiguousarray(quad.x, dtype=dtype),
            np.ascontiguousarray(quad.x.T, dtype=dtype),
            quad.y.astype(dtype))


#: quadrature nodes per column block of ``drift``'s walk.  One tanh field
#: at d = 2 (one OpenBLAS thread, medians of 21 calls) took, at M = 10^4,
#: K = 4096, 65-67 ms with 16 or 24 columns, 48-50 ms with 32 or 40 and
#: 62-69 ms with 64 or 128, where the (M x width) float32 block outgrows L2
#: cache; at M = 4000, K = 2048, 15 ms with 16, 8.5 ms with 32 and 12 ms
#: with 128.  Another width would also move the field's bits; ``drift``
#: splits its nodes into halves at a multiple of it
NODE_COLUMNS = 32

#: cloud rows from which ``drift`` walks its second node half on a worker
#: thread.  Rows, not M x K, set the gain: each block's numpy calls release
#: the interpreter lock for a time that grows with M, and between them the
#: two threads wait on each other.  One tanh field, one OpenBLAS thread, 2
#: vCPUs, half B forced off -> on, medians of 15-41 alternations (3-9 at
#: d = 784), wall and CPU:
#:
#:   M x K (d)          off        on          CPU off -> on
#:   200 x 512 (2)      0.6 ms     0.9 ms      0.6 -> 1.2 ms
#:   256 x 4096 (2)     4.6 ms     6.1 ms      4.6 -> 8.6 ms
#:   1000 x 16384 (2)   53.6 ms    53.2 ms     53.6 -> 83.9 ms
#:   2000 x 4096 (2)    26.7 ms    19.8 ms     26.6 -> 33.9 ms
#:   4000 x 2048 (2)    26.8 ms    16.0 ms     26.8 -> 29.5 ms
#:   8000 x 2048 (2)    73.2 ms    41.9 ms     73.2 -> 73.2 ms
#:   8192 x 64 (2)      2.0 ms     1.6 ms      2.0 -> 2.6 ms
#:   10^4 x 1024 (2)    38.6 ms    22.9 ms     38.7 -> 41.5 ms
#:   10^4 x 4096 (2)    150.8 ms   96.3 ms     150.8 -> 176.2 ms
#:   2 10^4 x 4096 (2)  364.8 ms   198.4 ms    364.8 -> 371.0 ms
#:   1000 x 256 (784)   37.2 ms    24.7 ms     37.2 -> 43.1 ms
#:   10^4 x 1024 (784)  1708 ms    945 ms      1708 -> 1786 ms
#:
#: On another 2-vCPU host with faster calls 2000 x 4096 lost (12.4 -> 16.9
#: ms), 4000 x 2048 gained only 1.18x, and a Picard meanfield at M = 200
#: took 0.85 s on one thread and 1.62 s on two, while 8000 x 4096 gained
#: 1.41x and 10^4 x 4096 1.88x.  From 8192 rows every shape measured gains
#: on both hosts; below it the benchmark's verify-d2 limit (4000 paths),
#: acceptance criterion 08 (2000) and Picard runs at m <= 256 stay on one
#: thread, and so do image-model clouds of fewer rows, which would gain too
THREADED_ROWS = 8192


def _blocks(w: np.ndarray, xt: np.ndarray, act: Activation, lo: int = 0,
            hi: int | None = None):
    """(j, sigma, z) over the (M x ``NODE_COLUMNS``) column blocks of the
    (M x K) array z = w x^T from column ``lo`` (a block boundary) to ``hi``
    (default K), the last one ragged.  sigma and z are views of one (M x
    min(hi - lo, ``NODE_COLUMNS``)) block in w's dtype that the walk
    allocates for itself, so its work grows with M and never with K, and
    two walks share no scratch; z has a second block when sigma' cannot
    come from sigma and z must outlive it."""
    m, hi = w.shape[0], xt.shape[1] if hi is None else hi
    buf = np.empty(m * min(hi - lo, NODE_COLUMNS), dtype=w.dtype)
    zbuf = buf if act.deriv_poly is not None else np.empty_like(buf)
    for start in range(lo, hi, NODE_COLUMNS):
        j = slice(start, min(start + NODE_COLUMNS, hi))
        width = j.stop - start
        sig = buf[:m * width].reshape(m, width)
        z = zbuf[:m * width].reshape(m, width)
        np.matmul(w, xt[:, j], out=z)
        act.value(z, out=sig)
        yield j, sig, z


def _partials(c: np.ndarray, w: np.ndarray, nodes, act: Activation,
              alpha: float, r_all: np.ndarray | None, lo: int, hi: int):
    """``drift``'s float64 sums over node columns [lo, hi): K g1, K g2 / c
    without its a0 term, and sum_k r_k x_k, which that term multiplies."""
    x, xt, y = nodes
    m = c.shape[0]
    a0, a1, a2 = act.deriv_poly or (0.0, 0.0, 1.0)
    g1, g2, rx_sum = np.zeros(m), np.zeros(w.shape), np.zeros(w.shape[1])
    part1, part2 = np.empty_like(c, w.dtype), np.empty_like(w)
    for j, sig, z in _blocks(w, xt, act, lo, hi):
        r = alpha * (y[j] - (c @ sig) / m) if r_all is None else r_all[j]
        rx = r[:, None] * x[j]
        g1 += np.matmul(sig, r, out=part1)
        if a1:
            g2 += np.matmul(sig, a1 * rx, out=part2)
        if a0:
            rx_sum += rx.sum(axis=0)
        # the block that carries the top term of sigma': sigma^2, or
        # without the polynomial sigma' itself
        top = (np.square(sig, out=sig) if act.deriv_poly is not None
               else act.deriv(z, out=sig))
        g2 += np.matmul(top, a2 * rx, out=part2)
    return g1, g2, rx_sum


def drift(c: np.ndarray, w: np.ndarray, nodes, act: Activation, alpha: float,
          q: np.ndarray | None = None):
    """The velocity field (dc/dt, dw/dt) of every particle of a cloud.

    With r_k = alpha (y_k - q_k) over the K nodes of ``nodes`` (from
    ``node_arrays``), returns (g1, g2):

        g1_i = (1/K) sum_k r_k sigma(w_i . x_k)                    (M,)
        g2_i = (1/K) sum_k r_k c_i sigma'(w_i . x_k) x_k           (M, d)

    ``q`` is a frozen Q at the nodes; None takes the cloud's own,
    Q_k = (1/M) sum_i c_i sigma(w_i . x_k).  The walk goes over blocks of
    ``NODE_COLUMNS`` node columns and all M particle rows of a work block
    the call allocates for itself (``_blocks``), so concurrent calls on one
    cloud and one ``nodes`` share no scratch.  Q at a node sums over
    particles only, so one block of sigma gives in turn Q and r at its
    nodes and their share of g1 and g2, and every (particle, node) pair
    takes one z and one sigma per call.
    With sigma' = a0 + a1 sigma + a2 sigma^2 (tanh: 1, 0, -1) r folds into
    the right operand:

        K g2_i / c_i = a0 sum_k r_k x_k + sigma_i (a1 r x) + sigma_i^2 (a2 r x)

    so sigma' is one in-place square of the block; without the polynomial
    (smooth-bump) it is evaluated from a z block and takes the a2 slot.
    Block products run in the inputs' dtype, block sums in float64, and the
    field comes back in the inputs' dtype.

    Since no node's share needs another node's column, the K columns split
    at a block boundary into two halves, A the first ceil(B/2) of the B
    blocks and B the rest.  Each half sums its own float64 partials
    (``_partials``) and the field is always (A) + (B), so its bits are the
    same whether the halves run one after the other or at once.  With
    ``THREADED_ROWS`` or more particles, a non-empty half B and two usable
    CPUs, half B runs on a worker thread that the call starts and joins,
    while the calling thread runs half A; an exception in either half
    reaches the caller after the join.  The work memory is one (M x
    ``NODE_COLUMNS``) block per half (two for smooth-bump) whatever K is,
    plus half B's (M x d) float64 partials, and no (M x K) array is formed;
    narrower blocks made OpenBLAS's products slower per node, wider ones
    outgrew L2 cache at M = 10^4.
    """
    y = nodes[2]
    k = y.shape[0]
    a0 = act.deriv_poly[0] if act.deriv_poly else 0.0
    r_all = None if q is None else alpha * (y - q.astype(y.dtype, copy=False))
    mid = min(k, NODE_COLUMNS * -(-k // (2 * NODE_COLUMNS)))
    args = (c, w, nodes, act, alpha, r_all)
    if mid < k and c.shape[0] >= THREADED_ROWS and usable_cores() > 1:
        # imported here: only this branch uses it, and it adds 5 ms to a start
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(1) as pool:
            later = pool.submit(_partials, *args, mid, k)
            first = _partials(*args, 0, mid)
            second = later.result()
    else:
        first, second = _partials(*args, 0, mid), _partials(*args, mid, k)
    for total, part in zip(first, second):
        total += part
    g1, g2, rx_sum = first
    g2 += a0 * rx_sum
    g1 /= k
    g2 /= k
    g2 *= c[:, None]
    return g1.astype(c.dtype), g2.astype(w.dtype)


def _evolve(cloud0: EmpiricalMeasure, act: Activation, alpha: float,
            dt: float, n_steps: int, snap_steps: np.ndarray,
            quad: Quadrature, q_rows: np.ndarray | None = None
            ) -> MeanFieldSolution:
    """Euler-advance M paths and keep them at the (sorted) ``snap_steps``,
    the last of which is ``n_steps``.  Q per step is either self-consistent
    (None) or frozen: ``q_rows[i]`` is Q at step ``snap_steps[i]``, and a
    step between two snapshots takes Q linearly interpolated between their
    rows.  A self-consistent solve also keeps the (g1, g2) that ``drift``
    returns at each snapshot step before the horizon: they are the fields
    ``weak_residuals`` pairs at those slices, from the same float32 state,
    nodes and work shape."""
    c = cloud0.c.astype(np.float32)
    w = cloud0.w.astype(np.float32)
    nodes = node_arrays(quad, np.float32)
    slot = {int(s): i for i, s in enumerate(snap_steps)}
    snaps_c = np.empty((len(slot), c.shape[0]))
    snaps_w = np.empty((len(slot),) + w.shape)
    if 0 in slot:
        snaps_c[slot[0]], snaps_w[slot[0]] = c, w
    fields = None
    if q_rows is None:
        fields = (np.empty((len(slot) - 1,) + c.shape, np.float32),
                  np.empty((len(slot) - 1,) + w.shape, np.float32))
    dtf = np.float32(dt)
    if q_rows is not None:
        steps = np.arange(n_steps)
        row = np.searchsorted(snap_steps, steps, side="right") - 1
        theta = ((steps - snap_steps[row])
                 / np.diff(snap_steps)[row]).astype(np.float32)
    max_rate = 0.0
    for k in range(n_steps):
        q = None
        if q_rows is not None:
            r = row[k]
            q = q_rows[r] + theta[k] * (q_rows[r + 1] - q_rows[r])
        g1, g2 = drift(c, w, nodes, act, alpha, q)
        if fields is not None and k in slot:
            fields[0][slot[k]], fields[1][slot[k]] = g1, g2
        w += dtf * g2
        c += dtf * g1
        # a non-finite rate leaves a non-finite c or w, which the guard sees
        guard_divergence(k + 1, c, w)
        max_rate = max(max_rate, max_abs(g1), max_abs(g2))
        if k + 1 in slot:
            snaps_c[slot[k + 1]], snaps_w[slot[k + 1]] = c, w
    return MeanFieldSolution(snap_steps * dt, snaps_c, snaps_w, quad, act,
                             alpha, dt, max_rate, fields)


def _snapshot_plan(dt: float, T: float, snapshot_times):
    """(n_steps, dt_eff, snapshot steps) for horizon T.  A given grid must
    end at T: ``picard_iterate`` takes its horizon from the last snapshot, so
    a grid that stopped early would shorten the solve."""
    if not dt > 0 or not T > 0:
        raise RejectedInputError("need dt > 0 and T > 0")
    steps = T / dt
    if not steps < 2.0 ** 53:  # past it a float no longer names one step
        raise RejectedInputError(f"T/dt = {steps:g} steps are too many to count")
    n_steps = max(1, int(round(steps)))
    dt_eff = T / n_steps
    # a sorted set, not np.unique: that imports numpy.ma (10-15 ms) on first use
    if snapshot_times is None:
        count = min(51, n_steps + 1)
        steps = set(np.round(np.linspace(0, n_steps, count)).astype(int).tolist())
    else:
        steps = {int(round(t / dt_eff)) for t in snapshot_times}
        if any(s < 0 or s > n_steps for s in steps):
            raise RejectedInputError("snapshot times must lie in [0, T]")
        if n_steps not in steps:
            raise RejectedInputError(f"snapshot times must end at T={T:g}")
    return n_steps, dt_eff, np.array(sorted(steps), dtype=int)


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
    check_alpha(alpha)
    n_steps, dt_eff, snap_steps = _snapshot_plan(dt, T, snapshot_times)
    act = act or (model.activation if model.activation is not None
                  else activation("tanh"))
    cloud0 = _as_cloud(init, rng, M)
    quad = _as_quadrature(quad, model, rng)
    return _evolve(cloud0, act, alpha, dt_eff, n_steps, snap_steps, quad)


def q_on_nodes(sol: MeanFieldSolution) -> np.ndarray:
    """(S, K) network outputs of each snapshot slice at its own quadrature
    nodes, Q_k = (1/M) sum_i c_i sigma(w_i . x_k): sigma over ``drift``'s
    float32 column blocks, the particle sums in float64.  A float32 sum
    left Picard iteration on a rounding 2-cycle short of its fixed point."""
    xt = node_arrays(sol.quad, np.float32)[1]
    rows = np.empty((sol.times.shape[0], sol.quad.n), np.float32)
    for row, c, w in zip(rows, sol.c, sol.w):
        for j, sig, _ in _blocks(w.astype(np.float32), xt, sol.act):
            row[j] = c @ sig / sol.n_paths
    return rows


def frozen_start(cloud: EmpiricalMeasure, T: float, dt: float,
                 quad: Quadrature, act: Activation, alpha: float,
                 snapshot_times=None) -> MeanFieldSolution:
    """The law frozen at its initial state: the usual first Picard iterate."""
    check_alpha(alpha)
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


def picard_iterate(m0: MeanFieldSolution, tol: float = None,
                   max_iters: int = 25, floor: float = None) -> PicardResult:
    """Iterate the solution map on m0's own frozen nodes: evolve fresh paths
    from m0's initial cloud while Q is held at the previous iterate's slices,
    linear in time between snapshots (so the fixed point's weak residual is
    of second order in the snapshot spacing, where a Q held constant over
    each interval leaves one of first order).

    Each iterate is a deterministic function of the previous one, so
    successive distances d_k (``_max_slice_distance``) measure the map's
    contraction directly.  Stops when d_k drops below ``tol``.

    Given ``floor`` in place of ``tol``, it stops on an a-posteriori bound
    instead.  With the contraction rho estimated as the larger of the last
    two ratios d_k / d_{k-1}, the last iterate lies within d_k rho / (1 - rho)
    of the fixed point, and iteration stops once that bound falls below
    ``floor``.  A natural floor is the solver's Monte Carlo noise
    (``seed_resampled_floor``), since iterating below the noise of the
    representation itself has no meaning.  A ratio of 1 or more means the
    map does not contract, and iteration stops unconverged.
    """
    given = floor if tol is None else tol
    if (tol is None) == (floor is None) or not given > 0:
        raise ConfigError("picard_iterate needs exactly one of tol > 0 and "
                          "floor > 0")
    n_steps = int(round(m0.times[-1] / m0.dt))
    snap_steps = np.round(m0.times / m0.dt).astype(int)
    cloud0 = m0.slice(0)

    prev = m0
    distances: list[float] = []
    for _ in range(max_iters):
        cur = _evolve(cloud0, m0.act, m0.alpha, m0.dt, n_steps, snap_steps,
                      m0.quad, q_rows=q_on_nodes(prev))
        distances.append(_max_slice_distance(cur, prev))
        prev = cur
        verdict = _picard_verdict(distances, tol, floor)
        if verdict is not None:
            return PicardResult(cur, distances, verdict)
    return PicardResult(prev, distances, False)


def _max_slice_distance(a: MeanFieldSolution, b: MeanFieldSolution) -> float:
    """Largest Wasserstein distance of order ``PICARD_P`` between matching
    snapshot slices of two solutions: the step size of ``picard_iterate``
    and the unit of ``seed_resampled_floor``."""
    return float(max(wasserstein(a.slice(i), b.slice(i), PICARD_P)
                     for i in range(a.times.shape[0])))


def _picard_verdict(distances: list, tol: float | None,
                    floor: float | None) -> bool | None:
    """After the latest Picard distance: True when converged (see
    ``picard_iterate``), False when the map does not contract, None to go
    on."""
    if tol is not None:
        return True if distances[-1] < tol else None
    ratios = [b / a if a > 0 else 0.0
              for a, b in zip(distances, distances[1:])][-2:]
    if ratios and ratios[-1] >= 1.0:
        return False
    if len(ratios) == 2:
        rho = max(ratios)
        if distances[-1] * rho / (1.0 - rho) < floor:
            return True
    return None


def seed_resampled_floor(init: InitLaw, model: DataModel, M: int, dt: float,
                         T: float, quad, streams: RandomStreams,
                         n_runs: int = 3, alpha: float = 1.0,
                         act: Activation | None = None,
                         snapshot_times=None) -> float:
    """Monte Carlo noise floor of the particle representation: mean pairwise
    ``_max_slice_distance`` between solver runs that differ only in the seed
    of the initial cloud (same frozen nodes)."""
    if n_runs < 2:
        raise RejectedInputError("the floor needs at least 2 runs to compare")
    sols = []
    for i in range(n_runs):
        rng = streams.stream(i, purpose="floor-init")
        sols.append(solve_selfconsistent(init, model, M, dt, T, quad=quad,
                                         rng=rng, alpha=alpha, act=act,
                                         snapshot_times=snapshot_times))
    return float(np.mean([_max_slice_distance(a, b)
                          for a, b in itertools.combinations(sols, 2)]))


# ---------------------------------------------------------------------------
# the weak-form residual


def weak_residuals(sol: MeanFieldSolution,
                   fs: Sequence) -> list[tuple[float, float]]:
    """Defect of the solution in the weak form of the limit dynamics, one
    (residual, normalizer) pair per test function in ``fs``.

    Computes |<f, mu_T> - <f, mu_0> - integral_0^T a(s) ds| where

        a(s) = < df/dc g1 + grad_w f . g2, mu_s >

    and (g1, g2) is the velocity field of the slice against ``sol.quad``:
    the float32 ``drift`` that the Euler step integrates, paired in float64
    with both partials of one ``grad`` call per slice and test function.
    A slice takes its field from ``sol.fields`` when the solve kept it;
    ``drift`` runs, once for all of ``fs``, only on the slices without one
    (the last slice, or every slice of a Picard or loaded solution).  The
    time integral is taken by the trapezoid rule over every stored slice.
    The normalizer integral_0^T |a(s)| ds is the scale for relative error.
    """
    n_snaps = sol.times.shape[0]
    if n_snaps < 2:
        raise RejectedInputError("need at least two slices")
    kept = list(zip(*sol.fields)) if sol.fields is not None else []
    nodes = node_arrays(sol.quad, np.float32)
    fields = kept + [drift(c.astype(np.float32), w.astype(np.float32), nodes,
                           sol.act, sol.alpha)
                     for c, w in zip(sol.c[len(kept):], sol.w[len(kept):])]
    a_vals = np.empty((len(fs), n_snaps))
    for s, (c, w, (g1, g2)) in enumerate(zip(sol.c, sol.w, fields)):
        g1, g2 = g1.astype(np.float64), g2.astype(np.float64)
        for i, f in enumerate(fs):
            fc, fw = f.grad(c, w)
            a_vals[i, s] = (fc @ g1 + np.vdot(fw, g2)) / sol.n_paths
    first, last = sol.slice(0), sol.slice(n_snaps - 1)
    out = []
    for f, a in zip(fs, a_vals):
        lhs = pair(f, last) - pair(f, first)
        out.append((abs(lhs - float(_trapz(a, sol.times))),
                    float(_trapz(np.abs(a), sol.times))))
    return out


def weak_residual(sol: MeanFieldSolution, f) -> tuple[float, float]:
    """``weak_residuals`` for the single test function ``f``."""
    return weak_residuals(sol, [f])[0]
