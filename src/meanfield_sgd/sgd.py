"""The finite-N particle system: online SGD with the 1/N-scaled learning rate.

One step with sample (x, y) updates every particle simultaneously from the
pre-step state:

    g      = (1/N) sum_i c_i sigma(w_i . x)          (network output)
    c_i   += (alpha/N) (y - g) sigma(w_i . x)
    w_ij  += (alpha/N) (y - g) c_i sigma'(w_i . x) x_j

Scaled time runs one unit per N steps, so a horizon T means floor(N*T) steps
and the snapshot at scaled time t is the state after exactly floor(N*t) steps.

Every replica is trained by ``_train`` as part of a ``_Lockstep`` batch of
R replicas of one N: c as an (R, N) array and w as (R, N, d), each replica
on its own sample stream.  ``run_default`` samples its replicas straight
into those arrays and hands them back as the final clouds; ``train`` steps
one ``Ensemble`` as the batch of one, in its own arrays.  Every operation
of a step is elementwise or acts on one replica's block with the same call
a lone replica makes, so a replica's bits do not depend on the batch it is
trained in.  Each step moves w by the rank-one matrix u x^T.  At a wide
input the steps go in tiles of 64, aligned to the 4096-sample chunks the
samples are drawn in.  One GEMM at a tile's start gives W0 x for all of its
samples, and a step's z is that plus U^T (X x) over the tile's earlier
steps.  w is kept as W0 + U^T X, folded into W0 by GEMM over particle row
blocks at the tile's end and wherever w is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (_DEFER_BLOCK, _DEFER_MIN_D, DIVERGENCE_LIMIT, Activation,
                   DivergedError, RejectedInputError, RandomStreams,
                   activation_deriv, check_alpha, guard_divergence, max_abs,
                   mean_output, tile_preactivations)
from .data import (DataModel, InitLaw, _draw_indices, _pixels, _sample_clouds,
                   sample_data, sample_init)
from .measure import EmpiricalMeasure

_STREAM_CHUNK = 4096  # samples drawn per refill; fixed, part of determinism
assert _STREAM_CHUNK % _DEFER_BLOCK == 0  # no tile straddles a chunk
#: weights per particle row block of a fold, which sums that block's pending
#: steps by one GEMM into a work block of this size
_FOLD_FLOATS = 1 << 16
#: w is scanned with its pending steps once their bound on max|w| passes
#: this.  Below _DEFER_MIN_D a step adds one rounded product to each weight,
#: which the bound's own rounded sum covers, since rounding is monotone;
#: from it on the slack sits far above the round-off of a 64-term sum.  So
#: no step within the bound can hold a w past DIVERGENCE_LIMIT
_BOUND_LIMIT = DIVERGENCE_LIMIT * (1.0 - 1e-9)
#: ``run_default`` trains at most as many replicas at once as keep their
#: clouds and sample chunks near this many floats: one batch per N at d=2,
#: one replica at a time at d=784
_LOCKSTEP_FLOATS = 1 << 22


@dataclass
class Ensemble:
    """N particles plus the training hyperparameters that move them."""

    c: np.ndarray
    w: np.ndarray
    activation: Activation
    alpha: float
    step: int = 0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64).copy()
        self.w = np.asarray(self.w, dtype=np.float64).copy()
        if self.c.ndim != 1 or self.w.ndim != 2 or self.w.shape[0] != self.c.shape[0]:
            raise RejectedInputError("need c (N,) and w (N, d)")
        if self.n < 1:
            raise RejectedInputError("ensemble needs at least one particle")
        check_alpha(self.alpha)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    @classmethod
    def from_init(cls, law: InitLaw, act: Activation, alpha: float,
                  rng: np.random.Generator, n: int) -> "Ensemble":
        cloud = sample_init(law, rng, n)
        return cls(cloud.c, cloud.w, act, alpha)


def sgd_step(ens: Ensemble, x: np.ndarray, y: float) -> Ensemble:
    """One online step; mutates ``ens`` in place and returns it.

    Every particle sees the network output g of the pre-step parameters; both
    updates use pre-step c and w (simultaneous update).  The step is that of
    a ``_Lockstep`` batch of one on ``ens``'s own arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ens.d,):
        raise RejectedInputError(f"sample has shape {x.shape}, expected ({ens.d},)")
    state = _Lockstep(ens.c[None], ens.w[None], ens.activation, ens.alpha,
                      ens.step)
    x = x[None]
    try:
        state.push(x, *step_increments(state, y, state.preactivations(x)))
        state.fold()
    finally:
        ens.step = state.step
    return ens


def step_increments(state: _Lockstep, y, z: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The increments of one step of the batch ``state`` from its pre-step
    state, given the labels y (R,) and z = w x (R, N): dc (R, N) and the
    factor u (R, N) of the rank-one dw = u x^T.

    z comes from ``_Lockstep.tile_step`` or ``preactivations`` and g is
    ``core.mean_output``: the z and the sum the ``teacher_mean`` labels
    take too (``data.conditional_mean``), so a network trained on its own
    outputs gets y - g = 0 exactly and never moves.
    """
    act = state.activation
    s = act.value(z)
    coef = (state.alpha / state.n * (y - mean_output(state.c, s)))[:, None]
    dc = coef * s
    u = coef * state.c
    u *= activation_deriv(act, z, s, out=s)  # s is spent: sigma' goes there
    return dc, u


class _Lockstep:
    """R replicas of one N, stepped together in the caller's own arrays:
    c (R, N) and w (R, N, d), changed in place and never copied.  Every
    matrix product acts on one replica's block with the call a lone replica
    makes, and the rest of a step is elementwise or per row, so a replica's
    bits do not depend on R.

    Below input width ``_DEFER_MIN_D`` a step's z is one matrix-vector
    product, and each step adds u x^T at once, plane by plane.  From it on
    the steps go in tiles of ``_DEFER_BLOCK`` (``load``), and w is held as
    W0 + U^T X per replica: U (R, _DEFER_BLOCK, N) and X (R, _DEFER_BLOCK,
    d) hold the tile's steps.  A tile starts with nothing pending.  Its
    samples go into X, and one ``core.tile_preactivations`` GEMM per replica
    puts their W0 x into U's rows.  Step j reads row j as the column of its
    z, adds U^T (X x) over the tile's earlier steps (``tile_step``), and
    then overwrites the row with its own u.  So z costs O(N j) per step
    where W0 x would cost O(N d).

    One rule says when pending steps reach w: at the tile's end, and
    wherever w is read, through ``fold``, which a caller makes before it
    reads w.  A fold adds the pending steps to W0 by GEMM over
    particle row blocks of ``_FOLD_FLOATS`` weights, so no temporary of w's
    size is made, and leaves the tile's z as they are.

    The divergence guard stays exact at every width.  c is scanned every
    step.  ``bound`` holds max|w| from the last scan or fold plus
    sum_k max|u_k| max|x_k| over the batch since, at least max|w|, and only
    once it passes the limit (or stops being finite) is w scanned, with its
    pending steps added over the same row blocks and without folding, so
    the folds, and with them the bits, come at the same steps whatever the
    batch.  A step past the limit is seen at the step it happens; the error
    names the lowest replica past it, and every replica's w is folded to
    that step.
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, activation: Activation,
                 alpha: float, step: int):
        self.c, self.w = c, w
        self.activation, self.alpha = activation, check_alpha(alpha)
        self.n, self.step = c.shape[1], step
        r, n, d = w.shape
        wide = d >= _DEFER_MIN_D
        self.u = np.empty((r, _DEFER_BLOCK, n)) if wide else None
        self.x = np.empty((r, _DEFER_BLOCK, d)) if wide else None
        # the fold's row block when wide, else the plane of one step
        self.work = (np.empty((min(n, max(1, _FOLD_FLOATS // d)), d))
                     if wide else np.empty((r, n)))
        self.taken = 0  # the tile's steps taken: rows of U and X holding them
        self.folded = 0  # of these, the rows already added to w
        self.bound = max_abs(w)

    @property
    def pending(self) -> int:
        return self.taken - self.folded

    def load(self, sample: Callable, i: int) -> np.ndarray:
        """Start a tile at step i of the chunk ``sample`` (``_draw_chunk``),
        with nothing pending: its samples go into X and their W0 x into U,
        and its labels y (R, _DEFER_BLOCK) are returned."""
        y = sample(i, self.x)[1]
        for r in range(self.w.shape[0]):
            tile_preactivations(self.w[r], self.x[r], out=self.u[r])
        self.taken = self.folded = 0
        return y

    def tile_step(self) -> tuple[np.ndarray, np.ndarray]:
        """The tile's next sample x (R, d), a view of X, and its z = w x:
        the column the tile's GEMM left in U plus U^T (X x) over the tile's
        earlier steps."""
        j = self.taken
        x, z = self.x[:, j], self.u[:, j].copy()
        if j:
            xx = np.matmul(self.x[:, :j], x[:, :, None])
            z += np.matmul(self.u[:, :j].transpose(0, 2, 1), xx)[..., 0]
        return x, z

    def preactivations(self, x: np.ndarray) -> np.ndarray:
        """w x per replica for samples x (R, d) from outside the tile, on
        the folded w (``fold``)."""
        return np.matmul(self.w, x[:, :, None])[..., 0]

    def push(self, x: np.ndarray, dc: np.ndarray, u: np.ndarray):
        """Take one step's increments (from ``step_increments``): add dc to
        c and u x^T to w, at once below ``_DEFER_MIN_D``, else as the tile's
        next row of U and X, folded at the tile's end."""
        self.c += dc
        self.step += 1
        self.bound += max_abs(u) * max_abs(x)
        if self.u is None:
            for j in range(self.w.shape[2]):
                self.w[..., j] += np.multiply(u, x[:, j, None], out=self.work)
        else:
            self.u[:, self.taken] = u
            self.x[:, self.taken] = x
            self.taken += 1
        self._guard()
        if self.taken == _DEFER_BLOCK:  # the tile is spent
            self.fold()
            self.taken = self.folded = 0

    def fold(self):
        """Add the pending steps to w, and take its new max|w| as
        ``bound``."""
        if self.pending:
            self.bound = float(np.max(self._scan(True)))

    def _scan(self, fold: bool) -> np.ndarray:
        """max|W0 + U^T X| per particle row block, each block's pending
        steps summed by one GEMM into the work block; with ``fold`` the sums
        go into w and nothing is left pending.  With nothing pending (always
        below ``_DEFER_MIN_D``) it is w itself."""
        if not self.pending:
            return self.w
        steps, rows = slice(self.folded, self.taken), self.work.shape[0]
        maxes = []
        for r in range(self.w.shape[0]):
            for lo in range(0, self.n, rows):
                wb = self.w[r, lo:lo + rows]
                add = np.matmul(self.u[r, steps, lo:lo + rows].T,
                                self.x[r, steps], out=self.work[:wb.shape[0]])
                maxes.append(max_abs(np.add(wb, add, out=wb if fold else add)))
        if fold:
            self.folded = self.taken
        return np.array(maxes)

    def _guard(self):
        """Check c, and w with its pending steps once ``bound`` passes the
        limit.  Past the limit, fold and raise ``DivergedError`` with the
        lowest replica past it."""
        try:
            guard_divergence(self.step, self.c)
            if not self.bound <= _BOUND_LIMIT:
                self.bound = guard_divergence(self.step, self._scan(False))
        except DivergedError as exc:
            self.fold()  # w too stands at the step the error names
            exc.replica = next(
                r for r in range(self.c.shape[0])
                if not max(max_abs(self.c[r]), max_abs(self.w[r])) <= DIVERGENCE_LIMIT)
            raise


def moment_guard(ens) -> float | np.ndarray:
    """(1/N) sum_i (|c_i| + ||w_i||): the quantity whose boundedness uniform
    in N certifies that training stays in a compact parameter region.
    ||w_i|| is sqrt(w_i . w_i) by einsum, which makes no (N, d) temporary.
    Over a leading replica axis (a ``_Lockstep`` batch) it gives one value
    per replica."""
    c = np.asarray(ens.c, dtype=np.float64)
    w = np.asarray(ens.w, dtype=np.float64)
    m = np.mean(np.abs(c) + np.sqrt(np.einsum("...ij,...ij->...i", w, w)),
                axis=-1)
    return float(m) if m.ndim == 0 else m


@dataclass(frozen=True)
class TrainSchedule:
    """Horizon T in scaled time plus the snapshot times to record."""

    T: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not self.T > 0:
            raise RejectedInputError("T must be > 0")
        times = tuple(float(t) for t in self.snapshot_times) or (self.T,)
        if any(t < 0 or t > self.T for t in times):
            raise RejectedInputError("snapshot times must lie in [0, T]")
        if list(times) != sorted(times):
            raise RejectedInputError("snapshot times must be sorted")
        object.__setattr__(self, "snapshot_times", times)

    def n_steps(self, n_particles: int) -> int:
        return _floor_steps(n_particles, self.T)

    def snapshot_steps(self, n_particles: int) -> list[int]:
        return [_floor_steps(n_particles, t) for t in self.snapshot_times]


def _floor_steps(n_particles: int, t: float) -> int:
    """floor(N*t), tolerant of the rounding in the float product: 100 * 0.29
    is 28.999999999999996, yet scaled time 0.29 at N=100 is step 29."""
    x = n_particles * t
    if not x < 2.0 ** 53:  # past it a float no longer names one step
        raise RejectedInputError(f"N*T = {x:g} steps are too many to count")
    k = round(x)
    return int(k) if abs(x - k) <= 1e-9 * max(1.0, x) else math.floor(x)


@dataclass
class TrainResult:
    """Snapshots (t, measure) in schedule order, and the per-step trace of
    ``moment_guard`` (steps 0..n) when it was recorded."""

    snapshots: list
    moment_trace: np.ndarray | None = None

    @property
    def max_moment(self) -> float | None:
        if self.moment_trace is None:
            return None
        return float(np.max(self.moment_trace))


def _draw_chunk(model: DataModel, rngs: list) -> Callable:
    """The next ``_STREAM_CHUNK`` samples of each generator in ``rngs``, as
    a function of the step i in the chunk that gives x (R, d) and y (R,);
    given ``out`` (R, m, d) it writes the x of the m steps from i there and
    gives out and y (R, m).  An image model's chunk holds the drawn indices,
    the draws of ``sample_data``, and scales the images of the steps asked
    for from their bytes.  A synthetic model's chunk holds x (steps, R, d),
    since its noise is drawn after the whole x block; one replica's chunk is
    viewed, not copied."""
    if model.kind == "mnist-binary":
        idx = np.stack([_draw_indices(model, g, _STREAM_CHUNK) for g in rngs],
                       axis=1)
        ys = model.labels[idx]

        def sample(i, out=None):
            if out is None:
                return _pixels(model, idx[i]), ys[i]
            steps = slice(i, i + out.shape[1])
            return _pixels(model, idx[steps].T, out), ys[steps].T
        return sample
    batches = [sample_data(model, g, _STREAM_CHUNK) for g in rngs]
    if len(batches) == 1:
        xs, ys = batches[0].x[:, None], batches[0].y[:, None]
    else:
        xs = np.stack([b.x for b in batches], axis=1)
        ys = np.stack([b.y for b in batches], axis=1)

    def sample(i, out=None):
        if out is None:
            return xs[i], ys[i]
        steps = slice(i, i + out.shape[1])
        np.copyto(out, xs[steps].transpose(1, 0, 2))
        return out, ys[steps].T
    return sample


def train(ens: Ensemble, model: DataModel, schedule: TrainSchedule, rng,
          observer: Callable | None = None,
          record_moments: bool = False) -> TrainResult:
    """Run floor(N*T) steps of ``ens``, in place, on fresh i.i.d. samples
    and collect snapshots, which share no memory with ``ens``.

    The samples come from ``rng`` in fixed-size chunks, so the stream the
    run consumes is a function of that generator alone.  A step past the
    divergence limit raises ``DivergedError`` with that step and leaves
    ``ens`` there.

    ``observer(k, state, x, y, dc, u)``, if given, is called before each
    step with the live pre-step batch ``state`` (a ``_Lockstep``: c (R, N),
    w (R, N, d) and ``preactivations``, here R = 1), the samples about to
    be applied, x (R, d) and y (R,), and that step's increments (R, N) from
    ``step_increments`` (used by the drift and fluctuation diagnostics); the
    step then applies exactly those increments.  The observer writes
    nothing to the state.

    At input width d >= ``_DEFER_MIN_D`` the steps go in tiles of
    ``_DEFER_BLOCK`` (``_Lockstep``): x is then a row of the tile, which the
    next tile overwrites.  The pending steps are folded into w at each
    tile's end and wherever w is read: before the observer, before
    ``moment_guard``, at every snapshot and at the run's end.
    """
    state = _Lockstep(ens.c[None], ens.w[None], ens.activation, ens.alpha,
                      ens.step)
    try:
        return _train(state, model, schedule, [rng], observer,
                      record_moments, False)[0]
    finally:
        ens.step = state.step


def _train(state: _Lockstep, model: DataModel, schedule: TrainSchedule,
           rngs: list, observer: Callable | None, record_moments: bool,
           own: bool) -> list:
    """Step the batch ``state`` in lockstep, replica r on generator
    ``rngs[r]``, and give one ``TrainResult`` per replica.  The first step
    at which any replica passes the divergence limit raises
    ``DivergedError`` with that step and the lowest such replica.  With
    ``own`` the snapshots at the last step are the batch's own arrays, else
    every snapshot is a copy.  w is folded (``_Lockstep.fold``) before
    anything here or in the observer reads it, and at the end."""
    if len(rngs) != state.c.shape[0]:
        raise RejectedInputError("need one generator per replica")
    if model.d != state.w.shape[2]:
        raise RejectedInputError("model dimension differs from ensemble")
    n_steps = schedule.n_steps(state.n)
    snap_steps = schedule.snapshot_steps(state.n)
    snapshots: list = [None] * len(snap_steps)
    trace = np.empty((len(rngs), n_steps + 1)) if record_moments else None
    if record_moments:
        trace[:, 0] = moment_guard(state)

    def record(step_idx: int):
        keep = (lambda a: a) if own and step_idx == n_steps else np.copy
        for slot, want in enumerate(snap_steps):
            if want == step_idx and snapshots[slot] is None:
                state.fold()
                snapshots[slot] = [EmpiricalMeasure(keep(c), keep(w))
                                   for c, w in zip(state.c, state.w)]

    record(0)
    done = 0
    while done < n_steps:
        sample = _draw_chunk(model, rngs)
        for i in range(min(n_steps - done, _STREAM_CHUNK)):
            if state.u is None:
                x, y = sample(i)
                z = state.preactivations(x)
            else:
                if i % _DEFER_BLOCK == 0:
                    ys = state.load(sample, i)
                x, z = state.tile_step()
                y = ys[:, i % _DEFER_BLOCK]
            dc, u = step_increments(state, y, z)
            if observer is not None:
                state.fold()
                observer(done, state, x, y, dc, u)
            done += 1
            state.push(x, dc, u)
            if record_moments:
                state.fold()
                trace[:, done] = moment_guard(state)
            record(done)
    state.fold()
    return [TrainResult([(t, clouds[r]) for t, clouds
                         in zip(schedule.snapshot_times, snapshots)],
                        None if trace is None else trace[r])
            for r in range(len(rngs))]


def run_default(model: DataModel, init: InitLaw, act: Activation, alpha: float,
                n: int, schedule: TrainSchedule, streams: RandomStreams,
                replica=0, record_moments: bool = False,
                observer: Callable | None = None):
    """Train replica ``replica`` of a fresh ensemble of n particles, or,
    given a sequence of replicas, train them in lockstep and return one
    result per replica, in order.

    The one place that keys a replica's streams, for every command and
    diagnostic: (replica, "init") and (replica, "data") whatever n is, so
    runs across an N-grid share initial-particle prefixes and the data
    sequence (common random numbers), which quiets trend comparisons.
    Replicas are trained in batches, in order, sized to keep near
    ``_LOCKSTEP_FLOATS`` in memory; a replica's bits do not depend on its
    batch.  Each batch is sampled straight into its (R, N) and (R, N, d)
    arrays, stepped there, and handed back as the final clouds, so a
    replica's weights are held once.  ``observer`` and ``record_moments``
    are as in ``train``; the observer sees each batch in turn, from its
    step 0.
    """
    single = np.ndim(replica) == 0
    replicas = [int(replica)] if single else [int(r) for r in replica]
    size = max(1, _LOCKSTEP_FLOATS // ((n + 2 * _STREAM_CHUNK) * (init.d + 1)))
    results = []
    for lo in range(0, len(replicas), size):
        part = replicas[lo:lo + size]
        c, w = _sample_clouds(init, [streams.stream(r, purpose="init")
                                    for r in part], n)
        state = _Lockstep(c, w, act, alpha, 0)
        try:
            results += _train(state, model, schedule,
                              [streams.stream(r, purpose="data") for r in part],
                              observer, record_moments, True)
        except DivergedError as exc:
            err = DivergedError(f"{exc} in replica {part[exc.replica]}",
                                step=exc.step)
            err.replica = part[exc.replica]
            raise err from None
    return results[0] if single else results
