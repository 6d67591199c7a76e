"""The finite-N particle system: online SGD with the 1/N-scaled learning rate.

One step with sample (x, y) updates every particle simultaneously from the
pre-step state:

    g      = (1/N) sum_i c_i sigma(w_i . x)          (network output)
    c_i   += (alpha/N) (y - g) sigma(w_i . x)
    w_ij  += (alpha/N) (y - g) c_i sigma'(w_i . x) x_j

Scaled time runs one unit per N steps, so a horizon T means floor(N*T) steps
and the snapshot at scaled time t is the state after exactly floor(N*t) steps.

Each step moves w by the rank-one matrix u x^T.  At a wide input ``train``
defers it: w is kept as W0 + U^T X with up to B pending steps in U and X,
folded into W0 by GEMM at least every B steps (see ``_DeferredW``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DIVERGENCE_LIMIT, Activation, DivergedError,
                   RejectedInputError, RandomStreams, activation_deriv,
                   guard_divergence, max_abs)
from .data import DataModel, InitLaw, sample_data, sample_init
from .measure import EmpiricalMeasure

_STREAM_CHUNK = 4096  # samples drawn per refill; fixed, part of determinism
#: pending steps per fold at input width d >= _DEFER_MIN_D; narrower inputs
#: apply each step at once (a block of one), where the dense update is cheap
_DEFER_BLOCK = 64
_DEFER_MIN_D = 16
#: a deferred block is folded early once its bound on max|w| passes this;
#: the slack sits far above the round-off of a 64-term sum, so no step within
#: the bound can hold a w past DIVERGENCE_LIMIT
_BOUND_LIMIT = DIVERGENCE_LIMIT * (1.0 - 1e-9)


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
        if not self.alpha >= 0:
            raise RejectedInputError("alpha must be >= 0")

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

    def measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.c.copy(), self.w.copy())


def sgd_step(ens: Ensemble, x: np.ndarray, y: float) -> Ensemble:
    """One online step; mutates ``ens`` in place and returns it.

    Every particle sees the network output g of the pre-step parameters; both
    updates use pre-step c and w (simultaneous update).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ens.d,):
        raise RejectedInputError(f"sample has shape {x.shape}, expected ({ens.d},)")
    _DeferredW(ens, 1).push(x, *step_increments(ens, x, y))
    return ens


def step_increments(ens: Ensemble, x: np.ndarray, y: float,
                    z: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The increments of one step at sample (x, y) from the pre-step state:
    dc (N,) and the factor u (N,) of the rank-one dw = u x^T.

    g = (1/N) sum_i c_i sigma(w_i . x) takes the same floats as
    ``core.network_output``, so a network trained on its own outputs gets
    y - g = 0 exactly and never moves.  ``z`` is w x when the caller holds
    w in another form (``_DeferredW.preactivations``).
    """
    act = ens.activation
    if z is None:
        z = ens.w @ x
    s = act.value(z)
    g = float(s @ ens.c) / ens.n
    coef = ens.alpha / ens.n * (y - g)
    return coef * s, coef * ens.c * activation_deriv(act, z, s)


class _DeferredW:
    """``ens.w`` held as W0 + U^T X, with up to ``block`` pending steps.

    Row k of U (block x N) and of X (block x d) hold pending step k's u and
    x, and W0 is ``ens.w`` itself.  w x is W0 x + U^T (X x), which costs
    O(N (d + k)) where applying a step costs O(N d), and a fold adds the
    pending steps to W0 by GEMM.  c is updated at once.

    The divergence guard stays exact.  c is scanned every step, and w at
    every fold.  Between folds ``bound`` holds max|W0| from the last scan
    plus sum_k max|u_k| max|x_k|, which is at least max|w|, and it is checked
    every step: the first step at which it passes the limit (or stops being
    finite) folds at once, and since every earlier step was within the
    bound, the scan names the first step past the limit, as when every step
    is applied at once.  A block of one folds each step as it comes and
    adds u x^T as the plain update does, bit for bit.
    """

    def __init__(self, ens: Ensemble, block: int):
        self.ens = ens
        self.block = block
        self.u = np.empty((block, ens.n))
        self.x = np.empty((block, ens.d))
        self.pending = 0
        self.bound = max_abs(ens.w) if block > 1 else 0.0

    def preactivations(self, x: np.ndarray) -> np.ndarray:
        """w x, with the pending steps added as U^T (X x)."""
        z = self.ens.w @ x
        if self.pending:
            z += self.u[:self.pending].T @ (self.x[:self.pending] @ x)
        return z

    def push(self, x: np.ndarray, dc: np.ndarray, u: np.ndarray,
             fold: bool = False):
        """Take one step's increments (from ``step_increments``): add dc to
        c and hold u x^T pending; fold when the block is full, when the
        bound passes the limit, or when ``fold`` asks for a materialised w."""
        ens = self.ens
        ens.c += dc
        ens.step += 1
        self.u[self.pending] = u
        self.x[self.pending] = x
        self.pending += 1
        if self.block > 1:
            self.bound += max_abs(u) * max_abs(x)
        if fold or self.pending == self.block or not self.bound <= _BOUND_LIMIT:
            self.fold()
        try:
            guard_divergence(ens.step, ens.c)
        except DivergedError:
            self.fold()  # w too stands at the step the error names
            raise

    def fold(self):
        """Add the pending steps to W0 by GEMM and scan it."""
        j = self.pending
        if j:
            self.ens.w += self.u[:j].T @ self.x[:j]
            self.pending = 0
            self.bound = guard_divergence(self.ens.step, self.ens.w)


def moment_guard(ens) -> float:
    """(1/N) sum_i (|c_i| + ||w_i||): the quantity whose boundedness uniform
    in N certifies that training stays in a compact parameter region.
    ||w_i|| is sqrt(w_i . w_i) by einsum, which makes no (N, d) temporary."""
    c = np.asarray(ens.c, dtype=np.float64)
    w = np.asarray(ens.w, dtype=np.float64)
    return float(np.mean(np.abs(c) + np.sqrt(np.einsum("ij,ij->i", w, w))))


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


def train(ens: Ensemble, model: DataModel, schedule: TrainSchedule,
          rng: np.random.Generator,
          observer: Callable | None = None,
          record_moments: bool = False) -> TrainResult:
    """Run floor(N*T) steps on a fresh i.i.d. stream; collect snapshots.

    ``observer(k, ens, x, y, dc, u)``, if given, is called before each step
    with the pre-step state, the sample about to be applied and that step's
    increments from ``step_increments`` (used by the drift and fluctuation
    diagnostics); the step then applies exactly those increments. Samples
    are drawn in fixed-size chunks, so the stream consumed is a deterministic
    function of the generator alone.

    Steps are deferred in blocks of ``_DEFER_BLOCK`` at input width d >=
    ``_DEFER_MIN_D``, and w is folded before every snapshot.  An observer or
    ``record_moments`` reads w every step, so either applies each step at
    once.
    """
    if model.d != ens.d:
        raise RejectedInputError("model dimension differs from ensemble")
    n_steps = schedule.n_steps(ens.n)
    snap_steps = schedule.snapshot_steps(ens.n)
    snapshots: list = [None] * len(snap_steps)
    trace = np.empty(n_steps + 1) if record_moments else None
    if record_moments:
        trace[0] = moment_guard(ens)
    wide = ens.d >= _DEFER_MIN_D and observer is None and not record_moments
    pending = _DeferredW(ens, _DEFER_BLOCK if wide else 1)
    fold_at = set(snap_steps) | {n_steps}

    def record(step_idx: int):
        for slot, want in enumerate(snap_steps):
            if want == step_idx and snapshots[slot] is None:
                snapshots[slot] = (schedule.snapshot_times[slot], ens.measure())

    record(0)
    done = 0
    while done < n_steps:
        batch = sample_data(model, rng, _STREAM_CHUNK)
        take = min(n_steps - done, batch.y.shape[0])
        for i in range(take):
            x, y = batch.x[i], float(batch.y[i])
            dc, u = step_increments(ens, x, y, pending.preactivations(x))
            if observer is not None:
                observer(done, ens, x, y, dc, u)
            done += 1
            pending.push(x, dc, u, fold=done in fold_at)
            if record_moments:
                trace[done] = moment_guard(ens)
            record(done)
    return TrainResult(snapshots, trace)


def run_default(model: DataModel, init: InitLaw, act: Activation, alpha: float,
                n: int, schedule: TrainSchedule, streams: RandomStreams,
                replica: int = 0, record_moments: bool = False,
                observer: Callable | None = None) -> TrainResult:
    """Train replica ``replica`` of a fresh ensemble of n particles.

    The one place that keys a replica's streams, for every command and
    diagnostic: (replica, "init") and (replica, "data") whatever n is, so
    runs across an N-grid share initial-particle prefixes and the data
    sequence (common random numbers), which quiets trend comparisons.
    ``observer`` and ``record_moments`` are passed on to ``train``.
    """
    ens = Ensemble.from_init(init, act, alpha,
                             streams.stream(replica, purpose="init"), n)
    return train(ens, model, schedule, streams.stream(replica, purpose="data"),
                 observer=observer, record_moments=record_moments)
