"""The finite-N particle system: online SGD with the 1/N-scaled learning rate.

One step with sample (x, y) updates every particle simultaneously from the
pre-step state:

    g      = (1/N) sum_i c_i sigma(w_i . x)          (network output)
    c_i   += (alpha/N) (y - g) sigma(w_i . x)
    w_ij  += (alpha/N) (y - g) c_i sigma'(w_i . x) x_j

Scaled time runs one unit per N steps, so a horizon T means floor(N*T) steps
and the snapshot at scaled time t is the state after exactly floor(N*t) steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (Activation, RejectedInputError, RandomStreams,
                   activation_deriv, guard_divergence)
from .data import DataModel, InitLaw, sample_data, sample_init
from .measure import EmpiricalMeasure

_STREAM_CHUNK = 4096  # samples drawn per refill; fixed, part of determinism


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
        if self.alpha < 0:
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
    _apply_increments(ens, x, *step_increments(ens, x, y))
    return ens


def step_increments(ens: Ensemble, x: np.ndarray,
                    y: float) -> tuple[np.ndarray, np.ndarray]:
    """The increments of one step at sample (x, y) from the pre-step state:
    dc (N,) and the factor u (N,) of the rank-one dw = u x^T.

    g = (1/N) sum_i c_i sigma(w_i . x) takes the same floats as
    ``core.network_output``, so a network trained on its own outputs gets
    y - g = 0 exactly and never moves.
    """
    act = ens.activation
    z = ens.w @ x
    s = act.value(z)
    g = float(s @ ens.c) / ens.n
    coef = ens.alpha / ens.n * (y - g)
    return coef * s, coef * ens.c * activation_deriv(act, z, s)


def _apply_increments(ens: Ensemble, x: np.ndarray, dc: np.ndarray,
                      u: np.ndarray):
    """Add one step's increments (from ``step_increments``) and check the
    post-step state against the divergence guard."""
    ens.c += dc
    ens.w += u[:, None] * x[None, :]
    ens.step += 1
    guard_divergence(ens.c, ens.w, ens.step)


def moment_guard(ens) -> float:
    """(1/N) sum_i (|c_i| + ||w_i||): the quantity whose boundedness uniform
    in N certifies that training stays in a compact parameter region."""
    c = np.asarray(ens.c, dtype=np.float64)
    w = np.asarray(ens.w, dtype=np.float64)
    return float(np.mean(np.abs(c) + np.linalg.norm(w, axis=1)))


@dataclass(frozen=True)
class TrainSchedule:
    """Horizon T in scaled time plus the snapshot times to record."""

    T: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.T <= 0:
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
    """
    if model.d != ens.d:
        raise RejectedInputError("model dimension differs from ensemble")
    n_steps = schedule.n_steps(ens.n)
    snap_steps = schedule.snapshot_steps(ens.n)
    snapshots: list = [None] * len(snap_steps)
    trace = np.empty(n_steps + 1) if record_moments else None
    if record_moments:
        trace[0] = moment_guard(ens)

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
            dc, u = step_increments(ens, x, y)
            if observer is not None:
                observer(done, ens, x, y, dc, u)
            _apply_increments(ens, x, dc, u)
            done += 1
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
