"""Statistical verification of the limit behavior of the particle system:
variance decay of pairings, decay of the fluctuation (martingale) terms in
the step decomposition, distance between the finite-N cloud and the solved
limit, and asymptotic pairwise independence of particles.

The drift/fluctuation observer takes its realized terms from the increments
that the SGD loop computes once per step, hands to the observer and then
applies.  It needs no conditional expectation: at each step it draws a twin
sample from the replica's own stream (replica, "twin") and takes the twin's
increments from the same pre-step state through ``sgd.step_increments``.
The difference of the two realizations has mean zero and twice the
fluctuation's conditional variance, so the fluctuation moments come at
O(N d) per step, with no quadrature, and the formula for the step lives in
``sgd`` only.

Every trained replica goes through ``sgd.run_default``, which keys its
streams by (replica, purpose) only, so runs at different network sizes share
their initial particles and their sample streams (common random numbers);
trend statements across an N-grid are then far less noisy, while each
single-N statistic keeps its marginal law.  The replica study trains each
N's replicas in lockstep, as one (R, N) batch, and the chaos table reads
them and trains the replicas it needs beyond them the same way, with the
study's own setup; the drift/fluctuation observer watches each N's
replicas as one lockstep batch too.  Every statistic here reads the state
at the horizon T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (Activation, RandomStreams, RejectedInputError,
                   TestFunction, activation, usable_cores)
from .data import DataModel, InitLaw
from .measure import csv_row, pair, resample, sliced_wasserstein
from .meanfield import MeanFieldSolution
from .sgd import (_STREAM_CHUNK, TrainSchedule, _draw_chunk, run_default,
                  step_increments)

SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
#: bootstrap resamples behind every SE and CI here; R <= 60 replicas make
#: 1000 rows cost microseconds
N_BOOT = 1000
#: the least replicas and N-grid widths behind a decay slope (``lln_decay``)
#: and the least replicas behind a chaos covariance (``chaos_table``)
LLN_MIN_REPLICAS = 20
LLN_MIN_WIDTHS = 3
CHAOS_MIN_REPLICAS = 50


# ---------------------------------------------------------------------------
# replica studies


@dataclass
class ReplicaStudy:
    """R independent training runs to horizon T at every size in an N-grid,
    with the model, initial law, activation, alpha and streams they were
    trained with.

    ``clouds[(n, r)]`` is the final cloud of replica r at size n, and
    ``max_moments[(n, r)]`` the max of the parameter-moment guard over that
    whole run.  ``pairings(f, n)`` pairs each cloud of size n with f once
    and keeps the values for every later table that asks.
    """

    T: float
    n_grid: tuple
    R: int
    streams: RandomStreams
    model: DataModel
    init: InitLaw
    act: Activation
    alpha: float
    clouds: dict = field(default_factory=dict)
    max_moments: dict = field(default_factory=dict)
    _pairings: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def pairings(self, f: TestFunction, n: int) -> np.ndarray:
        key = (f, n)
        if key not in self._pairings:
            self._pairings[key] = np.array(
                [pair(f, self.clouds[(n, r)]) for r in range(self.R)])
        return self._pairings[key]


def _study_task(args):
    model, init, act, alpha, T, n, replicas, streams = args
    results = run_default(model, init, act, alpha, n, TrainSchedule(T),
                          streams, replica=replicas, record_moments=True)
    return [((n, r), res.snapshots[-1][1], res.max_moment)
            for r, res in zip(replicas, results)]


def run_study(model: DataModel, init: InitLaw, act: Activation, alpha: float,
              T: float, n_grid: Sequence[int], R: int, streams: RandomStreams,
              workers: int = 1) -> ReplicaStudy:
    """Train replicas 0..R-1 at every N through ``sgd.run_default``, one
    lockstep batch per N, and keep each final cloud; deterministic
    regardless of ``workers``.  ``workers`` > 1 splits each N's replicas
    into one chunk per process, and the pool never holds more processes
    than replicas or usable cores."""
    if R < 2:
        raise RejectedInputError("a replica study needs R >= 2")
    study = ReplicaStudy(float(T), tuple(int(n) for n in n_grid), R, streams,
                         model, init, act, float(alpha))
    procs = min(workers, R, usable_cores())
    chunks = [c.tolist() for c in np.array_split(np.arange(R), max(1, procs))]
    tasks = [(model, init, act, alpha, T, n, chunk, streams)
             for n in study.n_grid for chunk in chunks]
    if procs > 1:
        # imported here: concurrent.futures.process adds about 20 ms to
        # every start-up, and only this branch uses it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            outcomes = list(pool.map(_study_task, tasks))
    else:
        outcomes = [_study_task(t) for t in tasks]
    for key, cloud, max_m in (row for rows in outcomes for row in rows):
        study.clouds[key] = cloud
        study.max_moments[key] = max_m
    return study


# ---------------------------------------------------------------------------
# law-of-large-numbers decay


@dataclass
class LlnTable:
    f_label: str
    n_values: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    slope: float | None     # least squares d log(std) / d log(N)

    def to_csv_rows(self):
        slope = "" if self.slope is None else self.slope
        return "n,mean,std,slope", [
            csv_row(int(n), self.means[i], self.stds[i], slope)
            for i, n in enumerate(self.n_values)]


def lln_decay(study: ReplicaStudy, f: TestFunction) -> LlnTable:
    """Across-replica mean/std of <f, mu^N_T> per N and the log-log slope."""
    if study.R < LLN_MIN_REPLICAS:
        raise RejectedInputError(
            f"slope estimates need R >= {LLN_MIN_REPLICAS}")
    if len(study.n_grid) < LLN_MIN_WIDTHS:
        raise RejectedInputError(
            f"need at least {LLN_MIN_WIDTHS} sizes in the N-grid")
    means, stds = [], []
    for n in study.n_grid:
        vals = study.pairings(f, n)
        means.append(float(np.mean(vals)))
        stds.append(float(np.std(vals, ddof=1)))
    means, stds = np.array(means), np.array(stds)
    slope = None
    if np.all(stds > 0):
        slope = float(np.polyfit(np.log(study.n_grid), np.log(stds), 1)[0])
    return LlnTable(f.label, np.array(study.n_grid, dtype=float), means, stds, slope)


# ---------------------------------------------------------------------------
# drift/fluctuation decomposition of pairing increments
#
# For a fixed test function f, the one-step change of <f, nu_k> splits into
# the first-order terms
#
#   A_k = (1/N) sum_i [df/dc_i * delta c_i + grad_w f_i . delta w_i]
#       = (D1_k + M1_k) + (D2_k + M2_k)
#
# plus a second-order Taylor remainder of size O(1/N^2).  D1/D2 are the
# conditional expectations of the two first-order terms given the current
# state, M1/M2 the leftover innovations: zero-mean, uncorrelated across
# steps.


def _gradients(f: TestFunction, c: np.ndarray, w: np.ndarray):
    """df/dc (R, N) and grad_w f (R, N, d) at every particle of a batch
    c (R, N), w (R, N, d), from one ``f.grad`` call; f acts per particle,
    so the batch is one flat cloud to it."""
    r, n, d = w.shape
    fc, fw = f.grad(c.reshape(-1), w.reshape(-1, d))
    return fc.reshape(r, n), fw.reshape(r, n, d)


def _first_order(fc, fw, x, dc, u) -> tuple[np.ndarray, np.ndarray]:
    """The two first-order terms of one step per replica, (1/N) sum_i fc_i
    dc_i and (1/N) sum_i u_i (fw_i . x), from the gradients of
    ``_gradients``, the sample x (R, d) and the increments dc, u (R, N) of
    ``sgd.step_increments``."""
    return (np.mean(fc * dc, axis=-1),
            np.mean(u * np.matmul(fw, x[..., None])[..., 0], axis=-1))


class _DecompositionObserver:
    """SGD observer estimating, per replica, the second moments of the
    fluctuations M1, M2 from a twin sample.

    At step k it draws one more sample (x', y') from the replica's own
    stream (replica, "twin"), in ``_STREAM_CHUNK`` chunks as training draws
    its own, and takes that sample's increments from the same pre-step
    state through ``sgd.step_increments``, which writes nothing to it.  The
    first-order terms i_k at the training sample and i'_k at the twin are
    then two independent draws given the state, so D_k = i_k - i'_k has
    E[D_k | F_k] = 0 and E[D_k^2 | F_k] = 2 E[M_k^2 | F_k].  Half of
    sum_k D_k^2 estimates the quadratic variation sum_k M_k^2, and half of
    (sum_k D_k)^2 estimates M(T)^2, without bias for pi itself and at
    O(N d) per step.  The training streams are left alone, so every replica
    trains to the bits it has without an observer.

    ``run_default`` hands the observer its batches in order, each from step
    0; a batch takes the next replicas of ``replicas``.
    """

    def __init__(self, f: TestFunction, model: DataModel,
                 streams: RandomStreams, replicas: Sequence[int]):
        self.f, self.model, self.streams = f, model, streams
        self.replicas = [int(r) for r in replicas]
        self.sums = np.zeros((2, len(self.replicas)))  # sum_k D_k
        self.squares = np.zeros((2, len(self.replicas)))  # sum_k D_k^2
        self._batch = slice(0, 0)
        self._rngs, self._chunk = [], None

    def __call__(self, k: int, state, x: np.ndarray, y: np.ndarray,
                 dc: np.ndarray, u: np.ndarray):
        if k == 0:
            lo = self._batch.stop
            self._batch = slice(lo, lo + state.c.shape[0])
            if self._batch.stop > len(self.replicas):
                raise RejectedInputError(
                    f"observer built for {len(self.replicas)} replicas got "
                    f"a batch past them")
            self._rngs = [self.streams.stream(r, purpose="twin")
                          for r in self.replicas[self._batch]]
        if k % _STREAM_CHUNK == 0:
            self._chunk = _draw_chunk(self.model, self._rngs)
        xt, yt = self._chunk(k % _STREAM_CHUNK)
        fc, fw = _gradients(self.f, state.c, state.w)
        dct, ut = step_increments(state, yt, state.preactivations(xt))
        diff = (np.stack(_first_order(fc, fw, x, dc, u))
                - np.stack(_first_order(fc, fw, xt, dct, ut)))
        self.sums[:, self._batch] += diff
        self.squares[:, self._batch] += diff * diff

    def totals(self) -> tuple[np.ndarray, ...]:
        """Per replica: the quadratic variations sum_k M1_k^2 and
        sum_k M2_k^2, then M1(T)^2 and M2(T)^2, each estimated by half the
        twin's.  The sums of D_k run over the steps left to right."""
        qv1, qv2 = self.squares / 2
        end1, end2 = self.sums * self.sums / 2
        return qv1, qv2, end1, end2


@dataclass
class MartingaleTable:
    f_label: str
    n_values: np.ndarray
    m1_sq: np.ndarray        # E[M1(T)^2], quadratic-variation estimate
    m2_sq: np.ndarray
    m1_sq_direct: np.ndarray  # plain across-replica mean of M1(T)^2
    m2_sq_direct: np.ndarray

    def ratio(self, n_small: int, n_large: int, which: int = 1) -> float:
        vals = self.m1_sq if which == 1 else self.m2_sq
        i = list(self.n_values).index(n_small)
        j = list(self.n_values).index(n_large)
        return float(vals[i] / vals[j])

    def to_csv_rows(self):
        return "n,m1_sq,m2_sq,m1_sq_direct,m2_sq_direct", [
            csv_row(int(n), self.m1_sq[i], self.m2_sq[i], self.m1_sq_direct[i],
                    self.m2_sq_direct[i]) for i, n in enumerate(self.n_values)]


def martingale_decay(model: DataModel, init: InitLaw, f: TestFunction,
                     n_grid: Sequence[int], T: float, R: int,
                     streams: RandomStreams, alpha: float = 1.0,
                     act: Activation | None = None) -> MartingaleTable:
    """Second moments of the accumulated fluctuation terms M1(T), M2(T).

    Two estimates per size: the across-replica mean of M(T)^2, and the mean
    total quadratic variation sum_k M_k^2.  They estimate the same number
    (increments are uncorrelated across steps) but the quadratic variation
    averages floor(N*T) terms per run and is far tighter at small R.  Each
    N's replicas train as one ``run_default`` batch, watched by the twin
    observer (``_DecompositionObserver``).
    """
    if R < 1:
        raise RejectedInputError("martingale moments need R >= 1 replicas")
    act = act or activation("tanh")
    schedule = TrainSchedule(float(T))
    replicas, cols = list(range(R)), []
    for n in n_grid:
        obs = _DecompositionObserver(f, model, streams, replicas)
        run_default(model, init, act, alpha, n, schedule, streams,
                    replica=replicas, observer=obs)
        cols.append([float(np.mean(v)) for v in obs.totals()])
    return MartingaleTable(f.label, np.array([int(n) for n in n_grid]),
                           *np.array(cols).reshape(-1, 4).T)


@dataclass
class ReconcileReport:
    """How exactly the first-order terms rebuild actual pairing increments."""

    identity_defect: float    # max |(D1+M1+D2+M2)_k - A_k|, A from real deltas
    taylor_remainder: float   # max |delta<f,nu>_k - A_k|
    n: int
    steps: int


def reconcile_decomposition(model: DataModel, init: InitLaw, f: TestFunction,
                            n: int, T: float, streams: RandomStreams,
                            alpha: float = 1.0,
                            act: Activation | None = None) -> ReconcileReport:
    """Train one replica comparing the decomposition against ground truth.

    The realized first-order terms (D1+M1) + (D2+M2) of each step come from
    the increments the SGD loop hands its observer, as the fluctuation
    observer takes them.  A_k is rebuilt from the actually applied parameter
    deltas, so the check is independent of those formulas; the defect must
    sit at float rounding (<= 1e-10), while the Taylor remainder is genuine
    and shrinks like 1/N^2 per step.  Step k is closed at the next observer
    call, which sees its post-step state, and the last step against the
    final cloud.  Each state is evaluated once: the observer takes <f, nu>
    and the gradients at its pre-step state, and the step's close reuses
    them, so f.value runs steps + 1 times and f.grad steps times.
    """
    act = act or activation("tanh")
    schedule = TrainSchedule(float(T))
    identity = remainder = 0.0
    # the step awaiting its post-step state: (c, w, <f, nu>, df/dc,
    # grad_w f) before it, and its i1 + i2
    pending = []

    def close(c, w) -> float:
        """<f, nu> at (c, w), which closes the pending step."""
        nonlocal identity, remainder
        after = float(np.mean(f.value(c, w)))
        if pending:
            c0, w0, before, fc, fw, realized = pending.pop()
            a_actual = float(np.mean(fc * (c - c0))
                             + np.mean(np.sum(fw * (w - w0), axis=1)))
            identity = max(identity, abs(realized - a_actual))
            remainder = max(remainder, abs((after - before) - a_actual))
        return after

    def observer(k, state, x, y, dc, u):
        before = close(state.c[0], state.w[0])
        fc, fw = _gradients(f, state.c, state.w)
        i1, i2 = _first_order(fc, fw, x, dc, u)
        pending.append((state.c[0].copy(), state.w[0].copy(), before,
                        fc[0], fw[0], float(i1[0] + i2[0])))

    final = run_default(model, init, act, alpha, n, schedule, streams,
                        observer=observer).snapshots[-1][1]
    close(final.c, final.w)
    return ReconcileReport(identity, remainder, n, schedule.n_steps(n))


# ---------------------------------------------------------------------------
# distance to the solved limit


@dataclass
class LimitRow:
    n: int
    t: float
    w1: float                  # mean over replicas, cloud vs solved limit
    gaps: dict                 # f label -> (gap, noise_floor, gap_se)


@dataclass
class LimitTable:
    rows: list

    def gap_series(self, f_label: str, t: float) -> np.ndarray:
        return np.array([r.gaps[f_label][0] for r in self.rows
                         if abs(r.t - t) <= 1e-9])

    def to_csv_rows(self):
        return "n,t,w1,f,gap,noise_floor,gap_se", [
            csv_row(r.n, r.t, r.w1, label, gap, floor, se)
            for r in self.rows for label, (gap, floor, se) in r.gaps.items()]


def limit_distance(study: ReplicaStudy, sol: MeanFieldSolution,
                   fs: Sequence[TestFunction]) -> LimitTable:
    """Per N, at t = T: sliced Wasserstein-1 to the solved limit cloud (one
    method at every N, so the column compares like with like) and pairing
    gaps.

    The noise floor per test function is E|gap| under the hypothesis that
    only sampling noise separates the two sides: replica scatter s_N plus
    the limit cloud's own finite-M standard error, folded through E|normal|
    = sqrt(2/pi) * sd.  gap_se is a seeded bootstrap SE of the mean
    absolute gap.  Each f is evaluated on the limit cloud once, before the
    N loop: its mean is the target pairing and its scatter gives s_mf.
    """
    rows = []
    boot_rng = study.streams.stream(purpose="limit-boot")
    sol_cloud = sol.measure_at(study.T)
    limits = []  # (<f, limit cloud>, its finite-M standard error) per f
    for f in fs:
        fv = f.value(sol_cloud.c, sol_cloud.w)
        limits.append((float(np.mean(fv)),
                       float(np.std(fv, ddof=1) / np.sqrt(sol_cloud.n))))
    for n in study.n_grid:
        w1s = []
        for r in range(study.R):
            mu = study.clouds[(n, r)]
            ref = (sol_cloud if sol_cloud.n == mu.n else
                   resample(sol_cloud, mu.n,
                            study.streams.stream(r, purpose="limit-resample")))
            w1s.append(sliced_wasserstein(mu, ref, p=1))
        gaps = {}
        for f, (target, s_mf) in zip(fs, limits):
            vals = study.pairings(f, n)
            g = vals - target
            gap = float(np.mean(np.abs(g)))
            s_n = float(np.std(vals, ddof=1))
            floor = SQRT_2_OVER_PI * float(np.hypot(s_n, s_mf))
            idx = boot_rng.integers(0, study.R, size=(N_BOOT, study.R))
            boots = np.mean(np.abs(g[idx]), axis=1)
            gaps[f.label] = (gap, floor, float(np.std(boots, ddof=1)))
        rows.append(LimitRow(int(n), study.T, float(np.mean(w1s)), gaps))
    return LimitTable(rows)


# ---------------------------------------------------------------------------
# propagation of chaos


@dataclass
class ChaosTable:
    n_values: np.ndarray
    cov: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray

    def to_csv_rows(self):
        return "n,cov,ci_lo,ci_hi", [
            csv_row(int(n), self.cov[i], self.ci_lo[i], self.ci_hi[i])
            for i, n in enumerate(self.n_values)]


def chaos_table(study: ReplicaStudy, f1: TestFunction, f2: TestFunction,
                R: int) -> ChaosTable:
    """Estimated Cov(f1 of one particle, f2 of another) at the horizon, per
    width of the study's N-grid, over replicas 0..R-1.

    f1(z_i) f2(z_j) is averaged over all ordered pairs i != j, which
    estimates the covariance of any one pair (particles are exchangeable) at
    a fraction of the replica noise.  The 95% CI comes from a seeded
    bootstrap over replicas.

    Replicas the study holds are read; the rest are trained as one
    ``run_default`` batch per N with the study's model, initial law,
    activation, alpha, T and streams.  Below the input width at which
    the SGD loop defers steps (d < 16) the two are bit for bit the same
    clouds.  At wider inputs pending steps are folded into w wherever w is
    read: the study reads it for its moments after every step, and a
    retrain only at its tiles' ends, so the two differ in the last bits.
    """
    if R < CHAOS_MIN_REPLICAS:
        raise RejectedInputError(
            f"chaos estimates need R >= {CHAOS_MIN_REPLICAS}")
    if min(study.n_grid) < 2:
        raise RejectedInputError("chaos needs at least 2 particles")
    schedule = TrainSchedule(study.T)
    held = min(R, study.R)
    out_cov, out_lo, out_hi = [], [], []
    boot_rng = study.streams.stream(purpose="chaos-boot")
    for n in study.n_grid:
        clouds = [study.clouds[(n, r)] for r in range(held)]
        clouds += [res.snapshots[-1][1] for res in run_default(
            study.model, study.init, study.act, study.alpha, n, schedule,
            study.streams, replica=list(range(held, R)))]
        cross, a1, a2 = np.empty(R), np.empty(R), np.empty(R)
        for r, cloud in enumerate(clouds):
            v1 = f1.value(cloud.c, cloud.w)
            v2 = f2.value(cloud.c, cloud.w)
            s1, s2 = float(np.mean(v1)), float(np.mean(v2))
            s12 = float(np.mean(v1 * v2))
            cross[r] = (n * s1 * s2 - s12) / (n - 1)
            a1[r], a2[r] = s1, s2
        out_cov.append(float(np.mean(cross) - np.mean(a1) * np.mean(a2)))
        idx = boot_rng.integers(0, R, size=(N_BOOT, R))
        boots = (np.mean(cross[idx], axis=1)
                 - np.mean(a1[idx], axis=1) * np.mean(a2[idx], axis=1))
        lo, hi = _ci95(boots)
        out_lo.append(lo)
        out_hi.append(hi)
    return ChaosTable(np.array(study.n_grid), np.array(out_cov),
                      np.array(out_lo), np.array(out_hi))


def _ci95(values: np.ndarray) -> list[float]:
    """The 2.5% and 97.5% points of n >= 2 values, in the floats of numpy's
    default (linear) ``np.percentile``: at position p = (n - 1) q of the
    ordered values, with i = floor(p) and t = p - i, v_i + (v_{i+1} - v_i) t,
    or v_{i+1} - (v_{i+1} - v_i)(1 - t) where t >= 1/2.  The values are
    partitioned at the indices ``np.percentile`` partitions at (0, n - 1
    and each i and i + 1), so that even ties of -0 and +0 land as they
    land there.  This keeps its ``np.unique`` call, and the numpy.ma import
    behind it, out of every ``verify``."""
    n = len(values)
    ps = [(n - 1) * q for q in (0.025, 0.975)]
    ks = [math.floor(p) for p in ps]
    v = np.partition(values, sorted({0, n - 1, *ks, *(k + 1 for k in ks)}))
    out = []
    for p, k in zip(ps, ks):
        a, b, t = float(v[k]), float(v[k + 1]), p - k
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def chaos_test(model: DataModel, init: InitLaw, f1: TestFunction,
               f2: TestFunction, n_grid: Sequence[int], T: float, R: int,
               streams: RandomStreams, alpha: float = 1.0,
               act: Activation | None = None) -> ChaosTable:
    """``chaos_table`` over a study of this setup that holds no replica yet,
    so every replica is trained here."""
    study = ReplicaStudy(float(T), tuple(int(n) for n in n_grid), 0, streams,
                         model, init, act or activation("tanh"), float(alpha))
    return chaos_table(study, f1, f2, R)


# ---------------------------------------------------------------------------
# moment-guard boundedness


@dataclass
class MomentTable:
    n_values: np.ndarray
    max_guard: np.ndarray     # per N, replica-mean of max_t moment_guard
    se: np.ndarray            # per N, standard error of that mean

    @property
    def spread(self) -> float:
        return float(np.max(self.max_guard) / np.min(self.max_guard))

    @property
    def increasing(self) -> bool:
        """True only for a statistically meaningful growth trend.

        The bound being probed is uniform in N, so a finite-size correction
        that approaches the limit from below is fine; we flag growth only
        when the values rise monotonically AND the total rise exceeds three
        times its joint sampling error.
        """
        g = self.max_guard
        if not np.all(np.diff(g) > 0):
            return False
        joint = float(np.hypot(self.se[0], self.se[-1]))
        return bool(g[-1] - g[0] > 3.0 * joint)

    def to_csv_rows(self):
        return "n,max_moment_guard,se", [
            csv_row(int(n), self.max_guard[i], self.se[i])
            for i, n in enumerate(self.n_values)]


def moment_bound(study: ReplicaStudy) -> MomentTable:
    """Replica-mean of the run-max parameter moment per network size."""
    vals, ses = [], []
    for n in study.n_grid:
        per = [study.max_moments[(n, r)] for r in range(study.R)]
        if any(v is None for v in per):
            raise RejectedInputError("study was run without moment recording")
        vals.append(float(np.mean(per)))
        ses.append(float(np.std(per, ddof=1) / np.sqrt(len(per))))
    return MomentTable(np.array(study.n_grid, dtype=int), np.array(vals),
                       np.array(ses))
