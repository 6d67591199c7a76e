"""Empirical-measure algebra: uniform point clouds over parameter space,
test-function pairing, histograms, and truncated Wasserstein distances with a
brute-force oracle for tiny instances.

Distances use the ground cost min(||.||_p^p, 1) on the joint (c, w) space.
``wasserstein`` solves instances up to ``EXACT_LIMIT`` atoms exactly as an
assignment problem; larger instances fall back to ``sliced_wasserstein``, a
sliced (1-D projected, sorted coupling) estimate that is debiased so
axis-like displacements are reported on the exact solver's scale, then
truncated at the aggregate level.  The per-pair truncation has no sliced
analogue, so the two modes are only calibrated, not identical: the atom
count alone says which mode produced a number, and a table over sizes that
must compare like with like calls ``sliced_wasserstein`` at every size.

It also holds the one CSV format of every artifact: ``csv_row`` writes a
row's cells (floats through ``fmt_float``), and ``write_csv`` writes the
config-hash line and the header, then streams the rows to the file.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._blas import pin_one_thread
from .core import RejectedInputError, TestFunction, max_abs

EXACT_LIMIT = 256
SLICES = 64
_SLICE_ENTROPY = 0x51D_EC0DE  # fixed: sliced directions are part of the method


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form; used by every CSV writer."""
    return repr(float(x))


def csv_row(*cells) -> str:
    """One CSV row: floats as ``fmt_float`` writes them, ints and labels as
    ``str`` does (an int count is ``100``, never ``100.0``)."""
    return ",".join(fmt_float(cell) if isinstance(cell, (float, np.floating))
                    else str(cell) for cell in cells)


def write_csv(path, header: str, rows, config_hash: str):
    """The one CSV frame: a ``# config_hash=`` comment line, ``header``, then
    ``rows`` (strings without a newline), each written as it comes, so a
    generator of rows is never held whole."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n{header}\n")
        for row in rows:
            fh.write(row + "\n")


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic measure (1/n) sum_i delta_{(c_i, w_i)}."""

    c: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        if c.ndim != 1 or w.ndim != 2 or w.shape[0] != c.shape[0] or w.shape[1] < 1:
            raise RejectedInputError(
                f"need c (n,) and w (n, d); got {c.shape} and {w.shape}")
        if c.shape[0] < 1:
            raise RejectedInputError("a measure needs at least one atom")
        if not (math.isfinite(max_abs(c)) and math.isfinite(max_abs(w))):
            raise RejectedInputError("atoms must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def joint(self) -> np.ndarray:
        """Atoms as rows of a (n, 1+d) array on the joint (c, w) space."""
        return np.concatenate([self.c[:, None], self.w], axis=1)


def pair(f: TestFunction, mu: EmpiricalMeasure) -> float:
    """<f, mu> = (1/n) sum_i f(c_i, w_i)."""
    if f.d is not None and f.d != mu.d:
        raise RejectedInputError(
            f"test function expects d={f.d}, measure has d={mu.d}")
    return float(np.mean(f.value(mu.c, mu.w)))


def resample(mu: EmpiricalMeasure, n: int, rng: np.random.Generator) -> EmpiricalMeasure:
    """Seeded bootstrap of ``mu`` down (or up) to ``n`` atoms."""
    if n < 1:
        raise RejectedInputError("resample needs n >= 1")
    idx = rng.integers(0, mu.n, size=n)
    return EmpiricalMeasure(mu.c[idx], mu.w[idx])


# ---------------------------------------------------------------------------
# Wasserstein distances


def _pair_costs(za: np.ndarray, zb: np.ndarray, p: int) -> np.ndarray:
    diff = np.abs(za[:, None, :] - zb[None, :, :])
    if p == 1:
        c = diff.sum(axis=2)
    elif p == 2:
        c = (diff * diff).sum(axis=2)
    else:
        d2 = diff * diff
        c = (d2 * d2).sum(axis=2)
    return np.minimum(c, 1.0)


def _check_pair(a: EmpiricalMeasure, b: EmpiricalMeasure, p: int):
    if p not in (1, 2, 4):
        raise RejectedInputError("p must be one of 1, 2, 4")
    if a.d != b.d:
        raise RejectedInputError("measures live on different dimensions")
    if a.n != b.n:
        raise RejectedInputError(
            "equal atom counts required; use resample() to equalize first")


def sliced_debias_factor(p: int, dim: int) -> float:
    """E|<u, theta>|^p = factor * ||u||_2^p for theta uniform on the sphere.

    The gamma ratio goes through log-gamma: gamma(dim / 2) alone overflows a
    float from dim = 343 on."""
    return math.exp(math.lgamma((p + 1) / 2) + math.lgamma(dim / 2)
                    - math.lgamma((dim + p) / 2)) / math.sqrt(math.pi)


@functools.cache
def _slice_directions(dim: int) -> np.ndarray:
    """The fixed unit directions of ``sliced_wasserstein`` on a dim-wide
    joint space, as a read-only (SLICES, dim) array drawn once per dim."""
    ss = np.random.SeedSequence(entropy=_SLICE_ENTROPY, spawn_key=(dim, SLICES))
    g = np.random.Generator(np.random.Philox(ss))
    th = g.standard_normal((SLICES, dim))
    th /= np.linalg.norm(th, axis=1, keepdims=True)
    th.flags.writeable = False
    return th


def sliced_wasserstein(a: EmpiricalMeasure, b: EmpiricalMeasure,
                       p: int) -> float:
    """Sliced p-Wasserstein estimate under cost min(||.||_p^p, 1): sorted
    couplings along ``SLICES`` fixed directions, debiased and truncated at
    the aggregate level.  One method at every atom count, so a table of
    distances over sizes compares like with like."""
    _check_pair(a, b, p)
    za, zb = a.joint(), b.joint()
    th = _slice_directions(za.shape[1])
    pa = np.sort(za @ th.T, axis=0)
    pb = np.sort(zb @ th.T, axis=0)
    diff = np.abs(pa - pb)
    mean_p = float(np.mean(diff ** p))
    debiased = mean_p / sliced_debias_factor(p, za.shape[1])
    return min(debiased, 1.0) ** (1.0 / p)


def wasserstein(a: EmpiricalMeasure, b: EmpiricalMeasure,
                p: int = 2) -> float:
    """p-Wasserstein distance under cost min(||.||_p^p, 1).

    Exact optimal assignment up to ``EXACT_LIMIT`` atoms,
    ``sliced_wasserstein`` beyond.
    """
    _check_pair(a, b, p)
    if a.n > EXACT_LIMIT:
        return sliced_wasserstein(a, b, p)
    cost = _pair_costs(a.joint(), b.joint(), p)
    rows, cols = _linear_sum_assignment()(cost)
    return float(np.mean(cost[rows, cols])) ** (1.0 / p)


@functools.cache
def _linear_sum_assignment():
    """scipy's exact assignment, imported at first use: ``scipy.optimize``
    adds about 0.13 s to every start-up, and it loads scipy's own OpenBLAS,
    which ``pin_one_thread`` starts at one thread like numpy's."""
    return pin_one_thread("scipy.optimize").linear_sum_assignment


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n) as a read-only (n!, n) index array."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms.flags.writeable = False
    return perms


def wasserstein_bruteforce(a: EmpiricalMeasure, b: EmpiricalMeasure,
                           p: int = 2) -> float:
    """Exhaustive minimum over all atom permutations; oracle for n <= 8."""
    _check_pair(a, b, p)
    if a.n > 8:
        raise RejectedInputError("brute force is limited to n <= 8")
    cost = _pair_costs(a.joint(), b.joint(), p)
    best = float(np.min(np.mean(cost[np.arange(a.n), _permutations(a.n)],
                                axis=1)))
    return best ** (1.0 / p)


# ---------------------------------------------------------------------------
# histograms


@dataclass(frozen=True)
class Histogram1D:
    """Equal-width counts of one scalar readout of a cloud."""

    edges: np.ndarray
    counts: np.ndarray
    selector: str

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise RejectedInputError("need len(edges) == len(counts) + 1")
        if not np.all(np.diff(edges) > 0):
            raise RejectedInputError("edges must be strictly increasing")
        if np.any(counts < 0):
            raise RejectedInputError("counts must be nonnegative")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def histogram(mu: EmpiricalMeasure, selector: str = "c",
              bins: int = 10) -> Histogram1D:
    """Equal-width histogram of c (``selector`` "c", the only one).

    All-equal data cannot span a range; it degenerates to a single bin padded
    by 0.5 on each side of the common value.
    """
    if bins < 2:
        raise RejectedInputError("bins must be >= 2")
    if selector != "c":
        raise RejectedInputError(f"unknown selector {selector!r}")
    lo, hi = float(np.min(mu.c)), float(np.max(mu.c))
    if lo == hi:
        edges = np.array([lo - 0.5, lo + 0.5])
    else:
        edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(mu.c, bins=edges)
    return Histogram1D(edges, counts, "c")


def histogram_w1(h1: Histogram1D, h2: Histogram1D) -> float:
    """Plain 1-D Wasserstein-1 between two histograms, atoms at midpoints."""
    if h1.n == 0 or h2.n == 0:
        raise RejectedInputError("histograms must be non-empty")
    pts = np.concatenate([h1.midpoints(), h2.midpoints()])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    delta = np.concatenate([h1.counts / h1.n, -h2.counts / h2.n])[order]
    cdf_gap = np.cumsum(delta)[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(pts)))


def write_histogram_csv(h: Histogram1D, path, config_hash: str):
    rows = map(csv_row, h.edges[:-1], h.edges[1:], h.counts)
    write_csv(path, "edge_lo,edge_hi,count", rows, config_hash)
