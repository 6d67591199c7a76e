"""Domain types shared by every module: activations, bounded test functions,
the divergence guard, and the deterministic randomness contract.

Conventions used across the package:

* a "cloud" of ``n`` particles is a pair of arrays ``c`` of shape ``(n,)`` and
  ``w`` of shape ``(n, d)``;
* evaluators are pure, vectorized over particles, and safe to share;
* everything that consumes randomness takes a ``numpy.random.Generator``
  obtained from :class:`RandomStreams`, never global state.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np


class RejectedInputError(ValueError):
    """An operation received input violating its stated preconditions."""


class ConfigError(ValueError):
    """A configuration value is outside the supported whitelist or malformed."""


class DivergedError(RuntimeError):
    """A run produced non-finite or absurdly large parameters: at ``step``,
    and in ``replica`` where a batch of replicas sets it."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
        self.replica: int | None = None


#: largest |parameter| a run may reach before it counts as diverged
DIVERGENCE_LIMIT = 1e12


def max_abs(a: np.ndarray) -> float:
    """max |a| as max(a.max(), -a.min()), which makes no |a| temporary; NaN
    when ``a`` holds a NaN, since max and min both propagate it."""
    return float(max(a.max(), -a.min()))


def usable_cores() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def check_alpha(alpha: float) -> float:
    """The learning rate ``alpha``, refused when it is negative or NaN."""
    if not alpha >= 0:
        raise RejectedInputError("alpha must be >= 0")
    return alpha


def guard_divergence(step: int, *arrays: np.ndarray) -> float:
    """Raise ``DivergedError`` at ``step`` when any entry of ``arrays`` is
    not finite or exceeds ``DIVERGENCE_LIMIT`` in magnitude; otherwise
    return the largest magnitude, the run's headroom to the limit."""
    big = 0.0
    for a in arrays:
        m = max_abs(a)
        if not m <= DIVERGENCE_LIMIT:
            raise DivergedError(
                f"parameters exceeded {DIVERGENCE_LIMIT:g} at step {step}",
                step=step)
        big = max(big, m)
    return big


# ---------------------------------------------------------------------------
# activations


@dataclass(frozen=True)
class Activation:
    """A twice continuously differentiable, bounded activation.

    ``value`` and ``deriv`` evaluate sigma and sigma' elementwise on arrays
    (not on scalars).  Where sigma' is a polynomial in sigma
    (``deriv_poly``), ``deriv`` is not given but built as that polynomial
    of sigma(z), and ``deriv_from_value`` gives it from sigma alone.
    ``value``, ``deriv`` and ``deriv_from_value`` take an optional ``out=``
    array in the ufunc convention and then make no temporary of the
    argument's size (but for one where sigma' has a linear term in sigma,
    as logistic's does); ``deriv_from_value`` may write over its own
    argument (``out=v``).
    """

    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False)
    #: (a0, a1, a2) with sigma' = a0 + a1 sigma + a2 sigma^2, where sigma'
    #: is such a polynomial in sigma; lets large kernels skip a second
    #: transcendental pass and fold sigma' into their products
    deriv_poly: tuple[float, float, float] | None = None
    #: sigma'(z) as a function of v = sigma(z), built from ``deriv_poly``
    deriv_from_value: Callable[[np.ndarray], np.ndarray] | None = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        dfv = None
        if self.deriv_poly is not None:
            dfv = partial(_poly_deriv, self.deriv_poly)
            object.__setattr__(self, "deriv",
                               partial(_poly_of_value, self.value, dfv))
        object.__setattr__(self, "deriv_from_value", dfv)


def _poly_deriv(coef: tuple[float, float, float], v, out=None):
    """sigma' = a0 + v (a1 + a2 v) from v = sigma for coef = (a0, a1, a2),
    in that order, and as a0 + (v v) a2 in place over v when a1 = 0; zero
    coefficients are skipped.  For tanh (1, 0, -1) these are the floats of
    1 - v*v, for logistic (0, 1, -1) those of v*(1 - v)."""
    a0, a1, a2 = coef
    if a1:
        inner = a2 * v  # one temporary: v is still needed below
        inner += a1
        out = np.multiply(v, inner, out=out)
    else:
        out = np.multiply(v, v, out=out)  # out may be v itself
        out *= a2
    if a0:
        out += a0
    return out


def _poly_of_value(value: Callable, dfv: Callable, z, out=None):
    """sigma'(z) as ``dfv`` of sigma = ``value``(z), both written into
    ``out`` when given."""
    return dfv(value(z, out=out), out=out)


#: sigma' of tanh as a polynomial in sigma: 1 - tanh^2
_TANH_POLY = (1.0, 0.0, -1.0)


def _logistic(z, out=None):
    """sigma = 1 / (1 + e^-z), written into ``out`` when given, which may
    be z.  For z below about -709 (-88 in float32) e^-z overflows to inf
    and sigma is exactly 0, so that overflow is not reported."""
    with np.errstate(over="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _bump(z, out=None):
    """sigma = exp((-0.5 z) z), written into ``out`` when given, which must
    not be z."""
    out = np.multiply(-0.5, z, out=out)
    np.multiply(out, z, out=out)
    return np.exp(out, out=out)


def _bump_d1(z, out=None):
    """sigma' = -(sigma(z) z), written into ``out`` when given, which must
    not be z."""
    out = _bump(z, out=out)
    np.multiply(out, z, out=out)
    return np.negative(out, out=out)


def activation(kind: str) -> Activation:
    """Build one of the whitelisted smooth bounded activations.

    Only activations with bounded value, first and second derivative are
    admissible; ``relu`` is rejected because it is not twice differentiable
    and its value is unbounded, which breaks every estimate this package is
    built to check.
    """
    if kind == "relu":
        raise ConfigError(
            "relu is not admissible: it is unbounded and not twice "
            "continuously differentiable; choose one of tanh, logistic, "
            "smooth-bump"
        )
    if kind == "tanh":
        return Activation("tanh", np.tanh, deriv_poly=_TANH_POLY)
    if kind == "logistic":
        return Activation("logistic", _logistic, deriv_poly=(0.0, 1.0, -1.0))
    if kind == "smooth-bump":
        return Activation("smooth-bump", _bump, _bump_d1)
    raise ConfigError(f"unknown activation kind {kind!r}")


def activation_deriv(act: Activation, z: np.ndarray, v: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """sigma'(z) given v = sigma(z): the algebraic shortcut from v when the
    activation has one, else a fresh evaluation at z.  ``out`` may be ``v``;
    without a shortcut it must not be ``z``."""
    if act.deriv_from_value is not None:
        return act.deriv_from_value(v, out=out)
    return act.deriv(z, out=out)


# ---------------------------------------------------------------------------
# network evaluation


def mean_output(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The network output g = (1/n) sum_i c_i s_i for each row of
    s = sigma(w x) (..., n), with c (n,) for every row or one row of c per
    row of s.  Each row takes one BLAS dot, the floats of (s @ c) / n:
    the SGD step and the ``teacher_mean`` labels both sum here, so a
    network trained on its own outputs sees y - g = 0 exactly."""
    return np.matmul(s[..., None, :], c[..., :, None])[..., 0, 0] / c.shape[-1]


#: input width from which SGD takes w x a tile of steps at a time and defers
#: its weight updates; narrower inputs apply each step at once
_DEFER_MIN_D = 16
#: steps per tile: tiles are aligned to the 4096-sample chunks the samples
#: are drawn in, 64 to a chunk, and a deferred w is folded at least per tile
_DEFER_BLOCK = 64


def tile_preactivations(w: np.ndarray, x: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """w x for every sample of a tile x (k, d), as the (k, n) product
    x w^T by one GEMM, written into ``out`` when given.

    Row j is sample j's z.  A GEMM's bits may depend on its column count,
    so at d >= ``_DEFER_MIN_D`` the SGD step and the ``teacher_mean`` labels
    of ``data.conditional_mean`` both take z from here over full tiles of
    ``_DEFER_BLOCK`` rows aligned to the sample chunk: a network trained on
    its own outputs then sees y - g = 0 exactly."""
    return np.matmul(x, w.T, out=out)


# ---------------------------------------------------------------------------
# test functions
#
# Raw moments like c or c*w_1 are unbounded, so every test function is built
# from a smooth clamp that is the identity on [-a, a] and saturates at a + b:
#
#     psi(u) = u                                   for |u| <= a
#     psi(u) = sign(u) * (a + b*tanh((|u|-a)/b))   otherwise
#
# psi matches value, slope 1 and curvature 0 at the seam, so it is C^2 with
# |psi| <= a+b, |psi'| <= 1, |psi''| <= sup|tanh''|/b.  Inside [-a, a] the
# clamp is exactly inactive (returns u itself, same floats).


def _clamp_value(u, a, b):
    u = np.asarray(u, dtype=np.float64)
    inside = np.abs(u) <= a
    t = np.tanh((np.abs(u) - a) / b)
    return np.where(inside, u, np.sign(u) * (a + b * t))


def _clamp_d1(u, a, b):
    u = np.asarray(u, dtype=np.float64)
    inside = np.abs(u) <= a
    z = (np.abs(u) - a) / b
    return np.where(inside, 1.0, _poly_deriv(_TANH_POLY, np.tanh(z)))


@dataclass(frozen=True)
class TestFunction:
    """A bounded C^2 function of one particle, with its gradient.

    Evaluators take ``c`` of shape (n,) and ``w`` of shape (n, d).
    ``value`` returns f (n,); ``grad`` returns both partials from one pass,
    the pair (df/dc (n,), grad_w f (n, d)).  ``d`` is the pinned input
    dimension, or ``None`` when the function applies to any d.
    """

    label: str
    value: Callable
    grad: Callable
    d: int | None = None


def _clamped_monomial(label: str, c_exp: int, w_exps: dict[int, int],
                      d: int | None, a: float, b: float) -> TestFunction:
    """psi(c^c_exp * prod_j w_j^e_j) over the axes ``w_exps`` = {j: e_j}
    of nonzero exponent.  Every other axis enters as w_j^0 = 1, so it is
    never read and its gradient, like df/dc when c_exp = 0, is exactly +0;
    the named factors are multiplied in increasing j, which gives the floats
    of the product over all d axes.  ``d`` pins the input width, or is None
    for any width when no axis is named."""
    axes = sorted(w_exps.items())

    def parts(c, w):
        if d is not None and w.shape[1] != d:
            raise RejectedInputError(f"test function pinned to d={d}")
        cf = c ** c_exp
        wf = [w[:, j] ** e for j, e in axes]
        return cf, wf, cf * math.prod(wf)

    def value(c, w):
        return _clamp_value(parts(c, w)[2], a, b)

    def grad(c, w):
        cf, wf, p = parts(c, w)
        d1 = _clamp_d1(p, a, b)
        gc = (d1 * (c_exp * c ** (c_exp - 1)) * math.prod(wf) if c_exp
              else np.zeros_like(c))
        d1 = d1 * cf
        gw = np.zeros_like(w)
        for i, (j, e) in enumerate(axes):
            gw[:, j] = (d1 * (e * w[:, j] ** (e - 1))
                        * math.prod(wf[:i] + wf[i + 1:]))
        return gc, gw

    return TestFunction(label, value, grad, d=d)


def smoothed_coordinate(a: float = 4.0, b: float = 2.0) -> TestFunction:
    """psi applied to the coordinate c: the clamped first moment of c, for
    any d; it reads only c."""
    return _clamped_monomial("psi(c)", 1, {}, None, a, b)


def clamped_polynomial(c_exp: int, w_exps: Sequence[int], a: float = 4.0,
                       b: float = 2.0) -> TestFunction:
    """psi applied to the monomial c^c_exp * prod_j w_j^w_exps[j], pinned to
    d = len(w_exps); it reads only the axes of nonzero exponent, so its cost
    grows with their count, not with d."""
    named = {j: e for j, e in enumerate(map(int, w_exps)) if e}
    pieces = ([f"c^{c_exp}"] if c_exp else []) + [
        f"w{j + 1}^{e}" for j, e in named.items()]
    label = "psi(" + ("*".join(pieces) or "1") + ")"
    return _clamped_monomial(label, c_exp, named, len(w_exps), a, b)


def gaussian_bump(center_c: float, center_w: Sequence[float],
                  scale: float = 1.5) -> TestFunction:
    """exp(-||(c, w) - center||^2 / (2 scale^2)); bounded with all derivatives."""
    cw = np.asarray(center_w, dtype=np.float64)
    d = cw.shape[0]
    s2 = float(scale) ** 2
    label = f"bump(s={scale:g})"

    def offsets(c, w):
        if w.shape[1] != d:
            raise RejectedInputError(f"test function pinned to d={d}")
        dc = c - center_c
        dw = w - cw
        return dc, dw, np.exp(-0.5 * (dc * dc + np.sum(dw * dw, axis=1)) / s2)

    def value(c, w):
        return offsets(c, w)[2]

    def grad(c, w):
        dc, dw, f = offsets(c, w)
        return -dc / s2 * f, -dw / s2 * f[:, None]

    return TestFunction(label, value, grad, d=d)


def constant_one() -> TestFunction:
    """f = 1, the clamped empty monomial: pairing against any probability
    measure is exactly 1."""
    return _clamped_monomial("1", 0, {}, None, 4.0, 2.0)


def default_test_functions(d: int) -> list[TestFunction]:
    """The three probes used by the verification studies: a clamped first
    moment of c, a clamped c*w_1 coupling, and a Gaussian bump at the
    origin.  Under the default initial law ||w||^2 is about d, so the bump's
    scale is 1.5 sqrt(d / 2): 1.5 at d = 2, and at any d a pairing with a
    default-init cloud of order one rather than an underflowed zero."""
    return [
        smoothed_coordinate(),
        clamped_polynomial(1, (1,) + (0,) * (d - 1)),
        gaussian_bump(0.0, np.zeros(d), scale=1.5 * math.sqrt(d / 2)),
    ]


# ---------------------------------------------------------------------------
# randomness


@dataclass(frozen=True)
class RandomStreams:
    """Counter-based splittable randomness: one 64-bit seed, many streams.

    ``stream(*ids, purpose=...)`` derives an independent Philox generator from
    (seed, ids..., crc32(purpose)); the same key always yields the same draws,
    distinct keys yield statistically independent streams.  Modules key their
    streams by structured ids (replica index, network size, ...) plus a short
    purpose tag ("init", "data", "quadrature", ...), so no draw depends on
    call ordering elsewhere in the program.
    """

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    def stream(self, *ids: int, purpose: str = "") -> np.random.Generator:
        key = tuple(int(i) for i in ids)
        if purpose:
            key = key + (zlib.crc32(purpose.encode("utf-8")),)
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
        return np.random.Generator(np.random.Philox(ss))
