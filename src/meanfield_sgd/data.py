"""Sample streams for the training distribution pi(dx, dy) and for particle
initialization, plus an IDX-format MNIST ingester reduced to binary digit-pair
regression.

Synthetic models keep every moment assumption checkable by construction:
inputs are uniform on the cube [-1, 1]^d, targets are bounded teacher outputs
plus bounded uniform noise, and initial output weights are uniform on an
interval (compact support, so every exponential moment is finite).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (_DEFER_BLOCK, _DEFER_MIN_D, Activation, ConfigError,
                   RejectedInputError, activation, mean_output,
                   tile_preactivations)
from .measure import EmpiricalMeasure

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """An IDX file does not follow the big-endian MNIST layout."""


@dataclass(frozen=True)
class Batch:
    """n samples: inputs ``x`` of shape (n, d) and targets ``y`` of shape (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise RejectedInputError("batch needs x (n, d) and y (n,)")


@dataclass(frozen=True, eq=False)
class DataModel:
    """A reproducible law pi(dx, dy).

    kind "teacher-network": y = teacher(x) + noise, teacher a small fixed
    network; with ``teacher_mean=True`` the teacher averages its units in
    the same floats as the SGD step's network output, so a cloud that
    equals the teacher reproduces y bit for bit (the interpolation fixed
    point): z as the SGD step forms it, then ``core.mean_output``
    (``conditional_mean``).
    kind "noisy-polynomial": y = a0 + a1.x + a2.x^2 + noise.
    kind "mnist-binary": ``images`` holds the pixels once, as uint8 bytes
    (n, d), and a draw scales its image to x in [0,1]^d (``_pixels``); y in
    {-1, +1}.  Synthetic inputs are uniform on the cube [-1, 1]^d.
    """

    kind: str
    d: int
    noise_scale: float = 0.0
    activation: Activation | None = None
    teacher_c: np.ndarray | None = None
    teacher_w: np.ndarray | None = None
    teacher_mean: bool = False
    poly: tuple | None = None
    images: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("teacher-network", "noisy-polynomial", "mnist-binary"):
            raise ConfigError(f"unknown data model kind {self.kind!r}")
        if self.kind != "mnist-binary" and self.noise_scale < 0:
            raise ConfigError("noise scale must be >= 0")
        if self.kind == "teacher-network":
            if self.teacher_c is None or self.teacher_w is None or self.activation is None:
                raise ConfigError("teacher-network needs units and an activation")
            if self.teacher_w.shape != (self.teacher_c.shape[0], self.d):
                raise ConfigError("teacher unit shapes disagree with d")
        if self.kind == "mnist-binary":
            if self.images is None or self.labels is None:
                raise ConfigError("mnist-binary needs images and labels")
            pixels = self.images
            if pixels.dtype != np.uint8 or pixels.shape[1:] != (self.d,):
                raise ConfigError("mnist-binary images must be uint8 pixel "
                                  "bytes of shape (n, d)")


def teacher_network(d: int = 2, act: Activation | None = None,
                    units: tuple[np.ndarray, np.ndarray] | None = None,
                    noise_scale: float = 0.0) -> DataModel:
    """Teacher model y = sum_j a_j sigma(b_j . x) + noise*U[-1, 1]."""
    act = act or activation("tanh")
    if units is None:
        if d != 2:
            raise ConfigError("built-in teacher units exist only for d=2; "
                              "pass units=(a, B) explicitly")
        units = (np.array([1.2, -0.8, 0.5]),
                 np.array([[0.7, -0.4], [-0.3, 0.9], [1.1, 0.6]]))
    a, B = np.asarray(units[0], dtype=np.float64), np.asarray(units[1], dtype=np.float64)
    return DataModel("teacher-network", d, noise_scale, act, a, B)


def default_model(noise_scale: float = 0.25) -> DataModel:
    """The standard d=2 tanh teacher with bounded label noise."""
    return teacher_network(noise_scale=noise_scale)


def from_network(cloud, act: Activation,
                 noise_scale: float = 0.0) -> DataModel:
    """Teacher that IS the given network (mean over atoms, same code path)."""
    c = np.asarray(cloud.c, dtype=np.float64).copy()
    w = np.asarray(cloud.w, dtype=np.float64).copy()
    return DataModel("teacher-network", w.shape[1], noise_scale, act, c, w,
                     teacher_mean=True)


def noisy_polynomial(d: int, const: float = 0.0,
                     lin: Sequence[float] | None = None,
                     quad: Sequence[float] | None = None,
                     noise_scale: float = 0.1) -> DataModel:
    if d < 1:
        raise ConfigError(f"d={d}: a polynomial model needs d >= 1")
    lin = np.zeros(d) if lin is None else np.asarray(lin, dtype=np.float64)
    quad = np.zeros(d) if quad is None else np.asarray(quad, dtype=np.float64)
    if lin.shape != (d,) or quad.shape != (d,):
        raise ConfigError("polynomial coefficients must have length d")
    return DataModel("noisy-polynomial", d, noise_scale,
                     poly=(float(const), lin, quad))


def conditional_mean(model: DataModel, x: np.ndarray) -> np.ndarray:
    """E[y | x] for synthetic models (noise has mean zero).

    A ``teacher_mean`` teacher's labels go in tiles of ``_DEFER_BLOCK`` rows
    of x from its first row, z formed as the SGD step forms it: one
    matrix-vector product per sample below ``_DEFER_MIN_D``, and from it on
    one ``core.tile_preactivations`` GEMM per tile, the tiles the step takes
    its z from, since a GEMM's bits may depend on its column count.  Each
    row's output is then ``core.mean_output``, the step's own sum."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if model.kind == "teacher-network":
        c, w, act = model.teacher_c, model.teacher_w, model.activation
        if not model.teacher_mean:
            return act.value(x @ w.T) @ c
        y = np.empty(len(x))
        for lo in range(0, len(x), _DEFER_BLOCK):
            tile = x[lo:lo + _DEFER_BLOCK]
            z = (tile_preactivations(w, tile) if model.d >= _DEFER_MIN_D
                 else np.matmul(w, tile[:, :, None])[..., 0])
            y[lo:lo + len(tile)] = mean_output(c, act.value(z))
        return y
    if model.kind == "noisy-polynomial":
        a0, a1, a2 = model.poly
        return a0 + x @ a1 + (x * x) @ a2
    raise ConfigError("conditional mean is undefined for mnist-binary")


def sample_data(model: DataModel, rng: np.random.Generator, n: int) -> Batch:
    """n i.i.d. draws from pi; deterministic given the generator state."""
    if n < 1:
        raise RejectedInputError("need n >= 1 samples")
    if model.kind == "mnist-binary":
        idx = _draw_indices(model, rng, n)
        return Batch(_pixels(model, idx), model.labels[idx])
    x = rng.uniform(-1.0, 1.0, size=(n, model.d))
    y = conditional_mean(model, x)
    if model.noise_scale > 0:
        y = y + model.noise_scale * rng.uniform(-1.0, 1.0, size=n)
    return Batch(x, y)


def _draw_indices(model: DataModel, rng: np.random.Generator, n: int
                 ) -> np.ndarray:
    """n image indices of an image model: the one draw behind its samples."""
    return rng.integers(0, model.images.shape[0], size=n)


def _pixels(model: DataModel, idx, out: np.ndarray | None = None
            ) -> np.ndarray:
    """The float64 inputs in [0, 1] of the images ``idx``, scaled from the
    stored bytes at each draw, written into ``out`` when given."""
    return np.divide(model.images[idx], 255.0, out=out)


# ---------------------------------------------------------------------------
# initialization laws

_INIT_BLOCK = 1 << 16  # uniforms per row block drawn by sample_init


@dataclass(frozen=True)
class InitLaw:
    """Law of one initial particle (c_0, w_0): c uniform on the interval
    ``c_params`` = (lo, hi), so it has compact support and every exponential
    moment; w gaussian with standard deviation ``w_scale`` per coordinate.
    """

    d: int
    c_params: tuple = (-1.0, 1.0)
    w_scale: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        lo, hi = self.c_params
        if not lo <= hi:
            raise ConfigError("uniform interval needs lo <= hi")
        if self.w_scale <= 0:
            raise ConfigError("w scale must be > 0")


def default_init(d: int) -> InitLaw:
    return InitLaw(d=d)


def sample_init(law: InitLaw, rng: np.random.Generator, n: int) -> EmpiricalMeasure:
    """n i.i.d. particles as a cloud: c of shape (n,) and w of shape (n, d).

    All coordinates come from one uniform block, one row per particle, pushed
    through inverse CDFs.  Because each particle consumes a fixed number of
    draws, the first n particles sampled at a larger size coincide with the
    n-particle sample from the same generator state: nested sizes are coupled
    by common random numbers, which is what keeps across-N trend comparisons
    quiet.

    The uniforms are drawn in row blocks, the same stream as one (n, width)
    draw, and mapped in place into c and w, so no temporary of w's size is
    made.
    """
    c, w = _sample_clouds(law, [rng], n)
    return EmpiricalMeasure(c[0], w[0])


def _sample_clouds(law: InitLaw, rngs: list, n: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One cloud of n particles per generator, written into c (R, n) and w
    (R, n, d): the sampler behind ``sample_init`` and the replica batches of
    ``sgd.run_default``, so both draw the same uniform blocks."""
    if n < 1:
        raise RejectedInputError("need n >= 1 particles")
    width = 1 + law.d
    c, w = np.empty((len(rngs), n)), np.empty((len(rngs), n, law.d))
    rows = max(1, _INIT_BLOCK // width)
    for r, rng in enumerate(rngs):
        for lo in range(0, n, rows):
            u = rng.random((min(rows, n - lo), width))
            _map_init(law, u, c[r, lo:lo + rows], w[r, lo:lo + rows])
    return c, w


def _map_init(law: InitLaw, u: np.ndarray, c: np.ndarray, w: np.ndarray):
    """Push one block of uniforms through the inverse CDFs into c and w.

    c = lo + (hi - lo) u; w = w_scale * ndtri(u) on the uniforms raised to
    at least tiny, so every w is finite.  ``Generator.random`` draws from
    [0, 1 - 2**-53], so only an exact 0 needs mending.  The bound writes
    into w and ``ndtri`` maps w in place, cache-sized sub-block by
    sub-block, so the map makes no temporary of w's size.
    """
    lo, hi = law.c_params
    np.multiply(hi - lo, u[:, 0], out=c)
    c += lo
    np.maximum(u[:, 1:], np.finfo(np.float64).tiny, out=w)
    ndtri(w)
    w *= law.w_scale


# The inverse standard normal CDF: the rational approximations of Cephes'
# ndtri (Moshier), evaluated in its order of operations.  Central region
# e^-2 < u <= 1 - e^-2: x = sqrt(2 pi) (y + y y2 P0(y2) / Q0(y2)) with
# y = u - 1/2, y2 = y^2.  Tails: with y the smaller of u and 1 - u and
# x = sqrt(-2 log y), the deviate is x - log(x)/x - z P(z)/Q(z), z = 1/x,
# with P1/Q1 for x < 8 and P2/Q2 beyond (y < e^-32), negated below 1/2.
# Q is monic; its leading 1 is left out.
_EXPM2 = 0.13533528323661269189  # e^-2
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
#: entries per sub-block of ``ndtri``: its few temporaries of this size stay
#: in a core's L2 cache, and the sub-block still outweighs the fixed cost of
#: its ~60 ufunc calls (8192 and 65536 timed slower at N=10^4, d=784)
_NDTRI_BLOCK = 16384


def ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse standard normal CDF of every entry of the float64 array
    ``u`` (1-D or 2-D, entries strictly inside (0, 1)), written over ``u``,
    which is returned.  It walks ``u`` in row sub-blocks of about
    ``_NDTRI_BLOCK`` entries, so its temporaries stay cache-sized however
    large ``u`` is.  Central entries take the floats of
    ``scipy.special.ndtri``; tail entries may differ from them by a few ulps,
    where numpy's ``log`` differs from the C library's."""
    rows = u.reshape(len(u), -1)
    step = max(1, _NDTRI_BLOCK // rows.shape[1])
    for lo in range(0, len(rows), step):
        _ndtri_block(rows[lo:lo + step])
    return u


def _ndtri_block(v: np.ndarray):
    """``ndtri`` over one sub-block.  The central form runs over every
    entry, since gathering the central 73% costs more than evaluating it on
    the other 27% (where it stays finite: Q0 has no root with y2 <= 1/4);
    the tail form runs over the gathered tail entries and is put in over
    the central form's values there."""
    y = v - 0.5
    x = _rational(y * y, _P0, _Q0)
    x *= y
    x += y
    x *= _S2PI
    tail = np.flatnonzero((v <= _EXPM2) | (v > 1.0 - _EXPM2))
    u = v.take(tail)
    side = u - 0.5
    np.minimum(u, 1.0 - u, out=u)
    t = np.log(u, out=u)
    t *= -2.0
    np.sqrt(t, out=t)
    z = np.divide(1.0, t)
    t1 = _rational(z, _P1, _Q1)
    far = t >= 8.0
    if far.any():  # u < e^-32: rare but for clipped uniforms
        t1[far] = _rational(z[far], _P2, _Q2)
    t0 = np.log(t)
    t0 /= t
    np.subtract(t, t0, out=t0)
    t0 -= t1
    x.put(tail, np.copysign(t0, side, out=t0))
    v[...] = x


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x P(x) / Q(x), with P by Cephes' polevl and the monic Q by its p1evl:
    Horner from the leading coefficient, then (x P) / Q."""
    num = p[0] * x
    num += p[1]
    for a in p[2:]:
        num *= x
        num += a
    num *= x
    den = x + q[0]
    for b in q[1:]:
        den *= x
        den += b
    num /= den
    return num


# ---------------------------------------------------------------------------
# MNIST IDX ingestion


def _read_exact(fh, count: int, what: str, path) -> bytes:
    """``count`` bytes of ``fh``.  A count beyond the bytes left in the file
    reads only those, so a header's size claim never sizes the read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    buf = fh.read(max(0, min(count, left)))
    if len(buf) != count:
        raise OSError(f"{path}: truncated while reading {what}: "
                      f"expected {count} bytes, got {len(buf)}")
    return buf


def read_idx_images(path) -> np.ndarray:
    """(n, rows, cols) uint8 pixels from a big-endian IDX3 file."""
    with open(path, "rb") as fh:
        header = _read_exact(fh, 16, "image header", path)
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IMAGES_MAGIC:
            raise IdxFormatError(
                f"{path}: bad magic 0x{magic:08x} at offset 0, "
                f"expected 0x{IMAGES_MAGIC:08x} (big-endian IDX3 images)")
        raw = _read_exact(fh, n * rows * cols, f"{n} images", path)
    return np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    """(n,) uint8 labels from a big-endian IDX1 file."""
    with open(path, "rb") as fh:
        header = _read_exact(fh, 8, "label header", path)
        magic, n = struct.unpack(">II", header)
        if magic != LABELS_MAGIC:
            raise IdxFormatError(
                f"{path}: bad magic 0x{magic:08x} at offset 0, "
                f"expected 0x{LABELS_MAGIC:08x} (big-endian IDX1 labels)")
        raw = _read_exact(fh, n, f"{n} labels", path)
    return np.frombuffer(raw, dtype=np.uint8).copy()


def load_mnist_idx(images_path, labels_path,
                   digit_pair: tuple[int, int]) -> DataModel:
    """Binary digit-pair regression stream from IDX files.

    The kept images are stored once, as their uint8 bytes (n, d); a draw
    scales its pixels to [0, 1] (``_pixels``).  The first digit of the pair
    maps to y = -1, the second to y = +1; all other digits are dropped.
    """
    lo_digit, hi_digit = int(digit_pair[0]), int(digit_pair[1])
    if lo_digit == hi_digit:
        raise ConfigError("digit pair must name two distinct digits")
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels")
    keep = (labels == lo_digit) | (labels == hi_digit)
    if not np.any(keep):
        raise ConfigError(f"no samples of digits {digit_pair} in the files")
    kept = images[keep].reshape(keep.sum(), -1)
    y = np.where(labels[keep] == hi_digit, 1.0, -1.0)
    return DataModel("mnist-binary", kept.shape[1], images=kept, labels=y)
