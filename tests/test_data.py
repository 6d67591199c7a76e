"""Data laws (teacher, polynomial, MNIST-derived), initialization laws with
their nested-prefix coupling, and the IDX file format."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy import special

from meanfield_sgd import (Batch, ConfigError, DataModel, IdxFormatError,
                           InitLaw, RandomStreams, RejectedInputError,
                           activation, default_init, default_model,
                           from_network, load_mnist_idx, mean_output,
                           noisy_polynomial, sample_data, sample_init,
                           teacher_network)
from meanfield_sgd.data import (_EXPM2, conditional_mean, ndtri,
                                read_idx_images, read_idx_labels)
from meanfield_sgd import data
from meanfield_sgd.sgd import Ensemble
from tests.conftest import make_idx_pair, write_idx_images, write_idx_labels


def test_teacher_conditional_mean_oracle():
    model = default_model()
    # sum_j a_j tanh(b_j . x) at x = (0.3, -0.2) for the built-in units
    got = conditional_mean(model, np.array([0.3, -0.2]))
    assert got[0] == pytest.approx(0.65294489344605, abs=1e-14)
    got2 = conditional_mean(model, np.array([[-1.0, 1.0]]))
    assert got2[0] == pytest.approx(-1.8585810903524846, abs=1e-14)


def test_teacher_requires_units_beyond_d2():
    with pytest.raises(ConfigError):
        teacher_network(d=3)
    model = teacher_network(d=3, units=(np.ones(2), np.ones((2, 3))))
    assert model.d == 3


def test_sample_data_noise_is_bounded_and_centered():
    model = default_model(noise_scale=0.25)
    rng = np.random.default_rng(1)
    batch = sample_data(model, rng, 20_000)
    resid = batch.y - conditional_mean(model, batch.x)
    assert np.max(np.abs(resid)) <= 0.25
    assert abs(np.mean(resid)) < 0.005
    assert np.all(np.abs(batch.x) <= 1.0)


def test_sample_data_deterministic_given_stream():
    model = default_model()
    s = RandomStreams(5)
    a = sample_data(model, s.stream(0, purpose="data"), 100)
    b = sample_data(model, s.stream(0, purpose="data"), 100)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_noisy_polynomial_values():
    model = noisy_polynomial(2, const=1.0, lin=(2.0, 0.0), quad=(0.0, 3.0),
                             noise_scale=0.0)
    x = np.array([[0.5, -0.5]])
    assert conditional_mean(model, x)[0] == pytest.approx(1.0 + 1.0 + 0.75)
    with pytest.raises(ConfigError):
        noisy_polynomial(2, lin=(1.0,))


def test_batch_rejects_mismatched_shapes():
    with pytest.raises(RejectedInputError):
        Batch(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(RejectedInputError):
        Batch(np.zeros(3), np.zeros(3))


def test_from_network_reproduces_outputs_bit_for_bit():
    """A noiseless teacher built from a cloud is the interpolation fixed
    point: its labels equal the cloud's own outputs exactly."""
    rng = np.random.default_rng(7)
    ens = Ensemble(rng.standard_normal(40), rng.standard_normal((40, 2)),
                   activation("tanh"), alpha=1.0)
    model = from_network(ens, ens.activation, noise_scale=0.0)
    batch = sample_data(model, rng, 64)
    for x, y in zip(batch.x, batch.y):
        assert mean_output(ens.c, ens.activation.value(ens.w @ x)) == y


def test_model_validation_errors():
    with pytest.raises(ConfigError):
        DataModel("nonsense", 2)
    with pytest.raises(ConfigError):
        teacher_network(noise_scale=-0.1)
    with pytest.raises(ConfigError):
        conditional_mean(DataModel("mnist-binary", 4,
                                   images=np.zeros((2, 4), np.uint8),
                                   labels=np.array([-1.0, 1.0])),
                         np.zeros(4))
    with pytest.raises(ConfigError, match="uint8"):  # pixels, not floats
        DataModel("mnist-binary", 4, images=np.zeros((2, 4)),
                  labels=np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# initialization laws


def test_init_uniform_bounds_and_degenerate_interval():
    rng = np.random.default_rng(4)
    law = InitLaw(d=2, c_params=(-0.5, 0.25))
    cloud = sample_init(law, rng, 5000)
    assert cloud.c.min() >= -0.5 and cloud.c.max() <= 0.25
    frozen = sample_init(InitLaw(d=2, c_params=(0.7, 0.7)), rng, 100)
    assert np.all(frozen.c == 0.7)


def test_init_gaussian_w_moments():
    cloud = sample_init(InitLaw(d=3, w_scale=2.0), np.random.default_rng(5),
                        100_000)
    n = cloud.w.size
    assert abs(np.mean(cloud.w)) < 4 * 2.0 / np.sqrt(n)
    assert np.std(cloud.w) == pytest.approx(2.0, rel=0.02)


def test_init_nested_prefix_coupling():
    """Sampling n then 4n particles from the same stream state agrees on the
    first n particles, at input widths 2, 3 and 784 (where a 4n draw spans
    several uniform row blocks)."""
    laws = [
        InitLaw(d=2),
        InitLaw(d=3, c_params=(-0.5, 2.0), w_scale=0.5),
        InitLaw(d=784, w_scale=1.5),
    ]
    for law in laws:
        s = RandomStreams(77)
        small = sample_init(law, s.stream(9, purpose="init"), 64)
        big = sample_init(law, s.stream(9, purpose="init"), 256)
        assert np.array_equal(small.c, big.c[:64])
        assert np.array_equal(small.w, big.w[:64])


def _reference_init(law, rng, n):
    """The out-of-place form of sample_init: each map makes a new block, and
    the inverse CDF maps the whole clipped block at once."""
    u = rng.random((n, law.d + 1))
    lo, hi = law.c_params
    tiny = np.finfo(np.float64).tiny
    return (lo + (hi - lo) * u[:, 0],
            law.w_scale * ndtri(np.clip(u[:, 1:], tiny, 1.0 - 1e-16)))


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_ndtri_central_region_is_scipys_bitwise():
    """On 2 x 10^6 uniforms, the 73% in the central region e^-2 < u <=
    1 - e^-2 take scipy's floats exactly (same rational, same order of
    operations, no transcendental call), and the tails stay within 8
    ulps."""
    u = np.random.default_rng(12).random(2 * 10 ** 6)
    want = special.ndtri(u)
    got = ndtri(u.copy())
    central = (u > _EXPM2) & (u <= 1.0 - _EXPM2)
    assert central.sum() > 10 ** 6
    assert np.array_equal(got[central], want[central])
    assert _ulps(got, want).max() <= 8


def test_ndtri_tails_within_8_ulps_of_scipy():
    """Log-spaced y from the smallest normal double to e^-2, on both sides
    (u = y and u = 1 - y), including the clip bounds tiny and 1 - 1e-16
    that reach the far-tail rational (x >= 8).  The tail forms call log,
    where numpy's and the C library's may round differently."""
    tiny = np.finfo(np.float64).tiny
    y = np.geomspace(tiny, _EXPM2, 200_001)
    upper = 1.0 - y[y >= 1e-16]
    assert (y < np.exp(-32.0)).sum() > 10 ** 5  # the far-tail rational
    for u in (y, upper, np.array([tiny, 1.0 - 1e-16, 1e-15, 1.0 - 1e-15])):
        got, want = ndtri(u.copy()), special.ndtri(u)
        assert np.all(np.isfinite(got))
        assert _ulps(got, want).max() <= 8


def test_ndtri_in_place_on_a_row_block_view():
    """Mapped in place over a row block of a larger array, in sub-blocks,
    ndtri writes exactly the values of the whole-array map into that block
    and returns the block; the rows around it are untouched.  So does a
    strided view that leaves out the first column."""
    u = np.random.default_rng(13).random((500, 784))
    want = ndtri(u.copy())
    for rows, cols in ((slice(37, 451), slice(None)),
                       (slice(None), slice(1, None))):
        work = u.copy()
        block = work[rows, cols]
        assert ndtri(block) is block
        assert np.array_equal(work[rows, cols], want[rows, cols])
        work[rows, cols] = u[rows, cols]
        assert np.array_equal(work, u)


@pytest.mark.parametrize("law", [
    InitLaw(d=784, w_scale=0.5),
    InitLaw(d=3, c_params=(-0.5, 2.0), w_scale=1.5),
    InitLaw(d=2),
])
def test_from_init_peak_memory_and_bits(law):
    """An ensemble is built holding at most 2.2 blocks of N x (d+1) float64
    at once (the uniforms are mapped in place, and the ensemble copies the
    cloud once), with c and w bit-equal to the out-of-place maps (the
    package's own inverse CDF over the whole clipped block).  N=2000 at
    d=784, and at smaller d the N that gives a block of the same 12.6 MB, so
    that per-call overheads of a few kB stay out of the bound."""
    n = 2000 * 785 // (law.d + 1)
    block = n * (law.d + 1) * 8
    tracemalloc.start()
    try:
        ens = Ensemble.from_init(law, activation("tanh"), 1.0,
                                 np.random.default_rng(8), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * block, f"peak {peak / block:.2f} blocks"
    c, w = _reference_init(law, np.random.default_rng(8), n)
    assert np.array_equal(ens.c, c)
    assert np.array_equal(ens.w, w)


def test_init_map_bounds_only_zero():
    """The largest uniform ``Generator.random`` draws, 1 - 2**-53, is the
    float that 1 - 1e-16 rounds to, so an upper clip is moot: raising the
    uniforms to tiny gives the bits of the clip to [tiny, 1 - 1e-16] on 0,
    2**-53 and 1 - 2**-53 and on a drawn block, and w stays finite."""
    assert 1.0 - 1e-16 == 1.0 - 2.0 ** -53 == np.nextafter(1.0, 0.0)
    law, tiny = InitLaw(d=3, c_params=(-0.5, 2.0), w_scale=1.5), 2.0 ** -1022
    edges = np.array([[0.5, 0.0, 2.0 ** -53, 1.0 - 2.0 ** -53]])
    drawn = np.random.default_rng(12).random((500, 4))
    for u in (edges, drawn):
        c, w = np.empty(len(u)), np.empty((len(u), 3))
        data._map_init(law, u, c, w)
        want = 1.5 * ndtri(np.clip(u[:, 1:], tiny, 1.0 - 1e-16))
        assert w.tobytes() == want.tobytes() and np.all(np.isfinite(w))
        assert c.tobytes() == (-0.5 + 2.5 * u[:, 0]).tobytes()


def test_init_law_validation():
    with pytest.raises(ConfigError):
        InitLaw(d=0)
    with pytest.raises(ConfigError):
        InitLaw(d=1, c_params=(1.0, -1.0))
    with pytest.raises(ConfigError):
        InitLaw(d=1, w_scale=0.0)
    with pytest.raises(RejectedInputError):
        sample_init(default_init(2), np.random.default_rng(0), 0)


# ---------------------------------------------------------------------------
# IDX files


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    images = rng.integers(0, 256, size=(7, 5, 4)).astype(np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    write_idx_images(tmp_path / "im", images)
    write_idx_labels(tmp_path / "lb", labels)
    assert np.array_equal(read_idx_images(tmp_path / "im"), images)
    assert np.array_equal(read_idx_labels(tmp_path / "lb"), labels)


def test_idx_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x00\x00\x08\x04" + b"\x00" * 12)
    with pytest.raises(IdxFormatError, match="offset 0"):
        read_idx_images(path)
    with pytest.raises(IdxFormatError, match="0x00000801"):
        read_idx_labels(path)


def test_idx_truncation_reports_byte_counts(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 10, 28, 28) + b"\x00" * 50)
    with pytest.raises(OSError, match="expected 7840 bytes, got 50"):
        read_idx_images(path)
    (tmp_path / "tiny").write_bytes(b"\x00\x00")
    with pytest.raises(OSError, match="header"):
        read_idx_labels(tmp_path / "tiny")


@pytest.mark.parametrize("read,content,got", [
    (read_idx_images, struct.pack(">IIII", 0x00000803, *[2**32 - 1] * 3), 0),
    (read_idx_images, struct.pack(">IIII", 0x00000803, 2**20, 2**10, 2**10)
     + bytes(100), 100),
    (read_idx_labels, struct.pack(">II", 0x00000801, 2**32 - 1) + bytes(100),
     100),
], ids=["images-2**96", "images-2**40", "labels-2**32"])
def test_idx_size_claim_beyond_the_file_reads_nothing(tmp_path, read, content,
                                                      got):
    """A header claiming more bytes than the file holds is a truncated file,
    refused with its byte counts and without an allocation of the claimed
    size: (2**32 - 1)**3 bytes is too large for a read to take at all, and
    2**40 would try to allocate 1 TiB."""
    path = tmp_path / "idx"
    path.write_bytes(content)
    tracemalloc.start()
    try:
        with pytest.raises(OSError, match=f"truncated .* got {got}$"):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_mnist_digit_pair(tmp_path):
    """The kept images are stored once as their uint8 bytes; a draw scales
    them to [0, 1]."""
    images_path, labels_path = make_idx_pair(tmp_path, n_per_class=40)
    model = load_mnist_idx(images_path, labels_path, (3, 5))
    assert model.kind == "mnist-binary"
    assert model.d == 28 * 28
    assert model.images.dtype == np.uint8
    assert model.images.shape == (80, model.d)  # the extra digit is dropped
    raw, digits = read_idx_images(images_path), read_idx_labels(labels_path)
    assert np.array_equal(model.images,
                          raw[(digits == 3) | (digits == 5)].reshape(80, -1))
    assert set(np.unique(model.labels)) == {-1.0, 1.0}
    batch = sample_data(model, np.random.default_rng(8), 400)
    assert batch.x.dtype == np.float64
    assert batch.x.min() >= 0.0 and batch.x.max() <= 1.0
    # first digit of the pair maps to -1: top-band images are the 3s
    top_mass = batch.x[:, : model.d // 2].sum(axis=1)
    bottom_mass = batch.x[:, model.d // 2:].sum(axis=1)
    assert np.all((top_mass > bottom_mass) == (batch.y == -1.0))


def test_load_mnist_errors(tmp_path):
    images_path, labels_path = make_idx_pair(tmp_path, n_per_class=10)
    with pytest.raises(ConfigError):
        load_mnist_idx(images_path, labels_path, (4, 4))
    with pytest.raises(ConfigError):
        load_mnist_idx(images_path, labels_path, (0, 1))   # not in the files
    short = tmp_path / "short-labels"
    write_idx_labels(short, np.array([3, 5], dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="labels"):
        load_mnist_idx(images_path, short, (3, 5))


def test_mnist_sampling_draws_rows(tmp_path):
    images_path, labels_path = make_idx_pair(tmp_path, n_per_class=30)
    model = load_mnist_idx(images_path, labels_path, (3, 5))
    batch = sample_data(model, np.random.default_rng(9), 500)
    assert batch.x.shape == (500, model.d)
    assert set(np.unique(batch.y)) == {-1.0, 1.0}
