import struct

import numpy as np
import pytest

from meanfield_sgd import (Histogram1D, RandomStreams, RejectedInputError,
                           TestFunction, activation, default_init,
                           default_model, default_test_functions)
from meanfield_sgd.data import IMAGES_MAGIC, LABELS_MAGIC


@pytest.fixture
def streams():
    return RandomStreams(1234)


@pytest.fixture
def model():
    return default_model()


@pytest.fixture
def init():
    return default_init(2)


@pytest.fixture
def tanh_act():
    return activation("tanh")


@pytest.fixture
def test_fns():
    return default_test_functions(2)


def counting(f: TestFunction):
    """``f`` giving the same floats, and a log of the particle count of each
    of its ``value`` and ``grad`` calls: (wrapped f, {"value": [...],
    "grad": [...]})."""
    calls = {"value": [], "grad": []}

    def value(c, w):
        calls["value"].append(c.shape[0])
        return f.value(c, w)

    def grad(c, w):
        calls["grad"].append(c.shape[0])
        return f.grad(c, w)

    return TestFunction(f.label, value, grad, f.d), calls


def write_idx_images(path, images: np.ndarray):
    """A big-endian IDX3 file of uint8 images (n, rows, cols)."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    """A big-endian IDX1 file of uint8 labels (n,)."""
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def read_histogram_csv(path) -> Histogram1D:
    """The histogram ``measure.write_histogram_csv`` wrote, labelled "c"."""
    lows, highs, counts = [], [], []
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0] != "edge_lo,edge_hi,count":
        raise RejectedInputError(f"{path}: not a histogram CSV")
    for row in rows[1:]:
        lo, hi, cnt = row.split(",")
        lows.append(float(lo))
        highs.append(float(hi))
        counts.append(int(cnt))
    edges = np.array(lows + [highs[-1]])
    return Histogram1D(edges, np.array(counts), "c")


def make_idx_pair(directory, n_per_class=300, digits=(3, 5), extra_digit=7,
                  seed=99, size=28):
    """Synthetic two-class IDX files shaped like the MNIST originals.

    Class one lights the top band of the image, class two the bottom band,
    plus pixel noise; a third digit is mixed in so filtering is exercised.
    Returns (images_path, labels_path).
    """
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for digit, band in ((digits[0], slice(0, size // 2)),
                        (digits[1], slice(size // 2, size))):
        for _ in range(n_per_class):
            img = rng.integers(0, 40, size=(size, size))
            img[band, :] += rng.integers(140, 215, size=(size // 2, size))
            images.append(np.clip(img, 0, 255))
            labels.append(digit)
    for _ in range(n_per_class // 4):
        images.append(rng.integers(0, 255, size=(size, size)))
        labels.append(extra_digit)
    order = rng.permutation(len(labels))
    images = np.array(images, dtype=np.uint8)[order]
    labels = np.array(labels, dtype=np.uint8)[order]
    images_path = directory / "images.idx3-ubyte"
    labels_path = directory / "labels.idx1-ubyte"
    write_idx_images(images_path, images)
    write_idx_labels(labels_path, labels)
    return images_path, labels_path


@pytest.fixture(scope="session")
def idx_files(tmp_path_factory):
    return make_idx_pair(tmp_path_factory.mktemp("idx"))
