"""Seeded inputs for the three benchmark workloads.

Everything a workload feeds to ``mfsgd`` is made here from the benchmark seed:
the key=value config file and, for ``mnist-wide``, a synthetic two-band IDX
digit corpus.  The same seed always gives the same bytes.  The corpus follows
the shape of the MNIST originals (28x28 uint8 images, big-endian IDX headers)
and is written with the benchmark's own writer, so no dataset download and no
test-suite helper is involved.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# Config keys per workload.  Shapes are the ones named in perfbench/README.md;
# changing any of them changes what the benchmark measures.
CONFIGS = {
    # reference per-step shape of the acceptance suite (M=1e4 paths, K=4096
    # frozen nodes), cut to 10 Euler steps and 3 snapshot slices
    "meanfield-ref": {
        "m": 10000, "quad_nodes": 4096, "dt": 0.05, "t_horizon": 0.5,
        "mf_snapshots": 3,
    },
    # reference N-grid with reduced replica counts; the mean-field solution
    # is built during set-up and reused through meanfield_dir=.  Four
    # martingale replicas keep both QV ratios inside [2.5, 6] on every seed
    # (log-ratio SD 0.10 over 24 seeds, against 0.22 with one replica)
    "verify-d2": {
        "t_horizon": 0.25, "n_grid": "100,400,1600", "replicas": 20,
        "chaos_replicas": 50, "mart_n_grid": "200,800", "mart_replicas": 4,
        "m": 4000, "quad_nodes": 2048, "dt": 0.005, "mf_snapshots": 11,
    },
    # the criterion-09 N-grid up to 1e4 at d=784, on a short horizon
    "mnist-wide": {
        "digit_pair": "3,5", "mnist_n_grid": "100,1000,10000",
        "t_horizon": 0.01, "bins": 30,
    },
}

IDX_PER_CLASS = 300
IDX_SIZE = 28
IDX_DIGITS = (3, 5)
IDX_EXTRA_DIGIT = 7
IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def config_text(workload: str, extra: dict | None = None) -> str:
    items = dict(CONFIGS[workload])
    items.update(extra or {})
    return "".join(f"{k}={v}\n" for k, v in items.items())


def write_idx_corpus(directory: Path, seed: int) -> tuple[Path, Path]:
    """Two classes lighting the top or bottom half of the image plus pixel
    noise, and a third digit mixed in so the digit-pair filter has work."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 784]))
    half = IDX_SIZE // 2
    images, labels = [], []
    for digit, band in ((IDX_DIGITS[0], slice(0, half)),
                        (IDX_DIGITS[1], slice(half, IDX_SIZE))):
        for _ in range(IDX_PER_CLASS):
            img = rng.integers(0, 40, size=(IDX_SIZE, IDX_SIZE))
            img[band, :] += rng.integers(140, 215, size=(half, IDX_SIZE))
            images.append(np.clip(img, 0, 255))
            labels.append(digit)
    for _ in range(IDX_PER_CLASS // 4):
        images.append(rng.integers(0, 255, size=(IDX_SIZE, IDX_SIZE)))
        labels.append(IDX_EXTRA_DIGIT)
    order = rng.permutation(len(labels))
    images = np.array(images, dtype=np.uint8)[order]
    labels = np.array(labels, dtype=np.uint8)[order]
    images_path = directory / "images.idx3-ubyte"
    labels_path = directory / "labels.idx1-ubyte"
    images_path.write_bytes(
        struct.pack(">IIII", IMAGES_MAGIC, len(labels), IDX_SIZE, IDX_SIZE)
        + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", LABELS_MAGIC, len(labels))
                            + labels.tobytes())
    return images_path, labels_path


def write_inputs(workload: str, directory: Path, seed: int) -> Path:
    """Write the workload's config (and corpus) into ``directory``; return
    the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    extra = {}
    if workload == "mnist-wide":
        images, labels = write_idx_corpus(directory, seed)
        extra = {"images": images.resolve(), "labels": labels.resolve()}
    cfg = directory / "run.cfg"
    cfg.write_text(config_text(workload, extra))
    return cfg
