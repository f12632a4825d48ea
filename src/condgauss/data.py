"""Dataset ingestion (IDX), prior/bound splitting, and synthetic blobs.

Labels are stored 1-based internally (classes 1..q); file formats keep their
native 0-based codes at the boundary. Every dataset carries a content
fingerprint, and a prior/bound split stamps both halves with a shared pair
token so certification can verify the prior never saw the bound data.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

__all__ = [
    "LabelledDataset",
    "IdxParseError",
    "load_mnist_idx",
    "save_idx",
    "split_holdout",
    "split_prior_bound",
    "synth_blobs",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxParseError(ValueError):
    """Malformed IDX file; messages carry the failing byte offset."""


@dataclass
class LabelledDataset:
    """Inputs in [0,1]^p with 1-based class labels.

    ``split_tag`` is one of whole / prior / bound; ``pair_token`` ties the two
    halves of a prior/bound split together.
    """

    inputs: np.ndarray
    labels: np.ndarray
    q: int
    split_tag: str = "whole"
    pair_token: str | None = None
    fingerprint: str = field(default="", repr=False)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D array [n, p]")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels counts differ")
        bad = np.flatnonzero(~np.isfinite(self.inputs).all(axis=1))
        if bad.size:
            raise ValueError(f"inputs row {bad[0]} has non-finite values")
        if self.labels.size and (self.labels.min() < 1 or self.labels.max() > self.q):
            raise ValueError(f"labels must lie in 1..{self.q}")
        if self.split_tag not in ("whole", "prior", "bound"):
            raise ValueError(f"unknown split tag: {self.split_tag}")
        if not self.fingerprint:
            self.fingerprint = self._compute_fingerprint()

    def _compute_fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.split_tag.encode())
        h.update(str(self.q).encode())
        h.update(np.ascontiguousarray(self.inputs).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()[:32]

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices, split_tag: str, pair_token: str | None = None) -> "LabelledDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return LabelledDataset(
            inputs=self.inputs[indices],
            labels=self.labels[indices],
            q=self.q,
            split_tag=split_tag,
            pair_token=pair_token,
        )


def _read_exact(fh, n: int, offset: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise IdxParseError(
            f"truncated IDX file: expected {n} bytes of {what} at offset {offset}, "
            f"got {len(buf)}"
        )
    return buf


def load_mnist_idx(images_path, labels_path) -> LabelledDataset:
    """Parse big-endian IDX image/label files into a flattened dataset.

    Image magic must be 0x00000803 (3 dimensions), label magic 0x00000801.
    Pixels are unsigned bytes scaled by 1/255; labels are remapped 0..q-1 to
    1..q.
    """
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, 0, "image header"))
        if magic != IMAGE_MAGIC:
            raise IdxParseError(
                f"bad image magic 0x{magic:08x} at offset 0, expected 0x{IMAGE_MAGIC:08x}"
            )
        pixels = _read_exact(fh, n * rows * cols, 16, "pixel data")
    with open(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, 0, "label header"))
        if magic != LABEL_MAGIC:
            raise IdxParseError(
                f"bad label magic 0x{magic:08x} at offset 0, expected 0x{LABEL_MAGIC:08x}"
            )
        raw_labels = _read_exact(fh, n_labels, 8, "label data")
    if n != n_labels:
        raise IdxParseError(f"image count {n} does not match label count {n_labels}")
    inputs = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64).reshape(n, rows * cols)
    inputs /= 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64) + 1
    return LabelledDataset(inputs=inputs, labels=labels, q=int(labels.max()))


def save_idx(ds: LabelledDataset, images_path, labels_path) -> None:
    """Export to the IDX layout (pixels quantized back to bytes)."""
    n, p = ds.inputs.shape
    pixels = np.clip(np.rint(ds.inputs * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, 1, p))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, n))
        fh.write((ds.labels - 1).astype(np.uint8).tobytes())


def split_prior_bound(ds: LabelledDataset, fraction: float, seed: int):
    """Disjoint, exhaustive split: S1 (prior, first `fraction`) and S2 (bound).

    The permutation is seeded, both halves carry a shared pair token, and the
    bound half must keep at least 8 points.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = len(ds)
    n1 = int(round(fraction * n))
    if n - n1 < 8:
        raise ValueError(f"bound split would have {n - n1} < 8 points")
    if n1 < 1:
        raise ValueError("prior split would be empty")
    perm = RngStream(seed).child("split").permutation(n)
    idx1 = np.sort(perm[:n1])
    idx2 = np.sort(perm[n1:])
    token = hashlib.sha256(
        f"{ds.fingerprint}:{fraction!r}:{seed}".encode()
    ).hexdigest()[:16]
    return ds.subset(idx1, "prior", token), ds.subset(idx2, "bound", token)


def split_holdout(ds: LabelledDataset, per_class: int):
    """The first ``per_class`` points of each class, in dataset order, and
    the rest as a held-out set; both halves keep the ``whole`` tag."""
    rank = np.empty(len(ds), dtype=np.int64)
    for c in range(1, ds.q + 1):
        in_class = ds.labels == c
        rank[in_class] = np.arange(np.count_nonzero(in_class))
    keep = rank < per_class
    return ds.subset(np.flatnonzero(keep), "whole"), ds.subset(np.flatnonzero(~keep), "whole")


def synth_blobs(
    classes: int, per_class: int, dim: int, separation: float, seed: int
) -> LabelledDataset:
    """Gaussian class blobs inside [0,1]^dim.

    Class means sit at 0.5 + (separation/2) * e_i where the e_i are seeded
    orthonormal directions (vertices of a regular simplex of edge
    separation/sqrt(2)); within-class noise has standard deviation 0.02 per
    coordinate and values are clipped into the box. separation = 0 makes the
    classes indistinguishable; separation of a few tenths already makes them
    linearly separable with overwhelming probability.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if classes > dim:
        raise ValueError("need dim >= classes for orthogonal class directions")
    if not 0.0 <= separation <= 1.0:
        raise ValueError("separation must be in [0, 1]")
    rng = RngStream(seed).child("blobs")
    raw = rng.child("directions").normal((dim, classes))
    qmat, _ = np.linalg.qr(raw)
    means = 0.5 + 0.5 * separation * qmat.T[:classes]
    noise = rng.child("noise").normal((classes * per_class, dim)) * 0.02
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    inputs = means[labels - 1] + noise
    order = rng.child("order").permutation(classes * per_class)
    return LabelledDataset(
        inputs=np.clip(inputs[order], 0.0, 1.0),
        labels=labels[order],
        q=classes,
    )
