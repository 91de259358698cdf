"""Dataset ingestion: IDX image files, CSV vectors, subsampled kernels.

The pipeline computes similarities only for the randomly sampled pairs:
sample pairs, evaluate their distances, calibrate the kernel bandwidth as
the mean of exactly those squared distances, kernelize, center, build the
graph.  Nothing here ever touches all n^2 pairs.
"""

from __future__ import annotations

import gzip
import math
import struct
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, build_graph, center_weights
from .model import draw_er_pairs

__all__ = [
    "read_idx",
    "read_idx_labels",
    "read_csv_vectors",
    "calibrate_sigma",
    "SubsampleResult",
    "subsample_and_weight",
    "load_mnist_subset",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# the decoder's wording of each magic's file kind and payload
_IDX_NAMES = {IDX_IMAGES_MAGIC: ("image", "pixels"), IDX_LABELS_MAGIC: ("label", "labels")}

# Pairs per block of the sampled distance kernel; at d = 784 a block's
# temporaries take about 25 MB, and 1024 timed faster than 256 or 4096.
_PAIR_BLOCK = 1024


def _read_exact(fh, count, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise ValueError(f"truncated IDX file: expected {count} bytes of {what}")
    return buf


def _decode_idx(path, magic):
    """The uint8 array of a plain or gzipped IDX file that must carry ``magic``,
    whose low byte counts the big-endian uint32 sizes that follow it."""
    ndim, (kind, part) = magic & 0xFF, _IDX_NAMES[magic]
    try:
        with open(path, "rb") as raw:
            zipped = raw.read(2) == b"\x1f\x8b"
            raw.seek(0)
            fh = gzip.GzipFile(fileobj=raw) if zipped else raw
            found, *shape = struct.unpack(f">{1 + ndim}I", _read_exact(fh, 4 + 4 * ndim, "header"))
            if found != magic:
                raise ValueError(f"bad IDX {kind} magic 0x{found:08x} "
                                 f"(expected 0x{magic:08x})")
            payload = _read_exact(fh, math.prod(shape), part)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"cannot decompress {path}: {exc}") from None
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def _unit_pixels(pixels):
    """uint8 pixels as float32 in [0, 1], the one scaling of both image loaders."""
    return np.divide(pixels, 255.0, dtype=np.float32)


def read_idx(path):
    """Parse a plain or gzipped IDX image file (big-endian, magic 0x00000803).

    Returns (count, rows, cols, pixels), pixels float32 scaled to [0, 1].
    """
    pixels = _decode_idx(path, IDX_IMAGES_MAGIC)
    return (*pixels.shape, _unit_pixels(pixels))


def read_idx_labels(path):
    """Parse a plain or gzipped IDX label file (big-endian, magic
    0x00000801) into int64 labels."""
    return _decode_idx(path, IDX_LABELS_MAGIC).astype(np.int64)


def read_csv_vectors(path, header: bool = False):
    """Load labelled row vectors from a CSV file, in file order.

    The last column is split off as integer class labels; returns
    (vectors, labels).  Ragged rows, non-numeric cells, fewer than two
    columns, a vector cell that is nan or infinite, or a label that is not
    a finite integer value raise ValueError naming the file.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*no data.*")
            data = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"{path} contains no data rows")
    if data.shape[1] < 2:
        raise ValueError(f"{path} needs vector columns and a label column, got one column")
    finite = np.isfinite(data[:, :-1])
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: value {data[row, col]:g} of data row {row + 1} is not finite")
    labels = data[:, -1]
    bad = ~np.isfinite(labels) | (labels != np.round(labels))
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}: label {labels[row]:g} of data row {row + 1} "
                         "is not an integer")
    return data[:, :-1], labels.astype(np.int64)


def calibrate_sigma(sq_distances) -> float:
    """Bandwidth = mean of the observed squared distances, which must be
    finite: a nan or infinite coordinate would make every similarity 1."""
    d2 = np.asarray(sq_distances, dtype=np.float64)
    if d2.size == 0:
        raise ValueError("cannot calibrate a bandwidth from no distances")
    sigma2 = float(d2.mean())
    if not np.isfinite(sigma2):
        raise ValueError(f"cannot calibrate a bandwidth from distances of mean {sigma2}; "
                         "are all coordinates finite?")
    return sigma2


def _sq_distances(points, pairs, metric):
    """Squared distances for exactly the given pairs (no all-pairs work).

    The endpoints are gathered ``_PAIR_BLOCK`` pairs at a time, so the
    temporaries take O(block * d) memory rather than O(m * d); each row's
    reduction is the same as in one unblocked pass.
    """
    out = np.empty(pairs.shape[0])
    for start in range(0, pairs.shape[0], _PAIR_BLOCK):
        block = pairs[start:start + _PAIR_BLOCK]
        a, b = points[block[:, 0]], points[block[:, 1]]
        if metric == "euclidean":
            out[start:start + _PAIR_BLOCK] = ((a - b) ** 2).sum(axis=1)
        else:
            na = np.linalg.norm(a, axis=1)
            nb = np.linalg.norm(b, axis=1)
            dots = np.einsum("ij,ij->i", a, b)
            ok = (na > 0) & (nb > 0)
            cos = np.zeros(block.shape[0])
            np.divide(dots, na * nb, out=cos, where=ok)
            out[start:start + _PAIR_BLOCK] = np.where(ok, 1.0 - cos, 1.0) ** 2
    return out


@dataclass
class SubsampleResult:
    """Subsampled similarity graph plus provenance counters."""

    graph: WeightedGraph          # centered weights
    similarities: np.ndarray      # raw kernel values, one per sampled pair
    sigma2: float                 # calibrated bandwidth
    similarity_evals: int         # distance evaluations performed


def subsample_and_weight(points, alpha: float, metric: str = "euclidean", rng=None) -> SubsampleResult:
    """Sample pairs at mean degree alpha, kernelize their similarities,
    and build the centered-weight graph.

    Two-pass bandwidth calibration: the sampled pairs' squared distances
    are computed first, their mean becomes sigma2, then the same
    distances are kernelized.  The total number of distance evaluations
    is exactly the sampled pair count (recorded on the result).
    ``metric`` is "euclidean" or "cosine"; the cosine distance of a zero
    vector against anything is defined as 1.
    """
    if metric not in ("euclidean", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    points = np.asarray(points, dtype=np.float64)
    if rng is None:
        rng = np.random.default_rng()
    n = points.shape[0]
    pairs = draw_er_pairs(n, alpha, rng)
    if pairs.shape[0] == 0:
        graph = build_graph(n, pairs, np.empty(0))
        return SubsampleResult(graph, np.empty(0), float("nan"), 0)
    d2 = _sq_distances(points, pairs, metric)
    sigma2 = calibrate_sigma(d2)
    sims = np.exp(-d2 / sigma2) if sigma2 > 0 else np.ones_like(d2)
    graph = build_graph(n, pairs, center_weights(sims))
    return SubsampleResult(graph, sims, sigma2, int(pairs.shape[0]))


def load_mnist_subset(images_path, labels_path, digits):
    """Flatten the images whose label is in ``digits``, from plain or
    gzipped IDX files.

    Returns (vectors, truth) where vectors is (n, rows*cols) float64, the
    kept rows of :func:`read_idx`'s pixels widened, and truth holds each
    item's index into ``digits`` (0-based classes).  Fewer than two digits,
    files that disagree on the item count, a repeated digit, or a digit
    that no label carries raise ValueError.
    """
    digits = tuple(int(d) for d in digits)
    if len(digits) < 2:
        raise ValueError("need at least two digit classes")
    images = _decode_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _decode_idx(labels_path, IDX_LABELS_MAGIC)
    if labels.shape[0] != images.shape[0]:
        raise ValueError("image and label files disagree on the item count")
    if len(set(digits)) < len(digits):
        raise ValueError(f"digits {digits} repeat a value")
    absent = [d for d, seen in zip(digits, np.isin(digits, labels)) if not seen]
    if absent:
        raise ValueError(f"no label in {labels_path} is digit {absent[0]}")
    keep = np.isin(labels, digits)
    # select on the uint8 images, so that only the kept ones are converted
    images = images[keep]
    vectors = _unit_pixels(images).reshape(images.shape[0], -1).astype(np.float64)
    lookup = np.zeros(max(digits) + 1, dtype=np.int64)
    lookup[list(digits)] = np.arange(len(digits))
    return vectors, lookup[labels[keep]]
