"""Model-image shortlisting with a bag-of-visual-words index.

Descriptors are quantized against a k-means vocabulary; each model image
becomes an L2-normalized tf-idf vector and queries are ranked by cosine
similarity. The shortlist bounds how many model images the (much more
expensive) embedding matcher has to consider per query frame.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, TooFewDescriptors

DEFAULT_K = 1024
DEFAULT_SHORTLIST = 25
KMEANS_MAX_ITERS = 50


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """k-means centers over descriptor space."""

    centers: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 2:
            raise ValueError("vocabulary needs at least 2 centers")
        object.__setattr__(self, "centers", c)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def assign(self, descriptors: np.ndarray) -> np.ndarray:
        """Index of the nearest center per descriptor; ties pick the lowest index."""
        d = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
        if d.shape[0] == 0:
            return np.zeros(0, dtype=np.intp)
        return np.argmin(_sq_dists_to(self.centers, d), axis=1)


@dataclass(frozen=True, eq=False)
class InvertedIndex:
    """Per-image tf-idf vectors plus the idf weights used to build them.

    Image ids are unique; ValueError otherwise.
    """

    image_ids: list[int]
    vectors: np.ndarray  # (n_images, k), L2-normalized rows (or zero)
    idf: np.ndarray      # (k,)

    def __post_init__(self):
        dup = sorted(i for i, n in Counter(self.image_ids).items() if n > 1)
        if dup:
            raise ValueError(f"duplicate image ids {dup}")


def _sq_dists_to(centers: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.maximum(
        np.einsum("ij,ij->i", x, x)[:, None]
        - 2.0 * (x @ centers.T)  # scales the (n, k) product, not a copy of x
        + np.einsum("ij,ij->i", centers, centers)[None, :],
        0.0,
    )


def _sq_dists_to_row(x: np.ndarray, sq: np.ndarray, tol: np.ndarray, j: int) -> np.ndarray:
    """Squared distances from every row of `x` to row j, one product per call.

    `sq` holds the rows' squared norms and `tol` their round-off bound. A
    row whose norms-form value is within round-off of 0 is recomputed from
    its difference, so a row equal to row j reads exactly 0.
    """
    d2 = sq - 2.0 * (x @ x[j]) + sq[j]
    near = np.flatnonzero(d2 <= tol + tol[j])
    diff = x[near] - x[j]
    d2[near] = np.einsum("ij,ij->i", diff, diff)
    return d2


def build_vocabulary(descriptors: np.ndarray, k: int, seed: int = 0) -> Vocabulary:
    """Standard k-means with seeded greedy ++ initialization, <= 50 iterations.

    Seeding (Arthur & Vassilvitskii, SODA 2007) computes the squared norms
    once; each pick's distances are then one matrix-vector product, so
    memory stays O(n*d) however many descriptors there are. A Lloyd step
    reads each cluster's rows from one stable sort of the labels.
    """
    x = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    n, d = x.shape
    if k < 2:
        raise ValueError("need at least 2 clusters")
    if n < k:
        raise TooFewDescriptors(f"need at least k={k} descriptors, got {n}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, d), dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    # bounds the error of sq_i + sq_j - 2 x_i.x_j with margin
    tol = 4.0 * d * np.finfo(np.float64).eps * sq
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = _sq_dists_to_row(x, sq, tol, first)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass at chosen centers; fall back to farthest point
            j = int(np.argmax(d2))
        else:
            j = int(rng.choice(n, p=d2 / total))
        centers[i] = x[j]
        d2 = np.minimum(d2, _sq_dists_to_row(x, sq, tol, j))

    for _ in range(KMEANS_MAX_ITERS):
        dists = _sq_dists_to(centers, x)
        labels = np.argmin(dists, axis=1)
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        # cluster c's rows are order[ends[c] - counts[c]:ends[c]], in row order
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(counts)
        for c in range(k):
            if counts[c] > 0:
                new_centers[c] = x[order[ends[c] - counts[c]:ends[c]]].mean(axis=0)
            else:
                # adopt the point farthest from its assigned center
                far = int(np.argmax(dists[np.arange(n), labels]))
                new_centers[c] = x[far]
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    return Vocabulary(centers)


def _tf_vector(labels: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else counts


def index_images(image_ids: list[int], image_descriptors: list[np.ndarray],
                 vocab: Vocabulary) -> InvertedIndex:
    """tf-idf index over model images.

    idf_i = max(0, ln(N / (1 + n_i))) with n_i the number of images whose
    word i occurs at least once; tf is the within-image relative frequency.
    Rows normalize to unit length; an all-zero row (possible when idf
    vanishes everywhere, e.g. a single-image index) stays zero. Duplicate
    image ids raise ValueError.
    """
    if len(image_ids) != len(image_descriptors) or not image_ids:
        raise EmptyInput("need matching, non-empty ids and descriptor sets")
    k = vocab.k
    n = len(image_ids)
    tf = np.zeros((n, k), dtype=np.float64)
    present = np.zeros((n, k), dtype=bool)
    for row, descs in enumerate(image_descriptors):
        labels = vocab.assign(descs)
        tf[row] = _tf_vector(labels, k)
        present[row] = np.bincount(labels, minlength=k) > 0
    n_i = present.sum(axis=0).astype(np.float64)
    idf = np.maximum(np.log(n / (1.0 + n_i)), 0.0)
    vecs = tf * idf[None, :]
    norms = np.linalg.norm(vecs, axis=1)
    nz = norms > 0
    vecs[nz] = vecs[nz] / norms[nz, None]
    return InvertedIndex(list(image_ids), vecs, idf)


def shortlist(query_descriptors: np.ndarray, vocab: Vocabulary, index: InvertedIndex,
              top_k: int = DEFAULT_SHORTLIST) -> list[tuple[int, float]]:
    """Top model images by cosine similarity, ties broken by ascending id.

    Returns at most top_k (image_id, score) pairs, best first; fewer when
    the index holds fewer images; a top_k under 1 raises ValueError.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    labels = vocab.assign(np.atleast_2d(np.asarray(query_descriptors, dtype=np.float64)))
    q = _tf_vector(labels, vocab.k) * index.idf
    norm = float(np.linalg.norm(q))
    if norm > 0:
        q = q / norm
    scores = index.vectors @ q
    ids = np.asarray(index.image_ids)
    order = np.lexsort((ids, -scores))
    order = order[: min(top_k, len(ids))]
    return [(int(ids[i]), float(scores[i])) for i in order]
